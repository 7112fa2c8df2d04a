"""kNN join, reverse geocode, geofence transitions vs brute-force oracles."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from conftest import perf_gate  # noqa: E402

from go_osm_search_ray import geo, synth
from go_osm_search_ray.stages import geofence, knn


def make_points(n=4000, seed=5):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "point_id": pa.array(np.arange(n), pa.int64()),
            "lat": pa.array(rng.uniform(-80, 80, n)),
            "lon": pa.array(rng.uniform(-170, 170, n)),
            "tag": pa.array([("a" if i % 3 == 0 else "b") for i in range(n)]),
        }
    )


def brute_knn(points, queries):
    p_lat = points["lat"].to_numpy()
    p_lon = points["lon"].to_numpy()
    p_id = points["point_id"].to_numpy()
    tags = (
        np.asarray(points["tag"].to_pylist())
        if "tag" in points.column_names
        else np.asarray([None] * len(p_id))
    )
    rows = []
    q = queries.to_pandas()
    for _, row in q.iterrows():
        d = geo.haversine_km(row["lat"], row["lon"], p_lat, p_lon)
        mask = np.ones(len(d), bool)
        if "radius_km" in row and not pd.isna(row.get("radius_km")):
            mask &= d <= row["radius_km"]
        if "feature" in row and row.get("feature") is not None and not pd.isna(row.get("feature")):
            mask &= tags == row["feature"]
        idx = np.nonzero(mask)[0]
        order = idx[np.lexsort((p_id[idx], d[idx]))]
        off = int(row["offset"]) if "offset" in row and not pd.isna(row.get("offset")) else 0
        sel = order[off : off + int(row["k"])]
        for r, i in enumerate(sel, 1):
            rows.append((int(row["query_id"]), r, int(p_id[i]), d[i]))
    return rows


@pytest.mark.usefixtures("ray_session")
class TestKNN:
    def test_knn_join_exact(self):
        import ray.data as rd

        points = make_points()
        queries = pa.table(
            {
                "query_id": pa.array([1, 2, 3], pa.int64()),
                "lat": pa.array([10.0, -40.0, 70.0]),
                "lon": pa.array([20.0, 100.0, -150.0]),
                "k": pa.array([5, 3, 7], pa.int64()),
            }
        )
        ds = rd.from_arrow(points).repartition(8)
        got = knn.knn_join(ds, queries, batch_size=512).sort_values(
            ["query_id", "rank"]
        )
        want = pd.DataFrame(
            brute_knn(points, queries),
            columns=["query_id", "rank", "point_id", "dist_km"],
        )
        got = got[["query_id", "rank", "point_id", "dist_km"]].reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_knn_radius_tag_offset(self):
        import ray.data as rd

        points = make_points()
        queries = pa.table(
            {
                "query_id": pa.array([7, 8], pa.int64()),
                "lat": pa.array([0.0, 30.0]),
                "lon": pa.array([0.0, 50.0]),
                "k": pa.array([4, 10], pa.int64()),
                "offset": pa.array([2, 0], pa.int64()),
                "radius_km": pa.array([8000.0, 3000.0]),
                "feature": pa.array(["a", None]),
            }
        )
        ds = rd.from_arrow(points).repartition(6)
        got = (
            knn.knn_join(ds, queries, tag_col="tag", batch_size=777)
            .sort_values(["query_id", "rank"])[
                ["query_id", "rank", "point_id", "dist_km"]
            ]
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            brute_knn(points, queries),
            columns=["query_id", "rank", "point_id", "dist_km"],
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_reference_knn_golden(self):
        """The 7 named Surakarta POIs of rtree_test.go:220-292: query at
        Taman Balekambang; expected 5-NN order [7, 6, 5, 4, 1]."""
        import ray.data as rd

        named = [
            (1, -7.546392935195944, 110.78209221630499),   # Dunia Fantasi-ish filler
            (2, -7.5559986670398855, 110.79594535444904),
            (3, -7.581893320410218, 110.8563229815006),
            (4, -7.5502020004208405, 110.78440409317045),
            (5, -7.5579210428726825, 110.7837924419525),
            (6, -7.56053200000, 110.78943200000),
            (7, -7.560443333584047, 110.78963413192151),
        ]
        query = (-7.560443333584047, 110.78963413192151)
        points = pa.table(
            {
                "point_id": pa.array([i for i, _, _ in named], pa.int64()),
                "lat": pa.array([a for _, a, _ in named]),
                "lon": pa.array([o for _, _, o in named]),
            }
        )
        queries = pa.table(
            {
                "query_id": pa.array([0], pa.int64()),
                "lat": pa.array([query[0]]),
                "lon": pa.array([query[1]]),
                "k": pa.array([5], pa.int64()),
            }
        )
        got = (
            knn.knn_join(rd.from_arrow(points), queries)
            .sort_values("rank")["point_id"]
            .tolist()
        )
        # brute oracle defines the expected order for OUR point set
        want = [p for _, _, p, _ in sorted(brute_knn(points, queries))][:5]
        want_ids = [r[2] for r in sorted(brute_knn(points, queries), key=lambda r: r[1])]
        assert got == want_ids
        assert got[0] == 7  # nearest is the query point itself


def brute_nearest_street(compiled, lat, lon):
    """Every point projected onto every segment; ties -> lowest segment
    index (argmin keeps the first)."""
    pla, plo = geo.project_point_to_segment(
        lat[None, :], lon[None, :], compiled.a_lat[:, None],
        compiled.a_lon[:, None], compiled.b_lat[:, None],
        compiled.b_lon[:, None])
    d = geo.haversine_km(lat[None, :], lon[None, :], pla, plo)
    j = np.argmin(d, axis=0)
    return compiled.street_id[j], d[j, np.arange(len(lat))]


@pytest.mark.usefixtures("ray_session")
class TestReverseGeocode:
    def test_nearest_street_matches_brute(self):
        import ray.data as rd

        streets = synth.streets_table(40, seed=9)
        rng = np.random.default_rng(10)
        pts = pa.table(
            {
                "point_id": pa.array(np.arange(300), pa.int64()),
                "lat": pa.array(rng.uniform(-60, 60, 300)),
                "lon": pa.array(rng.uniform(-170, 170, 300)),
            }
        )
        got = (
            knn.reverse_geocode(rd.from_arrow(pts), streets)
            .to_pandas()
            .sort_values("point_id")
        )

        sid, d = brute_nearest_street(knn.CompiledSegments(streets),
                                      pts["lat"].to_numpy(),
                                      pts["lon"].to_numpy())
        np.testing.assert_array_equal(got["street_id"].to_numpy(), sid)
        np.testing.assert_array_equal(got["street_dist_km"].to_numpy(), d)

    def test_segments_checked_per_point_drop_tenfold(self):
        """Benchmark-shaped reverse geocoding (300 streets, world points
        in lat -60..60): the cell index checks at most a tenth of the
        segments per point, and still equals the brute force."""
        compiled = knn.CompiledSegments(synth.streets_table(300, seed=44))
        rng = np.random.default_rng(4)
        lat = rng.uniform(-60, 60, 4000)
        lon = rng.uniform(-170, 170, 4000)
        sid, d, _, _ = compiled.nearest(lat, lon)
        want_sid, want_d = brute_nearest_street(compiled, lat, lon)
        np.testing.assert_array_equal(sid, want_sid)
        np.testing.assert_array_equal(d, want_d)
        work = compiled.work.per_probe()
        assert compiled.work.probes == 4000
        assert work["checked_per_probe"] * 10 <= len(compiled.a_lat), work
        assert work["rings_per_probe"] >= 1

    def test_projection_distance_sanity(self):
        # point exactly on a segment -> distance 0
        streets = pa.table(
            {
                "street_id": pa.array([0], pa.int64()),
                "name": pa.array(["x"]),
                "road_class": pa.array(["primary"]),
                "priority": pa.array([1], pa.int32()),
                "geom": pa.array(
                    [[{"lat": 0.0, "lon": 0.0}, {"lat": 0.0, "lon": 1.0}]],
                    pa.list_(pa.struct([("lat", pa.float64()), ("lon", pa.float64())])),
                ),
            }
        )
        c = knn.CompiledSegments(streets)
        sid, d, pla, plo = c.nearest(np.array([0.0]), np.array([0.5]))
        assert d[0] < 1e-9 and sid[0] == 0


@pytest.mark.usefixtures("ray_session")
class TestGeofence:
    def brute(self, events, fences, nearest_n):
        f_lat = fences["lat"].to_numpy()
        f_lon = fences["lon"].to_numpy()
        f_r = fences["radius_km"].to_numpy()
        keys = fences["key"].to_pylist()
        last = {}
        rows = []
        ev = events.to_pandas().sort_values("seq")
        for _, e in ev.iterrows():
            old = last.get(e["point_id"], (geofence.SENTINEL, geofence.SENTINEL))
            last[e["point_id"]] = (e["lat"], e["lon"])
            d = geo.haversine_km(e["lat"], e["lon"], f_lat, f_lon)
            sel = (
                np.argsort(d, kind="stable")[:nearest_n]
                if nearest_n is not None
                else np.arange(len(keys))
            )
            for fi in sel:
                old_in = old[0] != geofence.SENTINEL and geo.haversine_km(
                    old[0], old[1], f_lat[fi], f_lon[fi]
                ) <= f_r[fi]
                new_in = d[fi] <= f_r[fi]
                if old_in and new_in:
                    st = ["INSIDE"]
                elif old_in and not new_in:
                    st = ["EXIT", "OUTSIDE"]
                elif not old_in and new_in:
                    st = ["ENTER", "INSIDE"]
                else:
                    crosses = geo.line_circle_intersect(
                        f_lat[fi], f_lon[fi], f_r[fi], old[0], old[1],
                        e["lat"], e["lon"],
                    )
                    st = ["CROSS"] if crosses else ["OUTSIDE"]
                for s in st:
                    rows.append((e["point_id"], int(e["seq"]), keys[fi], s))
        return sorted(rows)

    def test_transitions_match_brute_all_fences(self):
        import ray.data as rd

        fences = synth.fences_table(6, seed=20)
        events = synth.fence_events_table(fences, n_points=6, steps=15, seed=21)
        got = geofence.fence_transitions(
            rd.from_arrow(events).repartition(4), fences, nearest_n=None,
        ).to_pandas()
        got_rows = sorted(
            (r.point_id, int(r.seq), r.fence_key, r.status)
            for r in got.itertuples()
        )
        assert got_rows == self.brute(events, fences, None)

    def test_transitions_match_brute_3nn(self):
        import ray.data as rd

        fences = synth.fences_table(8, seed=22)
        events = synth.fence_events_table(fences, n_points=5, steps=12, seed=23)
        got = geofence.fence_transitions(
            rd.from_arrow(events).repartition(3), fences, nearest_n=3,
        ).to_pandas()
        got_rows = sorted(
            (r.point_id, int(r.seq), r.fence_key, r.status)
            for r in got.itertuples()
        )
        assert got_rows == self.brute(events, fences, 3)

    def test_all_transition_types_occur(self):
        import ray.data as rd

        fences = synth.fences_table(6, seed=20)
        events = synth.fence_events_table(fences, n_points=10, steps=25, seed=24)
        got = geofence.fence_transitions(
            rd.from_arrow(events), fences, nearest_n=None
        ).to_pandas()
        assert {"INSIDE", "OUTSIDE", "ENTER", "EXIT"} <= set(got["status"])

    def test_lag_scales_to_100k_points(self):
        """100k distinct point_ids through the bucket-hash lag: the
        64-bucket shuffle must complete fast (no per-point dispatch,
        no sorted groupby over 100k groups)."""
        import time

        import ray.data as rd

        n = 100_000
        df = pd.DataFrame({
            "point_id": np.repeat([f"p{i}" for i in range(n)], 2),
            "seq": np.tile(np.array([1, 2], dtype=np.int64), n),
            "lat": np.zeros(2 * n),
            "lon": np.tile(np.array([0.0, 1.0]), n),
        })
        t0 = time.time()
        out = geofence.with_prev_position(
            rd.from_pandas(df).repartition(8)
        ).to_pandas()
        wall = time.time() - t0
        assert len(out) == 2 * n
        first = out[out["seq"] == 1]
        second = out[out["seq"] == 2]
        assert (first["old_lat"] == geofence.SENTINEL).all()
        assert (second["old_lat"] == 0.0).all()
        assert (second["old_lon"] == 0.0).all()
        perf_gate(wall < 60, f"lag took {wall:.0f}s for 100k points")

    def test_epoch_state_checkpoint(self):
        import ray.data as rd

        fences = synth.fences_table(4, seed=30)
        events = synth.fence_events_table(fences, n_points=3, steps=10, seed=31)
        ev = events.to_pandas().sort_values("seq")
        half = len(ev) // 2
        e1 = pa.Table.from_pandas(ev.iloc[:half], preserve_index=False)
        e2 = pa.Table.from_pandas(ev.iloc[half:], preserve_index=False)

        state = geofence.last_positions(rd.from_arrow(e1)).to_pandas()
        state_t = pa.Table.from_pandas(state, preserve_index=False)
        got2 = geofence.fence_transitions(
            rd.from_arrow(e2), fences, nearest_n=None, state=state_t
        ).to_pandas()
        # epoch-2 with checkpoint == tail of the single-run brute oracle
        want = [r for r in self.brute(events, fences, None)
                if r[1] >= int(ev.iloc[half]["seq"])]
        got_rows = sorted(
            (r.point_id, int(r.seq), r.fence_key, r.status)
            for r in got2.itertuples()
        )
        # only compare events belonging to epoch 2
        want = [r for r in want if r[1] in set(e2["seq"].to_pylist())]
        assert got_rows == sorted(want)


def _run_probe(stage: str, empty: bool):
    """One broadcast-probe stage over a small point/event set; the side
    table is its synth table, or that table sliced to zero rows."""
    import ray
    import ray.data as rd

    from go_osm_search_ray.stages import pip

    def side(t: pa.Table) -> pa.Table:
        return t.slice(0, 0) if empty else t

    pts = make_points(500, seed=70)
    if stage == "knn_join":
        queries = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                            "lat": pa.array([10.0, -20.0]),
                            "lon": pa.array([30.0, 40.0]),
                            "k": pa.array([3, 3], pa.int64())})
        return knn.knn_join(rd.from_arrow(pts), side(queries))
    if stage == "reverse_geocode":
        ds = knn.reverse_geocode(rd.from_arrow(pts),
                                 side(synth.streets_table(20, seed=71)))
    elif stage == "pip_join":
        ds = pip.pip_join(rd.from_arrow(pts),
                          side(synth.polygons_table(10, seed=72)))
    else:
        fences = synth.fences_table(5, seed=73)
        events = synth.fence_events_table(fences, n_points=4, steps=6,
                                          seed=74)
        ds = geofence.fence_transitions(rd.from_arrow(events), side(fences))
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("stage", ["knn_join", "reverse_geocode", "pip_join",
                                   "fence_transitions"])
def test_probe_accepts_empty_side_table(stage):
    """An empty side table means every probe misses, with the same
    output columns as a non-empty run — never a batch-wide crash."""
    full = _run_probe(stage, empty=False)
    got = _run_probe(stage, empty=True)
    if stage == "knn_join":
        assert list(got.columns) == list(full.columns) and len(got) == 0
        assert got.dtypes.tolist() == full.dtypes.tolist()
        return
    assert got.schema == full.schema
    if stage == "fence_transitions":
        assert got.num_rows == 0
        return
    assert got.num_rows == full.num_rows == 500
    if stage == "pip_join":
        assert (got["polygon_id"].to_numpy() == -1).all()
        assert got["province"].null_count == got.num_rows
    else:
        assert (got["street_id"].to_numpy() == -1).all()
        for c in ("street_dist_km", "proj_lat", "proj_lon"):
            assert got[c].null_count == got.num_rows


@pytest.mark.usefixtures("ray_session")
class TestKNNCellJoin:
    def test_matches_brute_radius_knn(self):
        import ray.data as rd

        points = make_points(3000, seed=50)
        rng = np.random.default_rng(51)
        qn = 30
        queries = pa.table(
            {
                "query_id": pa.array(np.arange(qn), pa.int64()),
                "lat": pa.array(rng.uniform(-60, 60, qn)),
                "lon": pa.array(rng.uniform(-170, 170, qn)),
                "k": pa.array([5] * qn, pa.int64()),
                "radius_km": pa.array([1500.0] * qn),
            }
        )
        got = (
            knn.knn_cell_join(
                rd.from_arrow(points).repartition(4),
                rd.from_arrow(queries).repartition(2),
                radius_km=1500.0, k=5, res=5,
            )
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            brute_knn(points, queries),
            columns=["query_id", "rank", "point_id", "dist_km"],
        )
        got = got[["query_id", "rank", "point_id", "dist_km"]]
        got["query_id"] = got["query_id"].astype(np.int64)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestKNNCellSalted:
    def test_hot_cell_salting_exact(self):
        """Every point planted in ONE hot cell; n_salt=4 shards the cell
        and the per-query merge of shard partials stays exact."""
        import ray.data as rd

        rng = np.random.default_rng(60)
        n = 3000
        points = pa.table(
            {
                "point_id": pa.array(np.arange(n), pa.int64()),
                # one res-5 cell is ~5.6 degrees; cluster inside it
                "lat": pa.array(rng.uniform(10.0, 12.0, n)),
                "lon": pa.array(rng.uniform(10.0, 12.0, n)),
            }
        )
        qn = 10
        queries = pa.table(
            {
                "query_id": pa.array(np.arange(qn), pa.int64()),
                "lat": pa.array(rng.uniform(10.0, 12.0, qn)),
                "lon": pa.array(rng.uniform(10.0, 12.0, qn)),
                "k": pa.array([5] * qn, pa.int64()),
                "radius_km": pa.array([500.0] * qn),
            }
        )
        got = (
            knn.knn_cell_join(
                rd.from_arrow(points).repartition(4),
                rd.from_arrow(queries),
                radius_km=500.0, k=5, res=5, n_salt=4,
            )
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            brute_knn(points, queries),
            columns=["query_id", "rank", "point_id", "dist_km"],
        )
        got = got[["query_id", "rank", "point_id", "dist_km"]]
        got["query_id"] = got["query_id"].astype(np.int64)
        got["point_id"] = got["point_id"].astype(np.int64)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestKNNCellUnbounded:
    def test_matches_brute_no_radius(self):
        """Ring expansion terminates with the EXACT unbounded top-k,
        including queries near the poles (worst longitude compression)
        and isolated queries whose neighbors are rings away."""
        import ray.data as rd

        points = make_points(2000, seed=52)
        rng = np.random.default_rng(53)
        qn = 12
        lat = np.concatenate([rng.uniform(-60, 60, qn - 4),
                              np.array([88.5, -88.5, 0.0, 45.0])])
        lon = np.concatenate([rng.uniform(-170, 170, qn - 4),
                              np.array([170.0, -170.0, 0.0, 90.0])])
        queries = pa.table(
            {
                "query_id": pa.array(np.arange(qn), pa.int64()),
                "lat": pa.array(lat),
                "lon": pa.array(lon),
                "k": pa.array([5] * qn, pa.int64()),
            }
        )
        got = (
            knn.knn_cell_join_unbounded(
                rd.from_arrow(points).repartition(4),
                rd.from_arrow(queries).repartition(2),
                k=5, res=5,
            )
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            brute_knn(points, queries),
            columns=["query_id", "rank", "point_id", "dist_km"],
        )
        got = got[["query_id", "rank", "point_id", "dist_km"]]
        got["query_id"] = got["query_id"].astype(np.int64)
        got["point_id"] = got["point_id"].astype(np.int64)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_empty_ring_query_still_answered(self):
        """A query whose early rings contain NO points must stay
        pending (anti-join on final ids) and still return exactly k
        results — the silent-drop regression: the corpus clusters in
        one corner, the query sits at the antipode."""
        import ray.data as rd

        rng = np.random.default_rng(54)
        n = 500
        points = pa.table({
            "point_id": pa.array(np.arange(n), pa.int64()),
            "lat": pa.array(rng.uniform(40.0, 41.0, n)),
            "lon": pa.array(rng.uniform(-74.0, -73.0, n)),
        })
        queries = pa.table({
            "query_id": pa.array([7], pa.int64()),
            "lat": pa.array([-40.0]),
            "lon": pa.array([106.0]),
            "k": pa.array([3], pa.int64()),
        })
        got = (
            knn.knn_cell_join_unbounded(
                rd.from_arrow(points).repartition(4),
                rd.from_arrow(queries),
                k=3, res=5,
            )
            .to_pandas()
            .sort_values("rank")
            .reset_index(drop=True)
        )
        want = pd.DataFrame(
            brute_knn(points, queries),
            columns=["query_id", "rank", "point_id", "dist_km"],
        )
        got = got[["query_id", "rank", "point_id", "dist_km"]]
        got["query_id"] = got["query_id"].astype(np.int64)
        got["point_id"] = got["point_id"].astype(np.int64)
        assert len(got) == 3
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
class TestFenceIndex:
    def test_crud_and_epochs(self):
        import ray.data as rd

        fi = geofence.FenceIndex()
        fi.add_fence("fleet")
        with pytest.raises(ValueError):
            fi.add_fence("fleet")
        fi.add_fence_point("fleet", "hq", 0.0, 0.0, 100.0)
        fi.add_fence_point("fleet", "hq", 1.0, 1.0, 100.0)  # upsert
        assert len(fi._fences["fleet"]) == 1
        fi.add_fence_point("fleet", "depot", 5.0, 5.0, 50.0)

        ev1 = pa.table(
            {"seq": pa.array([0, 1], pa.int64()),
             "point_id": pa.array(["v1", "v1"]),
             "lat": pa.array([0.9, 1.05]), "lon": pa.array([0.9, 1.05])}
        )
        out1 = fi.search("fleet", rd.from_arrow(ev1), nearest_n=None)
        # seq 0: first sighting inside hq -> ENTER+INSIDE (sentinel old)
        s0 = set(out1[(out1.seq == 0) & (out1.fence_key == "hq")]["status"])
        assert s0 == {"ENTER", "INSIDE"}

        # epoch 2 picks up the checkpoint: still inside -> INSIDE only
        ev2 = pa.table(
            {"seq": pa.array([2], pa.int64()), "point_id": pa.array(["v1"]),
             "lat": pa.array([1.1]), "lon": pa.array([1.1])}
        )
        out2 = fi.search("fleet", rd.from_arrow(ev2), nearest_n=None)
        s2 = set(out2[out2.fence_key == "hq"]["status"])
        assert s2 == {"INSIDE"}

        fi.update_fence_point("v1", 50.0, 50.0)  # teleport far away
        ev3 = pa.table(
            {"seq": pa.array([3], pa.int64()), "point_id": pa.array(["v1"]),
             "lat": pa.array([1.1]), "lon": pa.array([1.1])}
        )
        out3 = fi.search("fleet", rd.from_arrow(ev3), nearest_n=None)
        s3 = set(out3[out3.fence_key == "hq"]["status"])
        assert "ENTER" in s3  # came from far outside -> re-enter

        fi.delete_fence("fleet")
        with pytest.raises(KeyError):
            fi.search("fleet", rd.from_arrow(ev3))

    def test_checkpoint_restore_across_processes(self, tmp_path):
        """Durable epoch state: checkpoint -> restore into a FRESH index
        -> the next epoch sees the same last positions as an
        uninterrupted run (INSIDE, not ENTER+INSIDE)."""
        import ray.data as rd

        fi = geofence.FenceIndex()
        fi.add_fence("fleet")
        fi.add_fence_point("fleet", "hq", 1.0, 1.0, 100.0)
        ev1 = pa.table(
            {"seq": pa.array([0], pa.int64()), "point_id": pa.array(["v1"]),
             "lat": pa.array([1.05]), "lon": pa.array([1.05])}
        )
        fi.search("fleet", rd.from_arrow(ev1), nearest_n=None)
        fi.checkpoint(str(tmp_path / "ckpt"))

        fi2 = geofence.FenceIndex.restore(str(tmp_path / "ckpt"))
        ev2 = pa.table(
            {"seq": pa.array([1], pa.int64()), "point_id": pa.array(["v1"]),
             "lat": pa.array([1.1]), "lon": pa.array([1.1])}
        )
        out = fi2.search("fleet", rd.from_arrow(ev2), nearest_n=None)
        assert set(out[out.fence_key == "hq"]["status"]) == {"INSIDE"}


@pytest.mark.usefixtures("ray_session")
class TestAsofJoin:
    def test_backward_match_per_key(self):
        import ray.data as rd

        from go_osm_search_ray.stages.agg import asof_join_tagged

        df = pd.DataFrame({
            "event_id": [1, 2, 3, 4, 5, 6],
            "user_id":  [7, 7, 7, 8, 8, 9],
            "ts": pd.to_datetime([
                "2024-01-01 00:00", "2024-01-01 01:00",  # u7 clicks
                "2024-01-01 02:00",                        # u7 purchase
                "2024-01-01 05:00",                        # u8 purchase (no click)
                "2024-01-01 04:00",                        # u8 click AFTER -> no match
                "2024-01-01 03:00",                        # u9 click, no purchase
            ]),
            "event_type": ["click", "click", "purchase", "purchase",
                           "click", "click"],
        })
        # u8's click (04:00) is BEFORE its purchase (05:00) -> matches
        out = asof_join_tagged(
            rd.from_pandas(df).repartition(3), key="user_id", ts_col="ts",
            side_col="event_type", left_val="purchase", right_val="click",
            right_cols=["event_id", "ts"],
        ).to_pandas().sort_values("event_id")
        by_user = {r.user_id: r for r in out.itertuples()}
        assert by_user[7].event_id_r == 2   # latest prior click wins
        assert by_user[8].event_id_r == 5
        assert 9 not in by_user             # click-only user emits nothing


@pytest.mark.usefixtures("ray_session")
class TestFunnelSteps:
    def test_greedy_horizon_semantics(self):
        import ray.data as rd

        from go_osm_search_ray.stages.agg import funnel_steps

        t = pd.to_datetime
        df = pd.DataFrame([
            # u1: full funnel inside horizons -> 3
            (1, t("2024-01-01 00:00"), "view"),
            (1, t("2024-01-01 00:30"), "click"),
            (1, t("2024-01-01 01:00"), "purchase"),
            # u2: click 2h after earliest view -> outside 1h horizon -> 1
            (2, t("2024-01-01 00:00"), "view"),
            (2, t("2024-01-01 02:00"), "click"),
            # u3: click BEFORE the earliest view never matches -> 1
            (3, t("2024-01-01 01:00"), "view"),
            (3, t("2024-01-01 00:30"), "click"),
            # u4: greedy anchor = EARLIEST view (00:00); click at 00:50
            # matches it; purchase 00:55 follows -> 3 (a later view at
            # 00:45 is ignored by the earliest-anchor rule)
            (4, t("2024-01-01 00:00"), "view"),
            (4, t("2024-01-01 00:45"), "view"),
            (4, t("2024-01-01 00:50"), "click"),
            (4, t("2024-01-01 00:55"), "purchase"),
            # u5: no view at all -> 0
            (5, t("2024-01-01 00:00"), "click"),
            # u6: click exactly AT the anchor ts is NOT after it -> 1
            (6, t("2024-01-01 00:00"), "view"),
            (6, t("2024-01-01 00:00"), "click"),
        ], columns=["user_id", "ts", "event_type"])
        out = funnel_steps(
            rd.from_pandas(df).repartition(3), key="user_id",
            ts_col="ts", type_col="event_type",
            steps=["view", "click", "purchase"],
            horizon_us=3_600_000_000,
        ).to_pandas().set_index("user_id")["steps_completed"]
        assert out.to_dict() == {1: 3, 2: 1, 3: 1, 4: 3, 5: 0, 6: 1}


@pytest.mark.usefixtures("ray_session")
class TestFunnelScale:
    def test_funnel_scales_to_100k_users(self):
        """100k distinct users through the bucket-hashed funnel: the
        per-bucket work is vectorized (map-prev + mask + groupby-min),
        so group count must not produce a sorted-groupby cliff.
        Spot-checks a deterministic slice against the greedy rule."""
        import time

        import ray.data as rd

        from go_osm_search_ray.stages.agg import funnel_steps

        n = 100_000
        rng = np.random.default_rng(7)
        rows = 3 * n
        users = rng.integers(0, n, rows)
        ts = (np.datetime64("2024-01-01") +
              rng.integers(0, 86_400, rows).astype("timedelta64[s]"))
        types = np.array(["view", "click", "purchase"])[
            rng.integers(0, 3, rows)]
        df = pd.DataFrame({"user_id": users, "ts": pd.to_datetime(ts),
                           "event_type": types})
        t0 = time.time()
        out = funnel_steps(rd.from_pandas(df).repartition(16),
                           key="user_id", ts_col="ts",
                           type_col="event_type",
                           steps=["view", "click", "purchase"],
                           horizon_us=3_600_000_000).to_pandas()
        wall = time.time() - t0
        perf_gate(wall < 60, f"funnel took {wall:.0f}s for 100k users")
        assert len(out) == df["user_id"].nunique()
        assert set(out["steps_completed"].unique()) <= {0, 1, 2, 3}
        # spot-check 50 users against the greedy per-user rule
        got = out.set_index("user_id")["steps_completed"]
        H = pd.Timedelta(hours=1)
        for u in pd.unique(users)[:50]:
            g = df[df["user_id"] == u]
            cur, steps_done = None, 0
            for step in ["view", "click", "purchase"]:
                r = g[g["event_type"] == step]
                if cur is not None:
                    r = r[(r["ts"] > cur) & (r["ts"] <= cur + H)]
                if len(r) == 0:
                    break
                cur = r["ts"].min()
                steps_done += 1
            assert got[u] == steps_done, u


@pytest.mark.usefixtures("ray_session")
class TestIntervalJoin:
    def test_containment_boundaries_and_replication(self, monkeypatch):
        import numpy as np
        import ray.data as rd

        from go_osm_search_ray.stages import agg
        from go_osm_search_ray.stages.agg import interval_join

        B = 100  # bucket width (us)
        pts = pd.DataFrame({
            "pid": np.arange(6, dtype=np.int64),
            "ts": np.array([0, 50, 100, 250, 299, 300], dtype=np.int64),
        })
        # iv0 [0,300) spans 3 buckets; iv1 [50,51) zero-ish; iv2 [290,310)
        # straddles a bucket edge; iv3 [1000,1100) matches nothing
        ivs = pd.DataFrame({
            "iid": np.array([0, 1, 2, 3], dtype=np.int64),
            "t0": np.array([0, 50, 290, 1000], dtype=np.int64),
            "t1": np.array([300, 51, 310, 1100], dtype=np.int64),
        })
        # brute-force oracle
        want = {(p.pid, i.iid) for p in pts.itertuples()
                for i in ivs.itertuples() if i.t0 <= p.ts < i.t1}
        # agg.BROADCAST_SCAN_MAX=0 pins the bucketized-replication path;
        # the default takes the small-side broadcast path — both exact
        for scan_max in (0, 100_000):
            monkeypatch.setattr(agg, "BROADCAST_SCAN_MAX", scan_max)
            out = interval_join(
                rd.from_pandas(pts).repartition(3),
                rd.from_pandas(ivs).repartition(2),
                "ts", "t0", "t1", bucket_us=B,
            ).to_pandas()
            got = set(zip(out["pid"], out["iid"]))
            assert got == want
            assert (5, 0) not in got            # t1 exclusive
            assert (4, 2) in got and (5, 2) in got  # straddler
            # no duplicate (point, interval) pairs despite replication
            assert len(out) == len(got)

    def test_datetime_columns(self):
        import numpy as np
        import ray.data as rd

        from go_osm_search_ray.stages.agg import interval_join

        pts = pd.DataFrame({
            "pid": [1, 2],
            "ts": pd.to_datetime(["2024-01-01 06:00", "2024-01-03 00:00"]),
        })
        ivs = pd.DataFrame({
            "iid": [10],
            "t0": pd.to_datetime(["2024-01-01"]),
            "t1": pd.to_datetime(["2024-01-02"]),
        })
        out = interval_join(rd.from_pandas(pts), rd.from_pandas(ivs),
                            "ts", "t0", "t1",
                            bucket_us=3_600_000_000).to_pandas()
        assert set(zip(out["pid"], out["iid"])) == {(1, 10)}


@pytest.mark.usefixtures("ray_session")
class TestDistanceSelfJoin:
    def test_exact_vs_brute_force_with_poles_and_wrap(self):
        import ray.data as rd

        from go_osm_search_ray import geo
        from go_osm_search_ray.stages.knn import distance_self_join

        rng = np.random.default_rng(5)
        n = 400
        lat = rng.uniform(-90, 90, n)
        lon = rng.uniform(-180, 180, n)
        # force hard cases: high-latitude cluster + antimeridian straddle
        lat[:20] = rng.uniform(87, 89.9, 20)
        lon[:20] = rng.uniform(-180, 180, 20)
        lat[20:40] = rng.uniform(-10, 10, 20)
        lon[20:30] = rng.uniform(179.0, 180.0, 10)
        lon[30:40] = rng.uniform(-180.0, -179.0, 10)
        df = pd.DataFrame({"point_id": np.arange(n, dtype=np.int64),
                           "lat": lat, "lon": lon})
        R = 500.0
        out = distance_self_join(rd.from_pandas(df).repartition(4),
                                 radius_km=R, res=6).to_pandas()
        got = set(zip(out["id_a"], out["id_b"]))
        assert len(got) == len(out)  # each pair exactly once
        hm = geo.hav_matrix(lat, lon, lat, lon)  # unitless hav term
        ia, ib = np.nonzero(np.triu(hm <= geo.hav_of_km(R), k=1))
        want = set(zip(ia.astype(np.int64), ib.astype(np.int64)))
        assert got == want
        # distances exact vs the same formula
        m = dict(zip(zip(out["id_a"], out["id_b"]), out["dist_km"]))
        for (a, b) in list(want)[:50]:
            d = geo.haversine_km(lat[a], lon[a], lat[b], lon[b])
            assert abs(m[(a, b)] - d) < 1e-9


@pytest.mark.usefixtures("ray_session")
class TestKnnCellScale:
    def test_50k_queries_bounded_and_spot_exact(self):
        """The docstring's large-query-side claim exercised: 50k
        queries x 60k points through the cell-keyed plan (queries can
        NEVER be broadcast at this multiplicity), completing in bounded
        wall time with no per-query dispatch; 25 random queries
        verified exactly against brute force."""
        import time

        import ray.data as rd

        from go_osm_search_ray import geo

        rng = np.random.default_rng(99)
        n_p, n_q = 60_000, 50_000
        points = pa.table({
            "point_id": pa.array(np.arange(n_p), pa.int64()),
            "lat": pa.array(rng.uniform(-80, 80, n_p)),
            "lon": pa.array(rng.uniform(-170, 170, n_p)),
        })
        queries = pa.table({
            "query_id": pa.array(np.arange(n_q), pa.int64()),
            "lat": pa.array(rng.uniform(-60, 60, n_q)),
            "lon": pa.array(rng.uniform(-170, 170, n_q)),
            "k": pa.array(np.full(n_q, 3), pa.int64()),
            "radius_km": pa.array(np.full(n_q, 800.0)),
        })
        t0 = time.perf_counter()
        got = (
            knn.knn_cell_join(
                rd.from_arrow(points).repartition(8),
                rd.from_arrow(queries).repartition(8),
                radius_km=800.0, k=3, res=5,
            ).to_pandas()
        )
        wall = time.perf_counter() - t0
        perf_gate(wall < 300, f"{wall:.0f}s")  # bounded: no per-query task dispatch cliff
        # spot-exact vs brute force
        p_lat = points["lat"].to_numpy()
        p_lon = points["lon"].to_numpy()
        p_id = points["point_id"].to_numpy()
        q_lat = queries["lat"].to_numpy()
        q_lon = queries["lon"].to_numpy()
        by_q = {qid: g for qid, g in got.groupby("query_id")}
        for qid in rng.choice(n_q, 25, replace=False):
            d = geo.haversine_km(
                np.full(n_p, q_lat[qid]), np.full(n_p, q_lon[qid]),
                p_lat, p_lon)
            order = np.lexsort((p_id, d))
            want = [(int(p_id[i]), d[i]) for i in order if d[i] <= 800.0][:3]
            g = by_q.get(qid)
            got_rows = ([] if g is None else
                        list(zip(g.sort_values("rank")["point_id"],
                                 g.sort_values("rank")["dist_km"])))
            assert [p for p, _ in got_rows] == [p for p, _ in want], qid
            np.testing.assert_allclose([x for _, x in got_rows],
                                       [x for _, x in want], atol=1e-9)

    def test_hot_cell_100k_queries_one_cell(self):
        """Round-4 ask #2: 10^5 queries landing in ONE grid cell — the
        local_topk tie-break must be one vectorized matrix pass, not a
        per-query Python loop.  Bounded wall + spot-exact vs brute
        force (including (dist, point_id) ties from duplicated points)."""
        import time

        import ray.data as rd

        from go_osm_search_ray import geo

        from conftest import skip_if_busy

        skip_if_busy()
        rng = np.random.default_rng(17)
        n_p, n_q = 1500, 100_000
        # everything inside a ~0.5-degree box -> one res-5 cell (plus
        # its salt shards); duplicate coords force exact tie-breaks
        p_lat = rng.uniform(10.0, 10.4, n_p)
        p_lon = rng.uniform(20.0, 20.4, n_p)
        p_lat[:300] = p_lat[0]
        p_lon[:300] = p_lon[0]
        points = pa.table({
            "point_id": pa.array(rng.permutation(n_p).astype(np.int64)),
            "lat": pa.array(p_lat), "lon": pa.array(p_lon),
        })
        q_lat = rng.uniform(10.0, 10.4, n_q)
        q_lon = rng.uniform(20.0, 20.4, n_q)
        queries = pa.table({
            "query_id": pa.array(np.arange(n_q), pa.int64()),
            "lat": pa.array(q_lat), "lon": pa.array(q_lon),
            "k": pa.array(np.full(n_q, 5), pa.int64()),
            "radius_km": pa.array(np.full(n_q, 30.0)),
        })
        t0 = time.perf_counter()
        got = (
            knn.knn_cell_join(
                rd.from_arrow(points).repartition(4),
                rd.from_arrow(queries).repartition(8),
                radius_km=30.0, k=5, res=5, n_salt=4,
            ).to_pandas()
        )
        wall = time.perf_counter() - t0
        perf_gate(wall < 120, f"hot cell took {wall:.1f}s")
        p_id = points["point_id"].to_numpy()
        by_q = {qid: g for qid, g in got.groupby("query_id")}
        for qid in rng.choice(n_q, 20, replace=False):
            d = geo.haversine_km(
                np.full(n_p, q_lat[qid]), np.full(n_p, q_lon[qid]),
                p_lat, p_lon)
            order = np.lexsort((p_id, d))
            want = [(int(p_id[i]), d[i]) for i in order
                    if d[i] <= 30.0][:5]
            g = by_q.get(qid)
            got_rows = ([] if g is None else
                        list(zip(g.sort_values("rank")["point_id"],
                                 g.sort_values("rank")["dist_km"])))
            assert [p for p, _ in got_rows] == [p for p, _ in want], qid
            np.testing.assert_allclose([x for _, x in got_rows],
                                       [x for _, x in want], atol=1e-9)
