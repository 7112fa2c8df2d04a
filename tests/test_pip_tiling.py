"""Tile assignment + PIP join: distributed pipeline vs brute-force numpy
oracle (the reference-oracle strategy of SURVEY.md §5)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from go_osm_search_ray import geo, synth
from go_osm_search_ray.stages import pip, tiling


def brute_first_hit(lat, lon, polygons):
    """Oracle: winding PIP vs every polygon, keep min polygon_id."""
    best = np.full(len(lat), -1, dtype=np.int64)
    pids = polygons["polygon_id"].to_numpy()
    order = np.argsort(pids)
    for i in order[::-1]:  # visit descending so min wins by overwrite
        ring = polygons["ring"][i].as_py()
        rl = np.array([p["lat"] for p in ring])
        ro = np.array([p["lon"] for p in ring])
        inside = geo.point_in_polygon(lat, lon, rl, ro)
        best[inside] = pids[i]
    return best


class TestCompiledPolygons:
    def setup_method(self):
        self.polygons = synth.polygons_table(48, seed=7)
        rng = np.random.default_rng(11)
        self.lat = rng.uniform(-89, 89, 2000)
        self.lon = rng.uniform(-179, 179, 2000)

    def test_first_hit_matches_brute(self):
        compiled = pip.CompiledPolygons(self.polygons)
        got = compiled.first_hit(self.lat, self.lon)
        want = brute_first_hit(self.lat, self.lon, self.polygons)
        np.testing.assert_array_equal(got, want)

    def test_tile_index_pruning_same_result(self):
        compiled = pip.CompiledPolygons(self.polygons, tile_res=6)
        tiles = geo.tile_id(self.lat, self.lon, 6)
        got = compiled.first_hit(self.lat, self.lon, tiles)
        want = brute_first_hit(self.lat, self.lon, self.polygons)
        np.testing.assert_array_equal(got, want)

    def test_tile_ids_at_another_resolution_are_not_read(self):
        """A res-7 tile id handed to a res-5 polygon index (a batch
        tiled by ``assign_tiles(7)``) must not pick the candidates: the
        probe cells come from lat/lon at the index's own resolution."""
        polygons = synth.polygons_table(200, seed=42)
        compiled = pip.CompiledPolygons(polygons, tile_res=5)
        got = np.concatenate([
            compiled.first_hit(self.lat[i:i + 8], self.lon[i:i + 8],
                               geo.tile_id(self.lat[i:i + 8],
                                           self.lon[i:i + 8], 7))
            for i in range(0, 1600, 8)])
        want = brute_first_hit(self.lat[:1600], self.lon[:1600], polygons)
        np.testing.assert_array_equal(got, want)

    def test_world_rect_coverage(self):
        # first 25 polygons tile the world -> no point unmatched
        compiled = pip.CompiledPolygons(self.polygons)
        got = compiled.first_hit(self.lat, self.lon)
        assert (got >= 0).all()

    def test_empty_polygon_set(self):
        """A zero-polygon shard: no hits, null meta, no IndexError."""
        compiled = pip.CompiledPolygons(self.polygons.slice(0, 0),
                                        tile_res=6)
        np.testing.assert_array_equal(compiled.hit_index([-1, 5]), [-1, -1])
        pid = compiled.first_hit(self.lat, self.lon,
                                 geo.tile_id(self.lat, self.lon, 6))
        assert (pid == -1).all()
        meta = compiled.meta_columns(pid)
        assert [c for c, _ in meta] == compiled.meta_cols
        assert all(col.null_count == len(pid) for _, col in meta)


def _readback(out: str) -> pd.DataFrame:
    """A partitioned flagship output as one frame, sorted by image_id."""
    import pyarrow.parquet as pq

    df = pq.read_table(out).to_pandas()
    df["part"] = df["part"].astype(np.int64)
    return df.sort_values("image_id", ignore_index=True)


@pytest.mark.usefixtures("ray_session")
class TestPipelines:
    def test_pip_join_dataset(self, tmp_path):
        import ray.data as rd

        polygons = synth.polygons_table(30, seed=3)
        images = synth.images_batch(np.arange(3000, dtype=np.uint64))
        ds = rd.from_arrow(images).map_batches(
            tiling.derive_phash_latlon, batch_format="pyarrow"
        ).map_batches(tiling.assign_tiles(7), batch_format="pyarrow")
        out = pip.pip_join(ds, polygons).take_all()

        lat, lon = geo.phash_to_latlon(images["phash"].to_numpy())
        want = brute_first_hit(lat, lon, polygons)
        got = {r["image_id"]: r["polygon_id"] for r in out}
        ids = images["image_id"].to_pylist()
        assert [got[i] for i in ids] == want.tolist()
        # region meta attached and consistent
        prov = {r["image_id"]: r["province"] for r in out}
        for i, w in zip(ids, want):
            if w >= 0:
                assert prov[i] == f"Province{w % 7}"
            else:
                assert prov[i] is None
        # payload rides through untouched (invariant)
        cap = {r["image_id"]: r["caption"] for r in out}
        for i, c in zip(ids, images["caption"].to_pylist()):
            assert cap[i] == c

    def test_pip_join_ignores_tile_column_resolution(self):
        """Points carrying res-7 tile ids: the join never reads that
        column, so the polygon_id is the brute-force min id whatever
        resolution the cell index chose."""
        import ray.data as rd

        polygons = synth.polygons_table(200, seed=42)
        images = synth.images_batch(np.arange(2000, dtype=np.uint64))
        ds = rd.from_arrow(images).map_batches(
            tiling.derive_phash_latlon, batch_format="pyarrow"
        ).map_batches(tiling.assign_tiles(7), batch_format="pyarrow")
        out = pip.pip_join(ds, polygons, batch_size=8,
                           attach_meta=False).to_pandas()
        lat, lon = geo.phash_to_latlon(images["phash"].to_numpy())
        want = dict(zip(images["image_id"].to_pylist(),
                        brute_first_hit(lat, lon, polygons)))
        assert [want[i] for i in out["image_id"]] == out["polygon_id"].tolist()

    def test_pip_join_many_polygons(self):
        """10,001 polygons: the same stateless-task plan as a small
        polygon set, equal to the Ray-free compiled probe."""
        import ray.data as rd

        polygons = synth.polygons_table(10_001, seed=7)
        rng = np.random.default_rng(8)
        pts = pa.table({"point_id": pa.array(np.arange(6000), pa.int64()),
                        "lat": pa.array(rng.uniform(-80, 80, 6000)),
                        "lon": pa.array(rng.uniform(-170, 170, 6000))})
        out = pip.pip_join(rd.from_arrow(pts).repartition(3), polygons,
                           batch_size=2048, attach_meta=False).to_pandas()
        out = out.sort_values("point_id")
        want = pip.CompiledPolygons(polygons).first_hit(
            pts["lat"].to_numpy(), pts["lon"].to_numpy())
        np.testing.assert_array_equal(out["polygon_id"].to_numpy(), want)

    def test_salted_tile_counts(self):
        import ray.data as rd

        images = synth.images_batch(np.arange(5000, dtype=np.uint64))
        ds = rd.from_arrow(images).map_batches(
            tiling.derive_phash_latlon, batch_format="pyarrow"
        ).map_batches(tiling.assign_tiles(7), batch_format="pyarrow")
        got = tiling.salted_tile_counts(ds).set_index("tile_id")["n"]

        lat, lon = geo.phash_to_latlon(images["phash"].to_numpy())
        tiles, counts = np.unique(geo.tile_id(lat, lon, 7), return_counts=True)
        assert len(got) == len(tiles)
        for t, c in zip(tiles, counts):
            assert got[t] == c

    def test_flagship_manifest_and_resume(self, tmp_path):
        from go_osm_search_ray.pipelines import flagship
        from go_osm_search_ray.state import manifest

        out = str(tmp_path / "flag")
        m = flagship.run_flagship_synth(2000, out, seed=42)
        assert sum(p["row_count"] for p in m["partitions"].values()) == 2000
        assert all(p["bytes"] > 0 for p in m["partitions"].values())
        assert m["wall_ms"] > 0
        assert m["input_files"]
        # resume: every written partition is recorded complete
        m2 = manifest.load_manifest(out)
        keys = list(m2["partitions"])
        assert manifest.remaining_partitions(keys, out) == []
        assert manifest.remaining_partitions(keys + ["999"], out) == ["999"]

    def test_flagship_output_readable_and_invariant(self, tmp_path):
        import ray.data as rd
        from go_osm_search_ray import codecs
        from go_osm_search_ray.pipelines import flagship

        out = str(tmp_path / "flag2")
        flagship.run_flagship_synth(500, out, seed=42)
        back = rd.read_parquet(out).take_all()
        assert len(back) == 500
        src = synth.images_batch(np.arange(500, dtype=np.uint64))
        src_by_id = {
            i: (b, f, c)
            for i, b, f, c in zip(
                src["image_id"].to_pylist(), src["bytes"].to_pylist(),
                src["fmt"].to_pylist(), src["caption"].to_pylist(),
            )
        }
        for r in back[:50]:
            b, f, c = src_by_id[r["image_id"]]
            assert r["caption"] == c  # caption equality invariant
            img_src = codecs.decode(b, f)
            img_out = codecs.decode(r["bytes"], r["fmt"])
            assert codecs.psnr(img_src, img_out) == float("inf")  # byte-identical

    def test_flagship_partition_resume(self, tmp_path):
        """Delete partitions from a finished run; resume recomputes only
        the missing ones and leaves finished files untouched."""
        import glob
        import json
        import os
        import shutil

        import ray.data as rd
        from go_osm_search_ray.pipelines import flagship
        from go_osm_search_ray.state import manifest

        out = str(tmp_path / "resume")
        images = synth.images_batch(np.arange(3000, dtype=np.uint64))
        polygons = synth.polygons_table(30, seed=42)
        m1 = flagship.run_flagship(rd.from_arrow(images), polygons, out)
        total = sum(p["row_count"] for p in m1["partitions"].values())
        assert total == 3000
        clean = _readback(out)
        assert len(clean) == 3000 and clean["image_id"].is_unique

        # simulate a partial failure: drop 3 partitions + manifest entries
        victims = sorted(m1["partitions"])[:3]
        for v in victims:
            shutil.rmtree(os.path.join(out, f"part={v}"))
        m = manifest.load_manifest(out)
        for v in victims:
            del m["partitions"][v]
        with open(os.path.join(out, "_manifest.json"), "w") as fh:
            json.dump(m, fh)

        survivor = sorted(m["partitions"])[0]
        mtimes_before = {
            f: os.path.getmtime(f)
            for f in glob.glob(os.path.join(out, f"part={survivor}", "*.parquet"))
        }

        m2 = flagship.resume_flagship(rd.from_arrow(images), polygons, out)
        assert set(m2["partitions"]) == set(m1["partitions"])
        assert sum(p["row_count"] for p in m2["partitions"].values()) == 3000
        # finished partition files untouched
        for f, t in mtimes_before.items():
            assert os.path.getmtime(f) == t
        # full readback equals the clean run
        pd.testing.assert_frame_equal(_readback(out)[clean.columns], clean)

        def unrecord(pids):
            m = manifest.load_manifest(out)
            for v in pids:
                del m["partitions"][v]
            manifest.atomic_write_json(os.path.join(out, "_manifest.json"), m)

        # a crash between write and manifest: orphan files sit in a
        # partition dir the manifest does not record.  Resume must
        # rebuild it cleanly — no duplicate rows, none missing.
        orphan = sorted(m2["partitions"])[-1]
        pdir = os.path.join(out, f"part={orphan}")
        f0 = sorted(glob.glob(os.path.join(pdir, "*.parquet")))[0]
        shutil.copy(f0, os.path.join(pdir, "orphan-copy.parquet"))
        unrecord([orphan])
        m3 = flagship.resume_flagship(rd.from_arrow(images), polygons, out)
        assert set(m3["partitions"]) == set(m1["partitions"])
        pd.testing.assert_frame_equal(_readback(out)[clean.columns], clean)

        # resume from a Parquet directory source (the fused-ingest plan)
        import pyarrow.parquet as pq

        src = tmp_path / "src"
        src.mkdir()
        pq.write_table(images, str(src / "images.parquet"),
                       row_group_size=700)
        victims = sorted(m3["partitions"])[1:3]
        for v in victims:
            shutil.rmtree(os.path.join(out, f"part={v}"))
        unrecord(victims)
        m4 = flagship.resume_flagship(str(src), polygons, out)
        assert set(m4["partitions"]) == set(m1["partitions"])
        assert sum(p["row_count"] for p in m4["partitions"].values()) == 3000
        pd.testing.assert_frame_equal(_readback(out)[clean.columns], clean)

    def test_flagship_empty_polygon_set(self, tmp_path):
        """Zero polygons: every row is written, unmatched, with null
        region meta."""
        import ray.data as rd
        from go_osm_search_ray.pipelines import flagship

        out = str(tmp_path / "nopoly")
        images = synth.images_batch(np.arange(500, dtype=np.uint64))
        polygons = synth.polygons_table(8, seed=42).slice(0, 0)
        m = flagship.run_flagship(rd.from_arrow(images), polygons, out)
        assert sum(p["row_count"] for p in m["partitions"].values()) == 500
        back = _readback(out)
        assert len(back) == 500
        assert (back["polygon_id"] == -1).all()
        for c in ("province", "district", "sub_district", "village",
                  "postal_code"):
            assert back[c].isna().all()


@pytest.mark.usefixtures("ray_session")
class TestSkewHandling:
    def test_salted_group_work_matches_unsalted(self):
        """Hot-cell salting: per-(tile, salt) partials combine to the
        same result as a straight per-tile computation."""
        import pandas as pd
        import ray.data as rd
        from go_osm_search_ray.stages.agg import two_phase_agg

        images = synth.images_batch(np.arange(20000, dtype=np.uint64))
        ds = rd.from_arrow(images).map_batches(
            tiling.derive_phash_latlon, batch_format="pyarrow"
        ).map_batches(tiling.assign_tiles(7), batch_format="pyarrow")
        ds = ds.map_batches(
            tiling.add_salt(8, key_col="tile_id", id_col="image_id"),
            batch_format="pyarrow",
        )

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            g = b.groupby(["tile_id", "salt"], sort=False).agg(
                n=("phash", "size")
            ).reset_index()
            return g

        salted = two_phase_agg(ds, partial, ["tile_id", "salt"], ["n"]).to_pandas()
        combined = salted.groupby("tile_id", as_index=False)["n"].sum()

        lat, lon = geo.phash_to_latlon(images["phash"].to_numpy())
        tiles, counts = np.unique(geo.tile_id(lat, lon, 7), return_counts=True)
        got = combined.set_index("tile_id")["n"]
        assert len(got) == len(tiles)
        for t, c in zip(tiles, counts):
            assert got[t] == c
        # the salt actually split the hot cells
        hot = tiles[np.argmax(counts)]
        assert (salted["tile_id"] == hot).sum() > 1

    def test_salted_tile_counts_empty(self):
        import ray.data as rd

        # an empty tile stream still returns the (tile_id, n) frame
        ds = rd.from_pandas(pd.DataFrame(
            {"tile_id": pd.Series([], dtype=np.int64)}))
        got = tiling.salted_tile_counts(ds).sort_values("tile_id")
        assert len(got) == 0
        assert list(got.columns) == ["tile_id", "n"]

    def test_two_phase_shuffle_mode_matches_driver_mode(self):
        import ray.data as rd
        from go_osm_search_ray.stages import agg, text

        def partial(b: pd.DataFrame) -> pd.DataFrame:
            vc = text.postings_pairs(b)["term"].value_counts()
            return pd.DataFrame({"term": vc.index,
                                 "df": vc.to_numpy(np.int64)})

        ds1 = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
        ds2 = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
        drv = agg.two_phase_agg(ds1, partial, ["term"], ["df"],
                                combine="driver").set_index("term")["df"]
        shf = (
            agg.two_phase_agg(ds2, partial, ["term"], ["df"],
                              combine="shuffle")
            .to_pandas()
            .set_index("term")["df"]
        )
        assert len(drv) > 10
        assert drv.to_dict() == shf.to_dict()


@pytest.mark.usefixtures("ray_session")
class TestRasterVector:
    def test_rasterize_rect_center_semantics(self):
        import pandas as pd
        import ray.data as rd

        # res 4 -> 16x16 grid, dlat=11.25, dlon=22.5; rect covering
        # exactly the cell centers of rows 8..9, cols 8..9
        rects = pd.DataFrame({
            "polygon_id": [1],
            "lat0": [0.0], "lat1": [22.5],      # centers 5.625, 16.875
            "lon0": [0.0], "lon1": [45.0],      # centers 11.25, 33.75
        })
        out = tiling.rasterize_rects(rd.from_pandas(rects), res=4).to_pandas()
        got = set(out["tile_id"])
        want = {y * 16 + x for y in (8, 9) for x in (8, 9)}
        assert got == want

    def test_vectorize_threshold_and_geometry(self):
        import pandas as pd
        import ray.data as rd

        # 5 points in one cell, 1 in another: threshold 3 keeps one cell
        pts = pd.DataFrame({
            "lat": [1.0] * 5 + [50.0],
            "lon": [1.0] * 5 + [50.0],
        })
        out = tiling.vectorize_tiles(rd.from_pandas(pts), res=4,
                                     min_count=3).to_pandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert row["n"] == 5
        assert row["lat0"] <= 1.0 <= row["lat1"]
        assert row["lon0"] <= 1.0 <= row["lon1"]


@pytest.mark.usefixtures("ray_session")
class TestDictionaryEncode:
    def test_dense_lexicographic_ids(self):
        import ray.data as rd

        from go_osm_search_ray.stages.agg import dictionary_encode

        df = pd.DataFrame({
            "event_id": np.arange(6, dtype=np.int64),
            "event_type": ["view", "click", "view", "a", "zz", "click"],
        })
        out = dictionary_encode(
            rd.from_pandas(df).repartition(3), "event_type",
            "event_type_id", id_cols=["event_id"],
        ).to_pandas().sort_values("event_id")
        # sorted distinct: a=0, click=1, view=2, zz=3
        assert out["event_type_id"].tolist() == [2, 1, 2, 0, 3, 1]
        assert list(out.columns) == ["event_id", "event_type_id"]


@pytest.mark.usefixtures("ray_session")
class TestRectOverlapJoin:
    @pytest.mark.parametrize("scan_max", [0, 100_000])
    def test_matches_brute_force_with_boundary_alignments(self, scan_max,
                                                          monkeypatch):
        """Random rects (some edges exactly ON res-4 tile boundaries)
        vs an O(n*m) numpy oracle: every intersecting pair exactly
        once, correct overlap area.  agg.BROADCAST_SCAN_MAX=0 pins the
        tile-keyed join path; the default takes the broadcast scan."""
        import itertools

        import ray.data as rd

        from go_osm_search_ray.stages import agg

        monkeypatch.setattr(agg, "BROADCAST_SCAN_MAX", scan_max)

        rng = np.random.default_rng(11)

        def rects(n, seed_ids):
            lat0 = rng.uniform(-90, 78, n)
            lon0 = rng.uniform(-180, 156, n)
            h = rng.uniform(0.5, 30, n)
            w = rng.uniform(0.5, 40, n)
            # snap a third of the edges onto tile boundaries (res 4:
            # dlat 11.25, dlon 22.5) to exercise the corner-tile dedup
            snap = rng.random(n) < 0.33
            lat0[snap] = np.floor(lat0[snap] / 11.25) * 11.25
            lon0[snap] = np.floor(lon0[snap] / 22.5) * 22.5
            return pd.DataFrame({
                "id": seed_ids,
                "lat0": lat0, "lat1": np.minimum(lat0 + h, 90.0),
                "lon0": lon0, "lon1": np.minimum(lon0 + w, 180.0),
            })

        a = rects(40, np.arange(40, dtype=np.int64))
        b = rects(60, np.arange(60, dtype=np.int64))
        got = tiling.rect_overlap_join(
            rd.from_pandas(a).repartition(3),
            rd.from_pandas(b).repartition(4), res=4).to_pandas()
        want = {}
        for i, j in itertools.product(range(40), range(60)):
            ilat0 = max(a["lat0"][i], b["lat0"][j])
            ilat1 = min(a["lat1"][i], b["lat1"][j])
            ilon0 = max(a["lon0"][i], b["lon0"][j])
            ilon1 = min(a["lon1"][i], b["lon1"][j])
            if ilat0 < ilat1 and ilon0 < ilon1:
                want[(a["id"][i], b["id"][j])] = (ilat1 - ilat0) * (ilon1 - ilon0)
        # exactly once per pair
        assert len(got) == len(got.drop_duplicates(["id_a", "id_b"]))
        got_map = dict(zip(zip(got["id_a"], got["id_b"]), got["overlap_deg2"]))
        assert set(got_map) == set(want)
        for k in want:
            assert abs(got_map[k] - want[k]) < 1e-9


def test_compact_partitions_preserves_rows(ray_session):
    import glob
    import os
    import shutil

    import pandas as pd

    from go_osm_search_ray.pipelines import flagship
    from go_osm_search_ray.state import manifest as M

    out = "/tmp/test_compact_out"
    shutil.rmtree(out, ignore_errors=True)
    m0 = flagship.run_flagship_synth(3000, out, seed=42)
    col = m0["partition_col"]
    before = pd.read_parquet(out).sort_values("image_id") \
        .reset_index(drop=True)
    files_before = len(glob.glob(os.path.join(out, f"{col}=*", "*.parquet")))

    m1 = M.compact_partitions(out, target_rows_per_file=10_000, min_files=1)
    files_after = len(glob.glob(os.path.join(out, f"{col}=*", "*.parquet")))
    after = pd.read_parquet(out).sort_values("image_id") \
        .reset_index(drop=True)

    # one file per partition now; data identical row for row
    assert files_after == len(m1["partitions"])
    assert files_after <= files_before
    pd.testing.assert_frame_equal(
        before[sorted(before.columns)], after[sorted(after.columns)])
    # manifest row counts are now exact and match the data
    part_sizes = pd.read_parquet(out, columns=["image_id"])
    assert sum(p["row_count"] for p in m1["partitions"].values()) \
        == len(part_sizes)
    # resume still sees every partition as complete
    assert M.remaining_partitions(
        [int(k) for k in m1["partitions"]], out) == []


@pytest.mark.usefixtures("ray_session")
def test_fused_ingest_equals_dataset_plan(tmp_path):
    """tile_and_join over a Parquet directory path (read inside the
    kernel task) must produce exactly the rows of the same call over
    read_parquet of that directory, across multiple files and row
    groups."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from go_osm_search_ray import synth
    from go_osm_search_ray.pipelines import flagship

    cache = str(tmp_path / "imgcache")
    ds = synth.images_dataset(8000, seed=7, parallelism=4)
    ds.write_parquet(cache, min_rows_per_file=4000, row_group_size=1000)
    polygons = synth.polygons_table(16, seed=42)

    a = flagship.tile_and_join(
        cache, polygons, include_ahash=True, carry_payload=False
    ).to_pandas()
    b = flagship.tile_and_join(
        rd.read_parquet(cache), polygons, include_ahash=True,
        carry_payload=False,
    ).to_pandas()
    cols = sorted(a.columns)
    assert cols == sorted(b.columns)
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols).reset_index(drop=True),
        b[cols].sort_values(cols).reset_index(drop=True))
    assert len(flagship.ingest_specs(cache)) >= 8  # multi-file, multi-rg


@pytest.mark.usefixtures("ray_session")
def test_validation_mode_equals_fast_mode():
    """check_invariants=True runs the same kernel with the per-row
    payload checks on: exactly the rows and columns of the fast mode."""
    from go_osm_search_ray.pipelines import flagship

    images = synth.images_dataset(1500, seed=5)
    polygons = synth.polygons_table(30, seed=5)
    fast = flagship.tile_and_join(images, polygons,
                                  include_ahash=True).to_pandas()
    checked = flagship.tile_and_join(images, polygons, include_ahash=True,
                                     check_invariants=True).to_pandas()
    assert list(checked.columns) == list(fast.columns)
    assert len(fast) == 1500
    pd.testing.assert_frame_equal(
        checked.sort_values("image_id", ignore_index=True),
        fast.sort_values("image_id", ignore_index=True))


def test_kernel_invariant_catches_mid_kernel_corruption(monkeypatch):
    """Ray-free: the validation kernel fails loudly when a step after
    the hash rewrites a caption."""
    from go_osm_search_ray.pipelines import flagship
    from go_osm_search_ray.stages.images import (AverageHash,
                                                 PayloadInvariantError)

    batch = synth.images_batch(np.arange(64, dtype=np.uint64))
    compiled = pip.CompiledPolygons(synth.polygons_table(16, seed=3),
                                    tile_res=geo.DEFAULT_TILE_RES)
    ok = flagship.tile_join_kernel(batch, compiled, geo.DEFAULT_TILE_RES,
                                   AverageHash(), check_invariants=True)
    assert ok.num_rows == 64
    derive = tiling.derive_phash_latlon

    def corrupting(b: pa.Table) -> pa.Table:
        i = b.column_names.index("caption")
        return derive(b).set_column(
            i, "caption", pa.array(["oops"] * b.num_rows, pa.string()))

    monkeypatch.setattr(tiling, "derive_phash_latlon", corrupting)
    with pytest.raises(PayloadInvariantError):
        flagship.tile_join_kernel(batch, compiled, geo.DEFAULT_TILE_RES,
                                  AverageHash(), check_invariants=True)
