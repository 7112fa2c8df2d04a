"""Streaming / state-maintenance operators: watermark late-data
detection (prefix-max), CDC last-writer-wins compaction, stay-point
dwell runs, and the column profiler — each cross-checked against a
brute-force pandas implementation on deterministic synthetic inputs."""

import numpy as np
import pandas as pd
import pytest


def _events(n=5000, n_users=200, seed=7):
    rng = np.random.RandomState(seed)
    ev = np.arange(1, n + 1, dtype=np.int64)
    base = np.cumsum(rng.randint(1, 50, n).astype(np.int64)) * 1_000_000
    jitter = np.where(ev % 7 == 0, rng.randint(0, 3600, n) * 1_000_000, 0)
    return pd.DataFrame({
        "event_id": ev,
        "ts": (np.int64(1_700_000_000_000_000) + base - jitter
               ).astype("datetime64[us]"),
        "user_id": rng.randint(0, n_users, n).astype(np.int64),
    })


def brute_late(df, lateness_us):
    df = df.sort_values("event_id").reset_index(drop=True)
    us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    wm = np.empty_like(us)
    wm[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(us[:-1], out=wm[1:])
    late = (wm != np.iinfo(np.int64).min) & (wm - us > lateness_us)
    out = df.loc[late, ["event_id", "user_id", "ts"]].copy()
    out["wm_ts"] = wm[late].astype("datetime64[us]")
    out["late_us"] = (wm[late] - us[late]).astype(np.int64)
    return out.reset_index(drop=True)


def test_watermark_late_matches_brute(ray_session):
    import ray

    from go_osm_search_ray.stages.agg import watermark_late

    df = _events()
    lateness = 600 * 1_000_000
    ds = ray.data.from_pandas(df).repartition(8)
    got = watermark_late(ds, "event_id", "ts", lateness,
                         range_size=512,
                         keep_cols=["event_id", "user_id"]).to_pandas()
    exp = brute_late(df, lateness)
    assert len(exp) > 50  # the synthetic stream must actually exercise it
    got = got.sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["event_id", "user_id", "ts", "wm_ts", "late_us"]], exp)


def test_watermark_first_event_never_late(ray_session):
    import ray

    from go_osm_search_ray.stages.agg import watermark_late

    # a stream whose first event is far in the future: with a naive
    # sentinel subtraction it would overflow into "late"
    df = pd.DataFrame({
        "event_id": np.array([1, 2, 3], dtype=np.int64),
        "ts": np.array([5_000_000_000_000_000, 10, 20],
                       dtype=np.int64).astype("datetime64[us]"),
        "user_id": np.zeros(3, dtype=np.int64),
    })
    got = watermark_late(ray.data.from_pandas(df), "event_id", "ts", 0,
                         keep_cols=["event_id"]).to_pandas()
    assert set(got["event_id"]) == {2, 3}  # 1 has no watermark


def test_watermark_empty_stream_is_typed_dataset(ray_session):
    import ray

    from go_osm_search_ray.stages.agg import watermark_late

    # an empty stream returns the same kind of result as a non-empty
    # one: a Dataset with the typed late-row schema
    import pyarrow as pa

    df = _events().iloc[0:0]
    got = watermark_late(ray.data.from_pandas(df), "event_id", "ts", 0,
                         keep_cols=["event_id"])
    assert len(got.to_pandas()) == 0
    sch = got.schema()
    assert sch.names == ["event_id", "ts", "wm_ts", "late_us"]
    assert sch.types == [pa.int64(), pa.timestamp("us"), pa.timestamp("us"),
                         pa.int64()]


def test_cdc_upsert_last_writer(ray_session):
    from go_osm_search_ray.pipelines import queries as q

    out = q.q_cdc_upsert("/root/testdata/sf0.001")
    got = out.to_pandas().sort_values("entity_id").reset_index(drop=True)

    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    ev = ev.sort_values(["ts", "event_id"])
    op = np.where(ev["event_type"] == "signup", "I",
                  np.where(ev["event_type"] == "error", "D", "U"))
    ev = ev.assign(op=op, entity_id=ev["user_id"].astype(np.int64))
    last = ev.drop_duplicates("entity_id", keep="last")
    live = last[last["op"] != "D"]
    n_ops = ev.groupby("entity_id")["op"].size()
    assert len(got) == len(live)
    m = got.set_index("entity_id")
    for _, r in live.iterrows():
        row = m.loc[r["entity_id"]]
        assert row["last_op"] == r["op"]
        assert row["last_value"] == r["value"]
        assert row["n_ops"] == n_ops[r["entity_id"]]


def test_stay_points_runs(ray_session):
    from go_osm_search_ray import geo
    from go_osm_search_ray.pipelines import queries as q

    got = q.q_stay_points("/root/testdata/sf0.001").to_pandas()
    assert (got["n_points"] >= 2).all()
    assert (got["seq_end"] > got["seq_start"]).all()

    # brute: recompute runs for one entity present in the output
    ev = q.fence_events("/root/testdata/sf0.001").to_pandas()
    pid = got["point_id"].iloc[0]
    t = ev[ev["point_id"] == pid].sort_values("seq")
    d = geo.haversine_km(t["lat"].to_numpy()[:-1], t["lon"].to_numpy()[:-1],
                         t["lat"].to_numpy()[1:], t["lon"].to_numpy()[1:])
    brk = np.concatenate([[1], (d > q.STAY_RADIUS_KM).astype(int)])
    run = np.cumsum(brk)
    runs = pd.DataFrame({"run_id": run, "seq": t["seq"].to_numpy()}) \
        .groupby("run_id").agg(n=("seq", "size"), s=("seq", "min"),
                               e=("seq", "max"))
    runs = runs[runs["n"] >= 2]
    sub = got[got["point_id"] == pid].sort_values("run_id")
    assert list(sub["n_points"]) == list(runs["n"])
    assert list(sub["seq_start"]) == list(runs["s"])
    assert list(sub["seq_end"]) == list(runs["e"])


def test_profile_columns_exact(ray_session):
    import duckdb

    from go_osm_search_ray.pipelines import queries as q

    got = q.q_profile_columns("/root/testdata/sf0.001")
    con = duckdb.connect()
    li = "/root/testdata/sf0.001/lineitem.parquet"
    for _, r in got.iterrows():
        n, d, nn = con.sql(
            f"SELECT COUNT(*), COUNT(DISTINCT {r['col_name']}), "
            f"SUM(CASE WHEN {r['col_name']} IS NULL THEN 1 ELSE 0 END) "
            f"FROM '{li}'").fetchone()
        assert r["n_rows"] == n
        assert r["n_distinct"] == d
        assert r["n_null"] == (nn or 0)


def test_idw_grid_brute(ray_session):
    from go_osm_search_ray import geo
    from go_osm_search_ray.pipelines import queries as q

    got = q.q_idw_grid("/root/testdata/sf0.001").set_index("cell")
    cust = pd.read_parquet("/root/testdata/sf0.001/customer.parquet",
                           columns=["c_custkey", "c_acctbal"])
    k = cust["c_custkey"].to_numpy(np.int64)
    lat, lon = geo.point_from_key(k * 31 + 7)
    v = np.rint(cust["c_acctbal"].to_numpy() * 100).astype(np.int64)
    n = 1 << q.IDW_RES
    for cell in list(got.index)[:12]:
        i, j = divmod(int(cell), n)
        clat = -90 + (i + 0.5) * 180 / n
        clon = -180 + (j + 0.5) * 360 / n
        d = geo.haversine_km(lat, lon, np.full_like(lat, clat),
                             np.full_like(lon, clon))
        m = d <= q.IDW_RADIUS_KM
        w = np.rint(1e8 / (d[m] + q.IDW_SMOOTH_KM)).astype(np.int64)
        assert got.loc[cell, "n_obs"] == m.sum()
        assert got.loc[cell, "sum_w"] == w.sum()
        assert got.loc[cell, "sum_wv"] == (w * v[m]).sum()
        assert got.loc[cell, "idw_cents"] == (w * v[m]).sum() // w.sum()


def test_track_resample_brute(ray_session):
    from go_osm_search_ray.pipelines import queries as q

    got = q.q_track_resample("/root/testdata/sf0.001").to_pandas()
    ev = q.fence_events("/root/testdata/sf0.001").to_pandas()
    step = q.RESAMPLE_STEP
    pid = got["point_id"].iloc[0]
    t = ev[ev["point_id"] == pid].sort_values("seq")
    s = t["seq"].to_numpy()
    sub = got[got["point_id"] == pid].sort_values("t")
    t0 = -(-s.min() // step) * step
    exp_ts = np.arange(t0, s.max() + 1, step)
    assert list(sub["t"]) == list(exp_ts)
    for _, r in sub.iterrows():
        ps = s[s <= r["t"]].max()
        ns = s[s >= r["t"]].min()
        a = t[t["seq"] == ps].iloc[0]
        b = t[t["seq"] == ns].iloc[0]
        f = 0.0 if ns == ps else (r["t"] - ps) / (ns - ps)
        assert abs(r["lat_i"] - (a["lat"] + (b["lat"] - a["lat"]) * f)) < 1e-5
        assert abs(r["lon_i"] - (a["lon"] + (b["lon"] - a["lon"]) * f)) < 1e-5
