"""Round-4 ADVICE regression tests: keyed_prefix_sum with negative
values, crash-safe compaction recovery, bloom_semi_join duplicate-key
semantics, merge_postings true-upsert, interval-join column collisions."""

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pytest


def test_keyed_prefix_sum_negative_values(ray_session):
    """The ADVICE repro: A(r0,-5), B(r0,1), B(r1,1) must carry 1 into
    B's second range, not -4 — plus a randomized signed cross-check."""
    import ray

    from go_osm_search_ray.stages.agg import keyed_prefix_sum

    df = pd.DataFrame({
        "k": ["A", "B", "B"],
        "seq": np.array([0, 0, 512], dtype=np.int64),
        "v": np.array([-5, 1, 1], dtype=np.int64),
    })
    got = keyed_prefix_sum(ray.data.from_pandas(df), "k", "seq", "v",
                           range_size=512).to_pandas() \
        .set_index(["k", "seq"])["prefix_excl"]
    assert got.loc[("B", 512)] == 1
    assert got.loc[("B", 0)] == 0
    assert got.loc[("A", 0)] == 0

    rng = np.random.RandomState(7)
    n = 20000
    df = pd.DataFrame({
        "k": rng.randint(0, 7, n).astype(np.int64),
        "seq": rng.permutation(n).astype(np.int64),
        "v": rng.randint(-50, 50, n).astype(np.int64),
    })
    got = keyed_prefix_sum(ray.data.from_pandas(df).repartition(8),
                           "k", "seq", "v", range_size=512).to_pandas()
    exp = df.sort_values(["k", "seq"]).copy()
    exp["prefix_excl"] = exp.groupby("k")["v"].cumsum() - exp["v"]
    m = got.set_index(["k", "seq"])["prefix_excl"].sort_index()
    e = exp.set_index(["k", "seq"])["prefix_excl"].sort_index()
    pd.testing.assert_series_equal(m, e)


def _write_partitioned_fixture(ray, out):
    from go_osm_search_ray.state.manifest import write_partitioned

    df = pd.DataFrame({
        "p": np.repeat(np.arange(4, dtype=np.int64), 250),
        "x": np.arange(1000, dtype=np.int64),
    })
    write_partitioned(ray.data.from_pandas(df).repartition(8), out, "p")
    return df


def test_compaction_temp_dirs_invisible_and_recoverable(ray_session,
                                                        tmp_path):
    """Crash between the two renames must not expose phantom
    partitions: the parked dirs are dot-named (outside the `p=*` glob)
    and recovery restores a missing live dir from the old set."""
    import ray

    from go_osm_search_ray.state.manifest import (
        _recover_compaction, compact_partitions, load_manifest)

    out = str(tmp_path / "part")
    df = _write_partitioned_fixture(ray, out)

    # simulate a crash mid-swap for p=2: live dir renamed away, the
    # complete old set parked under the dot name, a stale tmp left too
    live = os.path.join(out, "p=2")
    os.replace(live, os.path.join(out, ".compact_old.p=2"))
    os.makedirs(os.path.join(out, ".compact_tmp.p=3"))

    # neither parked dir matches the partition glob readers use
    assert not [d for d in glob.glob(os.path.join(out, "p=*"))
                if "compact" in os.path.basename(d)]
    assert _recover_compaction(out, "p") == 1
    assert os.path.isdir(live)
    assert not glob.glob(os.path.join(out, ".compact_*"))

    # full compaction pass (runs recovery on entry) keeps every row
    compact_partitions(out, target_rows_per_file=10_000, min_files=1)
    got = pd.read_parquet(out).sort_values("x").reset_index(drop=True)
    assert len(got) == len(df)
    assert set(got["x"]) == set(df["x"])
    m = load_manifest(out)
    assert sum(p["row_count"] for p in m["partitions"].values()) == len(df)


def test_bloom_semi_join_duplicate_keys_both_paths(ray_session, monkeypatch):
    """Duplicate keys on the key side: both the broadcast path and the
    Bloom+verify path must emit each probe row exactly once."""
    import ray

    from go_osm_search_ray.stages import agg
    from go_osm_search_ray.stages.sketch import bloom_semi_join

    probe = pd.DataFrame({"pk": np.arange(2000, dtype=np.int64),
                          "val": np.arange(2000, dtype=np.int64) * 3})
    # key side: ids 0..499, each duplicated 3x, under a DIFFERENT name
    keys = pd.DataFrame({"bk": np.repeat(
        np.arange(500, dtype=np.int64), 3)})
    expected = set(range(500))

    for keys_max in (4_000_000, 0):  # broadcast path, then bloom path
        monkeypatch.setattr(agg, "BROADCAST_KEYS_MAX", keys_max)
        got = bloom_semi_join(
            ray.data.from_pandas(probe).repartition(4),
            ray.data.from_pandas(keys).repartition(4),
            "pk", "bk", n_keys_hint=1500).to_pandas()
        assert len(got) == 500, f"BROADCAST_KEYS_MAX={keys_max}"
        assert set(got["pk"]) == expected
        assert (got["val"] == got["pk"] * 3).all()


def test_merge_postings_true_upsert(ray_session):
    """Re-ingesting a CHANGED document must drop its stale postings:
    incremental merge == full rebuild over old-minus-reingested + new."""
    import ray

    from go_osm_search_ray.pipelines.indexer import merge_postings
    from go_osm_search_ray.stages.text import postings_lists

    old = pd.DataFrame({
        "doc_id": np.array([1, 2, 3], dtype=np.int64),
        "text": ["alpha beta", "beta gamma", "gamma delta"],
    })
    # doc 2 re-ingested with DIFFERENT content: "beta" gone, "epsilon" in
    new = pd.DataFrame({
        "doc_id": np.array([2, 4], dtype=np.int64),
        "text": ["epsilon gamma", "alpha epsilon"],
    })
    old_lists = postings_lists(ray.data.from_pandas(old), "doc_id", "text")
    got = merge_postings(old_lists, ray.data.from_pandas(new)) \
        .to_pandas().set_index("term").sort_index()

    final = pd.concat([old[old.doc_id != 2], new])
    exp = postings_lists(ray.data.from_pandas(final), "doc_id", "text") \
        .to_pandas().set_index("term").sort_index()
    assert list(got.index) == list(exp.index)
    for t in exp.index:
        assert list(got.loc[t, "postings"]) == list(exp.loc[t, "postings"]), t
        assert got.loc[t, "df"] == len(exp.loc[t, "postings"])
    # the stale posting is the point: doc 2 must be out of "beta"
    assert 2 not in list(got.loc["beta", "postings"])


def test_interval_join_broadcast_collision_and_sweep(ray_session):
    """Colliding column names get an _iv suffix consistently (hit and
    empty blocks), and the searchsorted sweep matches brute force."""
    import ray

    from go_osm_search_ray.stages.agg import interval_join

    rng = np.random.RandomState(3)
    pts = pd.DataFrame({
        "ts": rng.randint(0, 10_000, 3000).astype(np.int64),
        "name": [f"p{i}" for i in range(3000)],  # collides
    })
    t0 = rng.randint(0, 9_000, 40).astype(np.int64)
    ivs = pd.DataFrame({
        "t0": t0, "t1": t0 + rng.randint(1, 800, 40).astype(np.int64),
        "name": [f"iv{j}" for j in range(40)],  # collides
    })
    got = interval_join(ray.data.from_pandas(pts).repartition(6),
                        ray.data.from_pandas(ivs),
                        "ts", "t0", "t1", bucket_us=1000).to_pandas()
    assert "name_iv" in got.columns and "name" in got.columns
    exp = pts.merge(ivs.rename(columns={"name": "name_iv"}), how="cross")
    exp = exp[(exp.ts >= exp.t0) & (exp.ts < exp.t1)]
    key = ["name", "name_iv"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[exp.columns.tolist()],
        exp.sort_values(key).reset_index(drop=True))
