"""keyed_prefix_sum primitive, sequence packing, PII scrub, and
simhash pair emission — brute-force cross-checks."""

import numpy as np
import pandas as pd
import pytest

from conftest import perf_gate  # noqa: E402


def test_keyed_prefix_sum_matches_window(ray_session):
    import ray

    from go_osm_search_ray.stages.agg import keyed_prefix_sum

    rng = np.random.RandomState(11)
    n = 20000
    df = pd.DataFrame({
        "k": rng.randint(0, 7, n).astype(np.int64),
        "seq": rng.permutation(n).astype(np.int64),
        "v": rng.randint(0, 100, n).astype(np.int64),
    })
    got = keyed_prefix_sum(ray.data.from_pandas(df).repartition(8),
                           "k", "seq", "v", range_size=512).to_pandas()
    exp = df.sort_values(["k", "seq"]).copy()
    exp["prefix_excl"] = exp.groupby("k")["v"].cumsum() - exp["v"]
    m = got.set_index(["k", "seq"])["prefix_excl"]
    e = exp.set_index(["k", "seq"])["prefix_excl"]
    pd.testing.assert_series_equal(m.sort_index(), e.sort_index())


def test_pack_batches_capacity(ray_session):
    from go_osm_search_ray.pipelines import queries as q

    out = q.q_pack_batches("/root/testdata/sf0.001").to_pandas()
    # cumsum-split: every batch's exclusive start is below capacity *
    # (batch_id+1); batch ids are dense-ish and start at 0 per bucket
    assert (out["batch_id"] >= 0).all()
    g = out.sort_values(["len_bucket", "doc_id"])
    for _, grp in g.groupby("len_bucket"):
        excl = grp["n_tokens"].cumsum() - grp["n_tokens"]
        assert (excl // q.PACK_CAPACITY == grp["batch_id"]).all()
        assert grp["batch_id"].iloc[0] == 0


def test_pii_scrub_counts(ray_session):
    from go_osm_search_ray.pipelines import queries as q

    out = q.q_pii_scrub("/root/testdata/sf0.001").to_pandas() \
        .set_index("doc_id")
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    import re

    for _, r in docs.head(80).iterrows():
        d = int(r["doc_id"])
        assert out.loc[d, "n_emails"] == (1 if d % 3 == 0 else 0)
        assert out.loc[d, "n_phones"] == (1 if d % 5 == 0 else 0)
        assert out.loc[d, "n_ips"] == (1 if d % 7 == 0 else 0)
        t = r["text"]
        if d % 3 == 0:
            t += f" contact user{d}@mail.example.com"
        if d % 5 == 0:
            t += f" call 555-{1000 + d % 9000} now"
        if d % 7 == 0:
            t += f" ip 10.{d % 256}.{(d * 3) % 256}.{(d * 7) % 256}"
        t = re.sub(q.PII_EMAIL, "[EMAIL]", t)
        t = re.sub(q.PII_IP, "[IP]", t)
        t = re.sub(q.PII_PHONE, "[PHONE]", t)
        assert out.loc[d, "clean_len"] == len(t)


def test_simhash_pairs_brute(ray_session):
    from go_osm_search_ray.pipelines import queries as q
    from go_osm_search_ray.stages.dedup import simhash64_from_flat
    from go_osm_search_ray.stages.text import tokenize_flat_arrow

    got = q.q_simhash_pairs("/root/testdata/sf0.001").to_pandas()
    docs = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                           columns=["doc_id", "text"])
    codes, uniques, lens, _ = tokenize_flat_arrow(docs["text"])
    s = simhash64_from_flat(codes, uniques, lens).view(np.uint64)
    ids = docs["doc_id"].to_numpy(np.int64)
    # collapse to distinct signatures (min id representative)
    rep = pd.DataFrame({"sig": s.view(np.int64), "doc_id": ids}) \
        .groupby("sig").agg(rep=("doc_id", "min"), n=("doc_id", "size"))
    sig = rep.index.to_numpy().view(np.uint64)
    r = rep["rep"].to_numpy()
    exp = set()
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            if bin(int(sig[i] ^ sig[j])).count("1") <= 7:
                exp.add((min(r[i], r[j]), max(r[i], r[j])))
    assert set(zip(got["id_a"], got["id_b"])) == exp
    assert (got["hamming"] <= 7).all()


def test_keyed_prefix_sum_scale_many_keys(ray_session):
    """100k keys x 10 rows: the bucket-hash + bounded-driver-carry shape
    must not hit the sorted-groupby group-count cliff."""
    import time

    import ray

    from go_osm_search_ray.stages.agg import keyed_prefix_sum

    n = 1_000_000
    rng = np.random.RandomState(2)
    df = pd.DataFrame({
        "k": rng.randint(0, 100_000, n).astype(np.int64),
        "seq": np.arange(n, dtype=np.int64),
        "v": rng.randint(0, 10, n).astype(np.int64),
    })
    t0 = time.perf_counter()
    got = keyed_prefix_sum(ray.data.from_pandas(df).repartition(16),
                           "k", "seq", "v", range_size=65536).to_pandas()
    wall = time.perf_counter() - t0
    perf_gate(wall < 120, f"{wall:.0f}s")  # the cliff shape was ~25s per 100k groups
    assert len(got) == n
    # spot-exact: a few keys against the pandas window
    exp = df.sort_values(["k", "seq"])
    exp = exp.assign(pe=exp.groupby("k")["v"].cumsum() - exp["v"])
    g = got.set_index(["k", "seq"])["prefix_excl"]
    for k in (0, 1, 99_999):
        sub = exp[exp["k"] == k]
        for _, r in sub.head(5).iterrows():
            assert g.loc[(k, r["seq"])] == r["pe"]
