"""Dedup + embedding operators vs brute force, over testdata + synthetic dups."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from go_osm_search_ray.stages import dedup, embed, text

SF = "/root/testdata/sf0.001"


def docs_with_dups():
    """testdata docs + injected exact and near duplicates."""
    d = pq.read_table(f"{SF}/documents.parquet").to_pandas()[["doc_id", "text"]]
    extra = []
    base = d.iloc[0]["text"]
    extra.append({"doc_id": 100000, "text": base})                      # exact dup
    extra.append({"doc_id": 100001, "text": base.upper()})              # normalized dup
    words = base.split()
    near = " ".join(words[:-2] + ["zzz", "qqq"])                        # near dup
    extra.append({"doc_id": 100002, "text": near})
    return pd.concat([d, pd.DataFrame(extra)], ignore_index=True)


@pytest.mark.usefixtures("ray_session")
class TestExactDedup:
    def test_keeps_min_id(self):
        import ray.data as rd

        df = docs_with_dups()
        ds = rd.from_pandas(df).repartition(4)
        kept = dedup.exact_dedup(ds).to_pandas()
        assert 100000 not in kept["doc_id"].values
        assert 100001 not in kept["doc_id"].values  # normalization folds case
        assert 0 in kept["doc_id"].values
        assert len(kept) == len(df) - 2

    def test_hash_matches_duckdb_md5(self):
        import duckdb

        s = "some text WITH, punct!"
        import re

        norm = re.sub(r"[^a-z0-9]+", " ", s.lower())
        want = duckdb.sql(
            "SELECT md5(regexp_replace(lower($1), '[^a-z0-9]+', ' ', 'g'))", params=[s]
        ).fetchone()[0]
        assert dedup.md5_hex(norm) == want

    def test_null_text_reads_as_empty(self):
        """A null text hashes as '' (no crash), and the kept ids equal
        SQL_DEDUP_EXACT over COALESCE(text, '')."""
        import duckdb
        import ray.data as rd

        from go_osm_search_ray.pipelines.queries import SQL_DEDUP_EXACT

        df = pd.DataFrame({"doc_id": np.arange(6, dtype=np.int64),
                           "text": pd.Series(["A b", None, "a B", "", None,
                                              "c"], dtype=object)})
        got = dedup.exact_dedup(rd.from_pandas(df).repartition(2)) \
            .to_pandas()
        con = duckdb.connect()
        con.register("raw", df)
        con.execute("CREATE VIEW documents AS SELECT doc_id, "
                    "COALESCE(text, '') AS text FROM raw")
        want = con.sql(SQL_DEDUP_EXACT).df()
        assert sorted(zip(got["text_hash"], got["doc_id"])) == \
            sorted(zip(want["text_hash"], want["doc_id"]))
        assert sorted(got["doc_id"]) == [0, 1, 5]


@pytest.mark.usefixtures("ray_session")
class TestDecontaminate:
    @pytest.mark.parametrize("keys_max", [0, 4_000_000])
    def test_planted_contamination(self, keys_max, monkeypatch):
        """Test docs copying a >=5-gram from train are flagged; docs
        sharing only shorter overlaps are not.  agg.BROADCAST_KEYS_MAX=0
        pins membership_filter's keyed left_semi join; the default takes
        the broadcast scan."""
        import ray.data as rd

        from go_osm_search_ray.stages import agg

        monkeypatch.setattr(agg, "BROADCAST_KEYS_MAX", keys_max)

        train = pd.DataFrame({
            "doc_id": [0, 2],
            "text": ["the quick brown fox jumps over the lazy dog",
                     "completely different training material here now"],
        })
        test = pd.DataFrame({
            "doc_id": [1, 3, 5],
            "text": [
                # contains train's 5-gram "quick brown fox jumps over"
                "intro quick brown fox jumps over outro words",
                # shares only 2-grams with train -> clean
                "the quick red fox sleeps under a tree",
                # clean, disjoint vocabulary
                "unrelated sentences about nothing shared at all",
            ],
        })
        got = dedup.decontaminate(
            rd.from_pandas(train).repartition(2),
            rd.from_pandas(test).repartition(2),
            k_shingle=5,
        ).to_pandas()
        assert sorted(got["doc_id"]) == [1]


@pytest.mark.usefixtures("ray_session")
class TestDupNgramCoverage:
    @pytest.mark.parametrize("keys_max", [0, 4_000_000])
    def test_interval_union_by_hand(self, keys_max, monkeypatch):
        """Two docs share 'a b c d e' and the overlapping 'b c d e f'
        (positions 0 and 1 in doc 10 -> union covers tokens 0..5 = 6);
        doc 12 shares nothing; doc 13 is shorter than the 5-gram.
        agg.BROADCAST_KEYS_MAX=0 pins the keyed probe join and the
        left-outer covered attach; the default broadcasts both."""
        import ray.data as rd

        from go_osm_search_ray.stages import agg

        monkeypatch.setattr(agg, "BROADCAST_KEYS_MAX", keys_max)

        df = pd.DataFrame({
            "doc_id": [10, 11, 12, 13],
            "text": [
                "a b c d e f x y z",          # dup 5-grams at pos 0,1
                "q a b c d e f r",            # dup 5-grams at pos 1,2
                "totally different words here all unique tokens now",
                "too short",
            ],
        })
        got = dedup.dup_ngram_coverage(
            rd.from_pandas(df).repartition(3), k_shingle=5,
        ).to_pandas().set_index("doc_id").sort_index()
        assert got["n_tokens"].tolist() == [9, 8, 8, 2]
        # doc10: [0,5)+[1,6) union = 6; doc11: [1,6)+[2,7) union = 6
        assert got["covered_tokens"].tolist() == [6, 6, 0, 0]


@pytest.mark.usefixtures("ray_session")
class TestNameBboxDedup:
    def test_reference_semantics(self):
        """Same name, point inside earlier record's bbox -> dropped
        (indexer.go:582-618)."""
        import ray.data as rd

        t = pd.DataFrame(
            {
                "point_id": [1, 2, 3, 4, 5],
                "name": ["Taman Indah", "taman indah", "TAMAN INDAH", "Other", "taman indah"],
                "lat": [0.0, 0.0, 5.0, 0.0, 2.5],
                "lon": [0.0, 0.0, 5.0, 0.0, 2.5],
            }
        )
        kept = dedup.name_bbox_dedup(rd.from_pandas(t)).to_pandas()
        ids = sorted(kept["point_id"])
        # 1 kept; 2 dropped (same point); 3 kept (outside box), grows box
        # to (0,0)-(5,5); 5 dropped (inside grown box); 4 kept (other name)
        assert ids == [1, 3, 4]


def _shingles(tokens: list[str], k: int) -> set[str]:
    """Reference shingle set: every k consecutive tokens, or the whole
    token list when it is shorter than k."""
    if len(tokens) < k:
        return {" ".join(tokens)} if tokens else set()
    return {" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)}


@pytest.mark.usefixtures("ray_session")
class TestJaccardAndMinhash:
    def brute_pairs(self, df, k=3, threshold=0.2):
        toks = text.tokenize_series(df["text"])
        sh = {d: _shingles(ws, k) for d, ws in zip(df["doc_id"], toks)}
        out = set()
        ids = sorted(sh)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = sh[ids[i]], sh[ids[j]]
                if not a and not b:
                    continue
                inter = len(a & b)
                if inter == 0:
                    continue
                jac = inter / len(a | b)
                if jac >= threshold:
                    out.add((ids[i], ids[j], round(jac, 6)))
        return out

    def test_jaccard_pairs_exact(self):
        import ray.data as rd

        df = docs_with_dups().head(120)
        got = dedup.jaccard_pairs(rd.from_pandas(df).repartition(4), threshold=0.2).to_pandas()
        got_set = {(a, b, round(j, 6)) for a, b, j in
                   zip(got["id_a"], got["id_b"], got["jaccard"])}
        assert got_set == self.brute_pairs(df)

    def test_minhash_finds_planted_dups(self):
        import ray.data as rd

        df = docs_with_dups()
        got = dedup.minhash_lsh_pairs(
            rd.from_pandas(df).repartition(4), threshold=0.5
        ).to_pandas()
        pairs = set(zip(got["id_a"], got["id_b"]))
        assert (0, 100000) in pairs  # exact dup always caught
        assert (0, 100001) in pairs
        # every reported pair genuinely passes the threshold
        assert (got["jaccard"] >= 0.5).all()

    def test_near_dedup_keep_components(self):
        """Planted near-dup chain: 0 ~ 100000 ~ 100001 ~ 100002 collapse
        into one component whose min id (0) survives; unrelated docs all
        survive."""
        import ray.data as rd

        df = docs_with_dups()
        kept = set(
            dedup.near_dedup_keep(rd.from_pandas(df).repartition(4),
                                  threshold=0.2).to_pandas()["doc_id"]
        )
        assert 0 in kept
        assert not ({100000, 100001, 100002} & kept)
        # every doc is either kept or in a component with a smaller kept id
        assert len(kept) <= len(df) - 3

    def test_jaccard_hot_shingle_cap(self):
        """Planted hot key: many docs sharing one shingle.  With max_df
        the hot group emits no pairs (bounded work); docs ALSO sharing
        rare shingles still pair up."""
        import ray.data as rd

        hot = "aaa bbb ccc"  # one shared trigram across every doc
        rows = [{"doc_id": i, "text": f"{hot} unique{i} only{i} word{i}"}
                for i in range(300)]
        # two docs sharing a RARE shingle chain too (a real near-dup)
        rows.append({"doc_id": 9000, "text": "xxx yyy zzz www vvv"})
        rows.append({"doc_id": 9001, "text": "xxx yyy zzz www uuu"})
        ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
        got = dedup.jaccard_pairs(ds, threshold=0.4, max_df=50).to_pandas()
        pairs = set(zip(got["id_a"], got["id_b"]))
        assert (9000, 9001) in pairs
        # the hot shingle alone (capped out) creates no pair
        assert all(a >= 9000 for a, _ in pairs)

    def test_simhash_near_dups(self):
        import ray.data as rd

        df = docs_with_dups()
        got = dedup.simhash_dup_pairs(rd.from_pandas(df).repartition(3),
                                      max_hamming=3).to_pandas()
        pairs = set(zip(got["id_a"], got["id_b"]))
        assert (0, 100000) in pairs
        assert (got["hamming"] <= 3).all()

    def test_simhash_hot_bucket_bounded(self):
        """10^4 IDENTICAL docs pile one signature into every band
        bucket; max_bucket caps the group (skipped, bounded work)
        while a small planted dup pair elsewhere is still found."""
        import ray.data as rd

        rows = [{"doc_id": i, "text": "the same boilerplate text every time"}
                for i in range(10_000)]
        rows.append({"doc_id": 20000, "text": "qqq www eee rrr ttt yyy"})
        rows.append({"doc_id": 20001, "text": "qqq www eee rrr ttt yyy"})
        ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
        got = dedup.simhash_dup_pairs(ds, max_hamming=3,
                                      max_bucket=100).to_pandas()
        pairs = set(zip(got["id_a"], got["id_b"]))
        assert (20000, 20001) in pairs
        # the capped hot class emits no pairs
        assert all(a >= 20000 for a, _ in pairs)

    def test_hamming_dup_pairs_exact_by_pigeonhole(self):
        """Generic int64-signature path (image aHash analogue): with
        n_bands = max_hamming + 1 every pair within the threshold is
        found (pigeonhole), verified vs a brute-force O(n^2) oracle;
        carry_cols ride through as _a/_b."""
        import itertools

        import ray.data as rd

        rng = np.random.default_rng(7)
        sigs = rng.integers(0, 2**63, size=80, dtype=np.int64)
        # plant close pairs at known hamming distances 0..7
        for i, d in enumerate(range(8)):
            base = sigs[i]
            flip = np.int64(0)
            for b in rng.choice(64, size=d, replace=False):
                flip ^= np.int64(1) << np.int64(int(b))
            sigs = np.append(sigs, base ^ flip)
        ids = np.arange(len(sigs), dtype=np.int64)
        df = pd.DataFrame({"rep_id": ids, "sig": sigs,
                           "n": ids % 5 + 1})
        got = dedup.hamming_dup_pairs(
            rd.from_pandas(df).repartition(3), id_col="rep_id",
            sig_col="sig", max_hamming=7, n_bands=8,
            carry_cols=["n"]).to_pandas()
        want = set()
        u = sigs.view(np.uint64)
        for a, b in itertools.combinations(range(len(sigs)), 2):
            if bin(int(u[a] ^ u[b])).count("1") <= 7:
                want.add((min(a, b), max(a, b)))
        assert set(zip(got["id_a"], got["id_b"])) == want
        assert {"n_a", "n_b"} <= set(got.columns)
        m = got.merge(df.rename(columns={"rep_id": "id_a"}), on="id_a")
        assert (m["n_a"] == m["n"]).all()

    def test_cc_labels_planted_components(self, monkeypatch):
        """Distributed min-label propagation: a 7-node chain (needs
        multiple propagation rounds), a triangle, an isolated edge."""
        import ray.data as rd

        pairs = pd.DataFrame({
            "id_a": [1, 2, 10, 11, 12, 50, 100, 101, 102, 103, 104, 105],
            "id_b": [2, 3, 11, 12, 13, 51, 101, 102, 103, 104, 105, 106],
        })
        # both paths: the single-task union-find fast path (default at
        # this size) AND the distributed fixpoint loop (forced)
        for task_edges_max in (2_000_000, 0):
            monkeypatch.setattr(dedup, "CC_TASK_EDGES_MAX", task_edges_max)
            labels = dedup.cc_labels(
                rd.from_pandas(pairs).repartition(3)).to_pandas()
            lab = dict(zip(labels["node"], labels["label"]))
            assert lab[1] == lab[2] == lab[3] == 1
            assert lab[10] == lab[11] == lab[12] == lab[13] == 10
            assert lab[50] == lab[51] == 50
            assert all(lab[n] == 100 for n in range(100, 107))

    def test_cc_labels_raises_when_rounds_run_out(self, monkeypatch):
        """The distributed fixpoint must not return unconverged labels:
        one round cannot settle a 7-node chain, so it raises."""
        import ray.data as rd

        pairs = pd.DataFrame({"id_a": np.arange(100, 106, dtype=np.int64),
                              "id_b": np.arange(101, 107, dtype=np.int64)})
        monkeypatch.setattr(dedup, "CC_TASK_EDGES_MAX", 0)
        monkeypatch.setattr(dedup, "CC_MAX_ROUNDS", 1)
        with pytest.raises(RuntimeError, match="still changing"):
            dedup.cc_labels(rd.from_pandas(pairs).repartition(3))


@pytest.mark.usefixtures("ray_session")
class TestEmbeddings:
    def test_cosine_topk_matches_brute(self):
        import ray.data as rd

        emb = pq.read_table(f"{SF}/embeddings.parquet")
        df = emb.to_pandas()
        qn = 5
        queries = {
            "query_id": df["vec_id"].head(qn).tolist(),
            "embedding": df["embedding"].head(qn).tolist(),
        }
        ds = rd.read_parquet(f"{SF}/embeddings.parquet").repartition(4)
        got = (
            embed.cosine_topk(ds, queries, k=5, batch_size=100)
            .sort_values(["query_id", "rank"])
        )

        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        ids = df["vec_id"].to_numpy()
        for qi in range(qn):
            sims = m[qi] @ m.T
            mask = ids != ids[qi]
            order = np.lexsort((ids[mask], -sims[mask]))
            want_ids = ids[mask][order][:5]
            sub = got[got["query_id"] == ids[qi]].sort_values("rank")
            np.testing.assert_array_equal(sub["vec_id"].to_numpy(), want_ids)
            np.testing.assert_allclose(
                sub["cosine"].to_numpy(), sims[mask][order][:5], atol=1e-12
            )

    def test_dup_pairs_threshold(self):
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()[["vec_id", "embedding"]]
        # plant near-duplicate vectors (slightly perturbed copies)
        rng = np.random.default_rng(3)
        extra = []
        for i in range(5):
            v = np.asarray(df["embedding"].iloc[i], dtype=np.float64)
            extra.append(
                {"vec_id": 100000 + i,
                 "embedding": (v + rng.normal(0, 0.01, len(v))).tolist()}
            )
        df = pd.concat([df, pd.DataFrame(extra)], ignore_index=True)
        ds = rd.from_pandas(df).repartition(3)
        got = embed.embedding_dup_pairs(ds, threshold=0.9).to_pandas()
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        ids = df["vec_id"].to_numpy()
        sims = m @ m.T
        want = {
            (int(ids[i]), int(ids[j]))
            for i in range(len(ids))
            for j in range(len(ids))
            if ids[i] < ids[j] and sims[i, j] >= 0.9
        }
        assert set(zip(got["id_a"], got["id_b"])) == want

    def test_dup_pairs_lsh_finds_planted(self):
        """LSH path: planted near-identical vectors (cosine ~0.9999)
        must be caught; every reported pair genuinely passes the
        threshold (exact in-bucket verify)."""
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()[["vec_id", "embedding"]]
        rng = np.random.default_rng(3)
        extra = []
        for i in range(5):
            v = np.asarray(df["embedding"].iloc[i], dtype=np.float64)
            extra.append(
                {"vec_id": 100000 + i,
                 "embedding": (v + rng.normal(0, 0.01, len(v))).tolist()}
            )
        df = pd.concat([df, pd.DataFrame(extra)], ignore_index=True)
        ds = rd.from_pandas(df).repartition(3)
        got = embed.embedding_dup_pairs(ds, threshold=0.9, method="lsh").to_pandas()
        pairs = set(zip(got["id_a"], got["id_b"]))
        base_ids = df["vec_id"].head(5).tolist()
        for i in range(5):
            assert (int(base_ids[i]), 100000 + i) in pairs
        assert (got["cosine"] >= 0.9).all()

    def test_dup_pairs_auto_switch_matches_lsh(self, monkeypatch):
        """method='auto' wiring: above embed.AUTO_LSH_MIN it must take
        the LSH path — same pairs as an explicit method='lsh' call with
        the same geometry (deterministic planes)."""
        import ray.data as rd

        monkeypatch.setattr(embed, "AUTO_LSH_MIN", 10)

        rng = np.random.default_rng(11)
        base = rng.standard_normal((60, 24))
        vecs = np.concatenate([base, base[:8] + 0.001 * rng.standard_normal((8, 24))])
        df = pd.DataFrame({
            "vec_id": np.arange(len(vecs), dtype=np.int64),
            "embedding": [v.tolist() for v in vecs],
        })
        ds = rd.from_pandas(df).repartition(3)
        got_auto = embed.embedding_dup_pairs(ds, threshold=0.95).to_pandas()
        got_lsh = embed.embedding_dup_pairs(
            rd.from_pandas(df).repartition(3), threshold=0.95,
            method="lsh").to_pandas()
        key = lambda d: set(zip(d["id_a"], d["id_b"]))  # noqa: E731
        # auto picked LSH (n=68 > 10): auto sizes r by n, so compare
        # against the planted ground truth both must recover exactly
        want = {(int(i), int(60 + i)) for i in range(8)}
        assert key(got_auto) == want
        assert key(got_lsh) == want

    def test_dup_pairs_lsh_rejects_duplicate_ids(self):
        """The LSH verify gathers vectors by id, so a repeated id would
        pair a row with itself (an id_a == id_b pair): it is refused."""
        import ray.data as rd

        df = pd.DataFrame({"vec_id": np.array([0, 0, 1], np.int64),
                           "embedding": [[1.0, 0.0], [1.0, 1e-8], [0.0, 1.0]]})
        with pytest.raises(ValueError, match="unique"):
            embed.embedding_dup_pairs(rd.from_pandas(df), method="lsh")

    def test_dup_pairs_lsh_empty_corpus(self):
        import ray.data as rd

        df = pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64),
                           "embedding": pd.Series([], dtype=object)})
        got = embed.embedding_dup_pairs(rd.from_pandas(df), method="lsh")
        assert got.count() == 0
        sch = got.schema()
        assert sch.names == ["id_a", "id_b", "cosine"]
        assert sch.types == [pa.int64(), pa.int64(), pa.float64()]

    def test_dup_pairs_auto_empty_corpus(self):
        import ray.data as rd

        df = pd.DataFrame({"vec_id": pd.Series([], dtype=np.int64),
                           "embedding": pd.Series([], dtype=object)})
        got = embed.embedding_dup_pairs(rd.from_pandas(df))
        assert got.count() == 0
        sch = got.schema()
        assert sch.names == ["id_a", "id_b", "cosine"]
        assert sch.types == [pa.int64(), pa.int64(), pa.float64()]

    def test_to_matrix_matches_python_lists(self):
        """The flat-values read equals the Python-list conversion for
        list, large_list, fixed_size_list and Ray tensor columns, sliced
        and chunked; ragged or null rows are refused."""
        from ray.air.util.tensor_extensions.arrow import ArrowTensorArray

        m = np.random.default_rng(0).standard_normal((7, 3))
        rows = m.tolist()
        cols = [pa.array(rows, pa.list_(pa.float64())),
                pa.array(rows, pa.large_list(pa.float32())),
                pa.array(rows, pa.list_(pa.float64(), 3)),
                ArrowTensorArray.from_numpy(m)]
        for col in cols:
            for c in (col, col.slice(2, 4),
                      pa.chunked_array([col.slice(0, 3), col.slice(3)])):
                want = np.asarray(c.to_pylist(), dtype=np.float64)
                np.testing.assert_array_equal(embed._to_matrix(c), want)
        for bad in ([[1.0, 2.0], [1.0]], [[1.0], None]):
            with pytest.raises(ValueError):
                embed._to_matrix(pa.array(bad, pa.list_(pa.float64())))

    def test_dup_pairs_default_path_1m_vectors_bounded(self):
        """Round-5 ask #5: 10^6 vectors through the DEFAULT path must
        auto-switch to LSH and finish in bounded wall (the exact
        block-cross plan would be ~10^12/8 matmul cells).  Planted
        near-identical dups (cosine ~0.999999) must all be recovered;
        every emitted pair passes the exact in-bucket verify."""
        import time

        import ray.data as rd

        from conftest import perf_gate, skip_if_busy

        skip_if_busy()
        n, dim, planted = 1_000_000, 32, 20

        def emb_of(ids: np.ndarray) -> np.ndarray:
            i = ids[:, None].astype(np.float64)
            j = np.arange(dim)[None, :].astype(np.float64)
            x = np.sin(i * 12.9898 + (j + 1.0) * 78.233) * 43758.5453
            return x - np.floor(x) - 0.5

        def gen(b: pa.Table) -> pa.Table:
            ids = b["id"].to_numpy()
            is_dup = ids >= n - planted
            base = np.where(is_dup, ids - (n - planted), ids)
            v = emb_of(base) + is_dup[:, None] * 0.001 * emb_of(ids + 7_777_777)
            return pa.table({
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(v.tolist(), pa.list_(pa.float64())),
            })

        ds = rd.range(n, override_num_blocks=32).map_batches(
            gen, batch_format="pyarrow")
        t0 = time.perf_counter()
        got = embed.embedding_dup_pairs(ds, threshold=0.95).to_pandas()
        wall = time.perf_counter() - t0
        perf_gate(wall < 300, f"1M-vector default dup-pairs took {wall:.0f}s")
        pairs = set(zip(got["id_a"], got["id_b"]))
        for t in range(planted):
            assert (t, n - planted + t) in pairs, t
        assert (got["cosine"] >= 0.95).all()

    def test_ivf_assign_buckets(self):
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        cents = embed.kmeans_centroids(m[:200], 8, iters=5)
        ds = rd.read_parquet(f"{SF}/embeddings.parquet")
        out = embed.ivf_assign(ds, cents).to_pandas()
        assert out["ivf_bucket"].between(0, 7).all()
        # assignment is the true argmin
        d = ((m[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
        want = d.argmin(1)
        got = out.sort_values("vec_id")["ivf_bucket"].to_numpy()
        np.testing.assert_array_equal(got, want)


@pytest.mark.usefixtures("ray_session")
class TestIVFSearch:
    def test_recall_vs_brute(self):
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        cents = embed.kmeans_centroids(m[:300], 8, iters=8)
        queries = {
            "query_id": df["vec_id"].head(10).tolist(),
            "embedding": df["embedding"].head(10).tolist(),
        }
        mn = m / np.linalg.norm(m, axis=1, keepdims=True)
        ids = df["vec_id"].to_numpy()

        def recall(nprobe):
            ds = rd.read_parquet(f"{SF}/embeddings.parquet").repartition(3)
            approx = embed.ivf_topk(ds, cents, queries, k=5,
                                    nprobe=nprobe)
            hits = 0
            for qi in range(10):
                sims = mn[qi] @ mn.T
                mask = ids != ids[qi]
                order = np.lexsort((ids[mask], -sims[mask]))
                truth = set(ids[mask][order][:5].tolist())
                got = set(approx[approx["query_id"] == ids[qi]]["vec_id"])
                hits += len(truth & got)
            return hits / 50.0

        # uniform random embeddings are the worst case for IVF (no
        # cluster structure) — recall must still rise monotonically with
        # nprobe and hit >=0.8 at 6/8 buckets
        r3, r6 = recall(3), recall(6)
        assert r6 >= r3
        assert r6 >= 0.8

    def test_full_probe_equals_brute(self):
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        cents = embed.kmeans_centroids(m[:300], 4, iters=5)
        queries = {
            "query_id": df["vec_id"].head(3).tolist(),
            "embedding": df["embedding"].head(3).tolist(),
        }
        ds1 = rd.read_parquet(f"{SF}/embeddings.parquet")
        ds2 = rd.read_parquet(f"{SF}/embeddings.parquet")
        a = (
            embed.ivf_topk(ds1, cents, queries, k=5, nprobe=4)
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        b = (
            embed.cosine_topk(ds2, queries, k=5)
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            a[["query_id", "rank", "vec_id"]], b[["query_id", "rank", "vec_id"]]
        )


@pytest.mark.usefixtures("ray_session")
class TestPQ:
    def test_encode_matches_numpy_argmin(self):
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().head(100)
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        books = embed.pq_codebooks(m[:50], n_sub=4, n_codes=8, iters=3)
        ds = rd.from_pandas(df[["vec_id", "embedding"]]).repartition(3)
        got = (embed.pq_encode(ds, books).to_pandas()
               .pivot(index="vec_id", columns="subspace", values="code")
               .sort_index())
        dsub = m.shape[1] // 4
        for s in range(4):
            x = m[:, s * dsub:(s + 1) * dsub]
            d2 = ((x[:, None, :] - books[s][None, :, :]) ** 2).sum(-1)
            want = d2.argmin(1)
            np.testing.assert_array_equal(
                got[s].to_numpy(),
                want[np.argsort(df["vec_id"].to_numpy())])

    def test_zero_reconstruction_error_is_exact_l2(self):
        """Codebooks that span the corpus (every distinct subvector is
        its own code) give ADC == exact squared L2, so pq_topk must
        equal the brute-force L2 ranking exactly."""
        import ray.data as rd

        rng = np.random.default_rng(3)
        # 12 well-separated base vectors in 8-d; codebooks trained ON
        # the full corpus with n_codes = n_points
        m = rng.integers(-50, 50, size=(12, 8)).astype(np.float64) * 10
        ids = np.arange(12, dtype=np.int64)
        books = embed.pq_codebooks(m, n_sub=2, n_codes=12, iters=10)
        df = pd.DataFrame({"vec_id": ids, "embedding": list(m)})
        queries = {"query_id": [0, 5], "embedding": [m[0], m[5]]}
        got = (embed.pq_topk(rd.from_pandas(df).repartition(3), books,
                             queries, k=4)
               .sort_values(["query_id", "rank"])
               .reset_index(drop=True))
        for q in (0, 5):
            d = ((m - m[q]) ** 2).sum(1)
            order = np.lexsort((ids, d))[:4]
            sub = got[got["query_id"] == q]
            np.testing.assert_array_equal(sub["vec_id"].to_numpy(), ids[order])
            np.testing.assert_allclose(sub["adc"].to_numpy(), d[order],
                                       atol=1e-6)

    def test_ivfpq_full_probe_zero_error_equals_exact(self):
        """IVF-PQ at full probe with spanning codebooks == exact L2:
        the two approximations (bucket pruning, code reconstruction)
        are each at their exact operating point, so the composition
        must be too."""
        import ray.data as rd

        rng = np.random.default_rng(17)
        m = rng.integers(-50, 50, size=(16, 8)).astype(np.float64) * 10
        ids = np.arange(16, dtype=np.int64)
        cents = embed.kmeans_centroids(m, 4, iters=8)
        books = embed.pq_codebooks(m, n_sub=2, n_codes=16, iters=10)
        df = pd.DataFrame({"vec_id": ids, "embedding": list(m)})
        queries = {"query_id": [1, 9], "embedding": [m[1], m[9]]}
        got = (embed.ivfpq_topk(rd.from_pandas(df).repartition(3), cents,
                                books, queries, k=5, nprobe=4)
               .sort_values(["query_id", "rank"])
               .reset_index(drop=True))
        for q in (1, 9):
            d = ((m - m[q]) ** 2).sum(1)
            order = np.lexsort((ids, d))[:5]
            sub = got[got["query_id"] == q]
            np.testing.assert_array_equal(sub["vec_id"].to_numpy(), ids[order])

    def test_ivfpq_recall_reasonable(self):
        """On the sf0.001 embeddings (worst case: uniform, no cluster
        structure) IVF-PQ recall@5 vs exact L2 must be materially
        above chance and rise with nprobe."""
        import ray.data as rd

        df = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
        m = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        ids = df["vec_id"].to_numpy()
        cents = embed.kmeans_centroids(m[:300], 8, iters=8)
        books = embed.pq_codebooks(m, n_sub=16, n_codes=64, iters=5)
        queries = {"query_id": ids[:10].tolist(),
                   "embedding": df["embedding"].head(10).tolist()}

        def recall(nprobe):
            ds = rd.read_parquet(f"{SF}/embeddings.parquet").repartition(3)
            got = embed.ivfpq_topk(ds, cents, books, queries, k=5,
                                   nprobe=nprobe)
            hits = 0
            for qi in range(10):
                d = ((m - m[qi]) ** 2).sum(1)
                truth = set(ids[np.lexsort((ids, d))[:5]].tolist())
                hits += len(truth & set(got[got["query_id"] == ids[qi]]["vec_id"]))
            return hits / 50.0

        r2, r8 = recall(2), recall(8)
        assert r8 >= r2
        assert r8 >= 0.5


@pytest.mark.usefixtures("ray_session")
class TestIncrementalDedup:
    def test_cross_epoch_and_replay(self, tmp_path):
        """Epoch-1 copies of epoch-0 content are dropped even with a
        SMALLER id (earlier epoch wins); epoch-1 internal dups keep
        min id; replaying epoch 1 (immutable-epoch-dir resume model:
        drop the partial dir, re-run) reproduces the same survivors."""
        import shutil

        import ray.data as rd

        state = str(tmp_path / "state")
        e0 = pd.DataFrame({"doc_id": [10, 11, 12],
                           "text": ["alpha beta", "gamma delta", "epsilon"]})
        e1 = pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": ["alpha beta",       # dup of epoch-0 doc 10 (smaller id!)
                     "zeta eta",         # new
                     "zeta eta",         # in-epoch dup of 2
                     "Gamma, DELTA"],    # normalized dup of epoch-0 doc 11
        })
        k0 = dedup.incremental_exact_dedup(
            state, rd.from_pandas(e0).repartition(2), 0).to_pandas()
        assert sorted(k0["doc_id"]) == [10, 11, 12]
        k1 = dedup.incremental_exact_dedup(
            state, rd.from_pandas(e1).repartition(2), 1).to_pandas()
        assert sorted(k1["doc_id"]) == [2]
        # replay epoch 1
        shutil.rmtree(str(tmp_path / "state" / "epoch=1"))
        k1b = dedup.incremental_exact_dedup(
            state, rd.from_pandas(e1).repartition(3), 1).to_pandas()
        assert sorted(k1b["doc_id"]) == [2]


@pytest.mark.usefixtures("ray_session")
class TestCappedBandRecall:
    def test_pair_survives_capped_first_band(self):
        """Round-4 ADVICE: with a binding max_bucket, a pair whose
        FIRST agreeing band lands in a capped (over-full) group must
        still be emitted from a later uncapped agreeing band — and
        exactly once (dedup shuffle)."""
        import ray.data as rd

        rng = np.random.default_rng(4)
        n_fill = 20
        # bands (n_bands=4) are 16-bit; band 0 = low 16 bits
        pair_hi = np.int64(0x0123_4567_89AB) << np.int64(16)
        sig_a = pair_hi          # band0 = 0, bands 1-3 shared
        sig_b = pair_hi | (np.int64(1) << np.int64(63))  # hamming 1, band-3 flip
        fills = (rng.integers(1, 1 << 40, n_fill, dtype=np.int64)
                 << np.int64(20))  # band0 = 0 too; high bands distinct
        fills = np.unique(fills)[:n_fill]
        df = pd.DataFrame({
            "doc_id": np.arange(2 + len(fills), dtype=np.int64),
            "simhash": np.concatenate([[sig_a, sig_b], fills]),
        })
        ds = rd.from_pandas(df).repartition(3)
        got = dedup.hamming_dup_pairs(
            ds, id_col="doc_id", sig_col="simhash", max_hamming=3,
            n_bands=4, max_bucket=8).to_pandas()
        pairs = list(zip(got["id_a"], got["id_b"]))
        # the planted pair survives despite its first agreeing band
        # (band 0, 22-row group > cap 8) being dropped, and appears once
        assert pairs.count((0, 1)) == 1
        # uncapped semantics unchanged: no-cap run finds it too
        got2 = dedup.hamming_dup_pairs(
            rd.from_pandas(df).repartition(3), id_col="doc_id",
            sig_col="simhash", max_hamming=3, n_bands=4,
            max_bucket=None).to_pandas()
        assert list(zip(got2["id_a"], got2["id_b"])).count((0, 1)) == 1
