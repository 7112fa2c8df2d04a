"""Text stages over the real testdata documents table, cross-checked
against pandas/DuckDB brute force."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from go_osm_search_ray.stages import text

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def test_tokenizer_matches_duckdb(docs):
    got = text.tokenize_series(docs["text"]).tolist()
    want = duckdb.sql(
        f"SELECT regexp_extract_all(lower(text),'[a-z0-9]+') AS t "
        f"FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"
    ).fetchall()
    assert got == [w[0] for w in want]


@pytest.mark.usefixtures("ray_session")
class TestPostings:
    def test_pairs_match_duckdb(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got = (
            ds.map_batches(lambda b: text.postings_pairs(b), batch_format="pandas")
            .to_pandas()
            .sort_values(["term", "doc_id"])
            .reset_index(drop=True)
        )
        want = duckdb.sql(
            f"""
            SELECT DISTINCT t.term, d.doc_id
            FROM read_parquet('{SF}/documents.parquet') d,
                 unnest(regexp_extract_all(lower(d.text),'[a-z0-9]+')) AS t(term)
            ORDER BY term, doc_id
            """
        ).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_df_and_lengths(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got_df = text.term_df(ds).to_pandas().set_index("term")["df"]
        toks = text.tokenize_series(docs["text"])
        want = {}
        for d, ws in zip(docs["doc_id"], toks):
            for w in set(ws):
                want[w] = want.get(w, 0) + 1
        assert got_df.to_dict() == want

        got_len = (
            ds.map_batches(lambda b: text.doc_lengths(b), batch_format="pandas")
            .to_pandas()
            .set_index("doc_id")["n_tokens"]
        )
        assert got_len.to_dict() == {d: len(w) for d, w in zip(docs["doc_id"], toks)}

    def test_postings_lists_sorted(self):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        out = text.postings_lists(ds).to_pandas()
        for p in out["postings"]:
            assert list(p) == sorted(p)

    @pytest.mark.parametrize("stringify", [False, True])
    def test_postings_lists_hot_term_equals_scan(self, stringify):
        """A hot term in every document, and rare terms: lists and df
        equal a corpus scan."""
        import ray.data as rd

        rng = np.random.default_rng(5)
        n = 300
        docs = pd.DataFrame({
            "doc_id": rng.permutation(np.arange(1000, 1000 + n)),
            "text": [f"the {'rare' if i % 97 == 0 else 'word'}{i % 7} The"
                     for i in range(n)],
        })
        ds = rd.from_pandas(docs).repartition(5)
        out = text.postings_lists(ds, stringify=stringify).to_pandas()
        toks = text.tokenize_series(docs["text"])
        want = {}
        for d, ws in zip(docs["doc_id"], toks):
            for w in set(ws):
                want.setdefault(w, []).append(int(d))
        want = {w: sorted(ids) for w, ids in want.items()}
        assert len(want["the"]) == n
        got = {r.term: ([int(i) for i in r.postings.split(",")] if stringify
                        else [int(i) for i in r.postings])
               for r in out.itertuples()}
        assert got == want
        assert dict(zip(out["term"], out["df"])) == {
            w: len(ids) for w, ids in want.items()}


def brute_bm25f(docs, terms, name_len=3):
    toks = text.tokenize_series(docs["text"])
    names = toks.map(lambda ws: ws[:name_len])
    addrs = toks.map(lambda ws: ws[name_len:])
    N = len(docs)
    avg_name = names.str.len().mean()
    avg_addr = addrs.str.len().mean()
    scores = {}
    for t in terms:
        df = sum(1 for ws in toks if t in ws)
        if df == 0:
            continue
        idf = np.log10(N - df + 0.5) - np.log10(df + 0.5)
        for d, nm, ad in zip(docs["doc_id"], names, addrs):
            s = 0.0
            tfn = nm.count(t)
            if tfn:
                w = text.NAME_WEIGHT * (
                    tfn / (1 + text.NAME_B * (len(nm) / avg_name - 1))
                )
                s += w / (text.K1_BM25F + w) * idf
            tfa = ad.count(t)
            if tfa:
                w = text.ADDRESS_WEIGHT * (
                    tfa / (1 + text.NAME_B * (len(ad) / avg_addr - 1))
                )
                s += w / (text.K1_BM25F + w) * idf
            if s:
                scores[d] = scores.get(d, 0.0) + s
    return scores


@pytest.mark.usefixtures("ray_session")
class _FrameDataset:
    """Ray-free stand-in for the two Dataset calls the scorers make, so
    their numpy warnings are raised in this process."""

    def __init__(self, df):
        self.df = df

    def map_batches(self, fn, batch_format="pandas"):
        return _FrameDataset(fn(self.df))

    def to_pandas(self):
        return self.df


class TestScoring:
    def test_bm25f_no_address_tokens_no_warning(self):
        """No doc longer than name_len tokens (corpus avg_addr == 0):
        both BM25F scorers skip the address term instead of dividing
        0 by 0, and still equal the brute force."""
        import warnings

        short = pd.DataFrame({
            "doc_id": np.arange(7, dtype=np.int64),
            "text": ["hash", "hash merge", "merge scan hash", "scan",
                     "other words", "no match", "filler"],
        })
        terms = ["hash", "scan"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            one = text.bm25f_score(_FrameDataset(short), terms).to_pandas()
            multi = text.score_multi(_FrameDataset(short),
                                     {"q": terms}).to_pandas()
        want = brute_bm25f(short, terms)
        assert set(one["doc_id"]) == set(want) == set(multi["doc_id"])
        got = one.set_index("doc_id")["score"]
        got_m = multi.set_index("doc_id")["score"]
        for d, s in want.items():
            assert abs(got[d] - s) < 1e-9
            assert got_m[d] == got[d]

    def test_bm25f_matches_brute(self, docs):
        import ray.data as rd

        terms = ["hash", "merge", "scan"]
        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got = text.bm25f_score(ds, terms).to_pandas().set_index("doc_id")["score"]
        want = brute_bm25f(docs, terms)
        assert set(got.index) == set(want)
        for d, s in want.items():
            assert abs(got[d] - s) < 1e-9

    def test_top_k_pagination(self, docs):
        import ray.data as rd

        terms = ["hash", "merge"]
        ds = rd.read_parquet(f"{SF}/documents.parquet")
        scored = text.bm25f_score(ds, terms)
        full = text.top_k(scored, k=10, offset=0)
        page2 = text.top_k(text.bm25f_score(ds, terms), k=5, offset=5)
        pd.testing.assert_frame_equal(
            full.iloc[5:10][["doc_id", "score"]].reset_index(drop=True),
            page2[["doc_id", "score"]].reset_index(drop=True),
        )

    def test_bm25plus_and_tfidf_run(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        plus = text.score_multi(ds, {0: ["hash", "scan"]},
                                scoring="bm25plus").to_pandas()
        tfidf = text.score_multi(ds, {0: ["hash", "scan", "hash"]},
                                 scoring="tfidf").to_pandas()
        assert len(plus) > 0 and len(tfidf) > 0
        # docs containing both terms outrank single-term docs on average
        toks = text.tokenize_series(docs["text"])
        both = {d for d, ws in zip(docs["doc_id"], toks) if "hash" in ws and "scan" in ws}
        one = {d for d, ws in zip(docs["doc_id"], toks) if ("hash" in ws) ^ ("scan" in ws)}
        if both and one:
            pb = plus.set_index("doc_id")["score"]
            assert pb[list(both)].mean() > pb[list(one)].mean()


@pytest.mark.usefixtures("ray_session")
class TestNgrams:
    def test_bigram_counts_match_brute(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got = text.ngram_counts(ds, 2).to_pandas().set_index("ngram")["n"]
        want = {}
        for ws in text.tokenize_series(docs["text"]):
            seq = [text.START_TOKEN] * 2 + list(ws) + [text.END_TOKEN]
            for i in range(len(seq) - 1):
                g = f"{seq[i]} {seq[i + 1]}"
                want[g] = want.get(g, 0) + 1
        assert got.to_dict() == want

    def test_unigram_padding_per_reference(self, docs):
        """n start tokens + 1 end token (ngram_lm.go:373-384): unigrams
        get 1 <s> and 1 </s> per doc."""
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got = text.ngram_counts(ds, 1).to_pandas().set_index("ngram")["n"]
        assert got[text.START_TOKEN] == len(docs)
        assert got[text.END_TOKEN] == len(docs)

    def test_vocab_threshold(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got = set(text.vocab_with_min_freq(ds, 2).to_pandas()["term"])
        counts = {}
        for ws in text.tokenize_series(docs["text"]):
            for w in ws:
                counts[w] = counts.get(w, 0) + 1
        assert got == {w for w, c in counts.items() if c >= 2}


@pytest.mark.usefixtures("ray_session")
class TestAnalysis:
    def test_quality_metrics(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        got = (
            ds.map_batches(text.quality_metrics, batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
        )
        assert (got["n_chars"] == docs.set_index("doc_id")["n_chars"]).all()
        assert ((got["punct_ratio"] >= 0) & (got["punct_ratio"] <= 1)).all()
        assert ((got["stopword_ratio"] >= 0) & (got["stopword_ratio"] <= 1)).all()

    def test_lang_id_and_token_counts(self, docs):
        import ray.data as rd

        ds = rd.read_parquet(f"{SF}/documents.parquet")
        li = ds.map_batches(text.lang_id, batch_format="pyarrow").to_pandas()
        assert len(li) == len(docs)
        assert set(li["pred_lang"]) <= set(text.STOPWORDS) | {"unknown"}
        tc = (
            ds.map_batches(text.token_counts, batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
        )
        ws = docs.set_index("doc_id")["text"].str.split().str.len()
        assert (tc["ws_tokens"] == ws).all()

    def test_chunk_windows_edge_cases(self):
        """Overlap chunking vs a per-doc loop oracle: empty doc (no
        chunks), doc shorter than one window, exact-multiple length,
        and a tail shorter than stride."""
        b = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": ["", "a b c", " ".join(f"w{i}" for i in range(8)),
                     " ".join(f"w{i}" for i in range(11))],
        })
        got = text.chunk_windows(b, size=4, stride=3)
        want = []
        for _, row in b.iterrows():
            n = len(row["text"].split())
            start = 0
            while start < n:
                want.append((row["doc_id"], start // 3, start,
                             min(4, n - start)))
                start += 3
        assert (list(map(tuple, got.to_numpy())) == want)

    def test_repetition_signals_edge_cases(self):
        """Hand-computed Gopher repetition signals: empty doc,
        single-token, all-identical, and a repeated-bigram doc —
        vectorized batch path vs per-doc Counter oracle."""
        from collections import Counter

        b = pd.DataFrame({
            "doc_id": [0, 1, 2, 3, 4],
            "text": ["", "word", "spam spam spam spam",
                     "a b a b a b c", "one two three four"],
        })
        got = text.repetition_signals(pa.Table.from_pandas(b)) \
            .to_pandas().set_index("doc_id")
        for _, row in b.iterrows():
            ws = row["text"].lower().split()
            g = got.loc[row["doc_id"]]
            assert g["n_tokens"] == len(ws)
            assert g["n_distinct"] == len(set(ws))
            assert g["top_unigram_n"] == (max(Counter(ws).values())
                                          if ws else 0)
            bgs = [f"{a} {b2}" for a, b2 in zip(ws, ws[1:])]
            assert g["n_bigrams"] == max(len(ws) - 1, 0)
            assert g["top_bigram_n"] == (max(Counter(bgs).values())
                                         if bgs else 0)


@pytest.mark.usefixtures("ray_session")
class TestHLLSketch:
    def test_approx_count_distinct_within_bound(self):
        """Mergeable-HLL distinct counts within ~3x the 1.04/sqrt(m)
        standard error of the exact answers, per group."""
        import ray.data as rd

        from go_osm_search_ray.stages.sketch import approx_count_distinct

        ds = rd.read_parquet(f"{SF}/events.parquet",
                             columns=["event_type", "user_id"]).repartition(4)
        got = approx_count_distinct(ds, ["event_type"], "user_id",
                                    p=12).to_pandas()
        import duckdb

        exact = duckdb.sql(
            f"SELECT event_type, COUNT(DISTINCT user_id) AS n "
            f"FROM read_parquet('{SF}/events.parquet') GROUP BY 1"
        ).df().set_index("event_type")["n"]
        assert set(got["event_type"]) == set(exact.index)
        rel_bound = 3 * 1.04 / np.sqrt(4096)
        for r in got.itertuples():
            e = exact[r.event_type]
            assert abs(r.approx_distinct - e) <= max(2, rel_bound * e)


class TestBloom:
    def test_no_false_negatives_and_fpp(self):
        from go_osm_search_ray.stages.sketch import (
            bloom_contains, bloom_params, bloom_set)

        rng = np.random.default_rng(7)
        keys = rng.choice(10_000_000, 20_000, replace=False).astype(np.uint64)
        m_bits, k = bloom_params(len(keys), fpp=0.002)
        bits = np.zeros(m_bits // 64, dtype=np.uint64)
        bloom_set(bits, keys, k)
        assert bloom_contains(bits, keys, k).all()  # zero false negatives
        probe = (np.arange(50_000, dtype=np.uint64)
                 + np.uint64(20_000_000))          # disjoint from keys
        fp = bloom_contains(bits, probe, k).mean()
        assert fp < 0.01                            # ~5x slack on 0.002

    def test_partial_merge_equals_single_build(self):
        from go_osm_search_ray.stages.sketch import bloom_params, bloom_set

        keys = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
        m_bits, k = bloom_params(1000)
        one = np.zeros(m_bits // 64, dtype=np.uint64)
        bloom_set(one, keys, k)
        merged = np.zeros(m_bits // 64, dtype=np.uint64)
        for part in np.array_split(keys, 7):
            p = np.zeros(m_bits // 64, dtype=np.uint64)
            bloom_set(p, part, k)
            merged |= p
        assert np.array_equal(one, merged)


@pytest.mark.usefixtures("ray_session")
class TestBloomSemiJoin:
    def test_exact_under_forced_false_positives(self, monkeypatch):
        import ray.data as rd

        from go_osm_search_ray.stages import agg
        from go_osm_search_ray.stages.sketch import bloom_semi_join

        # tiny hint -> tiny undersized bitmap -> many Bloom false
        # positives; the verify join must still make the result exact
        keys = pd.DataFrame({"k": np.arange(0, 500, 5, dtype=np.int64)})
        probe = pd.DataFrame({
            "pk": np.arange(2000, dtype=np.int64) % 700,
            "v": np.arange(2000, dtype=np.int64),
        })
        want = probe[probe["pk"].isin(set(keys["k"]))]
        # agg.BROADCAST_KEYS_MAX=0 pins the Bloom + verify-JOIN path
        # (the unbounded-keys design); the default exercises the
        # adaptive broadcast-exact path — both must be exact
        for keys_max in (0, 4_000_000):
            monkeypatch.setattr(agg, "BROADCAST_KEYS_MAX", keys_max)
            out = bloom_semi_join(
                rd.from_pandas(probe).repartition(4),
                rd.from_pandas(keys).repartition(2),
                "pk", "k", n_keys_hint=4, fpp=0.5,
            ).to_pandas()
            assert sorted(out["v"]) == sorted(want["v"])
            assert list(out.columns) == ["pk", "v"]  # probe cols kept

    def test_distinct_key_names(self):
        import ray.data as rd

        from go_osm_search_ray.stages.sketch import bloom_semi_join

        keys = pd.DataFrame({"k": np.array([1, 3], dtype=np.int64)})
        probe = pd.DataFrame({"pk": np.array([1, 2, 3, 4], dtype=np.int64)})
        out = bloom_semi_join(rd.from_pandas(probe), rd.from_pandas(keys),
                              "pk", "k", n_keys_hint=2).to_pandas()
        assert sorted(out["pk"]) == [1, 3]


class TestCountMin:
    def test_never_underestimates_and_tight_for_heavy(self):
        from go_osm_search_ray.stages.sketch import (
            _term_hash, cm_add, cm_estimate)

        rng = np.random.default_rng(3)
        terms = pd.Series([f"t{i}" for i in range(5000)])
        counts = rng.integers(1, 20, size=5000)
        counts[:5] = [900, 800, 700, 600, 500]       # planted heavies
        cm = np.zeros((4, 1 << 14), dtype=np.int64)
        h = _term_hash(terms)
        cm_add(cm, h, counts)
        est = cm_estimate(cm, h)
        assert (est >= counts).all()                  # one-sided error
        # heavy estimates within the expected additive slack (2N/w)
        slack = 2 * counts.sum() / (1 << 14)
        assert (est[:5] - counts[:5] <= 10 * slack + 1).all()

    def test_merge_is_sum(self):
        from go_osm_search_ray.stages.sketch import _term_hash, cm_add

        terms = pd.Series(["a", "b", "c", "a"])
        h = _term_hash(terms)
        one = np.zeros((2, 64), dtype=np.int64)
        cm_add(one, h, np.array([1, 2, 3, 4]))
        p1 = np.zeros((2, 64), dtype=np.int64)
        p2 = np.zeros((2, 64), dtype=np.int64)
        cm_add(p1, h[:2], np.array([1, 2]))
        cm_add(p2, h[2:], np.array([3, 4]))
        assert np.array_equal(one, p1 + p2)


@pytest.mark.usefixtures("ray_session")
class TestHeavyHitters:
    def test_exact_against_brute_force(self):
        import ray.data as rd

        from go_osm_search_ray.stages.sketch import heavy_hitters

        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(200)]
        weights = np.ones(200)
        weights[:8] = 400                             # planted heavies
        weights /= weights.sum()
        docs = [" ".join(rng.choice(vocab, size=30, p=weights))
                for _ in range(300)]
        df = pd.DataFrame({"text": docs})
        # tiny sketch (w=256) -> real CM collisions; result must stay exact
        out = heavy_hitters(rd.from_pandas(df).repartition(5), "text",
                            threshold=120, w=256, d=4).to_pandas()
        exact = (pd.Series(" ".join(docs).split()).value_counts())
        want = exact[exact >= 120]
        assert sorted(out["term"]) == sorted(want.index)
        got = dict(zip(out["term"], out["n"]))
        assert all(got[t] == want[t] for t in want.index)


class TestHashFeatures:
    def test_matches_brute(self, ray_session):
        import hashlib

        import numpy as np
        import pandas as pd

        from go_osm_search_ray.stages import text as T

        df = pd.DataFrame({
            "doc_id": np.arange(4, dtype=np.int64),
            "text": ["hash join scan hash", "merge sort merge",
                     "", "a b c a b a"],
        })
        out = T.hash_features(df)
        # brute per doc
        for d, txt in zip(df["doc_id"], df["text"]):
            acc = {}
            for w in T.tokenize_series(pd.Series([txt]))[0]:
                h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8],
                                   "little")
                b = h % 32
                s = 1 if (h // 32) % 2 == 1 else -1
                acc[b] = acc.get(b, 0) + s
            acc = {b: v for b, v in acc.items() if v != 0}
            sub = out[out["doc_id"] == d]
            assert dict(zip(sub["bucket"], sub["feat"])) == acc
