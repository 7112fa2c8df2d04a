"""Index artifact build + load round-trip (reference indexer CLI, §3.1)."""

import os

import numpy as np
import pandas as pd
import pytest

from go_osm_search_ray import synth
from go_osm_search_ray.pipelines import indexer
from go_osm_search_ray.stages import text

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
class TestIndexer:
    def test_build_and_load(self, tmp_path):
        import ray.data as rd

        out = str(tmp_path / "idx")
        factory = lambda: rd.read_parquet(f"{SF}/documents.parquet",
                                          columns=["doc_id", "text"])
        m = indexer.build_index(factory, out,
                                spell_error_lines=synth.spell_errors_lines())
        assert set(m["stages"]) == {"postings", "doc_stats", "vocab", "ngrams",
                                    "meta"}
        assert all(v >= 0 for v in m["stages"].values())
        assert os.path.exists(os.path.join(out, "_manifest.json"))

        idx = indexer.LoadedIndex(out)
        assert idx.meta["docs_count"] == 500

        # stage-level resume: a full manifest skips every stage
        # (timings carried over verbatim), and a manifest missing the
        # tail stages rebuilds ONLY those (simulated mid-run crash)
        m2 = indexer.build_index(factory, out, resume=True,
                                 spell_error_lines=synth.spell_errors_lines())
        assert m2["stages"] == m["stages"]
        import json

        with open(os.path.join(out, "_manifest.json")) as fh:
            man = json.load(fh)
        for k in ("ngrams", "meta"):
            man["stages"].pop(k)
        with open(os.path.join(out, "_manifest.json"), "w") as fh:
            json.dump(man, fh)
        m3 = indexer.build_index(factory, out, resume=True,
                                 spell_error_lines=synth.spell_errors_lines())
        assert m3["stages"]["postings"] == m["stages"]["postings"]  # skipped
        assert indexer.LoadedIndex(out).meta["docs_count"] == 500  # rebuilt ok

        # J4 semi-join: postings for specific terms with filter pushdown
        p = idx.postings(["hash", "scan"])
        assert set(p["term"]) == {"hash", "scan"}
        # postings agree with a fresh distributed computation
        df = text.term_df(factory()).to_pandas().set_index("term")["df"]
        for r in p.itertuples():
            assert len(r.postings) == df[r.term] == r.df
            assert list(r.postings) == sorted(r.postings)

        # corrector rebuilt from artifacts corrects a typo
        got = idx.corrector.correct(["hsah"])
        assert got == ["hash"]

        # S12 doc hydration with filter pushdown
        docs = idx.get_docs(f"{SF}/documents.parquet", [3, 7])
        assert set(docs["doc_id"]) == {3, 7}

    def test_resume_missing_ngrams_rewrites_vocab(self, tmp_path):
        """vocab and ngrams come from one count scan: a manifest that
        lacks only `ngrams` rebuilds both, so a stale vocab.parquet is
        replaced and the two stay consistent."""
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        out = str(tmp_path / "idx3")
        factory = lambda: rd.read_parquet(f"{SF}/documents.parquet",
                                          columns=["doc_id", "text"])

        def artifacts():
            v = pq.read_table(os.path.join(out, "vocab.parquet")).to_pandas()
            ng = {n: dict(zip(*pq.read_table(
                os.path.join(out, f"ngrams_{n}.parquet"))
                .to_pydict().values())) for n in range(1, 5)}
            return dict(zip(v["term"], v["freq"])), ng

        m = indexer.build_index(factory, out)
        vocab0, ng0 = artifacts()
        mpath = os.path.join(out, "_manifest.json")
        with open(mpath) as fh:
            man = json.load(fh)
        man["stages"].pop("ngrams")
        with open(mpath, "w") as fh:
            json.dump(man, fh)
        pq.write_table(pa.table({"term": ["stale"], "freq": [9]}),
                       os.path.join(out, "vocab.parquet"))
        for n in range(1, 5):
            os.remove(os.path.join(out, f"ngrams_{n}.parquet"))

        m2 = indexer.build_index(factory, out, resume=True)
        assert set(m2["stages"]) == {"postings", "doc_stats", "vocab",
                                     "ngrams", "meta"}
        assert m2["stages"]["postings"] == m["stages"]["postings"]
        vocab, ng = artifacts()
        assert vocab == vocab0 and ng == ng0
        # consistent: every vocab term's unigram count is its freq
        assert all(ng[1][t] == f for t, f in vocab.items())
        with open(os.path.join(out, "meta.json")) as fh:
            assert json.load(fh)["total_words"] == sum(ng[1].values())

    def test_meta_stats(self, tmp_path):
        import ray.data as rd

        out = str(tmp_path / "idx2")
        factory = lambda: rd.read_parquet(f"{SF}/documents.parquet",
                                          columns=["doc_id", "text"])
        indexer.build_index(factory, out)
        idx = indexer.LoadedIndex(out)
        docs = pd.read_parquet(f"{SF}/documents.parquet")
        toks = text.tokenize_series(docs["text"])
        assert abs(idx.meta["avg_doc_len"] - toks.str.len().mean()) < 1e-9


    def test_empty_corpus_builds_loadable_index(self, tmp_path):
        """Ray writes no file for an empty Dataset: the index still
        loads, with docs_count 0, empty typed postings and a corrector
        that search can use."""
        import ray.data as rd

        from go_osm_search_ray.pipelines import search

        out = str(tmp_path / "idx_empty")
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                              "text": pd.Series([], dtype=object)})
        factory = lambda: rd.from_pandas(empty)
        m = indexer.build_index(factory, out)
        assert set(m["stages"]) == {"postings", "doc_stats", "vocab", "ngrams",
                                    "meta"}
        idx = indexer.LoadedIndex(out)
        assert idx.meta["docs_count"] == 0
        assert idx.meta["avg_doc_len"] == 0.0
        p = idx.postings(["jalan"])
        assert len(p) == 0 and list(p.columns) == ["term", "postings", "df"]
        qs = pd.DataFrame({"query_id": [0], "query": ["jalan"]})
        page = search.full_text_search(factory, qs, idx.corrector)
        assert len(page) == 0

    def test_null_text_reads_as_empty(self, tmp_path):
        """A corpus with one null text gives the same index artifacts,
        search page and quality rows as that corpus with '' in its
        place."""
        import glob
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        from go_osm_search_ray.pipelines import search

        docs = pd.read_parquet(f"{SF}/documents.parquet",
                               columns=["doc_id", "text"]).iloc[:80]
        qs = pd.DataFrame({"query_id": [0, 1],
                           "query": [" ".join(docs["text"].iloc[3].split()[:2]),
                                     docs["text"].iloc[9].split()[0]]})

        def run(fill):
            d = docs.copy()
            d.loc[d.index[5], "text"] = fill
            factory = lambda: rd.from_pandas(d)
            out = str(tmp_path / f"idx_{fill is None}")
            indexer.build_index(factory, out)
            arts = {}
            for f in sorted(glob.glob(os.path.join(out, "*.parquet"))):
                arts[os.path.basename(f)] = pq.read_table(f).to_pandas() \
                    .sort_values(["ngram" if "ngram" in f else "term"]) \
                    .reset_index(drop=True)
            arts["postings"] = (
                pq.read_table(os.path.join(out, "postings")).to_pandas()
                .assign(postings=lambda p: p["postings"].map(list))
                .sort_values("term").reset_index(drop=True))
            arts["doc_stats"] = (
                pq.read_table(os.path.join(out, "doc_stats")).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))
            with open(os.path.join(out, "meta.json")) as fh:
                arts["meta"] = json.load(fh)
            arts["page"] = search.full_text_search(
                factory, qs, indexer.LoadedIndex(out).corrector)
            tb = pa.Table.from_pandas(d, preserve_index=False)
            arts["quality"] = text.quality_metrics(tb).to_pandas()
            arts["signals"] = text.quality_signals(tb).to_pandas()
            return arts

        got, want = run(None), run("")
        assert len(want["page"]) > 0
        assert got.keys() == want.keys()
        for k in want:
            if isinstance(want[k], pd.DataFrame):
                pd.testing.assert_frame_equal(got[k], want[k], obj=k)
            else:
                assert got[k] == want[k], k


def test_merge_postings_incremental_equals_batch(ray_session):
    import numpy as np
    import pandas as pd
    import ray

    from go_osm_search_ray.pipelines.indexer import merge_postings
    from go_osm_search_ray.stages import text as T

    df = pd.DataFrame({
        "doc_id": np.arange(10, dtype=np.int64),
        "text": [f"alpha beta doc{i} shared token" for i in range(10)],
    })
    old = ray.data.from_pandas(df[df.doc_id % 3 != 0]).repartition(2)
    new = ray.data.from_pandas(df[df.doc_id % 3 == 0]).repartition(2)
    merged = merge_postings(T.postings_lists(old), new).to_pandas()
    full = T.postings_lists(ray.data.from_pandas(df)).to_pandas()
    m = {r["term"]: list(r["postings"]) for _, r in merged.iterrows()}
    f = {r["term"]: list(r["postings"]) for _, r in full.iterrows()}
    assert m == f
    assert (merged.set_index("term")["df"]
            == merged.set_index("term")["postings"].map(len)).all()
