"""`build_index`'s one map pass gives the artifacts of the stage
functions, the manifest records the pass, the factory is called once,
and a resume after a crash between a write and its manifest record
rewrites an artifact instead of appending to it."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from go_osm_search_ray import synth
from go_osm_search_ray.pipelines import indexer
from go_osm_search_ray.stages import agg, spell, text

SF = "/root/testdata/sf0.001"


def _corpus(name: str) -> pd.DataFrame:
    if name == "empty":
        return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                             "text": pd.Series([], dtype=object)})
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    if name == "null_and_blank":
        docs = docs.iloc[:60].copy()
        docs.loc[docs.index[4], "text"] = None
        docs.loc[docs.index[9], "text"] = ""
    return docs


class _Factory:
    """A docs Dataset factory that counts its calls; 4 input blocks."""

    def __init__(self, docs: pd.DataFrame):
        self.docs, self.calls = docs, 0

    def __call__(self):
        import ray.data as rd

        self.calls += 1
        step = max(1, -(-len(self.docs) // 4))
        return rd.from_pandas([self.docs.iloc[i:i + step]
                               for i in range(0, max(len(self.docs), 1), step)])


def _artifacts(out: str) -> dict:
    post = pq.read_table(os.path.join(out, "postings")).to_pandas()
    post["postings"] = post["postings"].map(lambda p: [int(i) for i in p])
    arts = {
        "postings": post.sort_values("term").reset_index(drop=True),
        "doc_stats": pq.read_table(os.path.join(out, "doc_stats")).to_pandas()
        .sort_values("doc_id").reset_index(drop=True),
        "vocab": pq.read_table(os.path.join(out, "vocab.parquet")).to_pandas(),
    }
    for n in range(1, text.NGRAM_ORDER + 1):
        t = pq.read_table(os.path.join(out, f"ngrams_{n}.parquet"))
        arts[f"ngrams_{n}"] = dict(zip(t["ngram"].to_pylist(),
                                       t["n"].to_pylist()))
    with open(os.path.join(out, "meta.json")) as fh:
        arts["meta"] = json.load(fh)
    return arts


def _stage_functions(factory) -> dict:
    """The same artifacts from the separate stage functions."""
    post = agg.collect(text.postings_lists(factory()))
    stats = agg.collect(factory().map_batches(text.doc_lengths,
                                              batch_format="pandas"))
    vocab, lm = spell.vocab_and_lm(factory(), 2)
    want = {"vocab": vocab,
            "postings": post.assign(postings=post["postings"].map(
                lambda p: [int(i) for i in p])) if len(post) else post,
            "doc_stats": stats}
    for n in range(1, text.NGRAM_ORDER + 1):
        want[f"ngrams_{n}"] = lm.counts[n]
    want["total_words"] = lm.total
    return want


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("corpus", ["sf0.001", "null_and_blank", "empty"])
def test_pass_equals_stage_functions(tmp_path, corpus):
    docs = _corpus(corpus)
    want = _stage_functions(_Factory(docs))
    factory = _Factory(docs)
    out = str(tmp_path / "idx")
    m = indexer.build_index(factory, out,
                            spell_error_lines=synth.spell_errors_lines())
    assert factory.calls == 1
    assert set(m["stages"]) == {"postings", "doc_stats", "vocab",
                                "ngrams", "meta"}
    arts = _artifacts(out)
    rec = m["index_pass"]
    assert rec["seconds"] >= 0
    assert (rec["partial_rows"] > 0) == (len(docs) > 0)
    assert rec["rows"] == {
        "postings": len(arts["postings"]),
        "doc_stats": len(docs), "vocab": len(arts["vocab"]),
        "ngrams": {str(n): len(arts[f"ngrams_{n}"])
                   for n in range(1, text.NGRAM_ORDER + 1)}}
    with open(os.path.join(out, "_manifest.json")) as fh:
        assert json.load(fh)["index_pass"] == rec

    for k in ("postings", "doc_stats", "vocab"):
        w = want[k]
        if len(w) == 0:  # an empty stage result may have no columns
            assert len(arts[k]) == 0, k
            continue
        w = w.sort_values(w.columns[0]).reset_index(drop=True)
        pd.testing.assert_frame_equal(arts[k], w, check_dtype=False, obj=k)
    for n in range(1, text.NGRAM_ORDER + 1):
        assert arts[f"ngrams_{n}"] == want[f"ngrams_{n}"], n
    n_tok = arts["doc_stats"]["n_tokens"]
    assert arts["meta"] == {
        "docs_count": len(docs),
        "avg_doc_len": float(n_tok.mean()) if len(docs) else 0.0,
        "total_words": want["total_words"],
        "spell_errors": synth.spell_errors_lines()}


@pytest.mark.usefixtures("ray_session")
def test_resume_after_crash_rewrites_not_appends(tmp_path):
    """A crash after the writes of postings and doc_stats but before
    their manifest records: resume reruns the pass once, replaces those
    two artifacts and meta, and keeps the recorded vocab and ngrams."""
    docs = pd.DataFrame({"doc_id": np.arange(40, dtype=np.int64),
                         "text": [f"jalan raya {i % 7} blok {i}"
                                  for i in range(40)]})
    out = str(tmp_path / "idx")
    factory = _Factory(docs)
    m = indexer.build_index(factory, out)
    before = _artifacts(out)

    mpath = os.path.join(out, "_manifest.json")
    with open(mpath) as fh:
        man = json.load(fh)
    for k in ("postings", "doc_stats", "meta"):
        man["stages"].pop(k)
    with open(mpath, "w") as fh:
        json.dump(man, fh)

    m2 = indexer.build_index(factory, out, resume=True)
    assert factory.calls == 2
    assert {k: m2["stages"][k] for k in ("vocab", "ngrams")} == \
        {k: m["stages"][k] for k in ("vocab", "ngrams")}
    assert set(m2["index_pass"]["rows"]) == {"postings", "doc_stats"}
    after = _artifacts(out)
    for k in ("postings", "doc_stats", "vocab"):
        pd.testing.assert_frame_equal(after[k], before[k], obj=k)
    assert after["meta"]["docs_count"] == 40
    idx = indexer.LoadedIndex(out)
    p = idx.postings(["jalan"])
    assert len(p) == 1 and list(p["postings"][0]) == list(range(40))

    # everything recorded: nothing is read again
    indexer.build_index(factory, out, resume=True)
    assert factory.calls == 2
