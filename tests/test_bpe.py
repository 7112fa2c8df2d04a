"""BPE subword tokenizer: distributed trainer == local reference
trainer (exact-integer determinism), encode semantics (left-to-right
non-overlapping merge application), and DuckDB-replace equivalence."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from go_osm_search_ray.stages import bpe, text


def _docs():
    rows = [
        "the cat sat on the mat",
        "the cats scattered",
        "banana bandana cabana",
        "catalog catalog catalog data data",
        "a aa aaa aaaa",
    ]
    return pd.DataFrame({"doc_id": np.arange(len(rows), dtype=np.int64),
                         "text": rows})


def _local_wc(df):
    flat = pd.Series([w for ws in text.tokenize_series(df["text"])
                      for w in ws])
    return flat.value_counts().to_dict()


def test_distributed_trainer_equals_local(ray_session, monkeypatch):
    import ray

    df = _docs()
    ds = ray.data.from_pandas(df).repartition(4)
    exp = bpe.train_words(_local_wc(df), n_merges=8)
    # the default LOCAL_VOCAB_MAX picks the driver-side loop here
    assert bpe.train(ds, n_merges=8) == exp
    # LOCAL_VOCAB_MAX=0 pins the distributed per-iteration loop
    monkeypatch.setattr(bpe, "LOCAL_VOCAB_MAX", 0)
    got = bpe.train(ds, n_merges=8)
    assert got == exp
    assert len(got) == 8


def test_merge_application_non_overlapping():
    # 'aaaa' with merge (a,a) must become [aa, aa], not [aa, a, a]
    s = bpe.symbolize_series(pd.Series(["aaaa", "aaa"]))
    out = s.str.replace("|a| |a|", "|aa|", regex=False)
    assert out[0] == "|aa| |aa|"
    assert out[1] == "|aa| |a|"
    # DuckDB replace() implements the same convention
    con = duckdb.connect()
    for raw, enc in zip(["aaaa", "aaa"], out):
        got = con.sql(
            "SELECT replace(trim(regexp_replace(?, '(.)', '|\\1| ', 'g')),"
            " '|a| |a|', '|aa|')", params=[raw]).fetchone()[0]
        assert got == enc


def test_encode_docs_counts(ray_session):
    import ray

    df = _docs()
    ds = ray.data.from_pandas(df)
    merges = bpe.train_words(_local_wc(df), n_merges=8)
    out = bpe.encode_docs(ds, merges).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    toks = text.tokenize_series(df["text"])
    assert list(out["n_words"]) == [len(t) for t in toks]
    assert list(out["n_chars"]) == [sum(len(w) for w in t) for t in toks]

    def enc_n(w):
        s = " ".join(f"|{c}|" for c in w)
        for a, b in merges:
            s = s.replace(f"|{a}| |{b}|", f"|{a}{b}|")
        return s.count(" ") + 1

    assert list(out["n_subwords"]) == [sum(enc_n(w) for w in t)
                                       for t in toks]
    # merges must actually compress something
    assert (out["n_subwords"] < out["n_chars"]).any()
