"""Byte-pair-encoding subword tokenizer (Sennrich et al. 2016),
Ray-Data-first.

The reference tokenizes with a stemmer library (indexer.go:787 via
sastrawi) — a fixed, pre-trained vocabulary.  A 100-TB training-data
pipeline instead LEARNS its subword vocabulary from the corpus; this
module implements that as distributed iterations over the UNIQUE-WORD
table (never the corpus):

  train   word counts = one two_phase_agg over the corpus (the only
          full scan); then per merge iteration: one vectorized
          pair-count partial per block of the word table + bucket-hash
          combine + top-1 fan-in.  The word table is materialized per
          iteration so iteration k does not re-execute the k-1 prior
          replaces (lineage re-execution is quadratic otherwise).
  encode  a pure map stage: per batch, encode each UNIQUE word once
          (vectorized str.replace chain over the learned merges) and
          aggregate subword counts per document.

Symbol sequences are sentinel-wrapped ("|c| |a| |t|") so a merge
replace can never match inside a longer symbol and adjacent matches
never share characters — which makes Python str.replace, pandas
str.replace(regex=False) and DuckDB replace() all implement the same
left-to-right non-overlapping merge application (the classic BPE
convention).  Tokens are [a-z0-9]+ (text.tokenize_series), so '|' is
safe.

Determinism: pair counts are exact integers; the winning pair is
(count DESC, pair ASC) — so the distributed trainer and the local
reference trainer (train_words, used by the SQL-oracle generator and
tests) produce identical merge lists.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from . import text
from .agg import two_phase_agg

SENTINEL = "|"

# unique words up to which train() runs the merge loop on the driver
LOCAL_VOCAB_MAX = 500_000


def symbolize_series(words: pd.Series) -> pd.Series:
    """word -> '|c| |a| |t|' (same construction as the SQL mirror:
    regexp_replace(w, '(.)', '|\\1| ', 'g') + trim)."""
    return words.str.replace(r"(.)", r"|\1| ", regex=True).str.strip()


def word_counts(ds, text_col: str = "text"):
    """Corpus -> (word, cnt) Dataset; the one full scan of training."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        toks = text.tokenize_series(b[text_col])
        flat = [w for ws in toks for w in ws]
        if not flat:
            return pd.DataFrame({"word": pd.Series([], dtype=str),
                                 "cnt": pd.Series([], dtype=np.int64)})
        s = pd.Series(flat)
        vc = s.value_counts()
        return pd.DataFrame({"word": vc.index.to_numpy(),
                             "cnt": vc.to_numpy(np.int64)})

    return two_phase_agg(ds, partial, ["word"], ["cnt"])


def _pair_partial(b: pd.DataFrame) -> pd.DataFrame:
    """(seq, cnt) block -> per-block partial pair counts, vectorized
    explode + same-word adjacency mask."""
    if len(b) == 0:
        return pd.DataFrame({"a": pd.Series([], dtype=str),
                             "b": pd.Series([], dtype=str),
                             "cnt": pd.Series([], dtype=np.int64)})
    x = b[["seq", "cnt"]].reset_index(drop=True)
    x["sym"] = x["seq"].str.split(" ")
    e = x[["sym", "cnt"]].explode("sym")
    sym = e["sym"].to_numpy()
    idx = e.index.to_numpy()
    cnt = e["cnt"].to_numpy(np.int64)
    if len(sym) < 2:
        return pd.DataFrame({"a": pd.Series([], dtype=str),
                             "b": pd.Series([], dtype=str),
                             "cnt": pd.Series([], dtype=np.int64)})
    same = idx[1:] == idx[:-1]
    pairs = pd.DataFrame({"a": sym[:-1][same], "b": sym[1:][same],
                          "cnt": cnt[1:][same]})
    # bare symbols (sentinels are re-added when building the replace)
    pairs["a"] = pairs["a"].str.strip(SENTINEL)
    pairs["b"] = pairs["b"].str.strip(SENTINEL)
    return pairs.groupby(["a", "b"], sort=False, as_index=False)["cnt"].sum()


def _top1(pc_ds) -> tuple[str, str, int] | None:
    """The single best (count DESC, a ASC, b ASC) pair of the bucketed
    pair counts: one tiny row per block reaches the driver."""
    from .agg import driver_page

    top = driver_page(pc_ds, ["cnt", "a", "b"], 1, descending=("cnt",))
    if len(top) == 0:
        return None
    r = top.iloc[0]
    return str(r["a"]), str(r["b"]), int(r["cnt"])


def train(ds, n_merges: int = 12, min_count: int = 2,
          text_col: str = "text") -> list[tuple[str, str]]:
    """BPE training; returns the ordered merge list.

    SIZE-ADAPTIVE, the repo's connected-components pattern — the
    unique-word table (already reduced by the distributed word-count
    pass) is counted; up to LOCAL_VOCAB_MAX words it is collected once
    and trained driver-side (each distributed iteration costs ~2 s of
    fixed orchestration that dwarfs a small vocab's compute), above it
    the distributed per-iteration loop runs.  Both paths are
    exact-integer deterministic and produce identical merges
    (pytest-pinned)."""
    words = word_counts(ds, text_col).materialize()
    if words.count() <= LOCAL_VOCAB_MAX:
        pdf = words.to_pandas()
        return train_words(dict(zip(pdf["word"], pdf["cnt"].astype(int))),
                           n_merges=n_merges, min_count=min_count)
    cur = words.map_batches(
        lambda b: pd.DataFrame({"seq": symbolize_series(b["word"]),
                                "cnt": b["cnt"].to_numpy(np.int64)}),
        batch_format="pandas",
    ).materialize()
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        best = _top1(two_phase_agg(cur, _pair_partial, ["a", "b"], ["cnt"]))
        if best is None or best[2] < min_count:
            break
        a, b, _ = best
        merges.append((a, b))
        pat, rep = f"|{a}| |{b}|", f"|{a}{b}|"
        cur = cur.map_batches(
            lambda x, pat=pat, rep=rep: x.assign(
                seq=x["seq"].str.replace(pat, rep, regex=False)),
            batch_format="pandas",
        ).materialize()
    return merges


def train_words(word_cnt: dict[str, int], n_merges: int = 12,
                min_count: int = 2) -> list[tuple[str, str]]:
    """Local reference trainer (identical semantics; exact integer
    counts + (count DESC, pair ASC) selection make it bit-equal to
    train()).  Used by the SQL-oracle generator and tests."""
    seqs = {w: " ".join(f"|{c}|" for c in w) for w in word_cnt}
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, seq in seqs.items():
            syms = seq.split(" ")
            c = word_cnt[w]
            for i in range(len(syms) - 1):
                k = (syms[i].strip("|"), syms[i + 1].strip("|"))
                counts[k] = counts.get(k, 0) + c
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if best[1] < min_count:
            break
        (a, b) = best[0]
        merges.append((a, b))
        pat, rep = f"|{a}| |{b}|", f"|{a}{b}|"
        seqs = {w: s.replace(pat, rep) for w, s in seqs.items()}
    return merges


def encode_docs(ds, merges: list[tuple[str, str]], id_col: str = "doc_id",
                text_col: str = "text"):
    """Pure map stage: per-doc (n_words, n_subwords, n_chars) under the
    learned merges; each batch encodes its UNIQUE words once."""
    pats = [(f"|{a}| |{b}|", f"|{a}{b}|") for a, b in merges]

    def enc(b: pd.DataFrame) -> pd.DataFrame:
        toks = text.tokenize_series(b[text_col])
        lens = toks.str.len().to_numpy(np.int64)
        if lens.sum() == 0:
            return pd.DataFrame({id_col: pd.Series([], dtype=np.int64),
                                 "n_words": pd.Series([], dtype=np.int64),
                                 "n_subwords": pd.Series([], dtype=np.int64),
                                 "n_chars": pd.Series([], dtype=np.int64)})
        doc = np.repeat(b[id_col].to_numpy(np.int64), lens)
        flat = pd.Series([w for ws in toks for w in ws])
        uw = pd.Series(pd.unique(flat))
        seqs = symbolize_series(uw)
        for pat, rep in pats:
            seqs = seqs.str.replace(pat, rep, regex=False)
        nsub = (seqs.str.count(" ") + 1).to_numpy(np.int64)
        m = dict(zip(uw, nsub))
        e = pd.DataFrame({id_col: doc, "ns": flat.map(m).to_numpy(np.int64),
                          "nc": flat.str.len().to_numpy(np.int64)})
        return e.groupby(id_col, sort=False, as_index=False).agg(
            n_words=("ns", "size"), n_subwords=("ns", "sum"),
            n_chars=("nc", "sum"))

    # docs never split across batches -> per-batch groupby is final
    return ds.map_batches(enc, batch_format="pandas")
