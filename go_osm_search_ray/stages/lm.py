"""Corpus-scale 4-gram language-model familiarity scoring.

The reference trains a 4-gram LM (ngram_lm.go:105-210) and scores
QUERIES with stupid backoff (ngram_lm.go:301-342) inside one process.
A training-data pipeline needs the same model turned around: score
every DOCUMENT of the corpus by how familiar its n-grams are (the
CCNet-style LM quality gate, Wenzek et al. 2020) — at corpus scale,
with the count tables staying distributed.

Integer-exact design (the repo's oracle rule): instead of float
perplexity, each scored position reports its BACKOFF LEVEL — the
longest n (4, 3, 2, 1) whose n-gram occurs >= `min_count` times in
the corpus (min_count=2 so a doc's own singleton n-grams don't
trivially match).  Per-doc output: n_pos + level histogram
(l4, l3, l2, l1) — all integers; the float stupid-backoff score is a
deterministic function of these counts plus the count tables and is
exercised in pytest, not the oracle.

Scale shape:
  1. one corpus scan cuts every padded token stream into window rows
     (doc_id, pos, h4, h3, h2) — `text._windows` over the flat token
     codes, n-grams as 64-bit hashes — materialized once;
  2. count tables F4/F3/F2 = one two_phase_agg over the window rows,
     filtered to count >= min_count (much smaller than raw counts);
  3. each position's level is the longest of h4/h3/h2 in its frequent
     set (broadcast sorted arrays, or three keyed LEFT JOINs on the
     int64 hashes when they outgrow broadcast); per-doc histogram =
     one two_phase_agg.
  The OOV->'<unk>' dictionary is the bounded vocab artifact
  (vocab >= min_freq, A6/S15), shipped with the map function; swap to
  a keyed join when the dictionary itself outgrows that.

Padding: one shared stream ['<s>']*3 + tokens + ['</s>'] per doc;
count tables for every order are windows over this same stream
(engine-canonical: one padded stream for all orders, mirrored in the
SQL oracle)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from . import text
from .agg import default_join_partitions, ensure_schema, join_safe, two_phase_agg

PAD = "<s>"
EOS = "</s>"
UNK = "<unk>"

# frequent n-gram hashes (all levels) that backoff_stats broadcasts as
# sorted arrays before it falls back to three keyed left joins
BROADCAST_GRAMS_MAX = 20_000_000


def window_rows(ds, vocab_sorted: np.ndarray, id_col: str = "doc_id",
                text_col: str = "text"):
    """Corpus -> (doc_id, pos, h4, h3, h2) window rows over the padded
    UNK-replaced stream; pos is 1-based in the padded stream, and a row
    at pos p carries the HASH of the n-gram ENDING at p (valid when
    p >= n).  Rows are the stream's bigram windows (every pos >= 2).

    n-gram identity is the `text._windows` polynomial hash over md5-64
    token hashes (uint64 wraparound, process-independent), here by
    Horner over one padded stream for all three orders: no n-gram
    STRING is ever built or shuffled (the string-keyed plan spent 3x
    the pipeline in join-key bytes).  Collisions at 2^-64 are the
    documented exactness contract."""

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        w = text._windows(text.tokenize_flat_arrow(b[text_col]), 2, (3, 1))
        # OOV -> <unk>, one binary search per distinct batch token
        keep = np.arange(len(w.vocab)) >= len(w.vocab) - 2  # the pads
        if len(vocab_sorted):
            ix = np.searchsorted(vocab_sorted, w.vocab) % len(vocab_sorted)
            keep |= vocab_sorted[ix] == w.vocab
        th = text.md5_64(np.where(keep, w.vocab, UNK))[w.stream]
        # h[n][p]: the n-gram ENDING at stream index p, by Horner
        h = {1: th}
        for n in (2, 3, 4):
            h[n] = th + np.append(np.uint64(0), h[n - 1][:-1] * text._WINDOW_P)
        end = w.start + 1  # the bigram windows end at every pos >= 2
        pos = end - w.offset[w.row] + 1
        return pd.DataFrame({
            id_col: b[id_col].to_numpy(np.int64)[w.row], "pos": pos,
            **{f"h{n}": (h[n][end] * (pos >= n)).view(np.int64)
               for n in (4, 3, 2)}})

    return ds.map_batches(explode, batch_format="pandas")


# an n-gram window ENDS at pos p when p >= n (stream pads 3 x <s>)
_LEVELS = ((4, "h4", 4), (3, "h3", 3), (2, "h2", 2))


def _frequent_grams(win_ds, min_count: int):
    """One pass over the window rows -> (lvl, h) of every n-gram with
    corpus count >= min_count, for all three orders at once."""

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for lvl, col, min_pos in _LEVELS:
            g = b.loc[b["pos"] >= min_pos, [col]]
            vc = g.groupby(col, sort=False, as_index=False).size()
            frames.append(pd.DataFrame({
                "lvl": np.int64(lvl), "h": vc[col].to_numpy(np.int64),
                "cnt": vc["size"].to_numpy(np.int64)}))
        return pd.concat(frames, ignore_index=True)

    counts = two_phase_agg(win_ds, partial, ["lvl", "h"], ["cnt"])

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["cnt"] >= min_count, ["lvl", "h"]]

    return ensure_schema(counts.map_batches(keep, batch_format="pandas"),
                         {"lvl": np.int64, "h": np.int64})


def backoff_stats(ds, id_col: str = "doc_id", text_col: str = "text",
                  min_vocab_freq: int = 2, min_count: int = 2):
    """Per-document backoff-level histogram (see module docstring).
    Returns a Dataset (doc_id, n_pos, l4, l3, l2, l1).

    Membership of a position's n-gram hash in the frequent sets is
    ADAPTIVE (the decontaminate pattern): up to BROADCAST_GRAMS_MAX
    total frequent grams the three sorted hash arrays broadcast once
    (ray.put) and every level resolves in ONE vectorized searchsorted
    map — no join touches the corpus-scale position table; above it,
    three hash LEFT JOINs on the int64 keys take over."""
    import ray

    vdf = text.vocab_with_min_freq(
        ds, min_vocab_freq, id_col=id_col, text_col=text_col).to_pandas()
    # an empty corpus collects a frame without columns
    vocab_sorted = np.sort(vdf.get("term", pd.Series([], dtype=object))
                           .to_numpy(dtype=object))

    win = window_rows(ds, vocab_sorted, id_col, text_col).materialize()
    freq = _frequent_grams(win, min_count).materialize()

    if freq.count() <= BROADCAST_GRAMS_MAX:
        fpdf = freq.to_pandas().reindex(columns=["lvl", "h"])
        sets = {lvl: np.sort(fpdf.loc[fpdf["lvl"] == lvl, "h"]
                             .to_numpy(np.int64))
                for lvl, _c, _p in _LEVELS}
        ref = ray.put(sets)

        def level_partial(b: pd.DataFrame) -> pd.DataFrame:
            s = ray.get(ref)
            b = b[b["pos"] >= 4]
            hits = {}
            for lvl, col, _p in _LEVELS:
                h = b[col].to_numpy(np.int64)
                arr = s[lvl]
                if len(arr):
                    ix = np.searchsorted(arr, h)
                    ix[ix >= len(arr)] = 0
                    hits[lvl] = arr[ix] == h
                else:
                    hits[lvl] = np.zeros(len(b), dtype=bool)
            h4 = hits[4]
            h3 = hits[3] & ~h4
            h2 = hits[2] & ~h4 & ~hits[3]
            d = pd.DataFrame({id_col: b[id_col].to_numpy(np.int64),
                              "n_pos": np.int64(1),
                              "l4": h4.astype(np.int64),
                              "l3": h3.astype(np.int64),
                              "l2": h2.astype(np.int64),
                              "l1": (~(h4 | h3 | h2)).astype(np.int64)})
            return d.groupby(id_col, sort=False, as_index=False).sum()

        return two_phase_agg(win, level_partial, [id_col],
                             ["n_pos", "l4", "l3", "l2", "l1"])

    # keyed-join fallback: the frequent sets outgrew broadcast
    n_part = default_join_partitions()
    pos = win.map_batches(
        lambda b: b.loc[b["pos"] >= 4, [id_col, "h4", "h3", "h2"]],
        batch_format="pandas")
    j = pos
    for lvl, col, _p in _LEVELS:
        side = ensure_schema(
            freq.map_batches(
                lambda b, lvl=lvl, col=col: b.loc[b["lvl"] == lvl, ["h"]]
                .rename(columns={"h": col}).assign(**{f"hit{lvl}": np.int64(1)}),
                batch_format="pandas"),
            {col: np.int64, f"hit{lvl}": np.int64})
        j = j.join(join_safe(side, n_part), "left_outer", n_part, on=(col,))

    def level_partial_join(b: pd.DataFrame) -> pd.DataFrame:
        h4 = b["hit4"].notna().to_numpy()
        h3 = b["hit3"].notna().to_numpy() & ~h4
        h2 = b["hit2"].notna().to_numpy() & ~h4 & ~b["hit3"].notna().to_numpy()
        d = pd.DataFrame({id_col: b[id_col].to_numpy(np.int64),
                          "n_pos": np.int64(1),
                          "l4": h4.astype(np.int64),
                          "l3": h3.astype(np.int64),
                          "l2": h2.astype(np.int64),
                          "l1": (~(h4 | h3 | h2)).astype(np.int64)})
        return d.groupby(id_col, sort=False, as_index=False).sum()

    return two_phase_agg(j, level_partial_join, [id_col],
                         ["n_pos", "l4", "l3", "l2", "l1"])


def stupid_backoff_doc_score(tokens: list[str], counts: dict[int, dict],
                             total_words: int, lam: float = 0.4) -> float:
    """Reference stupid-backoff (ngram_lm.go:301-342) summed over a
    padded document stream — the float score the integer histogram
    underpins; used by tests, not the oracle."""
    import math

    seq = [PAD] * 3 + tokens + [EOS]
    s = 0.0
    for i in range(3, len(seq)):
        score, k = None, 4
        mult = 1.0
        while k >= 1:
            g = " ".join(seq[i - k + 1:i + 1])
            c = counts[k].get(g, 0)
            if c > 0:
                if k == 1:
                    score = mult * c / total_words
                else:
                    prev = " ".join(seq[i - k + 1:i])
                    cp = counts[k - 1].get(prev, 0)
                    if cp > 0:
                        score = mult * c / cp
                    else:
                        k -= 1
                        mult *= lam
                        continue
                break
            k -= 1
            mult *= lam
        s += math.log(score) if score else math.log(lam ** 3 / max(total_words, 1))
    return s
