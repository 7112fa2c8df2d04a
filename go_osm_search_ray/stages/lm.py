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
  1. one corpus scan explodes every padded token stream to window
     rows (doc_id, pos, g4, g3, g2) — vectorized shifts, no per-row
     Python — materialized once (four consumers);
  2. count tables F4/F3/F2 = two_phase_agg over the window rows,
     filtered to count >= min_count (much smaller than raw counts);
  3. three hash LEFT JOINs (positions x Fn on the n-gram string —
     exact string membership, J4's term->postings shape) assign
     levels; per-doc histogram = one two_phase_agg.
  The OOV->'<unk>' dictionary is the bounded vocab artifact
  (vocab >= min_freq, A6/S15) broadcast sorted; swap to a keyed join
  when the dictionary itself outgrows broadcast.

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
    p >= n).

    n-gram identity is a 64-bit polynomial over per-token hashes
    (pd.util.hash_pandas_object — deterministic across processes),
    h_n = sum token_hash[p-k] * P^k (uint64 wraparound): no n-gram
    STRING is ever built or shuffled (the string-keyed plan spent 3x
    the pipeline in join-key bytes; the dup_ngram_coverage factorized-
    hash precedent).  Collisions at 2^-64 are the documented exactness
    contract."""

    _p = 0x9E3779B97F4A7C15  # uint64 wraparound is the hash space
    P = np.uint64(_p)
    P2 = np.uint64(_p * _p % (1 << 64))
    P3 = np.uint64(_p * _p * _p % (1 << 64))

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        toks = text.tokenize_series(b[text_col])
        ids = b[id_col].to_numpy(np.int64)
        lens = toks.str.len().to_numpy(np.int64)
        flat = []
        for ws in toks:
            flat.extend((PAD, PAD, PAD))
            flat.extend(ws)
            flat.append(EOS)
        if not flat:
            return pd.DataFrame({
                id_col: pd.Series([], dtype=np.int64),
                "pos": pd.Series([], dtype=np.int64),
                "h4": pd.Series([], dtype=np.int64),
                "h3": pd.Series([], dtype=np.int64),
                "h2": pd.Series([], dtype=np.int64)})
        v = np.asarray(flat, dtype=object)
        meta = (v == PAD) | (v == EOS)
        if len(vocab_sorted):
            ix = np.searchsorted(vocab_sorted, v)
            ix[ix >= len(vocab_sorted)] = 0
            known = vocab_sorted[ix] == v
        else:
            known = np.zeros(len(v), dtype=bool)
        tok = np.where(meta | known, v, UNK)

        th = pd.util.hash_pandas_object(
            pd.Series(tok, dtype=object), index=False).to_numpy(np.uint64)
        n = len(th)
        l1, l2, l3 = np.zeros(n, np.uint64), np.zeros(n, np.uint64), \
            np.zeros(n, np.uint64)
        l1[1:], l2[2:], l3[3:] = th[:-1], th[:-2], th[:-3]
        h2 = l1 * P + th
        h3 = l2 * P2 + h2
        h4 = l3 * P3 + h3

        stream_len = lens + 4
        doc = np.repeat(ids, stream_len)
        pos = np.concatenate([np.arange(1, sl + 1) for sl in stream_len])
        out = pd.DataFrame({id_col: doc, "pos": pos,
                            "h4": h4.view(np.int64),
                            "h3": h3.view(np.int64),
                            "h2": h2.view(np.int64)})
        return out[out["pos"] >= 2]  # pos 1 contributes to no window

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
    vocab_sorted = np.sort(vdf["term"].to_numpy(dtype=object))

    win = window_rows(ds, vocab_sorted, id_col, text_col).materialize()
    freq = _frequent_grams(win, min_count).materialize()

    if freq.count() <= BROADCAST_GRAMS_MAX:
        fpdf = freq.to_pandas()
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
