"""LM backoff-stats: distributed level histogram vs a brute-force
dict implementation, plus the float stupid-backoff score sanity."""

import hashlib
import time

import numpy as np
import pandas as pd
import pytest

from go_osm_search_ray.stages import lm, text
from conftest import perf_gate


def _docs():
    rows = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox sleeps",
        "the quick brown cat jumps over the lazy dog",
        "a completely different sentence here",
        "another completely different sentence here too",
        "the quick brown fox jumps again",
    ]
    return pd.DataFrame({"doc_id": np.arange(len(rows), dtype=np.int64),
                         "text": rows})


def brute_stats(df, min_vocab=2, min_count=2):
    toks = text.tokenize_series(df["text"])
    flat = pd.Series([w for ws in toks for w in ws])
    vocab = set(flat.value_counts()[lambda s: s >= min_vocab].index)
    streams = {}
    for d, ws in zip(df["doc_id"], toks):
        ws = [w if w in vocab else lm.UNK for w in ws]
        streams[d] = [lm.PAD] * 3 + ws + [lm.EOS]
    counts = {2: {}, 3: {}, 4: {}}
    for s in streams.values():
        for n in (2, 3, 4):
            for i in range(len(s) - n + 1):
                g = " ".join(s[i:i + n])
                counts[n][g] = counts[n].get(g, 0) + 1
    fsets = {n: {g for g, c in counts[n].items() if c >= min_count}
             for n in (2, 3, 4)}
    out = []
    for d, s in streams.items():
        l = {4: 0, 3: 0, 2: 0, 1: 0}
        for p in range(3, len(s)):
            if " ".join(s[p - 3:p + 1]) in fsets[4]:
                l[4] += 1
            elif " ".join(s[p - 2:p + 1]) in fsets[3]:
                l[3] += 1
            elif " ".join(s[p - 1:p + 1]) in fsets[2]:
                l[2] += 1
            else:
                l[1] += 1
        out.append({"doc_id": d, "n_pos": len(s) - 3, "l4": l[4],
                    "l3": l[3], "l2": l[2], "l1": l[1]})
    return pd.DataFrame(out)


def _check_backoff_stats():
    import ray

    df = _docs()
    got = lm.backoff_stats(ray.data.from_pandas(df).repartition(3)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    exp = brute_stats(df).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["doc_id", "n_pos", "l4", "l3", "l2", "l1"]].astype(np.int64),
        exp.astype(np.int64))
    # the shared trigram prefix must actually produce level-4 hits
    assert exp["l4"].sum() > 0 and exp["l1"].sum() > 0


def test_backoff_stats_matches_brute(ray_session):
    _check_backoff_stats()  # broadcast frequent-gram arrays


def test_backoff_stats_keyed_joins_match_brute(ray_session, monkeypatch):
    # BROADCAST_GRAMS_MAX=0 pins the three keyed left joins
    monkeypatch.setattr(lm, "BROADCAST_GRAMS_MAX", 0)
    _check_backoff_stats()


def test_stupid_backoff_score_orders_familiarity():
    df = _docs()
    toks = text.tokenize_series(df["text"])
    counts = {1: {}, 2: {}, 3: {}, 4: {}}
    total = 0
    for ws in toks:
        s = [lm.PAD] * 3 + list(ws) + [lm.EOS]
        total += len(ws) + 1
        for n in (1, 2, 3, 4):
            for i in range(len(s) - n + 1):
                g = " ".join(s[i:i + n])
                counts[n][g] = counts[n].get(g, 0) + 1
    rep = lm.stupid_backoff_doc_score(list(toks[0]), counts, total)
    rare = lm.stupid_backoff_doc_score(
        ["zz", "completely", "unseen", "garble"], counts, total)
    assert rep / len(toks[0]) > rare / 4  # per-token log-prob ordering


def test_backoff_stats_empty_corpus(ray_session):
    import ray

    empty = pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                          "text": pd.Series([], dtype=object)})
    assert len(lm.backoff_stats(ray.data.from_pandas(empty)).to_pandas()) == 0


class _OneBatch:
    """A stand-in Dataset of one pandas batch: map_batches calls the
    stage's batch function on it."""

    def __init__(self, df):
        self.df = df

    def map_batches(self, fn, batch_format):
        assert batch_format == "pandas"
        return fn(self.df)


def _ref_window_rows(df, vocab):
    """Per-row reference: the UNK-replaced stream 3 x <s> + tokens +
    </s>, and at every pos >= 2 the polynomial (Horner, P = the FNV-1
    64-bit prime, mod 2^64) over md5-64 token hashes of the n-gram
    ending there, 0 where pos < n."""
    def th(t):
        return int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little")

    rows = []
    for d, ws in zip(df["doc_id"], text.tokenize_series(df["text"])):
        s = [lm.PAD] * 3 + [w if w in vocab else lm.UNK for w in ws] + [lm.EOS]
        for p in range(2, len(s) + 1):
            hs = []
            for n in (4, 3, 2):
                acc = 0
                for t in s[p - n:p] if p >= n else []:
                    acc = (acc * 1099511628211 + th(t)) % (1 << 64)
                hs.append(acc - (1 << 64) if acc >= 1 << 63 else acc)
            rows.append((d, p, *hs))
    return pd.DataFrame(rows, columns=["doc_id", "pos", "h4", "h3", "h2"])


def test_window_rows_large_vocab_match_reference():
    """A 200k-term corpus vocabulary: OOV replacement and the three
    hashes equal the per-row reference, and the lookup costs one binary
    search per distinct batch token (an elementwise membership test
    over object arrays compares every vocabulary term with every batch
    token: seconds here)."""
    rng = np.random.default_rng(7)
    pool = np.array([f"w{i}" for i in range(5000)])
    docs = [" ".join(rng.choice(pool, rng.integers(0, 30)))
            for _ in range(1500)] + ["", None, "w1", "w1 w2"]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    vocab = set(pool[::2]) | {f"v{i:06d}" for i in range(200_000)}
    vocab_sorted = np.array(sorted(vocab), dtype=object)
    t0 = time.perf_counter()
    got = lm.window_rows(_OneBatch(df), vocab_sorted)
    wall = time.perf_counter() - t0
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  _ref_window_rows(df, vocab))
    perf_gate(wall < 1.0, f"window_rows took {wall:.2f}s on one batch")
