"""LM backoff-stats: distributed level histogram vs a brute-force
dict implementation, plus the float stupid-backoff score sanity."""

import numpy as np
import pandas as pd
import pytest

from go_osm_search_ray.stages import lm, text


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
