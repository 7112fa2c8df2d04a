"""Seeded input generation for the three benchmark workloads.

Every table is a pure function of ``(workload, seed, size)``.  The
engine receives only these tables; nothing here calls into a stage.
Image rows reuse a seeded pool of distinct 8x8 payloads (``synth``'s
own encoder), so a million-row table is built in seconds while every
row still pays a full inflate when it is decoded.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from go_osm_search_ray import synth

# Sizes per workload.  "full" is what the benchmark measures; "smoke"
# runs every call path in seconds (the benchmark's own test uses it).
SIZES = {
    "full": {
        "tile_join": {"rows": 200_000, "files": 8, "polygons": 64},
        "geo_probe": {"knn_points": 100_000, "knn_queries": 200,
                      "revgeo_points": 4_000, "streets": 300,
                      "fences": 100, "fence_tracks": 1_000, "fence_steps": 50,
                      "pip_points": 200_000, "pip_polygons": 1_000},
        "text_index": {"docs": 3_000, "vocab": 2_000, "search_queries": 16,
                       "autocomplete_queries": 6},
    },
    "smoke": {
        "tile_join": {"rows": 20_000, "files": 4, "polygons": 64},
        "geo_probe": {"knn_points": 5_000, "knn_queries": 20,
                      "revgeo_points": 1_000, "streets": 50,
                      "fences": 20, "fence_tracks": 50, "fence_steps": 20,
                      "pip_points": 5_000, "pip_polygons": 100},
        "text_index": {"docs": 500, "vocab": 300, "search_queries": 4,
                       "autocomplete_queries": 2},
    },
}

IMAGE_POOL = 4096
FEATURES = ["cafe", "fuel", "school", "hospital"]


def _u01(h: np.ndarray) -> np.ndarray:
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _hashes(n: int, seed: int, salt: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.uint64)
    return synth.mix64(idx + np.uint64(seed) * np.uint64(0x9E3779B1)
                       + np.uint64(salt) * np.uint64(0x632BE5AB))


# ---------------------------------------------------------------------------
# tile_join: image + caption table written as Parquet


def image_table(n: int, seed: int) -> pa.Table:
    """``synth``'s image schema: payloads and captions from a seeded
    pool of ``synth.images_batch`` rows; per-row geo keys with
    ``synth.HOT_SHARE`` of rows in the three ``synth.HOT_CENTERS``."""
    pool = synth.images_batch(np.arange(IMAGE_POOL), seed=seed)
    h1 = _hashes(n, seed, 1)
    h2 = synth.mix64(h1)
    pick = pa.array((h1 % np.uint64(IMAGE_POOL)).astype(np.int64))
    hot = _u01(h2) < synth.HOT_SHARE
    which = (h2 % np.uint64(len(synth.HOT_CENTERS))).astype(np.int64)
    centers = np.array(synth.HOT_CENTERS)
    jit = (_u01(synth.mix64(h2)) - 0.5) * 0.1
    lat = np.where(hot, centers[which, 0] + jit, _u01(h1) * 180.0 - 90.0)
    lon = np.where(hot, centers[which, 1] - jit,
                   _u01(synth.mix64(h1 + np.uint64(7))) * 360.0 - 180.0)
    return pa.table({
        "image_id": pa.array([f"img{seed:04d}{i:09d}" for i in range(n)]),
        "bytes": pool["bytes"].take(pick),
        "w": pool["w"].take(pick),
        "h": pool["h"].take(pick),
        "fmt": pool["fmt"].take(pick),
        "caption": pool["caption"].take(pick),
        "phash": pa.array(synth.latlon_to_phash(lat, lon), pa.int64()),
    })


def write_image_dir(table: pa.Table, out_dir: str, files: int) -> None:
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    step = -(-table.num_rows // files)
    for f in range(files):
        pq.write_table(table.slice(f * step, step),
                       os.path.join(tmp, f"part-{f:03d}.parquet"),
                       row_group_size=65_536)
    os.replace(tmp, out_dir)


# ---------------------------------------------------------------------------
# geo_probe: kNN points and queries, world points (the side tables and
# trajectories come from synth)


def knn_points(n: int, seed: int) -> pa.Table:
    h = _hashes(n, seed, 2)
    return pa.table({
        "point_id": pa.array(np.arange(n, dtype=np.int64)),
        "lat": pa.array(_u01(h) * 15.0 - 10.0),
        "lon": pa.array(_u01(synth.mix64(h)) * 45.0 + 95.0),
        "feature": pa.array(np.array(FEATURES)[
            (synth.mix64(h + np.uint64(3)) % np.uint64(len(FEATURES)))
            .astype(np.int64)]),
    })


def knn_queries(n: int, seed: int) -> pa.Table:
    """k in 3..10, offset 0..2, a radius on half of the queries (the
    rest NaN = unbounded) and a feature filter on every query."""
    rng = np.random.default_rng(seed + 11)
    radius = rng.uniform(50.0, 400.0, n)
    radius[rng.random(n) < 0.5] = np.nan
    return pa.table({
        "query_id": pa.array(np.arange(n, dtype=np.int64)),
        "lat": pa.array(rng.uniform(-10.0, 5.0, n)),
        "lon": pa.array(rng.uniform(95.0, 140.0, n)),
        "k": pa.array(rng.integers(3, 11, n), pa.int64()),
        "offset": pa.array(rng.integers(0, 3, n), pa.int64()),
        "radius_km": pa.array(radius),
        "feature": pa.array(rng.choice(FEATURES, n)),
    })


def world_points(n: int, seed: int, salt: int) -> pa.Table:
    h = _hashes(n, seed, salt)
    return pa.table({
        "point_id": pa.array(np.arange(n, dtype=np.int64)),
        "lat": pa.array(_u01(h) * 120.0 - 60.0),
        "lon": pa.array(_u01(synth.mix64(h)) * 340.0 - 170.0),
    })


# ---------------------------------------------------------------------------
# text_index: Zipf corpus, typo queries, prefix queries

_SYLLABLES = ["ka", "ri", "ma", "tu", "sen", "ban", "lo", "pe", "ja", "nu",
              "go", "ra", "di", "su", "wan", "ten", "mo", "ki", "pa", "ha"]
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _vocab(n: int, rng: np.random.Generator) -> list[str]:
    words: dict[str, None] = {}
    while len(words) < n:
        k = int(rng.integers(2, 5))
        words["".join(rng.choice(_SYLLABLES, k))] = None
    return list(words)


def _typo(w: str, rng: np.random.Generator) -> str:
    """One edit: deletion, substitution or adjacent transposition."""
    i = int(rng.integers(0, len(w) - 1))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return w[:i] + w[i + 1:]
    if kind == 1:
        c = _ALPHABET[int(rng.integers(0, 26))]
        return w[:i] + c + w[i + 1:]
    return w[:i] + w[i + 1] + w[i] + w[i + 2:]


def text_tables(size: dict, seed: int) -> dict:
    rng = np.random.default_rng(seed + 21)
    vocab = _vocab(size["vocab"], rng)
    p = 1.0 / np.arange(1, len(vocab) + 1) ** 1.07
    p /= p.sum()
    lens = rng.integers(4, 31, size["docs"])
    ids = rng.choice(len(vocab), int(lens.sum()), p=p)
    cuts = np.concatenate([[0], np.cumsum(lens)])
    voc = np.array(vocab)
    texts = [" ".join(voc[ids[cuts[i]:cuts[i + 1]]])
             for i in range(size["docs"])]
    docs = pd.DataFrame({"doc_id": np.arange(size["docs"], dtype=np.int64),
                         "text": texts})

    def phrase(doc: int, n: int) -> list[str]:
        toks = texts[doc].split()
        s = int(rng.integers(0, len(toks) - n + 1))
        return toks[s:s + n]

    search = []
    for _ in range(size["search_queries"]):
        toks = phrase(int(rng.integers(0, size["docs"])),
                      int(rng.integers(2, 4)))
        j = max(range(len(toks)), key=lambda t: len(toks[t]))
        toks[j] = _typo(toks[j], rng)
        search.append(" ".join(toks))
    complete = []
    for _ in range(size["autocomplete_queries"]):
        toks = phrase(int(rng.integers(0, size["docs"])), 2)
        complete.append(f"{toks[0]} {toks[1][:3]}")
    return {
        "docs": docs,
        "search": pd.DataFrame({"query_id": np.arange(len(search)),
                                "query": search}),
        "autocomplete": pd.DataFrame({"query_id": np.arange(len(complete)),
                                      "query": complete}),
        "spell_errors": synth.spell_errors_lines(vocab[:200], seed=seed + 46),
    }
