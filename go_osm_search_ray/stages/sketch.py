"""Mergeable sketches — the bounded-memory path for distinct-count
style aggregates a 100 TB corpus cannot answer exactly without a
pair-space shuffle.

HyperLogLog here is the classic Flajolet et al. 2007 estimator with
the standard small-range (linear counting) correction: 2^p byte
registers, register index = low p bits of a 64-bit md5-derived hash,
rank = leading-zero count of the remaining bits + 1.  Registers are
np.maximum-mergeable, so the Ray plan is the guide's sketch pattern:
one serialized sketch row per (key, batch) from map_batches, then a
tiny groupby that merges registers — shuffle volume is
O(keys x blocks x 2^p bytes), independent of value cardinality.

Relative error ~ 1.04 / sqrt(2^p): p=12 (4 KiB) -> ~1.6%.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def _hash64_values(values) -> np.ndarray:
    """Process-independent 64-bit hashes (md5 low 8 bytes, LE)."""
    return np.array(
        [int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "little")
         for v in values],
        dtype=np.uint64,
    )


def hll_registers(values, p: int = 12) -> np.ndarray:
    """uint8 register vector for one value set (vectorized)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = _hash64_values(values)
    idx = (h & np.uint64(m - 1)).astype(np.int64)
    rest = h >> np.uint64(p)
    # rank = leading position of the first 1 bit in the (64-p)-bit rest,
    # counted from the LSB side of the shifted value's top: use the
    # standard "number of leading zeros + 1" on the (64-p)-bit field
    nbits = 64 - p
    rank = np.full(len(h), nbits + 1, dtype=np.uint8)
    nz = rest != 0
    # floor(log2(rest)) via float exponent is exact for < 2^53; rest can
    # reach 2^52 at p=12 — keep exact with bit_length per element only
    # for the tail above 2^52
    rl = np.zeros(len(h), dtype=np.int64)
    small = rest < np.uint64(1 << 52)
    with np.errstate(divide="ignore"):
        rl[small & nz] = np.floor(
            np.log2(rest[small & nz].astype(np.float64))
        ).astype(np.int64)
    for i in np.nonzero(~small & nz)[0]:
        rl[i] = int(rest[i]).bit_length() - 1
    rank[nz] = (nbits - 1 - rl[nz] + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Bias-corrected HLL estimate with linear-counting small range."""
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def approx_count_distinct(ds, key_cols: list[str], value_col: str,
                          p: int = 12):
    """Approximate COUNT(DISTINCT value) per key group via mergeable
    HLL sketches: one sketch row per (key, batch) -> bucketed merge
    (np.maximum over registers) -> estimate.  Returns a Dataset of
    key_cols + approx_distinct (int64)."""
    from .agg import bucketed_group_apply

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for key, g in b.groupby(key_cols, sort=False):
            key = key if isinstance(key, tuple) else (key,)
            rows.append((*key, hll_registers(g[value_col].unique(), p).tobytes()))
        return pd.DataFrame(rows, columns=[*key_cols, "sketch"])

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, grp in g.groupby(key_cols, sort=False):
            key = key if isinstance(key, tuple) else (key,)
            regs = np.zeros(1 << p, dtype=np.uint8)
            for sk in grp["sketch"]:
                regs = np.maximum(regs, np.frombuffer(sk, dtype=np.uint8))
            out.append((*key, int(round(hll_estimate(regs)))))
        return pd.DataFrame(out, columns=[*key_cols, "approx_distinct"])

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucketed_group_apply(partials, key_cols, merge_bucket)


# ---------------------------------------------------------------------------
# Bloom filter: the broadcast pre-filter that keeps a semi-join from
# shuffling the (huge) probe side.  Reference analogue: the postings
# intersection fast-path (boolean AND skips docs absent from the
# shorter list, boolean_query.go) generalized to keyed row filtering.


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant mix) —
    process-independent uint64 hashing for integer keys."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def bloom_params(n_keys: int, fpp: float = 0.002) -> tuple[int, int]:
    """(m_bits power-of-two, k hashes) for a target false-positive
    rate — standard m = -n ln p / ln2^2, k = (m/n) ln2."""
    n_keys = max(1, n_keys)
    m = -n_keys * np.log(fpp) / (np.log(2.0) ** 2)
    m_bits = 1 << max(6, int(np.ceil(np.log2(m))))
    k = max(1, int(round(m_bits / n_keys * np.log(2.0))))
    return m_bits, min(k, 16)


def bloom_set(bits: np.ndarray, keys: np.ndarray, k: int) -> None:
    """Set the k double-hashed positions of each key in the packed
    uint64 bitmap (m_bits = len(bits)*64 must be a power of two)."""
    mask = np.uint64(len(bits) * 64 - 1)
    h1 = _splitmix64(keys)
    h2 = _splitmix64(h1) | np.uint64(1)
    for i in range(k):
        pos = (h1 + np.uint64(i) * h2) & mask
        np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))


def bloom_contains(bits: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Vectorized membership mask (true = possibly present)."""
    mask = np.uint64(len(bits) * 64 - 1)
    h1 = _splitmix64(keys)
    h2 = _splitmix64(h1) | np.uint64(1)
    out = np.ones(len(keys), dtype=bool)
    for i in range(k):
        pos = (h1 + np.uint64(i) * h2) & mask
        word = bits[(pos >> np.uint64(6)).astype(np.int64)]
        out &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
    return out


def bloom_build(keys_ds, key_col: str, m_bits: int, k: int,
                fanin: int = 8):
    """Distributed Bloom build: one packed-uint64 partial bitmap per
    block (vectorized bloom_set), then a Ray-task TREE of bitwise-OR
    merges (fan-in `fanin`) — the driver receives only the FINAL
    bitmap; partials live in the object store.  Returns the merged
    np.uint64 bitmap."""
    import ray

    words = m_bits // 64

    def block_bitmap(b: pd.DataFrame) -> pd.DataFrame:
        bits = np.zeros(words, dtype=np.uint64)
        if len(b):
            bloom_set(bits, b[key_col].to_numpy(np.int64).view(np.uint64), k)
        return pd.DataFrame({"bits": [bits.tobytes()]})

    @ray.remote
    def or_merge(*parts):
        out = np.zeros(words, dtype=np.uint64)
        for p in parts:
            if isinstance(p, bytes):
                out |= np.frombuffer(p, dtype=np.uint64)
            else:  # arrow/pandas block from to_arrow_refs
                for buf in p["bits"].to_pylist() if hasattr(p, "to_pylist") \
                        else p["bits"]:
                    out |= np.frombuffer(buf, dtype=np.uint64)
        return out.tobytes()

    refs = keys_ds.map_batches(block_bitmap,
                               batch_format="pandas").to_arrow_refs()
    level = list(refs)
    while len(level) > 1:
        level = [or_merge.remote(*level[i:i + fanin])
                 for i in range(0, len(level), fanin)]
    merged = ray.get(level[0]) if level else np.zeros(words, np.uint64).tobytes()
    if not isinstance(merged, bytes):  # single-block dataset: raw block
        merged = ray.get(or_merge.remote(merged))
    return np.frombuffer(merged, dtype=np.uint64)


def bloom_semi_join(probe_ds, keys_ds, probe_key: str, build_key: str,
                    n_keys_hint: int, fpp: float = 0.002):
    """EXACT distributed semi-join, Bloom-accelerated: the key side
    builds a Bloom filter (tree-merged, broadcast via ray.put + the
    per-worker-process state cache), the probe side drops non-members
    in a vectorized map_batches BEFORE any shuffle — at a 0.2% false-
    positive rate the subsequent exact hash join moves only true
    matches + 0.2% noise instead of the whole probe table.  The verify
    join (left_semi, on the key) removes the false positives, so the
    result is EXACT; duplicate keys on the key side are fine (both
    paths are true semi-joins: each probe row is emitted at most once).

    100-TB shape: probe side streams (never materialized); filter
    state is one bitmap sized to the KEY side (~1.8 GiB per 10^9 keys
    at 0.2%), shipped once per worker process, not per batch."""
    import ray

    from . import agg
    from .knn import cached_state

    m_bits, k = bloom_params(n_keys_hint, fpp)
    # the key side is consumed TWICE (bitmap build + verify) and is
    # the small side by assumption — pin its blocks once instead of
    # re-running its upstream read+filter lineage
    keys_ds = keys_ds.materialize()

    # Adaptive exact path: a key side within agg.BROADCAST_KEYS_MAX
    # needs no sketch at all — membership_filter's broadcast sorted-key
    # searchsorted is the whole semi-join.  The Bloom + exact-verify-join
    # path below is the UNBOUNDED-keys design (the bitmap is the only
    # broadcast state; membership is restored exactly by a keyed join).
    if keys_ds.count() <= agg.BROADCAST_KEYS_MAX:
        return agg.membership_filter(probe_ds, keys_ds, probe_key,
                                     build_key, keep=True)

    bits = bloom_build(keys_ds, build_key, m_bits, k)
    ref = ray.put(bits)

    def prefilter(b: pd.DataFrame) -> pd.DataFrame:
        bm = cached_state(f"bloom-{ref.hex()}", lambda: ray.get(ref))
        if len(b) == 0:
            return b
        keep = bloom_contains(
            bm, b[probe_key].to_numpy(np.int64).view(np.uint64), k)
        return b[keep]

    survivors = probe_ds.map_batches(prefilter, batch_format="pandas")
    n_part = agg.default_join_partitions()
    keys_only = keys_ds.select_columns([build_key])
    if build_key != probe_key:
        # explicit map_batches rename: Dataset.rename_columns breaks
        # on pandas-backed blocks in this Ray version
        keys_only = keys_only.map_batches(
            lambda b: b.rename(columns={build_key: probe_key}),
            batch_format="pandas")
    # left_semi regardless of key names: each probe row is emitted at
    # most once even when keys_ds has duplicate keys — identical
    # semantics to the broadcast membership_filter path above.
    return agg.join_safe(survivors).join(
        agg.join_safe(keys_only), "left_semi", n_part, on=(probe_key,))


# ---------------------------------------------------------------------------
# Count-Min sketch + EXACT distributed heavy hitters.  The CM sketch
# is the fixed-size mergeable structure that lets a 100-TB corpus find
# its frequent terms WITHOUT ever shuffling the full vocabulary: the
# only global state is the d x w counter matrix (sum-mergeable), and
# the only shuffled keys are the CM-filtered survivors.


_CM_SEEDS = np.array([0x2545F4914F6CDD1D, 0x9E3779B97F4A7C15,
                      0xD6E8FEB86659FD93, 0xA24BAED4963EE407,
                      0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                     dtype=np.uint64)


def _cm_cols(h: np.ndarray, w: int, d: int) -> np.ndarray:
    """(d, n) column indices for pre-hashed uint64 keys — row i uses an
    independent splitmix64 re-mix of the key hash."""
    return np.stack([
        (_splitmix64(h ^ _CM_SEEDS[i]) % np.uint64(w)).astype(np.int64)
        for i in range(d)
    ])


def cm_add(cm: np.ndarray, h: np.ndarray, counts: np.ndarray) -> None:
    """Add `counts` for keys with hashes `h` into the (d, w) int64
    sketch (np.add.at per row; duplicate keys accumulate)."""
    d, w = cm.shape
    cols = _cm_cols(h, w, d)
    for i in range(d):
        np.add.at(cm[i], cols[i], counts)


def cm_estimate(cm: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Point-query upper-bound estimates (min over the d rows) — never
    underestimates, so filtering est >= T keeps every true >=T key."""
    d, w = cm.shape
    cols = _cm_cols(h, w, d)
    return np.min(np.stack([cm[i, cols[i]] for i in range(d)]), axis=0)


def _term_hash(terms: pd.Series) -> np.ndarray:
    """Process-stable uint64 hashes for string keys (the same
    pd.util.hash_pandas_object primitive every distributed bucket
    shuffle in this repo already relies on for cross-worker agreement)."""
    return pd.util.hash_pandas_object(terms, index=False).to_numpy()


def heavy_hitters(ds, text_col: str = "text", threshold: int = 200,
                  w: int = 1 << 16, d: int = 4, fanin: int = 8):
    """EXACT terms with global count >= threshold, in two streaming
    scans and NO vocabulary shuffle:

    scan 1  per-batch token counts -> per-block (d, w) Count-Min
            partial -> Ray-task tree SUM merge (driver receives only
            the final d*w*8-byte sketch);
    scan 2  per-batch token counts -> CM estimate (sketch broadcast
            via ray.put + per-process cache) -> keep terms with
            est >= threshold (CM overestimates: a SUPERSET of the true
            heavy hitters, zero false negatives) -> two-phase exact
            SUM over the tiny survivor key space -> final >= threshold
            filter on the exact totals.

    Shuffle volume is O(survivors x blocks), bounded by the CM error
    (~2N/w extra mass per row): size w ~ corpus_tokens/threshold for
    tight pruning.  Returns a Dataset of (term, n)."""
    import ray

    from .agg import two_phase_agg
    from .knn import cached_state
    from .text import tokenize_series

    def batch_counts(b: pd.DataFrame) -> pd.DataFrame:
        toks = tokenize_series(b[text_col]).explode().dropna()
        vc = toks.value_counts()
        return pd.DataFrame({"term": vc.index,
                             "n": vc.to_numpy(np.int64)})

    def block_sketch(b: pd.DataFrame) -> pd.DataFrame:
        c = batch_counts(b)
        cm = np.zeros((d, w), dtype=np.int64)
        if len(c):
            cm_add(cm, _term_hash(c["term"]), c["n"].to_numpy())
        return pd.DataFrame({"cm": [cm.tobytes()]})

    @ray.remote
    def sum_merge(*parts):
        out = np.zeros((d, w), dtype=np.int64)
        for p in parts:
            if isinstance(p, bytes):
                out += np.frombuffer(p, dtype=np.int64).reshape(d, w)
            else:
                for buf in p["cm"].to_pylist():
                    out += np.frombuffer(buf, dtype=np.int64).reshape(d, w)
        return out.tobytes()

    refs = ds.map_batches(block_sketch, batch_format="pandas").to_arrow_refs()
    level = list(refs)
    while len(level) > 1:
        level = [sum_merge.remote(*level[i:i + fanin])
                 for i in range(0, len(level), fanin)]
    merged = ray.get(level[0]) if level else np.zeros((d, w), np.int64).tobytes()
    if not isinstance(merged, bytes):
        merged = ray.get(sum_merge.remote(merged))
    cm_ref = ray.put(np.frombuffer(merged, dtype=np.int64).reshape(d, w))

    def survivors(b: pd.DataFrame) -> pd.DataFrame:
        cm = cached_state(f"cm-{cm_ref.hex()}", lambda: ray.get(cm_ref))
        c = batch_counts(b)
        if len(c) == 0:
            return c
        est = cm_estimate(cm, _term_hash(c["term"]))
        return c[est >= threshold]

    totals = two_phase_agg(ds, survivors, ["term"], ["n"])

    def final(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["n"] >= threshold]

    return totals.map_batches(final, batch_format="pandas")


# ---------------------------------------------------------------------------
# KLL quantile sketch (Karnin-Lang-Liberty 2016) — the mergeable
# bounded-memory quantile path when the exact mergeable-histogram plan
# (agg.quantile_disc_from_histogram) is unaffordable because the value
# domain is continuous / unbounded.  Deterministic variant: the
# compaction coin is the per-level compaction counter's parity, so a
# sketch over the same multiset in the same arrival order reproduces
# exactly (process-independent; no Python hash or RNG state).


class KLL:
    """Fixed-capacity-per-level compactor hierarchy; level i items
    carry weight 2^i.  Rank error is O(1/k) of n."""

    def __init__(self, k: int = 256):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._coin = 0

    def add_many(self, values: np.ndarray) -> "KLL":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return self
        self.levels[0] = np.concatenate([self.levels[0], v])
        self.n += len(v)
        self._compress()
        return self

    def _compress(self):
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.k:
                buf = np.sort(self.levels[i], kind="mergesort")
                keep_odd = (self._coin & 1) == 1
                self._coin += 1
                promoted = buf[1::2] if keep_odd else buf[0::2]
                self.levels[i] = np.empty(0, dtype=np.float64)
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                self.levels[i + 1] = np.concatenate(
                    [self.levels[i + 1], promoted])
            i += 1

    def merge(self, other: "KLL") -> "KLL":
        for i, buf in enumerate(other.levels):
            while i >= len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[i] = np.concatenate([self.levels[i], buf])
        self.n += other.n
        self._coin += other._coin
        self._compress()
        return self

    def _weighted(self):
        vals, wts = [], []
        for i, buf in enumerate(self.levels):
            if len(buf):
                vals.append(buf)
                wts.append(np.full(len(buf), 1 << i, dtype=np.int64))
        if not vals:
            return np.empty(0), np.empty(0, dtype=np.int64)
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        o = np.argsort(v, kind="mergesort")
        return v[o], w[o]

    def quantile(self, q: float) -> float:
        v, w = self._weighted()
        if len(v) == 0:
            return float("nan")
        cum = np.cumsum(w)
        target = max(1, int(np.ceil(q * cum[-1])))
        return float(v[np.searchsorted(cum, target)])


def grouped_quantiles_sketch(ds, key_cols: list[str], value_col: str,
                             qs=(0.5, 0.9, 0.99), k: int = 256):
    """Per-group approximate quantiles via mergeable KLL sketches:
    per-block partial sketches (bounded k*log(n) floats each) merge on
    the driver per group — the bounded-memory shape of
    approx_count_distinct, for continuous value domains where the
    exact integer-histogram plan cannot apply.  Rows-only by
    construction (approximate); accuracy pytest-bounded."""
    import pickle

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = []
        for key, g in b.groupby(key_cols, sort=False):
            sk = KLL(k).add_many(g[value_col].to_numpy(np.float64))
            row = {c: (key[i] if isinstance(key, tuple) else key)
                   for i, c in enumerate(key_cols)}
            row["sk"] = pickle.dumps(sk)
            out.append(row)
        return pd.DataFrame(out)

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    rows = []
    for key, g in parts.groupby(key_cols, sort=True):
        merged = None
        for blob in g["sk"]:
            sk = pickle.loads(blob)
            merged = sk if merged is None else merged.merge(sk)
        row = {c: (key[i] if isinstance(key, tuple) else key)
               for i, c in enumerate(key_cols)}
        for q in qs:
            row[f"p{int(q * 100)}"] = round(merged.quantile(q), 6)
        row["n"] = int(merged.n)
        rows.append(row)
    return pd.DataFrame(rows)
