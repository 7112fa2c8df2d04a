"""Keyed aggregation and the one bucket shuffle.

`bucketed_group_apply` is the only keyed hash-bucket shuffle in the
engine.  Every row gets a bucket column, hash(keys) % N_BUCKETS
(`pd.util.hash_pandas_object`), the rows shuffle on that 64-group
column through Ray's sort-based `groupby`, and `bucket_fn` runs ONCE
per bucket over all the groups the bucket holds.  This Ray version's
`groupby(keys).map_groups` degrades with group count (~25 s at 100k
groups) and pays a Python dispatch per group; 64 buckets keep the sort
small at any key cardinality.

Contract of `bucket_fn`: its input holds every row of each of its keys
and NOT the bucket column; it owns its per-group semantics (vectorized
groupby / sort+shift / drop_duplicates, or a loop over the groups of
the bucket).  The bucket count only decides where rows are placed,
never the answers, so it is one module constant.

`two_phase_agg` is the SUM aggregation on top of it: a per-batch
partial collapses each block to O(distinct keys per block) rows, and
the combine over partials is either that bucket shuffle
(combine="shuffle", the default: safe for unbounded key spaces such as
vocabularies and n-grams) or one pandas groupby on the driver
(combine="driver": ONLY for provably bounded key spaces — grid cells at
a fixed resolution, enum-like keys — where it skips the all-to-all).

`page` is the one ranked-page kernel: a stable sort on (key, *by),
ranks offset+1 .. offset+k of every key, and an int64 `rank` column
counted from 1 after the offset.  Ties on the whole sort key keep the
input row order; NaN sorts after every number (pandas na_position
"last"), ties among NaNs broken by the later `by` columns.  Every
top-k in the engine is a per-block partial of k+offset rows per key
(`page`, or a probe's own selector such as `knn.topk_select`) merged
by `page`:

  - a broadcast (bounded) key side merges on the driver
    (`driver_page`, or `page(collect(partials))` after a probe's
    selector): the partials that reach it are at most
    blocks x keys x (k+offset) rows;
  - a keyed, unbounded key side merges in `bucketed_group_apply` on
    the key, one `page` call per bucket, since that driver bound
    grows with the query count.

`collect` is the typed driver collect: a Dataset with no rows still
comes back with the columns and dtypes of its schema.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np
import pandas as pd

# buckets of the keyed shuffle: rows per bucket, not answers, depend on it
N_BUCKETS = 64

# Plan thresholds.  Each is read at call time by the stage that owns
# the rule, so a test pins a branch with monkeypatch.setattr; the plans
# on both sides of a threshold give the same answers.
# int64 keys a stage broadcasts as one sorted array (4M = 32 MB) before
# it falls back to a keyed join
BROADCAST_KEYS_MAX = 4_000_000
# rows of the small side of an interval or rect join that are broadcast
# and scanned per probe batch before the bucket/tile-keyed join takes over
BROADCAST_SCAN_MAX = 100_000


def _per_key(df: pd.DataFrame, key, v) -> np.ndarray:
    """A page bound (int, or {key value: int}, absent keys 0) per row."""
    if isinstance(v, Mapping):
        return df[key].map(v).fillna(0).to_numpy(np.int64)
    return np.full(len(df), v, dtype=np.int64)


def _keep_max(k, offset) -> int:
    """The rows per key a partial must keep: max of k + offset over the
    keys the mappings name and any key they do not."""

    def at(v, q):
        return v.get(q, 0) if isinstance(v, Mapping) else v

    keys = {object()}.union(*(v for v in (k, offset)
                              if isinstance(v, Mapping)))
    return max(int(at(k, q)) + int(at(offset, q)) for q in keys)


def page(df: pd.DataFrame, by, k, offset=0, key=None,
         descending=()) -> pd.DataFrame:
    """Ranks offset+1 .. offset+k of every `key` group (the whole frame
    when key is None) in `by` order, `descending` naming the `by`
    columns that sort high-first.  `k` and `offset` are ints or
    {key value: int} mappings (an absent key keeps no row).  Returns
    the kept rows, in (key, *by) order, with an int64 `rank` column
    1-based after the offset (replacing any `rank` the input had)."""
    if len(df) == 0:
        return df.assign(rank=np.zeros(0, dtype=np.int64))
    cols = by if key is None else [key, *by]
    df = df.sort_values(cols, ascending=[c not in descending for c in cols],
                        kind="mergesort")
    rn = (np.arange(len(df)) if key is None
          else df.groupby(key, sort=False).cumcount().to_numpy())
    off = _per_key(df, key, offset)
    keep = (rn >= off) & (rn < off + _per_key(df, key, k))
    out = df[keep].reset_index(drop=True)
    out["rank"] = (rn[keep] - off[keep] + 1).astype(np.int64)
    return out


def collect(ds) -> pd.DataFrame:
    """The Dataset on the driver as one DataFrame.  With no rows,
    `to_pandas()` has no columns; the frame is then built empty from
    the materialized Dataset's schema.  Ray records no schema when no
    block reached the last map (a fused map does not run on an empty
    block); the frame is then column-less."""
    import pyarrow as pa

    ds = ds.materialize()
    df = ds.to_pandas()
    sch = ds.schema()
    if len(df.columns) or sch is None:
        return df
    base = sch.base_schema
    if isinstance(base, pa.Schema):
        return base.empty_table().to_pandas()
    return pd.DataFrame({n: pd.Series([], dtype=t)
                         for n, t in zip(base.names, base.types)})


def driver_page(ds, by, k, offset=0, key=None, descending=()) -> pd.DataFrame:
    """`page` over a whole Dataset whose keys are bounded (a broadcast
    query side, a global top-k): a per-block partial `page` of
    k+offset rows per key, the typed `collect`, and `page` over the
    partials.  Same arguments and result as `page`."""
    keep = _keep_max(k, offset)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return page(b, by, keep, key=key, descending=descending)

    return page(collect(ds.map_batches(partial, batch_format="pandas")),
                by, k, offset, key, descending)


def two_phase_agg(ds, partial_fn, keys, sums, combine: str = "shuffle"):
    """partial_fn: batch -> partial rows with `keys` + `sums` columns.
    Returns aggregated result with SUM over each column in `sums`.

    combine="shuffle" (default): the partials go through
    `bucketed_group_apply` and each bucket sums its keys with one Arrow
    (Acero) `group_by().aggregate`.  Returns a Dataset.
    combine="driver": one pandas groupby-sum on the driver — returns a
    DataFrame (with the `keys + sums` columns, also when empty); ONLY
    for provably bounded key spaces (see module docstring).
    """
    partials = ds.map_batches(partial_fn, batch_format="pandas")
    if combine == "shuffle":
        def combine_bucket(g):
            import pyarrow as pa

            out = g.group_by(list(keys)).aggregate(
                [(s, "sum") for s in sums])
            cols = {k: out[k] for k in keys}
            for s in sums:
                cols[s] = out[f"{s}_sum"]
            return pa.table(cols)

        return bucketed_group_apply(partials, keys, combine_bucket,
                                    batch_format="pyarrow")
    pdf = partials.to_pandas()
    if len(pdf) == 0:
        return pdf.reindex(columns=[*keys, *sums])
    out = pdf.groupby(keys, sort=True, as_index=False)[list(sums)].sum()
    return out


def default_join_partitions() -> int:
    """Hash-join partition count proportional to the cluster: each
    partition becomes an aggregator actor, so over-partitioning a
    small cluster pays pure actor-pool startup (measured ~6 s of a
    16 s pipeline at 8 CPUs), while under-partitioning a big one
    caps join parallelism and per-partition memory."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(4, cpus // 2)


def join_safe(ds, n_blocks: int = 16):
    """Prepare a bounded dataset to feed a hash `Dataset.join`:
    map_groups pipelines (bucketed_group_apply included) can emit a
    zero-column empty block, and Acero rejects a join input whose
    blocks disagree on schema ("No match ... for key field reference").
    A repartition concatenates the degenerate block away.  Use ONLY on
    bounded sides (pair lists, label tables, candidate sets) — it is a
    small all-to-all."""
    return ds.repartition(n_blocks)


def ensure_schema(ds, dtypes: dict):
    """Pin every block to exactly `dtypes` (column order + dtype).

    Hash-join OUTPUT partitions that received no rows, and
    repartition() over an all-empty dataset, emit schema-LESS empty
    blocks; feeding one to the next Acero join fails with "No match
    for key field reference", and pandas map functions KeyError on the
    missing columns.  A cheap map_batches re-type (no shuffle) makes
    chained joins and downstream maps safe at any data size.

    CAST CONTRACT (intentional, round-4 ADVICE): pyarrow's
    safe-by-default Table.cast RAISES on lossy casts (out-of-range,
    non-integral float->int) where the old pandas astype silently
    truncated.  That is the behavior we want on join paths — a stage
    emitting loosely-typed blocks should fail loudly here, not ship
    silently corrupted keys into a join."""
    import numpy as np
    import pyarrow as pa

    cols = list(dtypes)
    schema = pa.schema([(c, pa.from_numpy_dtype(np.dtype(t)))
                        for c, t in dtypes.items()])

    def fix(t: pa.Table) -> pa.Table:
        # pyarrow-native: select + cast, no pandas round-trip (this
        # sits on every join path, so the conversion cost is per-block
        # per-stage).  Empty/schema-less blocks get the typed schema.
        if t.num_rows == 0:
            return schema.empty_table()
        return t.select(cols).cast(schema)

    return ds.map_batches(fix, batch_format="pyarrow")


def membership_filter(probe_ds, keys_ds, probe_col: str, key_col: str,
                      keep: bool = True):
    """EXACT semi- (keep=True) / anti- (keep=False) join filter: the
    probe rows whose int64 `probe_col` is (not) among `keys_ds`'s
    `key_col` values, each probe row at most once.

    Owns the size policy: the key side is materialized and counted.
    Up to BROADCAST_KEYS_MAX keys, the sorted distinct key array ships
    once per worker process (ray.put + per-process cache) and each
    probe batch is filtered by one vectorized searchsorted — no shuffle
    of either side, no join aggregator pool (whose startup alone costs
    ~1-2 s per join on this Ray version).  Above it, the two sides meet
    in a keyed `left_semi` / `left_anti` hash join."""
    import numpy as np
    import ray

    from .knn import cached_state

    keys_ds = keys_ds.materialize()
    if keys_ds.count() > BROADCAST_KEYS_MAX:
        n_parts = default_join_partitions()
        keys_in, _ = join_input(keys_ds.select_columns([key_col]), n_parts)
        return join_safe(probe_ds, n_parts).join(
            keys_in, "left_semi" if keep else "left_anti", n_parts,
            on=(probe_col,), right_on=(key_col,))

    karr = np.sort(np.unique(np.concatenate([
        b[key_col].to_numpy(np.int64)
        for b in keys_ds.iter_batches(batch_format="pandas")
    ] or [np.array([], dtype=np.int64)])))
    ref = ray.put(karr)

    def f(b: pd.DataFrame) -> pd.DataFrame:
        ks = cached_state(f"memb-{ref.hex()}", lambda: ray.get(ref))
        if len(b) == 0:
            return b
        if len(ks) == 0:
            return b.iloc[0:0] if keep else b
        pv = b[probe_col].to_numpy(np.int64)
        pos = np.searchsorted(ks, pv)
        pos[pos >= len(ks)] = 0
        isin = ks[pos] == pv
        return b[isin] if keep else b[~isin]

    return probe_ds.map_batches(f, batch_format="pandas")


def join_input(ds, n_blocks: int | None = None):
    """Prepare one BOUNDED side of a hash `Dataset.join`: materialize,
    then repartition to <= the row count so NO block is empty.
    Returns (dataset, row_count).

    Why: Ray's hash-shuffle join broadcasts each input's schema only
    with the FIRST shuffle task of that input (hash_shuffle.py:584,
    `should_broadcast_schemas`); `_shuffle_block` returns before
    broadcasting when its block has zero rows (hash_shuffle.py:223),
    but the flag is still flipped — so if the first block happens to
    be empty, aggregators whose partition receives no rows finalize a
    schema-LESS empty table and Acero rejects the join ("No match for
    key field reference").  All-non-empty input blocks make the first
    task always carry schema.  The count is free post-materialize and
    lets callers early-exit the n == 0 case (where no repartitioning
    can help — skip the join entirely)."""
    n_blocks = n_blocks or default_join_partitions()
    mat = ds.materialize()
    n = mat.count()
    if n == 0:
        return mat, 0
    return mat.repartition(max(1, min(n_blocks, n))), n


def bucketed_group_apply(ds, keys, bucket_fn, batch_format: str = "pandas"):
    """Keyed-group work at UNBOUNDED group counts: co-locate rows by
    hash(keys) % N_BUCKETS (every row of a key lands in exactly one
    bucket) and run `bucket_fn` ONCE PER BUCKET over all its groups.

    bucket_fn: the bucket's rows WITHOUT the `_bucket` column -> rows,
    as a pandas DataFrame or a pyarrow Table (`batch_format`).  It
    implements the per-group semantics itself (vectorized groupby /
    drop_duplicates / agg calls, or a loop over the bucket's groups)."""

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(_bucket=pd.Series([], dtype="uint64"))
        h = pd.util.hash_pandas_object(b[list(keys)], index=False)
        return b.assign(_bucket=h.to_numpy() % N_BUCKETS)

    if batch_format == "pandas":
        def run(g):
            return bucket_fn(g.drop(columns=["_bucket"]))
    else:
        def run(g):
            return bucket_fn(g.drop_columns(["_bucket"]))

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("_bucket")
        .map_groups(run, batch_format=batch_format)
    )


def quantile_disc_from_histogram(values, counts, q: float) -> int:
    """percentile_disc over a value histogram: the smallest value whose
    cumulative count reaches ceil(q * n).  `values` must be sorted
    ascending; exact for integer domains (the histogram IS the sorted
    multiset) — DuckDB quantile_disc semantics."""
    import numpy as np

    values = np.asarray(values)
    cum = np.cumsum(np.asarray(counts, dtype=np.int64))
    target = int(np.ceil(q * cum[-1]))
    return values[np.searchsorted(cum, target)]


def _col_us(series) -> "pd.Series":
    """Timestamp-like column -> int64 microseconds (int columns pass
    through)."""
    import numpy as np

    v = series.to_numpy()
    if np.issubdtype(v.dtype, np.datetime64):
        return v.astype("datetime64[us]").astype(np.int64)
    return v.astype(np.int64)


def interval_join(points_ds, intervals_ds, ts_col, t0_col, t1_col,
                  bucket_us: int):
    """Distributed INTERVAL (range-containment) join: every point row
    is matched to every interval row with t0 <= ts < t1, with NO
    equi-key — the pure range predicate.  Reference analogue: the
    R-tree range search over 1-D extents (rtree.go:553-580's bbox
    overlap test restricted to one axis).

    Scale shape (the standard distributed interval join): time is cut
    into `bucket_us`-wide buckets; each INTERVAL is replicated to every
    bucket it overlaps (vectorized np.repeat), each POINT lands in
    exactly ONE bucket, and the two sides meet in the native hash join
    on the bucket id — an equi-join the engine partitions by
    hash(bucket), so no side is broadcast and no all-to-all sort runs.
    The exact containment predicate filters the per-bucket candidates.
    A point matches an interval in exactly one bucket (its own), so the
    output needs no dedup.  Pick bucket_us on the order of the typical
    interval length: replication factor = len/bucket_us + 1, while the
    per-bucket candidate count shrinks with narrower buckets.

    Caller contract: the two sides share NO column names; `ts_col` on
    points and `t0_col`/`t1_col` on intervals may be datetime64 or
    int64 microseconds.  Returns the joined Dataset with both sides'
    columns (timestamps preserved as-is; the bucket id is dropped).

    Adaptive: an interval side with <= BROADCAST_SCAN_MAX rows is
    broadcast whole (ray.put once, per-worker-process cache) and the
    join becomes a per-batch vectorized containment scan over the
    streaming point side — no shuffle of EITHER side, no join
    aggregator pool.  The bucketized join below is the
    unbounded-intervals path.
    """
    import numpy as np

    intervals_ds = intervals_ds.materialize()
    if intervals_ds.count() <= BROADCAST_SCAN_MAX:
        return _interval_join_broadcast(points_ds, intervals_ds,
                                        ts_col, t0_col, t1_col)

    def tag_points(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(_tb=pd.Series([], dtype="int64"))
        return b.assign(_tb=_col_us(b[ts_col]) // bucket_us)

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return b.assign(_tb=pd.Series([], dtype="int64"))
        t0 = _col_us(b[t0_col])
        t1 = _col_us(b[t1_col])
        b0 = t0 // bucket_us
        b1 = np.maximum(t1 - 1, t0) // bucket_us  # t1 exclusive
        counts = b1 - b0 + 1
        idx = np.repeat(np.arange(len(b)), counts)
        offs = np.arange(counts.sum()) - np.repeat(
            np.cumsum(counts) - counts, counts)
        out = b.iloc[idx].reset_index(drop=True)
        out["_tb"] = b0[idx] + offs
        return out

    n_part = default_join_partitions()
    pts = points_ds.map_batches(tag_points, batch_format="pandas")
    ivs = intervals_ds.map_batches(replicate, batch_format="pandas")
    joined = join_safe(pts).join(join_safe(ivs), "inner", n_part,
                                 on=("_tb",))

    def contain(b: pd.DataFrame) -> pd.DataFrame:
        ts = _col_us(b[ts_col])
        keep = (ts >= _col_us(b[t0_col])) & (ts < _col_us(b[t1_col]))
        return b[keep].drop(columns=["_tb"])

    return joined.map_batches(contain, batch_format="pandas")


def _interval_join_broadcast(points_ds, intervals_mat, ts_col,
                             t0_col, t1_col):
    """Small-interval-side interval join: the interval table rides the
    object store once (per-worker-process cache).  Each point batch is
    matched by ONE sorted searchsorted sweep — sort the batch's
    timestamps once, binary-search every interval's [t0, t1) bounds,
    and gather the hit ranges vectorized: O(n log n + m log n + hits),
    no per-interval mask pass, zero shuffle.  Interval-side columns
    that collide with point-side names get an ``_iv`` suffix (both the
    hit and the empty schema, so block schemas stay consistent)."""
    import numpy as np
    import ray

    from .knn import cached_state

    iv_df = intervals_mat.to_pandas()
    ref = ray.put(iv_df)

    def match(b: pd.DataFrame) -> pd.DataFrame:
        iv = cached_state(f"ivjoin-{ref.hex()}", lambda: ray.get(ref))
        iv_out = [c + "_iv" if c in b.columns else c for c in iv.columns]

        def empty() -> pd.DataFrame:
            cols = {c: pd.Series([], dtype=b[c].dtype) for c in b.columns}
            for c, oc in zip(iv.columns, iv_out):
                cols[oc] = pd.Series([], dtype=iv[c].dtype)
            return pd.DataFrame(cols)

        if len(b) == 0 or len(iv) == 0:
            return empty()
        ts = _col_us(b[ts_col])
        t0 = _col_us(iv[t0_col])
        t1 = _col_us(iv[t1_col])
        order = np.argsort(ts, kind="stable")
        tss = ts[order]
        lo = np.searchsorted(tss, t0, side="left")
        hi = np.searchsorted(tss, t1, side="left")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return empty()
        ii = np.repeat(np.arange(len(iv)), counts)
        offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
        pi = order[lo[ii] + offs]
        left = b.iloc[pi].reset_index(drop=True)
        right = iv.iloc[ii].reset_index(drop=True)
        right.columns = iv_out
        return pd.concat([left, right], axis=1)

    return points_ds.map_batches(match, batch_format="pandas")


def asof_join_tagged(ds, key, ts_col, side_col, left_val, right_val,
                     right_cols, rsuffix: str = "_r"):
    """Keyed backward AS-OF join over ONE tagged stream: each left-side
    row (side_col == left_val) is matched to the right-side row
    (side_col == right_val) with the greatest ts_col <= its own, per
    key.  Inner semantics: left rows with no predecessor drop.

    Operating on one tagged stream (type column over a shared log — the
    events-table shape) sidesteps two-dataset schema alignment and is
    how temporal logs arrive at scale anyway.

    Scale shape: keys are UNBOUNDED, so this is the bucket shuffle on
    the key (`bucketed_group_apply`) + ONE vectorized
    `pd.merge_asof(by=key)` per bucket over all its keys — no per-key
    task, no global sort.  Matched right columns are emitted with
    `rsuffix`.
    """

    def sides(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[side_col].isin([left_val, right_val])]

    out_r = [f"{c}{rsuffix}" for c in right_cols]

    payload = [c for c in right_cols if c != ts_col]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g[side_col] == left_val].drop(columns=[side_col])
        r = g[g[side_col] == right_val][[key, ts_col, *payload]]
        r = r.rename(columns={c: f"{c}{rsuffix}" for c in payload})
        if ts_col in right_cols:
            # the on-column survives from the LEFT side only; carry the
            # matched right timestamp as an explicit suffixed copy
            r[f"{ts_col}{rsuffix}"] = r[ts_col]
        if len(l) == 0 or len(r) == 0:
            return l.head(0).assign(
                **{c: pd.Series([], dtype=r.dtypes.get(c, "object"))
                   for c in out_r}
            )
        m = pd.merge_asof(
            l.sort_values(ts_col, kind="mergesort"),
            r.sort_values(ts_col, kind="mergesort"),
            on=ts_col, by=key, direction="backward",
            suffixes=("", rsuffix),
        )
        # inner semantics: drop lefts with no predecessor
        return m[m[out_r[0]].notna()]

    return bucketed_group_apply(
        ds.map_batches(sides, batch_format="pandas"), [key], join_bucket)


def funnel_steps(ds, key: str, ts_col: str, type_col: str,
                 steps: list[str], horizon_us: int):
    """FUNNEL analysis with earliest-anchor greedy matching (the
    classic product-analytics semantics): per key, t1 = earliest
    steps[0] event; t_{i+1} = earliest steps[i+1] event in
    (t_i, t_i + horizon]; output one row per key with
    steps_completed in 0..len(steps).

    Scale shape: bucket-hash on the key (unbounded key spaces — the
    sessionize/lag pattern); inside a bucket every funnel step is one
    vectorized map-prev + mask + groupby-min over all the bucket's
    keys at once, never per-key Python.  Reference analogue: the
    staged status resolution of the geofence transition matrix
    (fence_index.go:50-73) applied to an ordered event sequence."""
    import numpy as np

    H = pd.Timedelta(microseconds=horizon_us)

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key].unique()
        reached = pd.Series(np.int64(0), index=keys)
        cur = None
        for i, step in enumerate(steps):
            rows = g[g[type_col] == step]
            if i > 0:
                pv = rows[key].map(cur)
                rows = rows[(rows[ts_col] > pv) & (rows[ts_col] <= pv + H)]
            cur = rows.groupby(key)[ts_col].min()
            if cur.empty:
                break
            reached.loc[cur.index] = np.int64(i + 1)
        return pd.DataFrame({key: reached.index.to_numpy(np.int64),
                             "steps_completed": reached.to_numpy(np.int64)})

    return bucketed_group_apply(ds, [key], funnel_bucket)


def dictionary_encode(ds, col: str, out_col: str | None = None,
                      id_cols: list[str] | None = None):
    """CATEGORICAL DICTIONARY ENCODING (the feature-tag encode of the
    reference's tag pipeline, osm_object.go's tag id map, re-expressed
    columnar): assign each distinct value of `col` its dense rank in
    LEXICOGRAPHIC order (deterministic across runs and engines), then
    stream the mapping over the dataset.

    Scale shape: per-batch distinct -> small driver combine (the
    category space is bounded by construction — that is what makes a
    column categorical; an unbounded key space belongs in
    bucketed_group_apply instead) -> the sorted dict broadcasts in the
    task closure; the encode pass is one vectorized map per batch.
    Returns the dataset with `out_col` (int64) replacing `col` unless
    id_cols narrows the projection."""
    import numpy as np

    out_col = out_col or f"{col}_id"
    parts = ds.map_batches(
        lambda b: b[[col]].drop_duplicates(), batch_format="pandas"
    ).to_pandas()
    values = np.sort(parts[col].unique())
    mapping = {v: np.int64(i) for i, v in enumerate(values)}

    def encode(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b[out_col] = b[col].map(mapping).astype(np.int64)
        cols = (id_cols + [out_col]) if id_cols else \
            [c for c in b.columns if c != col]
        return b[cols]

    return ds.map_batches(encode, batch_format="pandas")


def watermark_late(ds, seq_col: str, ts_col: str, lateness_us: int,
                   range_size: int = 4096, keep_cols: list[str] | None = None):
    """LATE-DATA DETECTION under a max-event-time watermark (the
    streaming-ingestion gate the reference's per-event geofence flow
    implies but never needed single-process, fence_index.go:50-73): an
    event is LATE iff the watermark — the maximum event time seen
    strictly BEFORE it in arrival order (`seq_col`) — exceeds its own
    event time by more than `lateness_us`.

    This is a PREFIX-MAX over arrival order, distributed in two passes
    so no global sort touches the data:

      pass 1  per-arrival-range (seq // range_size) MAX(ts): per-batch
              partials collapse to O(ranges-per-block) rows, the
              combine is driver-side over a BOUNDED set (#ranges —
              size range_size to the cluster so #ranges stays ~1e5
              even at 1e9 events, a few MB);
      carry   exclusive running max across sorted range ids (tiny
              driver numpy scan) -> broadcast dict;
      pass 2  the range id becomes a `_range` column and
              `bucketed_group_apply` shuffles on it (range count grows
              with data, so no groupby(range).map_groups); within a
              bucket ONE vectorized sort + per-range cythonized
              cummax/shift gives the in-range exclusive prefix;
              watermark = max(carry-in, in-range prefix).

    Returns a Dataset of the late rows only: keep_cols + ts + wm_ts
    (datetime64[us]) + late_us (int64), typed also when empty."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    keep_cols = list(keep_cols or [seq_col])

    def range_partial(b: pd.DataFrame) -> pd.DataFrame:
        r = (b[seq_col].to_numpy(np.int64) // range_size)
        t = _col_us(b[ts_col])
        return pd.DataFrame({"_range": r, "_mx": t}).groupby(
            "_range", sort=False, as_index=False).max()

    parts = ds.map_batches(range_partial, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        # no events: the late-row schema, input types where the stream
        # still has a schema (int64 ids and us timestamps otherwise)
        sch = ds.schema()
        known = dict(zip(sch.names, sch.types)) if sch is not None else {}
        return rd.from_arrow(pa.schema(
            [(c, known.get(c, pa.int64())) for c in keep_cols]
            + [(ts_col, known.get(ts_col, pa.timestamp("us"))),
               ("wm_ts", pa.timestamp("us")), ("late_us", pa.int64())]
        ).empty_table())
    rng_max = parts.groupby("_range", sort=True)["_mx"].max()
    ids = rng_max.index.to_numpy(np.int64)
    mx = rng_max.to_numpy(np.int64)
    excl = np.empty_like(mx)
    excl[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(mx[:-1], out=mx[:-1])
    excl[1:] = mx[:-1]
    carry = {int(i): int(v) for i, v in zip(ids, excl)}

    def add_range(b: pd.DataFrame) -> pd.DataFrame:
        return b.assign(_range=b[seq_col].to_numpy(np.int64) // range_size)

    def late_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.assign(_us=_col_us(g[ts_col]))
        g = g.sort_values(["_range", seq_col], kind="mergesort")
        grp = g.groupby("_range", sort=False)
        in_range = grp["_us"].cummax().groupby(
            g["_range"], sort=False).shift(1)
        carry_in = g["_range"].map(carry).astype(np.int64)
        wm = np.maximum(
            carry_in.to_numpy(np.int64),
            in_range.fillna(np.iinfo(np.int64).min).to_numpy(np.int64),
        )
        us = g["_us"].to_numpy(np.int64)
        # the first event overall has no watermark (sentinel int64.min:
        # subtracting would wrap) — it can never be late
        valid = wm != np.iinfo(np.int64).min
        diff = np.zeros_like(us)
        diff[valid] = wm[valid] - us[valid]
        late = valid & (diff > lateness_us)
        out = g.loc[late, keep_cols + [ts_col]].copy()
        out["wm_ts"] = wm[late].astype("datetime64[us]")
        out["late_us"] = diff[late]
        return out

    return bucketed_group_apply(
        ds.map_batches(add_range, batch_format="pandas"), ["_range"],
        late_bucket)


def keyed_prefix_sum(ds, key: str, seq_col: str, val_col: str,
                     range_size: int = 4096):
    """Per-key EXCLUSIVE running sum of `val_col` over `seq_col` order
    — the distributed window-function SUM() OVER (PARTITION BY key
    ORDER BY seq), with no global sort: the watermark_late two-pass
    prefix shape, keyed.

      pass 1  per (key, seq-range) partial sums — bounded by
              #keys x #ranges rows on the driver (size range_size so
              this stays small; it is the scan state, not the data);
      carry   per-key exclusive prefix over sorted range ids (driver
              numpy scan over the bounded state);
      pass 2  bucket-hash on (key, range): within a bucket one
              vectorized sort + per-(key,range) cython cumsum, plus
              the broadcast carry-in.

    Returns the input rows + `prefix_excl` (int64)."""
    import numpy as np

    def range_partial(b: pd.DataFrame) -> pd.DataFrame:
        r = b[seq_col].to_numpy(np.int64) // range_size
        return pd.DataFrame({key: b[key].to_numpy(),
                             "_range": r,
                             "_s": b[val_col].to_numpy(np.int64)}) \
            .groupby([key, "_range"], sort=False, as_index=False).sum()

    parts = ds.map_batches(range_partial, batch_format="pandas").to_pandas()
    carry: dict = {}
    if len(parts):
        parts = parts.groupby([key, "_range"], sort=True, as_index=False) \
            .sum().sort_values([key, "_range"], kind="mergesort")
        k = parts[key].to_numpy()
        s = parts["_s"].to_numpy(np.int64)
        cum = np.cumsum(s)
        first = np.zeros(len(parts), dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        cum_prev = np.concatenate([[0], cum[:-1]])
        # subtract each key's own start-of-key cumulative. Forward-fill
        # the key-start *row index* (monotone by construction), not the
        # cumulative value — maximum.accumulate over values is wrong
        # when val_col can be negative (the running sum can dip below a
        # previous key's start).
        start_idx = np.maximum.accumulate(
            np.where(first, np.arange(len(parts)), 0))
        excl = np.where(first, 0, cum_prev - cum_prev[start_idx])
        carry = {(kk, int(rr)): int(vv) for kk, rr, vv in
                 zip(k, parts["_range"].to_numpy(np.int64), excl)}

    def bucket_fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["_range"] = g[seq_col].to_numpy(np.int64) // range_size
        g = g.sort_values([key, "_range", seq_col], kind="mergesort")
        v = g[val_col].to_numpy(np.int64)
        grp = g.groupby([key, "_range"], sort=False)
        within = grp[val_col].cumsum().to_numpy(np.int64) - v
        cin = np.fromiter(
            (carry[(kk, int(rr))] for kk, rr in
             zip(g[key].to_numpy(), g["_range"].to_numpy(np.int64))),
            dtype=np.int64, count=len(g))
        g["prefix_excl"] = within + cin
        return g.drop(columns=["_range"])

    return bucketed_group_apply(ds, [key], bucket_fn)
