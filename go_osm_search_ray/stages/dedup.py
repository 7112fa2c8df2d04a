"""Deduplication operators (reference D3 + training-data scale additions).

- exact_dedup: content-hash -> hash-partition groupby -> per-group min id
  (the "exact dedup = hash-partition + per-group first" pattern).
- name_bbox_dedup: the reference's near-dedup semantics
  (indexer.go:582-618): same normalized name AND bbox containment.
  Re-expressed as groupby(norm_name) + in-group spatial resolution —
  no shared mutable map.
- minhash_lsh_pairs: MinHash + banded LSH candidate generation with
  exact-Jaccard verification (the near-dup path for 100 TB text).
- simhash_signatures: 64-bit SimHash per doc + Hamming-bucket pairs.
- jaccard_pairs: exact n-gram-shingle Jaccard pairs via shingle-key
  shuffle (the SQL-checkable oracle for near-dup).

All hashing is process-independent (md5 / FNV), never Python hash().
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .text import (_windows, doc_token_counts, md5_64, row_distinct,
                   tokenize_flat_arrow)


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode()).hexdigest()


def _shingle_sets(texts, k: int):
    """(row, hash) of every row's DISTINCT k-token shingles, sorted by
    (row, hash): hash = md5-64 of the space-joined shingle, one md5 per
    distinct shingle of the batch.  A row with fewer than k tokens has
    one shingle, its whole token list; an empty row has none."""
    sh = _windows(tokenize_flat_arrow(texts), k, whole_short=True)
    return row_distinct(sh.row, sh.md5())


# ---------------------------------------------------------------------------
# exact dedup


def exact_dedup(ds, id_col="doc_id", text_col="text", normalize: bool = True):
    """Keep the min-id doc per (normalized) content hash.

    Matches DuckDB over COALESCE(text, ''):
    md5(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')) when
    normalize else md5(text).  A null text reads as '', as in every
    tokenizing stage.

    The group count equals the distinct-content count (~corpus size),
    so the combine is a BUCKET-hash shuffle + one vectorized
    sort+drop_duplicates per bucket — never a sort over billions of
    hash groups or a per-group Python task (stages/agg.py).
    """
    import pyarrow.compute as pc

    from .agg import bucketed_group_apply

    def add_hash(batch: pa.Table) -> pa.Table:
        """pyarrow-native (round-5): the full-corpus text column stays
        a zero-copy arrow buffer; lower + regex-normalize run as RE2
        kernels and only the per-doc md5 (inherent) touches Python.
        Output is the slim (text_hash, id) projection."""
        txt = pc.fill_null(batch[text_col].cast(pa.string()), "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        if normalize:
            txt = pc.replace_substring_regex(
                pc.utf8_lower(txt), "[^a-z0-9]+", " ")
        keys = pa.array([md5_hex(s) for s in txt.to_pylist()], pa.string())
        return pa.table({"text_hash": keys, id_col: batch[id_col]})

    def keep_min(g: pd.DataFrame) -> pd.DataFrame:
        return (
            g.sort_values(id_col, kind="mergesort")
            .drop_duplicates("text_hash", keep="first")
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    return bucketed_group_apply(hashed, ["text_hash"], keep_min)


# ---------------------------------------------------------------------------
# reference D3: same-name + bbox containment dedup (indexer.go:582-618)


def name_bbox_dedup(ds, name_col="name", lat_col="lat", lon_col="lon",
                    id_col="point_id"):
    """Keep one representative per lowercased name when one record's
    bbox (grown union of its sightings) contains the other.  In-group
    resolution: ascending id order, drop a record if an earlier kept
    record's running bbox contains its point; else keep and grow the
    bbox — deterministic equivalent of the reference's encounter-order
    map (indexer.go:156-165)."""

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        kept_idx = []
        box = None  # (lat0, lat1, lon0, lon1)
        for row in g.itertuples():
            lat, lon = getattr(row, lat_col), getattr(row, lon_col)
            if box is not None and box[0] <= lat <= box[1] and box[2] <= lon <= box[3]:
                continue
            kept_idx.append(row.Index)
            if box is None:
                box = (lat, lat, lon, lon)
            else:
                box = (min(box[0], lat), max(box[1], lat),
                       min(box[2], lon), max(box[3], lon))
        return g.loc[kept_idx]

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["norm_name"] = batch[name_col].str.lower()
        return batch

    from .agg import bucketed_group_apply

    def resolve_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # the in-group resolution is inherently sequential (running
        # bbox), but the SHUFFLE is a 64-bucket hash, not a sort over
        # every distinct name
        frames = [resolve(grp) for _, grp in g.groupby("norm_name", sort=False)]
        return pd.concat(frames) if frames else g.head(0)

    return bucketed_group_apply(
        ds.map_batches(norm, batch_format="pandas"),
        ["norm_name"], resolve_bucket,
    )


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup


class MinHasher:
    """Vectorized minhash signatures; permutations are (a*h+b) mod p
    over 64-bit shingle hashes (universal hashing)."""

    MERSENNE = np.uint64((1 << 61) - 1)

    def __init__(self, num_perm: int = 128, seed: int = 1):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, 1 << 61, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, 1 << 61, num_perm, dtype=np.uint64)
        self.num_perm = num_perm

    def signature(self, shingle_hashes: np.ndarray) -> np.ndarray:
        if len(shingle_hashes) == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        h = shingle_hashes[:, None]
        vals = (self.a[None, :] * h + self.b[None, :]) % self.MERSENNE
        return vals.min(axis=0)


def minhash_lsh_pairs(ds, id_col="doc_id", text_col="text", k_shingle: int = 3,
                      num_perm: int = 128, bands: int = 16, threshold: float = 0.5,
                      output: str = "jaccard"):
    """Near-dup pairs: shingle -> minhash -> banded buckets -> candidate
    pairs (signature-estimated Jaccard prefilter) -> exact-Jaccard
    verify of the SURVIVING candidates only.  Returns a Dataset with
    id_a < id_b and exact jaccard >= threshold.

    output="jaccard": (id_a, id_b, jaccard rounded to 6).
    output="sizes":   (id_a, id_b, common, size_a, size_b) — the
    integer-exact form (hashes exactly against the SQL oracle; the
    repo's oracle design rule, pipelines/queries.py:6-11).

    Scale shape: the banding shuffle moves ONLY (band, bucket, doc_id,
    signature) — a signature is a fixed num_perm*8 bytes, independent of
    document length, so per-doc shuffle bytes are bands * (16 B bucket +
    1 KiB sig), never the corpus text (shipping each doc's shingle list
    in every band row would amplify the corpus x bands through the
    object store).  The exact verify is a KEYED plan end to end — no
    driver-side shingle sets:

      1. hash semi-join prunes the corpus to candidate docs,
      2. each candidate doc's sorted shingle-hash array (uint64 ->
         bytes; ~8 B per token, far smaller than the text) joins onto
         its pairs by id_a then id_b (hash joins),
      3. the exact intersection count runs vectorized per batch.

    Every stage is bounded by the candidate count per partition, so a
    web-corpus dup rate (candidates ~ O(corpus)) spills to the object
    store instead of the driver heap.
    """
    import ray.data as rd

    from .agg import default_join_partitions

    n_parts = default_join_partitions()
    rows_per_band = num_perm // bands
    hasher = MinHasher(num_perm)

    def shingle_lists(batch: pd.DataFrame) -> list[np.ndarray]:
        """Each row's sorted distinct shingle hashes."""
        row, h = _shingle_sets(batch[text_col], k_shingle)
        cut = np.searchsorted(row, np.arange(len(batch) + 1))
        return [h[a:b] for a, b in zip(cut[:-1], cut[1:])]

    def sig_rows(batch: pd.DataFrame) -> pd.DataFrame:
        """One (band, bucket, doc, signature) row per doc and band;
        bucket = md5 of the band's slice of the signature."""
        sigs = np.array([hasher.signature(h) for h in shingle_lists(batch)],
                        dtype=np.uint64).reshape(len(batch), num_perm)
        return pd.DataFrame({
            "band": np.tile(np.arange(bands), len(batch)),
            "bucket": [hashlib.md5(b.tobytes()).hexdigest()[:16]
                       for b in sigs.reshape(-1, rows_per_band)],
            id_col: np.repeat(batch[id_col].to_numpy(), bands),
            "sig": np.repeat(np.array([s.tobytes() for s in sigs],
                                      dtype=object), bands)})

    # prefilter slack: the signature estimate of a true >=threshold pair
    # is within ~5 sigma of truth at num_perm=128; half the threshold is
    # far below that band, so no true pair is lost here — the exact
    # verify below makes the final call
    est_floor = threshold * 0.5

    _empty_pairs = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64)})

    def cands_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _empty_pairs
        g = g.sort_values(id_col, kind="mergesort")
        ids = g[id_col].tolist()
        sigs = np.stack([np.frombuffer(s, dtype=np.uint64) for s in g["sig"]])
        ra, rb = [], []
        for i in range(len(ids) - 1):
            est = (sigs[i + 1 :] == sigs[i]).mean(axis=1)
            for off in np.nonzero(est >= est_floor)[0]:
                ra.append(ids[i])
                rb.append(ids[i + 1 + off])
        if not ra:
            return _empty_pairs
        return pd.DataFrame({"id_a": np.asarray(ra, dtype=np.int64),
                             "id_b": np.asarray(rb, dtype=np.int64)})

    from .agg import bucketed_group_apply

    def cands_hash_bucket(g: pd.DataFrame) -> pd.DataFrame:
        frames = [cands_in_bucket(grp)
                  for _, grp in g.groupby(["band", "bucket"], sort=False)]
        return (pd.concat(frames, ignore_index=True) if frames
                else _empty_pairs)

    cand = bucketed_group_apply(
        ds.map_batches(sig_rows, batch_format="pandas"),
        ["band", "bucket"], cands_hash_bucket,
    )
    # same pair surfaces from several bands -> bucketed distinct.
    # Materialized: the pair list re-enters three hash joins below, and
    # the zero-candidate early-out needs its count.
    from .agg import join_safe

    cand = join_safe(bucketed_group_apply(
        cand, ["id_a", "id_b"], lambda g: g.drop_duplicates(["id_a", "id_b"])
    )).materialize()

    if output == "sizes":
        empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                              "id_b": pd.Series([], dtype=np.int64),
                              "common": pd.Series([], dtype=np.int64),
                              "size_a": pd.Series([], dtype=np.int64),
                              "size_b": pd.Series([], dtype=np.int64)})
    else:
        empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                              "id_b": pd.Series([], dtype=np.int64),
                              "jaccard": pd.Series([], dtype=np.float64)})
    if cand.count() == 0:
        return rd.from_pandas(empty)

    # keyed exact verify, step 1: candidate doc ids (distinct per block;
    # the semi-join dedupes globally)
    def pair_ids(b: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(np.concatenate([b["id_a"].to_numpy(),
                                        b["id_b"].to_numpy()]))
        return pd.DataFrame({id_col: ids})

    cand_ids = cand.map_batches(pair_ids, batch_format="pandas")
    cand_docs = ds.join(cand_ids, "left_semi", n_parts, on=(id_col,))

    # step 2: per-doc sorted shingle-hash arrays as fixed-width bytes
    # (uint64 LE) — Arrow binary survives the Acero join, a tensor
    # column would not
    def doc_hash_rows(batch: pd.DataFrame) -> pd.DataFrame:
        hs = shingle_lists(batch)
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "hashes": [h.tobytes() for h in hs],
            "set_size": np.array([len(h) for h in hs], dtype=np.int64),
        })

    # materialized: `sets` feeds BOTH joins below, and running one
    # hash-shuffle per execution keeps each join's aggregator pool from
    # starving the next one's on small CPU counts (blocks stay in the
    # spillable object store — this is candidate-bounded data, never
    # driver heap)
    sets = cand_docs.map_batches(doc_hash_rows,
                                 batch_format="pandas").materialize()

    # step 3: attach both shingle sets by hash join, verify per batch
    ja = cand.join(sets, "inner", n_parts,
                   on=("id_a",), right_on=(id_col,)) \
             .rename_columns({"hashes": "hashes_a", "set_size": "size_a"}) \
             .materialize()
    jb = ja.join(sets, "inner", n_parts,
                 on=("id_b",), right_on=(id_col,)) \
           .rename_columns({"hashes": "hashes_b", "set_size": "size_b"})

    def verify(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        common = np.fromiter(
            (len(np.intersect1d(np.frombuffer(x, dtype=np.uint64),
                                np.frombuffer(y, dtype=np.uint64),
                                assume_unique=True))
             for x, y in zip(b["hashes_a"], b["hashes_b"])),
            dtype=np.int64, count=n)
        sa = b["size_a"].to_numpy(np.int64)
        sb = b["size_b"].to_numpy(np.int64)
        union = sa + sb - common
        jac = np.where(union > 0, common / np.maximum(union, 1), 1.0)
        keep = jac >= threshold
        out = pd.DataFrame({
            "id_a": b["id_a"].to_numpy()[keep],
            "id_b": b["id_b"].to_numpy()[keep],
        })
        if output == "sizes":
            out["common"] = common[keep]
            out["size_a"] = sa[keep]
            out["size_b"] = sb[keep]
        else:
            out["jaccard"] = np.round(jac[keep], 6)
        return out

    return jb.map_batches(verify, batch_format="pandas")


# connected components: edge count (both directions) up to which one Ray
# task runs union-find, and the round cap of the distributed fixpoint
CC_TASK_EDGES_MAX = 2_000_000
CC_MAX_ROUNDS = 25


def cc_labels(pairs_ds):
    """Distributed connected components over an edge Dataset
    (id_a, id_b) by iterated min-label propagation: every node starts
    at label = min(node, neighbors); each round a node's label becomes
    the min over its own label and its neighbors' labels (hash join of
    edges with labels + bucket-hash min-combine) AND shortcuts through
    its label's own label (pointer jumping — path halving makes long
    chains converge in O(log diameter) rounds).  Labels are monotone
    non-increasing, so the per-round label SUM strictly decreases until
    the fixpoint.

    Size-adaptive: an edge set within CC_TASK_EDGES_MAX (after the
    materializing shuffle, so the count is free) runs union-find in a
    SINGLE Ray task — the fixpoint loop pays several shuffles per
    round, which only amortizes when the edge list is too big for one
    worker.  Either path keeps all per-edge state off the driver.  The
    fixpoint runs at most CC_MAX_ROUNDS rounds and raises RuntimeError
    if the last one still changed a label.

    Returns a Dataset of (node, label) where label = the component's
    minimum node id.  Nothing touches the driver except the per-round
    convergence scalar; the edge list and labels stay keyed datasets,
    so web-corpus dup rates (pairs ~ O(corpus)) spill, not OOM.
    Reference analogue: the dedup resolution loop indexer.go:582-618.
    """
    from .agg import bucketed_group_apply, default_join_partitions

    n_parts = default_join_partitions()

    def sym(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": np.concatenate([b["id_a"].to_numpy(), b["id_b"].to_numpy()]),
            "nbr": np.concatenate([b["id_b"].to_numpy(), b["id_a"].to_numpy()]),
        })

    from .agg import join_safe

    edges = join_safe(
        pairs_ds.map_batches(sym, batch_format="pandas"), n_parts
    ).materialize()

    if edges.count() == 0:
        # an all-empty pair set repartitions to schema-LESS blocks
        # (the ensure_schema gotcha) — return a typed empty label set
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame({
            "node": pd.Series([], dtype=np.int64),
            "label": pd.Series([], dtype=np.int64)}))

    if edges.count() <= CC_TASK_EDGES_MAX:
        import ray
        import ray.data as rd

        @ray.remote
        def uf_task(*blocks) -> pd.DataFrame:
            parent: dict = {}

            def find(x):
                r = x
                while parent.get(r, r) != r:
                    r = parent[r]
                while parent.get(x, x) != x:  # path compression
                    parent[x], x = r, parent[x]
                return r

            for blk in blocks:
                df = blk.to_pandas() if hasattr(blk, "to_pandas") else blk
                if len(df) == 0:  # repartition leaves column-less empties
                    continue
                for a, b in zip(df["node"].to_numpy(), df["nbr"].to_numpy()):
                    a, b = int(a), int(b)
                    # every endpoint is a node, a self-loop's too
                    parent.setdefault(a, a)
                    parent.setdefault(b, b)
                    ra, rb = find(a), find(b)
                    if ra != rb:  # min id becomes the root
                        if rb < ra:
                            ra, rb = rb, ra
                        parent[rb] = ra
            nodes = list(parent)
            return pd.DataFrame({
                "node": np.array(nodes, dtype=np.int64),
                "label": np.array([find(x) for x in nodes], dtype=np.int64),
            })

        out = ray.get(uf_task.remote(*edges.to_arrow_refs()))
        return join_safe(rd.from_pandas(out), n_parts).materialize()

    def min_label(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("node", sort=False, as_index=False)["label"].min()

    def init_partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "node": b["node"],
            "label": np.minimum(b["node"].to_numpy(), b["nbr"].to_numpy()),
        })

    labels = join_safe(bucketed_group_apply(
        edges.map_batches(init_partial, batch_format="pandas"),
        ["node"], min_label,
    ), n_parts).materialize()
    prev_sum = labels.sum("label")
    for _ in range(CC_MAX_ROUNDS):
        msgs = (
            edges.join(labels, "inner", n_parts, on=("node",))
            .map_batches(
                lambda b: pd.DataFrame({"node": b["nbr"], "label": b["label"]}),
                batch_format="pandas",
            )
        )
        # POINTER JUMPING (label-of-label shortcut): resolve each
        # node's label through the label node's own label in the same
        # round — path-halving turns O(diameter) rounds into
        # O(log diameter), which is what makes long signature chains
        # (near-dup hash ladders) converge in a handful of rounds.
        hops = (
            join_safe(labels.map_batches(
                lambda b: pd.DataFrame({"orig": b["node"], "hop": b["label"]}),
                batch_format="pandas",
            ), n_parts)
            .join(labels, "inner", n_parts,
                  on=("hop",), right_on=("node",))
            .map_batches(
                lambda b: pd.DataFrame({"node": b["orig"], "label": b["label"]}),
                batch_format="pandas",
            )
        )
        labels = join_safe(bucketed_group_apply(
            labels.union(msgs).union(hops), ["node"], min_label
        ), n_parts).materialize()
        new_sum = labels.sum("label")
        if new_sum == prev_sum:
            return labels
        prev_sum = new_sum
    raise RuntimeError(
        f"cc_labels: labels still changing after {CC_MAX_ROUNDS} rounds")


def near_dedup_keep(ds, id_col="doc_id", text_col="text", k_shingle: int = 3,
                    threshold: float = 0.2, max_df: int | None = None,
                    method: str = "exact"):
    """Training-data near-dedup END TO END: pair generation (exact
    shingle-Jaccard, or MinHash+LSH via method="minhash") -> connected
    components -> keep the MIN-ID representative per component.
    Returns a Dataset of kept ids (docs with no near-dup survive).

    Components come from `cc_labels` (single-task union-find for small
    pair sets, min-label propagation above that); the corpus ids are
    anti-filtered against the non-representative nodes by
    `membership_filter` (broadcast or keyed by the drop-set size) — no
    whole-dataset driver state anywhere, safe when pair counts rival
    the corpus (web-corpus dup rates of 20-50% make them).
    """
    from .agg import default_join_partitions, join_safe, membership_filter

    if method == "minhash":
        pairs_ds = minhash_lsh_pairs(ds, id_col, text_col, k_shingle,
                                     threshold=threshold)
    else:
        pairs_ds = jaccard_pairs(ds, id_col, text_col, k_shingle,
                                 threshold=threshold, max_df=max_df)

    pairs_ds = join_safe(pairs_ds, default_join_partitions()).materialize()
    ids = ds.map_batches(lambda b: b[[id_col]], batch_format="pandas")
    if pairs_ds.count() == 0:
        return ids
    drop = cc_labels(pairs_ds).map_batches(
        lambda b: b[b["node"] != b["label"]][["node"]],
        batch_format="pandas",
    )
    return membership_filter(ids, drop, id_col, "node", keep=False)


# ---------------------------------------------------------------------------
# SimHash


_POW2_63 = np.int64(1) << np.arange(63, dtype=np.int64)
_KBITS = np.arange(64, dtype=np.uint64)


def pack_bits64(bits: np.ndarray) -> np.ndarray:
    """(n, 64) bits, bit j of a row at column j -> n int64 values, in
    the SQL oracles' v_lo63 - bit63*(2^63-1) - bit63 two's-complement
    form, bit for bit."""
    v_lo = (bits[:, :63].astype(np.int64) * _POW2_63[None, :]).sum(axis=1)
    b63 = bits[:, 63].astype(np.int64)
    return v_lo - b63 * np.int64(9223372036854775807) - b63


def simhash64_from_flat(codes: np.ndarray, uniques: np.ndarray,
                        lens: np.ndarray) -> np.ndarray:
    """64-bit SimHash core over the flat factorized token
    representation (tf-weighted, vectorized batch-wide): md5 runs
    ONCE per unique token in the batch; the +/- votes accumulate with
    one np.add.at scatter; `pack_bits64` packs the bits.
    Order-invariant by construction (depends only on the token bag)."""
    n = len(lens)
    out = np.zeros(n, dtype=np.int64)
    if codes.size == 0 or uniques.size == 0:
        return out
    rr, cidx, cc = doc_token_counts(codes, uniques, lens)
    hv = md5_64(uniques)
    bits_u = ((hv[:, None] >> _KBITS[None, :]) & np.uint64(1)).astype(
        np.int64)  # U x 64 in {0, 1}
    # vote(row, k) = sum cc * (2*bit - 1) = 2 * sum(cc * bit) - lens:
    # rr is SORTED (np.unique), so each bit's per-row positive mass is
    # one reduceat over the run boundaries — ~10x faster than the old
    # (pairs x 64) np.add.at scatter, which dominated the stage
    seg = np.flatnonzero(np.r_[True, rr[1:] != rr[:-1]])
    row_ids = rr[seg]
    m = len(row_ids)
    bu = np.ascontiguousarray(bits_u.T)  # 64 x U, contiguous row gathers
    pos_t = np.empty((64, m), dtype=np.int64)
    for k in range(64):
        pos_t[k] = np.add.reduceat(cc * bu[k][cidx], seg)
    lens_p = lens[row_ids]
    out[row_ids] = pack_bits64(((2 * pos_t - lens_p[None, :]) > 0).T)
    return out


def simhash_signatures(ds, id_col="doc_id", text_col="text"):
    """64-bit SimHash over token hashes, weighted by term frequency.
    Returned as int64 (two's complement) for Arrow friendliness.
    Tokens come flat from `text.tokenize_flat_arrow`; the vote math is
    `simhash64_from_flat` (property-tested directly)."""

    def sig(batch: pa.Table) -> pa.Table:
        codes, uniques, lens, _ = tokenize_flat_arrow(batch[text_col])
        return pa.table({
            "doc_id": batch[id_col],
            "simhash": pa.array(
                simhash64_from_flat(codes, uniques, lens), pa.int64()),
        })

    return ds.map_batches(sig, batch_format="pyarrow")


def hamming_dup_pairs(ds, id_col="doc_id", sig_col="simhash",
                      max_hamming: int = 3, n_bands: int | None = None,
                      max_bucket: int | None = 4096, carry_cols=(),
                      collapse_count_col: str | None = None):
    """Near-dup pairs on ANY int64 signature column (SimHash, image
    aHash/pHash, ...) via LSH band blocking: split the 64 bits into
    `n_bands` contiguous bands; any identical band -> candidate pair;
    exact XOR-popcount verify keeps hamming <= max_hamming.  EXACT by
    pigeonhole whenever n_bands >= max_hamming + 1 (a pair differing
    in <= max_hamming bits cannot differ in every band) — the default.

    HOT-BUCKET guard: a (band, bucket) group of g rows emits O(g^2)
    candidate pairs, and a duplicate-heavy corpus (the point of dedup)
    piles identical signatures into one bucket.  `max_bucket` caps the
    per-group work the same way `jaccard_pairs.max_df` caps hot
    shingles: groups above the cap are dropped (standard LSH practice —
    an over-full bucket is dominated by either boilerplate
    near-identical content, better handled by `exact_dedup` first, or
    band-hash coincidence carrying no signal).  None = no cap (only
    for bounded corpora).  Pair emission is a vectorized self-merge +
    batch-wide XOR-popcount — no per-group Python loop.  `carry_cols`
    ride along into the output as <col>_a / <col>_b.

    ONE shuffle total when max_bucket is None (round-4 fuse): a pair
    found in band b is emitted only if b is its FIRST agreeing band
    (vectorized mask over the pair's XOR — every agreeing band sees
    the same two rows, so exactly one band wins), which removes the
    old (id_a, id_b) dedup shuffle entirely.  With a binding
    max_bucket the first agreeing band's group may have been CAPPED
    (dropped before emission), so capped mode emits from every
    surviving agreeing band and restores the pair-dedup shuffle —
    bounded by the OUTPUT pair count, not the corpus (round-4 ADVICE
    recall fix: previously a pair whose first agreeing band was
    capped vanished even when an uncapped band agreed).

    `collapse_count_col`: fuse the distinct-signature collapse into
    the SAME shuffle — identical signatures agree in every band, so
    all rows of a signature co-locate in each (band, bucket) group and
    a per-group collapse (id = min id, count = group size) is globally
    correct per band.  The count rides the output as <col>_a/_b.

    Returns (id_a, id_b, hamming, *carry_a/_b), each pair once."""
    if n_bands is None:
        n_bands = max_hamming + 1
    edges = np.linspace(0, 64, n_bands + 1).astype(np.int64)
    starts, widths = edges[:-1], np.diff(edges)
    masks = [np.uint64(((1 << int(w)) - 1) << int(st))
             for st, w in zip(starts, widths)]
    carry = list(carry_cols)
    keep_cols = [id_col, sig_col] + carry

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[sig_col].to_numpy().view(np.uint64)
        n = len(batch)
        out = {
            "band": np.repeat(np.arange(n_bands, dtype=np.int64), n),
            "bucket": np.concatenate([
                ((s >> np.uint64(st)) & np.uint64((1 << int(w)) - 1))
                .astype(np.int64)
                for st, w in zip(starts, widths)
            ]),
        }
        for c in keep_cols:
            out[c] = np.tile(batch[c].to_numpy(), n_bands)
        return pd.DataFrame(out)

    out_carry = carry + ([collapse_count_col] if collapse_count_col else [])
    out_cols = (["id_a", "id_b", "hamming"]
                + [f"{c}_a" for c in out_carry]
                + [f"{c}_b" for c in out_carry])

    def pairs_hash_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """All (band, bucket) groups in this hash bucket at once:
        optional per-group signature collapse, cap hot groups,
        self-merge on the group key (C-level hash join), one
        batch-wide XOR + unpackbits popcount, first-agreeing-band
        filter — each surviving pair leaves exactly one group."""
        if collapse_count_col:
            g = (g.groupby(["band", "bucket", sig_col], sort=False)
                  .agg(**{id_col: (id_col, "min"),
                          collapse_count_col: (id_col, "size")})
                  .reset_index())
        both = g.merge(g.iloc[:0], on=["band", "bucket"],
                       suffixes=("_a", "_b"))
        empty = both.assign(hamming=pd.Series([], dtype=np.int64)) \
                    .rename(columns={f"{id_col}_a": "id_a",
                                     f"{id_col}_b": "id_b"})[out_cols]
        if len(g) < 2:
            return empty
        if max_bucket is not None:
            sz = g.groupby(["band", "bucket"], sort=False)[id_col] \
                  .transform("size")
            g = g[sz.to_numpy() <= max_bucket]
            if len(g) < 2:
                return empty
        m = g.merge(g, on=["band", "bucket"], suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if len(m) == 0:
            return empty
        xor = (m[f"{sig_col}_a"].to_numpy().view(np.uint64)
               ^ m[f"{sig_col}_b"].to_numpy().view(np.uint64))
        ham = np.unpackbits(xor.view(np.uint8).reshape(-1, 8), axis=1) \
                .sum(axis=1).astype(np.int64)
        keep = ham <= max_hamming
        if max_bucket is None:
            # ONE-shuffle fuse: emit only from the FIRST agreeing band
            # (the smallest j with a zero band-XOR) — exact, since no
            # group was dropped, so that band's group definitely
            # emitted the pair
            first = np.full(len(m), n_bands, dtype=np.int64)
            for j in range(n_bands - 1, -1, -1):
                first = np.where((xor & masks[j]) == np.uint64(0), j, first)
            keep &= first == m["band"].to_numpy()
        # else: capped mode — a pair's first agreeing band may have
        # been a capped group (dropped above), so emit from EVERY
        # surviving agreeing band and dedup pairs in a second (small,
        # output-sized) shuffle below (round-4 ADVICE recall fix)
        m = m.loc[keep].rename(columns={f"{id_col}_a": "id_a",
                                        f"{id_col}_b": "id_b"})
        m["hamming"] = ham[keep]
        return m[out_cols]

    from .agg import bucketed_group_apply

    cand = bucketed_group_apply(
        ds.map_batches(band_rows, batch_format="pandas"),
        ["band", "bucket"], pairs_hash_bucket,
    )
    if max_bucket is None:
        return cand
    # capped mode: same pair can surface from several uncapped bands
    # (dup rows carry identical hamming/carry values, so any-first is
    # deterministic); the dedup shuffle is bounded by the PAIR count
    return bucketed_group_apply(
        cand, ["id_a", "id_b"],
        lambda g: g.drop_duplicates(["id_a", "id_b"]),
    )


def simhash_dup_pairs(ds, id_col="doc_id", text_col="text", max_hamming: int = 3,
                      max_bucket: int | None = 4096):
    """Near-dup pairs by SimHash: 4-way band blocking (any identical
    16-bit band -> candidate), exact Hamming verify <= max_hamming —
    `hamming_dup_pairs` over `simhash_signatures`."""
    sigs = simhash_signatures(ds, id_col, text_col)
    return hamming_dup_pairs(sigs, id_col="doc_id", sig_col="simhash",
                             max_hamming=max_hamming, n_bands=4,
                             max_bucket=max_bucket)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard pairs (shingle-key shuffle; SQL-checkable)


def jaccard_pairs(ds, id_col="doc_id", text_col="text", k_shingle: int = 3,
                  threshold: float = 0.2, max_df: int | None = None,
                  output: str = "jaccard"):
    """All pairs with distinct-shingle Jaccard >= threshold, computed by
    exploding (shingle, doc) pairs and shuffling on shingle — exactly
    the DuckDB self-join oracle, distributed.

    Hot-key guard: a shingle shared by g docs emits O(g^2) pair rows —
    one stopword trigram shared by 10^6 docs would emit 10^12 rows.
    `max_df` drops shingle groups larger than the cap before pair
    emission (standard near-dup practice: ultra-common shingles carry no
    dedup signal; mirror it in SQL with HAVING COUNT(*) <= max_df when
    oracle parity with a cap is wanted).  None = no cap (exact oracle
    semantics; only for bounded corpora).

    output="jaccard": (id_a, id_b, jaccard rounded to 6).
    output="sizes":   (id_a, id_b, common, size_a, size_b) — the
    SQL-checkable shingle_common form (integer columns hash exactly).
    """

    def shingle_rows(batch: pa.Table) -> pa.Table:
        """(shingle, doc, distinct-shingle count) per distinct shingle
        of each doc; a doc shorter than k is one whole-doc shingle."""
        sh = _windows(tokenize_flat_arrow(batch[text_col]), k_shingle,
                      whole_short=True)
        ids, reps = sh.distinct()
        row, sid = row_distinct(sh.row, ids)
        size = np.bincount(row, minlength=batch.num_rows)
        return pa.table({"shingle": sh.strings(reps).take(sid),
                         id_col: batch[id_col].take(row),
                         "set_size": size[row]})

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        """Vectorized pair emission for ALL shingle groups in a bucket:
        df-cap filter, then a self-merge on shingle (a C-level hash
        join) — no per-group Python loop, no O(g^2) list appends."""
        if max_df is not None and len(g):
            vc = g["shingle"].value_counts()
            hot = vc[vc > max_df].index
            if len(hot):
                g = g[~g["shingle"].isin(hot)]
        m = g.merge(g, on="shingle", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        return pd.DataFrame({
            "id_a": m[f"{id_col}_a"].to_numpy(),
            "id_b": m[f"{id_col}_b"].to_numpy(),
            "size_a": m["set_size_a"].to_numpy(np.int64),
            "size_b": m["set_size_b"].to_numpy(np.int64),
            "common_partial": np.ones(len(m), dtype=np.int64),
        })

    def finalize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized agg over ALL pair groups in the bucket — the
        # pair-group count is unbounded, so no per-group task/sort
        agg = (
            g.groupby(["id_a", "id_b"], sort=False)
            .agg(common=("common_partial", "sum"),
                 size_a=("size_a", "first"), size_b=("size_b", "first"))
            .reset_index()
        )
        common = agg["common"].to_numpy(np.int64)
        sa = agg["size_a"].to_numpy(np.int64)
        sb = agg["size_b"].to_numpy(np.int64)
        jac = common / (sa + sb - common)
        keep = jac >= threshold
        agg = agg[keep]
        if output == "sizes":
            out = agg.copy()
            out["common"] = out["common"].astype(np.int64)
            return out[["id_a", "id_b", "common", "size_a", "size_b"]]
        return pd.DataFrame({"id_a": agg["id_a"], "id_b": agg["id_b"],
                             "jaccard": np.round(jac[keep], 6)})

    from .agg import bucketed_group_apply

    sh_rows = ds.map_batches(shingle_rows, batch_format="pyarrow")
    pairs = bucketed_group_apply(sh_rows, ["shingle"], pairs_bucket)
    return bucketed_group_apply(pairs, ["id_a", "id_b"], finalize_bucket)


def fingerprint_pairs(fp_ds, id_col="doc_id", fp_col="fingerprint",
                      min_common: int = 2, max_df: int | None = None):
    """MOSS-style match detection over winnowing fingerprints: all
    (id_a < id_b) pairs sharing >= `min_common` DISTINCT selected
    fingerprints (Schleimer et al.'s local-match guarantee makes this
    catch any shared run of >= window+k-1 tokens).  Same scale shape
    as `jaccard_pairs`: shuffle on the fingerprint key, `max_df` cap
    drops boilerplate fingerprints before the O(g^2) pair emission,
    vectorized self-merge + bucket-hash two-phase pair count."""

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if max_df is not None and len(g):
            vc = g[fp_col].value_counts()
            hot = vc[vc > max_df].index
            if len(hot):
                g = g[~g[fp_col].isin(hot)]
        m = g.merge(g, on=fp_col, suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        return pd.DataFrame({
            "id_a": m[f"{id_col}_a"].to_numpy(),
            "id_b": m[f"{id_col}_b"].to_numpy(),
            "common_partial": np.ones(len(m), dtype=np.int64),
        })

    def finalize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = (g.groupby(["id_a", "id_b"], sort=False, as_index=False)
                ["common_partial"].sum()
                .rename(columns={"common_partial": "n_common"}))
        agg["n_common"] = agg["n_common"].astype(np.int64)
        return agg[agg["n_common"] >= min_common]

    from .agg import bucketed_group_apply

    pairs = bucketed_group_apply(fp_ds, [fp_col], pairs_bucket)
    return bucketed_group_apply(pairs, ["id_a", "id_b"], finalize_bucket)


def incremental_exact_dedup(state_dir: str, ds, epoch: int,
                            id_col="doc_id", text_col="text"):
    """CROSS-EPOCH incremental dedup — the production crawl shape:
    dedupe today's batch against yesterday's corpus WITHOUT
    recomputing it.  The persisted state is a (text_hash, id, epoch)
    parquet table partitioned by epoch (epoch dirs are immutable:
    resume/replay = drop the partial epoch dir and re-run it).

    Plan: hash the new batch, dedupe WITHIN it (bucket-hash min-id per
    hash), then hash ANTI-JOIN the survivors against the state table's
    hashes (only hashes move — the state's text never re-reads), and
    append the new epoch's winners to the state.  Earlier epochs
    always win; within an epoch the min id wins (deterministic,
    SQL-mirrorable as row_number over (epoch, id)).

    Returns the kept (id, epoch) rows of THIS epoch.  Reference
    analogue: the encounter-order dedup map indexer.go:105,156
    re-expressed as immutable epoch state instead of a shared dict."""
    import os

    import ray.data as rd

    from .agg import default_join_partitions, join_safe

    n_parts = default_join_partitions()
    fresh = join_safe(exact_dedup(ds, id_col, text_col), n_parts)

    prior_epochs = sorted(
        d for d in (os.listdir(state_dir) if os.path.isdir(state_dir) else [])
        if d.startswith("epoch=")
    )
    if prior_epochs:
        prior = rd.read_parquet(
            [os.path.join(state_dir, d) for d in prior_epochs],
            columns=["text_hash"],
        )
        fresh = fresh.join(join_safe(prior, n_parts), "left_anti",
                           n_parts, on=("text_hash",))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["text_hash", id_col]].copy()
        out["epoch"] = np.int64(epoch)
        return out

    kept = fresh.map_batches(finish, batch_format="pandas")
    kept.write_parquet(os.path.join(state_dir, f"epoch={epoch}"))
    return rd.read_parquet(os.path.join(state_dir, f"epoch={epoch}"),
                           columns=[id_col, "epoch"])


def decontaminate(train_ds, test_ds, id_col="doc_id", text_col="text",
                  k_shingle: int = 5):
    """TRAIN/TEST DECONTAMINATION — the n-gram overlap check an LLM
    training pipeline runs before trusting its eval split: a test
    document is CONTAMINATED if ANY of its k-token shingles appears
    anywhere in the train split.  Long shingles keep the check
    discriminative (k=5 here; published recipes use ~13-grams —
    same operator, bigger k).

    Scale shape: both splits reduce to 64-bit md5 shingle hashes
    (per-batch-distinct; the corpus text never shuffles).  The test
    (doc, hash) rows are semi-joined against the train hash set by
    `membership_filter` (broadcast sorted array or keyed join, by the
    train set's size).  The final per-doc distinct is bucket-hashed,
    never driver-side.
    Output: one row per contaminated test doc_id.
    Reference analogue: cross-set membership of the dedup resolution
    scan (indexer.go:582-618), recast across splits."""
    from .agg import bucketed_group_apply, membership_filter

    def train_hashes(b: pd.DataFrame) -> pd.DataFrame:
        _, h = _shingle_sets(b[text_col], k_shingle)
        return pd.DataFrame({"sh": np.unique(h).astype(np.int64)})

    def test_pairs(b: pd.DataFrame) -> pd.DataFrame:
        row, h = _shingle_sets(b[text_col], k_shingle)
        return pd.DataFrame({id_col: b[id_col].to_numpy(np.int64)[row],
                             "sh": h.astype(np.int64)})

    tr = train_ds.map_batches(train_hashes, batch_format="pandas")
    probe = test_ds.map_batches(test_pairs, batch_format="pandas")
    hits = membership_filter(probe, tr, "sh", "sh", keep=True)
    ids = hits.map_batches(
        lambda b: b[[id_col]].drop_duplicates(), batch_format="pandas")
    return bucketed_group_apply(ids, [id_col],
                                lambda g: g.drop_duplicates())


def dup_ngram_coverage(ds, id_col="doc_id", text_col="text",
                       k_shingle: int = 5):
    """DUPLICATE-N-GRAM COVERAGE (the remaining Gopher repetition
    metric, Rae et al. 2021: "fraction of characters in duplicate
    n-grams", token-level here): per document, the number of token
    positions covered by at least one k-gram that also occurs in
    ANOTHER document.  Output integers per doc: (doc_id, n_tokens,
    covered_tokens); the ratio is one division away.

    Two-pass distributed shape:
      1. global k-gram document frequency — per-doc-distinct shingle
         hashes, bucket-hash two-phase count, keep df >= 2 (the
         cross-corpus duplicate set);
      2. positional membership — every (doc, pos, shingle-hash) row
         streams against the dup set (`membership_filter`: broadcast
         sorted-array searchsorted or keyed join, by the set's size),
         then per-doc interval UNION of the surviving [pos, pos+k)
         windows — all k-length intervals, so union length is
         sum(min(k, next_pos - pos)) over the sorted positions, one
         vectorized shift+clip per bucket.
    Docs shorter than k have no k-gram and count 0 covered.
    The text never shuffles — only hashes, positions, and counts."""
    from . import agg
    from .agg import (bucketed_group_apply, default_join_partitions,
                      join_input, join_safe, membership_filter,
                      two_phase_agg)

    k = k_shingle

    def pos_hashes(b: pd.DataFrame):
        """(row, position, hash) of every k-gram of the batch: the
        `_windows` polynomial hash over md5-64 token hashes (uint64
        wraparound; no Python per position)."""
        w = _windows(tokenize_flat_arrow(b[text_col]), k)
        return w.row, w.start - w.offset[w.row], w.hashes(md5_64(w.vocab))

    def doc_distinct(b: pd.DataFrame) -> pd.DataFrame:
        row, _, h = pos_hashes(b)
        _, sh = row_distinct(row, h)
        return pd.DataFrame({"sh": sh.astype(np.int64),
                             "n": np.ones(len(sh), dtype=np.int64)})

    df_counts = two_phase_agg(ds, doc_distinct, ["sh"], ["n"],
                              combine="shuffle")
    dup = df_counts.map_batches(
        lambda b: b.loc[b["n"] >= 2, ["sh"]], batch_format="pandas")

    def positions(b: pd.DataFrame) -> pd.DataFrame:
        row, pos, h = pos_hashes(b)
        return pd.DataFrame({id_col: b[id_col].to_numpy(np.int64)[row],
                             "pos": pos, "sh": h.astype(np.int64)})

    probe = ds.map_batches(positions, batch_format="pandas")
    hits = membership_filter(probe, dup, "sh", "sh", keep=True)

    def cover_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = (g[[id_col, "pos"]].drop_duplicates()
             .sort_values([id_col, "pos"], kind="mergesort"))
        nxt = d.groupby(id_col, sort=False)["pos"].shift(-1)
        contrib = np.minimum(k, (nxt - d["pos"]).fillna(k)).astype(np.int64)
        out = contrib.groupby(d[id_col], sort=False).sum()
        return pd.DataFrame({id_col: out.index.to_numpy(np.int64),
                             "covered_tokens": out.to_numpy(np.int64)})

    covered = bucketed_group_apply(hits.select_columns([id_col, "pos"]),
                                   [id_col], cover_bucket)

    def tok_counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            id_col: b[id_col].astype(np.int64),
            "n_tokens": tokenize_flat_arrow(b[text_col])[2],
        })

    base = ds.map_batches(tok_counts, batch_format="pandas")
    n_parts = default_join_partitions()
    cov_in, n_cov = join_input(covered, n_parts)
    if n_cov == 0:
        return base.map_batches(
            lambda b: b.assign(covered_tokens=np.int64(0)),
            batch_format="pandas")
    if n_cov <= agg.BROADCAST_KEYS_MAX:
        # small covered set (<= one row per doc): broadcast sorted
        # (doc, covered) arrays, one searchsorted per batch — no
        # left-outer join pool (the engine-wide small-side policy)
        import ray

        from .knn import cached_state

        cdf = cov_in.to_pandas().sort_values(id_col, kind="mergesort")
        ref = ray.put((cdf[id_col].to_numpy(np.int64),
                       cdf["covered_tokens"].to_numpy(np.int64)))

        def attach(b: pd.DataFrame) -> pd.DataFrame:
            kk, cc = cached_state(f"dngc-{ref.hex()}",
                                  lambda: ray.get(ref))
            out = np.zeros(len(b), dtype=np.int64)
            if len(kk):
                dv = b[id_col].to_numpy(np.int64)
                pos = np.searchsorted(kk, dv)
                pos[pos >= len(kk)] = 0
                hit = kk[pos] == dv
                out[hit] = cc[pos[hit]]
            return b.assign(covered_tokens=out)

        return base.map_batches(attach, batch_format="pandas")
    joined = join_safe(base, n_parts).join(
        cov_in, "left_outer", n_parts, on=(id_col,))

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b["covered_tokens"] = b["covered_tokens"].fillna(0).astype(np.int64)
        return b[[id_col, "n_tokens", "covered_tokens"]]

    return joined.map_batches(finish, batch_format="pandas")
