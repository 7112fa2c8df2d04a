"""kNN joins + reverse geocoding (reference J7/J8/K3/K4,
rtree.go:635-738 and searcher.go:402-459).

Execution model: the query side is small (it always is — queries are
requests, points are the corpus), so it is broadcast (`ray.put`) and
every point batch computes a PARTIAL top-(k+offset) per query — an
exact, shuffle-light plan: the groupby that merges partials moves only
O(n_blocks * Q * k) rows, never the corpus.  This replaces the
reference's incremental best-first R-tree traversal (Hjaltason-Samet,
rtree.go:685-723) with a combiner-style distributed argmin; both are
exact, ours parallelizes.

Probe cost: each batch files its points in a ``geo.CellIndex`` and each
query expands cell rings until its answer is provably complete, so a
query checks the points near it, not the whole batch (no Q x B
distance matrix).  Reverse geocoding probes a ``geo.CellIndex`` over
the street segments the same way.

Tag filter semantics mirror `NearestNeighboursRadiusFilterOSM`
(rtree.go:656-682): filter tag + dist <= radius while collecting,
offset/k slice at the end.  Tie-break: (dist, point_id) ascending.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import geo


# The one per-worker-process state cache behind every stage that probes
# a broadcast side table (PIP, kNN, reverse geocoding, geofences,
# cosine / IVF probes, image stages, spell correction, the flagship
# kernel).  Those stages run as stateless map_batches tasks; Ray
# reuses worker processes, so each process builds a stage's state from
# its ray.put ref once and every later batch finds it here — the
# reference's load-once-at-boot (searcher.go:37-73) without an actor
# pool's per-call startup (~1-2 s).  A small LRU (not a single slot):
# a pipeline that interleaves two broadcast stages in one worker
# process (e.g. knn_join + reverse_geocode) must not rebuild the state
# on every alternation; it also bounds a process to 4 held states.
_STATE_CACHE: dict[str, object] = {}
_STATE_CACHE_MAX = 4


def cached_state(key: str, build):
    c = _STATE_CACHE.get(key)
    if c is None:
        c = build()
        while len(_STATE_CACHE) >= _STATE_CACHE_MAX:
            _STATE_CACHE.pop(next(iter(_STATE_CACHE)))  # evict oldest
        _STATE_CACHE[key] = c
    else:
        # refresh recency (dict preserves insertion order)
        _STATE_CACHE.pop(key)
        _STATE_CACHE[key] = c
    return c


def map_with_state(ds, key: str, build, batch_size: int | None,
                   batch_format: str = "pyarrow"):
    """The broadcast-probe plan: stateless ``map_batches`` tasks, each
    batch handed to the per-process state ``cached_state(key, build)``.
    ``key`` must name everything ``build`` depends on (the side table's
    ray.put ref hex and the stage parameters)."""

    def fn(batch):
        return cached_state(key, build)(batch)

    return ds.map_batches(fn, batch_format=batch_format,
                          batch_size=batch_size)


def topk_cols_exact(a: np.ndarray, n: int, sec: np.ndarray | None = None):
    """Per-row column indices of the n smallest entries with EXACT
    (value, tie-key) semantics at the boundary: argpartition fast path;
    only rows whose boundary-value ties actually straddle the cut are
    re-done with a lexsort.  Tie-key = column position by default (pass
    `sec` for an explicit per-cell key).  Membership is exact; order
    WITHIN the returned selection is arbitrary — downstream re-sorts."""
    if n >= a.shape[1]:
        return np.broadcast_to(np.arange(a.shape[1]), a.shape).copy()
    part = np.argpartition(a, n - 1, axis=1)[:, :n]
    vals = np.take_along_axis(a, part, axis=1)
    vb = vals.max(axis=1)
    tie_total = (a == vb[:, None]).sum(axis=1)
    tie_sel = (vals == vb[:, None]).sum(axis=1)
    amb = np.nonzero(tie_total != tie_sel)[0]
    if len(amb):
        s = (sec[amb] if sec is not None
             else np.broadcast_to(np.arange(a.shape[1]),
                                  (len(amb), a.shape[1])))
        part[amb] = np.lexsort((s, a[amb]), axis=-1)[:, :n]
    return part


def topk_select(score: np.ndarray, k: int, ids: np.ndarray,
                valid: np.ndarray | None = None):
    """The per-query partial top-k of a (Q, B) score matrix: for every
    row, the k first VALID entries in (score ASC, id ASC) order, a NaN
    score after every number (pass -score for a high-first order).
    `ids` (B,) names the columns, `valid` (Q, B) masks entries out.
    Returns (rows, cols) of the selected cells, at most k per row, in
    no particular order (the page merge sorts)."""
    q, b = score.shape
    if min(k, b) <= 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rank = np.empty(b, dtype=np.int64)
    rank[np.argsort(ids, kind="stable")] = np.arange(b)
    # one finite-or-inf key plus an int tie key (id rank, then NaN,
    # then invalid) keeps topk_cols_exact's tie logic NaN-free
    nan = np.isnan(score)
    bad = nan if valid is None else nan | ~valid
    key = np.where(bad, np.inf, score)
    sec = rank[None, :] + b * nan
    if valid is not None:
        sec = sec + 2 * b * ~valid
    cols = topk_cols_exact(key, min(k, b), sec)
    rows = np.repeat(np.arange(q), cols.shape[1])
    cols = cols.ravel()
    if valid is not None:
        ok = valid[rows, cols]
        rows, cols = rows[ok], cols[ok]
    return rows, cols


class KNNPartial:
    """Per-process state: per-batch partial top-(k+offset) of corpus
    points for every broadcast query (built once per worker process by
    ``knn_join`` through ``cached_state``).  Each batch files its points
    in a ``geo.CellIndex`` and every query expands cell rings around
    itself until its (k+offset)-th eligible point is provably nearest;
    ``work`` counts the points checked and rings visited."""

    def __init__(self, queries_ref, point_id_col: str = "point_id",
                 tag_col: str | None = None):
        import ray

        q = ray.get(queries_ref)
        if isinstance(q, pa.Table):
            q = q.to_pandas()
        self.q_id = q["query_id"].to_numpy()
        self.q_lat = q["lat"].to_numpy(dtype=np.float64)
        self.q_lon = q["lon"].to_numpy(dtype=np.float64)
        self.q_keep = (
            q["k"].to_numpy(dtype=np.int64)
            + (q["offset"].to_numpy(dtype=np.int64) if "offset" in q else 0)
        )
        self.q_radius = (
            q["radius_km"].to_numpy(dtype=np.float64)
            if "radius_km" in q
            else np.full(len(q), np.nan)
        )
        self.q_feature = q["feature"].tolist() if "feature" in q else [None] * len(q)
        self.point_id_col = point_id_col
        self.tag_col = tag_col
        self.work = geo.ProbeWork()

    def _empty(self, p_id: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                self.point_id_col: pa.array([], pa.from_numpy_dtype(p_id.dtype))
                if p_id.dtype != object
                else pa.array([], pa.string()),
                "dist_km": pa.array([], pa.float64()),
            }
        )

    def _tag_codes(self, batch: pa.Table, order: np.ndarray):
        """(query code, point code) of the tag filter, or None: a query
        with a feature (code >= 0) keeps only points of the same code."""
        if not (self.tag_col and self.tag_col in batch.column_names):
            return None
        feats = sorted({f for f in self.q_feature if f is not None})
        if not feats:
            return None
        code = {f: j for j, f in enumerate(feats)}
        q_code = np.array([code[f] if f is not None else -1
                           for f in self.q_feature], dtype=np.int64)
        tags = pc.index_in(batch[self.tag_col], value_set=pa.array(feats))
        return q_code, pc.fill_null(tags, -2).to_numpy()[order]

    def __call__(self, batch: pa.Table) -> pa.Table:
        p_lat = batch["lat"].to_numpy()
        p_lon = batch["lon"].to_numpy()
        p_id = batch[self.point_id_col].to_numpy()
        if not len(self.q_id):
            return self._empty(p_id)
        # Pre-sort the batch by point_id: array POSITION then equals the
        # id rank, so the index's (dist, position) order is exactly the
        # oracle's (dist, point_id) tie-break — exact ties are systemic
        # here (point_from_key collides for keys differing by 36000).
        order = np.argsort(p_id, kind="stable")
        p_lat, p_lon, p_id = p_lat[order], p_lon[order], p_id[order]
        # the index is sized for the points a query must see: k+offset,
        # divided by the share of the batch its tag filter keeps
        keep, need = None, self.q_keep.astype(np.float64)
        codes = self._tag_codes(batch, order)
        if codes is not None:
            q_code, p_code = codes
            hits = np.bincount(p_code[p_code >= 0], minlength=q_code.max() + 1)
            share = np.where(q_code >= 0, hits[np.maximum(q_code, 0)], len(p_id))
            need /= np.maximum(share, 1) / max(len(p_id), 1)

            def keep(q, p):
                return (q_code[q] < 0) | (p_code[p] == q_code[q])

        # the partial keeps k+offset per query; the driver-side finalize
        # re-sorts and slices the page.  Radius and tag filter apply
        # while collecting (rtree.go:656-682), on exact distances
        index = geo.CellIndex.of_points(p_lat, p_lon, k=float(need.mean()))
        qi, pi, dist = index.nearest(
            self.q_lat, self.q_lon, self.q_keep,
            lambda q, p: geo.haversine_km(self.q_lat[q], self.q_lon[q],
                                          p_lat[p], p_lon[p]),
            keep=keep,
            max_km=np.where(np.isnan(self.q_radius), np.inf, self.q_radius),
            work=self.work)
        if not len(qi):
            return self._empty(p_id)
        return pa.table(
            {
                "query_id": pa.array(self.q_id[qi]),
                self.point_id_col: pa.array(p_id[pi]),
                "dist_km": pa.array(dist, pa.float64()),
            }
        )


def knn_join(points_ds, queries: pa.Table, point_id_col: str = "point_id",
             tag_col: str | None = None, batch_size: int = 8192):
    """points x queries -> (query_id, rank, point_id, dist_km), exact kNN.

    `queries` columns: query_id, lat, lon, k [, offset, radius_km, feature].
    rank is 1-based AFTER the offset slice.  Returns a pandas DataFrame:
    the result is inherently small (Q x k), and the per-batch partial
    top-(k+offset) already collapsed the corpus, so the merge is the
    typed driver collect plus one `agg.page` — no shuffle; with no hit
    the frame is empty with the hit dtypes.  Stateless tasks; the
    broadcast queries live in one ``KNNPartial`` per worker process
    (``cached_state``).
    """
    import ray

    ref = ray.put(queries)
    partials = map_with_state(
        points_ds, f"knn/{ref.hex()}/{point_id_col}/{tag_col}",
        lambda: KNNPartial(ref, point_id_col, tag_col), batch_size)

    from .agg import collect, page

    qid = queries["query_id"].to_pylist()
    offset = (dict(zip(qid, queries["offset"].to_pylist()))
              if "offset" in queries.column_names else 0)
    out = page(collect(partials), ["dist_km", point_id_col],
               dict(zip(qid, queries["k"].to_pylist())), offset,
               key="query_id")
    return out[["query_id", point_id_col, "dist_km", "rank"]]


def knn_cell_join(points_ds, queries_ds, radius_km: float | None, k: int,
                  res: int = 6, point_id_col: str = "point_id",
                  ring_radius: int | None = None,
                  with_meta: bool = False, points_keyed: bool = False,
                  n_salt: int = 1):
    """Cell-partitioned kNN for LARGE query sides (millions of queries).

    The broadcast plan above needs the query table to fit in every
    worker; when it doesn't, co-locate by grid cell instead
    (the reference's R-tree traversal becomes data layout, SURVEY §7.3):

      1. queries explode to (cell, ...) over their radius ring
         (`geo.tile_ring`; ring radius from `cells_for_radius_km`)
      2. points keyed by their own cell
      3. the bucket shuffle on (cell, salt) co-locates both sides of
         every cell; each cell of a bucket runs a local brute top-k
      4. the bucket shuffle on query_id merges cell partials -> exact
         top-k within `radius_km`

    Semantics = kNN with a radius bound (rtree.go:656-682); for
    UNBOUNDED kNN use `knn_cell_join_unbounded` (iterative ring
    expansion on top of this — pass `ring_radius` to pin the covering
    ring explicitly and `radius_km=None` to skip the distance filter).
    with_meta=True carries (q_lat, q_lon) through to the output rows
    (the expansion loop needs them for the guarantee test).
    Returns (query_id, rank, point_id, dist_km) — rank only when the
    radius path finalizes (ring rounds finalize in the caller).

    HOT-CELL SKEW: geodata clusters (a dense urban cell can hold a
    large fraction of the corpus), and the shuffle on cell would hand
    one task that whole cell.  n_salt > 1 splits every cell's POINT side
    into hash(point_id) % n_salt shards and replicates each query row
    to all shards of its ring cells — the group key becomes
    (cell, salt), per-group work is bounded by the shard, and the
    per-query merge of shard partials stays exact (the same combiner
    argument as the broadcast path).  Query-side replication cost is
    n_salt x ring rows — size n_salt to the hottest expected cell.
    """
    import pandas as pd

    if radius_km is None and ring_radius is None:
        raise ValueError("need radius_km or an explicit ring_radius")

    def explode_queries(b: pd.DataFrame) -> pd.DataFrame:
        lat = b["lat"].to_numpy()
        lon = b["lon"].to_numpy()
        tiles = geo.tile_id(lat, lon, res)
        rows = {"cell": [], "query_id": [], "q_lat": [], "q_lon": []}
        n_axis = 1 << res
        for i in range(len(b)):
            r = ring_radius if ring_radius is not None else min(
                geo.cells_for_radius_km(lat[i], res, radius_km), n_axis // 2
            )
            r = min(r, n_axis)
            ring = np.unique(geo.tile_ring(np.array([tiles[i]]), res, r)[0])
            rows["cell"].extend(ring.tolist())
            rows["query_id"].extend([b["query_id"].iloc[i]] * len(ring))
            rows["q_lat"].extend([lat[i]] * len(ring))
            rows["q_lon"].extend([lon[i]] * len(ring))
        return pd.DataFrame(rows)

    def key_points(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[point_id_col, "lat", "lon"]].copy()
        out["cell"] = geo.tile_id(b["lat"].to_numpy(), b["lon"].to_numpy(), res)
        return out

    q_cells = queries_ds.map_batches(explode_queries, batch_format="pandas")
    p_cells = (points_ds if points_keyed
               else points_ds.map_batches(key_points, batch_format="pandas"))

    # tag and union the two sides so one shuffle co-locates both; with
    # n_salt > 1 the points shard by id hash and queries replicate to
    # every shard (see docstring)
    def q_tag_fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(side="q", **{point_id_col: -1})
        if n_salt > 1:
            b = b.loc[b.index.repeat(n_salt)].reset_index(drop=True)
            b["salt"] = np.tile(np.arange(n_salt, dtype=np.int64),
                                len(b) // n_salt)
        else:
            b["salt"] = np.int64(0)
        return b

    def p_tag_fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(side="p", query_id=-1, q_lat=0.0, q_lon=0.0)
        if n_salt > 1:
            b["salt"] = (
                np.abs(b[point_id_col].to_numpy().astype(np.int64)) % n_salt
            )
        else:
            b["salt"] = np.int64(0)
        return b

    q_tag = q_cells.map_batches(q_tag_fn, batch_format="pandas")
    p_tag = p_cells.map_batches(p_tag_fn, batch_format="pandas")

    meta_cols = (["q_lat", "q_lon"] if with_meta else [])
    empty = pd.DataFrame({"query_id": [], point_id_col: [], "dist_km": [],
                          **{c: [] for c in meta_cols}})

    def local_topk(g: pd.DataFrame) -> pd.DataFrame:
        qs = g[g["side"] == "q"]
        ps = g[g["side"] == "p"]
        if len(qs) == 0 or len(ps) == 0:
            return empty
        d = geo.haversine_km(
            qs["q_lat"].to_numpy()[:, None], qs["q_lon"].to_numpy()[:, None],
            ps["lat"].to_numpy()[None, :], ps["lon"].to_numpy()[None, :],
        )
        pid = ps[point_id_col].to_numpy()
        # exact (dist, point_id) order at the cut over the whole matrix,
        # out-of-radius cells masked out: a hot cell with 10^5 queries
        # is one matrix pass, no per-query Python
        rows, sel = topk_select(
            d, k, pid, None if radius_km is None else d <= radius_km)
        out = {"query_id": qs["query_id"].to_numpy()[rows],
               point_id_col: pid[sel],
               "dist_km": d[rows, sel]}
        if with_meta:
            out["q_lat"] = qs["q_lat"].to_numpy()[rows]
            out["q_lon"] = qs["q_lon"].to_numpy()[rows]
        return pd.DataFrame(out)

    from .agg import bucketed_group_apply, page

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        frames = [local_topk(grp)
                  for _, grp in g.groupby(["cell", "salt"], sort=False)]
        frames = [f for f in frames if len(f)]
        return pd.concat(frames, ignore_index=True) if frames else empty

    partials = bucketed_group_apply(q_tag.union(p_tag), ["cell", "salt"],
                                    topk_bucket)
    if with_meta:
        # ring mode: the expansion loop finalizes (it needs candidate
        # counts + the guarantee test before ranking)
        return partials

    # query_id is UNBOUNDED (this is the "millions of queries" path),
    # so the per-cell partials merge in the bucket shuffle on query_id,
    # one `page` per bucket — never on the driver
    def finalize_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return page(g.drop_duplicates(subset=["query_id", point_id_col]),
                    ["dist_km", point_id_col], k, key="query_id")

    return bucketed_group_apply(partials, ["query_id"], finalize_bucket)


def knn_cell_join_unbounded(points_ds, queries_ds, k: int, res: int = 6,
                            point_id_col: str = "point_id",
                            max_rounds: int = 32):
    """Unbounded-k cell-partitioned kNN — the reference's incremental
    best-first NN (rtree.go:685-723) as ITERATIVE RING EXPANSION:

      round r: gather candidates from the Chebyshev ring of radius r
      around each pending query's cell; a query FINISHES when it has k
      candidates whose k-th distance is strictly below
      `geo.ring_bound_km` (no point outside the ring can reach the
      current k-th, ties included), or when the ring covers the whole
      grid.  Unfinished queries grow r x4 and re-join; finished ones
      exit the loop.

    Per round the shuffle moves only pending queries x ring cells +
    their candidate partials; pending sets are materialized between
    rounds (bounded by query count) so earlier rounds don't re-execute.
    The next pending set is previous pending MINUS queries marked
    final (hash anti-join on query_id) — a query whose current ring
    holds no points emits no candidate rows, and deriving pending from
    the round output would silently drop it; the anti-join keeps it
    pending and expanding, preserving the exact unbounded-kNN contract
    (rtree.go:685-723 always returns the k nearest).
    Returns (query_id, rank, point_id, dist_km), exact.
    """
    from .agg import (bucketed_group_apply, default_join_partitions,
                      join_safe, page)

    n_part = default_join_partitions()
    n_axis = 1 << res
    results = []
    pending = queries_ds.materialize()

    # key the point side ONCE — every round reuses the materialized
    # cell-keyed points instead of re-deriving them per round
    def key_points(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[point_id_col, "lat", "lon"]].copy()
        out["cell"] = geo.tile_id(b["lat"].to_numpy(), b["lon"].to_numpy(), res)
        return out

    p_keyed = points_ds.map_batches(key_points,
                                    batch_format="pandas").materialize()

    # start at the 3x3 block; grow x4 per round (each ring is a
    # superset, so overshooting a round only adds candidates, never
    # wrongness)
    r = 1
    for _ in range(max_rounds):
        full_grid = r >= n_axis
        joined = knn_cell_join(
            p_keyed, pending, radius_km=None, k=k, res=res,
            point_id_col=point_id_col, ring_radius=r, with_meta=True,
            points_keyed=True,
        )

        def split_bucket(g: pd.DataFrame, _r=r, _full=full_grid) -> pd.DataFrame:
            # ALL queries of this hash bucket at once: one `page`, then
            # per-query kth-distance / count via transform — no
            # per-query dispatch
            top = page(g.drop_duplicates(subset=["query_id", point_id_col]),
                       ["dist_km", point_id_col], k, key="query_id")
            grp = top.groupby("query_id", sort=False)["dist_km"]
            cnt = grp.transform("size").to_numpy()
            dk = grp.transform("max").to_numpy()
            q_lat, q_lon = top["q_lat"].to_numpy(), top["q_lon"].to_numpy()
            cx, cy = geo.tile_xy(q_lat, q_lon, res)
            bound = geo.ring_bound_km(q_lat, q_lon, cx, cy, _r, res)
            top["final"] = _full | ((cnt >= k) & (dk < bound))
            return top

        round_out = bucketed_group_apply(
            joined, ["query_id"], split_bucket
        ).materialize()
        done_part = round_out.map_batches(
            lambda b: b[b["final"]].drop(columns=["final", "q_lat", "q_lon"]),
            batch_format="pandas",
        )
        results.append(done_part)
        if full_grid:
            # every query just saw the whole grid; anything still
            # candidate-less has no answer at all
            break
        final_ids = round_out.map_batches(
            lambda b: b.loc[b["final"], ["query_id"]].drop_duplicates(),
            batch_format="pandas",
        ).materialize()
        if final_ids.count() > 0:
            # an all-empty round leaves final_ids schema-less, which the
            # Acero join rejects — and with nothing final, pending is
            # unchanged anyway (empty-ring queries keep expanding)
            pending = join_safe(pending).join(
                join_safe(final_ids), "left_anti", n_part, on=("query_id",)
            ).materialize()
            if pending.count() == 0:
                break
        r *= 4
    out = results[0]
    for extra in results[1:]:
        out = out.union(extra)
    return out.select_columns(["query_id", "rank", point_id_col, "dist_km"])


# ---------------------------------------------------------------------------
# reverse geocoding: nearest polyline via point->segment projection


class CompiledSegments:
    """Street polylines exploded into a flat segment array once per
    worker process (from the Arrow list offsets), each segment filed in
    a ``geo.CellIndex`` under the cells its great-circle arc's bbox
    covers.  ``work`` counts the segments checked per point."""

    def __init__(self, streets: pa.Table):
        v_lat, v_lon, off = geo.flat_points(streets["geom"])
        n_seg = np.maximum(np.diff(off) - 1, 0)
        a = geo.concat_ranges(off[:-1], n_seg)
        self.a_lat, self.a_lon = v_lat[a], v_lon[a]
        self.b_lat, self.b_lon = v_lat[a + 1], v_lon[a + 1]
        self.street_id = np.repeat(
            streets["street_id"].to_numpy().astype(np.int64), n_seg)
        self.index = geo.CellIndex(*geo.arc_bbox(
            self.a_lat, self.a_lon, self.b_lat, self.b_lon))
        self.work = geo.ProbeWork()

    def _project(self, p_lat, p_lon, seg):
        return geo.project_point_to_segment(
            p_lat, p_lon, self.a_lat[seg], self.a_lon[seg],
            self.b_lat[seg], self.b_lon[seg])

    def nearest(self, p_lat: np.ndarray, p_lon: np.ndarray):
        """Per point: (street_id, dist_km, proj_lat, proj_lon) of the
        nearest segment (haversine to the clamped GREAT-CIRCLE
        projection — the spherical analog of the reference's S2 chord
        projection, searcher.go:437-459).  Ties -> the lower segment
        index wins (segments are laid out in street order).  A point
        with no segment (empty street table) misses: street_id -1 (PIP's
        miss sentinel) and NaN distance / projection."""
        p_lat = np.asarray(p_lat, dtype=np.float64)
        p_lon = np.asarray(p_lon, dtype=np.float64)

        def dist(p, s):
            return geo.haversine_km(p_lat[p], p_lon[p],
                                    *self._project(p_lat[p], p_lon[p], s))

        pi, si, d = self.index.nearest(p_lat, p_lon, 1, dist, work=self.work)
        n = len(p_lat)
        sid = np.full(n, -1, dtype=np.int64)
        best = np.full(n, np.nan)
        pla, plo = np.full(n, np.nan), np.full(n, np.nan)
        sid[pi], best[pi] = self.street_id[si], d
        pla[pi], plo[pi] = self._project(p_lat[pi], p_lon[pi], si)
        return sid, best, pla, plo


class ReverseGeocoder:
    """Per-process state: nearest street for each point in the batch
    (built once per worker process by ``reverse_geocode``).  A point
    with no street (empty street table) gets street_id -1 and null
    distance / projection."""

    def __init__(self, streets_ref, lat_col="lat", lon_col="lon"):
        import ray

        self.compiled = CompiledSegments(ray.get(streets_ref))
        self.lat_col, self.lon_col = lat_col, lon_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sid, d, pla, plo = self.compiled.nearest(
            batch[self.lat_col].to_numpy(), batch[self.lon_col].to_numpy()
        )
        miss = sid < 0
        return (
            batch.append_column("street_id", pa.array(sid, pa.int64()))
            .append_column("street_dist_km",
                           pa.array(d, pa.float64(), mask=miss))
            .append_column("proj_lat", pa.array(pla, pa.float64(), mask=miss))
            .append_column("proj_lon", pa.array(plo, pa.float64(), mask=miss))
        )


def reverse_geocode(points_ds, streets: pa.Table, batch_size: int = 4096,
                    lat_col="lat", lon_col="lon"):
    """points -> + (street_id, street_dist_km, proj_lat, proj_lon) of the
    nearest street segment; stateless tasks over one ``ReverseGeocoder``
    per worker process (``cached_state``)."""
    import ray

    ref = ray.put(streets)
    return map_with_state(
        points_ds, f"revgeo/{ref.hex()}/{lat_col}/{lon_col}",
        lambda: ReverseGeocoder(ref, lat_col, lon_col), batch_size)


# ---------------------------------------------------------------------------
# all-pairs distance self-join (spatial θ-join): every pair of rows
# within radius_km, with NO broadcast side — both sides are the (huge)
# table itself.  Reference analogue: the R-tree range search
# (rtree.go:553-580) applied symmetrically over all objects.


def _ring_steps_aniso(lat: np.ndarray, res: int,
                      radius_km: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-point ANISOTROPIC covering-ring steps (slat, slon) for a km
    radius at that point's latitude band — the lat axis never needs
    more than radius/dlat steps, so the polar longitude compression
    must not inflate it (a square geo.cells_for_radius_km ring at the
    pole is (2n+1)^2 cells; the rectangle is (2slat+1) x n).  slon is
    capped at n/2: beyond that the wrapped ring already covers every
    longitude."""
    n = 1 << res
    km_per_deg = 111.19492664455873
    dlat_km = 180.0 / n * km_per_deg
    lat_worst = np.minimum(89.999, np.abs(lat) + radius_km / km_per_deg)
    coslat = np.maximum(1e-9, np.cos(np.radians(lat_worst)))
    dlon_km = 360.0 / n * km_per_deg * coslat
    slat = np.minimum(np.ceil(radius_km / dlat_km), n).astype(np.int64)
    slon = np.minimum(np.ceil(radius_km / dlon_km), n // 2).astype(np.int64)
    return slat, slon


def _tile_rect(tile: np.ndarray, res: int, slat: int, slon: int) -> np.ndarray:
    """Anisotropic tile_ring: neighbor cells within slat lat-steps x
    slon lon-steps (lon wraps, lat clamps).  (len(tile), rows*cols)."""
    n = 1 << res
    x, y = tile % n, tile // n
    ox, oy = np.meshgrid(np.arange(-slon, slon + 1),
                         np.arange(-slat, slat + 1), indexing="ij")
    ox, oy = ox.ravel(), oy.ravel()
    nx = (x[:, None] + ox[None, :]) % n
    ny = np.clip(y[:, None] + oy[None, :], 0, n - 1)
    return ny * n + nx


def distance_self_join(ds, radius_km: float, res: int = 7,
                       id_col: str = "point_id", lat_col: str = "lat",
                       lon_col: str = "lon"):
    """All (id_a < id_b) pairs with haversine(a, b) <= radius_km.

    Scale shape — the classic cell-partitioned spatial self-join:
    every point is HOME in its own tile and replicated as a GHOST to
    each tile of its covering ring (per-latitude ring radius, dedup
    after clamp/wrap), pairs are found by a vectorized home x replica
    merge on the cell inside hash buckets of cells
    (bucketed_group_apply — no per-cell task, no global sort), and
    each qualifying pair is emitted EXACTLY ONCE by the rule "emit in
    the home cell of the smaller id": cell(a) is inside b's covering
    ring whenever dist(a,b) <= radius (the same worst-case-latitude
    guarantee the cell-kNN path relies on, geo.cells_for_radius_km),
    so the (a home, b replica) match always exists.  Shuffle volume =
    points x ring size; per-cell pair work is bounded by cell density
    at the chosen res (hot cells: raise res, or salt as in
    knn_cell_join).  Returns (id_a, id_b, dist_km)."""
    from .agg import bucketed_group_apply
    from .. import geo

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        cols = [id_col, lat_col, lon_col]
        if len(b) == 0:
            return b[cols].assign(
                cell=pd.Series([], dtype="int64"),
                home=pd.Series([], dtype="bool"))
        lat = b[lat_col].to_numpy()
        lon = b[lon_col].to_numpy()
        own = geo.tile_id(lat, lon, res)
        slat, slon = _ring_steps_aniso(lat, res, radius_km)
        key = slat * (1 << 32) + slon
        outs = []
        for kv in np.unique(key):
            m = key == kv
            sub = b.loc[m, cols]
            ring = _tile_rect(own[m], res, int(kv >> 32),
                              int(kv & 0xFFFFFFFF))
            idx = np.repeat(np.arange(len(sub)), ring.shape[1])
            rep = sub.iloc[idx].copy()
            rep["cell"] = ring.ravel()
            rep["home"] = rep["cell"].to_numpy() == np.repeat(own[m],
                                                             ring.shape[1])
            outs.append(rep)
        out = pd.concat(outs, ignore_index=True)
        # lat clamp / lon wrap can duplicate ring cells
        return out.drop_duplicates([id_col, "cell"])

    def pairs_bucket(g: pd.DataFrame) -> pd.DataFrame:
        home = g[g["home"]][[id_col, lat_col, lon_col, "cell"]]
        allr = g[[id_col, lat_col, lon_col, "cell"]]
        m = home.merge(allr, on="cell", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        if len(m) == 0:
            return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "dist_km": pd.Series([], dtype="float64")})
        d = geo.haversine_km(m[f"{lat_col}_a"].to_numpy(),
                             m[f"{lon_col}_a"].to_numpy(),
                             m[f"{lat_col}_b"].to_numpy(),
                             m[f"{lon_col}_b"].to_numpy())
        keep = d <= radius_km
        return pd.DataFrame({
            "id_a": m[f"{id_col}_a"].to_numpy(np.int64)[keep],
            "id_b": m[f"{id_col}_b"].to_numpy(np.int64)[keep],
            "dist_km": d[keep],
        })

    rep = ds.map_batches(replicate, batch_format="pandas")
    return bucketed_group_apply(rep, ["cell"], pairs_bucket)
