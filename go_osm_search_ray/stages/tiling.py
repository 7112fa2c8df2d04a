"""Tile (cell) assignment + salted cell aggregation.

This is the engine's spatial partitioning substrate — the role the
reference's R-tree plays (rtree.go:168-205): instead of a shared tree,
every row gets a grid cell key and wide operations shuffle on it.

Skew: geodata clusters (urban hot cells).  `salted_tile_counts` shows
the canonical two-phase pattern — partial per-batch combine (which
already collapses hot keys within each block) followed by a small
groupby over partials; `add_salt` exposes explicit salting for
`map_groups`-style per-group work where partials don't apply.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import geo


def derive_phash_latlon(batch: pa.Table) -> pa.Table:
    """phash -> (lat, lon) geo-key columns (north_star derivation)."""
    lat, lon = geo.phash_to_latlon(batch["phash"].to_numpy())
    return batch.append_column("lat", pa.array(lat, pa.float64())).append_column(
        "lon", pa.array(lon, pa.float64())
    )


def derive_key_latlon(key_col: str, mult_lat: int = 9973, mult_lon: int = 7919):
    """Batch fn adding (lat, lon) from an int key column — the
    SQL-mirrorable derivation used by the DuckDB oracles."""

    def fn(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy().astype(np.int64)
        lat = (((k * mult_lat) % 18000).astype(np.float64) + 0.5) / 100.0 - 90.0
        lon = (((k * mult_lon) % 36000).astype(np.float64) + 0.5) / 100.0 - 180.0
        return batch.append_column("lat", pa.array(lat, pa.float64())).append_column(
            "lon", pa.array(lon, pa.float64())
        )

    return fn


def assign_tiles(res: int = geo.DEFAULT_TILE_RES, lat_col="lat", lon_col="lon",
                 out_col="tile_id"):
    """Batch fn adding the grid cell id column (the "tile assignment")."""

    def fn(batch: pa.Table) -> pa.Table:
        t = geo.tile_id(batch[lat_col].to_numpy(), batch[lon_col].to_numpy(), res)
        return batch.append_column(out_col, pa.array(t, pa.int64()))

    return fn


def add_salt(n_salt: int, key_col: str = "tile_id", id_col: str | None = None,
             out_col: str = "salt"):
    """Batch fn adding salt = hash(id) % n_salt for hot-key splitting.

    Use when a per-group computation (map_groups) would serialize on a
    hot cell: group by (key, salt), combine the n_salt partials after.
    """

    def fn(batch: pa.Table) -> pa.Table:
        if id_col is None:
            s = np.arange(batch.num_rows, dtype=np.int64) % n_salt
        else:
            ids = batch[id_col]
            if pa.types.is_string(ids.type) or pa.types.is_large_string(ids.type):
                h = np.array([hash_str(x) for x in ids.to_pylist()], dtype=np.int64)
            else:
                h = ids.to_numpy().astype(np.int64)
            s = np.abs(h) % n_salt
        return batch.append_column(out_col, pa.array(s, pa.int64()))

    return fn


def hash_str(s: str) -> int:
    """Deterministic 63-bit string hash (FNV-1a), process-independent."""
    h = 1469598103934665603
    for b in s.encode():
        h = ((h ^ b) * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return h


def salted_tile_counts(ds, key_col: str = "tile_id"):
    """Skew-safe exact per-tile counts: partial per-batch combine (which
    collapses hot cells inside each block) -> small final combine,
    returned as a DataFrame (key_col, n).

    The driver combine is deliberate here — the key space is PROVABLY
    bounded by the grid (4^res cells, 16k at res 7), the one case it
    is for (see stages/agg.py)."""
    from .agg import two_phase_agg

    def partial(b):
        vc = b[key_col].value_counts()
        import pandas as pd

        return pd.DataFrame({key_col: vc.index.to_numpy(),
                             "n": vc.to_numpy().astype(np.int64)})

    return two_phase_agg(ds, partial, [key_col], ["n"], combine="driver")


# ---------------------------------------------------------------------------
# raster <-> vector (north-rule capability; engine-canonical at cell
# granularity — the reference has no raster layer, its R-tree plays the
# grid's role, rtree.go:168-205)


def rasterize_rects(rects_ds, res: int = geo.DEFAULT_TILE_RES):
    """VECTOR -> RASTER: burn rectangle geometries into the tile grid.

    Input rows (polygon_id, lat0, lat1, lon0, lon1); output one
    (polygon_id, tile_id) row per grid cell whose CENTER falls inside
    the rectangle (inclusive bounds — the same predicate as the PIP
    oracle, so the SQL mirror is a BETWEEN join against enumerated cell
    centers).  Vectorized per polygon: the covering index ranges come
    from the bounds, then the exact center-in-rect test prunes the
    boundary row/column, so Python never loops over cells.

    Scale shape: output rows ~ covered-cell count; a polygon spanning
    many cells emits from its own input row's task — embarrassingly
    parallel, no shuffle.
    """
    import pandas as pd

    n = 1 << res
    dlat, dlon = 180.0 / n, 360.0 / n

    def burn(b: pd.DataFrame) -> pd.DataFrame:
        out_pid, out_tile = [], []
        for row in b.itertuples():  # polygons per batch are few; cells vectorized
            y_lo = max(int(np.floor((row.lat0 + 90.0) / dlat)) - 1, 0)
            y_hi = min(int(np.ceil((row.lat1 + 90.0) / dlat)) + 1, n)
            x_lo = max(int(np.floor((row.lon0 + 180.0) / dlon)) - 1, 0)
            x_hi = min(int(np.ceil((row.lon1 + 180.0) / dlon)) + 1, n)
            ys = np.arange(y_lo, y_hi, dtype=np.int64)
            xs = np.arange(x_lo, x_hi, dtype=np.int64)
            cy = -90.0 + (ys + 0.5) * dlat
            cx = -180.0 + (xs + 0.5) * dlon
            ys = ys[(cy >= row.lat0) & (cy <= row.lat1)]
            xs = xs[(cx >= row.lon0) & (cx <= row.lon1)]
            if not len(ys) or not len(xs):
                continue
            tiles = (ys[:, None] * n + xs[None, :]).ravel()
            out_tile.append(tiles)
            out_pid.append(np.full(len(tiles), row.polygon_id, dtype=np.int64))
        if not out_pid:
            return pd.DataFrame({
                "polygon_id": pd.Series([], dtype=np.int64),
                "tile_id": pd.Series([], dtype=np.int64),
            })
        return pd.DataFrame({
            "polygon_id": np.concatenate(out_pid),
            "tile_id": np.concatenate(out_tile),
        })

    return rects_ds.map_batches(burn, batch_format="pandas")


def vectorize_tiles(points_ds, res: int = geo.DEFAULT_TILE_RES,
                    min_count: int = 1, lat_col="lat", lon_col="lon"):
    """RASTER -> VECTOR: per-cell point counts (the raster), thresholded
    and emitted as cell rectangle geometries (tile_id, n, lat0, lat1,
    lon0, lon1) — occupied-region extraction at cell granularity.

    Counts are the skew-safe two-phase combine (`salted_tile_counts`
    pattern); the geometry derivation is pure per-row math.  The key
    space is the grid (4^res), so the counts combine on the driver.
    """
    import pandas as pd

    import ray.data as rd

    n = 1 << res
    dlat, dlon = 180.0 / n, 360.0 / n

    keyed = points_ds.map_batches(
        assign_tiles(res, lat_col, lon_col), batch_format="pyarrow"
    )
    counts = rd.from_pandas(salted_tile_counts(keyed))

    def geom(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["n"] >= min_count].copy()
        t = b["tile_id"].to_numpy(np.int64)
        x, y = t % n, t // n
        b["lat0"] = -90.0 + y * dlat
        b["lat1"] = -90.0 + (y + 1) * dlat
        b["lon0"] = -180.0 + x * dlon
        b["lon1"] = -180.0 + (x + 1) * dlon
        return b[["tile_id", "n", "lat0", "lat1", "lon0", "lon1"]]

    from .agg import ensure_schema

    # the threshold can filter EVERYTHING at small sf — pin the output
    # schema so an all-empty result keeps its six named columns
    # (round-5 fix: empty-result schema loss seen at sf0.001)
    return ensure_schema(
        counts.map_batches(geom, batch_format="pandas"),
        {"tile_id": "int64", "n": "int64", "lat0": "float64",
         "lat1": "float64", "lon0": "float64", "lon1": "float64"},
    )


def rect_overlap_join(a_ds, b_ds, res: int = 4,
                      a_id: str = "id_a", b_id: str = "id_b"):
    """Distributed 2-D rectangle-OVERLAP join (polygon-polygon overlay
    at bbox granularity): each rect explodes to the tiles its area
    touches at coarse `res`, the sides hash-join on tile_id, the exact
    strict-overlap predicate filters, and every intersecting pair is
    emitted EXACTLY ONCE — only in the tile containing the
    intersection's lower-left corner (that corner lies inside both
    rects, so both covering sets contain its tile; no dedup shuffle).

    Inputs: datasets with (id_col, lat0, lat1, lon0, lon1).  Output:
    (a_id, b_id, overlap_deg2).  Scale shape: shuffle volume = rect
    count x covering-tile count (pick res so typical rects span O(1)
    tiles); per-tile work is a local vectorized merge — the 2-D
    analogue of the interval join's bucket replication.

    Adaptive: an a-side with <= agg.BROADCAST_SCAN_MAX rects is
    broadcast whole (ray.put once, per-worker-process cache) and the join
    becomes a chunked all-pairs overlap scan over the streaming
    b-side — no shuffle of EITHER side, no join aggregator pool
    (same policy as agg.interval_join).  The tile-keyed join below
    is the both-sides-unbounded path.
    """
    import pandas as pd

    from . import agg
    from .agg import default_join_partitions, join_safe

    a_ds = a_ds.materialize()
    if a_ds.count() <= agg.BROADCAST_SCAN_MAX:
        return _rect_overlap_broadcast(a_ds, b_ds, a_id, b_id)

    n = 1 << res
    dlat, dlon = 180.0 / n, 360.0 / n

    def cover(prefix):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            # fully vectorized variable-fanout explode (a rect side can
            # be a whole table, so no per-row Python): per-rect tile
            # ranges -> flat offset arithmetic over the concatenation
            y_lo = np.clip(np.floor((b["lat0"].to_numpy() + 90.0) / dlat),
                           0, n - 1).astype(np.int64)
            y_hi = np.clip(np.floor((b["lat1"].to_numpy() + 90.0) / dlat),
                           0, n - 1).astype(np.int64)
            x_lo = np.clip(np.floor((b["lon0"].to_numpy() + 180.0) / dlon),
                           0, n - 1).astype(np.int64)
            x_hi = np.clip(np.floor((b["lon1"].to_numpy() + 180.0) / dlon),
                           0, n - 1).astype(np.int64)
            cy = y_hi - y_lo + 1
            cx = x_hi - x_lo + 1
            cnt = cy * cx
            total = int(cnt.sum())
            rep = np.repeat(np.arange(len(b), dtype=np.int64), cnt)
            start = np.repeat(np.cumsum(cnt) - cnt, cnt)
            off = np.arange(total, dtype=np.int64) - start
            dy, dx = off // cx[rep], off % cx[rep]
            out = {f"{prefix}id": b["id"].to_numpy(np.int64)[rep]}
            for c in ["lat0", "lat1", "lon0", "lon1"]:
                out[f"{prefix}{c}"] = b[c].to_numpy(np.float64)[rep]
            out["tile_id"] = (y_lo[rep] + dy) * n + (x_lo[rep] + dx)
            return pd.DataFrame(out)
        return fn

    n_part = default_join_partitions()
    a = join_safe(a_ds.map_batches(cover("a"), batch_format="pandas"), n_part)
    b = join_safe(b_ds.map_batches(cover("b"), batch_format="pandas"), n_part)
    joined = a.join(b, "inner", n_part, on=("tile_id",))

    def finish(m: pd.DataFrame) -> pd.DataFrame:
        if len(m) == 0:
            return pd.DataFrame({a_id: pd.Series([], dtype=np.int64),
                                 b_id: pd.Series([], dtype=np.int64),
                                 "overlap_deg2": pd.Series([], dtype=np.float64)})
        ilat0 = np.maximum(m["alat0"].to_numpy(), m["blat0"].to_numpy())
        ilat1 = np.minimum(m["alat1"].to_numpy(), m["blat1"].to_numpy())
        ilon0 = np.maximum(m["alon0"].to_numpy(), m["blon0"].to_numpy())
        ilon1 = np.minimum(m["alon1"].to_numpy(), m["blon1"].to_numpy())
        keep = (ilat0 < ilat1) & (ilon0 < ilon1)
        # exactly-once: only the tile holding the intersection corner
        ty = np.clip(np.floor((ilat0 + 90.0) / dlat).astype(np.int64), 0, n - 1)
        tx = np.clip(np.floor((ilon0 + 180.0) / dlon).astype(np.int64), 0, n - 1)
        keep &= (ty * n + tx) == m["tile_id"].to_numpy()
        return pd.DataFrame({
            a_id: m["aid"].to_numpy()[keep],
            b_id: m["bid"].to_numpy()[keep],
            "overlap_deg2": ((ilat1 - ilat0) * (ilon1 - ilon0))[keep],
        })

    return joined.map_batches(finish, batch_format="pandas")


def _rect_overlap_broadcast(a_ds, b_ds, a_id: str, b_id: str):
    """Small-a-side rectangle overlap join: the a rectangles ride the
    object store once (per-worker-process cache); each streaming b
    batch is tested all-pairs in cache-sized chunks (n_a x chunk
    capped at ~4M cells), zero shuffle.  Output schema matches the
    tile-keyed path: (a_id, b_id, overlap_deg2)."""
    import pandas as pd
    import ray

    from .knn import cached_state

    a_df = a_ds.to_pandas()
    ref = ray.put(a_df)

    def match(b: pd.DataFrame) -> pd.DataFrame:
        a = cached_state(f"rectjoin-{ref.hex()}", lambda: ray.get(ref))
        empty = pd.DataFrame({a_id: pd.Series([], dtype=np.int64),
                              b_id: pd.Series([], dtype=np.int64),
                              "overlap_deg2": pd.Series([], dtype=np.float64)})
        if len(b) == 0 or len(a) == 0:
            return empty
        al0 = a["lat0"].to_numpy(np.float64)[:, None]
        al1 = a["lat1"].to_numpy(np.float64)[:, None]
        ao0 = a["lon0"].to_numpy(np.float64)[:, None]
        ao1 = a["lon1"].to_numpy(np.float64)[:, None]
        aid = a["id"].to_numpy(np.int64)
        bid = b["id"].to_numpy(np.int64)
        chunk = max(1, 4_000_000 // len(a))
        outs = []
        for s in range(0, len(b), chunk):
            e = min(s + chunk, len(b))
            bl0 = b["lat0"].to_numpy(np.float64)[None, s:e]
            bl1 = b["lat1"].to_numpy(np.float64)[None, s:e]
            bo0 = b["lon0"].to_numpy(np.float64)[None, s:e]
            bo1 = b["lon1"].to_numpy(np.float64)[None, s:e]
            il0 = np.maximum(al0, bl0)
            il1 = np.minimum(al1, bl1)
            io0 = np.maximum(ao0, bo0)
            io1 = np.minimum(ao1, bo1)
            ai, bi = np.nonzero((il0 < il1) & (io0 < io1))
            if len(ai):
                outs.append(pd.DataFrame({
                    a_id: aid[ai],
                    b_id: bid[bi + s],
                    "overlap_deg2": ((il1 - il0) * (io1 - io0))[ai, bi],
                }))
        return pd.concat(outs, ignore_index=True) if outs else empty

    return b_ds.map_batches(match, batch_format="pandas")
