"""Point-in-polygon spatial join (reference J3/ST2, indexer.go:1035-1061).

The polygon side is small (admin boundaries); it is broadcast once via
``ray.put`` and compiled ONCE PER WORKER PROCESS in
``PIPJoiner.__init__`` (held by ``knn.cached_state``) — never
re-shipped per batch.  Candidate pruning is two-level, both vectorized
over (point, polygon) pairs (together they replace the R-tree probe,
`indexer.go:1036`):

1. a ``geo.CellIndex`` hands each point the polygons filed under its
   own cell (each polygon is filed under every cell its bbox covers);
2. a per-pair bbox test drops the rest before the ring test.

Containment is the reference's winding-number kernel with on-boundary
counting as inside (geometry.go:90-126).  Tie-break: FIRST HIT in the
reference is encounter order with `break` (indexer.go:1058); the
engine's canonical deterministic equivalent is MIN polygon_id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import geo


class CompiledPolygons:
    """Precompiled polygon set: flat ring vertex arrays (read from the
    Arrow list offsets), per-polygon bboxes, and a ``geo.CellIndex``
    filing each polygon under the cells its bbox covers.  ``tile_res``
    pins the index resolution; by default it comes from the polygon
    count and extent.  ``work`` counts the containment tests run per
    point."""

    def __init__(self, polygons: pa.Table, tile_res: int | None = None,
                 meta_cols: tuple[str, ...] = ("province", "district",
                                               "sub_district", "village",
                                               "postal_code")):
        self.polygon_ids = polygons["polygon_id"].to_numpy()
        self.meta_cols = [c for c in meta_cols if c in polygons.column_names]
        self._meta_arrays = {c: polygons[c].combine_chunks().cast(pa.string())
                             for c in self.meta_cols}
        self.v_lat, self.v_lon, off = geo.flat_points(polygons["ring"])
        self.start, self.end = off[:-1], off[1:]
        bbox = np.full((polygons.num_rows, 4), np.nan)
        has = self.end > self.start
        if has.any():
            s = self.start[has]
            for j, (ufunc, v) in enumerate(((np.minimum, self.v_lat),
                                            (np.maximum, self.v_lat),
                                            (np.minimum, self.v_lon),
                                            (np.maximum, self.v_lon))):
                bbox[has, j] = ufunc.reduceat(v, s)
        self.bbox = bbox
        self.index = geo.CellIndex(bbox[:, 0], bbox[:, 1], bbox[:, 2],
                                   bbox[:, 3], res=tile_res)
        self.work = geo.ProbeWork()

    def first_hit(self, lat: np.ndarray, lon: np.ndarray,
                  tiles: np.ndarray | None = None) -> np.ndarray:
        """Min-polygon_id containing each point; -1 when none.  Each
        point is tested only against the polygons filed under its own
        cell whose bbox holds it.  ``tiles`` is accepted for callers
        that carry a tile column and is not read: the probe cells always
        come from lat/lon at the index's own resolution."""
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        pt, poly = self.index.cell_pairs(lat, lon)
        b = self.bbox[poly]
        m = ((lat[pt] >= b[:, 0]) & (lat[pt] <= b[:, 1])
             & (lon[pt] >= b[:, 2]) & (lon[pt] <= b[:, 3]))
        pt, poly = pt[m], poly[m]
        inside = geo.point_in_rings(lat[pt], lon[pt], self.v_lat, self.v_lon,
                                    self.start[poly], self.end[poly])
        self.work.add(len(lat), len(pt), len(lat))
        best = np.full(len(lat), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(best, pt[inside], self.polygon_ids[poly[inside]])
        best[best == np.iinfo(np.int64).max] = -1
        return best

    def hit_index(self, polygon_id: np.ndarray) -> np.ndarray:
        """Row index in the compiled table for each polygon_id (-1 kept).
        Vectorized searchsorted over the (bounded) polygon-id set — no
        per-row dict lookups in the probe hot path."""
        if not len(self.polygon_ids):
            return np.full(len(polygon_id), -1, dtype=np.int64)
        order = getattr(self, "_id_order", None)
        if order is None:
            order = self._id_order = np.argsort(
                self.polygon_ids, kind="stable")
            self._id_sorted = self.polygon_ids[order]
        pid = np.asarray(polygon_id, dtype=np.int64)
        pos = np.searchsorted(self._id_sorted, pid)
        pos_c = np.minimum(pos, len(self._id_sorted) - 1)
        found = self._id_sorted[pos_c] == pid
        return np.where(found, order[pos_c], np.int64(-1)).astype(np.int64)

    def meta_columns(self, pid: np.ndarray) -> list:
        """Vectorized region-meta lookup: [(name, pa.Array)] for each
        meta column, null where pid has no hit — replaces the per-row
        list comprehensions every probe caller used to run."""
        import pyarrow.compute as pc

        if not self.meta_cols:
            return []
        if not len(self.polygon_ids):
            return [(c, pa.nulls(len(pid), pa.string()))
                    for c in self.meta_cols]
        arrs = self._meta_arrays
        hi = self.hit_index(pid)
        valid = pa.array(hi >= 0)
        idx = pa.array(np.where(hi >= 0, hi, 0), pa.int64())
        null = pa.scalar(None, pa.string())
        return [(c, pc.if_else(valid, arrs[c].take(idx), null))
                for c in self.meta_cols]


class PIPJoiner:
    """Per-process state: broadcast-compiled polygons probed per batch.
    ``pip_join`` builds one per worker process through
    ``knn.cached_state`` and calls it on every batch."""

    def __init__(self, polygons_ref, lat_col: str = "lat",
                 lon_col: str = "lon", attach_meta: bool = True):
        import ray

        polygons = ray.get(polygons_ref)
        self.compiled = CompiledPolygons(polygons)
        self.lat_col, self.lon_col = lat_col, lon_col
        self.attach_meta = attach_meta

    def __call__(self, batch: pa.Table) -> pa.Table:
        pid = self.compiled.first_hit(batch[self.lat_col].to_numpy(),
                                      batch[self.lon_col].to_numpy())
        batch = batch.append_column("polygon_id", pa.array(pid, pa.int64()))
        if self.attach_meta:
            for c, col in self.compiled.meta_columns(pid):
                batch = batch.append_column(c, col)
        return batch


def pip_join(ds, polygons: pa.Table, batch_size: int = 8192,
             attach_meta: bool = True,
             lat_col: str = "lat", lon_col: str = "lon"):
    """points Dataset -> points + (polygon_id, region meta...) columns.

    Stateless tasks over a per-process ``PIPJoiner``: each worker
    process compiles the broadcast polygon set once and keeps it in the
    shared ``knn.cached_state`` LRU (at most 4 broadcast states per
    process, across every probe stage).  The cell index resolution
    comes from the polygon count and extent."""
    import ray

    from .knn import map_with_state

    ref = ray.put(polygons)
    return map_with_state(
        ds, f"pip/{ref.hex()}/{lat_col}/{lon_col}/{attach_meta}",
        lambda: PIPJoiner(ref, lat_col, lon_col, attach_meta),
        batch_size)
