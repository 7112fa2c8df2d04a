"""Point-in-polygon spatial join (reference J3/ST2, indexer.go:1035-1061).

The polygon side is small (admin boundaries); it is broadcast once via
``ray.put`` and compiled ONCE PER WORKER PROCESS in
``PIPJoiner.__init__`` (held by ``knn.cached_state``) — never
re-shipped per batch.  Candidate pruning is two-level:

1. per-polygon bbox test (vectorized, replaces the R-tree probe
   `indexer.go:1036`),
2. optional tile bucket index (polygon covering cells) when the polygon
   set is large.

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
    """Precompiled polygon set: contiguous ring arrays + bboxes + an
    optional tile->polygon bucket index."""

    def __init__(self, polygons: pa.Table, tile_res: int | None = None,
                 meta_cols: tuple[str, ...] = ("province", "district",
                                               "sub_district", "village",
                                               "postal_code")):
        self.polygon_ids = polygons["polygon_id"].to_numpy()
        self.meta_cols = [c for c in meta_cols if c in polygons.column_names]
        self.meta = {c: polygons[c].to_pylist() for c in self.meta_cols}
        self.rings = []
        bbox = np.empty((polygons.num_rows, 4), dtype=np.float64)
        for i, ring in enumerate(polygons["ring"].to_pylist()):
            rl = np.array([p["lat"] for p in ring], dtype=np.float64)
            ro = np.array([p["lon"] for p in ring], dtype=np.float64)
            self.rings.append((rl, ro))
            bbox[i] = geo.ring_bbox(rl, ro)
        self.bbox = bbox
        self.tile_res = tile_res
        self.tile_index: dict[int, list[int]] | None = None
        if tile_res is not None:
            self.tile_index = {}
            for i, (rl, ro) in enumerate(self.rings):
                for t in geo.ring_covering_tiles(rl, ro, tile_res):
                    self.tile_index.setdefault(int(t), []).append(i)

    def candidates_for(self, tiles: np.ndarray) -> np.ndarray:
        """Polygon indices possibly touching any of the given tiles."""
        if self.tile_index is None:
            return np.arange(len(self.rings))
        out: set[int] = set()
        for t in np.unique(tiles):
            out.update(self.tile_index.get(int(t), ()))
        return np.fromiter(out, dtype=np.int64) if out else np.empty(0, np.int64)

    def first_hit(self, lat: np.ndarray, lon: np.ndarray,
                  tiles: np.ndarray | None = None) -> np.ndarray:
        """Min-polygon_id containing each point; -1 when none."""
        n = len(lat)
        best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        cand = (
            self.candidates_for(tiles)
            if tiles is not None and self.tile_index is not None
            else np.arange(len(self.rings))
        )
        # visit candidates in ascending polygon_id so we can skip points
        # that already have a smaller hit
        order = cand[np.argsort(self.polygon_ids[cand], kind="stable")]
        for i in order:
            pid = self.polygon_ids[i]
            lat0, lat1, lon0, lon1 = self.bbox[i]
            todo = (
                (best > pid)
                & (lat >= lat0) & (lat <= lat1)
                & (lon >= lon0) & (lon <= lon1)
            )
            if not todo.any():
                continue
            rl, ro = self.rings[i]
            sub = np.nonzero(todo)[0]
            inside = geo.point_in_polygon(lat[sub], lon[sub], rl, ro)
            best[sub[inside]] = np.minimum(best[sub[inside]], pid)
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
        arrs = getattr(self, "_meta_arrays", None)
        if arrs is None:
            arrs = self._meta_arrays = {
                c: pa.array(self.meta[c], pa.string())
                for c in self.meta_cols
            }
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

    def __init__(self, polygons_ref, tile_res: int | None = None,
                 lat_col: str = "lat", lon_col: str = "lon",
                 tile_col: str | None = "tile_id",
                 attach_meta: bool = True):
        import ray

        polygons = ray.get(polygons_ref)
        self.compiled = CompiledPolygons(polygons, tile_res=tile_res)
        self.lat_col, self.lon_col, self.tile_col = lat_col, lon_col, tile_col
        self.attach_meta = attach_meta

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch[self.lat_col].to_numpy()
        lon = batch[self.lon_col].to_numpy()
        tiles = (
            batch[self.tile_col].to_numpy()
            if self.tile_col and self.tile_col in batch.column_names
            else None
        )
        pid = self.compiled.first_hit(lat, lon, tiles)
        batch = batch.append_column("polygon_id", pa.array(pid, pa.int64()))
        if self.attach_meta:
            for c, col in self.compiled.meta_columns(pid):
                batch = batch.append_column(c, col)
        return batch


def pip_join(ds, polygons: pa.Table, tile_res: int | None = None,
             batch_size: int = 8192, attach_meta: bool = True,
             lat_col: str = "lat", lon_col: str = "lon",
             tile_col: str | None = "tile_id"):
    """points Dataset -> points + (polygon_id, region meta...) columns.

    Stateless tasks over a per-process ``PIPJoiner``: each worker
    process compiles the broadcast polygon set once and keeps it in the
    shared ``knn.cached_state`` LRU (at most 4 broadcast states per
    process, across every probe stage)."""
    import ray

    from .knn import map_with_state

    ref = ray.put(polygons)
    return map_with_state(
        ds, f"pip/{ref.hex()}/{tile_res}/{lat_col}/{lon_col}/{tile_col}/"
        f"{attach_meta}",
        lambda: PIPJoiner(ref, tile_res, lat_col, lon_col, tile_col,
                          attach_meta), batch_size)
