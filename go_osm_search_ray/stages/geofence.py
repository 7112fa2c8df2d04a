"""Geofence transition evaluation (reference J9/A9/ST8,
geofence.go:63-116 + fence_index.go:50-73).

The reference processes one event at a time: read last position from
bbolt, write the new one, emit transition statuses against the 3
nearest fence circles.  Ray-Data-native equivalent:

1. previous position = a per-point lag: bucket-hash shuffle on
   point_id + one vectorized sort+shift per bucket (ordering
   assumption: per-point sequential updates, SURVEY.md §2.10).
   Missing previous -> the reference's (-999, -999) sentinel
   (fence_index.go:61-64) — note the sentinel deliberately FLOWS INTO
   the CROSS line test, exactly as in the reference.
2. fences are a broadcast side table filed in a ``geo.CellIndex`` over
   their centers; each event picks its ``nearest_n`` fences (or all
   fences when ``nearest_n is None``) by ring expansion, and the batch
   evaluates containment + transitions vectorized against them.

Transition matrix (geofence.go:97-116):
    INSIDE  -> INSIDE : [INSIDE]
    INSIDE  -> OUTSIDE: [EXIT, OUTSIDE]
    OUTSIDE -> INSIDE : [ENTER, INSIDE]
    OUTSIDE -> OUTSIDE: [CROSS] if old->new segment cuts the circle
                        else [OUTSIDE]

State checkpointing: ``last_positions`` materializes the end-of-epoch
state dataset (the bbolt store analogue, kvdb/kv_db.go:109-137) for the
next epoch's sentinel join.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import geo

SENTINEL = -999.0


# a checkpoint row must sort BEFORE every real event of its point; real
# seqs are application counters, never near int64 min
_STATE_SEQ = np.int64(-(1 << 62))


def with_prev_position(events_ds, state: pa.Table | None = None):
    """Add (old_lat, old_lon) per event via per-point ordered lag.

    ``state`` is an optional previous-epoch checkpoint
    (point_id, lat, lon): a point's first event in this epoch uses its
    checkpointed position instead of the sentinel.

    Scale shape: point_ids are UNBOUNDED (one per tracked entity), so
    the lag is the bucket shuffle on point_id (`bucketed_group_apply`) plus
    ONE vectorized sort+shift per bucket over ALL its points — never a
    ``groupby(point_id)`` sort over millions of groups or a per-point
    Python task (the sessionize pattern, stages/agg.py).  The
    checkpoint joins in as synthetic first rows (seq = -2^62) flowing
    through the same shuffle — the state table never has to fit in one
    task or on the driver.
    """
    import ray.data as rd

    from .agg import bucketed_group_apply

    cols = ["point_id", "seq", "lat", "lon"]

    def tag_events(b: pd.DataFrame) -> pd.DataFrame:
        return b[cols].assign(_st=np.int8(0))

    ds = events_ds.map_batches(tag_events, batch_format="pandas")
    if state is not None:
        sdf = state.to_pandas()[["point_id", "lat", "lon"]].copy()
        sdf["seq"] = _STATE_SEQ
        sdf["_st"] = np.int8(1)
        ds = ds.union(rd.from_pandas(sdf[cols + ["_st"]]))

    def lag_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["point_id", "seq"], kind="mergesort").copy()
        g["old_lat"] = g["lat"].shift(1)
        g["old_lon"] = g["lon"].shift(1)
        first = g["point_id"].ne(g["point_id"].shift(1)).to_numpy()
        g.loc[first, "old_lat"] = SENTINEL
        g.loc[first, "old_lon"] = SENTINEL
        g = g[g["_st"] == 0]
        return g.drop(columns=["_st"])

    return bucketed_group_apply(ds, ["point_id"], lag_bucket)


# transition statuses in emit order (geofence.go:97-116)
_STATUSES = pa.array(["INSIDE", "EXIT", "OUTSIDE", "ENTER", "INSIDE", "CROSS",
                      "OUTSIDE"], pa.string())


class FenceEvaluator:
    """Per-process state: transitions of each (event, fence) pair
    (built once per worker process by ``fence_transitions`` through
    ``knn.cached_state``).  The nearest-n fence pick probes a
    ``geo.CellIndex`` over the fence centers, so an event measures only
    the fences near it; ``work`` counts the fences checked per event."""

    def __init__(self, fences_ref, nearest_n: int | None = 3):
        import ray

        f = ray.get(fences_ref)
        if isinstance(f, pa.Table):
            f = f.to_pandas()
        self.keys = f["key"].to_numpy()
        self.key_arr = pa.array(self.keys, pa.string())
        self.f_lat = f["lat"].to_numpy(dtype=np.float64)
        self.f_lon = f["lon"].to_numpy(dtype=np.float64)
        self.f_r = f["radius_km"].to_numpy(dtype=np.float64)
        self.nearest_n = nearest_n
        self.index = geo.CellIndex.of_points(self.f_lat, self.f_lon,
                                             k=nearest_n or 1)
        self.work = geo.ProbeWork()

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy()
        lon = batch["lon"].to_numpy()
        olat = batch["old_lat"].to_numpy()
        olon = batch["old_lon"].to_numpy()
        seq = batch["seq"].to_numpy()

        nf = len(self.keys)
        B = len(lat)
        n = min(self.nearest_n if self.nearest_n is not None else nf, nf)
        # the reference's 3-NN fence probe (geofence.go:65): ties at the
        # nth distance resolve like the SQL oracle's ORDER BY dist,
        # fence_id — the broadcast fence table is fence_id-sorted, so
        # (dist, fence position) is exactly that
        if n < nf:
            e, f, _ = self.index.nearest(
                lat, lon, n,
                lambda p, j: geo.haversine_km(lat[p], lon[p],
                                              self.f_lat[j], self.f_lon[j]),
                work=self.work)
            # an event with no fence pick (non-finite position) emits nothing
            col = np.arange(len(e)) - np.searchsorted(e, e)
            kth = np.zeros((B, n), dtype=np.int64)
            valid = np.zeros((B, n), dtype=bool)
            kth[e, col] = f
            valid[e, col] = True
        else:
            kth = np.broadcast_to(np.arange(nf), (B, nf)).copy()
            valid = np.ones((B, nf), dtype=bool)

        f_lat, f_lon, f_r = self.f_lat[kth], self.f_lon[kth], self.f_r[kth]
        d_new = geo.haversine_km(lat[:, None], lon[:, None], f_lat, f_lon)
        new_in = d_new <= f_r
        has_old = olat != SENTINEL
        d_old = geo.haversine_km(olat[:, None], olon[:, None], f_lat, f_lon)
        old_in = (d_old <= f_r) & has_old[:, None]
        cross = geo.line_circle_intersect(
            f_lat, f_lon, f_r,
            olat[:, None], olon[:, None], lat[:, None], lon[:, None],
        )

        # one (event, fence) index pass per status, in _STATUSES order
        masks = (old_in & new_in, old_in & ~new_in, old_in & ~new_in,
                 ~old_in & new_in, ~old_in & new_in,
                 ~old_in & ~new_in & cross, ~old_in & ~new_in & ~cross)
        ev, fe, st = [], [], []
        for code, mask in enumerate(masks):
            i, j = np.nonzero(mask & valid)
            ev.append(i)
            fe.append(kth[i, j])
            st.append(np.full(len(i), code, dtype=np.int64))
        ev, fe, st = np.concatenate(ev), np.concatenate(fe), np.concatenate(st)
        return pa.table(
            {
                "point_id": batch["point_id"].take(pa.array(ev))
                .combine_chunks().cast(pa.string()),
                "seq": pa.array(seq[ev], pa.int64()),
                "fence_key": self.key_arr.take(pa.array(fe)),
                "status": _STATUSES.take(pa.array(st)),
            }
        )


def fence_transitions(events_ds, fences: pa.Table, nearest_n: int | None = 3,
                      state: pa.Table | None = None, batch_size: int = 4096):
    """events -> (point_id, seq, fence_key, status) transition rows.

    Stateless tasks over one ``FenceEvaluator`` per worker process
    (stages/knn.cached_state)."""
    import ray

    from .knn import map_with_state

    ref = ray.put(fences)
    return map_with_state(
        with_prev_position(events_ds, state=state),
        f"fence/{ref.hex()}/{nearest_n}",
        lambda: FenceEvaluator(ref, nearest_n), batch_size)


class FenceIndex:
    """Named fence sets + per-point state — the reference's FenceIndex
    API surface (fence_index.go:26-95) over Arrow tables instead of an
    in-process map + bbolt.

    add_fence/delete_fence manage named sets; add_fence_point upserts a
    circle by key (reference Add re-inserts on duplicate,
    geofence.go:49-61); search evaluates an event batch against a set
    and advances the state checkpoint.
    """

    def __init__(self):
        self._fences: dict[str, pd.DataFrame] = {}
        self._state: pa.Table | None = None

    def add_fence(self, name: str):
        if name in self._fences:
            raise ValueError(f"fence {name!r} already exists")
        self._fences[name] = pd.DataFrame(
            columns=["key", "lat", "lon", "radius_km"]
        )

    def delete_fence(self, name: str):
        self._fences.pop(name, None)

    def add_fence_point(self, name: str, key: str, lat: float, lon: float,
                        radius_km: float):
        if name not in self._fences:
            raise KeyError(f"fence {name!r} does not exist")
        f = self._fences[name]
        f = f[f["key"] != key]  # upsert semantics (geofence.go:52-59)
        self._fences[name] = pd.concat(
            [f, pd.DataFrame([{"key": key, "lat": lat, "lon": lon,
                               "radius_km": radius_km}])],
            ignore_index=True,
        )

    def update_fence_point(self, point_id: str, lat: float, lon: float):
        """UpdateFencePoint (fence_index.go:75-85): overwrite a tracked
        point's last position without emitting transitions."""
        row = pa.table({"point_id": pa.array([point_id]),
                        "lat": pa.array([lat]), "lon": pa.array([lon])})
        if self._state is None:
            self._state = row
        else:
            keep = self._state.filter(
                pa.compute.not_equal(self._state["point_id"], point_id)
            )
            self._state = pa.concat_tables([keep, row])

    def search(self, name: str, events_ds, nearest_n: int | None = 3):
        """Evaluate an event batch against fence set `name`, then
        advance the state checkpoint to the batch's last positions."""
        if name not in self._fences:
            raise KeyError(f"fence {name!r} does not exist")
        fences = pa.Table.from_pandas(self._fences[name], preserve_index=False)
        out = fence_transitions(events_ds, fences, nearest_n=nearest_n,
                                state=self._state)
        result = out.to_pandas()
        new_state = last_positions(events_ds).to_pandas()
        if self._state is not None:
            old = self._state.to_pandas()
            old = old[~old["point_id"].isin(set(new_state["point_id"]))]
            new_state = pd.concat([old, new_state], ignore_index=True)
        self._state = pa.Table.from_pandas(new_state, preserve_index=False)
        return result


    def checkpoint(self, out_dir: str):
        """Persist fence sets + per-point last positions as parquet +
        a JSON meta (atomic replace) — the durable analogue of the
        reference's bbolt store (kvdb/kv_db.go:109-137): a restarted
        process resumes epoch evaluation exactly where this one stopped."""
        import os

        import pyarrow.parquet as pq

        from ..state.manifest import atomic_write_json

        os.makedirs(os.path.join(out_dir, "fences"), exist_ok=True)
        for name, df in self._fences.items():
            pq.write_table(
                pa.Table.from_pandas(df, preserve_index=False),
                os.path.join(out_dir, "fences", f"{name}.parquet"),
            )
        if self._state is not None:
            pq.write_table(self._state, os.path.join(out_dir, "state.parquet"))
        atomic_write_json(os.path.join(out_dir, "_meta.json"),
                          {"fence_sets": sorted(self._fences),
                           "has_state": self._state is not None})

    @staticmethod
    def restore(out_dir: str) -> "FenceIndex":
        import json
        import os

        import pyarrow.parquet as pq

        with open(os.path.join(out_dir, "_meta.json")) as fh:
            meta = json.load(fh)
        idx = FenceIndex()
        for name in meta["fence_sets"]:
            idx._fences[name] = pq.read_table(
                os.path.join(out_dir, "fences", f"{name}.parquet")
            ).to_pandas()
        if meta["has_state"]:
            idx._state = pq.read_table(os.path.join(out_dir, "state.parquet"))
        return idx


def last_positions(events_ds):
    """End-of-epoch state checkpoint: latest (lat, lon) per point_id.

    Same bucket-hash shape as `with_prev_position`: one vectorized
    sort + last-row-per-point mask per bucket, no per-point task."""
    from .agg import bucketed_group_apply

    def last_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["point_id", "seq"], kind="mergesort")
        is_last = g["point_id"].ne(g["point_id"].shift(-1)).to_numpy()
        return g.loc[is_last, ["point_id", "lat", "lon"]]

    return bucketed_group_apply(
        events_ds.map_batches(
            lambda b: b[["point_id", "seq", "lat", "lon"]],
            batch_format="pandas",
        ),
        ["point_id"], last_bucket,
    )
