"""Flagship pipeline (the BASELINE.md bench workload):

    read image table -> decode + average hash -> derive phash geo-keys
    -> tile assignment -> cell-keyed PIP spatial join (broadcast
    compiled polygons) -> partitioned Parquet write + ``_manifest.json``

One kernel, one plan.  ``tile_join_kernel`` is the whole per-batch
computation; every entry point runs it:

- a Ray ``Dataset`` source maps ``FusedTileJoin`` over 4096-row
  batches (one fused ``map_batches`` stage);
- a Parquet directory source maps ``FusedIngestTileJoin`` over its
  (file, row group) specs, so the read happens inside the kernel task
  and the image payload never crosses the object store;
- resume passes the manifest's completed partitions to the same
  kernel, which drops their rows before decode;
- ``check_invariants=True`` runs the same kernel with the per-row
  payload checker wrapped around the hash step and the whole kernel.

The image payload (`bytes`) rides through untouched (per-row
invariant) unless ``carry_payload=False`` slims it away after the hash.
The only wide op is the final partitioned write; the PIP side is
broadcast, so there is NO all-to-all shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from .. import geo, synth
from ..stages import tiling
from ..state import manifest

PARTITION_RES = 2  # 4x4 = 16 output partitions (coarse parent of tile_id);
# hive writes emit files-per-task x partitions, so keep this modest —
# resume granularity stays per-partition either way

# dictionary-encode ONLY the bounded-cardinality region-meta columns:
# parquet's default dict-encode of the unique-per-row strings
# (image_id, caption) builds a useless hash table per file per column —
# measured 0.86 -> 1.47 M rows/s single-file encode
META_DICT_COLS = ("province", "district", "sub_district", "village",
                  "postal_code")


def tile_join_kernel(b: pa.Table, compiled, res: int, ah=None,
                     carry_payload: bool = True, attach_meta: bool = True,
                     done_parts=(), check_invariants: bool = False
                     ) -> pa.Table:
    """One image batch -> + (ahash, lat, lon, tile_id, part, polygon_id,
    region meta): ahash -> slim -> derive/tile/part -> PIP -> meta.

    ``compiled`` is a ``pip.CompiledPolygons``; ``ah`` an
    ``images.AverageHash`` (None skips the hash).  Rows whose output
    partition is in ``done_parts`` are dropped first, from the phash
    alone, so they are never decoded.  ``check_invariants`` wraps the
    hash step and the whole kernel with
    ``images.with_payload_invariant`` (caption equality + decoded-pixel
    PSNR >= 40 dB per row)."""
    if check_invariants:
        from ..stages.images import with_payload_invariant

        def checked(x: pa.Table) -> pa.Table:
            return tile_join_kernel(
                x, compiled, res,
                None if ah is None else with_payload_invariant(ah),
                carry_payload, attach_meta, done_parts)

        return with_payload_invariant(checked)(b)
    if len(done_parts):
        lat, lon = geo.phash_to_latlon(b["phash"].to_numpy())
        part = geo.tile_parent(geo.tile_id(lat, lon, res), res, PARTITION_RES)
        b = b.filter(pa.array(~np.isin(part, list(done_parts))))
    if ah is not None:
        b = ah(b)
    if not carry_payload:
        b = b.drop_columns(
            [c for c in ("bytes", "w", "h", "fmt") if c in b.column_names])
    b = tiling.derive_phash_latlon(b)
    b = tiling.assign_tiles(res)(b)
    part = geo.tile_parent(b["tile_id"].to_numpy(), res, PARTITION_RES)
    b = b.append_column("part", pa.array(part, pa.int64()))
    pid = compiled.first_hit(b["lat"].to_numpy(), b["lon"].to_numpy())
    b = b.append_column("polygon_id", pa.array(pid, pa.int64()))
    if attach_meta:
        for c, col in compiled.meta_columns(pid):
            b = b.append_column(c, col)
    return b


class FusedTileJoin:
    """``tile_join_kernel`` as ONE map_batches callable: a single Arrow
    batch flows through every step with no inter-operator re-batching,
    no extra block builds, and no object-store hop between steps.
    Measured vs a staged plan at N=16M/32 CPUs the staged operator
    chain cost 12.5 us/row against the bare kernel's 7.5 — the
    difference was exactly these seams.

    Stateful bits (decode buffers, compiled polygons) live per worker
    process: AverageHash's reused buffers ride the callable, and the
    polygon set is a broadcast ray.put ref compiled once per process
    into the shared ``knn.cached_state`` LRU."""

    def __init__(self, poly_ref, res: int, include_ahash: bool,
                 carry_payload: bool, attach_meta: bool, done_parts=(),
                 check_invariants: bool = False):
        self.poly_ref = poly_ref
        self.res = res
        self.carry_payload = carry_payload
        self.attach_meta = attach_meta
        self.done_parts = tuple(done_parts)
        self.check_invariants = check_invariants
        if include_ahash:
            from ..stages.images import AverageHash

            self._ah = AverageHash()
        else:
            self._ah = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        from ..stages.knn import cached_state
        from ..stages.pip import CompiledPolygons

        ref, res = self.poly_ref, self.res
        compiled = cached_state(
            f"polygons/{ref.hex()}",
            lambda: CompiledPolygons(ray.get(ref)))
        return tile_join_kernel(
            batch, compiled, res, self._ah, self.carry_payload,
            self.attach_meta, self.done_parts, self.check_invariants)


class FusedIngestTileJoin(FusedTileJoin):
    """FusedTileJoin with the PARQUET READ pulled into the same task:
    the input dataset carries (path, row_group) specs, and each task
    reads its row group and runs the kernel on 4096-row slices.

    Why: Ray Data 2.49 does not fuse ReadParquet with a downstream
    MapBatches, so the full image payload crosses the object store
    once (write + read = 2x the table bytes of /dev/shm memcpy).  On
    one 32-worker host that hop runs at ~1.5 GB/s aggregate — the
    measured allocation-bandwidth ceiling — while the 8-worker run
    never approaches it; at 10^12-row scale the same hop is pure
    overhead on every node.  Reading inside the consuming task moves
    only the slim join output (no payload) through plasma.  The
    trade: ingest granularity is the parquet row group (the cache
    writes 125k-row groups), not Ray's dynamic block splitting."""

    def __call__(self, spec_batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        outs = []
        for spec in spec_batch.to_pylist():
            t = pq.ParquetFile(spec["path"]).read_row_group(spec["rg"])
            for lo in range(0, t.num_rows, 4096):
                outs.append(
                    FusedTileJoin.__call__(self, t.slice(lo, 4096)))
        return pa.concat_tables(outs)


def ingest_specs(cache_dir: str) -> list[dict]:
    """(path, row_group) work list for FusedIngestTileJoin.

    SCALE NOTE: this enumerates footers on the driver — fine for a
    bench directory (64 files), NOT the 10^12-row path.  At catalog
    scale the spec list comes from the table's own metadata (a Lance
    fragment manifest / parquet _metadata summary) read as a Dataset,
    and feeds the same FusedIngestTileJoin unchanged; the driver never
    holds more than the streaming executor's in-flight spec blocks."""
    import glob as _glob

    import pyarrow.parquet as pq

    specs = []
    for f in sorted(_glob.glob(f"{cache_dir}/*.parquet")):
        for rg in range(pq.ParquetFile(f).num_row_groups):
            specs.append({"path": f, "rg": rg})
    return specs


def _plan(source, polygons: pa.Table, res: int, include_ahash: bool,
          carry_payload: bool, attach_meta: bool, check_invariants: bool,
          done_parts=()):
    """The one flagship plan, fed by what the source is: a Parquet
    directory path is read inside the kernel task (FusedIngestTileJoin
    over its row-group specs); a Dataset is mapped in 4096-row batches
    (FusedTileJoin)."""
    import ray

    args = (ray.put(polygons), res, include_ahash, carry_payload,
            attach_meta, done_parts, check_invariants)
    if isinstance(source, (str, os.PathLike)):
        import ray.data as rd

        specs = ingest_specs(os.fspath(source))
        if not specs:
            raise FileNotFoundError(f"no parquet files in {source}")
        return rd.from_items(specs, override_num_blocks=len(specs)) \
            .map_batches(FusedIngestTileJoin(*args), batch_format="pyarrow",
                         batch_size=1)
    return source.map_batches(FusedTileJoin(*args), batch_format="pyarrow",
                              batch_size=4096)


def tile_and_join(source, polygons: pa.Table, res: int = geo.DEFAULT_TILE_RES,
                  include_ahash: bool = False,
                  carry_payload: bool = True, attach_meta: bool = True,
                  check_invariants: bool = False):
    """images (a Dataset or a Parquet directory path) -> + (lat, lon,
    tile_id, part, polygon_id, region meta [, ahash]).  include_ahash
    adds the decode -> perceptual-hash step (stages/images.py) — the
    multimodal leg of the headline pipeline.  check_invariants runs
    the same kernel in validation mode (see tile_join_kernel): same
    rows, but every image is decoded again per check."""
    return _plan(source, polygons, res, include_ahash, carry_payload,
                 attach_meta, check_invariants)


def _write(joined, out_dir: str, polygons: pa.Table,
           input_files: list[str] | None) -> dict:
    dict_cols = [c for c in META_DICT_COLS if c in polygons.column_names]
    return manifest.write_partitioned(
        joined, out_dir, "part", input_files=input_files,
        arrow_parquet_args={"use_dictionary": dict_cols}
        if dict_cols else None)


def run_flagship(source, polygons: pa.Table, out_dir: str,
                 res: int = geo.DEFAULT_TILE_RES,
                 input_files: list[str] | None = None,
                 include_ahash: bool = False,
                 carry_payload: bool = True) -> dict:
    """tile_and_join + partitioned write + ``_manifest.json``; ``source``
    is a Dataset or a Parquet directory path.  Returns the manifest."""
    joined = tile_and_join(source, polygons, res=res,
                           include_ahash=include_ahash,
                           carry_payload=carry_payload)
    return _write(joined, out_dir, polygons, input_files)


def resume_flagship(source, polygons: pa.Table, out_dir: str,
                    res: int = geo.DEFAULT_TILE_RES,
                    include_ahash: bool = False) -> dict:
    """Resume a partially-completed run: recompute ONLY the output
    partitions missing from the manifest, leaving finished partition
    directories untouched.  The kernel drops rows of completed
    partitions (derived from each row's phash) before any decode."""
    import glob
    import shutil

    old = manifest.load_manifest(out_dir) or {"partitions": {}}
    done = {int(k) for k in old["partitions"]}
    # A mid-run crash leaves partition dirs with orphaned files but no
    # manifest entry; appending into them would duplicate rows on
    # readback.  Clear every part dir NOT recorded as completed so
    # unfinished partitions are rebuilt cleanly.
    for d in glob.glob(os.path.join(out_dir, "part=*")):
        try:
            pid = int(d.rsplit("=", 1)[1])
        except ValueError:
            continue
        if pid not in done:
            shutil.rmtree(d, ignore_errors=True)

    joined = _plan(source, polygons, res, include_ahash,
                   carry_payload=True, attach_meta=True,
                   check_invariants=False, done_parts=sorted(done))
    new_m = _write(joined, out_dir, polygons, None)
    # merge with the prior manifest (prior partitions stay authoritative)
    new_m["partitions"].update(old["partitions"])
    manifest.atomic_write_json(os.path.join(out_dir, "_manifest.json"), new_m)
    return new_m


def run_flagship_synth(n_images: int, out_dir: str, seed: int = 42) -> dict:
    images = synth.images_dataset(n_images, seed=seed)
    polygons = synth.polygons_table(64, seed=seed)
    return run_flagship(images, polygons, out_dir,
                        input_files=[f"synth://images?n={n_images}&seed={seed}"])
