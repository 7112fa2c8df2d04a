"""Multimodal (image) operators over the binary `bytes` column.

The input_hint table carries images as opaque binary + typed metadata
(image_id, bytes, w, h, fmt, caption, phash).  These stages are the
`map_batches` plumbing (stateless tasks over per-process stage state) a
training-data pipeline needs:

- DecodeStats    — per-image pixel statistics + integrity flag
- DecodeSums     — integer per-channel pixel sums (the oracle-able
                   decode proof)
- AverageHash    — grayscale 8x8 average hash (a real phash)
- AverageHashInt — integer-exact 8x8 average hash over r+g+b
- EdgeEnergy     — integer gradient energy (the sharpness gate)
- EmbedImageSums — integer grid-pooled per-channel sums
- EmbedImage     — tiny deterministic feature vector (pooled grid
                   means) standing in for a vision model embedding
- Resize         — nearest-neighbor resize -> PNG re-encode
- SceneChanges / FrameSample — FVID video containers
- AudioFeatures  — PCM16 features

One decode path: every image stage takes its pixels from
`decode_groups`, which decodes a batch once into shape groups — one
batched fixed-layout pass (`decode_batch_uniform`) when the rows share
(w, h, fmt), else one image at a time, stacked by shape — and runs its
ONE pixel kernel per stack, writing results back in row order.  A row
whose payload does not decode (corrupt or short blob, null bytes or
fmt, unknown fmt) gives `decode_ok=False` in DecodeStats; every other
image stage raises `ImageDecodeError` naming the first bad image_id.

Decoding uses the repo's real PNG codec and the clearly-marked fake
lossy codec (go_osm_search_ray.codecs).  `ExternalCodec` marks where a
real image library would slot in (PIL/cv2 are not in this container):
it raises NotImplementedError for unknown formats — the Ray-side
schema, batch shapes, and stage-class signatures are real and tested.

All stages preserve the per-row invariant: `caption` (and any column
not being transformed) rides through untouched; Resize is the only
stage that rewrites `bytes` (and re-stamps w/h/fmt accordingly).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from .. import codecs
from .dedup import pack_bits64
from .knn import map_with_state


class ImageDecodeError(ValueError):
    """A batch row whose image payload did not decode."""


def _decode(data: bytes, fmt: str) -> np.ndarray:
    try:
        return codecs.decode(data, fmt)
    except NotImplementedError:
        raise NotImplementedError(
            f"fmt {fmt!r} needs an external codec (PIL/libjpeg) — "
            "not available in this container; see stages/images.py"
        )


def decode_batch_uniform(
    batch: pa.Table, raw_buf: np.ndarray | None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Batched fixed-layout decode for a batch whose rows share
    (w, h, fmt) — the overwhelmingly common case in a real corpus
    shard and the always case for the synthetic flagship table.

    Reads the Arrow binary column's offsets/data buffers directly
    (zero-copy; no ``to_pylist`` bytes materialization) and inflates
    every blob into ``raw_buf`` (caller-owned, reused across batches).
    Returns ``(pixels, raw_buf)`` with pixels a read-only
    (n, h, w, 3) uint8 view, or ``(None, raw_buf)`` when the batch is
    mixed / non-uniform / missing or null in its w/h/fmt columns / not
    our encoder's layout — `decode_groups` then decodes one image at a
    time.
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    if n == 0 or not {"w", "h", "fmt"} <= set(batch.column_names):
        return None, raw_buf
    if batch["w"].null_count or batch["h"].null_count:
        return None, raw_buf
    wmm = pc.min_max(batch["w"]).as_py()
    hmm = pc.min_max(batch["h"]).as_py()
    if wmm["min"] != wmm["max"] or hmm["min"] != hmm["max"]:
        return None, raw_buf
    if batch["fmt"].null_count:
        return None, raw_buf
    fmts = set(pc.unique(batch["fmt"]).to_pylist())
    if not fmts <= {"png", "jpeg"}:
        return None, raw_buf
    w, h = wmm["min"], hmm["min"]

    arr = batch["bytes"].combine_chunks()
    if arr.null_count:
        return None, raw_buf
    bufs = arr.buffers()
    if bufs[2] is None:
        return None, raw_buf
    odt = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    off = np.frombuffer(bufs[1], dtype=odt)[arr.offset : arr.offset + n + 1]
    dat = np.frombuffer(bufs[2], dtype=np.uint8)
    starts = off[:-1].astype(np.int64)
    ends = off[1:].astype(np.int64)
    if "jpeg" in fmts:
        # fake-lossy container: 8-byte magic prefix, then a real PNG
        # (the quantization happened at encode time) — so a MIXED
        # png/jpeg batch still decodes in one batched pass with a
        # per-row prefix offset
        is_j = pc.equal(batch["fmt"], "jpeg").combine_chunks().to_numpy(
            zero_copy_only=False
        )
        if ((ends - starts) < 57 + 8 * is_j).any():
            return None, raw_buf
        js = starts[is_j]
        magic = np.frombuffer(b"FAKEJPG0", np.uint8)
        for j in range(8):
            if not (dat[js + j] == magic[j]).all():
                return None, raw_buf
        starts = starts + 8 * is_j
    elif ((ends - starts) < 57).any():
        return None, raw_buf
    try:
        px, raw_buf = codecs.png_decode_batch(
            dat, starts, ends, w, h, out=raw_buf
        )
    except (ValueError, NotImplementedError):
        return None, raw_buf
    return px, raw_buf


def decode_groups(batch: pa.Table, raw_buf: np.ndarray | None):
    """The one decode of a batch of image payloads.

    Returns ``(groups, bad, raw_buf)``.  ``groups`` is a list of
    ``(rows, px)``: ``rows`` int64 row positions, ``px`` a
    ``(len(rows), h, w, 3)`` uint8 stack — one group per image shape.
    ``bad`` (int64) lists the rows whose payload did not decode: null
    bytes or fmt (a missing column counts as null), unknown fmt,
    corrupt or short blob.  A uniform batch is one group from the
    batched `decode_batch_uniform` pass into the reused ``raw_buf``
    (looked up on the module at call time); any other batch decodes
    one image at a time and stacks by shape."""
    n = batch.num_rows
    px, raw_buf = decode_batch_uniform(batch, raw_buf)
    if px is not None:
        return ([(np.arange(n, dtype=np.int64), px)], np.empty(0, np.int64),
                raw_buf)
    blobs, fmts = (batch[c].to_pylist() if c in batch.column_names
                   else [None] * n for c in ("bytes", "fmt"))
    by_shape: dict = {}
    bad = []
    for i, (blob, fmt) in enumerate(zip(blobs, fmts)):
        try:
            if blob is None:
                raise ValueError("null bytes")  # a null fmt is unknown
            img = _decode(blob, fmt)
        except (ValueError, NotImplementedError, zlib.error):
            bad.append(i)
            continue
        rows, imgs = by_shape.setdefault(img.shape, ([], []))
        rows.append(i)
        imgs.append(img)
    groups = [(np.asarray(rows, np.int64), np.stack(imgs))
              for rows, imgs in by_shape.values()]
    return groups, np.asarray(bad, np.int64), raw_buf


def _resize_nn(img: np.ndarray, w: int, h: int) -> np.ndarray:
    """Nearest-neighbor resize of one (H, W, 3) image or an
    (n, H, W, 3) stack to h x w."""
    H, W = img.shape[-3:-1]
    ys = (np.arange(h) * H // h).clip(0, H - 1)
    xs = (np.arange(w) * W // w).clip(0, W - 1)
    return img[..., ys[:, None], xs, :]


def _pick8(px: np.ndarray) -> np.ndarray:
    """The 8x8 nearest-neighbor picks of a stack (the stack itself
    when it is already 8x8, so no copy on the flagship shape)."""
    return px if px.shape[1:3] == (8, 8) else _resize_nn(px, 8, 8)


def _grid_cells(h: int, w: int, g: int):
    """(yi, xi, row slice, column slice) of each cell of a g x g grid
    over an h x w image; every cell holds at least one pixel."""
    for yi in range(g):
        ys = slice(yi * h // g, max(yi * h // g + 1, (yi + 1) * h // g))
        for xi in range(g):
            xs = slice(xi * w // g, max(xi * w // g + 1, (xi + 1) * w // g))
            yield yi, xi, ys, xs


class _ImageStage:
    """Base of the image stages: one decode (`decode_groups` into a
    reused per-process buffer), one pixel kernel per shape group.
    Attributes named ``_*`` are per-process scratch buffers and are
    not pickled."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def _groups(self, batch: pa.Table, strict: bool = True) -> list:
        groups, bad, self._raw = decode_groups(
            batch, getattr(self, "_raw", None))
        if strict and len(bad):
            i = int(bad[0])
            name = (batch["image_id"][i].as_py()
                    if "image_id" in batch.column_names else f"row {i}")
            raise ImageDecodeError(
                f"{type(self).__name__}: image {name!r} did not decode "
                f"({len(bad)} of {batch.num_rows} rows)")
        return groups

    def _per_row(self, batch, kernel, shape, dtype, strict=True):
        """``kernel`` maps a (k, h, w, 3) stack to k results of
        ``shape``; returns the (n, *shape) results in row order (rows
        that did not decode stay zero when not ``strict``)."""
        out = np.zeros((batch.num_rows, *shape), dtype)
        for rows, px in self._groups(batch, strict):
            out[rows] = kernel(px)
        return out


class DecodeStats(_ImageStage):
    """Per-image pixel stats; `decode_ok` flags undecodable payloads."""

    @staticmethod
    def _kernel(px):
        flat = px.reshape(len(px), -1)
        # column 2 is 1 for every decoded row; bad rows stay all zero
        return np.stack([flat.mean(axis=1), flat.std(axis=1),
                         np.ones(len(px))], axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = self._per_row(batch, self._kernel, (3,), np.float64,
                          strict=False)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "mean_pixel": pa.array(s[:, 0], pa.float64()),
                "std_pixel": pa.array(s[:, 1], pa.float64()),
                "decode_ok": pa.array(s[:, 2] == 1, pa.bool_()),
            }
        )


class DecodeSums(_ImageStage):
    """Integer-exact per-image, per-channel pixel sums — the
    DuckDB-oracle-hashable decode proof (floats round differently across
    engines; integer sums cannot).  decode runs through the REAL codec;
    the SQL oracle reproduces the pixel math without ever decoding."""

    def sums(self, batch: pa.Table) -> np.ndarray:
        """(n, 3) int64 per-channel sums in row order."""
        return self._per_row(
            batch, lambda px: px.sum(axis=(1, 2), dtype=np.int64),
            (3,), np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sums = self.sums(batch)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "sum_r": pa.array(sums[:, 0], pa.int64()),
                "sum_g": pa.array(sums[:, 1], pa.int64()),
                "sum_b": pa.array(sums[:, 2], pa.int64()),
            }
        )


class AverageHashInt(_ImageStage):
    """Integer-exact 8x8 average hash over (r+g+b) sums: bit (y*8+x) is
    set iff 64*(r+g+b)[y,x] > sum of all (r+g+b) — no float grayscale,
    so the threshold comparison is exact and SQL-mirrorable; the bits
    pack to int64 with `dedup.pack_bits64`."""

    def _kernel(self, px):
        g3 = _pick8(px).sum(axis=3, dtype=np.int64).reshape(len(px), 64)
        return pack_bits64((64 * g3) > g3.sum(axis=1, keepdims=True))

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = self._per_row(batch, self._kernel, (), np.int64)
        return batch.append_column("ahash_int", pa.array(vals, pa.int64()))


class Resize(_ImageStage):
    """Decode -> nearest-neighbor resize -> re-encode (always PNG out,
    lossless, so downstream invariants are exact)."""

    def __init__(self, w: int, h: int):
        self.w, self.h = w, h

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        blobs = [None] * n
        for rows, px in self._groups(batch):
            for r, img in zip(rows.tolist(), _resize_nn(px, self.w, self.h)):
                blobs[r] = codecs.png_encode(img)
        batch = batch.drop_columns(
            [c for c in ("bytes", "w", "h", "fmt") if c in batch.column_names])
        return (
            batch.append_column("bytes", pa.array(blobs, pa.binary()))
            .append_column("w", pa.array([self.w] * n, pa.int32()))
            .append_column("h", pa.array([self.h] * n, pa.int32()))
            .append_column("fmt", pa.array(["png"] * n, pa.string()))
        )


class AverageHash(_ImageStage):
    """8x8 grayscale average hash -> int64 column `ahash` (a real
    perceptual hash; near-dup images collide).

    Uniform batches (shared w/h/fmt — the flagship case) decode in one
    vectorized fixed-layout PNG parse, every inflate into a REUSED
    per-process buffer, and the grayscale/threshold/packbits kernel
    runs as whole-stack numpy ops with ``out=`` into reused buffers.
    The MB-scale per-batch allocations this removes are the page-fault
    traffic that BASELINE.md measured as the non-scaling resource past
    ~8 workers."""

    def _kernel(self, px):
        """(k, h, w, 3) stack -> k int64 hashes (bit i weighted 2^i,
        packed with packbits)."""
        k = len(px)
        gray = getattr(self, "_gray", None)
        if gray is None or gray.shape[0] < k:
            gray = self._gray = np.empty((max(k, 4096), 64), dtype=np.float32)
            self._bits = np.empty((max(k, 4096), 64), dtype=np.bool_)
        flat, bits = gray[:k], self._bits[:k]
        # channel sum on the strided view directly (no contiguous
        # copy of the pixel block), accumulated straight into the
        # reused f32 buffer
        _pick8(px).sum(axis=3, dtype=np.float32, out=flat.reshape(k, 8, 8))
        flat /= 3  # f32 sum / 3 == .astype(f32).mean(axis=-1) bitwise
        np.greater(flat, flat.mean(axis=1, keepdims=True), out=bits)
        return np.packbits(bits, axis=1, bitorder="little").view(np.int64).ravel()

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = self._per_row(batch, self._kernel, (), np.int64)
        return batch.append_column("ahash", pa.array(vals, pa.int64()))


class EdgeEnergy(_ImageStage):
    """Integer GRADIENT-ENERGY (sharpness/blur) metric — the
    image-quality gate a multimodal training pipeline runs before
    keeping a sample: per image, sum of |Δ| of the channel-sum plane
    along x and y.  Low energy = flat/blurry, high = textured.
    Integer-exact (the oracle design rule): energy over
    s(x,y) = r+g+b needs no float at any step."""

    @staticmethod
    def _kernel(px):
        s = px.sum(axis=3, dtype=np.int64)
        return (np.abs(np.diff(s, axis=2)).sum(axis=(1, 2))
                + np.abs(np.diff(s, axis=1)).sum(axis=(1, 2)))

    def __call__(self, batch: pa.Table) -> pa.Table:
        e = self._per_row(batch, self._kernel, (), np.int64)
        return batch.append_column("edge_energy", pa.array(e, pa.int64()))


class SceneChanges:
    """VIDEO SCENE-CHANGE detection (the shot-boundary pass of a
    video-training pipeline): unpack the FVID container, decode every
    frame, and compare consecutive frames by integer L1 distance
    (sum over pixels of |Δr|+|Δg|+|Δb|); a CUT is a transition whose
    L1 exceeds the threshold.  Output per video: (video_id, n_cuts,
    total_l1) — all int64 (the oracle design rule).

    Per-video frame loop (containers are variable-length), but each
    frame pair compares as one whole-array numpy op."""

    def __init__(self, threshold: int):
        self.threshold = int(threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import codecs

        vids = batch["video_id"].to_pylist()
        n_cuts = np.zeros(len(vids), dtype=np.int64)
        total = np.zeros(len(vids), dtype=np.int64)
        for i, blob in enumerate(batch["bytes"].to_pylist()):
            frames = [codecs.png_decode(fb).astype(np.int64)
                      for fb in codecs.video_unpack(blob)]
            for a, b in zip(frames, frames[1:]):
                l1 = int(np.abs(a - b).sum())
                total[i] += l1
                if l1 > self.threshold:
                    n_cuts[i] += 1
        return pa.table({
            "video_id": pa.array(vids, pa.string()),
            "n_cuts": pa.array(n_cuts, pa.int64()),
            "total_l1": pa.array(total, pa.int64()),
        })




class EmbedImageSums(_ImageStage):
    """Integer-exact grid-pooled feature extraction (the oracle-able
    core of EmbedImage): per (grid_y, grid_x) block, per-channel pixel
    SUMS as int64, emitted LONG (one row per image x grid cell) so the
    driver can value-hash them.  EmbedImage's float embedding is the
    same blocks' float32 means / 255."""

    def __init__(self, grid: int = 4):
        self.grid = grid

    def _kernel(self, px):
        g = self.grid
        s = np.empty((len(px), g, g, 3), dtype=np.int64)
        for yi, xi, ys, xs in _grid_cells(*px.shape[1:3], g):
            s[:, yi, xi] = px[:, ys, xs].sum(axis=(1, 2), dtype=np.int64)
        return s

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = self.grid
        n = batch.num_rows
        s = self._per_row(batch, self._kernel, (g, g, 3), np.int64)
        id_np = np.asarray(batch["image_id"].to_pylist(), dtype=object)
        s = s.reshape(-1, 3)
        return pa.table(
            {
                "image_id": pa.array(np.repeat(id_np, g * g), pa.string()),
                "grid_y": pa.array(
                    np.tile(np.repeat(np.arange(g, dtype=np.int64), g), n),
                    pa.int64()),
                "grid_x": pa.array(
                    np.tile(np.arange(g, dtype=np.int64), g * n), pa.int64()),
                "sum_r": pa.array(s[:, 0], pa.int64()),
                "sum_g": pa.array(s[:, 1], pa.int64()),
                "sum_b": pa.array(s[:, 2], pa.int64()),
            }
        )


class EmbedImage(_ImageStage):
    """Deterministic stand-in for batched vision-model inference: 4x4
    grid-pooled RGB means -> 48-dim float32 vector.  Swap `_kernel`
    for a real model (loaded once HERE in __init__) outside the
    sandbox."""

    def __init__(self, grid: int = 4):
        self.grid = grid

    def _kernel(self, px):
        g = self.grid
        pooled = np.empty((len(px), g, g, 3), np.float32)
        for yi, xi, ys, xs in _grid_cells(*px.shape[1:3], g):
            pooled[:, yi, xi] = px[:, ys, xs].astype(np.float32).mean(axis=(1, 2))
        return pooled.reshape(len(px), g * g * 3) / 255.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        d = self.grid * self.grid * 3
        vecs = self._per_row(batch, self._kernel, (d,), np.float32)
        return batch.append_column(
            "embedding",
            pa.FixedSizeListArray.from_arrays(
                pa.array(vecs.ravel(), pa.float32()), d
            ).cast(pa.list_(pa.float32())),
        )


class FrameSample:
    """Video frame sampling: unpack the FVID container, keep every
    `stride`-th frame, EXPLODE to one row per sampled frame
    (video_id, frame_idx, bytes, fmt) — the map_batches leg a video
    pipeline hangs decode/feature stages off.  The container layer is
    real; a real video codec slots in at the frame-decode boundary
    exactly like JPEG (codecs module docstring)."""

    def __init__(self, stride: int = 2):
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import codecs

        vids, idxs, blobs = [], [], []
        for vid, data in zip(batch["video_id"].to_pylist(),
                             batch["bytes"].to_pylist()):
            frames = codecs.video_unpack(data)
            for fi in range(0, len(frames), self.stride):
                vids.append(vid)
                idxs.append(fi)
                blobs.append(frames[fi])
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(idxs, pa.int64()),
                "bytes": pa.array(blobs, pa.binary()),
                "fmt": pa.array(["png"] * len(vids), pa.string()),
            }
        )


class AudioFeatures:
    """PCM16 feature extraction, integer-exact (SQL-hashable): decoded
    sample count, sum of absolute amplitudes, zero crossings (strict
    sign changes), peak amplitude."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .. import codecs

        n, sab, zc, pk = [], [], [], []
        for data in batch["bytes"].to_pylist():
            s = codecs.pcm16_decode(data).astype(np.int64)
            n.append(len(s))
            sab.append(int(np.abs(s).sum()))
            zc.append(int(((s[:-1] < 0) != (s[1:] < 0)).sum()) if len(s) > 1 else 0)
            pk.append(int(np.abs(s).max()) if len(s) else 0)
        return pa.table(
            {
                "audio_id": batch["audio_id"],
                "n_samples": pa.array(n, pa.int64()),
                "sum_abs": pa.array(sab, pa.int64()),
                "zero_crossings": pa.array(zc, pa.int64()),
                "peak": pa.array(pk, pa.int64()),
            }
        )


class PayloadInvariantError(AssertionError):
    pass


def with_payload_invariant(stage_fn, psnr_min: float = 40.0):
    """Wrap a batch-level image stage with the north-rule per-row
    invariant: for every image_id the stage emits, `caption` must equal
    the input's caption, and if the stage rewrote `bytes` the decoded
    pixels must match the input's at PSNR >= psnr_min (exact payloads
    short-circuit on byte equality).  Raises PayloadInvariantError
    inside the worker, failing the pipeline loudly.

    Opt-in (flagship `check_invariants=True`): the check decodes every
    image twice, so it is a validation mode, not the hot path."""
    from .. import codecs

    def wrapped(batch: pa.Table) -> pa.Table:
        in_cols = batch.column_names
        has_bytes = "bytes" in in_cols
        has_cap = "caption" in in_cols
        before = {
            batch["image_id"][i].as_py(): (
                batch["bytes"][i].as_py() if has_bytes else None,
                batch["fmt"][i].as_py() if has_bytes else None,
                batch["caption"][i].as_py() if has_cap else None,
            )
            for i in range(batch.num_rows)
        }
        out = stage_fn(batch)
        cols = out.column_names
        for i in range(out.num_rows):
            iid = out["image_id"][i].as_py()
            b0, f0, c0 = before[iid]
            if has_cap and "caption" in cols and out["caption"][i].as_py() != c0:
                raise PayloadInvariantError(f"caption changed for {iid}")
            if has_bytes and "bytes" in cols:
                b1 = out["bytes"][i].as_py()
                f1 = out["fmt"][i].as_py() if "fmt" in cols else f0
                if b1 != b0:
                    p = codecs.psnr(codecs.decode(b0, f0), codecs.decode(b1, f1))
                    if p < psnr_min:
                        raise PayloadInvariantError(
                            f"PSNR {p:.1f} dB < {psnr_min} for {iid}"
                        )
        return out

    return wrapped


# Stage wrappers: stateless tasks over one per-process stage instance
# (knn.map_with_state).  The constructors are trivial (no broadcast
# side table; AverageHash just allocates reusable decode buffers).


def decode_stats(images_ds, batch_size: int = 1024):
    return map_with_state(images_ds, "img/stats", DecodeStats, batch_size)


def resize(images_ds, w: int, h: int, batch_size: int = 512):
    return map_with_state(images_ds, f"img/resize/{w}x{h}",
                          lambda: Resize(w=w, h=h), batch_size)


def average_hash(images_ds, batch_size: int = 1024):
    return map_with_state(images_ds, "img/ahash", AverageHash, batch_size)


def embed_images(images_ds, batch_size: int = 512):
    return map_with_state(images_ds, "img/embed", EmbedImage, batch_size)
