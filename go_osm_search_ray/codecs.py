"""Image payload codecs for the image+caption table (BASELINE.json input_hint).

No image library ships in this container (no PIL/cv2), so:

- ``fmt="png"``  — a REAL minimal PNG codec (8-bit RGB, filter 0,
  zlib/DEFLATE) implemented here with numpy + zlib.  Lossless:
  decode(encode(x)) == x exactly, so the per-row invariant
  (decoded-pixel allclose) is checked for real.
- ``fmt="jpeg"`` — a clearly-marked DETERMINISTIC FAKE for the lossy
  path: pixels are quantized (step 4) then stored in the same PNG
  container with a different magic chunk order tag.  Quantization step 4
  gives MSE <= 1.25 => PSNR ~47 dB > the 40 dB invariant floor.  Swap in
  a real JPEG codec (PIL/libjpeg) outside this sandbox; the Ray-side
  plumbing (schema, batch shapes, actor signatures) is identical.

All functions operate on uint8 RGB arrays of shape (h, w, 3).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
JPEG_QUANT_STEP = 4


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def png_encode(rgb: np.ndarray, level: int = 6) -> bytes:
    """Encode an (h, w, 3) uint8 array as a PNG byte string."""
    assert rgb.dtype == np.uint8 and rgb.ndim == 3 and rgb.shape[2] == 3
    h, w = rgb.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit RGB
    # filter byte 0 per scanline
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = rgb.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_decode(data: bytes) -> np.ndarray:
    """Decode a PNG produced by :func:`png_encode` (8-bit RGB, filter 0).

    Returns a READ-ONLY array — callers that need to mutate must copy.
    (Stripping the per-scanline filter byte means the pixel data is a
    non-contiguous slice, so the reshape necessarily copies once for
    h > 1; the fast path's measured win is skipping the chunk walk and
    per-chunk slicing, not avoiding that copy.)  Fast path: our own
    encoder emits exactly SIG|IHDR|IDAT|IEND, so the chunk offsets are
    fixed; anything else falls back to the general chunk walk.

    Raises ValueError for a blob that is not a PNG or is cut short
    (a chunk runs past the data), NotImplementedError for a layout
    outside 8-bit RGB / filter 0, zlib.error for a corrupt stream."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    # fast path: single IDAT at the fixed offset our encoder produces
    if data[37:41] == b"IDAT" and data[12:16] == b"IHDR":
        w, h, depth, color = struct.unpack_from(">IIBB", data, 16)
        if depth == 8 and color == 2:
            (ln,) = struct.unpack_from(">I", data, 33)
            raw = np.frombuffer(
                zlib.decompress(data[41 : 41 + ln]), dtype=np.uint8
            ).reshape(h, 1 + w * 3)
            if (raw[:, 0] != 0).any():
                raise NotImplementedError("only filter 0 supported")
            out = raw[:, 1:].reshape(h, w, 3)
            if out.flags.writeable:  # h == 1 stays a read-only view
                out.flags.writeable = False
            return out
    pos, w, h, idat = 8, None, None, b""
    while pos < len(data):
        if pos + 8 > len(data):
            raise ValueError("PNG chunk header runs past the data")
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if len(body) < length:
            raise ValueError("PNG chunk body runs past the data")
        pos += 12 + length
        if tag == b"IHDR":
            if length < 10:
                raise ValueError("PNG IHDR chunk too short")
            w, h, depth, color = struct.unpack_from(">IIBB", body)
            if depth != 8 or color != 2:
                raise NotImplementedError("only 8-bit RGB supported")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG has no IHDR chunk")
    raw = np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, 1 + w * 3)
    if (raw[:, 0] != 0).any():
        raise NotImplementedError("only filter 0 supported")
    return raw[:, 1:].reshape(h, w, 3)


def png_decode_batch(
    data: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    w: int,
    h: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode n same-size PNGs produced by :func:`png_encode` (exactly
    SIG|IHDR|IDAT|IEND, filter 0) laid out in one uint8 buffer.

    The per-image chunk walk is replaced by ONE vectorized fixed-layout
    validation over the whole batch (fancy-index gathers at the known
    chunk offsets), and every inflate writes straight into a
    caller-owned reusable buffer — the per-batch MB-scale allocations
    this removes are the page-fault traffic BASELINE.md measured as the
    non-scaling resource past ~8 workers.  Per-image cost collapses to
    the zlib call itself.

    Returns ``(pixels, out)`` where pixels is a read-only
    (n, h, w, 3) uint8 view into ``out`` (pass ``out`` back in on the
    next batch to reuse it).  Raises ValueError/NotImplementedError if
    any blob deviates from the fixed layout — callers fall back to the
    per-image :func:`png_decode`.
    """
    s = np.ascontiguousarray(starts, dtype=np.int64)
    e = np.ascontiguousarray(ends, dtype=np.int64)
    n = len(s)
    row = 1 + 3 * w
    L = h * row
    if n == 0:
        empty = np.empty((0, h, w, 3), dtype=np.uint8)
        return empty, (out if out is not None else np.empty(0, np.uint8))

    def be32(off: int) -> np.ndarray:
        return (
            (data[s + off].astype(np.int64) << 24)
            | (data[s + off + 1].astype(np.int64) << 16)
            | (data[s + off + 2].astype(np.int64) << 8)
            | data[s + off + 3].astype(np.int64)
        )

    if not (e - s >= 57).all():
        raise ValueError("blob shorter than the fixed layout (batch)")
    sig = np.frombuffer(_PNG_SIG, np.uint8)
    tags = np.frombuffer(b"IHDRIDAT", np.uint8)
    for j in range(8):
        if not (data[s + j] == sig[j]).all():
            raise ValueError("not a PNG (batch)")
        if not (data[s + (12 + j if j < 4 else 33 + j)] == tags[j]).all():
            raise ValueError("chunk layout not SIG|IHDR|IDAT (batch)")
    if not ((data[s + 24] == 8) & (data[s + 25] == 2)).all():
        raise NotImplementedError("only 8-bit RGB supported (batch)")
    if not (be32(16) == w).all() or not (be32(20) == h).all():
        raise ValueError("IHDR size != declared w/h (batch)")
    ln = be32(33)
    if not (e - s == ln + 57).all():
        raise ValueError("blob length != fixed layout (batch)")

    if out is None or out.size < n * L:
        out = np.empty(n * L, dtype=np.uint8)
    mv_in = memoryview(data)
    mv_out = memoryview(out)[: n * L]
    a = (s + 41).tolist()
    b = (s + 41 + ln).tolist()
    dec = zlib.decompress
    try:
        for i in range(n):
            # slice-assign from the returned bytes: a length mismatch
            # (bad stream) raises ValueError -> caller falls back
            mv_out[i * L : (i + 1) * L] = dec(mv_in[a[i] : b[i]])
    except zlib.error as err:
        raise ValueError(f"corrupt DEFLATE stream (batch): {err}") from err
    raw = out[: n * L].reshape(n, h, row)
    if raw[:, :, 0].any():
        raise NotImplementedError("only filter 0 supported")
    px = raw[:, :, 1:].reshape(n, h, w, 3)
    px.flags.writeable = False
    return px, out


def jpeg_encode(rgb: np.ndarray) -> bytes:
    """DETERMINISTIC FAKE lossy codec (see module docstring)."""
    q = (rgb.astype(np.int32) // JPEG_QUANT_STEP * JPEG_QUANT_STEP + JPEG_QUANT_STEP // 2).clip(
        0, 255
    ).astype(np.uint8)
    return b"FAKEJPG0" + png_encode(q)


def jpeg_decode(data: bytes) -> np.ndarray:
    if data[:8] != b"FAKEJPG0":
        raise ValueError("not a fake jpeg")
    return png_decode(data[8:])


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return png_decode(data)
    if fmt == "jpeg":
        return jpeg_decode(data)
    raise NotImplementedError(f"unknown fmt {fmt!r}")


def encode(rgb: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return png_encode(rgb)
    if fmt == "jpeg":
        return jpeg_encode(rgb)
    raise NotImplementedError(f"unknown fmt {fmt!r}")


# ---------------------------------------------------------------------------
# minimal multi-frame (video) container and PCM (audio) payloads.
# Real video/audio codecs (ffmpeg et al.) are not in this container —
# the CONTAINER layer below is real (length-prefixed frames, real PNG
# payloads; PCM16 little-endian samples), the lossy codecs are the
# clearly-marked external boundary exactly like JPEG above.

_VID_MAGIC = b"FVID0001"


def video_pack(frames: list[bytes]) -> bytes:
    """Length-prefixed frame container: magic | u32 count | (u32 len |
    payload)*.  Frames are independently-decodable image byte strings
    (PNG here)."""
    out = [_VID_MAGIC, struct.pack("<I", len(frames))]
    for f in frames:
        out.append(struct.pack("<I", len(f)))
        out.append(f)
    return b"".join(out)


def video_unpack(data: bytes) -> list[bytes]:
    if data[:8] != _VID_MAGIC:
        raise ValueError("not a FVID container")
    (n,) = struct.unpack_from("<I", data, 8)
    pos, frames = 12, []
    for _ in range(n):
        (ln,) = struct.unpack_from("<I", data, pos)
        frames.append(data[pos + 4 : pos + 4 + ln])
        pos += 4 + ln
    return frames


def pcm16_encode(samples: np.ndarray) -> bytes:
    """int16 array -> little-endian PCM bytes."""
    return np.asarray(samples, dtype="<i2").tobytes()


def pcm16_decode(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype="<i2")


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
