"""Property-based tests (hypothesis) over the pure kernels, and over
the one keyed shuffle.

These pin the algebraic contracts the distributed operators rely on:
distance symmetry, tile containment, exact top-k cut semantics, the
one ranked page and its per-block-then-merge composition, codec
round-trips, image stages equal to a per-image reference on hostile
batches, bag-invariance of signatures, and `bucketed_group_apply`
handing every group whole to one bucket (the classes marked
`ray_session` need a Ray session).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from go_osm_search_ray import codecs, geo

lat_s = st.floats(min_value=-89.99, max_value=89.99, allow_nan=False)
lon_s = st.floats(min_value=-179.99, max_value=179.99, allow_nan=False)


class TestGeoProperties:
    @settings(max_examples=200, deadline=None)
    @given(lat_s, lon_s, lat_s, lon_s)
    def test_haversine_symmetric_bounded(self, a, b, c, d):
        d1 = float(geo.haversine_km(a, b, c, d))
        d2 = float(geo.haversine_km(c, d, a, b))
        assert abs(d1 - d2) < 1e-9
        assert 0.0 <= d1 <= np.pi * 6371.0 + 1e-6
        assert float(geo.haversine_km(a, b, a, b)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(lat_s, lon_s, st.integers(min_value=1, max_value=10))
    def test_point_inside_own_tile(self, lat, lon, res):
        t = int(geo.tile_id(lat, lon, res))
        lat0, lat1, lon0, lon1 = geo.tile_bounds(t, res)
        assert lat0 - 1e-9 <= lat <= lat1 + 1e-9
        assert lon0 - 1e-9 <= lon <= lon1 + 1e-9
        assert 0 <= t < (1 << res) * (1 << res)

    @settings(max_examples=200, deadline=None)
    @given(lat_s, lon_s, st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=8))
    def test_tile_parent_consistent(self, lat, lon, res, dp):
        parent_res = max(0, res - 1 - dp % res)
        t = geo.tile_id(np.array([lat]), np.array([lon]), res)
        p = geo.tile_parent(t, res, parent_res)
        direct = geo.tile_id(np.array([lat]), np.array([lon]), parent_res)
        assert int(p[0]) == int(direct[0])

    @settings(max_examples=150, deadline=None)
    @given(lat_s, lon_s,
           st.floats(min_value=-80, max_value=80),
           st.floats(min_value=-170, max_value=170),
           st.floats(min_value=0.5, max_value=30.0),
           st.floats(min_value=0.5, max_value=30.0))
    def test_pip_rectangle_equals_between(self, plat, plon, lat0, lon0, dh, dw):
        lat1, lon1 = min(lat0 + dh, 89.9), min(lon0 + dw, 179.9)
        ring_lat = np.array([lat0, lat0, lat1, lat1, lat0])
        ring_lon = np.array([lon0, lon1, lon1, lon0, lon0])
        got = bool(geo.point_in_polygon(plat, plon, ring_lat, ring_lon)[0])
        want = (lat0 <= plat <= lat1) and (lon0 <= plon <= lon1)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(lat_s, lon_s)
    def test_phash_roundtrip_quantization(self, lat, lon):
        from go_osm_search_ray.synth import latlon_to_phash

        ph = latlon_to_phash(np.array([lat]), np.array([lon]))
        qlat, qlon = geo.phash_to_latlon(ph)
        assert abs(float(qlat[0]) - lat) <= 180.0 / 2**32 + 1e-9
        assert abs(float(qlon[0]) - lon) <= 360.0 / 2**32 + 1e-9


class TestTopKCutProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=30),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10**6))
    def test_topk_cols_exact_matches_lexsort(self, rows, cols, k, seed):
        """The argpartition fast path must select EXACTLY the same
        members as a full (value, column) lexsort — ties forced by a
        tiny value alphabet."""
        from go_osm_search_ray.stages.knn import topk_cols_exact

        rng = np.random.default_rng(seed)
        a = rng.integers(0, 4, size=(rows, cols)).astype(np.float64)
        n = min(k, cols)
        got = topk_cols_exact(a, n)
        pos = np.broadcast_to(np.arange(cols), a.shape)
        want = np.lexsort((pos, a), axis=-1)[:, :n]
        for r in range(rows):
            assert set(got[r].tolist()) == set(want[r].tolist())


# ---------------------------------------------------------------------------
# the one ranked page (`agg.page`), its per-block-then-merge composition
# and the Q x B partial top-k selector (`knn.topk_select`), each against
# a test-local reference.  Score alphabets are tiny so ties on the
# score, and on the whole sort key, are the common case; NaN and the
# infinities are in it.

_SCORES = [-1.0, 0.0, 0.5, 1.0, float("nan"), float("inf"), float("-inf")]


def _page_frame(rows):
    return pd.DataFrame({
        "key": pd.Series([r[0] for r in rows], dtype=np.int64),
        "score": pd.Series([r[1] for r in rows], dtype=np.float64),
        "id": pd.Series([r[2] for r in rows], dtype=np.int64),
        "seq": np.arange(len(rows), dtype=np.int64)})


def _page_ref(df, k, offset, desc):
    """(key, seq, rank) of every kept row: per key in key order, the
    rows in `sorted` (NaN last, score, id) order — stable, so full ties
    keep input order — sliced [offset, offset + k)."""
    out = []
    recs = list(df[["key", "score", "id", "seq"]].itertuples(index=False))
    for key in sorted({r.key for r in recs}):
        def order(r):
            nan = r.score != r.score
            return (nan, 0.0 if nan else (-r.score if desc else r.score),
                    r.id)

        grp = sorted((r for r in recs if r.key == key), key=order)
        kk = k.get(key, 0) if isinstance(k, dict) else k
        off = offset.get(key, 0) if isinstance(offset, dict) else offset
        out += [(key, r.seq, i + 1)
                for i, r in enumerate(grp[off:off + kk])]
    return out


def _page_got(out):
    assert out["rank"].dtype == np.int64
    return list(zip(out["key"].tolist(), out["seq"].tolist(),
                    out["rank"].tolist()))


_page_rows = st.lists(st.tuples(st.integers(0, 3), st.sampled_from(_SCORES),
                                st.integers(0, 4)), max_size=60)


def _bound(hi):
    """An int page bound, or a per-key mapping that may miss keys."""
    return st.one_of(st.integers(0, hi),
                     st.dictionaries(st.integers(0, 3), st.integers(0, hi)))


def _blocks(df, n_blocks):
    """`df` cut into n_blocks contiguous blocks (some may be empty)."""
    return [df.iloc[ix] for ix in np.array_split(np.arange(len(df)),
                                                 n_blocks)]


class TestPageProperties:
    @settings(max_examples=300, deadline=None)
    @given(rows=_page_rows, desc=st.booleans(), k=_bound(8), off=_bound(6))
    def test_page_equals_sorted_slice(self, rows, desc, k, off):
        """Ties, NaN, per-key k/offset, k larger than a group, an
        offset past its end and the empty frame."""
        from go_osm_search_ray.stages.agg import page

        df = _page_frame(rows)
        got = page(df, ["score", "id"], k, off, key="key",
                   descending=("score",) if desc else ())
        assert _page_got(got) == _page_ref(df, k, off, desc)

    @settings(max_examples=300, deadline=None)
    @given(rows=_page_rows, desc=st.booleans(), k=_bound(8), off=_bound(6),
           n_blocks=st.sampled_from([1, 2, 7]))
    @example(rows=[(0, -1.0, 0)], desc=False, k=1, off={}, n_blocks=1)
    def test_block_partials_then_merge_equal_one_page(self, rows, desc, k,
                                                      off, n_blocks):
        """`driver_page`'s algebra: a page of max(k + offset) rows per
        key on each block, concatenated in block order, then the page —
        equals one page over the whole frame, full ties across blocks
        included."""
        from go_osm_search_ray.stages.agg import _keep_max, page

        df = _page_frame(rows)
        by, d = ["score", "id"], ("score",) if desc else ()
        parts = pd.concat(
            [page(b, by, _keep_max(k, off), key="key", descending=d)
             for b in _blocks(df, n_blocks)], ignore_index=True)
        got = page(parts, by, k, off, key="key", descending=d)
        assert _page_got(got) == _page_ref(df, k, off, desc)


@pytest.mark.usefixtures("ray_session")
class TestDriverPage:
    @settings(max_examples=4, deadline=None)
    @given(rows=_page_rows, desc=st.booleans(), k=_bound(8), off=_bound(6),
           n_blocks=st.sampled_from([1, 5]))
    @example(rows=[], desc=True, k=3, off=0, n_blocks=1)
    @example(rows=[(0, 1.0, 0), (1, float("nan"), 2), (1, 0.5, 3)],
             desc=True, k={1: 1}, off={1: 1}, n_blocks=5)
    def test_driver_page_equals_sorted_slice(self, rows, desc, k, off,
                                             n_blocks):
        """The Ray plan: per-block partials, typed collect, page.  Ids
        are unique per key, so the answer does not depend on the order
        Ray hands the blocks back."""
        import ray.data as rd

        from go_osm_search_ray.stages.agg import driver_page

        rows = list({(r[0], r[2]): r for r in rows}.values())
        df = _page_frame(rows)
        got = driver_page(rd.from_pandas(_blocks(df, n_blocks)),
                          ["score", "id"], k, off, key="key",
                          descending=("score",) if desc else ())
        if not rows:  # Ray keeps no schema for a Dataset of no block
            assert len(got) == 0
            return
        assert list(got.columns) == ["key", "score", "id", "seq", "rank"]
        assert got.dtypes.tolist()[:4] == df.dtypes.tolist()
        assert _page_got(got) == _page_ref(df, k, off, desc)


def _select_ref(score, k, ids, valid):
    """The per-query lexsort loop the embed probes ran before
    `topk_select`: (score ASC, id ASC) over the valid columns."""
    out = set()
    for q in range(score.shape[0]):
        idx = np.nonzero(np.ones(score.shape[1], bool) if valid is None
                         else valid[q])[0]
        top = idx[np.lexsort((ids[idx], score[q][idx]))[:k]]
        out |= {(q, int(c)) for c in top}
    return out


class TestTopKSelect:
    @settings(max_examples=400, deadline=None)
    @given(q=st.integers(0, 5), b=st.integers(0, 12), k=st.integers(0, 14),
           mask=st.sampled_from(["none", "self", "probe"]),
           nan_row=st.booleans(), seed=st.integers(0, 10**6))
    def test_select_equals_lexsort_loop(self, q, b, k, mask, nan_row, seed):
        """`exclude_self` and IVF probe masks, k >= batch, the empty
        batch, duplicate ids and an all-NaN row (a zero-norm query)."""
        from go_osm_search_ray.stages.knn import topk_select

        rng = np.random.default_rng(seed)
        score = rng.choice(_SCORES, size=(q, b))
        if nan_row and q:
            score[0] = np.nan
        ids = rng.integers(0, max(b, 1) + 2, b).astype(np.int64)
        q_ids = rng.integers(0, max(b, 1) + 2, q).astype(np.int64)
        valid = {"none": None,
                 "self": ids[None, :] != q_ids[:, None],
                 "probe": rng.random((q, b)) < 0.6}[mask]
        rows, cols = topk_select(score, k, ids, valid)
        got = set(zip(rows.tolist(), cols.tolist()))
        assert len(got) == len(rows)
        assert got == _select_ref(score, k, ids, valid)


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=10**6))
    def test_png_roundtrip_exact(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
        out = codecs.png_decode(codecs.png_encode(img))
        assert (out == img).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=0, max_value=10**6))
    def test_fake_jpeg_psnr_floor(self, side, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(side, side, 3)).astype(np.uint8)
        out = codecs.jpeg_decode(codecs.jpeg_encode(img))
        assert codecs.psnr(img, out) >= 40.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-1024, max_value=1023),
                    min_size=0, max_size=200))
    def test_pcm_roundtrip(self, samples):
        s = np.array(samples, dtype=np.int16)
        assert (codecs.pcm16_decode(codecs.pcm16_encode(s)) == s).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    def test_video_container_roundtrip(self, n_frames, seed):
        rng = np.random.default_rng(seed)
        frames = [
            codecs.png_encode(
                rng.integers(0, 256, size=(4, 4, 3)).astype(np.uint8)
            )
            for _ in range(n_frames)
        ]
        assert codecs.video_unpack(codecs.video_pack(frames)) == frames


def _ref_pixels(blob, fmt):
    """One payload through the per-image codec; None if it does not
    decode (null bytes or fmt, unknown fmt, corrupt or short blob)."""
    import zlib

    if blob is None or fmt is None:
        return None
    try:
        return codecs.decode(blob, fmt)
    except (ValueError, NotImplementedError, zlib.error):
        return None


def _nn(img, w, h):
    """Nearest-neighbor picks: output pixel (y, x) is source pixel
    (y*H//h, x*W//w)."""
    H, W = img.shape[:2]
    return img[(np.arange(h) * H // h)[:, None], np.arange(w) * W // w]


def _signed64(bits):
    """Bit i weighted 2^i, as a two's-complement int64."""
    v = sum(1 << i for i, b in enumerate(bits) if b)
    return v - (1 << 64) if v >= 1 << 63 else v


def _cells(h, w, g=4):
    """The g x g pooling grid of the EmbedImage contract: cell yi spans
    rows [yi*h//g, max(yi*h//g + 1, (yi+1)*h//g)), likewise columns."""
    for yi in range(g):
        y0 = yi * h // g
        for xi in range(g):
            x0 = xi * w // g
            yield yi, xi, (slice(y0, max(y0 + 1, (yi + 1) * h // g)),
                           slice(x0, max(x0 + 1, (xi + 1) * w // g)))


def _ref_stage(name, batch, imgs):
    """The expected output table of image stage `name`, computed one
    image at a time from each stage's docstring contract."""
    ids = batch["image_id"].to_pylist()
    if name == "DecodeStats":
        st_ = [(float(m.mean()), float(m.std()), True) if m is not None
               else (0.0, 0.0, False) for m in imgs]
        return pa.table({
            "image_id": batch["image_id"],
            "mean_pixel": pa.array([s[0] for s in st_], pa.float64()),
            "std_pixel": pa.array([s[1] for s in st_], pa.float64()),
            "decode_ok": pa.array([s[2] for s in st_], pa.bool_())})
    i64 = [m.astype(np.int64) for m in imgs]
    if name == "DecodeSums":
        s = [m.sum(axis=(0, 1)).tolist() for m in i64]
        return pa.table({"image_id": batch["image_id"], **{
            f"sum_{c}": pa.array([v[j] for v in s], pa.int64())
            for j, c in enumerate("rgb")}})
    if name == "AverageHashInt":
        vals = []
        for m in i64:
            s = _nn(m, 8, 8).sum(axis=2).ravel()
            vals.append(_signed64(64 * s > s.sum()))
        return batch.append_column("ahash_int", pa.array(vals, pa.int64()))
    if name == "AverageHash":
        vals = []
        for m in imgs:
            gray = _nn(m.mean(axis=2, dtype=np.float32), 8, 8).ravel()
            vals.append(_signed64(gray > gray.mean()))
        return batch.append_column("ahash", pa.array(vals, pa.int64()))
    if name == "EdgeEnergy":
        vals = []
        for m in i64:
            s = m.sum(axis=2)
            vals.append(int(np.abs(np.diff(s, axis=1)).sum()
                            + np.abs(np.diff(s, axis=0)).sum()))
        return batch.append_column("edge_energy", pa.array(vals, pa.int64()))
    if name == "EmbedImageSums":
        rows = []
        for iid, m in zip(ids, i64):
            for yi, xi, cell in _cells(*m.shape[:2]):
                rows.append((iid, yi, xi, *m[cell].sum(axis=(0, 1)).tolist()))
        cols = list(zip(*rows)) or [[]] * 6
        return pa.table({
            "image_id": pa.array(cols[0], pa.string()),
            **{c: pa.array(cols[j + 1], pa.int64()) for j, c in enumerate(
                ["grid_y", "grid_x", "sum_r", "sum_g", "sum_b"])}})
    if name == "EmbedImage":
        vecs = []
        for m in imgs:
            f = m.astype(np.float32)
            vecs.append([v for _, _, cell in _cells(*m.shape[:2])
                         for v in (f[cell].mean(axis=(0, 1))
                                   / np.float32(255)).tolist()])
        return batch.append_column(
            "embedding", pa.array(vecs, pa.list_(pa.float32())))
    assert name == "Resize"
    n = batch.num_rows
    return (batch.drop_columns([c for c in ("bytes", "w", "h", "fmt")
                                if c in batch.column_names])
            .append_column("bytes", pa.array(
                [codecs.png_encode(np.ascontiguousarray(_nn(m, 4, 3)))
                 for m in imgs], pa.binary()))
            .append_column("w", pa.array([4] * n, pa.int32()))
            .append_column("h", pa.array([3] * n, pa.int32()))
            .append_column("fmt", pa.array(["png"] * n, pa.string())))


_row_s = st.tuples(
    st.integers(min_value=1, max_value=12),          # h
    st.integers(min_value=1, max_value=12),          # w
    st.sampled_from(["png", "jpeg"]),
    st.one_of(st.none(),  # half the rows stay valid
              st.sampled_from(["truncate", "bitflip", "null_bytes",
                               "null_fmt", "gif"])),
    st.integers(min_value=0, max_value=10**6))       # mutation position


class TestImageStageProperties:
    """Any mutation of a valid image batch: every image stage returns
    exactly a per-image reference's result row by row (DecodeStats
    flags a bad row `decode_ok=False`), or raises ImageDecodeError
    when a row does not decode.  Holds the batched (uniform) decode
    and the per-image shape-group decode to one contract."""

    STAGES = ("DecodeStats", "DecodeSums", "AverageHashInt", "AverageHash",
              "EdgeEnergy", "EmbedImageSums", "EmbedImage", "Resize")

    @staticmethod
    def _batch(rows, uniform, seed):
        rng = np.random.default_rng(seed)
        cols = {c: [] for c in ("image_id", "bytes", "w", "h", "fmt")}
        for i, (h, w, fmt, mut, pos) in enumerate(rows):
            if uniform:  # one shape and fmt: the batched decode path
                h, w, fmt = rows[0][:3]
            blob = codecs.encode(
                rng.integers(0, 256, (h, w, 3), dtype=np.uint8), fmt)
            if mut == "truncate":
                blob = blob[:pos % len(blob)]
            elif mut == "bitflip":
                b = bytearray(blob)
                b[pos % len(b)] ^= 1 << (pos % 8)
                blob = bytes(b)
            elif mut == "null_bytes":
                blob = None
            elif mut == "null_fmt":
                fmt = None
            elif mut == "gif":
                fmt = "gif"
            for c, v in zip(cols, (f"im{i}", blob, w, h, fmt)):
                cols[c].append(v)
        return pa.table({
            "image_id": pa.array(cols["image_id"], pa.string()),
            "bytes": pa.array(cols["bytes"], pa.binary()),
            "w": pa.array(cols["w"], pa.int32()),
            "h": pa.array(cols["h"], pa.int32()),
            "fmt": pa.array(cols["fmt"], pa.string()),
            "caption": pa.array([f"cap {i}" for i in range(len(rows))]),
        })

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_row_s, min_size=0, max_size=8), st.booleans(),
           st.sampled_from([None, "w", "h", "fmt"]),
           st.integers(min_value=0, max_value=10**6))
    @example(rows=[(8, 8, "png", None, 0)] * 3, uniform=True, drop=None,
             seed=1)
    @example(rows=[(8, 8, "png", None, 0), (8, 8, "png", "truncate", 36)],
             uniform=True, drop=None, seed=2)
    @example(rows=[(8, 8, "png", None, 0), (5, 11, "jpeg", None, 0),
                   (8, 8, "jpeg", None, 0), (3, 2, "png", None, 0)],
             uniform=False, drop=None, seed=3)
    @example(rows=[(6, 9, "jpeg", None, 0)] * 2, uniform=True, drop="w",
             seed=4)
    @example(rows=[], uniform=False, drop=None, seed=5)
    def test_stage_equals_per_image_reference(self, rows, uniform, drop,
                                              seed):
        from go_osm_search_ray.stages import images as im

        batch = self._batch(rows, uniform, seed)
        if drop is not None:
            batch = batch.drop_columns([drop])
        fmts = (batch["fmt"].to_pylist() if drop != "fmt"
                else [None] * batch.num_rows)
        imgs = [_ref_pixels(b, f)
                for b, f in zip(batch["bytes"].to_pylist(), fmts)]
        bad = [i for i, m in enumerate(imgs) if m is None]
        for name in self.STAGES:
            stage = (im.Resize(w=4, h=3) if name == "Resize"
                     else getattr(im, name)())
            if bad and name != "DecodeStats":
                with pytest.raises(im.ImageDecodeError, match=f"im{bad[0]}'"):
                    stage(batch)
                continue
            want = _ref_stage(name, batch, imgs)
            got = stage(batch)
            assert got.schema == want.schema, name
            assert got.equals(want), (name, got.to_pydict(), want.to_pydict())


_texts_s = st.lists(st.one_of(
    st.none(),
    st.text(max_size=30),
    st.lists(st.one_of(st.sampled_from(["İ", "\u212a", "ß", " ", "\t", "\n",
                                        "\u00a0", " \t\n ", "?!", "-"]),
                       st.text(alphabet="aZ09é", max_size=4)),
             max_size=8).map("".join),
), max_size=12)


class TestTextProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee"]),
                    min_size=1, max_size=20),
           st.integers(min_value=0, max_value=10**6))
    def test_simhash_is_bag_invariant(self, tokens, seed):
        """SimHash depends only on the token BAG, never the order —
        tested on the stage's own core function."""
        from go_osm_search_ray.stages.dedup import simhash64_from_flat
        from go_osm_search_ray.stages.text import tokenize_flat_arrow

        rng = np.random.default_rng(seed)
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        both = pd.Series([" ".join(tokens), " ".join(shuffled)])
        codes, uniques, lens, _ = tokenize_flat_arrow(both)
        sigs = simhash64_from_flat(codes, uniques, lens)
        assert sigs[0] == sigs[1]

    @settings(max_examples=150, deadline=None)
    @given(_texts_s)
    @example(["İstanbul", None, "", "?!", "\u212aELVIN Straße"])
    def test_one_tokenizer_matches_duckdb(self, texts):
        """Both token forms equal DuckDB's
        regexp_extract_all(lower(text), '[a-z0-9]+') with null read as
        '' (utf8proc lowercase: 'İ' -> 'i', Kelvin sign -> 'k'), and
        `text.quality_signals` equals the oracle's SQL_QUALITY row by
        row."""
        import duckdb

        from go_osm_search_ray.pipelines.queries import SQL_QUALITY, TOK
        from go_osm_search_ray.stages import text

        df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                           "text": pd.Series(texts, dtype=object)})
        con = duckdb.connect()
        con.register("raw", df)
        con.execute("CREATE VIEW documents AS SELECT doc_id, "
                    "COALESCE(text, '') AS text FROM raw")
        want = [list(t) for t in con.sql(
            f"SELECT {TOK} FROM documents ORDER BY doc_id").df().iloc[:, 0]]

        lists = text.tokenize_series(df["text"])
        assert list(lists.index) == list(df.index)
        assert lists.tolist() == want
        codes, uniques, lens, starts = text.tokenize_flat_arrow(
            pa.array(texts, pa.string()))
        flat = uniques[codes].tolist()
        assert [flat[s:s + n] for s, n in zip(starts, lens)] == want

        got = text.quality_signals(pa.table(
            {"doc_id": df["doc_id"], "text": pa.array(texts, pa.string())}))
        sql = con.sql(SQL_QUALITY + " ORDER BY doc_id").arrow()
        assert got.to_pylist() == sql.select(got.column_names).to_pylist()

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abcde", min_size=0, max_size=8),
           st.text(alphabet="abcde", min_size=0, max_size=8))
    def test_levenshtein_exact_within_band(self, a, b):
        """Contract of the early-exit DP: distances <= max_d are EXACT
        (vs a full DP reference); anything above max_d only promises
        'too far' — callers compare with <= max_d, never read the
        overflow value."""
        from go_osm_search_ray.stages.spell import levenshtein

        def full_dp(x, y):
            prev = list(range(len(y) + 1))
            for i, cx in enumerate(x, 1):
                cur = [i]
                for j, cy in enumerate(y, 1):
                    cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                                   prev[j - 1] + (cx != cy)))
                prev = cur
            return prev[-1]

        ref = full_dp(a, b)
        d = levenshtein(a, b, max_d=3)
        if ref <= 3:
            assert d == ref
        else:
            assert d > 3
        # decision symmetry
        assert (levenshtein(b, a, max_d=3) <= 3) == (d <= 3)


    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7),
                    min_size=1, max_size=40),
           st.data())
    def test_word_candidates_equal_brute_force(self, vocab, data):
        """The delete-index lookup returns exactly the vocab terms within
        edit distance 2: one- and two-edit typos of vocab terms,
        1-character words, and words longer than every vocab term."""
        from go_osm_search_ray.stages import spell

        sc = spell.SpellCorrector(vocab, spell.NGramLM(
            {1: {}, 2: {}, 3: {}, 4: {}}, 0), spell.NoisyChannel([]))

        def typo(w):
            for _ in range(data.draw(st.integers(1, 2))):
                op = data.draw(st.sampled_from(["ins", "del", "sub", "swap"]))
                i = data.draw(st.integers(0, len(w) - 1))
                c = data.draw(st.sampled_from("abcde"))
                if op == "ins":
                    w = w[:i] + c + w[i:]
                elif op == "del" and len(w) > 1:
                    w = w[:i] + w[i + 1:]
                elif op == "sub":
                    w = w[:i] + c + w[i + 1:]
                elif op == "swap" and i + 1 < len(w):
                    w = w[:i] + w[i + 1] + w[i] + w[i + 2:]
            return w

        longest = max(map(len, vocab))
        queries = [typo(data.draw(st.sampled_from(vocab))),
                   data.draw(st.text(alphabet="abcde", min_size=1,
                                     max_size=1)),
                   data.draw(st.text(alphabet="abcde", min_size=longest + 1,
                                     max_size=longest + 3))]
        for q in queries:
            want = sorted(v for v in set(vocab)
                          if spell.levenshtein(q, v) <= 2)
            assert sc.word_candidates(q) == want


class TestQuantileHistogram:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=1, max_size=60),
           st.floats(min_value=0.01, max_value=1.0))
    def test_matches_sorted_multiset(self, vals, q):
        """percentile_disc over the histogram == indexing the sorted
        multiset at ceil(q*n) (the definition, independent code path)."""
        from go_osm_search_ray.stages.agg import quantile_disc_from_histogram

        arr = np.sort(np.array(vals, dtype=np.int64))
        uniq, counts = np.unique(arr, return_counts=True)
        got = quantile_disc_from_histogram(uniq, counts, q)
        want = arr[int(np.ceil(q * len(arr))) - 1]
        assert got == want


# ---------------------------------------------------------------------------
# indexed broadcast probes == test-local brute force.  Inputs mix
# polar points (|lat| > 85), antimeridian-crossing geometry, exact
# distance ties (duplicated items and probes placed on items), empty
# side tables and pinned coarse/fine cell resolutions.

GEOM = pa.list_(pa.struct([("lat", pa.float64()), ("lon", pa.float64())]))


def _coords(rng, n, polar, wrap):
    lat = rng.uniform(-90.0, 90.0, n)
    lon = rng.uniform(-180.0, 180.0, n)
    pick = rng.random(n)
    lat = np.where(pick < polar, np.sign(lat) * rng.uniform(85.0, 90.0, n), lat)
    lon = np.where((pick >= polar) & (pick < polar + wrap),
                   np.sign(lon) * rng.uniform(178.0, 180.0, n), lon)
    return lat, lon


def _wrap(lon):
    return np.mod(lon + 180.0, 360.0) - 180.0


def _streets(rng, n, dup):
    """n polylines of 2-4 vertices, short or long steps, crossing ±180
    when they start near it; the last ``dup`` repeat earlier ones."""
    lat, lon = _coords(rng, n, 0.2, 0.3)
    geoms = []
    for i in range(n):
        step = 0.3 if rng.random() < 0.5 else 25.0
        pts = [(lat[i], lon[i])]
        for _ in range(int(rng.integers(1, 4))):
            a = float(np.clip(pts[-1][0] + rng.uniform(-step, step), -90, 90))
            o = float(_wrap(pts[-1][1] + rng.uniform(-step, step)))
            pts.append((a, o))
        geoms.append([{"lat": a, "lon": o} for a, o in pts])
    for j in range(min(dup, n)):
        geoms[n - 1 - j] = geoms[j]
    return pa.table({"street_id": pa.array(np.arange(n), pa.int64()),
                     "geom": pa.array(geoms, GEOM)})


def _probes(rng, n, items_lat, items_lon):
    lat, lon = _coords(rng, n, 0.2, 0.2)
    if len(items_lat):
        on = rng.random(n) < 0.2  # exactly on an item: distance ties
        j = rng.integers(0, len(items_lat), n)
        lat, lon = np.where(on, items_lat[j], lat), np.where(on, items_lon[j], lon)
    return lat, lon


def _as_ref():
    """ray.get that passes a local object through, so the per-process
    probe states can be built without a Ray session."""
    from unittest import mock

    return mock.patch("ray.get", side_effect=lambda x: x)


probe_case = st.tuples(st.integers(min_value=0, max_value=10**6),
                       st.integers(min_value=0, max_value=40),
                       st.integers(min_value=0, max_value=5),
                       st.sampled_from([None, None, 0, 1, 2, 5, 9]))


class TestIndexedProbeProperties:
    @settings(max_examples=60, deadline=None)
    @given(probe_case)
    def test_nearest_segment_equals_brute(self, case):
        from go_osm_search_ray.stages import knn

        seed, n, dup, res = case
        rng = np.random.default_rng(seed)
        c = knn.CompiledSegments(_streets(rng, n, dup))
        if res is not None:
            c.index = geo.CellIndex(*geo.arc_bbox(c.a_lat, c.a_lon, c.b_lat,
                                                  c.b_lon), res=res)
        lat, lon = _probes(rng, 60, c.a_lat, c.a_lon)
        sid, d, pla, plo = c.nearest(lat, lon)
        if not len(c.a_lat):
            assert (sid == -1).all() and np.isnan(d).all()
            return
        qa, qo = geo.project_point_to_segment(
            lat[None, :], lon[None, :], c.a_lat[:, None], c.a_lon[:, None],
            c.b_lat[:, None], c.b_lon[:, None])
        dd = geo.haversine_km(lat[None, :], lon[None, :], qa, qo)
        j = np.argmin(dd, axis=0)  # first = lowest segment index
        cols = np.arange(len(lat))
        np.testing.assert_array_equal(sid, c.street_id[j])
        np.testing.assert_array_equal(d, dd[j, cols])
        np.testing.assert_array_equal(pla, qa[j, cols])
        np.testing.assert_array_equal(plo, qo[j, cols])

    @settings(max_examples=60, deadline=None)
    @given(probe_case, st.sampled_from([1, 2, 3, 5]))
    def test_nearest_fences_equal_brute(self, case, nearest_n):
        from go_osm_search_ray.stages import geofence

        seed, n, dup, res = case
        rng = np.random.default_rng(seed)
        f_lat, f_lon = _coords(rng, n, 0.2, 0.3)
        f_lat[n - min(dup, n):] = f_lat[:min(dup, n)]
        f_lon[n - min(dup, n):] = f_lon[:min(dup, n)]
        f_r = rng.uniform(10.0, 3000.0, n)
        fences = pa.table({"key": pa.array([f"f{i}" for i in range(n)]),
                           "lat": pa.array(f_lat), "lon": pa.array(f_lon),
                           "radius_km": pa.array(f_r)})
        with _as_ref():
            ev = geofence.FenceEvaluator(fences, nearest_n)
        if res is not None:
            ev.index = geo.CellIndex.of_points(f_lat, f_lon, res=res)
        lat, lon = _probes(rng, 40, f_lat, f_lon)
        olat, olon = _probes(rng, 40, f_lat, f_lon)
        olat[:5] = olon[:5] = geofence.SENTINEL
        batch = pa.table({"point_id": pa.array([f"p{i % 7}" for i in range(40)]),
                          "seq": pa.array(np.arange(40), pa.int64()),
                          "lat": pa.array(lat), "lon": pa.array(lon),
                          "old_lat": pa.array(olat), "old_lon": pa.array(olon)})
        out = ev(batch)
        assert out.schema == pa.schema([("point_id", pa.string()),
                                        ("seq", pa.int64()),
                                        ("fence_key", pa.string()),
                                        ("status", pa.string())])
        want = []
        S = geofence.SENTINEL
        for e in range(40):
            d = geo.haversine_km(lat[e], lon[e], f_lat, f_lon)
            for j in np.lexsort((np.arange(n), d))[:nearest_n]:
                new_in = d[j] <= f_r[j]
                old_in = olat[e] != S and geo.haversine_km(
                    olat[e], olon[e], f_lat[j], f_lon[j]) <= f_r[j]
                if old_in:
                    st_ = ["INSIDE"] if new_in else ["EXIT", "OUTSIDE"]
                elif new_in:
                    st_ = ["ENTER", "INSIDE"]
                else:
                    st_ = ["CROSS" if geo.line_circle_intersect(
                        f_lat[j], f_lon[j], f_r[j], olat[e], olon[e],
                        lat[e], lon[e]) else "OUTSIDE"]
                want += [(f"p{e % 7}", e, f"f{j}", s) for s in st_]
        got = list(zip(*(out[c].to_pylist() for c in out.column_names)))
        assert sorted(got) == sorted(want)

    @settings(max_examples=60, deadline=None)
    @given(probe_case, st.booleans())
    def test_knn_partial_equals_brute(self, case, tagged):
        from go_osm_search_ray.stages import knn

        seed, n, dup, res = case
        rng = np.random.default_rng(seed)
        n = 3 * n
        p_lat, p_lon = _coords(rng, n, 0.2, 0.3)
        p_lat[n - min(dup, n):] = p_lat[:min(dup, n)]
        p_lon[n - min(dup, n):] = p_lon[:min(dup, n)]
        pid = rng.permutation(n).astype(np.int64)
        tags = rng.choice(["a", "b", "c"], n)
        Q = 12
        q_lat, q_lon = _probes(rng, Q, p_lat, p_lon)
        radius = np.where(rng.random(Q) < 0.5, np.nan, rng.uniform(1, 8000, Q))
        feats = [None if rng.random() < 0.3 else str(rng.choice(["a", "b", "z"]))
                 for _ in range(Q)]
        queries = pa.table({
            "query_id": pa.array(np.arange(Q), pa.int64()),
            "lat": pa.array(q_lat), "lon": pa.array(q_lon),
            "k": pa.array(rng.integers(1, 6, Q), pa.int64()),
            "offset": pa.array(rng.integers(0, 3, Q), pa.int64()),
            "radius_km": pa.array(radius), "feature": pa.array(feats)})
        points = pa.table({"point_id": pa.array(pid), "lat": pa.array(p_lat),
                           "lon": pa.array(p_lon), "tag": pa.array(tags)})
        with _as_ref():
            kp = knn.KNNPartial(queries, "point_id", "tag" if tagged else None)
        if res is not None:
            orig = geo.CellIndex.of_points
            of_points = lambda lat, lon, k=1.0: orig(lat, lon, res=res)  # noqa: E731
        else:
            of_points = geo.CellIndex.of_points
        from unittest import mock

        with mock.patch.object(geo.CellIndex, "of_points", of_points):
            part = pd.concat([kp(points.slice(0, n // 2)).to_pandas(),
                              kp(points.slice(n // 2)).to_pandas()])
        q = queries.to_pandas()
        for r in q.itertuples():
            d = geo.haversine_km(r.lat, r.lon, p_lat, p_lon)
            m = np.ones(n, bool)
            if not np.isnan(r.radius_km):
                m &= d <= r.radius_km
            if tagged and r.feature is not None:
                m &= tags == r.feature
            idx = np.flatnonzero(m)
            idx = idx[np.lexsort((pid[idx], d[idx]))][r.offset:r.offset + r.k]
            g = part[part["query_id"] == r.query_id].sort_values(
                ["dist_km", "point_id"], kind="mergesort")
            g = g.iloc[r.offset:r.offset + r.k]
            assert g["point_id"].tolist() == pid[idx].tolist()
            np.testing.assert_array_equal(g["dist_km"].to_numpy(), d[idx])

    @settings(max_examples=60, deadline=None)
    @given(probe_case)
    def test_pip_min_id_equals_brute(self, case):
        from go_osm_search_ray.stages import pip

        seed, n, dup, res = case
        rng = np.random.default_rng(seed)
        c_lat, c_lon = _coords(rng, n, 0.2, 0.3)
        rings = []
        for i in range(n):
            k = int(rng.integers(3, 7))
            ang = np.sort(rng.uniform(0, 2 * np.pi, k))
            rad = rng.uniform(0.5, 40.0, k)
            # planar rings: lon may run past ±180 near the antimeridian
            a = np.clip(c_lat[i] + rad * np.sin(ang), -90, 90)
            o = c_lon[i] + rad * np.cos(ang) * 2
            rings.append([{"lat": float(x), "lon": float(y)}
                          for x, y in zip(np.r_[a, a[0]], np.r_[o, o[0]])])
        for j in range(min(dup, n)):
            rings[n - 1 - j] = rings[j]
        ids = rng.permutation(n).astype(np.int64)
        polys = pa.table({"polygon_id": pa.array(ids), "ring": pa.array(rings, GEOM)})
        lat, lon = _coords(rng, 300, 0.2, 0.3)
        lon = lon * rng.choice([1.0, 1.05], 300)  # queries past ±180 too
        got = pip.CompiledPolygons(polys, tile_res=res).first_hit(lat, lon)
        want = np.full(len(lat), -1, np.int64)
        for i in np.argsort(ids)[::-1]:
            rl = np.array([p["lat"] for p in rings[i]])
            ro = np.array([p["lon"] for p in rings[i]])
            want[geo.point_in_polygon(lat, lon, rl, ro)] = ids[i]
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_arc_bbox_covers_the_arc(self, seed):
        rng = np.random.default_rng(seed)
        a_lat, a_lon = _coords(rng, 20, 0.3, 0.3)
        b_lat = np.clip(a_lat + rng.uniform(-60, 60, 20), -90, 90)
        b_lon = _wrap(a_lon + rng.uniform(-170, 170, 20))
        lat0, lat1, lon0, lon1 = geo.arc_bbox(a_lat, a_lon, b_lat, b_lon)
        # points along each minor arc by slerp
        def unit(lat, lon):
            la, lo = np.radians(lat), np.radians(lon)
            return np.stack([np.cos(la) * np.cos(lo), np.cos(la) * np.sin(lo),
                             np.sin(la)], -1)
        A, B = unit(a_lat, a_lon), unit(b_lat, b_lon)
        om = np.arccos(np.clip((A * B).sum(-1), -1, 1))
        t = np.linspace(0, 1, 201)[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            P = (np.sin((1 - t) * om)[..., None] * A + np.sin(t * om)[..., None] * B) \
                / np.sin(om)[None, :, None]
        ok = (om > 1e-6) & (om < np.pi - 1e-6)
        plat = np.degrees(np.arcsin(np.clip(P[..., 2], -1, 1)))
        plon = np.degrees(np.arctan2(P[..., 1], P[..., 0]))
        wraps = lon0 > lon1
        in_lat = (plat >= lat0 - 1e-7) & (plat <= lat1 + 1e-7)
        in_lon = np.where(wraps, (plon >= lon0 - 1e-7) | (plon <= lon1 + 1e-7),
                          (plon >= lon0 - 1e-7) & (plon <= lon1 + 1e-7))
        polar = np.abs(plat) > 90 - 1e-6  # longitude is arbitrary at a pole
        assert (in_lat | ~ok).all()
        assert (in_lon | polar | ~ok).all()


_GROUP_KEYS = {"int": ["k_int"], "str": ["k_str"], "pair": ["k_int", "k_str"]}


@pytest.mark.usefixtures("ray_session")
class TestBucketedGroupApply:
    @pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
    @pytest.mark.parametrize("key_kind", sorted(_GROUP_KEYS))
    @settings(max_examples=4, deadline=None)
    @given(n=st.integers(min_value=0, max_value=400),
           n_blocks=st.sampled_from([1, 16]),
           seed=st.integers(min_value=0, max_value=10**6))
    @example(n=0, n_blocks=16, seed=0)
    @example(n=0, n_blocks=1, seed=0)
    def test_equals_pandas_groupby(self, key_kind, batch_format, n,
                                   n_blocks, seed):
        import ray.data as rd

        from go_osm_search_ray.stages.agg import bucketed_group_apply

        keys = _GROUP_KEYS[key_kind]
        rng = np.random.default_rng(seed)
        df = pd.DataFrame({
            "k_int": rng.integers(-5, 40, n).astype(np.int64),
            "k_str": rng.choice(["a", "bb", "ccc", "", "é"], n),
            "v": rng.integers(-1000, 1000, n).astype(np.int64),
        })

        # per-group semantics owned by the function: count, sum, min, max
        def bucket_fn(g):
            if batch_format == "pandas":
                assert "_bucket" not in g.columns
                return (g.groupby(keys, as_index=False)["v"]
                        .agg(["size", "sum", "min", "max"]))
            assert "_bucket" not in g.column_names
            out = g.group_by(keys).aggregate(
                [("v", "count"), ("v", "sum"), ("v", "min"), ("v", "max")])
            return out.rename_columns(
                [{"v_count": "size", "v_sum": "sum", "v_min": "min",
                  "v_max": "max"}.get(c, c) for c in out.column_names])

        blocks = [df.iloc[i::n_blocks] for i in range(n_blocks)]
        got = bucketed_group_apply(rd.from_pandas(blocks), keys, bucket_fn,
                                   batch_format=batch_format).to_pandas()
        want = bucket_fn(df) if batch_format == "pandas" else \
            bucket_fn(pa.Table.from_pandas(df, preserve_index=False)).to_pandas()
        if not len(want):
            assert len(got) == 0
            return
        cols = keys + ["size", "sum", "min", "max"]
        got = got[cols].sort_values(keys).reset_index(drop=True)
        want = want[cols].sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _union_find_labels(edges):
    """Test-local reference: node -> minimum node id of its component,
    for every endpoint of `edges` (self-loops included)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


_edge_lists = st.one_of(
    # random graphs: repeated edges and self-loops come up often
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
             max_size=40),
    # long chains in shuffled edge order (many propagation rounds)
    st.integers(2, 40).flatmap(lambda n: st.permutations(
        [(i, i + 1) for i in range(n)])),
)


@pytest.mark.usefixtures("ray_session")
class TestConnectedComponents:
    """`dedup.cc_labels` under both plans (single-task union-find up to
    CC_TASK_EDGES_MAX edges, the distributed fixpoint above) and the
    `near_dedup_keep` keep-set, against a test-local union-find."""

    @pytest.mark.parametrize("task_edges_max", [2_000_000, 0])
    @settings(max_examples=3, deadline=None)
    @given(edges=_edge_lists)
    @example(edges=[])
    @example(edges=[(3, 3), (3, 3), (7, 7)])
    @example(edges=[(i + 1, i) for i in range(40)])
    def test_cc_labels_equal_union_find(self, task_edges_max, edges):
        import ray.data as rd

        from go_osm_search_ray.stages import dedup

        pairs = pd.DataFrame({
            "id_a": np.array([a for a, _ in edges], dtype=np.int64),
            "id_b": np.array([b for _, b in edges], dtype=np.int64)})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dedup, "CC_TASK_EDGES_MAX", task_edges_max)
            got = dedup.cc_labels(
                rd.from_pandas(pairs).repartition(3)).to_pandas()
        # an empty Dataset's to_pandas() has no columns
        lab = (dict(zip(got["node"].tolist(), got["label"].tolist()))
               if len(got) else {})
        assert len(lab) == len(got)  # one row per node
        assert lab == _union_find_labels(edges)

    @pytest.mark.parametrize("plan", ["default", "distributed_keyed"])
    @settings(max_examples=3, deadline=None)
    @given(texts=st.lists(
        st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), max_size=7)
        .map(" ".join), min_size=1, max_size=16))
    @example(texts=["aa bb cc dd", "aa bb cc dd", "aa bb cc dd aa",
                    "dd cc bb aa", "cc dd", ""])
    def test_near_dedup_keeps_component_minimum(self, plan, texts):
        import ray.data as rd

        from go_osm_search_ray.stages import agg, dedup

        # ids descend with row order, so the kept minimum is not simply
        # the first row of a component
        df = pd.DataFrame({
            "doc_id": np.arange(len(texts), dtype=np.int64)[::-1] * 3 + 7,
            "text": texts})
        with pytest.MonkeyPatch.context() as mp:
            if plan == "distributed_keyed":
                mp.setattr(dedup, "CC_TASK_EDGES_MAX", 0)
                mp.setattr(agg, "BROADCAST_KEYS_MAX", 0)
            pairs = dedup.jaccard_pairs(
                rd.from_pandas(df).repartition(3), threshold=0.2).to_pandas()
            got = dedup.near_dedup_keep(
                rd.from_pandas(df).repartition(3), threshold=0.2).to_pandas()
        comp = _union_find_labels(
            zip(pairs["id_a"].tolist(), pairs["id_b"].tolist())
            if len(pairs) else [])
        want = {d for d in df["doc_id"].tolist() if comp.get(d, d) == d}
        assert sorted(got["doc_id"].tolist()) == sorted(want)
