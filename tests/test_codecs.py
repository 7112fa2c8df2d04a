import numpy as np
import pytest

from go_osm_search_ray import codecs, synth


class TestPNG:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        for shape in [(8, 8, 3), (16, 9, 3), (1, 1, 3), (64, 64, 3)]:
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            out = codecs.png_decode(codecs.png_encode(img))
            np.testing.assert_array_equal(img, out)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            codecs.png_decode(b"not a png at all")

    def test_psnr_lossless_inf(self):
        img = np.zeros((8, 8, 3), np.uint8)
        assert codecs.psnr(img, img) == float("inf")


class TestFakeJPEG:
    def test_lossy_but_above_invariant(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        out = codecs.jpeg_decode(codecs.jpeg_encode(img))
        p = codecs.psnr(img, out)
        assert p >= 40.0  # the per-row invariant floor (BASELINE.json)
        assert p != float("inf")  # genuinely lossy


class TestImagesBatch:
    def test_deterministic_and_decodable(self):
        idx = np.arange(100, dtype=np.uint64)
        t1 = synth.images_batch(idx, seed=42)
        t2 = synth.images_batch(idx, seed=42)
        assert t1.equals(t2)
        assert t1.num_rows == 100
        # every payload decodes and matches its fmt/w/h
        for i in range(0, 100, 17):
            row = {c: t1[c][i].as_py() for c in t1.column_names}
            img = codecs.decode(row["bytes"], row["fmt"])
            assert img.shape == (row["h"], row["w"], 3)

    def test_order_independence(self):
        a = synth.images_batch(np.array([5, 6, 7], dtype=np.uint64))
        b = synth.images_batch(np.array([7, 5, 6], dtype=np.uint64))
        assert a.slice(0, 1)["phash"][0].as_py() == b.slice(1, 1)["phash"][0].as_py()

    def test_phash_latlon_consistent(self):
        from go_osm_search_ray import geo

        t = synth.images_batch(np.arange(1000, dtype=np.uint64))
        lat, lon = geo.phash_to_latlon(t["phash"].to_numpy())
        assert (np.abs(lat) <= 90).all() and (np.abs(lon) <= 180).all()

    def test_hot_cells_exist(self):
        from go_osm_search_ray import geo

        t = synth.images_batch(np.arange(20000, dtype=np.uint64))
        lat, lon = geo.phash_to_latlon(t["phash"].to_numpy())
        tiles = geo.tile_id(lat, lon, 7)
        _, counts = np.unique(tiles, return_counts=True)
        # skewed: the hottest cell should hold far more than the mean
        assert counts.max() > 20 * counts.mean()


class TestSideTables:
    def test_polygons_closed_rings(self):
        t = synth.polygons_table(40)
        assert t.num_rows == 40
        for i in range(t.num_rows):
            ring = t["ring"][i].as_py()
            assert ring[0] == ring[-1]
            assert len(ring) >= 4

    def test_streets(self):
        t = synth.streets_table(20)
        assert t.num_rows == 20
        assert len(t["geom"][0].as_py()) >= 2

    def test_fence_events_cover_fences(self):
        f = synth.fences_table(5)
        ev = synth.fence_events_table(f, n_points=5, steps=10)
        assert ev.num_rows == 50
        # seq strictly increasing
        s = ev["seq"].to_numpy()
        assert (np.diff(s) > 0).all()


class TestMultiFrameAndPCM:
    def test_video_container_roundtrip(self):
        import numpy as np

        from go_osm_search_ray import codecs

        frames = []
        for i in range(5):
            img = np.full((8, 8, 3), i * 10, dtype=np.uint8)
            frames.append(codecs.png_encode(img))
        packed = codecs.video_pack(frames)
        out = codecs.video_unpack(packed)
        assert out == frames
        for i, f in enumerate(out):
            assert (codecs.png_decode(f) == i * 10).all()

    def test_pcm16_roundtrip(self):
        import numpy as np

        from go_osm_search_ray import codecs

        s = (np.arange(100) * 37 % 2048 - 1024).astype(np.int16)
        assert (codecs.pcm16_decode(codecs.pcm16_encode(s)) == s).all()

    def test_frame_sample_stride(self):
        import numpy as np
        import pyarrow as pa

        from go_osm_search_ray import synth
        from go_osm_search_ray.stages.images import FrameSample

        t = synth.videos_from_keys(np.array([7, 8]), n_frames=6)
        out = FrameSample(stride=2)(t)
        df = out.to_pandas()
        assert sorted(df["frame_idx"].unique()) == [0, 2, 4]
        assert len(df) == 6  # 2 videos x 3 sampled frames

    def test_audio_features_match_brute(self):
        import numpy as np

        from go_osm_search_ray import codecs, synth
        from go_osm_search_ray.stages.images import AudioFeatures

        t = synth.audio_from_keys(np.array([3, 9]), n_samples=64)
        out = AudioFeatures()(t).to_pandas()
        for i, kk in enumerate([3, 9]):
            s = codecs.pcm16_decode(t["bytes"][i].as_py()).astype(np.int64)
            assert out["n_samples"][i] == 64
            assert out["sum_abs"][i] == np.abs(s).sum()
            assert out["peak"][i] == np.abs(s).max()
            zc = ((s[:-1] < 0) != (s[1:] < 0)).sum()
            assert out["zero_crossings"][i] == zc


class TestBatchedDecode:
    """png_decode_batch / decode_batch_uniform (round-5): the batched
    fixed-layout decode must be pixel-identical to the per-image codec
    on every layout it accepts, and cleanly refuse everything else."""

    def _table(self, shapes_fmts, seed=3):
        import pyarrow as pa

        rng = np.random.default_rng(seed)
        rows = {"image_id": [], "bytes": [], "w": [], "h": [], "fmt": [],
                "caption": []}
        for i, (h, w, fmt) in enumerate(shapes_fmts):
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            rows["image_id"].append(f"im{i}")
            rows["bytes"].append(codecs.encode(img, fmt))
            rows["w"].append(w)
            rows["h"].append(h)
            rows["fmt"].append(fmt)
            rows["caption"].append(f"cap {i}")
        return pa.table({
            "image_id": pa.array(rows["image_id"]),
            "bytes": pa.array(rows["bytes"], pa.binary()),
            "w": pa.array(rows["w"], pa.int32()),
            "h": pa.array(rows["h"], pa.int32()),
            "fmt": pa.array(rows["fmt"]),
            "caption": pa.array(rows["caption"]),
        })

    def test_uniform_and_mixed_fmt_pixels_match(self):
        from go_osm_search_ray.stages.images import decode_batch_uniform

        for fmts in (["png"] * 6, ["jpeg"] * 6, ["png", "jpeg"] * 3):
            t = self._table([(8, 8, f) for f in fmts])
            px, buf = decode_batch_uniform(t, None)
            assert px is not None and px.shape == (6, 8, 8, 3)
            assert not px.flags.writeable
            for i in range(6):
                want = codecs.decode(t["bytes"][i].as_py(),
                                     t["fmt"][i].as_py())
                np.testing.assert_array_equal(px[i], want)

    def test_non_8x8_uniform(self):
        from go_osm_search_ray.stages.images import decode_batch_uniform

        t = self._table([(5, 11, "png")] * 4)
        px, _ = decode_batch_uniform(t, None)
        assert px is not None and px.shape == (4, 5, 11, 3)
        for i in range(4):
            np.testing.assert_array_equal(
                px[i], codecs.decode(t["bytes"][i].as_py(), "png"))

    def test_mixed_sizes_fall_back(self):
        from go_osm_search_ray.stages.images import decode_batch_uniform

        t = self._table([(8, 8, "png"), (4, 4, "png")])
        px, _ = decode_batch_uniform(t, None)
        assert px is None

    def test_corrupt_blob_falls_back(self):
        import pyarrow as pa

        from go_osm_search_ray.stages.images import decode_batch_uniform

        t = self._table([(8, 8, "png")] * 3)
        bad = t["bytes"].to_pylist()
        bad[1] = b"\x89PNG" + bad[1][4:][::-1]
        t = t.set_column(t.column_names.index("bytes"), "bytes",
                         pa.array(bad, pa.binary()))
        px, _ = decode_batch_uniform(t, None)
        assert px is None

    def test_buffer_reuse_and_slice_offset(self):
        from go_osm_search_ray.stages.images import decode_batch_uniform

        t = self._table([(8, 8, "png")] * 10)
        px1, buf = decode_batch_uniform(t, None)
        sl = t.slice(4, 3)
        px2, buf2 = decode_batch_uniform(sl, buf)
        assert buf2 is buf  # reused, not reallocated
        for i in range(3):
            np.testing.assert_array_equal(px2[i], px1[4 + i].copy())

    def test_averagehash_fast_equals_fallback(self):
        from go_osm_search_ray.stages.images import AverageHash

        t = self._table([(8, 8, f) for f in ("png", "jpeg") for _ in range(3)])
        fast = AverageHash()(t)["ahash"].to_numpy()
        # force the per-image fallback by de-uniforming the metadata view
        t2 = self._table([(16, 12, "png")] * 4 + [(16, 12, "jpeg")] * 2)
        fast2 = AverageHash()(t2)["ahash"].to_numpy()
        ah = AverageHash()
        import go_osm_search_ray.stages.images as im_mod
        orig = im_mod.decode_batch_uniform
        im_mod.decode_batch_uniform = lambda b, r: (None, r)
        try:
            slow = ah(t)["ahash"].to_numpy()
            slow2 = ah(t2)["ahash"].to_numpy()
        finally:
            im_mod.decode_batch_uniform = orig
        np.testing.assert_array_equal(fast, slow)
        np.testing.assert_array_equal(fast2, slow2)

    def test_all_batched_stages_equal_fallback(self):
        """Every stage that takes the batched-decode path must be
        bitwise-identical to its per-image fallback on both an 8x8
        mixed-fmt corpus and a non-8x8 mixed-fmt corpus."""
        import pyarrow as pa

        import go_osm_search_ray.stages.images as im
        from go_osm_search_ray import synth

        t8 = synth.images_batch(np.arange(200))
        t12 = self._table(
            [(12, 9, "png" if i % 2 else "jpeg") for i in range(40)])

        def force_fallback(stage, batch):
            orig = im.decode_batch_uniform
            im.decode_batch_uniform = lambda b, r: (None, r)
            try:
                return stage(batch)
            finally:
                im.decode_batch_uniform = orig

        for cls in (im.AverageHash, im.AverageHashInt, im.EdgeEnergy,
                    im.DecodeStats, im.DecodeSums, im.EmbedImageSums,
                    im.EmbedImage):
            for t in (t8, t12):
                fast = cls()(t)
                slow = force_fallback(cls(), t)
                assert fast.schema == slow.schema, cls.__name__
                for c in fast.column_names:
                    if c == "bytes":
                        continue
                    assert fast[c].to_pylist() == slow[c].to_pylist(), (
                        cls.__name__, c)

    @staticmethod
    def _set_blob(t, i, blob):
        import pyarrow as pa

        bs = t["bytes"].to_pylist()
        bs[i] = blob
        return t.set_column(t.column_names.index("bytes"), "bytes",
                            pa.array(bs, pa.binary()))

    @staticmethod
    def _layout(t):
        """(data, starts, ends) of the Arrow binary column, as
        decode_batch_uniform hands them to png_decode_batch."""
        arr = t["bytes"].combine_chunks()
        off = np.frombuffer(arr.buffers()[1], np.int32)[
            arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
        return np.frombuffer(arr.buffers()[2], np.uint8), off[:-1], off[1:]

    @staticmethod
    def _per_image_stats(t):
        """DecodeStats' contract computed one blob at a time with the
        per-image decoder."""
        import zlib

        rows = []
        for b in t["bytes"].to_pylist():
            try:
                img = codecs.png_decode(b)
                rows.append((float(img.mean()), float(img.std()), True))
            except (ValueError, NotImplementedError, zlib.error):
                rows.append((0.0, 0.0, False))
        return [list(c) for c in zip(*rows)]

    def test_missing_wh_falls_back_to_per_image(self, monkeypatch):
        import pyarrow as pa

        import go_osm_search_ray.stages.images as im

        t = self._table([(8, 8, f) for f in ("png", "jpeg") for _ in range(4)])
        nulls = pa.nulls(t.num_rows, pa.int32())
        variants = [t.drop_columns(["w", "h"]),
                    t.set_column(t.column_names.index("w"), "w", nulls)]
        got = []
        for v in variants:
            px, _ = im.decode_batch_uniform(v, None)
            assert px is None
            got.append(im.AverageHash()(v)["ahash"].to_pylist())
        monkeypatch.setattr(im, "decode_batch_uniform", lambda b, r: (None, r))
        want = im.AverageHash()(t)["ahash"].to_pylist()
        assert got == [want, want]

    def test_truncated_blob_in_valid_batch(self):
        from go_osm_search_ray.stages.images import (DecodeStats,
                                                     decode_batch_uniform)

        t = self._table([(8, 8, "png")] * 5)
        # a blob far shorter than the fixed layout, last in the buffer:
        # the header gathers would run off the end of the data
        short = self._set_blob(t, 4, t["bytes"][4].as_py()[:30])
        with pytest.raises(ValueError):
            codecs.png_decode_batch(*self._layout(short), 8, 8)
        assert decode_batch_uniform(short, None)[0] is None
        # tail cut off (IEND + part of IDAT): the batch falls back and
        # gives exactly the per-image outcome, row by row
        cut = self._set_blob(t, 2, t["bytes"][2].as_py()[:-20])
        with pytest.raises(ValueError):
            codecs.png_decode_batch(*self._layout(cut), 8, 8)
        out = DecodeStats()(cut)
        want = self._per_image_stats(cut)
        assert [out[c].to_pylist() for c in
                ("mean_pixel", "std_pixel", "decode_ok")] == want
        assert want[2] == [True, True, False, True, True]

    def test_corrupt_stream_in_valid_batch(self):
        import zlib

        from go_osm_search_ray.stages.images import (DecodeStats,
                                                     decode_batch_uniform)

        t = self._table([(8, 8, "png")] * 6)
        blob = bytearray(t["bytes"][3].as_py())
        blob[41 + 10] ^= 0x40  # one bit flipped inside the IDAT stream
        bad = self._set_blob(t, 3, bytes(blob))
        with pytest.raises(zlib.error):
            codecs.png_decode(bytes(blob))
        with pytest.raises(ValueError):
            codecs.png_decode_batch(*self._layout(bad), 8, 8)
        assert decode_batch_uniform(bad, None)[0] is None
        out = DecodeStats()(bad)
        want = self._per_image_stats(bad)
        assert [out[c].to_pylist() for c in
                ("mean_pixel", "std_pixel", "decode_ok")] == want
        assert want[2] == [True, True, True, False, True, True]

    @pytest.mark.parametrize("cut", [10, 20, 36])
    def test_short_png_is_a_value_error(self, cut):
        from go_osm_search_ray.stages.images import DecodeStats

        t = self._table([(8, 8, "png")] * 2)
        short = t["bytes"][1].as_py()[:cut]
        with pytest.raises(ValueError):
            codecs.png_decode(short)
        out = DecodeStats()(self._set_blob(t, 1, short))
        assert out["decode_ok"].to_pylist() == [True, False]
        assert out["mean_pixel"][1].as_py() == 0.0

    def test_png_without_ihdr_is_a_value_error(self):
        blob = bytearray(self._table([(4, 4, "png")])["bytes"][0].as_py())
        blob[12:16] = b"IHDX"
        with pytest.raises(ValueError):
            codecs.png_decode(bytes(blob))

    def test_null_payload_is_a_bad_row(self):
        import pyarrow as pa

        import go_osm_search_ray.stages.images as im

        t = self._table([(8, 8, "png"), (8, 8, "jpeg"), (8, 8, "png")])
        nb = t.set_column(t.column_names.index("bytes"), "bytes",
                          pa.array([t["bytes"][0].as_py(), None,
                                    t["bytes"][2].as_py()], pa.binary()))
        nf = t.set_column(t.column_names.index("fmt"), "fmt",
                          pa.array(["png", "jpeg", None]))
        for bad, row in ((nb, 1), (nf, 2)):
            groups, rows_bad, _ = im.decode_groups(bad, None)
            assert rows_bad.tolist() == [row]
            assert sorted(r for g, _ in groups for r in g.tolist()) == [
                i for i in range(3) if i != row]
            ok = im.DecodeStats()(bad)["decode_ok"].to_pylist()
            assert ok == [i != row for i in range(3)]
            for cls in (im.DecodeSums, im.AverageHashInt, im.AverageHash,
                        im.EdgeEnergy, im.EmbedImageSums, im.EmbedImage):
                with pytest.raises(im.ImageDecodeError, match=f"im{row}"):
                    cls()(bad)
            with pytest.raises(im.ImageDecodeError, match=f"im{row}"):
                im.Resize(w=4, h=4)(bad)

    def test_decode_groups_stacks_by_shape(self):
        import go_osm_search_ray.stages.images as im

        spec = [(8, 8, "png"), (5, 11, "jpeg"), (8, 8, "jpeg"),
                (5, 11, "png"), (3, 2, "png")]
        t = self._table(spec)
        groups, bad, _ = im.decode_groups(t, None)
        assert len(bad) == 0
        assert [g.tolist() for g, _ in groups] == [[0, 2], [1, 3], [4]]
        for rows, px in groups:
            for r, img in zip(rows.tolist(), px):
                np.testing.assert_array_equal(
                    img, codecs.decode(t["bytes"][r].as_py(), spec[r][2]))
        # a uniform batch is one group straight from the batched decode
        u = self._table([(8, 8, "png")] * 4)
        groups, bad, buf = im.decode_groups(u, None)
        assert len(groups) == 1 and len(bad) == 0
        assert groups[0][0].tolist() == [0, 1, 2, 3]
        assert im.decode_groups(u.slice(1, 2), buf)[2] is buf
