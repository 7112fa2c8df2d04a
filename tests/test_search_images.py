"""E2E search pipelines + multimodal image stages."""

import numpy as np
import pandas as pd
import pytest

from go_osm_search_ray import codecs, synth
from go_osm_search_ray.pipelines import search
from go_osm_search_ray.stages import images, spell, text

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
class TestFullTextSearch:
    def corpus(self):
        import ray.data as rd

        rng = np.random.default_rng(7)
        words = ["jalan", "kebun", "binatang", "ragunan", "taman", "indah",
                 "dunia", "fantasi", "monumen", "nasional"]
        docs = pd.DataFrame(
            {
                "doc_id": range(60),
                "text": [" ".join(rng.choice(words, 4)) for _ in range(60)],
            }
        )
        docs.loc[0, "text"] = "dunia fantasi taman indah"
        docs.loc[1, "text"] = "kebun binatang ragunan jalan"
        factory = lambda: rd.from_pandas(docs)
        corrector = spell.build_spell_corrector(
            factory(), synth.spell_errors_lines(words), min_freq=1
        )
        return factory, corrector, docs

    def test_misspelled_query_finds_doc(self):
        """Mirrors reference E2E: 'Duniu Fsntaso' -> 'Dunia Fantasi'
        (searcher_test.go:69-78)."""
        factory, corrector, docs = self.corpus()
        qs = pd.DataFrame({"query_id": [0], "query": ["duniu fsntasi"]})
        out = search.full_text_search(factory, qs, corrector, k=5)
        assert out["corrected"].iloc[0] == "dunia fantasi"
        top_doc = out[out["rank"] == 1]["doc_id"].iloc[0]
        assert "dunia" in docs.loc[top_doc, "text"]
        assert "fantasi" in docs.loc[top_doc, "text"]
        # J6 hydration: full doc rows joined onto the page
        out_h = search.full_text_search(factory, qs, corrector, k=5,
                                        hydrate_results=True)
        assert "text" in out_h.columns
        assert "dunia" in out_h[out_h["rank"] == 1]["text"].iloc[0]

    def test_autocomplete_candidates_scored(self):
        factory, corrector, docs = self.corpus()
        qs = pd.DataFrame({"query_id": [0], "query": ["kebun bina"]})
        out = search.autocomplete(factory, qs, corrector, k=5)
        assert len(out) > 0
        assert out["candidate_query"].str.startswith("kebun").all()
        # fan-in is globally rank-ordered
        assert out["rank"].tolist() == list(range(1, len(out) + 1))

    def test_autocomplete_page_matches_pandas_fan_in(self):
        """The `top_k_multi` page equals the per-query fan-in rebuilt in
        plain pandas: every candidate's scored rows, sorted by score
        desc, doc_id asc, candidate order on ties, first k per query.
        Docs holding only `kebun` score the same under all three
        `kebun bin*` candidates, so ties fall inside the page."""
        import ray.data as rd

        words = ["kebun", "binatang", "bintaro", "binjai", "jalan", "taman"]
        docs = pd.DataFrame({"doc_id": range(8), "text": [
            "kebun binatang", "kebun", "jalan kebun", "bintaro taman",
            "kebun binjai jalan", "taman", "kebun", "binatang binatang"]})
        factory = lambda: rd.from_pandas(docs)
        corrector = spell.build_spell_corrector(
            factory(), synth.spell_errors_lines(words), min_freq=1)
        qs = pd.DataFrame({"query_id": [3, 5, 9],
                           "query": ["kebun bin", "tamn", "zzzzzz qqqqqq"]})
        k = 8
        got = search.autocomplete(factory, qs, corrector, k=k)

        sub_terms, rows = {}, []
        for q in qs.itertuples():
            toks = list(text.tokenize_series(pd.Series([q.query]))[0])
            for ci, cand in enumerate(corrector.autocomplete(toks)):
                sub_terms[f"{q.query_id}#{ci}"] = cand
                rows.append((f"{q.query_id}#{ci}", q.query_id, ci,
                             " ".join(cand)))
        assert len([r for r in rows if r[1] == 3]) == 3
        keys = pd.DataFrame(rows, columns=["key", "owner", "ci",
                                           "candidate_query"])
        scored = text.score_multi(factory(), sub_terms).to_pandas() \
            .merge(keys, left_on="query_id", right_on="key")
        want = []
        for qid, g in scored.groupby("owner", sort=True):
            g = g.sort_values(["score", "doc_id", "ci"],
                              ascending=[False, True, True]).head(k)
            want.append(pd.DataFrame({
                "query_id": qid, "candidate_query": g["candidate_query"],
                "rank": np.arange(1, len(g) + 1, dtype=np.int64),
                "doc_id": g["doc_id"], "score": g["score"]}))
        want = pd.concat(want, ignore_index=True)
        assert set(want["query_id"]) == {3, 5}  # 9 has no hit
        tied = want[want["query_id"] == 3].duplicated(["score", "doc_id"])
        assert tied.any()
        pd.testing.assert_frame_equal(got, want)

    def test_autocomplete_no_hit_batch(self):
        """No candidate of any query hits a document: a typed empty
        page, not a KeyError."""
        factory, corrector, docs = self.corpus()
        qs = pd.DataFrame({"query_id": [0], "query": ["zzzzzz qqqqqq"]})
        out = search.autocomplete(factory, qs, corrector)
        assert len(out) == 0
        assert list(out.columns) == ["query_id", "candidate_query", "rank",
                                     "doc_id", "score"]
        assert out["rank"].dtype == np.int64
        assert out["doc_id"].dtype == np.int64
        assert out["score"].dtype == np.float64

    def test_empty_corpus_and_no_hit_pages_are_typed(self):
        import ray.data as rd

        _, corrector, _ = self.corpus()
        empty = pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                              "text": pd.Series([], dtype=object)})
        qs = pd.DataFrame({"query_id": [0, 1],
                           "query": ["jalan kebun", "zzzzzz"]})
        factory = lambda: rd.from_pandas(empty)
        no_tokens = pd.DataFrame({"query_id": [0], "query": [" ... "]})
        pages = [search.full_text_search(factory, qs, corrector),
                 search.autocomplete(factory, qs, corrector),
                 search.full_text_search(self.corpus()[0], qs.iloc[1:],
                                         corrector),
                 search.full_text_search(factory, qs.iloc[:0], corrector),
                 search.autocomplete(factory, no_tokens, corrector)]
        for page in pages:
            assert len(page) == 0
            assert page["rank"].dtype == np.int64
            assert page["doc_id"].dtype == np.int64
            assert page["score"].dtype == np.float64
        assert list(pages[0].columns) == ["query_id", "corrected", "rank",
                                          "doc_id", "score"]
        assert list(pages[1].columns) == ["query_id", "candidate_query",
                                          "rank", "doc_id", "score"]

    def test_boolean_and_matches_brute(self):
        import ray.data as rd

        factory, corrector, docs = self.corpus()
        got = set(
            search.boolean_and(rd.from_pandas(docs), ["jalan", "kebun"]).to_pandas()["doc_id"]
        )
        toks = text.tokenize_series(docs["text"])
        want = {
            d for d, ws in zip(docs["doc_id"], toks) if "jalan" in ws and "kebun" in ws
        }
        assert got == want

    def test_hydrate(self):
        import ray.data as rd

        _, _, docs = self.corpus()
        rows = search.hydrate([1, 3], rd.from_pandas(docs))
        assert set(rows["doc_id"]) == {1, 3}


@pytest.mark.usefixtures("ray_session")
class TestImageStages:
    def ds(self, n=200):
        import ray.data as rd

        return rd.from_arrow(synth.images_batch(np.arange(n, dtype=np.uint64)))

    def test_decode_stats_all_ok(self):
        out = images.decode_stats(self.ds()).to_pandas()
        assert out["decode_ok"].all()
        assert ((out["mean_pixel"] >= 0) & (out["mean_pixel"] <= 255)).all()

    def test_resize_roundtrip_and_invariant(self):
        out = images.resize(self.ds(50), 4, 4).take_all()
        src = synth.images_batch(np.arange(50, dtype=np.uint64))
        caps = dict(zip(src["image_id"].to_pylist(), src["caption"].to_pylist()))
        for r in out:
            img = codecs.png_decode(r["bytes"])
            assert img.shape == (4, 4, 3)
            assert r["w"] == 4 and r["h"] == 4 and r["fmt"] == "png"
            assert r["caption"] == caps[r["image_id"]]  # invariant

    def test_resize_is_exact_nn(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, (8, 8, 3), np.uint8)
        small = images._resize_nn(img, 4, 4)
        np.testing.assert_array_equal(small, img[::2, ::2])

    def test_average_hash_near_dup_collision(self):
        # identical images -> identical hash; different -> mostly different
        out = images.average_hash(self.ds(100)).to_pandas()
        assert out["ahash"].nunique() > 50

    def test_embed_images_shape(self):
        out = images.embed_images(self.ds(20)).take_all()
        for r in out:
            assert len(r["embedding"]) == 48
            assert all(0.0 <= v <= 1.0 for v in r["embedding"])

    def test_flagship_payload_invariant_checker(self):
        """North rule: the flagship runs with the per-row invariant
        checker on (caption equality + PSNR >= 40 dB through every
        payload-carrying stage)."""
        from go_osm_search_ray import synth
        from go_osm_search_ray.pipelines import flagship

        images = synth.images_dataset(300, seed=7)
        polygons = synth.polygons_table(30, seed=7)
        out = flagship.tile_and_join(images, polygons, include_ahash=True,
                                     check_invariants=True)
        df = out.to_pandas()
        assert len(df) == 300
        assert "ahash" in df.columns and "caption" in df.columns

    def test_payload_invariant_checker_catches_corruption(self):
        import pyarrow as pa

        from go_osm_search_ray import synth
        from go_osm_search_ray.stages import images as istages

        batch = synth.images_dataset(8, seed=9).take_batch(8, batch_format="pyarrow")

        def corrupt_caption(b: pa.Table) -> pa.Table:
            cap = ["oops"] * b.num_rows
            return b.drop_columns(["caption"]).append_column(
                "caption", pa.array(cap, pa.string())
            )

        with pytest.raises(istages.PayloadInvariantError):
            istages.with_payload_invariant(corrupt_caption)(batch)

        def corrupt_bytes(b: pa.Table) -> pa.Table:
            from go_osm_search_ray import codecs

            blobs = []
            for blob, fmt in zip(b["bytes"].to_pylist(), b["fmt"].to_pylist()):
                img = codecs.decode(blob, fmt)
                img = np.ascontiguousarray(255 - img)  # hard corruption
                blobs.append(codecs.png_encode(img))
            out = b.drop_columns(["bytes", "fmt"])
            return out.append_column("bytes", pa.array(blobs, pa.binary())) \
                      .append_column("fmt", pa.array(["png"] * b.num_rows))

        with pytest.raises(istages.PayloadInvariantError):
            istages.with_payload_invariant(corrupt_bytes)(batch)

    def test_external_codec_stub_raises(self):
        with pytest.raises(NotImplementedError):
            images._decode(b"GIF89a....", "gif")


@pytest.mark.usefixtures("ray_session")
class TestEdgeCases:
    def test_empty_query_terms(self):
        import ray.data as rd

        docs = pd.DataFrame({"doc_id": [0, 1], "text": ["a b", "c d"]})
        out = text.bm25f_score(rd.from_pandas(docs), ["zzz_not_there"]).to_pandas()
        assert len(out) == 0

    def test_empty_documents(self):
        import ray.data as rd

        docs = pd.DataFrame({"doc_id": [0, 1], "text": ["", "   ...   "]})
        dl = (
            rd.from_pandas(docs)
            .map_batches(lambda b: text.doc_lengths(b), batch_format="pandas")
            .to_pandas()
        )
        assert dl["n_tokens"].tolist() == [0, 0]
        pairs = (
            rd.from_pandas(docs)
            .map_batches(lambda b: text.postings_pairs(b), batch_format="pandas")
            .to_pandas()
        )
        assert len(pairs) == 0

    def test_knn_more_k_than_points(self):
        import pyarrow as pa
        import ray.data as rd
        from go_osm_search_ray.stages import knn

        points = pa.table(
            {"point_id": pa.array([1, 2], type=pa.int64()),
             "lat": pa.array([0.0, 1.0]), "lon": pa.array([0.0, 1.0])}
        )
        queries = pa.table(
            {"query_id": pa.array([0], pa.int64()), "lat": pa.array([0.5]),
             "lon": pa.array([0.5]), "k": pa.array([10], pa.int64())}
        )
        out = knn.knn_join(rd.from_arrow(points), queries)
        assert len(out) == 2  # returns what exists

    def test_single_pixel_image(self):
        img = np.array([[[1, 2, 3]]], dtype=np.uint8)
        assert codecs.png_decode(codecs.png_encode(img)).tolist() == img.tolist()
