"""Per-layer metrics of the traced run.

Two span sources, both in the benchmark's own files:

* ``pipeline_targets`` — public functions the benchmark process calls
  itself; the traced repetitions wrap them, so the spans around each
  pipeline call get those layer calls as children;
* ``layer_pass`` — public layer calls made directly: Ray-level calls
  (``postings_lists``, ``with_prev_position``, ``write_partitioned``,
  ...) and a Ray-free replay of each layer's per-batch kernel over a
  seeded sample, in the order ``FusedTileJoin`` composes them, and
  likewise ``KNNPartial``, ``CompiledSegments.nearest``,
  ``FenceEvaluator``, ``text.postings_pairs`` and
  ``SpellCorrector.correct``.

Every traced run reports every layer.  A layer on the workload's path
is measured on the workload's own inputs; a layer the workload bypasses
is measured on the smoke-size inputs of the workload that owns it,
built from the same seed, so the table is complete on every run but
only the on-path rows explain the workload's end-to-end metrics.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import inputs
from telemetry import tree_cpu_s
from workloads import GeoProbe, TextIndex, TileJoin, blocks

from go_osm_search_ray import codecs, geo
from go_osm_search_ray.pipelines import flagship
from go_osm_search_ray.stages import (geofence, images, knn, pip, spell,
                                      text, tiling)
from go_osm_search_ray.state import manifest

REPLAY_ROWS = 32_768  # rows per kernel replay sample
FUSED_SLICE = 4096  # FusedIngestTileJoin's per-kernel slice


def pipeline_targets(workload: str) -> list[tuple]:
    """Public functions spanned inside the traced pipeline calls.  Only
    functions this process itself calls are wrapped: a
    wrapper must never be captured by a closure shipped to workers."""
    return {
        "tile_join": [
            (flagship, "tile_and_join", "flagship.tile_and_join"),
            (manifest, "write_partitioned", "manifest.write_partitioned"),
        ],
        "geo_probe": [
            (geofence, "with_prev_position", "geofence.with_prev_position"),
        ],
        "text_index": [
            (text, "postings_lists", "text.postings_lists"),
            (text, "vocab_with_min_freq", "text.vocab_with_min_freq"),
            (spell.NGramLM, "build", "spell.NGramLM.build"),
            (spell.SpellCorrector, "__init__", "spell.SpellCorrector"),
            (spell.SpellCorrector, "correct", "spell.correct"),
            (spell.SpellCorrector, "autocomplete", "spell.autocomplete"),
            (text, "score_multi", "text.score_multi"),
            (text, "top_k_multi", "text.top_k_multi"),
        ],
    }[workload]


def _instance(cls, w, seed: int):
    """The workload itself, or a smoke-size instance of ``cls``."""
    if isinstance(w, cls):
        return w
    inst = cls(os.path.dirname(w.tmp), seed, inputs.SIZES["smoke"][cls.name])
    inst.generate()
    inst.side_tables()
    return inst


def _count_fallback(rec, args, out):
    rec["attrs"]["rows"] = args[0].num_rows
    rec["attrs"]["fallback_rows"] = args[0].num_rows if out[0] is None else 0


def tile_layers(tw: TileJoin, tracer) -> tuple[dict, float]:
    """FusedTileJoin's kernels replayed per 4096-row slice of the
    workload's Parquet row groups, then the partitioned write of an
    already-materialized joined Dataset."""
    res = geo.DEFAULT_TILE_RES
    tracer.trace_id = "layers/tile"
    with tracer.span("pip.compile"):
        compiled = pip.CompiledPolygons(tw.polygons, tile_res=res)
    ah = images.AverageHash()
    rows = hits = 0
    targets = [
        (codecs, "png_decode_batch", "codecs.png_decode_batch"),
        (images, "decode_batch_uniform", "images.decode_batch_uniform",
         _count_fallback),
    ]
    with tracer.patched(targets):
        for f in sorted(glob.glob(os.path.join(tw.src, "*.parquet"))):
            pf = pq.ParquetFile(f)
            for rg in range(pf.num_row_groups):
                if rows >= REPLAY_ROWS:
                    break
                with tracer.span("read.parquet"):
                    t = pf.read_row_group(rg)
                for lo in range(0, t.num_rows, FUSED_SLICE):
                    b = t.slice(lo, FUSED_SLICE)
                    with tracer.span("images.AverageHash"):
                        b = ah(b)
                    b = b.drop_columns(["bytes", "w", "h", "fmt"])
                    with tracer.span("tiling.derive_assign"):
                        b = tiling.assign_tiles(res)(
                            tiling.derive_phash_latlon(b))
                        part = geo.tile_parent(b["tile_id"].to_numpy(), res,
                                               flagship.PARTITION_RES)
                        b = b.append_column("part", pa.array(part))
                    with tracer.span("pip.first_hit"):
                        pid = compiled.first_hit(b["lat"].to_numpy(),
                                                 b["lon"].to_numpy(),
                                                 b["tile_id"].to_numpy())
                    with tracer.span("pip.meta_attach"):
                        for c, col in compiled.meta_columns(pid):
                            b = b.append_column(c, col)
                    rows += b.num_rows
                    hits += int((pid >= 0).sum())

    import ray.data as rd

    joined = flagship.tile_and_join(rd.read_parquet(tw.src), tw.polygons,
                                    include_ahash=True,
                                    carry_payload=False).materialize()
    out = tw.out_dir("out_layers")
    dict_cols = [c for c in ("province", "district", "sub_district",
                             "village", "postal_code")
                 if c in tw.polygons.column_names]
    c0 = tree_cpu_s()
    with tracer.span("manifest.write_partitioned"):
        manifest.write_partitioned(joined, out, "part",
                                   arrow_parquet_args={"use_dictionary":
                                                       dict_cols})
    write_cpu = tree_cpu_s() - c0
    files = len(glob.glob(os.path.join(out, "part=*", "*.parquet")))

    d = tracer.durations("layers/tile")
    us = {k: v[0] / rows * 1e6 for k, v in d.items()}
    self_us = {k: v[1] / rows * 1e6 for k, v in d.items()}
    dec = d["images.decode_batch_uniform"][3]
    m = {
        "read.parquet_us_per_row": us["read.parquet"],
        "codecs.png_decode_us_per_row": us["codecs.png_decode_batch"],
        "images.ahash_us_per_row": self_us["images.AverageHash"]
        + self_us["images.decode_batch_uniform"],
        "images.decode_fallback_share": dec["fallback_rows"] / dec["rows"],
        "tiling.derive_assign_us_per_row": us["tiling.derive_assign"],
        "pip.compile_ms": d["pip.compile"][0] * 1e3,
        "pip.first_hit_us_per_row": us["pip.first_hit"],
        "pip.meta_attach_us_per_row": us["pip.meta_attach"],
        "pip.hit_share": hits / rows,
        "manifest.write_us_per_row": write_cpu / tw.rows * 1e6,
        "manifest.files_written": files,
    }
    kernels = ("read.parquet_us_per_row", "codecs.png_decode_us_per_row",
               "images.ahash_us_per_row", "tiling.derive_assign_us_per_row",
               "pip.first_hit_us_per_row", "pip.meta_attach_us_per_row",
               "manifest.write_us_per_row")
    return m, sum(m[k] for k in kernels) * tw.rows


def pip_bare_layers(gw: GeoProbe, tracer) -> tuple[dict, float]:
    """geo_probe's PIP: bare points (no tile column) against the large
    polygon set, the way ``pip_join`` probes them."""
    tracer.trace_id = "layers/pip"
    with tracer.span("pip.compile"):
        compiled = pip.CompiledPolygons(gw.polygons)
    pts = gw.pip_points.slice(0, REPLAY_ROWS)
    hits = 0
    for lo in range(0, pts.num_rows, 8192):
        b = pts.slice(lo, 8192)
        with tracer.span("pip.first_hit"):
            pid = compiled.first_hit(b["lat"].to_numpy(), b["lon"].to_numpy())
        with tracer.span("pip.meta_attach"):
            compiled.meta_columns(pid)
        hits += int((pid >= 0).sum())
    d = tracer.durations("layers/pip")
    n = pts.num_rows
    m = {"pip.compile_ms": d["pip.compile"][0] * 1e3,
         "pip.first_hit_us_per_row": d["pip.first_hit"][0] / n * 1e6,
         "pip.meta_attach_us_per_row": d["pip.meta_attach"][0] / n * 1e6,
         "pip.hit_share": hits / n}
    per_row = m["pip.first_hit_us_per_row"] + m["pip.meta_attach_us_per_row"]
    return m, per_row * gw.pip_points.num_rows


def geo_layers(gw: GeoProbe, tracer) -> tuple[dict, float]:
    import ray

    tracer.trace_id = "layers/geo"
    Q = gw.queries.num_rows
    kp = knn.KNNPartial(ray.put(gw.queries), "point_id", "feature")
    pts = gw.points.slice(0, REPLAY_ROWS)
    for lo in range(0, pts.num_rows, 8192):
        with tracer.span("knn.KNNPartial"):
            kp(pts.slice(lo, 8192))
    with tracer.span("knn.knn_join"):
        results = len(knn.knn_join(blocks(gw.points), gw.queries,
                                   tag_col="feature"))

    with tracer.span("knn.CompiledSegments"):
        cs = knn.CompiledSegments(gw.streets)
    rp = gw.revgeo_points.slice(0, 8192)
    for lo in range(0, rp.num_rows, 4096):
        b = rp.slice(lo, 4096)
        with tracer.span("knn.CompiledSegments.nearest"):
            cs.nearest(b["lat"].to_numpy(), b["lon"].to_numpy())

    with tracer.span("geofence.with_prev_position"):
        lagged = geofence.with_prev_position(blocks(gw.events)).materialize()
    sample = pa.Table.from_pandas(lagged.limit(REPLAY_ROWS).to_pandas(),
                                  preserve_index=False)
    fe = geofence.FenceEvaluator(ray.put(gw.fences), 3)
    for lo in range(0, sample.num_rows, 4096):
        with tracer.span("geofence.FenceEvaluator"):
            fe(sample.slice(lo, 4096))

    d = tracer.durations("layers/geo")
    P, E = gw.points.num_rows, gw.events.num_rows
    m = {
        "knn.partial_us_per_pair":
            d["knn.KNNPartial"][0] / (pts.num_rows * Q) * 1e6,
        "knn.points_scanned_per_result": P * Q / max(results, 1),
        "knn.revgeo_us_per_row":
            d["knn.CompiledSegments.nearest"][0] / rp.num_rows * 1e6,
        "knn.segments_per_point": len(cs.a_lat),
        "geofence.lag_shuffle_s": d["geofence.with_prev_position"][0],
        "geofence.eval_us_per_row":
            d["geofence.FenceEvaluator"][0] / sample.num_rows * 1e6,
        "geofence.fences_checked_per_event": len(fe.keys),
    }
    kernel_us = (m["knn.partial_us_per_pair"] * P * Q
                 + m["knn.revgeo_us_per_row"] * gw.revgeo_points.num_rows
                 + m["geofence.eval_us_per_row"] * E)
    return m, kernel_us


def text_layers(xw: TextIndex, tracer) -> tuple[dict, float]:
    tracer.trace_id = "layers/text"
    factory = xw.factory()
    with tracer.span("text.postings_lists"):
        text.postings_lists(factory()).materialize()
    with tracer.span("text.doc_lengths"):
        factory().map_batches(text.doc_lengths,
                              batch_format="pandas").materialize()
    with tracer.span("text.vocab_with_min_freq"):
        vocab = text.vocab_with_min_freq(factory(), 2).to_pandas()
    with tracer.span("spell.NGramLM.build"):
        lm = spell.NGramLM.build(factory(), set(vocab["term"]))
    with tracer.span("spell.SpellCorrector"):
        corrector = spell.SpellCorrector(
            sorted(vocab["term"]), lm, spell.NoisyChannel(xw.spell_errors))

    docs = xw.t["docs"]
    pairs = 0
    for lo in range(0, len(docs), 1024):
        with tracer.span("text.postings_pairs"):
            pairs += len(text.postings_pairs(docs.iloc[lo:lo + 1024]))

    def tokens(q):
        return list(text.tokenize_series(pd.Series([q]))[0])

    corrected = {}
    for q in xw.t["search"].itertuples():
        with tracer.span("spell.correct"):
            corrected[q.query_id] = corrector.correct(tokens(q.query))
    cands = [len(corrector.candidate_queries(tokens(q), last_is_prefix=True))
             for q in xw.t["autocomplete"]["query"]]
    with tracer.span("text.score_multi"):
        scored = text.score_multi(factory(), corrected).materialize()
    with tracer.span("text.top_k_multi"):
        text.top_k_multi(scored, {q: (10, 0) for q in corrected})

    d = tracer.durations("layers/text")
    m = {
        "agg.shuffle_rows": pairs,
        "text.postings_pairs_us_per_row":
            d["text.postings_pairs"][0] / len(docs) * 1e6,
        "text.postings_lists_s": d["text.postings_lists"][0],
        "text.doc_lengths_s": d["text.doc_lengths"][0],
        "text.vocab_s": d["text.vocab_with_min_freq"][0],
        "spell.ngram_build_s": d["spell.NGramLM.build"][0],
        "spell.corrector_init_s": d["spell.SpellCorrector"][0],
        "spell.correct_us_per_query":
            d["spell.correct"][0] / d["spell.correct"][2] * 1e6,
        "spell.candidates_per_query": float(np.mean(cands)),
        "text.score_multi_s": d["text.score_multi"][0],
        "text.top_k_multi_ms": d["text.top_k_multi"][0] * 1e3,
    }
    kernel_us = (m["text.postings_pairs_us_per_row"] * len(docs)
                 + m["spell.correct_us_per_query"] * len(xw.t["search"]))
    return m, kernel_us


UNITS = {"_us_per_row": "us", "_us_per_pair": "us", "_us_per_query": "us",
         "_ms": "ms", "_s": "s", "_share": "share"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def layer_pass(w, tracer, cpu_us_per_row: float, seed: int) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.  The workload's
    kernel sum is the CPU its on-path kernels explain per input row;
    the rest of ``cpu_us_per_row`` is ``workload.unaccounted``."""
    tw, gw, xw = (_instance(c, w, seed) for c in (TileJoin, GeoProbe,
                                                   TextIndex))
    m, tile_us = tile_layers(tw, tracer)
    g, geo_us = geo_layers(gw, tracer)
    m.update(g)
    if isinstance(w, GeoProbe):
        p, pip_us = pip_bare_layers(gw, tracer)
        m.update(p)  # geo_probe's PIP is the bare-point probe
        geo_us += pip_us
    x, text_us = text_layers(xw, tracer)
    m.update(x)
    kernel_us = {"tile_join": tile_us, "geo_probe": geo_us,
                 "text_index": text_us}[w.name] / w.rows
    m["workload.kernel_sum_us_per_row"] = kernel_us
    m["workload.unaccounted_us_per_row"] = cpu_us_per_row - kernel_us
    return {k: (float(v), unit_of(k)) for k, v in m.items()}
