"""Benchmark entry point (driver contract).

Default: runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(num_cpus=$RAY_GRAFT_CPUS,
default: the CPUs this process may run on) and prints ONE JSON line:

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "flagship_rows": R, "flagship_rows_per_sec": ...}

The headline metric is the BASELINE.md workload: read image table ->
derive phash geo-keys + tile assignment -> cell-keyed PIP join against
the polygon side table -> partitioned write + lineage manifest, timed
as ONE call of the public ``flagship.run_flagship`` on the Parquet
directory.  The synthetic image table is generated deterministically
ONCE and cached as Parquet under /tmp, so the timed run measures the
pipeline (read -> transform -> join -> write), not the generator.

--scaling: runs the flagship in FRESH processes at num_cpus=n//4 and
num_cpus=n (n = the CPUs this process may run on) on the same input
and reports both throughputs plus scaling efficiency
= (t_lo/t_hi)/(hi/lo).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _loadavg() -> float:
    """1-min load average — stamped into every JSON artifact so a
    loaded-window sample is self-identifying (round-4 verdict: the
    official BENCH_r04 number was a co-tenant burst, not a plan
    change; the stamp makes that adjudicable from the artifact)."""
    return round(os.getloadavg()[0], 2)


def _wait_quiet(threshold: float | None = None, max_wait: float | None = None) -> float:
    """Block (bounded) until the 1-min loadavg drops below threshold.

    Called BEFORE ray.init so the reading reflects co-tenants only,
    not our own workers.  Returns the loadavg that let us through
    (or the last reading if the wait timed out — we proceed anyway;
    the stamp records the window either way)."""
    threshold = threshold if threshold is not None else float(
        os.environ.get("GRAFT_LOADAVG_GATE", "1.0"))
    max_wait = max_wait if max_wait is not None else float(
        os.environ.get("GRAFT_LOADAVG_WAIT", "300"))
    deadline = time.monotonic() + max_wait
    la = _loadavg()
    while la > threshold and time.monotonic() < deadline:
        time.sleep(15)
        la = _loadavg()
    return la
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))
FLAGSHIP_N = int(os.environ.get("GRAFT_FLAGSHIP_N", "4000000"))
IMAGE_CACHE = f"/tmp/graft_images_n{FLAGSHIP_N}_seed42"
# 32 MiB (round-5): with the whole flagship fused into ONE map stage
# the per-block fixed costs (dispatch, plasma put/get, block build)
# dominate small blocks — 8.7 s -> 6.5 s no-IO wall at 16M/32 CPUs
# moving 8 -> 128 MiB, with 32 MiB equal within noise and a safer
# heap/backpressure point for multi-node (see BASELINE.md round-5)
BLOCK_MB = int(os.environ.get("GRAFT_BLOCK_MB", "32"))

BENCH_QUERIES = [
    "tile_assign", "tile_histogram", "pip_join", "knn_join",
    "knn_radius_filter", "reverse_geocode", "geofence_transitions",
    "postings_pairs", "term_df", "bm25f_topk", "dedup_exact",
    "embedding_knn", "pricing_summary", "segment_revenue", "events_window",
    # round-2 additions
    "events_sessionize", "boolean_and", "simhash_signatures", "image_ahash",
    # round-3 additions
    "rasterize", "vectorize", "tile_pyramid", "events_asof",
    "grouped_quantiles", "sample_hash", "zonal_stats", "range_join",
    "bloom_semijoin", "heavy_hitters", "distance_join",
    "phash_near_pairs", "phash_dedup_keep", "tile_mosaic",
    "overlap_join", "track_lengths", "zorder_assign",
    "quality_filter", "pq_search", "repetition_signals",
    "decontaminate", "events_funnel", "hybrid_search_rrf",
    "chunk_windows", "source_mix_sample", "dup_ngram_coverage",
    "image_edge_energy", "video_scene_changes", "corpus_prep",
    "char_percentiles", "retention_cohorts", "dict_encode",
    # round-3 session-3 additions
    "late_events", "cdc_upsert", "stay_points", "profile_columns",
    "bpe_encode", "lm_doc_stats", "semantic_dedup", "kmeans_assign",
    "simhash_pairs", "pack_batches", "pii_scrub", "idw_grid",
    "hash_features", "pricing_cube", "track_resample", "recon_keys",
    "index_upsert",
]


CACHE_LAYOUT = "v2-rg125k"  # 125k-row groups: the fused-ingest work unit


def ensure_image_cache():
    """Deterministic synthetic image table -> cached Parquet (untimed)."""
    marker = os.path.join(IMAGE_CACHE, "_SUCCESS")
    if os.path.exists(marker) and open(marker).read().strip() == CACHE_LAYOUT:
        return
    from go_osm_search_ray import synth

    shutil.rmtree(IMAGE_CACHE, ignore_errors=True)
    ds = synth.images_dataset(FLAGSHIP_N, seed=42, parallelism=64)
    ds.write_parquet(IMAGE_CACHE, min_rows_per_file=FLAGSHIP_N // 64,
                     row_group_size=125_000)
    with open(os.path.join(IMAGE_CACHE, "_SUCCESS"), "w") as fh:
        fh.write(CACHE_LAYOUT)


def warm_workers():
    """Untimed: spawn the full worker pool and run the exact timed call
    (read + kernel + partitioned write + manifest) on a small Parquet
    directory so python/numpy imports and code paths are warm.
    (Worker cold-start costs seconds per process on throttled hosts and
    would otherwise be billed to the first timed stage.)"""
    import pyarrow.parquet as pq
    import ray.data as rd

    from go_osm_search_ray.pipelines import flagship

    def heavy(b):
        import time as _t

        import go_osm_search_ray.stages.images  # noqa: F401
        import go_osm_search_ray.stages.pip  # noqa: F401

        _t.sleep(0.3)
        return b

    rd.range(NUM_CPUS * 4, override_num_blocks=NUM_CPUS * 4).map_batches(
        heavy, batch_size=1
    ).count()
    # 8 row groups of 1024 rows: eight kernel tasks, each importing the
    # parquet writer / manifest code before the timed section
    warm_src = f"{IMAGE_CACHE}_warm"
    shutil.rmtree(warm_src, ignore_errors=True)
    os.makedirs(warm_src)
    first = flagship.ingest_specs(IMAGE_CACHE)[0]["path"]
    pq.write_table(pq.ParquetFile(first).read_row_group(0).slice(0, 8192),
                   os.path.join(warm_src, "warm.parquet"),
                   row_group_size=1024)
    run_flagship("/tmp/graft_warm_out", src=warm_src)
    shutil.rmtree("/tmp/graft_warm_out", ignore_errors=True)
    shutil.rmtree(warm_src, ignore_errors=True)


def run_flagship(out_dir: str, src: str = IMAGE_CACHE) -> float:
    """Seconds for one public ``flagship.run_flagship`` call on the
    Parquet directory ``src`` (the fused-ingest plan: the read happens
    inside the kernel task), including the manifest's footer stats."""
    from go_osm_search_ray import synth
    from go_osm_search_ray.pipelines import flagship

    polygons = synth.polygons_table(64, seed=42)
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    manifest = flagship.run_flagship(src, polygons, out_dir,
                                     input_files=[src], include_ahash=True,
                                     carry_payload=False)
    dt = time.perf_counter() - t0
    assert len(manifest["partitions"]) > 0
    return dt


def consume(out) -> None:
    if hasattr(out, "count"):
        out.count()


def run_queries() -> dict[str, float]:
    from go_osm_search_ray.pipelines import queries as q

    # untimed fixtures: index_upsert's old-index artifact is input
    # data, not merge work — build/reuse it before the clock starts
    q.prepare_upsert_artifact(SF_DIR)

    reg = q.registry()
    times = {}
    # UNIFORM best-of-2 for every query (round-4 ADVICE: the old
    # "re-time only if >1s" policy was asymmetric — it could only
    # lower reported numbers, muddying round-over-round comparisons).
    # The host is shared and single runs are ±40% noisy; the minimum
    # of two identical runs measures capability, not co-tenant burst.
    reps = int(os.environ.get("GRAFT_QUERY_REPS", "2"))
    for name in BENCH_QUERIES:
        fn, _sql = reg[name]
        dt = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            consume(fn(SF_DIR))
            dt = min(dt, time.perf_counter() - t0)
        times[name] = round(dt, 3)
    return times


def main_bench() -> dict:
    import ray

    # wait (bounded) for a sub-1.0-loadavg window before starting:
    # measured BEFORE ray.init so it reflects co-tenants, not us
    loadavg_start = _wait_quiet()
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # smaller blocks -> more, smoother task waves (tail latency) on the
    # fused map+write chain
    ctx.target_max_block_size = BLOCK_MB * 1024 * 1024

    # the per-query sweep runs first, so it is never timed in the
    # flagship's load shadow
    qtimes = run_queries()
    loadavg_after_queries = _loadavg()
    ensure_image_cache()
    warm_workers()

    # best-of-3 on a warm cluster: the host is shared, single runs are
    # +/-40% noisy; the minimum measures pipeline capability
    flagship_runs = sorted(
        round(run_flagship("/tmp/graft_flagship_out"), 3) for _ in range(3)
    )
    flagship_sec, flagship_rows = flagship_runs[0], FLAGSHIP_N
    result = {
        "metric": "flagship tile-assign + PIP-join + partitioned-write sec "
                  f"({FLAGSHIP_N} images) + per-query sec at sf dir",
        "value": round(flagship_sec, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "flagship_rows": flagship_rows,
        "flagship_rows_per_sec": round(flagship_rows / flagship_sec, 1),
        "flagship_runs": flagship_runs,
        "loadavg_start": loadavg_start,
        "loadavg_after_queries": loadavg_after_queries,
        "loadavg_end": _loadavg(),
    }
    ray.shutdown()
    return result


# --scaling default job size: 16M, not the 4M bench default — at 4M a
# ~1.9 s fixed tail (driver + write close) caps the wide side and
# systematically understates efficiency (BASELINE.md); 16M is where
# the tail amortizes.  GRAFT_FLAGSHIP_N overrides.
SCALING_N = int(os.environ.get("GRAFT_FLAGSHIP_N", "16000000"))


def run_child(ncpu: int) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
               GRAFT_BENCH_MODE="flagship_only",
               GRAFT_FLAGSHIP_N=str(SCALING_N))
    out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main_scaling() -> dict:
    """The host is shared and neighbor load drifts minute to minute, so
    the two levels are measured in INTERLEAVED (lo, hi) iterations and
    the headline efficiency is the best SAME-WINDOW pair — comparing a
    quiet-window lo against a loaded-window hi (or vice versa) measures
    the neighbors, not the engine.  All iterations are reported.  The
    two levels come from this host: a quarter of the CPUs this process
    may run on, and all of them."""
    hi = len(os.sched_getaffinity(0))
    lo = max(1, hi // 4)
    repeats = int(os.environ.get("GRAFT_SCALE_REPEATS", "2"))
    iters = []
    for _ in range(repeats):
        r_lo = run_child(lo)
        r_hi = run_child(hi)
        iters.append((r_lo, r_hi))
    pair_effs = [
        round((a["value"] / b["value"]) / (hi / lo), 3) for a, b in iters
    ]
    best_i = max(range(len(iters)), key=lambda i: pair_effs[i])
    r_lo, r_hi = iters[best_i]
    eff = pair_effs[best_i]
    eff_med = (r_lo["median_sec"] / r_hi["median_sec"]) / (hi / lo)
    return {
        "metric": "flagship rows/sec scaling (fresh processes, same input)",
        "unit": "sec",
        "value": r_hi["value"],
        f"sec_{lo}": r_lo["value"],
        f"sec_{hi}": r_hi["value"],
        f"rows_per_sec_{lo}": r_lo["flagship_rows_per_sec"],
        f"rows_per_sec_{hi}": r_hi["flagship_rows_per_sec"],
        "scaling_efficiency": round(eff, 3),
        f"runs_{lo}": r_lo["runs"],
        f"runs_{hi}": r_hi["runs"],
        f"median_sec_{lo}": r_lo["median_sec"],
        f"median_sec_{hi}": r_hi["median_sec"],
        "scaling_efficiency_median": round(eff_med, 3),
        "pair_efficiencies": pair_effs,
        "all_runs": [
            {f"runs_{lo}": a["runs"], f"runs_{hi}": b["runs"],
             f"loadavg_{lo}": [a["loadavg_start"], a["loadavg_end"]],
             f"loadavg_{hi}": [b["loadavg_start"], b["loadavg_end"]]}
            for a, b in iters
        ],
        "flagship_rows": r_hi["flagship_rows"],
        "num_cpus": hi,
    }


def main_flagship_only() -> dict:
    import ray

    loadavg_start = _loadavg()
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.target_max_block_size = BLOCK_MB * 1024 * 1024
    ensure_image_cache()
    warm_workers()
    n_runs = int(os.environ.get("GRAFT_FLAGSHIP_RUNS", "3"))
    runs = sorted(
        round(run_flagship(f"/tmp/graft_flagship_out_{NUM_CPUS}"), 3)
        for _ in range(n_runs))
    sec, rows = runs[0], FLAGSHIP_N
    ray.shutdown()
    return {
        "metric": "flagship sec", "value": sec, "unit": "sec",
        "queries": {}, "sf": SF_DIR, "num_cpus": NUM_CPUS,
        "runs": runs, "median_sec": runs[len(runs) // 2],
        "flagship_rows": rows,
        "flagship_rows_per_sec": round(rows / sec, 1),
        "loadavg_start": loadavg_start, "loadavg_end": _loadavg(),
    }


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if "--scaling" in sys.argv:
        print(json.dumps(main_scaling()))
    elif os.environ.get("GRAFT_BENCH_MODE") == "flagship_only":
        print(json.dumps(main_flagship_only()))
    else:
        print(json.dumps(main_bench()))
