#!/usr/bin/env python3
"""Repository benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload tile_join --seed 1 --seconds 10 --trace 0

Runs a closed loop (one pipeline call outstanding at a time) of the
workload's public calls for ``--seconds`` seconds on a local Ray
cluster sized to this process's CPU affinity, checks every output
against a Ray-free reference, and prints one JSON object as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see README.md).  Everything it writes stays under
the checkout (``.bench_tmp/`` is removed at exit, spans go to
``.bench_traces/``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".bench_tmp")
TRACES = os.path.join(ROOT, ".bench_traces")

OBJECT_STORE_BYTES = 1_000_000_000
DISK_RESERVE_BYTES = 2_000_000_000
RAY_DISK_GUARD = 0.95  # Ray's default local_fs_capacity_threshold
SOCKET_PATH_MAX = 107  # AF_UNIX sun_path limit Ray's sockets must fit
# Ray sessions set up per run; setup_s is their median (one is enough
# to exercise the smoke-size call paths)
SETUPS = {"full": 3, "smoke": 1}
MIN_REPS = 3  # untraced repetitions per run, even past --seconds


class SetupError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["tile_join", "geo_probe", "text_index"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument("--call-timeout", type=float, default=None,
                   help="seconds before a call counts as failed "
                        "(default: 3x --seconds, at least 30)")
    return p.parse_args(argv)


def check_environment() -> None:
    """Fail early, with a message, instead of tripping Ray later."""
    if not os.path.isfile(os.path.join(ROOT, "go_osm_search_ray",
                                       "__init__.py")):
        raise SetupError(f"package go_osm_search_ray not found under {ROOT}")
    u = shutil.disk_usage(ROOT)
    after = (u.total - u.free + DISK_RESERVE_BYTES) / u.total
    if u.free < DISK_RESERVE_BYTES or after >= RAY_DISK_GUARD:
        raise SetupError(
            f"not enough free disk: {u.free / 1e9:.1f} GB free of "
            f"{u.total / 1e9:.1f} GB; reserving "
            f"{DISK_RESERVE_BYTES / 1e9:.0f} GB would put the volume at "
            f"{after:.1%}, past Ray's {RAY_DISK_GUARD:.0%} disk guard")


def start_ray() -> None:
    import ray

    spill = os.path.join(TMP, "spill")
    os.makedirs(spill, exist_ok=True)
    kw = {}
    ray_tmp = os.path.join(TMP, "ray")
    # session dir name + "/sockets/plasma_store" adds ~62 characters
    if len(ray_tmp) + 64 < SOCKET_PATH_MAX:
        kw["_temp_dir"] = ray_tmp
    ray.init(
        address="local",
        num_cpus=len(os.sched_getaffinity(0)),
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _system_config={"object_spilling_config": json.dumps(
            {"type": "filesystem",
             "params": {"directory_path": spill}})},
        **kw,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()


def shut_down(abandoned: bool) -> None:
    """Stop every process the run started and remove its scratch files.
    ray.shutdown() under a call still running in an abandoned thread
    can crash the process, so then the cluster is killed directly."""
    import telemetry

    if abandoned:
        telemetry.kill_descendants()
    else:
        stop_ray()
    shutil.rmtree(TMP, ignore_errors=True)


def call_with_timeout(fn, timeout: float):
    """("ok", out) | ("error", exc) | ("timeout", None)."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except Exception as e:  # reported per call, the run goes on
            box["err"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return "timeout", None
    if "err" in box:
        return "error", box["err"]
    return "ok", box["out"]


def run_rep(w, timeout: float, log, tracer=None, targets=()):
    """One repetition: every call of the workload in order.  Returns
    (walls, cpu seconds, attempted, failed, timed out).  A call that
    raises, times out or fails its check is failed; the calls after it
    in the same repetition depend on it and count as failed too."""
    from telemetry import tree_cpu_s
    from workloads import CheckFailed

    walls, cpu, attempted, failed = {}, 0.0, 0, 0
    calls = w.calls()
    for i, (name, fn) in enumerate(calls):
        attempted += 1
        c0, t0 = tree_cpu_s(), time.perf_counter()
        if tracer is not None:
            tracer.trace_id = f"{w.name}/{name}/{len(tracer.spans)}"
            with tracer.patched(targets), tracer.span(f"{w.name}.{name}"):
                status, out = call_with_timeout(fn, timeout)
        else:
            status, out = call_with_timeout(fn, timeout)
        walls[name] = time.perf_counter() - t0
        cpu += tree_cpu_s() - c0
        if status == "ok":
            try:
                w.check(name, out)
            except CheckFailed as e:
                status, out = "check", e
        if status != "ok":
            log(f"{w.name}.{name}: {status}: {out!r}")
            failed += len(calls) - i
            attempted += len(calls) - i - 1
            return walls, cpu, attempted, failed, status == "timeout"
    return walls, cpu, attempted, failed, False


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        check_environment()
    except SetupError as e:
        log(f"perfbench: {e}")
        return 2
    # Ray workers inherit the environment of the raylet started here, so
    # the package imports in every worker wherever this was launched
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # a call abandoned at its time-out must fail once its cluster is
    # stopped, not start a new one behind the benchmark's back
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"

    import inputs
    import telemetry
    from workloads import WORKLOADS

    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    timeout = args.call_timeout or max(30.0, 3 * args.seconds)
    load_start = os.getloadavg()[0]
    abandoned = False
    w = WORKLOADS[args.workload](TMP, args.seed,
                                 inputs.SIZES[args.size][args.workload])
    try:
        w.generate()
        setups = []
        for _ in range(SETUPS[args.size]):
            stop_ray()
            t0 = time.perf_counter()
            start_ray()
            w.setup()
            setups.append(time.perf_counter() - t0)
        w.cleanup()

        reps, failed_reps, attempted, failed = [], [], 0, 0
        tracer = telemetry.Tracer() if args.trace else None
        if tracer is not None:
            import layers

            targets = layers.pipeline_targets(w.name)
        else:
            targets = ()
        traced_walls = []
        deadline = time.perf_counter() + args.seconds
        with telemetry.RssSampler() as rss:
            while True:
                # the traced run alternates untraced and traced reps so
                # the tracing overhead is measured in the same window
                traced = bool(tracer) and len(reps) > len(traced_walls)
                walls, cpu, a, f, hung = run_rep(
                    w, timeout, log, tracer if traced else None, targets)
                attempted, failed = attempted + a, failed + f
                abandoned = abandoned or hung
                log(f"rep{' traced' if traced else ''}: " + " ".join(
                    f"{k}={v:.3f}" for k, v in walls.items())
                    + f" cpu={cpu:.2f}")
                rec = {"wall": sum(walls.values()), "cpu": cpu}
                if traced:
                    if not f:
                        traced_walls.append(rec["wall"])
                elif f:
                    failed_reps.append(rec)
                else:
                    reps.append(dict(rec, detail=w.detail(walls)))
                w.cleanup()
                # the median needs MIN_REPS repetitions even when they
                # overrun --seconds (not after a time-out); a traced run
                # also needs one traced repetition
                if (time.perf_counter() >= deadline
                        and (len(reps) + len(failed_reps) >= MIN_REPS
                             or abandoned)
                        and (tracer is None or traced_walls or f)):
                    break
        # a run without one clean repetition still reports its times
        timed = reps or failed_reps
        wall = median([r["wall"] for r in timed])
        e2e = {
            "setup_s": (median(setups), "s"),
            "wall_s": (wall, "s"),
            "rows_per_s": (median([w.rows / r["wall"] for r in timed]),
                           "rows/s"),
            "cpu_us_per_row": (median([r["cpu"] / w.rows * 1e6
                                       for r in timed]), "us"),
            "peak_rss_mb": (rss.peak_mb, "MB"),
        }
        detail = {k: (median([r["detail"][k] for r in reps]) if reps
                      else None, unit)
                  for k, unit in w.detail_units.items()}
        detail["failed_share"] = (failed / max(attempted, 1), "share")
        if tracer is not None:
            per_layer = layers.layer_pass(
                w, tracer, e2e["cpu_us_per_row"][0], args.seed)
            per_layer["trace.overhead_s"] = (
                median(traced_walls) - wall, "s")
            tracer.trace_id = ""
            spans = {k: {"total_s": t, "self_s": st, "count": n, **attrs}
                     for k, (t, st, n, attrs) in tracer.durations().items()}
            tracer.dump(os.path.join(
                TRACES, f"{w.name}-seed{args.seed}-{int(time.time())}.jsonl"))
            log(f"{'layer metric':<36}{'value':>14}  unit")
            for k, (v, u) in per_layer.items():
                log(f"{k:<36}{v:>14.4f}  {u}")
    except BaseException:
        shut_down(abandoned)
        raise
    if not abandoned:
        shut_down(abandoned)

    metrics = per_layer if args.trace else e2e
    print(json.dumps({
        "workload": w.name, "seed": args.seed, "size": args.size,
        "reps": len(reps), "setups": [round(s, 3) for s in setups],
        "loadavg_start": load_start, "loadavg_end": os.getloadavg()[0],
        "e2e": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "workload_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in detail.items()},
        **({"spans": spans} if args.trace else {}),
    }))
    print(json.dumps({
        "correct": failed == 0 and bool(reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }), flush=True)
    if abandoned:
        # the result goes out first: with its raylet killed, Ray's client
        # in this process may end it (status 1) before os._exit below
        shut_down(abandoned)
        os._exit(0)  # the abandoned call's thread would block a clean exit
    return 0


if __name__ == "__main__":
    sys.exit(main())
