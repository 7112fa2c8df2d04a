"""The benchmark's own test: smoke-size runs of every workload.

    python3 -m pytest perfbench/test_run.py -q

Each run is launched from a directory other than the repository root,
so the package must reach the Ray workers through the environment the
benchmark sets before ``ray.init``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# the workload's own metrics, printed on the line before the result
WORKLOAD_METRICS = {
    "tile_join": {"out_bytes_per_row": "B"},
    "geo_probe": {"knn_s": "s", "revgeo_s": "s", "fence_s": "s",
                  "pip_s": "s"},
    "text_index": {"build_s": "s", "load_s": "s", "search_s": "s",
                   "autocomplete_s": "s"},
}


def run(cwd, *args, timeout=170):
    p = subprocess.run([sys.executable, RUN, "--size", "smoke",
                        "--seed", "3", *args],
                       cwd=cwd, capture_output=True, text=True,
                       timeout=timeout)
    return p


def result(p):
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_metrics(metrics: dict, spec: list) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, tmp_path):
    detail, res = result(run(tmp_path, "--workload", workload,
                             "--seconds", "2", "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert_metrics(res["metrics"], SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())
    units = dict(WORKLOAD_METRICS[workload], failed_share="share")
    assert {k: v["unit"] for k, v in detail["workload_metrics"].items()} \
        == units
    assert detail["workload_metrics"]["failed_share"]["value"] == 0


def test_traced_run_reports_every_layer(tmp_path):
    detail, res = result(run(tmp_path, "--workload", "tile_join",
                             "--seconds", "1", "--trace", "1"))
    assert res["correct"]
    assert_metrics(res["metrics"], SPEC["per_layer"])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # the flagship's layers plus the unaccounted line are its CPU/row
    assert math.isclose(m["workload.kernel_sum_us_per_row"]
                        + m["workload.unaccounted_us_per_row"],
                        detail["e2e"]["cpu_us_per_row"]["value"])
    spans = detail["spans"]
    assert spans["tile_join.flagship"]["count"] >= 1
    assert spans["manifest.write_partitioned"]["count"] >= 2
    assert spans["images.AverageHash"]["self_s"] > 0


def test_timed_out_call_counts_as_failed(tmp_path):
    p = run(tmp_path, "--workload", "geo_probe", "--seconds", "1",
            "--call-timeout", "0.001")
    # the cluster is killed under the abandoned call after the result is
    # printed; Ray's client may end the process with status 1 first
    assert p.returncode in (0, 1), p.stderr[-3000:]
    detail, res = [json.loads(x) for x in p.stdout.strip().splitlines()[-2:]]
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert detail["workload_metrics"]["failed_share"]["value"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "tile_join", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=170)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
