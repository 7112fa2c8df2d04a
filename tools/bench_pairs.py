"""Alternating parent/change benchmark pairs for one perfbench workload.

usage: python tools/bench_pairs.py --workload text_index [--rev HEAD]
           [--pairs 10] [--seed 1] [--seconds 10] [--metric wall_s]

Extracts `git archive REV` into a temporary directory and runs
`perfbench/run.py` there and in the working tree, alternating which
side runs first, for --pairs pairs.  Each side runs its own checkout's
perfbench.  Prints every pair, each side's median and quartiles of
every end-to-end metric, and for --metric the gain rule: the change
wins a pair when it is strictly better (ties count for neither), and a
gain holds when it wins at least 9/10 of the pairs and the medians
differ by more than the parent's interquartile range.  A run that
fails or has an incorrect call is reported and counted as a failure of
its side: its pair is no win, the quartiles use each side's good runs,
and the gain does not hold when the change failed more runs than the
parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["tile_join", "geo_probe", "text_index"])
    p.add_argument("--rev", default="HEAD")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--metric", default="wall_s")
    return p.parse_args(argv)


def run_side(root: str, args) -> dict | None:
    """One perfbench run in checkout `root`: its e2e metric values, or
    None when it failed or a call was incorrect."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONPATH=root)
    r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("{")]
    if r.returncode or not lines:
        print(f"  run failed in {root} (exit {r.returncode}):\n"
              f"{r.stderr[-2000:]}", flush=True)
        return None
    res = json.loads(lines[-1])
    if not res["correct"]:
        print(f"  incorrect run in {root}: {res['failed']} of "
              f"{res['attempted']} calls failed", flush=True)
        return None
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sign = -1.0 if better.get(args.metric, "lower") == "lower" else 1.0

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = os.path.join(tmp, "parent")
        os.makedirs(parent)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)

        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        wins = losses = 0
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {side: run_side(parent if side == "parent" else ROOT, args)
                    for side in order}
            for side, m in pair.items():
                if m is None:
                    failed[side] += 1
                else:
                    runs[side].append(m)
            if None in pair.values():
                print(f"pair {i + 1}: failed run, no win", flush=True)
                continue
            p, c = (pair[s][args.metric] for s in ("parent", "change"))
            d = sign * (c - p)
            wins += d > 0
            losses += d < 0
            print(f"pair {i + 1} ({order[0]} first): parent {p:.4g}  "
                  f"change {c:.4g}", flush=True)

    if not (runs["parent"] and runs["change"]):
        print(f"no good run on a side; failed runs {failed}")
        return 1
    print(f"\n{'metric':<16}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}")
    for k in runs["parent"][0]:
        for side in ("parent", "change"):
            q1, q2, q3 = quartiles([m[k] for m in runs[side]])
            print(f"{k:<16}{side:<8}{q1:>12.4g}{q2:>12.4g}{q3:>12.4g}")
    n = args.pairs
    p1, p2, p3 = quartiles([m[args.metric] for m in runs["parent"]])
    c2 = quartiles([m[args.metric] for m in runs["change"]])[1]
    gain = sign * (c2 - p2)
    holds = (wins >= 0.9 * n and gain > p3 - p1
             and failed["change"] <= failed["parent"])
    print(f"\n{args.metric}: change wins {wins} of {n} pairs ({losses} losses); "
          f"median {p2:.4g} -> {c2:.4g} (gain {gain:.4g}, parent IQR "
          f"{p3 - p1:.4g}); failed runs parent {failed['parent']}, change "
          f"{failed['change']}; gain rule "
          f"{'HOLDS' if holds else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
