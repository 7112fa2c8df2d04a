"""Print the package's code counts for the working tree and a git rev.

usage: python tools/code_counts.py [REV]     (REV defaults to HEAD)

Counts, over the *.py files under go_osm_search_ray/:
  loc            every line (blank and comment lines too)
  pandas_batch   lines with batch_format="pandas"
  bucketed       lines with a `bucketed_group_apply(` reference
  to_pandas      `to_pandas()` calls
The last column is the working tree minus REV.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "go_osm_search_ray"


def counts(sources) -> dict[str, int]:
    out = {"loc": 0, "pandas_batch": 0, "bucketed": 0, "to_pandas": 0}
    for src in sources:
        lines = src.splitlines()
        out["loc"] += len(lines)
        out["pandas_batch"] += sum('batch_format="pandas"' in ln
                                   for ln in lines)
        out["bucketed"] += sum("bucketed_group_apply(" in ln for ln in lines)
        out["to_pandas"] += src.count("to_pandas()")
    return out


def tree_sources():
    for d, _, files in os.walk(os.path.join(ROOT, PACKAGE)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), encoding="utf-8") as fh:
                    yield fh.read()


def rev_sources(rev: str):
    def git(*args) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], check=True,
                              capture_output=True, text=True).stdout

    for path in git("ls-tree", "-r", "--name-only", rev, PACKAGE).split():
        if path.endswith(".py"):
            yield git("show", f"{rev}:{path}")


def main() -> None:
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    now, then = counts(tree_sources()), counts(rev_sources(rev))
    print(f"{'count':<14}{'tree':>8}{rev[:12]:>14}{'delta':>8}")
    for k in now:
        print(f"{k:<14}{now[k]:>8}{then[k]:>14}{now[k] - then[k]:>+8}")


if __name__ == "__main__":
    main()
