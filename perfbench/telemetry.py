"""Measurement helpers: process-tree CPU/RSS from /proc, and an
in-memory span tracer.

CPU and RSS cover the benchmark process and every descendant (Ray's
GCS, raylet and workers are all started below it by a local
``ray.init``), read straight from /proc because psutil is not a
dependency of the repository.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (ppid, utime+stime+cutime+cstime ticks) for every process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                raw = fh.read()
        except OSError:  # exited between listdir and open
            continue
        # the command name may hold spaces; fields resume after ')'
        f = raw[raw.rfind(b")") + 2:].split()
        out[int(name)] = (int(f[1]), int(f[11]) + int(f[12])
                          + int(f[13]) + int(f[14]))
    return out


def _descendants(table: dict, root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, ()))
    return out


def tree_cpu_s(root: int | None = None) -> float:
    """CPU seconds used so far by ``root`` and its live descendants,
    including children they have already reaped."""
    table = _proc_table()
    pids = _descendants(table, root or os.getpid())
    return sum(table[p][1] for p in pids if p in table) / _TICK


def kill_descendants(timeout: float = 30.0) -> None:
    """SIGKILL every descendant of this process and wait until each has
    exited (a zombie awaiting its reaper counts as exited)."""
    pids = _descendants(_proc_table(), os.getpid())[1:]
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for p in pids:
            try:
                with open(f"/proc/{p}/stat", "rb") as fh:
                    raw = fh.read()
            except OSError:
                continue
            if raw[raw.rfind(b")") + 2:][:1] != b"Z":
                alive.append(p)
        if not alive:
            return
        pids = alive
        time.sleep(0.1)


def tree_rss_mb(root: int | None = None) -> float:
    total = 0
    for p in _descendants(_proc_table(), root or os.getpid()):
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1])
        except OSError:
            continue
    return total * _PAGE / 1e6


class RssSampler:
    """Samples the process tree's summed RSS every ``period`` seconds
    on a background thread; ``peak_mb`` is the largest sample."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_rss_mb())
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak_mb = max(self.peak_mb, tree_rss_mb())


class Tracer:
    """Spans kept in memory: name, start, end, parent and trace id.

    ``span`` nests through a stack (one thread traces at a time),
    ``patched`` wraps public functions or methods so every
    call into them becomes a span for the duration of a ``with`` block.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.trace_id = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"trace_id": self.trace_id, "span_id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start_ns": time.perf_counter_ns(),
               "end_ns": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["span_id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def _wrap(self, fn, name: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, args, out)
                return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """targets: (owner, attribute, span name[, on_result]) tuples;
        ``on_result(span, args, result)`` may add counts to the span."""
        saved = []
        try:
            for owner, attr, name, *hook in targets:
                raw = vars(owner).get(attr, getattr(owner, attr))
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name, *hook))
                else:
                    new = self._wrap(raw, name, *hook)
                setattr(owner, attr, new)
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def durations(self, trace_prefix: str = ""):
        """name -> (total seconds, self seconds, call count, summed
        attrs) over spans whose trace id starts with ``trace_prefix``.
        Self time is a span's duration minus its children's."""
        spans = [s for s in self.spans
                 if s["trace_id"].startswith(trace_prefix)]
        child_ns: dict[int, int] = {}
        for s in spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] = (child_ns.get(s["parent"], 0)
                                         + s["end_ns"] - s["start_ns"])
        out: dict[str, list] = {}
        for s in spans:
            d = s["end_ns"] - s["start_ns"]
            acc = out.setdefault(s["name"], [0, 0, 0, {}])
            acc[0] += d
            acc[1] += d - child_ns.get(s["span_id"], 0)
            acc[2] += 1
            for k, v in s["attrs"].items():
                acc[3][k] = acc[3].get(k, 0) + v
        return {k: (v[0] / 1e9, v[1] / 1e9, v[2], v[3])
                for k, v in out.items()}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
