"""Per-partition checkpoint manifest: lineage + throughput metrics.

The reference writes artifacts once at the end with no resume
(indexer.go:495).  The north rule requires resumable execution, so this
engine writes hive-partitioned Parquet (one directory per partition
key) plus a ``_manifest.json`` recording, per partition:

    partition_id, row_count, bytes, wall_ms (of the writing run),
    input_files (lineage)

Resume = anti-join the input partition keys against the manifest's
completed set (``remaining_partitions``) and only process the rest.
"""

from __future__ import annotations

import glob
import json
import os
import time


def atomic_write_json(path: str, obj) -> None:
    """Write ``obj`` as JSON to ``path`` via a temp file + ``os.replace``:
    a crash mid-write leaves the previous file intact, never a torn one
    that would break a later resume or restore."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1)
    os.replace(tmp, path)


def write_partitioned(ds, out_dir: str, partition_col: str,
                      input_files: list[str] | None = None,
                      arrow_parquet_args: dict | None = None) -> dict:
    """write_parquet(partition_cols=[col]) + manifest.  Returns manifest.

    Per-partition row counts come from the parquet footers
    (thread-pooled): the authoritative resume record.
    """
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    ds.write_parquet(out_dir, partition_cols=[partition_col],
                     **(arrow_parquet_args or {}))
    wall_ms = (time.perf_counter() - t0) * 1000.0

    # per-file footer reads are IO-bound and there can be
    # tasks x partitions of them — collect with a thread pool
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    files = []
    for d in sorted(glob.glob(os.path.join(out_dir, f"{partition_col}=*"))):
        pid = d.split("=", 1)[1]
        for f in glob.glob(os.path.join(d, "*.parquet")):
            files.append((pid, f))

    def meta(item):
        pid, f = item
        return pid, pq.read_metadata(f).num_rows, os.path.getsize(f)

    parts: dict[str, dict] = {}
    with ThreadPoolExecutor(max_workers=32) as ex:
        for pid, rows, nbytes in ex.map(meta, files):
            p = parts.setdefault(pid, {"row_count": 0, "bytes": 0})
            p["row_count"] += rows
            p["bytes"] += nbytes

    manifest = {
        "partition_col": partition_col,
        "wall_ms": wall_ms,
        "input_files": input_files or [],
        "completed_at": time.time(),
        "partitions": parts,
    }
    atomic_write_json(os.path.join(out_dir, "_manifest.json"), manifest)
    return manifest


def load_manifest(out_dir: str) -> dict | None:
    p = os.path.join(out_dir, "_manifest.json")
    if not os.path.exists(p):
        return None
    with open(p) as fh:
        return json.load(fh)


def completed_partitions(out_dir: str) -> set[str]:
    m = load_manifest(out_dir)
    return set(m["partitions"]) if m else set()


def remaining_partitions(all_keys, out_dir: str) -> list:
    """Anti-join: partition keys not yet recorded as completed."""
    done = completed_partitions(out_dir)
    return [k for k in all_keys if str(k) not in done]


def _recover_compaction(out_dir: str, col: str) -> int:
    """Heal a crash mid-compaction: for every parked
    ``.compact_old.<col>=X`` whose live dir is missing, restore the old
    (complete) file set; drop stale ``.compact_tmp.*`` / leftover
    ``.compact_old.*`` either way.  Returns #partitions restored."""
    import shutil

    restored = 0
    for old in glob.glob(os.path.join(out_dir, f".compact_old.{col}=*")):
        live = os.path.join(out_dir,
                            os.path.basename(old)[len(".compact_old."):])
        if not os.path.exists(live):
            os.replace(old, live)
            restored += 1
        else:
            shutil.rmtree(old, ignore_errors=True)
    for tmp in glob.glob(os.path.join(out_dir, f".compact_tmp.{col}=*")):
        shutil.rmtree(tmp, ignore_errors=True)
    return restored


def compact_partitions(out_dir: str, target_rows_per_file: int = 500_000,
                       min_files: int = 2) -> dict:
    """SMALL-FILE COMPACTION over a partitioned output: every partition
    directory holding >= `min_files` parquet files is rewritten as
    ceil(rows / target_rows_per_file) files.  A real streaming run
    emits files-per-writer-task x partitions; at production partition
    sizes that is thousands of small files per directory, and small
    files dominate read planning at 100 TB.

    Crash-safe per partition: the compacted files land in a DOT-named
    temp dir (``.compact_tmp.<part>``) that hive-style discovery and
    the ``col=*`` partition glob can never match; the swap is a rename
    pair through ``.compact_old.<part>``; and the manifest entry is
    rewritten last (atomic replace).  A crash between the two renames
    leaves the live dir missing and the complete old set parked under
    the dot name — `_recover_compaction` (run on entry) restores it,
    so a crashed run never exposes phantom or duplicate partitions.
    Each partition compacts as ONE Ray task (partitions are sized to
    fit a worker by construction; the partition key is the unit of
    parallelism)."""
    import shutil

    import pyarrow.parquet as pq
    import ray

    m = load_manifest(out_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest in {out_dir}")
    col = m["partition_col"]
    _recover_compaction(out_dir, col)

    @ray.remote
    def compact_one(d: str, pid: str):
        files = sorted(glob.glob(os.path.join(d, "*.parquet")))
        if len(files) < min_files:
            return pid, None
        import pyarrow as pa

        tables = [pq.read_table(f) for f in files]
        full = pa.concat_tables(tables)
        n = full.num_rows
        n_out = max(1, -(-n // target_rows_per_file))
        base, leaf = os.path.split(d)
        tmp = os.path.join(base, f".compact_tmp.{leaf}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        step = -(-n // n_out)
        nbytes = 0
        for i in range(n_out):
            sl = full.slice(i * step, step)
            if sl.num_rows == 0:
                continue
            f = os.path.join(tmp, f"compacted_{i:05d}.parquet")
            pq.write_table(sl, f)
            nbytes += os.path.getsize(f)
        old = os.path.join(base, f".compact_old.{leaf}")
        shutil.rmtree(old, ignore_errors=True)
        os.replace(d, old)
        os.replace(tmp, d)
        shutil.rmtree(old, ignore_errors=True)
        return pid, {"row_count": n, "bytes": nbytes}

    dirs = sorted(glob.glob(os.path.join(out_dir, f"{col}=*")))
    results = ray.get([
        compact_one.remote(d, d.rsplit("=", 1)[1]) for d in dirs
    ])
    changed = 0
    for pid, rec in results:
        if rec is not None:
            m["partitions"][pid] = rec
            changed += 1
    m["compacted_at"] = time.time()
    atomic_write_json(os.path.join(out_dir, "_manifest.json"), m)
    m["_compacted_partitions"] = changed
    return m
