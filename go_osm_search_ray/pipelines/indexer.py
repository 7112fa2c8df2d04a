"""Batch index build — the reference's indexer CLI re-expressed
(cmd/indexing/main.go:28-131, SURVEY.md §3.1).

Where the reference writes custom binary/gob/msgpack artifacts
(segment files + heap merge + bbolt doc store + FST + ngram gob), this
engine writes PLAIN PARQUET DATASETS, one per logical artifact:

    out_dir/
      postings/      (term, postings: list<int64>, df)      [S5-S7, A1-A2]
      doc_stats/     (doc_id, n_tokens)                      [A3-A4]
      ngrams_{1..4}.parquet (ngram, n)                       [S13, A5]
      vocab.parquet  (term, freq)                            [A6, ST4 input]
      meta.json      (docs_count, avg_doc_len, total_words,
                      spell_errors)                          [S15]
      _manifest.json (stage wall times + the index pass record)

Like the reference's SPIMI indexer, which reads each document once
(indexer.go:672-768), the build is ONE map pass over the corpus: each
block is tokenized once (`index_partials`) into a tagged partial table
of (doc_id, n_tokens) rows, distinct (term, doc_id) pairs and n-gram
counts of every order.  The driver collects the partials and one Arrow
kernel, `finish`, list-aggregates the postings, passes the doc rows
through and sums the n-gram counts; every artifact is written with
pyarrow.  The driver so holds the partials and their sums (CHANGES.md
records its peak RSS at 30k-150k documents).

`load_index` rebuilds the serving-side state (SpellCorrector + stats)
from the artifacts — the reference's server boot (searcher.go:37-73).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..stages import spell as spell_stage
from ..stages import text as text_stage
from ..stages.text import POSTINGS_SCHEMA
from ..state.manifest import atomic_write_json


DOC_STATS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64())])
NGRAMS_SCHEMA = pa.schema([("ngram", pa.string()), ("n", pa.int64())])

# The index pass's tagged rows.  `kind` is DOC for a
# (doc_id, n_tokens=cnt) row, POSTING for a distinct (term=key, doc_id)
# pair and the order 1..NGRAM_ORDER for an n-gram count (ngram=key,
# cnt).  A block's rows are in kind order, so each kind is a slice.
DOC, POSTING = -1, 0
PARTIAL_SCHEMA = pa.schema([("kind", pa.int8()), ("key", pa.string()),
                            ("doc_id", pa.int64()), ("cnt", pa.int64())])

# the pass's four artifacts (the build's fifth stage is meta)
PASS_ARTIFACTS = ("postings", "doc_stats", "vocab", "ngrams")


def index_partials(batch: pa.Table, id_col: str = "doc_id",
                   text_col: str = "text") -> pa.Table:
    """One block's tagged partial rows (`PARTIAL_SCHEMA`, in kind
    order) from ONE tokenization: one (doc_id, n_tokens) row per
    document (the flat form's `lens`, as `text.doc_lengths`), its
    postings pairs (`text.flat_postings_pairs`) and its n-gram counts
    of orders 1..NGRAM_ORDER (`text.ngram_partials`)."""
    flat = text_stage.tokenize_flat_arrow(batch[text_col])
    lens = flat[2]
    pairs = text_stage.flat_postings_pairs(flat, batch[id_col])
    grams = text_stage.ngram_partials(flat)

    def rows(kind, key, doc_id, cnt):
        return pa.table({"kind": kind, "key": key, "doc_id": doc_id,
                         "cnt": cnt}, schema=PARTIAL_SCHEMA)

    n_docs, n_pairs = len(lens), pairs.num_rows
    return pa.concat_tables([
        rows(np.full(n_docs, DOC), pa.repeat(pa.scalar("", pa.string()), n_docs),
             batch[id_col], lens),
        rows(np.full(n_pairs, POSTING), pairs["term"], pairs["doc_id"],
             np.ones(n_pairs, dtype=np.int64)),
        rows(grams["n_order"], grams["ngram"],
             np.zeros(grams.num_rows, dtype=np.int64), grams["cnt"]),
    ])


def _kind_slices(t: pa.Table) -> tuple[pa.Table, pa.Table, pa.Table]:
    """One block's (doc, posting, n-gram) rows as zero-copy slices."""
    cut = np.searchsorted(t["kind"].to_numpy(), [POSTING, POSTING + 1])
    return t.slice(0, cut[0]), t.slice(cut[0], cut[1] - cut[0]), t.slice(cut[1])


def finish(docs: pa.Table, post: pa.Table, grams: pa.Table):
    """The whole pass's doc, posting and n-gram partial rows ->
    (postings (`POSTINGS_SCHEMA`: each term's sorted doc id list and
    df, `text.postings_agg`), doc_stats (`DOC_STATS_SCHEMA`) and the
    summed raw n-gram counts (`text.NGRAM_COUNTS_SCHEMA`))."""
    grams = grams.group_by(["kind", "key"]).aggregate([("cnt", "sum")])
    return (text_stage.postings_agg(post["key"], post["doc_id"]),
            pa.table({"doc_id": docs["doc_id"], "n_tokens": docs["cnt"]},
                     schema=DOC_STATS_SCHEMA),
            pa.table({"n_order": grams["kind"], "ngram": grams["key"],
                      "cnt": grams["cnt_sum"]},
                     schema=text_stage.NGRAM_COUNTS_SCHEMA))


def index_pass(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """The one map pass of `build_index`: `index_partials` per block,
    the partials collected on the driver (empty blocks, which may carry
    no columns, skipped) and one `finish`.  Returns (partial row count,
    postings, doc_stats, raw n-gram counts)."""
    import ray

    refs = docs_ds.map_batches(
        index_partials, batch_format="pyarrow",
        fn_kwargs={"id_col": id_col, "text_col": text_col}).to_arrow_refs()
    blocks = [PARTIAL_SCHEMA.empty_table()] + \
        [t for t in ray.get(refs) if t.num_rows]
    parts = [pa.concat_tables(k) for k in zip(*map(_kind_slices, blocks))]
    return (sum(p.num_rows for p in parts), *finish(*parts))


def _replace(tmp: str, path: str) -> None:
    """Move a finished `tmp` file or directory onto `path`, removing
    whatever `path` held (a crashed or stale artifact)."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.replace(tmp, path)


def _write_table(t: pa.Table, path: str) -> int:
    """One Parquet file, as tmp + rename; returns the rows written."""
    pq.write_table(t, path + ".tmp")
    _replace(path + ".tmp", path)
    return t.num_rows


def _write_dataset(t: pa.Table, path: str) -> int:
    """A directory artifact holding one Parquet file, written into a
    fresh tmp directory and renamed over `path`: rerunning a stage
    replaces its files, never appends to them.  An empty table still
    writes one typed file, so an empty corpus's index loads."""
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    _write_table(t, os.path.join(tmp, "part-0.parquet"))
    _replace(tmp, path)
    return t.num_rows


def build_index(docs_ds_factory, out_dir: str,
                spell_error_lines: list[str] | None = None,
                id_col: str = "doc_id", text_col: str = "text",
                resume: bool = False) -> dict:
    """docs Dataset factory -> index artifact directory.  Returns the
    manifest.  An empty corpus builds an index that loads (docs_count
    0, empty postings).

    One `index_pass` (one call of `docs_ds_factory`, one tokenization
    per block) yields all four corpus artifacts: postings, doc_stats,
    vocab and ngrams_{1..4}.  Vocab is the summed unigram counts
    (pads excepted) with count >= 2 (`spell.vocab_from_counts`); the
    n-gram files hold the OOV-mapped counts (`spell.oov_counts`).
    meta.json is computed from the written doc_stats and ngrams_1.
    The manifest's `stages` times each artifact's write (five keys) and
    `index_pass` records the partial row count, the pass's seconds and
    the rows written per artifact.

    resume=True: artifacts the previous run's manifest records are
    kept (their timings carried).  The pass reruns when any of its
    four artifacts is unrecorded, and rewrites only those; vocab and
    ngrams come from the same counts, so they are rewritten together.
    Every write replaces the artifact's files, so a crash between a
    write and its manifest record leaves no duplicate rows."""
    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "_manifest.json")
    prior = {}
    if resume and os.path.exists(mpath):
        with open(mpath) as fh:
            prior = json.load(fh)
    stages: dict[str, float] = dict(prior.get("stages", {}))
    record = prior.get("index_pass")
    if not ("vocab" in stages and "ngrams" in stages):
        stages.pop("vocab", None)
        stages.pop("ngrams", None)

    def flush():
        # incremental manifest: a crash between artifacts resumes from
        # the last recorded one, not from scratch (atomic replace)
        atomic_write_json(mpath, {"stages": stages, "index_pass": record,
                                  "completed_at": time.time()})

    def timed(name, write):
        t0 = time.perf_counter()
        rows = write()
        stages[name] = round(time.perf_counter() - t0, 3)
        record["rows"][name] = rows
        flush()

    todo = [a for a in PASS_ARTIFACTS if a not in stages]
    if todo:
        t0 = time.perf_counter()
        n_parts, post, doc_stats, raw = index_pass(docs_ds_factory(), id_col,
                                                   text_col)
        record = {"partial_rows": n_parts, "rows": {},
                  "seconds": round(time.perf_counter() - t0, 3)}
        if "postings" in todo:
            timed("postings", lambda: _write_dataset(
                post, os.path.join(out_dir, "postings")))
        if "doc_stats" in todo:
            timed("doc_stats", lambda: _write_dataset(
                doc_stats, os.path.join(out_dir, "doc_stats")))
        if "vocab" in todo:
            vocab = pa.Table.from_pandas(spell_stage.vocab_from_counts(raw, 2),
                                         preserve_index=False)

            def write_ngrams():
                counts = spell_stage.oov_counts(
                    raw, set(vocab["term"].to_pylist()))
                rows = {}
                for n in range(1, text_stage.NGRAM_ORDER + 1):
                    t = counts.filter(pc.equal(counts["n_order"], n))
                    rows[str(n)] = _write_table(  # JSON keys
                        pa.table({"ngram": t["ngram"], "n": t["cnt"]},
                                 schema=NGRAMS_SCHEMA),
                        os.path.join(out_dir, f"ngrams_{n}.parquet"))
                return rows

            timed("vocab", lambda: _write_table(
                vocab, os.path.join(out_dir, "vocab.parquet")))
            timed("ngrams", write_ngrams)

    if "meta" not in stages:
        t0 = time.perf_counter()
        ds = pq.read_table(os.path.join(out_dir, "doc_stats"))
        t1 = pq.read_table(os.path.join(out_dir, "ngrams_1.parquet"))
        meta = {
            "docs_count": int(ds.num_rows),
            "avg_doc_len": float(np.mean(ds["n_tokens"].to_numpy()))
            if ds.num_rows
            else 0.0,
            "total_words": int(np.sum(t1["n"].to_numpy())),
            "spell_errors": spell_error_lines or [],
        }
        atomic_write_json(os.path.join(out_dir, "meta.json"), meta)
        stages["meta"] = round(time.perf_counter() - t0, 3)

    manifest = {"stages": stages, "index_pass": record,
                "completed_at": time.time()}
    atomic_write_json(mpath, manifest)
    return manifest


class LoadedIndex:
    """Server-boot state rebuilt from artifacts (searcher.go:37-73)."""

    def __init__(self, out_dir: str):
        self.dir = out_dir
        with open(os.path.join(out_dir, "meta.json")) as fh:
            self.meta = json.load(fh)
        self.vocab = pq.read_table(os.path.join(out_dir, "vocab.parquet")).to_pandas()
        counts = {}
        for n in range(1, 5):
            t = pq.read_table(os.path.join(out_dir, f"ngrams_{n}.parquet"))
            counts[n] = dict(zip(t["ngram"].to_pylist(), t["n"].to_pylist()))
        lm = spell_stage.NGramLM(counts, self.meta["total_words"])
        noisy = spell_stage.NoisyChannel(self.meta.get("spell_errors", []))
        self.corrector = spell_stage.SpellCorrector(
            list(self.vocab["term"]), lm, noisy
        )

    def postings(self, terms: list[str]) -> pd.DataFrame:
        """J4: semi-join of query terms against the postings dataset
        (filter pushdown on term)."""
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        d = pads.dataset(os.path.join(self.dir, "postings"))
        return d.to_table(filter=pc.field("term").isin(terms)).to_pandas()

    def get_docs(self, sf_docs_path: str, doc_ids: list[int]) -> pd.DataFrame:
        """S12/J6: doc hydration by id with parquet filter pushdown."""
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        d = pads.dataset(sf_docs_path)
        return d.to_table(filter=pc.field("doc_id").isin(doc_ids)).to_pandas()


def merge_postings(old_postings_ds, new_docs_ds, id_col: str = "doc_id",
                   text_col: str = "text"):
    """INCREMENTAL INDEX UPDATE (the reference's DynamicIndexer role,
    indexer.go's dynamic segment + merge, batch-columnar form): merge
    an EXISTING postings artifact with the postings of newly ingested
    documents — no rebuild of the old corpus.

    Shape: the new docs run the same postings build; the OLD
    lists first drop every re-ingested doc id (true upsert — stale
    postings for terms no longer present in a changed document are
    removed, not just unioned over), then both list sets union as
    (term, postings) rows and a bucket-hash merge per term flattens
    them and list-aggregates the ids (`text.postings_agg`: sorted,
    distinct).  The re-ingested id set is the delta
    batch — the small side by construction — broadcast once via
    ray.put and probed with a vectorized searchsorted per batch.
    Cost is O(new docs + affected old lists), not O(corpus).
    Returns (term, postings, df); the incremental == batch equality is
    the driver-oracled contract (index_upsert)."""
    import ray

    from ..stages.agg import bucketed_group_apply
    from ..stages.knn import cached_state

    new_lists = text_stage.postings_lists(new_docs_ds, id_col, text_col)

    # re-ingested doc ids: bounded by the delta batch size
    id_parts = [b[id_col].to_numpy() for b in new_docs_ds
                .select_columns([id_col])
                .iter_batches(batch_format="pandas") if len(b)]
    new_ids = (np.unique(np.concatenate(id_parts)) if id_parts
               else np.array([], dtype=np.int64))
    ids_ref = ray.put(new_ids)

    def lists(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return POSTINGS_SCHEMA.empty_table().select(["term", "postings"])
        return b.select(["term", "postings"])

    def strip_reingested(b: pa.Table) -> pa.Table:
        """Remove re-ingested doc ids from old lists: one searchsorted
        membership mask over the flattened lists and one list rebuild
        from the kept ids' per-list counts; lists left empty drop."""
        b = lists(b)
        ids = cached_state(f"upsert-ids-{ids_ref.hex()}",
                           lambda: ray.get(ids_ref))
        post = b["postings"].combine_chunks()
        flat = pc.list_flatten(post).to_numpy().astype(np.int64)
        keep = np.ones(len(flat), dtype=bool)
        if len(ids) and len(flat):
            pos = np.minimum(np.searchsorted(ids, flat), len(ids) - 1)
            keep = ids[pos] != flat
        lens = np.bincount(pc.list_parent_indices(post).to_numpy()[keep],
                           minlength=len(post))
        offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
        out = pa.table({"term": b["term"], "postings": pa.ListArray.from_arrays(
            offsets, pa.array(flat[keep], pa.int64()))})
        return out.filter(lens > 0)

    def merge_bucket(g: pa.Table) -> pa.Table:
        post = g["postings"].combine_chunks()
        return text_stage.postings_agg(
            g["term"].take(pc.list_parent_indices(post)),
            pc.list_flatten(post))

    u = old_postings_ds.map_batches(strip_reingested, batch_format="pyarrow") \
        .union(new_lists.map_batches(lists, batch_format="pyarrow"))
    return bucketed_group_apply(u, ["term"], merge_bucket,
                                batch_format="pyarrow")
