"""Batch index build — the reference's indexer CLI re-expressed
(cmd/indexing/main.go:28-131, SURVEY.md §3.1).

Where the reference writes custom binary/gob/msgpack artifacts
(segment files + heap merge + bbolt doc store + FST + ngram gob), this
engine writes PLAIN PARQUET DATASETS, one per logical artifact:

    out_dir/
      postings/      (term, postings: list<int64>, df)      [S5-S7, A1-A2]
      doc_stats/     (doc_id, n_tokens)                      [A3-A4]
      ngrams_{1..4}/ (ngram, n)                              [S13, A5]
      vocab/         (term, freq)                            [A6, ST4 input]
      meta.json      (docs_count, avg_doc_len, total_words,
                      spell_errors)                          [S15]
      _manifest.json (lineage + stage wall times)

`load_index` rebuilds the serving-side state (SpellCorrector + stats)
from the artifacts — the reference's server boot (searcher.go:37-73).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages import spell as spell_stage
from ..stages import text as text_stage
from ..state.manifest import atomic_write_json


POSTINGS_SCHEMA = pa.schema([("term", pa.string()),
                             ("postings", pa.list_(pa.int64())),
                             ("df", pa.int64())])
DOC_STATS_SCHEMA = pa.schema([("doc_id", pa.int64()), ("n_tokens", pa.int64())])


def _write_artifact(ds, path: str, empty_schema: pa.Schema) -> None:
    """Write a Dataset artifact.  Ray writes no file (and no
    directory) for an empty Dataset, so an empty corpus gets one empty
    typed file instead: the index then loads with docs_count 0."""
    ds.write_parquet(path)
    if not os.path.isdir(path):
        os.makedirs(path)
        pq.write_table(empty_schema.empty_table(),
                       os.path.join(path, "empty.parquet"))


def build_index(docs_ds_factory, out_dir: str,
                spell_error_lines: list[str] | None = None,
                id_col: str = "doc_id", text_col: str = "text",
                resume: bool = False) -> dict:
    """docs Dataset factory -> index artifact directory.  Returns the
    manifest.  Each artifact write is timed (throughput metrics).  An
    empty corpus builds an index that loads (docs_count 0, empty
    postings).

    resume=True: stages whose artifact the previous run's manifest
    records as completed are SKIPPED (stage-level resume, the artifact
    analogue of the flagship's partition-level resume); a stage absent
    from the manifest is rebuilt even if stray files exist."""
    os.makedirs(out_dir, exist_ok=True)
    stages: dict[str, float] = {}
    prior = {}
    if resume:
        mpath = os.path.join(out_dir, "_manifest.json")
        if os.path.exists(mpath):
            with open(mpath) as fh:
                prior = json.load(fh).get("stages", {})

    def done(name: str) -> bool:
        if name in prior:
            stages[name] = prior[name]  # carry the recorded timing
            return True
        return False

    def _flush():
        # incremental manifest: a crash between stages resumes from the
        # last COMPLETED stage, not from scratch (atomic replace)
        atomic_write_json(os.path.join(out_dir, "_manifest.json"),
                          {"stages": stages, "completed_at": time.time()})

    def timed(name):
        class _T:
            def __enter__(self):
                self.t0 = time.perf_counter()

            def __exit__(self, exc_type, *a):
                if exc_type is None:
                    stages[name] = round(time.perf_counter() - self.t0, 3)
                    _flush()

        return _T()

    if not done("postings"):
        with timed("postings"):
            _write_artifact(
                text_stage.postings_lists(docs_ds_factory(), id_col, text_col),
                os.path.join(out_dir, "postings"), POSTINGS_SCHEMA)

    if not done("doc_stats"):
        with timed("doc_stats"):
            _write_artifact(docs_ds_factory().map_batches(
                lambda b: text_stage.doc_lengths(b, id_col, text_col),
                batch_format="pandas",
            ), os.path.join(out_dir, "doc_stats"), DOC_STATS_SCHEMA)

    # vocab and ngrams come from ONE count scan, so they are rebuilt
    # together when either is missing (both evaluated: carry timings)
    if not (done("vocab") & done("ngrams")):
        with timed("vocab"):
            vocab, lm = spell_stage.vocab_and_lm(docs_ds_factory(), 2,
                                                 text_col=text_col)
            pq.write_table(pa.Table.from_pandas(vocab, preserve_index=False),
                           os.path.join(out_dir, "vocab.parquet"))
        with timed("ngrams"):
            for n, c in lm.counts.items():
                t = pa.table({"ngram": pa.array(list(c), pa.string()),
                              "n": pa.array(list(c.values()), pa.int64())})
                pq.write_table(t, os.path.join(out_dir, f"ngrams_{n}.parquet"))
        total_words = lm.total
    else:
        t1 = pq.read_table(os.path.join(out_dir, "ngrams_1.parquet"))
        total_words = int(np.sum(t1["n"].to_numpy()))

    if not done("meta"):
        with timed("meta"):
            stats_files = os.path.join(out_dir, "doc_stats")
            ds = pq.read_table(stats_files)
            meta = {
                "docs_count": int(ds.num_rows),
                "avg_doc_len": float(np.mean(ds["n_tokens"].to_numpy()))
                if ds.num_rows
                else 0.0,
                "total_words": total_words,
                "spell_errors": spell_error_lines or [],
            }
            atomic_write_json(os.path.join(out_dir, "meta.json"), meta)

    manifest = {"stages": stages, "completed_at": time.time()}
    atomic_write_json(os.path.join(out_dir, "_manifest.json"), manifest)
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
    (term, sub-list) rows and a bucket-hash merge per term explodes +
    sorted-unique-merges them.  The re-ingested id set is the delta
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

    def as_sub(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"term": b["term"],
                             "sub": [list(x) for x in b["postings"]]})

    def strip_reingested(b: pd.DataFrame) -> pd.DataFrame:
        """Remove re-ingested doc ids from old lists (vectorized:
        flatten all lists in the batch, one searchsorted membership
        mask, rebuild by per-list offsets)."""
        if len(b) == 0:
            return pd.DataFrame({"term": b["term"], "sub": b["sub"]})
        ids = cached_state(f"upsert-ids-{ids_ref.hex()}",
                           lambda: ray.get(ids_ref))
        # explicit int64 per sub-list: an empty list would otherwise
        # become float64 and promote the whole concatenation, silently
        # rebuilding every postings list as floats (round-4 ADVICE)
        subs = [np.asarray(x, dtype=np.int64) for x in b["sub"]]
        lens = np.fromiter((len(s) for s in subs), dtype=np.int64,
                           count=len(subs))
        flat = (np.concatenate(subs) if lens.sum()
                else np.array([], dtype=np.int64))
        if len(ids) and len(flat):
            pos = np.searchsorted(ids, flat)
            pos[pos == len(ids)] = 0
            keep = ids[pos] != flat
        else:
            keep = np.ones(len(flat), dtype=bool)
        bounds = np.concatenate([[0], np.cumsum(lens)])
        out_subs = [flat[bounds[i]:bounds[i + 1]][keep[bounds[i]:bounds[i + 1]]]
                    .tolist() for i in range(len(subs))]
        o = pd.DataFrame({"term": b["term"].to_numpy(), "sub": out_subs})
        return o[np.fromiter((len(s) > 0 for s in out_subs), dtype=bool,
                             count=len(out_subs))]

    u = old_postings_ds.map_batches(as_sub, batch_format="pandas") \
        .map_batches(strip_reingested, batch_format="pandas").union(
            new_lists.map_batches(as_sub, batch_format="pandas"))

    def merge_bucket(g: pd.DataFrame) -> pd.DataFrame:
        e = g.explode("sub")
        e = e.drop_duplicates(["term", "sub"]) \
            .sort_values(["term", "sub"], kind="mergesort")
        out = e.groupby("term", sort=False)["sub"].agg(list).reset_index() \
            .rename(columns={"sub": "postings"})
        out["df"] = out["postings"].map(len).astype(np.int64)
        return out

    return bucketed_group_apply(u, ["term"], merge_bucket)
