"""End-to-end query pipelines (reference Q1/Q2/Q8 + J5/J6/K1/K2).

FreeFormQuery (searcher.go:97-205) re-expressed Ray-Data-first:

    queries Dataset -> SpellBatchCorrector tasks (tokenize -> vocab
    check -> edit candidates -> LM+noisy argmax)  [Q1 front half]
    -> per corrected query: two-pass BM25F over the documents Dataset
       (stats scan + score scan, stages/text.py)  [A8+Q5]
    -> global sort/limit page [K1] -> hydration join by doc_id [J6]

Autocomplete (searcher.go:207-400): last term prefix-matched, top-3
candidate queries by LM+edit prob [K5], each scored, fan-in sort [K2].

Boolean AND (boolean_query.go:43-167): posting-list intersection as a
distributed multiset groupby (docs whose distinct-term hit count equals
the number of query terms) [J5/D1].
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages import spell as spell_stage
from ..stages import text as text_stage


def hydrate(doc_ids: list, docs_ds, id_col: str = "doc_id"):
    """J6: top-k ids -> full rows (broadcast the tiny id list, filter)."""
    ids = set(int(i) for i in doc_ids)

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[id_col].isin(ids)]

    return docs_ds.map_batches(pick, batch_format="pandas").to_pandas()


def full_text_search(docs_ds_factory, queries: pd.DataFrame,
                     corrector: spell_stage.SpellCorrector,
                     k: int = 10, scoring: str = "bm25f",
                     hydrate_results: bool = False):
    """Q1 for a batch of queries in exactly TWO corpus scans TOTAL
    (shared stats over the union of corrected terms + one scoring scan
    emitting every query's scores — `text.score_multi`), not two scans
    per query.  Spell correction runs driver-side against the in-memory
    corrector (use `correct_queries` for a large query Dataset).

    queries: DataFrame (query_id, query [, top_k, offset]).
    Returns (query_id, corrected, rank, doc_id, score).
    """
    corrected_terms: dict = {}
    corrected_str: dict = {}
    k_by_query: dict = {}
    for row in queries.itertuples():
        tokens = list(text_stage.tokenize_series(pd.Series([row.query]))[0])
        corrected = corrector.correct(tokens)
        corrected_terms[row.query_id] = corrected
        corrected_str[row.query_id] = " ".join(corrected)
        topk = int(getattr(row, "top_k", k) or k)
        offset = int(getattr(row, "offset", 0) or 0)
        k_by_query[row.query_id] = (topk, offset)
    cols = ["query_id", "corrected", "rank", "doc_id", "score"]
    if not corrected_terms:
        return text_stage.empty_page(["corrected"])[cols]
    from ..stage import get_custom_scorer, resolve_scoring

    custom = get_custom_scorer(resolve_scoring(scoring))
    if custom is not None:
        # §2.11 plug point: a user-registered scorer replaces the
        # built-in scoring scan (contract in stage.get_custom_scorer)
        scored = custom(docs_ds_factory(), corrected_terms)
    else:
        scored = text_stage.score_multi(docs_ds_factory(), corrected_terms,
                                        scoring=scoring)
    page = text_stage.top_k_multi(scored, k_by_query)
    page["corrected"] = page["query_id"].map(corrected_str)
    page = page[cols]
    if hydrate_results and len(page):
        # J6: one id-filtered scan hydrates every page at once
        docs = hydrate(page["doc_id"].unique().tolist(), docs_ds_factory())
        page = page.merge(docs, on="doc_id", how="left")
    return page


def autocomplete(docs_ds_factory, queries: pd.DataFrame,
                 corrector: spell_stage.SpellCorrector, k: int = 10):
    """Q2: top-3 candidate queries per input, each BM25F-scored, fan-in
    sorted globally per query (K2).  All candidates of ALL queries score
    in the same two corpus scans (each candidate is a sub-query keyed
    (query_id, cand_idx) through `score_multi`); each scored row then
    maps to its owner query and candidate string, and `top_k_multi`
    pages per owner query.  Ties on (score, doc_id) keep candidate
    order.  Returns (query_id, candidate_query, rank, doc_id, score)."""
    sub_terms: dict = {}
    cand_str: dict = {}
    owner: dict = {}
    for row in queries.itertuples():
        tokens = list(text_stage.tokenize_series(pd.Series([row.query]))[0])
        if not tokens:
            continue
        for ci, cand in enumerate(corrector.autocomplete(tokens)):
            key = f"{row.query_id}#{ci}"  # Arrow-friendly sub-query key
            sub_terms[key] = cand
            cand_str[key] = " ".join(cand)
            owner[key] = row.query_id
    cols = ["query_id", "candidate_query", "rank", "doc_id", "score"]
    if not sub_terms:
        return text_stage.empty_page(["candidate_query"])[cols]

    def to_owner(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"query_id": b["query_id"].map(owner),
                             "candidate_query": b["query_id"].map(cand_str),
                             "doc_id": b["doc_id"], "score": b["score"]})

    scored = text_stage.score_multi(docs_ds_factory(), sub_terms,
                                    scoring="bm25f") \
        .map_batches(to_owner, batch_format="pandas")
    page = text_stage.top_k_multi(scored, {q: (k, 0) for q in owner.values()})
    if "candidate_query" not in page:  # no scored row reached `to_owner`
        page = text_stage.empty_page(["candidate_query"])
    return page[cols]


def boolean_and(docs_ds, terms: list[str], id_col="doc_id", text_col="text"):
    """J5/D1: docs containing ALL terms — distinct (term, doc) pairs
    filtered to the query terms, then hit-count == len(terms).

    The reference intersects sorted posting lists pairwise
    (boolean_query.go:150-167); the multiset-count groupby is the
    shuffle-native equivalent with identical results.
    """
    tset = {t for t in terms}

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        p = text_stage.postings_pairs(b, id_col, text_col)
        p = p[p["term"].isin(tset)]
        vc = p[id_col].value_counts()
        return pd.DataFrame({id_col: vc.index, "hits": vc.to_numpy(np.int64)})

    from ..stages.agg import two_phase_agg

    # doc_id is an unbounded keyspace -> distributed combine, then a
    # streaming filter; the result Dataset holds only the matching ids
    counts = two_phase_agg(docs_ds, pairs, [id_col], ["hits"], combine="shuffle")
    return counts.filter(expr=f"hits == {len(tset)}").select_columns([id_col])


def boolean_or(docs_ds, terms: list[str], id_col="doc_id", text_col="text"):
    """D2 OR: docs containing ANY query term.  The reference declares OR
    (boolean_query.go:135-141) but never implements it — this is the
    engine-canonical completion: distinct filtered (term, doc) pairs ->
    distributed distinct on doc_id."""
    tset = {t for t in terms}

    def pairs(b: pd.DataFrame) -> pd.DataFrame:
        p = text_stage.postings_pairs(b, id_col, text_col)
        return p[p["term"].isin(tset)][[id_col]].drop_duplicates()

    from ..stages.agg import bucketed_group_apply

    ids = docs_ds.map_batches(pairs, batch_format="pandas")
    return bucketed_group_apply(
        ids, [id_col], lambda g: g.drop_duplicates(id_col)
    )


def boolean_and_not(docs_ds, include: list[str], exclude: list[str],
                    id_col="doc_id", text_col="text"):
    """D2 NOT (same engine-canonical completion): docs containing ALL
    `include` terms and NONE of `exclude` — both hit counts in ONE scan,
    distributed combine, streaming filter (the anti-join never
    materializes)."""
    inc = {t for t in include}
    exc = {t for t in exclude}

    def hits(b: pd.DataFrame) -> pd.DataFrame:
        p = text_stage.postings_pairs(b, id_col, text_col)
        i = p[p["term"].isin(inc)][id_col].value_counts()
        e = p[p["term"].isin(exc)][id_col].value_counts()
        merged = pd.DataFrame({"inc": i, "exc": e}).fillna(0).astype(np.int64)
        merged.index.name = id_col
        return merged.reset_index()

    from ..stages.agg import two_phase_agg

    counts = two_phase_agg(docs_ds, hits, [id_col], ["inc", "exc"],
                           combine="shuffle")
    want = len(inc)
    return counts.map_batches(
        lambda b: b[(b["inc"] == want) & (b["exc"] == 0)][[id_col]],
        batch_format="pandas",
    )
