"""Text / search stages: tokenization, inverted-index grouping, BM25
scoring family, n-gram counts, and training-data text analysis.

Reference mapping (SURVEY.md §2):
- tokenizer            -> M7 (indexer.go:787; lowercase regex split,
                          identical on index and query sides).  ONE
                          rule, `_normalize`: null -> '', utf8proc
                          lowercase (Arrow utf8_lower), tokens are the
                          [a-z0-9]+ runs.  `tokenize_series` (token
                          lists) and `tokenize_flat_arrow` (factorized
                          flat form) both derive from it; every text
                          stage tokenizes through one of the two
- postings pairs       -> M9/A1 SPIMI invert (indexer.go:672-768); ONE
                          bucketed shuffle on term replaces spill files
                          + heap merge (heap_merge.go:38-98); no salt: a
                          salted pass's merge re-sorts whole lists anyway
- doc/field lengths    -> A3/A4 (indexer.go:620-632, 788-790)
- DF / TF              -> A8 (scoring.go:29-50)
- BM25F               -> Q5 (scoring.go:9-76; constants constant.go:28-39.
                          NOTE: the reference applies NAME_B to the
                          address field too — replicated for parity)
- BM25+               -> Q6 (score_multi(scoring="bm25plus");
                          scoring.go:143-181; the reference's
                          numerator is (K1+1)+tf, not (K1+1)*tf —
                          replicated for parity)
- TF-IDF dot product  -> Q7 (score_multi(scoring="tfidf");
                          scoring.go:183-228; norms computed but
                          never divided by — replicated)
- n-gram counts        -> A5 (ngram_lm.go:112-210; n start + 1 end pad)
- vocab threshold      -> A6 (ngram_lm.go:56-110, COUNT_THRESOLD_NGRAM=2)
- quality / langid / token counting -> new training-data ops

All heavy paths are vectorized pandas/pyarrow inside map_batches with
partial (per-batch) aggregation before any groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# BM25 constants (reference pkg/searcher/constant.go:28-39)
K1_BM25F = 10.0
NAME_WEIGHT = 20.0
ADDRESS_WEIGHT = 1.0
NAME_B = 0.95
ADDRESS_B = 0.3
DELTA = 1.0
K1 = 1.2
B = 0.98

START_TOKEN = "<s>"
END_TOKEN = "</s>"


# byte -> itself for [a-z0-9], else ' ' (every byte of a non-ASCII
# UTF-8 character too: none of them is a token character)
_TOKEN_CHARS = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789",
                             dtype=np.uint8)
_TOKEN_BYTES = np.full(256, ord(" "), dtype=np.uint8)
_TOKEN_BYTES[_TOKEN_CHARS] = _TOKEN_CHARS


def _normalize(texts) -> pa.Array:
    """The tokenization rule: null -> '', utf8proc lowercase, every
    character outside [a-z0-9] -> ' ', trim.  The tokens of a row are
    then its whitespace-separated words: the [a-z0-9]+ runs of the
    lowercased text.  `texts`: a pandas Series or an Arrow array.

    The mapping is one byte lookup over the lowercased string buffer
    (same byte length, so the offsets stay valid); an RE2
    '[^a-z0-9]+' replace costs ~5x more on 300-char documents."""
    if isinstance(texts, pd.Series):
        texts = pa.array(texts, type=pa.string(), from_pandas=True)
    elif isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    low = pc.utf8_lower(pc.fill_null(texts, "").cast(pa.string()))
    _, offsets, data = low.buffers()
    data = _TOKEN_BYTES[np.frombuffer(data or b"", dtype=np.uint8)]
    return pc.ascii_trim(pa.StringArray.from_buffers(
        len(low), offsets, pa.py_buffer(data), offset=low.offset), " ")


def tokenize_series(texts: pd.Series) -> pd.Series:
    """Token lists (the [a-z0-9]+ runs of the utf8proc-lowercased text,
    null read as ''), one list per row on the input's index:
    `str.split()` of the `_normalize`d strings."""
    norm = _normalize(texts).to_numpy(zero_copy_only=False)
    return pd.Series(norm, index=texts.index, name=texts.name,
                     dtype=object).str.split()


def tokenize_flat_arrow(texts):
    """Tokens (the [a-z0-9]+ runs of the utf8proc-lowercased text, null
    read as ''; the `_normalize` rule, as `tokenize_series`) in flat
    form: (codes, uniques, lens, starts) where `codes` is the token id per
    flat position (first-occurrence order), `uniques` the batch
    vocabulary, `lens` tokens per row and `starts` each row's flat
    offset.  Split + dictionary_encode run as Arrow kernels; per-doc
    statistics are then vectorized over the small `uniques` array and
    one np.add.reduceat (`per_doc_sum`).  `texts`: a pandas Series or
    an Arrow array."""
    norm = _normalize(texts)
    toks = pc.ascii_split_whitespace(norm)
    # a row without tokens is '' and splits to one '' entry; no other
    # entry is '' (ends trimmed, a run of spaces is one separator)
    empty = pc.equal(norm, "").to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(toks).to_numpy().astype(np.int64) - empty
    flat = pc.list_flatten(toks)
    if empty.any():
        flat = flat.filter(pc.not_equal(flat, ""))
    dic = pc.dictionary_encode(flat)
    codes = dic.indices.to_numpy().astype(np.int64)
    uniques = np.asarray(dic.dictionary.to_numpy(zero_copy_only=False),
                         dtype=object)
    return codes, uniques, lens, np.cumsum(lens) - lens


# ---------------------------------------------------------------------------
# postings / stats batch emitters (all return slim pair tables)


def postings_pairs(batch: pd.DataFrame, id_col="doc_id", text_col="text") -> pd.DataFrame:
    """(term, doc_id) DISTINCT pairs per doc — the SPIMI pair emission."""
    toks = tokenize_series(batch[text_col])
    out = (
        pd.DataFrame({"doc_id": batch[id_col], "term": toks})
        .explode("term")
        .dropna(subset=["term"])
        .drop_duplicates()
    )
    return out[["term", "doc_id"]].reset_index(drop=True)


def doc_lengths(batch: pd.DataFrame, id_col="doc_id", text_col="text") -> pd.DataFrame:
    toks = tokenize_series(batch[text_col])
    return pd.DataFrame(
        {"doc_id": batch[id_col], "n_tokens": toks.str.len().astype(np.int64)}
    )


def term_df(ds, id_col="doc_id", text_col="text"):
    """term -> document frequency.  Partial = per-batch distinct-doc
    counts per term (each doc lives in exactly one batch, so partial DFs
    sum exactly); the combine over partials is the bucket shuffle — a
    web corpus's vocab is NOT driver-sized.  Returns a Dataset."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        p = postings_pairs(batch, id_col, text_col)
        vc = p["term"].value_counts()
        return pd.DataFrame({"term": vc.index, "df": vc.to_numpy(np.int64)})

    return two_phase_agg(ds, partial, ["term"], ["df"])


def postings_lists(ds, id_col="doc_id", text_col="text",
                   stringify: bool = False):
    """term -> (sorted doc id list, df): the merged inverted index, A1+A2.

    ONE bucketed shuffle on term: each bucket sorts its (term, doc_id)
    pairs and list-aggregates them.  There is no hot-term salt: a
    (term, doc_id % k) first stage bounds nothing, because the final
    row carries the term's full list anyway and a per-term merge must
    re-sort every doc id of the term in the same hash(term) bucket
    this single stage already holds.

    stringify=True returns postings as a comma-joined string (the
    DuckDB-oracle-hashable form)."""

    from .agg import bucketed_group_apply

    def lists_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized sort + list-agg over every term in the bucket
        out = (
            g.sort_values(["term", "doc_id"], kind="mergesort")
            .groupby("term", sort=False)["doc_id"].agg(list).reset_index()
            .rename(columns={"doc_id": "postings"})
        )
        out["df"] = out["postings"].map(len).astype(np.int64)
        if stringify:
            out["postings"] = out["postings"].map(
                lambda lst: ",".join(str(i) for i in lst)
            )
        return out

    pairs = ds.map_batches(postings_pairs, batch_format="pandas",
                           fn_kwargs={"id_col": id_col, "text_col": text_col})
    return bucketed_group_apply(pairs, ["term"], lists_bucket)


# ---------------------------------------------------------------------------
# BM25F / BM25+ / TF-IDF scoring over a document Dataset for one query


def _query_hits(flat, terms: list[str]):
    """(row, term index, position in the row) of every token of the flat
    form `flat` that is one of the sorted distinct `terms`."""
    codes, uniques, lens, starts = flat
    ti = pd.Index(terms, dtype=object).get_indexer(uniques)[codes]
    hit = np.flatnonzero(ti >= 0)
    row = np.repeat(np.arange(len(lens)), lens)[hit]
    return row, ti[hit], hit - starts[row]


def _tf_matrix(flat, terms: list[str], name_len: int):
    """(tf_name, tf_addr) float64 matrices of shape (rows, len(terms)):
    term frequency of each query term per doc field (the first
    `name_len` tokens are the name), counted as integers by one
    bincount each over the flat form, so the floats are exact."""
    n, T = len(flat[2]), len(terms)
    row, ti, pos = _query_hits(flat, terms)
    key, name = row * T + ti, pos < name_len

    def tf(k):
        return np.bincount(k, minlength=n * T).reshape(n, T) \
            .astype(np.float64)

    return tf(key[name]), tf(key[~name])


def _global_stats(ds, query_terms, id_col, text_col, name_len):
    """Pass 1: global stats — N, avg field lengths, df per query term.
    Everything is a partial-aggregated scan; results are tiny."""
    qset = sorted(set(query_terms))

    def partial(batch: pa.Table) -> pd.DataFrame:
        flat = tokenize_flat_arrow(batch[text_col])
        lens = flat[2]
        name_lens = np.minimum(lens, name_len)
        rows = {"n_docs": [len(lens)],
                "sum_name_len": [int(name_lens.sum())],
                "sum_addr_len": [int((lens - name_lens).sum())]}
        # per-term df: distinct (row, term) hits counted per term
        row, ti, _ = _query_hits(flat, qset)
        T = max(len(qset), 1)
        dfs = np.bincount(np.unique(row * T + ti) % T, minlength=len(qset))
        for t, c in zip(qset, dfs):
            rows[f"df__{t}"] = [int(c)]
        return pd.DataFrame(rows)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # an empty corpus gives no partial rows (and no columns): all zero
    stats = parts.sum().reindex(
        ["n_docs", "sum_name_len", "sum_addr_len",
         *(f"df__{t}" for t in qset)], fill_value=0)
    n = float(stats["n_docs"])
    return {
        "N": n,
        "avg_name": float(stats["sum_name_len"]) / max(n, 1.0),
        "avg_addr": float(stats["sum_addr_len"]) / max(n, 1.0),
        "avg_doc": (float(stats["sum_name_len"]) + float(stats["sum_addr_len"]))
        / max(n, 1.0),
        "df": {t: float(stats[f"df__{t}"]) for t in qset},
    }


def bm25f_score(ds, query_terms: list[str], id_col="doc_id", text_col="text",
                name_len: int = 3):
    """Pass 2: per-doc BM25F score (reference scoring.go:29-76)."""
    stats = _global_stats(ds, query_terms, id_col, text_col, name_len)

    uniq = sorted(set(query_terms))

    def score(batch: pa.Table) -> pd.DataFrame:
        flat = tokenize_flat_arrow(batch[text_col])
        tfm_n, tfm_a = _tf_matrix(flat, uniq, name_len)
        nt = flat[2].astype(np.float64)
        ln = np.minimum(nt, name_len)
        la = np.maximum(nt - name_len, 0.0)
        s = np.zeros(len(batch))
        for t in query_terms:
            df = stats["df"][t]
            if df == 0:
                continue
            ti = uniq.index(t)
            idf = np.log10(stats["N"] - df + 0.5) - np.log10(df + 0.5)
            tf_n = tfm_n[:, ti]
            tf_a = tfm_a[:, ti]
            w_n = NAME_WEIGHT * (tf_n / (1 + NAME_B * (ln / stats["avg_name"] - 1)))
            s += np.where(tf_n > 0, w_n / (K1_BM25F + w_n), 0.0) * idf
            if stats["avg_addr"] == 0:  # no doc has an address token
                continue
            # reference uses NAME_B for the address field too (scoring.go:60)
            w_a = ADDRESS_WEIGHT * np.where(
                la > 0, tf_a / (1 + NAME_B * (la / stats["avg_addr"] - 1)), 0.0
            )
            s += np.where(tf_a > 0, w_a / (K1_BM25F + w_a), 0.0) * idf
        nz = s != 0.0
        return pd.DataFrame({"doc_id": batch[id_col].to_numpy()[nz],
                             "score": s[nz]})

    return ds.map_batches(score, batch_format="pyarrow")


def top_k(score_ds, k: int, offset: int = 0):
    """Global top-k by (score desc, doc_id asc) — K1 page semantics.

    Per-block partial top-(offset+k) combiner -> tiny driver merge of
    O(blocks * (k+offset)) rows: no all-to-all sort for a k<=10 answer
    (same plan as the kNN partial-top-k)."""
    kk = offset + k

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["score", "doc_id"], ascending=[False, True],
                             kind="mergesort").head(kk)

    parts = score_ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = (
        parts.sort_values(["score", "doc_id"], ascending=[False, True],
                          kind="mergesort")
        .iloc[offset:kk]
        .reset_index(drop=True)
    )
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return out


def score_multi(ds, query_terms: dict, scoring: str = "bm25f",
                id_col="doc_id", text_col="text", name_len: int = 3):
    """Score a BATCH of queries in exactly TWO corpus scans total:

      scan 1 — shared stats (N, avg lengths, df) over the UNION of all
               queries' terms;
      scan 2 — per-doc per-UNION-term contribution matrix, then every
               query's score = the ordered sum of its terms' columns
               (duplicate query terms multiply the column — x+x == 2x in
               IEEE, so parity with the sequential per-query loop holds).

    `query_terms`: {query_id: [terms...]}.  Returns a Dataset of
    (query_id, doc_id, score != 0).  This replaces the
    2-scans-x-queries(x-candidates) plan the per-query scorers imply —
    the scan count no longer grows with the query batch.
    """
    union = sorted({t for ts in query_terms.values() for t in ts})
    stats = _global_stats(ds, union, id_col, text_col,
                           name_len if scoring == "bm25f" else 0)
    # per-query (term -> multiplicity), in sorted-term order
    q_mult = {
        qid: {t: ts.count(t) for t in sorted(set(ts))}
        for qid, ts in query_terms.items()
    }

    def contribution_matrix(flat, dl):
        """C[:, ti] = one occurrence's score contribution of union[ti]."""
        C = np.zeros((len(dl), len(union)))
        if scoring == "bm25f":
            tfm_n, tfm_a = _tf_matrix(flat, union, name_len)
            ln = np.minimum(dl, name_len)
            la = np.maximum(dl - name_len, 0.0)
        else:
            tfm, _ = _tf_matrix(flat, union, name_len=1 << 30)
        for ti, t in enumerate(union):
            df = stats["df"][t]
            if df == 0:
                continue
            if scoring == "bm25f":
                idf = np.log10(stats["N"] - df + 0.5) - np.log10(df + 0.5)
                tf_n, tf_a = tfm_n[:, ti], tfm_a[:, ti]
                w_n = NAME_WEIGHT * (
                    tf_n / (1 + NAME_B * (ln / stats["avg_name"] - 1))
                )
                C[:, ti] = np.where(tf_n > 0, w_n / (K1_BM25F + w_n), 0.0) * idf
                if stats["avg_addr"] == 0:  # no doc has an address token
                    continue
                w_a = ADDRESS_WEIGHT * np.where(
                    la > 0, tf_a / (1 + NAME_B * (la / stats["avg_addr"] - 1)), 0.0
                )
                C[:, ti] += np.where(tf_a > 0, w_a / (K1_BM25F + w_a), 0.0) * idf
            elif scoring == "bm25plus":
                idf = np.log10(stats["N"] + 1) - np.log10(df)
                tf = tfm[:, ti]
                contrib = idf * (
                    DELTA
                    + ((K1 + 1) + tf)
                    / (K1 * (1 - B + B * dl / stats["avg_doc"]) + tf)
                )
                C[:, ti] = np.where(tf > 0, contrib, 0.0)
            else:  # tfidf dot product; query weight applied per query below
                idf = np.log10(stats["N"]) - np.log10(df)
                tf = tfm[:, ti]
                C[:, ti] = np.where(
                    tf > 0, (1 + np.log10(np.maximum(tf, 1))) * idf, 0.0
                )
        return C

    def score(batch: pa.Table) -> pd.DataFrame:
        flat = tokenize_flat_arrow(batch[text_col])
        dl = flat[2].astype(np.float64)
        C = contribution_matrix(flat, dl)
        ids = batch[id_col].to_numpy()
        frames = []
        for qid, mult in q_mult.items():
            s = np.zeros(len(dl))
            for t, m in mult.items():  # sorted-term FP sum order
                ti = union.index(t)
                if scoring == "tfidf":
                    df = stats["df"][t]
                    if df == 0:
                        continue
                    idf = np.log10(stats["N"]) - np.log10(df)
                    w = (1 + np.log10(m)) * idf
                else:
                    w = float(m)
                s += C[:, ti] * w
            nz = s != 0.0
            if nz.any():
                frames.append(pd.DataFrame({
                    "query_id": qid,
                    "doc_id": ids[nz],
                    "score": s[nz],
                }))
        if not frames:
            return pd.DataFrame({"query_id": pd.Series([], dtype=object),
                                 "doc_id": pd.Series([], dtype=np.int64),
                                 "score": pd.Series([], dtype=np.float64)})
        return pd.concat(frames, ignore_index=True)

    return ds.map_batches(score, batch_format="pyarrow")


def empty_page(extra=()) -> pd.DataFrame:
    """A page with no rows: (query_id, rank int64, doc_id int64,
    score float64, *extra object columns)."""
    return pd.DataFrame({
        "query_id": pd.Series([], dtype=object),
        "rank": pd.Series([], dtype=np.int64),
        "doc_id": pd.Series([], dtype=np.int64),
        "score": pd.Series([], dtype=np.float64),
        **{c: pd.Series([], dtype=object) for c in extra}})


def top_k_multi(score_ds, k_by_query: dict):
    """Per-query page slice over a (query_id, doc_id, score [, extra
    columns]) Dataset.  `k_by_query`: {query_id: (k, offset)}.  The
    driver-side `agg.driver_page` on (score DESC, doc_id ASC): ties keep
    the row order of the blocks.  Returns a DataFrame (query_id, rank,
    doc_id, score, *extra columns); with no scored row it is empty, with
    int64 rank / doc_id and float64 score."""
    from .agg import driver_page

    out = driver_page(score_ds, ["score", "doc_id"],
                      {q: k for q, (k, _) in k_by_query.items()},
                      {q: off for q, (_, off) in k_by_query.items()},
                      key="query_id", descending=("score",))
    base = ["query_id", "rank", "doc_id", "score"]
    extra = [c for c in out.columns if c not in base]
    if not len(out):
        return empty_page(extra)
    return out[base + extra]


# ---------------------------------------------------------------------------
# n-gram counts (A5) — n start tokens + 1 end token (ngram_lm.go:373-384)


def ngram_pairs(batch: pd.DataFrame, n: int, id_col="doc_id", text_col="text",
                pad: bool = True) -> pd.DataFrame:
    toks = tokenize_series(batch[text_col])
    rows: dict[str, int] = {}
    for ws in toks:
        seq = ([START_TOKEN] * n + list(ws) + [END_TOKEN]) if pad else list(ws)
        for i in range(len(seq) - n + 1):
            g = " ".join(seq[i : i + n])
            rows[g] = rows.get(g, 0) + 1
    return pd.DataFrame(
        {"ngram": list(rows), "partial": np.fromiter(rows.values(), dtype=np.int64)}
    )


def ngram_counts(ds, n: int, id_col="doc_id", text_col="text", pad: bool = True):
    """Distributed n-gram counting: per-batch partial dict -> bucket
    shuffle sum over partials (n-gram keyspaces are unbounded at corpus
    scale).  Returns a Dataset."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        p = ngram_pairs(batch, n, id_col, text_col, pad)
        return p.rename(columns={"partial": "n"})

    return two_phase_agg(ds, partial, ["ngram"], ["n"])


def ngram_counts_multi(ds, n_max: int = 4, text_col="text", pad: bool = True):
    """All n-gram orders 1..n_max in ONE scan (the reference runs 4
    parallel goroutines over the same data, ngram_lm.go:345-370; one
    pass emitting (n, ngram) partials is strictly cheaper).  Returns
    the collected counts as one Arrow table (n_order, ngram, cnt)."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        toks = tokenize_series(batch[text_col])
        rows: dict[tuple[int, str], int] = {}
        for ws in toks:
            base = list(ws)
            for n in range(1, n_max + 1):
                seq = ([START_TOKEN] * n + base + [END_TOKEN]) if pad else base
                for i in range(len(seq) - n + 1):
                    k = (n, " ".join(seq[i : i + n]))
                    rows[k] = rows.get(k, 0) + 1
        ns = np.fromiter((k[0] for k in rows), dtype=np.int64, count=len(rows))
        return pd.DataFrame(
            {"n_order": ns, "ngram": [k[1] for k in rows],
             "cnt": np.fromiter(rows.values(), dtype=np.int64, count=len(rows))}
        )

    out = two_phase_agg(ds, partial, ["n_order", "ngram"], ["cnt"]).to_pandas()
    if len(out) == 0:  # an empty corpus: typed empty counts
        return pa.table({"n_order": pa.array([], pa.int64()),
                         "ngram": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    return pa.Table.from_pandas(out[["n_order", "ngram", "cnt"]],
                                preserve_index=False)


def vocab_with_min_freq(ds, min_freq: int = 2, id_col="doc_id", text_col="text"):
    """A6: terms with collection frequency >= min_freq (others -> <UNK>),
    as a Dataset (term, freq)."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        e = tokenize_series(batch[text_col]).explode().dropna()
        vc = e.value_counts()
        return pd.DataFrame({"term": vc.index, "freq": vc.to_numpy(np.int64)})

    counts = two_phase_agg(ds, partial, ["term"], ["freq"])
    return counts.filter(expr=f"freq >= {min_freq}")


def winnow_fingerprints(ds, id_col="doc_id", text_col="text",
                        k_shingle: int = 3, window: int = 4):
    """Document fingerprinting by rolling-hash WINNOWING (the MOSS
    scheme, Schleimer et al. 2003): hash every k-token shingle, slide a
    window of `window` consecutive shingle hashes, select the RIGHTMOST
    minimum of EVERY window, emit the DISTINCT selected hashes per doc.
    Selecting per-window (not only positions that end a window) keeps
    winnowing's guarantee: any match of length >= window + k - 1 shares
    at least one fingerprint, and every doc with >= 1 shingle emits
    >= 1 fingerprint.  Near-identical documents share most fingerprints;
    the output is a (doc_id, fingerprint) pair table ready for the same
    keyed-shuffle machinery as postings.

    Hash = low 32 bits (little-endian) of md5(shingle) — process-
    independent and reproduced digit-by-digit by the SQL oracle.  Docs
    with fewer than `window` shingles fingerprint every shingle."""
    import hashlib

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        ids, fps = [], []
        toks = tokenize_series(batch[text_col])
        for i, ws in enumerate(toks):
            ws = list(ws)
            if not ws:
                continue
            if len(ws) < k_shingle:
                shingles = [" ".join(ws)]
            else:
                shingles = [" ".join(ws[j : j + k_shingle])
                            for j in range(len(ws) - k_shingle + 1)]
            h = np.array(
                [int.from_bytes(hashlib.md5(s.encode()).digest()[:4], "little")
                 for s in shingles],
                dtype=np.int64,
            )
            if len(h) <= window:
                sel = np.unique(h)
            else:
                # rightmost minimum of every window via stride tricks:
                # argmin over the REVERSED window picks the rightmost
                # position on value ties
                sw = np.lib.stride_tricks.sliding_window_view(h, window)
                arg = sw[:, ::-1].argmin(axis=1)
                pos = np.arange(sw.shape[0]) + (window - 1 - arg)
                sel = np.unique(h[pos])
            ids.extend([batch[id_col].iloc[i]] * len(sel))
            fps.extend(sel.tolist())
        return pd.DataFrame({id_col: ids,
                             "fingerprint": np.array(fps, dtype=np.int64)})

    return ds.map_batches(fp, batch_format="pandas")


# ---------------------------------------------------------------------------
# training-data text analysis (new ops)

STOPWORDS = {
    "en": ["the", "and", "of", "a", "to", "in", "is", "for", "on", "with"],
    "es": ["el", "la", "de", "y", "que", "en", "un", "por", "con", "los"],
    "de": ["der", "die", "und", "das", "ist", "ein", "mit", "von", "zu", "den"],
    "fr": ["le", "la", "de", "et", "les", "des", "un", "une", "dans", "est"],
    "zh": ["de", "shi", "le", "zai", "you", "wo", "ta", "men", "zhe", "na"],
}


def per_doc_sum(values: np.ndarray, lens: np.ndarray,
                starts: np.ndarray) -> np.ndarray:
    """Per-document sums of a flat per-token value array via ONE
    np.add.reduceat over the non-empty docs' offsets."""
    out = np.zeros(len(lens), dtype=np.int64)
    nz = lens > 0
    if values.size and nz.any():
        out[nz] = np.add.reduceat(values, starts[nz])
    return out


def doc_token_counts(codes: np.ndarray, uniques: np.ndarray,
                     lens: np.ndarray):
    """(row, code, count) of every distinct token of every row of a flat
    form, sorted by (row, code): one np.unique over the composite int
    key, no groupby over object tokens."""
    u = max(len(uniques), 1)
    key, cnt = np.unique(np.repeat(np.arange(len(lens)), lens) * u + codes,
                         return_counts=True)
    return key // u, key % u, cnt.astype(np.int64)


def quality_signals(batch: pa.Table, id_col="doc_id",
                    text_col="text") -> pa.Table:
    """Integer quality signals per doc (ints hash identically across
    engines; `quality_metrics` turns them into ratios): n_tokens,
    n_chars, alnum_space_chars ([a-zA-Z0-9 ] chars of the raw text),
    token_chars (chars of the tokens the tokenizer emits) and stop_hits
    (English stopword tokens).  Null text reads as ''."""
    texts = pc.fill_null(batch[text_col], "")
    codes, uniques, lens, starts = tokenize_flat_arrow(texts)
    ulen = np.fromiter(map(len, uniques), dtype=np.int64, count=len(uniques))
    stop_u = np.isin(uniques, STOPWORDS["en"]).astype(np.int64)
    return pa.table({
        "doc_id": batch[id_col],
        "n_tokens": pa.array(lens, pa.int64()),
        "n_chars": pc.utf8_length(texts).cast(pa.int64()),
        "alnum_space_chars": pc.count_substring_regex(
            texts, "[a-zA-Z0-9 ]").cast(pa.int64()),
        "token_chars": pa.array(per_doc_sum(ulen[codes], lens, starts)),
        "stop_hits": pa.array(per_doc_sum(stop_u[codes], lens, starts)),
    })


def quality_metrics(batch: pa.Table, id_col="doc_id",
                    text_col="text") -> pa.Table:
    """Length / punctuation / stopword-ratio / mean-token-length quality
    metrics: ratios over `quality_signals`."""
    q = quality_signals(batch, id_col, text_col)
    c = {k: q[k].to_numpy() for k in q.column_names[1:]}
    n_tok = np.maximum(c["n_tokens"], 1)
    return pa.table({
        "doc_id": q["doc_id"],
        "n_tokens": q["n_tokens"],
        "n_chars": q["n_chars"],
        "punct_ratio": np.round(
            1.0 - c["alnum_space_chars"] / np.maximum(c["n_chars"], 1), 6),
        "stopword_ratio": np.round(
            c["stop_hits"] / n_tok.astype(np.float64), 6),
        "mean_token_len": np.round(c["token_chars"] / n_tok, 6),
    })


def lang_id(batch: pa.Table, id_col="doc_id", text_col="text") -> pa.Table:
    """Stopword-list language id: argmax hits, ties -> lexicographic
    min.  Per-language membership is np.isin over the batch
    VOCABULARY (not the corpus), per-doc hit counts one reduceat each;
    argmax over sorted language order breaks ties toward the
    lexicographic minimum."""
    codes, uniques, lens, starts = tokenize_flat_arrow(batch[text_col])
    langs = sorted(STOPWORDS)
    hits = np.zeros((len(lens), len(langs)), dtype=np.int64)
    for j, l in enumerate(langs):
        mask_u = np.isin(uniques, STOPWORDS[l])
        hits[:, j] = per_doc_sum(mask_u[codes].astype(np.int64),
                                 lens, starts)
    best = hits.argmax(axis=1)  # first max = lex-min lang (sorted)
    preds = np.where(hits.max(axis=1, initial=0) > 0,
                     np.asarray(langs, dtype=object)[best], "unknown")
    return pa.table({"doc_id": batch[id_col],
                     "pred_lang": pa.array(preds.astype(str))})


def token_counts(batch: pa.Table, id_col="doc_id",
                 text_col="text") -> pa.Table:
    """Whitespace and BPE-ish token counts (training-data costing), one
    RE2 count each: '\\S+' runs of the text, and '[a-z0-9]+' runs or
    single non-space symbols of the lowercased text.  Null reads as
    ''."""
    texts = pc.fill_null(batch[text_col], "")
    return pa.table({
        "doc_id": batch[id_col],
        "ws_tokens": pc.count_substring_regex(
            texts, r"\S+").cast(pa.int64()),
        "bpe_ish_tokens": pc.count_substring_regex(
            pc.utf8_lower(texts),
            r"[a-z0-9]+|[^a-z0-9\s]").cast(pa.int64()),
    })


def chunk_windows(batch: pd.DataFrame, id_col="doc_id", text_col="text",
                  size: int = 32, stride: int = 24) -> pd.DataFrame:
    """CONTEXT-WINDOW CHUNKING (sequence packing for training / RAG):
    each document yields overlapping token windows starting at
    0, stride, 2*stride, ... while start < n_tokens; a window covers
    [start, min(start + size, n)).  Emitted as integer chunk
    coordinates (doc_id, chunk_id, start_tok, n_tok) — the actual
    token slice is a downstream gather, so what shuffles is O(chunks)
    small rows, never the text.  Fully vectorized variable-fanout
    explode (np.repeat over ceil(n/stride) per doc)."""
    toks = tokenize_series(batch[text_col])
    n = toks.str.len().to_numpy(dtype=np.int64)
    n_chunks = -(-n // stride)  # ceil; 0 tokens -> 0 chunks
    rep = np.repeat(np.arange(len(batch), dtype=np.int64), n_chunks)
    total = int(n_chunks.sum())
    first = np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
    ci = np.arange(total, dtype=np.int64) - first
    start = ci * stride
    return pd.DataFrame({
        id_col: batch[id_col].to_numpy()[rep],
        "chunk_id": ci,
        "start_tok": start,
        "n_tok": np.minimum(size, n[rep] - start),
    })


def repetition_signals(batch: pa.Table, id_col="doc_id",
                       text_col="text") -> pa.Table:
    """Per-document REPETITION signals (the Gopher repetition rules,
    Rae et al. 2021 — public): distinct-token fraction and
    top-unigram / top-bigram coverage, emitted as INTEGER numerators
    and denominators (the repo's oracle design rule; the ratios are
    one division away).  Output per doc: (doc_id, n_tokens,
    n_distinct, top_unigram_n, top_bigram_n, n_bigrams).

    Vectorized batch-wide over the flat token codes: unigram stats from
    one (doc, code) groupby, bigrams from the shifted-neighbor mask as
    (code, next-code) int pairs — no string concatenation."""
    codes, uniques, lens, starts = tokenize_flat_arrow(batch[text_col])
    n = len(lens)
    n_distinct = np.zeros(n, dtype=np.int64)
    top_uni = np.zeros(n, dtype=np.int64)
    top_bg = np.zeros(n, dtype=np.int64)
    if codes.size:
        doc = np.repeat(np.arange(n, dtype=np.int64), lens)
        uni = (pd.DataFrame({"d": doc, "w": codes})
               .groupby(["d", "w"], sort=False).size().reset_index(name="c"))
        per = uni.groupby("d", sort=False)["c"].agg(["count", "max"])
        idx = per.index.to_numpy()
        n_distinct[idx] = per["count"].to_numpy(np.int64)
        top_uni[idx] = per["max"].to_numpy(np.int64)
        same = doc[1:] == doc[:-1]
        if same.any():
            bg = pd.DataFrame({"d": doc[:-1][same],
                               "b1": codes[:-1][same],
                               "b2": codes[1:][same]})
            bper = (bg.groupby(["d", "b1", "b2"], sort=False).size()
                      .groupby(level="d", sort=False).max())
            top_bg[bper.index.to_numpy()] = bper.to_numpy(np.int64)
    return pa.table({
        id_col: batch[id_col],
        "n_tokens": pa.array(lens, pa.int64()),
        "n_distinct": pa.array(n_distinct, pa.int64()),
        "top_unigram_n": pa.array(top_uni, pa.int64()),
        "top_bigram_n": pa.array(top_bg, pa.int64()),
        "n_bigrams": pa.array(np.maximum(lens - 1, 0), pa.int64()),
    })


def hash_features(batch: pd.DataFrame, n_buckets: int = 32,
                  id_col: str = "doc_id", text_col: str = "text") -> pd.DataFrame:
    """FEATURE HASHING (the hashing trick, Weinberger et al. 2009):
    tf-weighted signed bucket counts per document — the fixed-width
    feature vector a downstream model trains on, with NO vocabulary
    state (the scale-critical property: nothing to broadcast or
    shuffle, a pure map stage).  bucket = token_md5 % n_buckets,
    sign = the next hash bit; md5 runs once per unique token per batch
    (the `dedup.simhash64_from_flat` scheme, and the same
    SQL-mirrorable hash).  Emits long form (doc_id, bucket, feat) with
    zero rows dropped."""
    from .dedup import _hash64

    codes, uniques, lens, _ = tokenize_flat_arrow(batch[text_col])
    row, code, tf = doc_token_counts(codes, uniques, lens)
    hv = np.array([_hash64(t) for t in uniques], dtype=np.uint64)
    bucket = (hv % np.uint64(n_buckets)).astype(np.int64)[code]
    sign = np.where(((hv // np.uint64(n_buckets)) & np.uint64(1)) == 1,
                    1, -1).astype(np.int64)[code]
    acc = np.zeros((len(lens), n_buckets), dtype=np.int64)
    np.add.at(acc, (row, bucket), sign * tf)
    di, bi = np.nonzero(acc)
    return pd.DataFrame({id_col: batch[id_col].to_numpy(np.int64)[di],
                         "bucket": bi.astype(np.int64), "feat": acc[di, bi]})
