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
- postings pairs       -> M9/A1 SPIMI invert (indexer.go:672-768):
                          `flat_postings_pairs` is the one pair emitter
                          (postings_pairs, postings_lists, build_index);
                          ONE bucketed shuffle on term replaces spill files
                          + heap merge (heap_merge.go:38-98); no salt: a
                          salted pass's merge re-sorts whole lists anyway.
                          `postings_agg` is the one list-aggregate
                          (postings_lists, build_index, merge_postings)
- doc/field lengths    -> A3/A4 (indexer.go:620-632, 788-790): the flat
                          form's `lens` (doc_lengths, build_index)
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
- token windows        -> `_windows`: every n-gram (A5 counts, the LM),
                          shingle (MinHash, Jaccard, decontamination,
                          winnowing) and k-gram (dup coverage) is cut
                          from the flat token codes by this one kernel;
                          keys are Arrow-joined strings, md5-64 of
                          those, or one polynomial over md5-64 token
                          hashes
- n-gram counts        -> A5 (ngram_lm.go:112-210; n start + 1 end pad;
                          strings built once per distinct code tuple)
- vocab threshold      -> A6 (ngram_lm.go:56-110, COUNT_THRESOLD_NGRAM=2)
- quality / langid / token counting -> new training-data ops

All heavy paths are vectorized pandas/pyarrow inside map_batches with
partial (per-batch) aggregation before any groupby.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

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
    low = pc.utf8_lower(pc.fill_null(texts.cast(pa.string()), ""))
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
# token windows: every n-gram, shingle and k-gram is cut from the flat
# token codes by `_windows`


def md5_64(values) -> np.ndarray:
    """uint64 per value: the low 8 bytes (little-endian) of
    md5(str(value)) — process-independent and SQL-mirrorable.  The one
    md5-64 behind shingle hashes, SimHash, feature buckets and HLL
    registers."""
    return np.frombuffer(b"".join(
        hashlib.md5(str(v).encode()).digest()[:8] for v in values),
        dtype="<u8").astype(np.uint64)


# the window hash multiplier (the FNV-1 64-bit prime)
_WINDOW_P = np.uint64(1099511628211)


def row_distinct(row: np.ndarray, keys: np.ndarray):
    """The distinct (row, key) pairs, sorted by (row, key)."""
    order = np.lexsort((keys, row))
    row, keys = row[order], keys[order]
    new = np.ones(len(row), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (keys[1:] != keys[:-1])
    return row[new], keys[new]


class _Windows(NamedTuple):
    """The windows of one `_windows` call.  `vocab`: the batch
    vocabulary followed by the <s> and </s> pads; `stream`: every row's
    padded token codes into `vocab`, rows back to back from `offset`;
    `row`, `start`, `width`: each window's row, stream position and
    token count (n, or fewer for a short row's whole-row window), in
    row order, then position order."""
    n: int
    vocab: np.ndarray
    stream: np.ndarray
    offset: np.ndarray
    row: np.ndarray
    start: np.ndarray
    width: np.ndarray

    def tuples(self, which=slice(None)) -> np.ndarray:
        """(windows, n) token codes of the windows at `which`; -1 past a
        short window's width."""
        j = np.arange(self.n)
        t = self.stream[np.minimum(self.start[which, None] + j,
                                   len(self.stream) - 1)]
        t[j >= self.width[which, None]] = -1
        return t

    def distinct(self):
        """(ids, reps): a dense id per window (equal ids, equal code
        tuples) and the index of one window per id.  One hash
        factorize per column, so the composite key stays below
        windows x vocab."""
        t = self.tuples() + 1
        ids = pd.factorize(t[:, 0])[0]
        for j in range(1, self.n):
            ids = pd.factorize(ids * (len(self.vocab) + 1) + t[:, j])[0]
        reps = np.empty(int(ids.max(initial=-1)) + 1, dtype=np.int64)
        reps[ids[::-1]] = np.arange(len(ids) - 1, -1, -1)
        return ids, reps

    def strings(self, which: np.ndarray) -> pa.Array:
        """The space-joined tokens of the windows at `which`: one Arrow
        take per column and one element-wise join."""
        t = self.tuples(which)
        voc = pa.array(self.vocab, pa.string())
        cols = [voc.take(pa.array(t[:, j], mask=t[:, j] < 0))
                for j in range(self.n)]
        return pc.binary_join_element_wise(*cols, " ",
                                           null_handling="skip")

    def md5(self) -> np.ndarray:
        """md5-64 of every window's string, one md5 per distinct
        window."""
        ids, reps = self.distinct()
        return md5_64(self.strings(reps).to_pylist())[ids]

    def hashes(self, token_hash: np.ndarray) -> np.ndarray:
        """uint64 polynomial hash of every window over `token_hash`
        (one value per `vocab` entry): sum of token_hash[t_j] *
        P^(width-1-j), wrapping."""
        t = self.tuples()
        acc = np.zeros(len(t), dtype=np.uint64)
        for j in range(self.n):
            acc = np.where(t[:, j] >= 0,
                           acc * _WINDOW_P + token_hash[t[:, j]], acc)
        return acc


def _windows(flat, n: int, pad=(0, 0), whole_short: bool = False):
    """Cut every n-token window from the flat form `flat` (codes,
    uniques, lens, starts) of `tokenize_flat_arrow`.  Each row's stream
    is pad[0] x <s> + its tokens + pad[1] x </s>; a stream of L >= n
    tokens gives L - n + 1 windows, and a shorter non-empty one gives
    one whole-row window when `whole_short`, else none."""
    codes, uniques, lens, _ = flat
    u = len(uniques)
    vocab = np.concatenate([np.asarray(uniques, dtype=object),
                            np.array([START_TOKEN, END_TOKEN], dtype=object)])
    slen = lens + pad[0] + pad[1]
    offset = np.cumsum(slen) - slen
    at = np.arange(int(slen.sum())) - np.repeat(offset, slen)
    stream = np.where(at < pad[0], u, u + 1)
    stream[(at >= pad[0]) & (at < np.repeat(slen - pad[1], slen))] = codes
    count = np.maximum(slen - n + 1, 0)
    if whole_short:
        count[(slen > 0) & (slen < n)] = 1
    row = np.repeat(np.arange(len(slen)), count)
    start = (np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count,
                                                     count) + offset[row])
    return _Windows(n, vocab, stream, offset, row, start,
                    np.minimum(slen[row], n))


# ---------------------------------------------------------------------------
# postings / stats batch emitters (all return slim pair tables)


def flat_postings_pairs(flat, ids) -> pa.Table:
    """(term, doc_id) DISTINCT pairs per doc — the SPIMI pair emission —
    from one batch's `tokenize_flat_arrow` form; `ids`: the batch's doc
    ids.  Rows by (doc, term code)."""
    codes, uniques, lens, _ = flat
    row, code = row_distinct(np.repeat(np.arange(len(lens)), lens), codes)
    return pa.table({"term": pa.array(uniques, pa.string()).take(code),
                     "doc_id": np.asarray(ids)[row]})


def postings_pairs(batch: pd.DataFrame, id_col="doc_id", text_col="text") -> pd.DataFrame:
    """`flat_postings_pairs` of a batch, as pandas."""
    return flat_postings_pairs(tokenize_flat_arrow(batch[text_col]),
                               batch[id_col]).to_pandas()


def doc_lengths(batch: pd.DataFrame, id_col="doc_id", text_col="text") -> pd.DataFrame:
    """(doc_id, n_tokens): the `lens` of the batch's flat form."""
    return pd.DataFrame({"doc_id": batch[id_col],
                         "n_tokens": tokenize_flat_arrow(batch[text_col])[2]})


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


POSTINGS_SCHEMA = pa.schema([("term", pa.string()),
                             ("postings", pa.list_(pa.int64())),
                             ("df", pa.int64())])


def postings_agg(term, doc_id) -> pa.Table:
    """The one postings list-aggregate: (term, doc_id) pairs (Arrow
    arrays, duplicates allowed) -> `POSTINGS_SCHEMA` rows sorted by
    term, each list the term's distinct doc ids ascending and `df` its
    length.  One Arrow sort on (term, doc_id); runs are cut by numpy
    over the sorted columns and the lists are one ListArray over the
    sorted ids."""
    t = pa.table({"term": term, "doc_id": doc_id}).sort_by(
        [("term", "ascending"), ("doc_id", "ascending")])
    term = t["term"].combine_chunks().cast(pa.string())
    ids = t["doc_id"].to_numpy().astype(np.int64)
    new = np.ones(len(t), dtype=bool)
    if len(t) > 1:
        new[1:] = pc.not_equal(term[1:], term[:-1]).to_numpy(
            zero_copy_only=False)
    keep = new.copy()
    keep[1:] |= ids[1:] != ids[:-1]
    starts = np.flatnonzero(new[keep])
    offsets = np.append(starts, keep.sum()).astype(np.int32)
    return pa.table({
        "term": term.take(np.flatnonzero(new)),
        "postings": pa.ListArray.from_arrays(offsets, ids[keep]),
        "df": np.diff(offsets).astype(np.int64)}, schema=POSTINGS_SCHEMA)


def postings_lists(ds, id_col="doc_id", text_col="text",
                   stringify: bool = False):
    """term -> (sorted doc id list, df): the merged inverted index, A1+A2.

    ONE bucketed shuffle on term; each bucket runs `postings_agg` over
    its (term, doc_id) pairs.  There is no hot-term salt: a
    (term, doc_id % k) first stage bounds nothing, because the final
    row carries the term's full list anyway and a per-term merge must
    re-sort every doc id of the term in the same hash(term) bucket
    this single stage already holds.

    stringify=True returns postings as a comma-joined string (the
    DuckDB-oracle-hashable form)."""

    from .agg import bucketed_group_apply

    def lists_bucket(g: pa.Table) -> pa.Table:
        out = postings_agg(g["term"], g["doc_id"])
        if stringify:
            out = out.set_column(1, "postings", pc.binary_join(
                out["postings"].cast(pa.list_(pa.string())), ","))
        return out

    def emit(b: pa.Table) -> pa.Table:
        return flat_postings_pairs(tokenize_flat_arrow(b[text_col]), b[id_col])

    pairs = ds.map_batches(emit, batch_format="pyarrow")
    return bucketed_group_apply(pairs, ["term"], lists_bucket,
                                batch_format="pyarrow")


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

# the LM order: counts run over every order 1..NGRAM_ORDER
NGRAM_ORDER = 4


def _window_counts(flat, n: int, pad=(0, 0)):
    """(strings, counts) of the distinct n-token windows of a flat form:
    strings are built once per distinct code tuple."""
    w = _windows(flat, n, pad)
    ids, reps = w.distinct()
    return w.strings(reps), np.bincount(ids, minlength=len(reps))


def ngram_counts(ds, n: int, text_col="text"):
    """Distributed n-gram counting over the padded stream
    n x <s> + tokens + </s>: per-batch partial counts -> bucket shuffle
    sum over partials (n-gram keyspaces are unbounded at corpus
    scale).  Returns a Dataset (ngram, n)."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pa.Table:
        g, c = _window_counts(tokenize_flat_arrow(batch[text_col]), n, (n, 1))
        return pa.table({"ngram": g, "n": c})

    return two_phase_agg(ds, partial, ["ngram"], ["n"])


def ngram_partials(flat) -> pa.Table:
    """(n_order, ngram, cnt) counts of every order 1..NGRAM_ORDER over
    the padded streams of one flat form (`_window_counts`)."""
    parts = [_window_counts(flat, n, (n, 1))
             for n in range(1, NGRAM_ORDER + 1)]
    return pa.table({
        "n_order": np.repeat(np.arange(1, NGRAM_ORDER + 1),
                             [len(c) for _, c in parts]),
        "ngram": pa.concat_arrays([g for g, _ in parts]),
        "cnt": np.concatenate([c for _, c in parts])})


NGRAM_COUNTS_SCHEMA = pa.schema([("n_order", pa.int64()),
                                 ("ngram", pa.string()),
                                 ("cnt", pa.int64())])


def ngram_counts_multi(ds, text_col="text"):
    """All n-gram orders 1..NGRAM_ORDER in ONE scan (the reference runs 4
    parallel goroutines over the same data, ngram_lm.go:345-370; one
    pass emitting (n, ngram) partials is strictly cheaper).  Returns
    the collected counts as one Arrow table (n_order, ngram, cnt)."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pa.Table:
        return ngram_partials(tokenize_flat_arrow(batch[text_col]))

    out = two_phase_agg(ds, partial, ["n_order", "ngram"], ["cnt"]).to_pandas()
    if len(out) == 0:  # an empty corpus: typed empty counts
        return NGRAM_COUNTS_SCHEMA.empty_table()
    return pa.Table.from_pandas(out[["n_order", "ngram", "cnt"]],
                                preserve_index=False)


def vocab_with_min_freq(ds, min_freq: int = 2, id_col="doc_id", text_col="text"):
    """A6: terms with collection frequency >= min_freq (others -> <UNK>),
    as a Dataset (term, freq)."""
    from .agg import two_phase_agg

    def partial(batch: pd.DataFrame) -> pa.Table:
        g, c = _window_counts(tokenize_flat_arrow(batch[text_col]), 1)
        return pa.table({"term": g, "freq": c})

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
    independent and reproduced digit-by-digit by the SQL oracle.  A doc
    with fewer than k tokens has one shingle, its whole text; docs with
    at most `window` shingles fingerprint every shingle.  The shingles
    are a `_windows` cut."""

    def fp(batch: pa.Table) -> pa.Table:
        sh = _windows(tokenize_flat_arrow(batch[text_col]), k_shingle,
                      whole_short=True)
        h = (sh.md5() & np.uint64(0xFFFFFFFF)).astype(np.int64)
        few = (np.bincount(sh.row, minlength=len(batch)) <= window)[sh.row]
        # the winnowing windows: `window` consecutive shingles of one row
        # (rows are back to back, so its first and last share the row);
        # argmin over the REVERSED window picks the rightmost minimum
        st = np.arange(max(len(h) - window + 1, 0))
        st = st[(sh.row[st] == sh.row[st + window - 1]) & ~few[st]]
        rev = h[st[:, None] + np.arange(window - 1, -1, -1)]
        pick = np.concatenate([np.flatnonzero(few),
                               st + window - 1 - rev.argmin(1)])
        row, fps = row_distinct(sh.row[pick], h[pick])
        return pa.table({id_col: batch[id_col].take(row),
                         "fingerprint": pa.array(fps, pa.int64())})

    return ds.map_batches(fp, batch_format="pyarrow")


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
    texts = pc.fill_null(batch[text_col].cast(pa.string()), "")
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
    texts = pc.fill_null(batch[text_col].cast(pa.string()), "")
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
    `doc_token_counts`, bigrams are the `_windows` 2-token windows' code
    tuples — no string concatenation."""
    flat = tokenize_flat_arrow(batch[text_col])
    lens = flat[2]
    row, _, cnt = doc_token_counts(*flat[:3])
    n_distinct = np.bincount(row, minlength=len(lens))
    top_uni = np.zeros(len(lens), dtype=np.int64)
    np.maximum.at(top_uni, row, cnt)
    bg = _windows(flat, 2)
    ids, reps = bg.distinct()
    key, cnt = np.unique(bg.row * len(reps) + ids, return_counts=True)
    top_bg = np.zeros(len(lens), dtype=np.int64)
    np.maximum.at(top_bg, key // len(reps), cnt)
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
    codes, uniques, lens, _ = tokenize_flat_arrow(batch[text_col])
    row, code, tf = doc_token_counts(codes, uniques, lens)
    hv = md5_64(uniques)
    bucket = (hv % np.uint64(n_buckets)).astype(np.int64)[code]
    sign = np.where(((hv // np.uint64(n_buckets)) & np.uint64(1)) == 1,
                    1, -1).astype(np.int64)[code]
    acc = np.zeros((len(lens), n_buckets), dtype=np.int64)
    np.add.at(acc, (row, bucket), sign * tf)
    di, bi = np.nonzero(acc)
    return pd.DataFrame({id_col: batch[id_col].to_numpy(np.int64)[di],
                         "bucket": bi.astype(np.int64), "feat": acc[di, bi]})
