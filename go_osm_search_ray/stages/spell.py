"""Spell correction, n-gram LM, autocomplete (reference Q1-Q4, ST4-ST6).

Distributed/stateful split:

- MODEL BUILD is distributed: `vocab_and_lm` counts every n-gram order
  in one scan (`text.ngram_counts_multi`, A5: the windows are cut from
  the flat token codes by `text._windows` and each batch joins one
  string per distinct code tuple; two-phase aggregation);
  the vocabulary (A6) is its unigram row (`vocab_from_counts`), and the
  OOV map is applied to the collected counts (`oov_counts`;
  `build_index` applies both to its own pass's counts); the
  noisy-channel model comes from the tiny spell-errors corpus (A7,
  driver-side — it is a few KB).
- QUERY EVAL is stateless tasks over per-process state:
  `SpellBatchCorrector` fetches the models once per worker process (the
  FST/LM/noisy-model trio the reference loads at server boot,
  searcher.go:37-73) and corrects query batches vectorized-ish
  (queries are short; candidate spaces are bounded).

Reference semantics mirrored exactly:
- n-gram estimate P(next|prev,n) = count(ngram)/count(prev ngram), 0 on
  unseen prefix (ngram_lm.go:215-295)
- stupid backoff, lambda 0.4 (ngram_lm.go:350-368); query log-prob sums
  log P over 4-grams of the (4 starts + 1 end)-padded sequence
  (ngram_lm.go:305-321)
- vocab threshold 2 with <UNK> replacement (ngram_lm.go:56-110,
  COUNT_THRESOLD_NGRAM constant.go:4); the OOV word is spelled `unk`
  (see `NGramLM.from_counts`)
- noisy channel: char unigram/bigram + per-edit-type confusion counts
  from "correct: err1, err2" lines (spell_corrector.go:57-107); edit
  classification incl. transposition-vs-substitution counter test
  (spell_corrector.go:109-193); add-1 smoothed log prob with
  ALPHA_NO_EDIT_PROB=0.9 for exact matches (spell_corrector.go:195-213)
- candidate terms within edit distance 2 of each query term
  (EDIT_DISTANCE constant.go:5; Levenshtein-DFA x FST in the reference,
  a SymSpell delete index here: lookup cost depends on the query term,
  not on the vocabulary size)
- correction = argmax over the cartesian candidate queries of
  LM log-prob + edit log-prob (spell_corrector.go:323-356)
- autocomplete: last term by prefix match, top kAutoComplete=3
  candidate queries (spell_corrector.go:361-451)
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

START_TOKEN = "<s>"
END_TOKEN = "</s>"
UNK_TOKEN = "<unk>"
START_CHAR = "-"
ALPHA_NO_EDIT_PROB = 0.9
EDIT_DISTANCE = 2
K_AUTOCOMPLETE = 3
LAMBDA = 0.4


def levenshtein(a: str, b: str, max_d: int = EDIT_DISTANCE) -> int:
    """Plain Levenshtein with early exit above max_d."""
    if abs(len(a) - len(b)) > max_d:
        return max_d + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        best = i
        for j, cb in enumerate(b, 1):
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            cur.append(v)
            best = min(best, v)
        if best > max_d:
            return max_d + 1
        prev = cur
    return prev[-1]


# ---------------------------------------------------------------------------
# noisy channel model (A7 / ST6)


def classify_edit(edited: str, original: str):
    """Reference getEdit (spell_corrector.go:109-193), byte-for-byte."""
    if edited == original:
        return None, edited[0], original[0]
    if len(edited) == len(original):
        same_counter = True
        from collections import Counter

        ec, oc = Counter(edited), Counter(original)
        for k, v in ec.items():
            if oc[k] != v:
                same_counter = False
                break
        for c1, c2 in zip(edited, original):
            if c1 != c2:
                return ("transposition" if same_counter else "substitution"), c1, c2
    for i in range(min(len(edited), len(original))):
        e, o = edited[i], original[i]
        if e != o:
            if len(edited) > len(original):
                return "insertion", e, (original[i - 1] if i > 0 else START_CHAR)
            return "deletion", e, (original[i - 1] if i > 0 else START_CHAR)
    if len(edited) > len(original):
        return "insertion", edited[-1], original[-1]
    if len(original) > 1:
        return "deletion", edited[-1], original[-2]
    return "deletion", edited[-1], START_CHAR


class NoisyChannel:
    """Char unigram/bigram + edit confusion counts (ST6)."""

    def __init__(self, spell_error_lines: list[str]):
        self.unigram: dict[str, int] = {}
        self.bigram: dict[tuple[str, str], int] = {}
        self.edits: dict[str, dict[tuple[str, str], int]] = {}
        for line in spell_error_lines:
            if ":" not in line:
                continue
            correct, _, errs = line.partition(":")
            correct = correct.strip()
            for c in correct:
                self.unigram[c] = self.unigram.get(c, 0) + 1
            self.unigram[START_CHAR] = self.unigram.get(START_CHAR, 0) + 1
            for i in range(len(correct) - 1):
                k = (correct[i], correct[i + 1])
                self.bigram[k] = self.bigram.get(k, 0) + 1
            for err in errs.strip().split(","):
                err = err.strip()
                if not err:
                    continue
                edit, c1, c2 = classify_edit(err, correct)
                if edit is None:
                    continue
                d = self.edits.setdefault(edit, {})
                d[(c1, c2)] = d.get((c1, c2), 0) + 1
        self.alphabet = len(self.unigram)

    def edit_log_prob(self, edited: str, original: str) -> float:
        edit, c1, c2 = classify_edit(edited, original)
        if edit is None:
            return math.log(ALPHA_NO_EDIT_PROB)
        num = self.edits.get(edit, {}).get((c1, c2), 0)
        if edit in ("insertion", "substitution"):
            den = self.unigram.get(c1, 0) + self.alphabet
        else:
            den = self.bigram.get((c1, c2), 0) + self.alphabet * self.alphabet
        return math.log(num + 1) - math.log(den)


# ---------------------------------------------------------------------------
# n-gram LM (ST5)


class NGramLM:
    """Stupid-backoff 4-gram LM over token strings.  Counts come from
    the distributed `text.ngram_counts_multi` scan (dicts keyed by
    space-joined n-grams)."""

    def __init__(self, counts: dict[int, dict[str, int]], total_words: int):
        self.counts = counts  # n -> {"w1 w2 ...": count}
        self.total = total_words

    @staticmethod
    def build(docs_ds, vocab: set[str], text_col: str = "text"):
        """Distributed count build with OOV replacement (A5+A6): raw
        1..4-gram counts from one scan of the unmodified docs, then
        `from_counts`."""
        from . import text as text_stage

        return NGramLM.from_counts(
            text_stage.ngram_counts_multi(docs_ds, text_col=text_col), vocab)

    @staticmethod
    def from_counts(raw, vocab: set[str]):
        """LM from collected raw (n_order, ngram, cnt) counts, OOV-mapped
        by `oov_counts`."""
        import pyarrow.compute as pc

        raw = oov_counts(raw, vocab)
        counts = {}
        for n in range(1, 5):
            t = raw.filter(pc.equal(raw["n_order"], n))
            counts[n] = dict(zip(t["ngram"].to_numpy(zero_copy_only=False),
                                 t["cnt"].to_numpy().tolist()))
        return NGramLM(counts, sum(counts[1].values()))

    def estimate(self, next_word: str, prev: tuple[str, ...], n: int) -> float:
        """P(next|prev) for exactly order n (ngram_lm.go:215-295)."""
        if n == 1:
            return self.counts[1].get(next_word, 0) / self.total if self.total else 0.0
        prev_key = " ".join(prev[-(n - 1):])
        den = self.counts[n - 1].get(prev_key, 0)
        if den == 0:
            return 0.0
        num = self.counts[n].get(prev_key + " " + next_word, 0)
        return num / den

    def stupid_backoff(self, next_word: str, prev: tuple[str, ...], n: int = 4) -> float:
        lam = 1.0
        prev = tuple(prev)
        while n > 0:
            p = lam * self.estimate(next_word, prev, n)
            if p != 0:
                return p
            if len(prev) == 1:
                prev = ()
                lam *= LAMBDA
                n -= 1
                continue
            prev = prev[1:]
            lam *= LAMBDA
            n -= 1
        return 0.0

    def query_log_prob(self, tokens: list[str]) -> float:
        """(4 starts + 1 end)-padded sum of log backoff-4-gram probs
        (ngram_lm.go:305-321 + GetQueryNgramProbability n=4)."""
        seq = [START_TOKEN] * 4 + list(tokens) + [END_TOKEN]
        lp = 0.0
        for i in range(4, len(seq)):
            p = self.stupid_backoff(seq[i], tuple(seq[i - 3 : i]), 4)
            lp += math.log(p) if p > 0 else float("-inf")
        return lp


# ---------------------------------------------------------------------------
# the corrector (ST4 + Q1-Q3 query side)


def _deletes(word: str, max_d: int) -> set[str]:
    """All strings reachable by deleting up to max_d chars (SymSpell)."""
    out = {word}
    frontier = {word}
    for _ in range(max_d):
        nxt = set()
        for w in frontier:
            for i in range(len(w)):
                nxt.add(w[:i] + w[i + 1 :])
        out |= nxt
        frontier = nxt
    return out


class SpellCorrector:
    def __init__(self, vocab: list[str], lm: NGramLM, noisy: NoisyChannel):
        self.vocab = sorted(set(vocab))
        self.vocab_set = set(self.vocab)
        self.lm = lm
        self.noisy = noisy
        # SymSpell delete index (stands in for the reference's
        # Levenshtein-DFA x FST, spell_corrector.go:273-302): every
        # string within EDIT_DISTANCE deletes of a vocab term -> those
        # terms.  Two strings within edit distance 2 share a string at
        # most 2 deletes from each, so a lookup over the query's own
        # deletes finds every candidate in O(deletes(query)).
        self.delete_index: dict[str, list[str]] = {}
        for w in self.vocab:
            for d in _deletes(w, EDIT_DISTANCE):
                self.delete_index.setdefault(d, []).append(w)

    def word_candidates(self, word: str) -> list[str]:
        """All vocab terms within edit distance EDIT_DISTANCE (FST x
        Lev-DFA in the reference).  Sorted (FST iteration order)."""
        cands: set[str] = set()
        for d in _deletes(word, EDIT_DISTANCE):
            cands.update(self.delete_index.get(d, ()))
        return sorted(w for w in cands if levenshtein(word, w) <= EDIT_DISTANCE)

    def prefix_candidates(self, prefix: str) -> list[str]:
        """Prefix range on the sorted vocab via two bisects —
        O(log |vocab|), the FST-prefix-walk equivalent
        (spell_corrector.go:361-392) — not a linear vocab scan."""
        import bisect

        lo = bisect.bisect_left(self.vocab, prefix)
        hi = bisect.bisect_left(self.vocab, prefix + "\uffff")
        return self.vocab[lo:hi]

    def candidate_queries(self, tokens: list[str], last_is_prefix: bool = False):
        """Cartesian product of per-term candidates
        (spell_corrector.go:305-321).  Yields lists of (typo, corrected)."""
        per_term: list[list[tuple[str, str]]] = []
        for i, t in enumerate(tokens):
            if last_is_prefix and i == len(tokens) - 1:
                cands = self.prefix_candidates(t)
                if not cands:
                    cands = self.word_candidates(t)
                per_term.append([(t, c) for c in cands] or [(t, t)])
            elif t in self.vocab_set:
                per_term.append([(t, t)])
            else:
                cands = self.word_candidates(t)
                per_term.append([(t, c) for c in cands] or [(t, t)])
        queries = [[]]
        for options in per_term:
            queries = [q + [o] for q in queries for o in options]
            if len(queries) > 20000:  # bounded cartesian guard
                queries = queries[:20000]
        return queries

    def _score(self, cand: list[tuple[str, str]]) -> float:
        lp = self.lm.query_log_prob([c for _, c in cand])
        lp += sum(self.noisy.edit_log_prob(t, c) for t, c in cand)
        return lp

    def correct(self, tokens: list[str]) -> list[str]:
        """Argmax candidate query (spell_corrector.go:323-356)."""
        cands = self.candidate_queries(tokens)
        best, best_lp = None, float("-inf")
        for cand in cands:
            lp = self._score(cand)
            if lp > best_lp:
                best, best_lp = cand, lp
        return [c for _, c in (best or [(t, t) for t in tokens])]

    def autocomplete(self, tokens: list[str]) -> list[list[str]]:
        """Top kAutoComplete=3 candidate queries, last term by prefix
        (spell_corrector.go:410-451)."""
        cands = self.candidate_queries(tokens, last_is_prefix=True)
        scored = sorted(
            ((self._score(c), i) for i, c in enumerate(cands)),
            key=lambda p: -p[0],
        )
        return [[w for _, w in cands[i]] for _, i in scored[:K_AUTOCOMPLETE]]


def oov_counts(raw, vocab: set[str]):
    """Raw (n_order, ngram, cnt) counts -> the LM's counts.  OOV
    contract: every n-gram word not in `vocab` (pads excepted) becomes
    the word `unk` and the counts are re-summed — equal to writing
    `<unk>` into the text and recounting, as `<unk>` re-tokenizes to
    `unk` (merged with a real in-vocab `unk`, consistently).
    Vectorized over the collected counts; an Arrow table out."""
    import pyarrow as pa
    import pyarrow.compute as pc

    words = pc.split_pattern(raw["ngram"].combine_chunks(), " ")
    flat = words.flatten()
    known = pc.is_in(flat, value_set=pa.array(
        [START_TOKEN, END_TOKEN, *vocab], pa.string()))
    if not pc.any(pc.invert(known)).as_py():
        return raw
    flat = pc.if_else(known, flat, "unk")
    raw = pa.table({
        "n_order": raw["n_order"], "cnt": raw["cnt"],
        "ngram": pc.binary_join(
            pa.ListArray.from_arrays(words.offsets, flat), " "),
    }).group_by(["n_order", "ngram"]).aggregate([("cnt", "sum")])
    return raw.rename_columns(
        [c.removesuffix("_sum") for c in raw.column_names])


def vocab_from_counts(raw, min_freq: int = 2) -> pd.DataFrame:
    """Vocab (A6) from raw (n_order, ngram, cnt) counts: the unigram
    rows (pads excepted) with count >= min_freq, as (term, freq)
    sorted by term."""
    import pyarrow.compute as pc

    return raw.filter((pc.field("n_order") == 1) & (pc.field("cnt") >= min_freq)
                      & ~pc.field("ngram").isin([START_TOKEN, END_TOKEN])) \
        .select(["ngram", "cnt"]).rename_columns(["term", "freq"]) \
        .sort_by("term").to_pandas()


def vocab_and_lm(docs_ds, min_freq: int = 2, text_col: str = "text"):
    """Vocab (A6) and the OOV-mapped 4-gram LM (A5) from ONE scan and
    one shuffle (`text.ngram_counts_multi`): `vocab_from_counts` and
    `NGramLM.from_counts` over the same counts.  Returns (vocab
    DataFrame (term, freq) sorted by term, NGramLM)."""
    from . import text as text_stage

    raw = text_stage.ngram_counts_multi(docs_ds, text_col=text_col)
    vocab = vocab_from_counts(raw, min_freq)
    return vocab, NGramLM.from_counts(raw, set(vocab["term"]))


def build_spell_corrector(docs_ds, spell_error_lines: list[str],
                          text_col: str = "text", min_freq: int = 2):
    """End-to-end model build from a documents Dataset (one distributed
    count scan) + the spell-errors corpus (driver-side, tiny)."""
    vocab, lm = vocab_and_lm(docs_ds, min_freq, text_col=text_col)
    return SpellCorrector(list(vocab["term"]), lm,
                          NoisyChannel(spell_error_lines))


class SpellBatchCorrector:
    """Per-process state: corrects a batch of query strings.

    The corrector (vocab + LM + noisy model) is fetched once per worker
    process from its broadcast ref (``correct_queries`` through
    ``knn.cached_state``) — the Ray equivalent of the reference's
    server-boot model load (searcher.go:37-73)."""

    def __init__(self, corrector_ref):
        import ray

        self.corrector = ray.get(corrector_ref)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from . import text as text_stage

        toks = text_stage.tokenize_series(batch["query"])
        corrected = toks.map(lambda ws: " ".join(self.corrector.correct(list(ws))))
        return pd.DataFrame(
            {
                "query_id": batch["query_id"],
                "query": batch["query"],
                "corrected": corrected,
            }
        )


def correct_queries(queries_ds, corrector: SpellCorrector):
    """queries (query_id, query) -> + corrected; stateless tasks over
    one ``SpellBatchCorrector`` per worker process."""
    import ray

    from .knn import map_with_state

    ref = ray.put(corrector)
    return map_with_state(queries_ds, f"spell/{ref.hex()}",
                          lambda: SpellBatchCorrector(ref), None,
                          batch_format="pandas")
