"""Spell correction / n-gram LM / autocomplete vs hand-computed values.

Golden LM cases mirror the reference's test style
(pkg/searcher/ngram_lm_test.go): tiny corpus, hand-counted n-grams,
stupid-backoff probabilities with lambda=0.4."""

import math
import re

import numpy as np
import pandas as pd
import pytest

from go_osm_search_ray import synth
from go_osm_search_ray.stages import spell, text

TOKEN_RE = re.compile(r"[a-z0-9]+")  # the tokenizer's rule on ASCII text


class TestLevenshtein:
    def test_basic(self):
        assert spell.levenshtein("kitten", "sitting", 3) == 3
        assert spell.levenshtein("abc", "abc") == 0
        assert spell.levenshtein("abc", "ab") == 1
        assert spell.levenshtein("abc", "xyzabc", 2) == 3  # capped at max_d+1

    def test_band_exit(self):
        assert spell.levenshtein("a", "aaaaaa", 2) == 3  # > max_d -> max_d+1


class TestClassifyEdit:
    # cases from reference spell_corrector.go:109-193 comments
    def test_cases(self):
        assert spell.classify_edit("abdc", "abcd")[0] == "transposition"
        assert spell.classify_edit("abcf", "abcd")[0] == "substitution"
        assert spell.classify_edit("abfcd", "abcd") == ("insertion", "f", "b")
        assert spell.classify_edit("fabc", "abc") == ("insertion", "f", "-")
        assert spell.classify_edit("abce", "abcde") == ("deletion", "e", "c")
        assert spell.classify_edit("bc", "abc") == ("deletion", "b", "-")
        assert spell.classify_edit("stanfords", "stanford") == ("insertion", "s", "d")
        assert spell.classify_edit("stanfor", "stanford") == ("deletion", "r", "r")
        assert spell.classify_edit("abc", "abc")[0] is None


class TestNoisyChannel:
    def test_counts_and_logprob(self):
        nc = spell.NoisyChannel(["ab: ba, axb", "cd: c"])
        # unigrams: a,b from 'ab'; c,d from 'cd'; START per line (x2)
        assert nc.unigram["-"] == 2
        assert nc.unigram["a"] == 1 and nc.unigram["c"] == 1
        assert nc.bigram[("a", "b")] == 1
        # exact match -> log(0.9)
        assert nc.edit_log_prob("ab", "ab") == math.log(0.9)
        # unseen substitution gets add-1 smoothing
        p = nc.edit_log_prob("az", "ab")  # substitution z->b... classify
        assert p < 0


class TestNGramLM:
    def corpus(self):
        # two docs, hand-countable
        return pd.DataFrame(
            {"doc_id": [0, 1], "text": ["jalan kebun raya", "jalan kebun indah"]}
        )

    @pytest.mark.usefixtures("ray_session")
    def test_counts_and_backoff(self):
        import ray.data as rd

        docs = rd.from_pandas(self.corpus())
        vocab = {"jalan", "kebun", "raya", "indah"}
        lm = spell.NGramLM.build(docs, vocab)
        # unigram counts: each doc pads 1 <s> and 1 </s>
        assert lm.counts[1]["jalan"] == 2
        assert lm.counts[1][spell.START_TOKEN] == 2
        # P(kebun | jalan) bigram = count("jalan kebun")/count("jalan") = 2/2
        assert lm.estimate("kebun", ("jalan",), 2) == 1.0
        # P(raya | kebun) = 1/2
        assert lm.estimate("raya", ("kebun",), 2) == 0.5
        # backoff: unseen 4-gram prefix falls through to lower orders
        p = lm.stupid_backoff("kebun", ("zzz", "zzz", "jalan"), 4)
        assert p > 0

    @pytest.mark.usefixtures("ray_session")
    def test_query_log_prob_orders_queries(self):
        import ray.data as rd

        docs = rd.from_pandas(self.corpus())
        vocab = {"jalan", "kebun", "raya", "indah"}
        lm = spell.NGramLM.build(docs, vocab)
        good = lm.query_log_prob(["jalan", "kebun", "raya"])
        bad = lm.query_log_prob(["raya", "jalan", "kebun"])
        assert good > bad


def replace_then_count(texts, vocab, n_max=4):
    """Ray-free reference for the LM counts: rewrite OOV words as
    <unk> in the text, re-tokenize, count padded 1..n_max-grams."""
    counts = {n: {} for n in range(1, n_max + 1)}
    for t in texts:
        ws = TOKEN_RE.findall(t.lower())
        ws = TOKEN_RE.findall(
            " ".join(w if w in vocab else spell.UNK_TOKEN for w in ws))
        for n in range(1, n_max + 1):
            seq = [spell.START_TOKEN] * n + ws + [spell.END_TOKEN]
            for i in range(len(seq) - n + 1):
                g = " ".join(seq[i:i + n])
                counts[n][g] = counts[n].get(g, 0) + 1
    return counts


@pytest.mark.usefixtures("ray_session")
class TestOOVMap:
    """OOV hapaxes, a real in-vocab word 'unk' (the word every OOV
    word maps to) and an empty document."""

    TEXTS = ["jalan kebun unk raya", "Jalan zzq kebun", "",
             "unk jalan qqx kebun raya", "raya raya solo", "kebun"]

    def ds(self):
        import ray.data as rd

        return rd.from_pandas(pd.DataFrame(
            {"doc_id": range(len(self.TEXTS)), "text": self.TEXTS})) \
            .repartition(3)

    def test_build_equals_replace_then_count(self):
        vocab = {"jalan", "kebun", "unk", "raya"}
        lm = spell.NGramLM.build(self.ds(), vocab)
        want = replace_then_count(self.TEXTS, vocab)
        assert lm.counts == want
        # 3 OOV hapaxes + 2 real 'unk' tokens
        assert lm.counts[1]["unk"] == 5
        assert lm.counts[2][f"{spell.START_TOKEN} {spell.END_TOKEN}"] == 1
        assert lm.total == sum(want[1].values())

    def test_vocab_and_lm_equals_two_scans(self):
        vocab, lm = spell.vocab_and_lm(self.ds(), 2)
        two_scan = text.vocab_with_min_freq(self.ds(), 2).to_pandas()
        assert sorted(zip(vocab["term"], vocab["freq"])) == \
            sorted(zip(two_scan["term"], two_scan["freq"]))
        assert list(vocab["term"]) == ["jalan", "kebun", "raya", "unk"]
        assert lm.counts == replace_then_count(self.TEXTS,
                                               set(vocab["term"]))


@pytest.mark.usefixtures("ray_session")
class TestCorrector:
    def build(self):
        import ray.data as rd

        rng = np.random.default_rng(0)
        words = ["jalan", "kebun", "binatang", "ragunan", "taman", "indah"]
        docs = pd.DataFrame(
            {
                "doc_id": range(40),
                "text": [
                    " ".join(rng.choice(words, 3))
                    for _ in range(40)
                ],
            }
        )
        ds = rd.from_pandas(docs)
        return spell.build_spell_corrector(
            ds, synth.spell_errors_lines(words), min_freq=1
        )

    def test_corrects_typos(self):
        sc = self.build()
        # mirrors the reference E2E style: misspelled query -> corrected
        # ("Kebun Bibatqng Raginan" -> "Kebun Binatang Ragunan",
        #  searcher_test.go:87-93)
        got = sc.correct(["kebun", "bibatang", "ragonan"])
        assert got == ["kebun", "binatang", "ragunan"]

    def test_in_vocab_words_kept(self):
        sc = self.build()
        assert sc.correct(["jalan", "kebun"]) == ["jalan", "kebun"]

    def test_autocomplete_prefix(self):
        sc = self.build()
        outs = sc.autocomplete(["jalan", "bin"])
        assert len(outs) <= 3 and len(outs) >= 1
        assert any(q[-1] == "binatang" for q in outs)

    def test_correct_queries_pipeline(self):
        import ray.data as rd

        sc = self.build()
        qs = pd.DataFrame(
            {
                "query_id": [0, 1],
                "query": ["kebun bibatang", "jalan tamon indah"],
            }
        )
        out = (
            spell.correct_queries(rd.from_pandas(qs), sc)
            .to_pandas()
            .sort_values("query_id")
        )
        assert out["corrected"].tolist() == [
            "kebun binatang",
            "jalan taman indah",
        ]


@pytest.mark.usefixtures("ray_session")
class TestReferenceLMGoldens:
    """Hand-computed vectors ported from the reference's own LM tests
    (pkg/searcher/ngram_lm_test.go; termID i -> token 'w{i}',
    termID 0/1 -> <s>/</s>)."""

    DOCS = ["w3 w4 w5", "w6 w5 w5 w5 w5", "w11 w12 w6 w6 w6"]

    def lm(self):
        import ray.data as rd

        docs = pd.DataFrame({"doc_id": range(3), "text": self.DOCS})
        vocab = {w for t in self.DOCS for w in t.split()}
        return spell.NGramLM.build(rd.from_pandas(docs), vocab)

    def test_unigram_counts(self):
        # ngram_lm_test.go:45-76 (0 -> <s>, 1 -> </s>)
        lm = self.lm()
        want = {spell.START_TOKEN: 3, spell.END_TOKEN: 3, "w3": 1, "w4": 1,
                "w5": 5, "w6": 4, "w11": 1, "w12": 1}
        assert lm.counts[1] == want
        assert lm.total == 19

    def test_bigram_counts(self):
        # ngram_lm_test.go:78-120
        lm = self.lm()
        s, e = spell.START_TOKEN, spell.END_TOKEN
        want = {f"{s} {s}": 3, f"{s} w3": 1, f"{s} w6": 1, f"{s} w11": 1,
                "w3 w4": 1, "w4 w5": 1, "w6 w5": 1, "w5 w5": 3,
                "w11 w12": 1, "w12 w6": 1, "w6 w6": 2,
                f"w5 {e}": 2, f"w6 {e}": 1}
        assert lm.counts[2] == want

    def test_estimate_prob(self):
        # ngram_lm_test.go:203-240
        lm = self.lm()
        assert lm.estimate("w6", (), 1) == 4.0 / 19.0
        assert lm.estimate("w999", (), 1) == 0.0
        assert lm.estimate("w99", ("w12", "w6", "w6"), 4) == 0.0

    def test_stupid_backoff(self):
        # ngram_lm_test.go:365-390: unseen trigram prefix backs off to
        # the (w11, w12) bigram with lambda^2
        lm = self.lm()
        p = lm.stupid_backoff("w12", ("w9", "w10", "w11"), 4)
        assert p == 1.0 * 0.4 * 0.4 / 1.0

    def test_query_probability(self):
        # ngram_lm_test.go:392-430 — exact expected log-prob formula
        import math

        lm = self.lm()
        got = lm.query_log_prob(["w5", "w5", "w12", "w11"])
        want = (
            0.0
            + math.log(0.4 * 0.4 * 0.4 * 5.0 / 19.0)
            + math.log(0.4 * 0.4 * 3.0 / 5.0)
            + math.log(0.4 * 0.4 * 0.4 * 1.0 / 19.0)
            + math.log(0.4 * 0.4 * 0.4 * 1.0 / 19.0)
            + math.log(0.4 * 0.4 * 0.4 * 3.0 / 19.0)
        )
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.usefixtures("ray_session")
class TestReferenceSpimiGolden:
    """Postings parity in the style of the reference's SPIMI tests
    (pkg/index/indexer_test.go:408-527): tiny named-place corpus,
    expected per-term posting lists."""

    DOCS = [
        (0, "jalan sentosa harapan"),
        (1, "jalan harapan indah"),
        (2, "taman anggrek jalan"),
        (3, "kebun binatang ragunan"),
        (4, "jalan kebun raya"),
    ]

    def test_postings(self):
        import ray.data as rd

        from go_osm_search_ray.stages import text

        docs = pd.DataFrame(self.DOCS, columns=["doc_id", "text"])
        out = text.postings_lists(rd.from_pandas(docs)).to_pandas()
        got = {r.term: list(r.postings) for r in out.itertuples()}
        assert got["jalan"] == [0, 1, 2, 4]
        assert got["harapan"] == [0, 1]
        assert got["kebun"] == [3, 4]
        assert got["sentosa"] == [0]
        df = text.term_df(rd.from_pandas(docs)).to_pandas().set_index("term")["df"]
        assert df["jalan"] == 4 and df["kebun"] == 2


class TestDeleteIndex:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        alphabet = "abcdefgh"
        vocab = list({
            "".join(rng.choice(list(alphabet), rng.integers(3, 9)))
            for _ in range(3000)
        })
        lm = spell.NGramLM({1: {}, 2: {}, 3: {}, 4: {}}, 0)
        sc = spell.SpellCorrector(vocab, lm, spell.NoisyChannel([]))
        for q in ["abcde", "hgfed", "aabb", "abcdefgh", "zzzz"]:
            want = sorted(v for v in set(vocab)
                          if spell.levenshtein(q, v) <= 2)
            assert sc.word_candidates(q) == want

    def test_speedup_shape(self):
        # delete lookup touches O(len^2) buckets, not O(vocab)
        d = spell._deletes("abcd", 2)
        assert "abcd" in d and "ab" in d and "bcd" in d
        assert all(len(x) >= 2 for x in d)
