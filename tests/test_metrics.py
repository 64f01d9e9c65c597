import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xhembed.corpus import CorpusError
from xhembed.metrics import (BleuError, corpus_bleu, evaluate_translations,
                             score_corpus, sentence_bleu)


# ---------------------------------------------------------------------------
# independent brute-force oracles (intentionally naive)

def oracle_ngram_stats(hyp, ref, n):
    matched = 0
    used = Counter()
    ref_grams = [tuple(ref[i:i + n]) for i in range(len(ref) - n + 1)]
    for i in range(len(hyp) - n + 1):
        g = tuple(hyp[i:i + n])
        if used[g] < ref_grams.count(g):
            used[g] += 1
            matched += 1
    return matched, max(len(hyp) - n + 1, 0)


def oracle_sentence_bleu(hyp, ref):
    if not hyp:
        return 0.0
    n_max = min(4, len(hyp))
    prod = 1.0
    for n in range(1, n_max + 1):
        m, t = oracle_ngram_stats(hyp, ref, n)
        if n == 1:
            if m == 0:
                return 0.0
            prod *= m / t
        else:
            prod *= (m + 1) / (t + 1)
    bp = 1.0 if len(hyp) >= len(ref) else math.exp(1 - len(ref) / len(hyp))
    return 100.0 * bp * prod ** (1.0 / n_max)


def oracle_corpus_bleu(hyps, refs):
    match = [0] * 4
    tot = [0] * 4
    hl = sum(len(h) for h in hyps)
    rl = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, 5):
            m, t = oracle_ngram_stats(h, r, n)
            match[n - 1] += m
            tot[n - 1] += t
    if any(t == 0 or m == 0 for m, t in zip(match, tot)):
        return 0.0
    bp = 1.0 if hl >= rl else math.exp(1 - rl / hl)
    return 100.0 * bp * math.prod(
        m / t for m, t in zip(match, tot)) ** 0.25


def random_pairs(n, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        hyp = [str(rng.integers(10)) for _ in range(rng.integers(5, 16))]
        ref = [str(rng.integers(10)) for _ in range(rng.integers(5, 16))]
        pairs.append((hyp, ref))
    return pairs


class TestSentenceBleu:
    def test_identity_is_100(self):
        assert sentence_bleu(list("abcd"), list("abcd")) == pytest.approx(100.0)

    def test_hand_case_6580(self):
        # p = (3/4, 3/4, 2/3, 1/2), BP=1 -> 100 * 0.1875**0.25
        score = sentence_bleu(list("abcd"), list("abce"))
        assert score == pytest.approx(100 * 0.1875 ** 0.25, abs=1e-9)
        assert round(score, 2) == 65.80

    def test_hand_case_3679(self):
        score = sentence_bleu(["a"], ["a", "b"])
        assert score == pytest.approx(100 * math.exp(-1), abs=1e-9)
        assert round(score, 2) == 36.79

    def test_empty_hypothesis(self):
        assert sentence_bleu([], ["a"]) == 0.0

    def test_empty_reference_error(self):
        with pytest.raises(BleuError):
            sentence_bleu(["a"], [])

    def test_bp_below_one_when_short(self):
        for hyp, ref in random_pairs(50, 1):
            if len(hyp) < len(ref):
                full = sentence_bleu(hyp, ref)
                # removing BP must increase the score when hyp is short
                bp = math.exp(1 - len(ref) / len(hyp))
                assert bp < 1.0
                if full > 0:
                    assert full / bp > full

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=12))
    def test_self_score_100(self, toks):
        assert sentence_bleu(toks, toks) == pytest.approx(100.0)

    def test_matches_oracle(self):
        for hyp, ref in random_pairs(100, 2):
            assert sentence_bleu(hyp, ref) == pytest.approx(
                oracle_sentence_bleu(hyp, ref), abs=1e-9)


class TestCorpusBleu:
    def test_identity(self):
        sents = [list("abcd"), list("xyzt")]
        assert corpus_bleu(sents, sents) == pytest.approx(100.0)

    def test_count_mismatch(self):
        with pytest.raises(BleuError):
            corpus_bleu([["a"]], [])

    def test_matches_oracle_randomized(self):
        pairs = random_pairs(100, 3)
        hyps = [p[0] for p in pairs]
        refs = [p[1] for p in pairs]
        assert corpus_bleu(hyps, refs) == pytest.approx(
            oracle_corpus_bleu(hyps, refs), abs=1e-9)

    def test_permutation_invariant(self):
        pairs = random_pairs(20, 4)
        hyps = [p[0] for p in pairs]
        refs = [p[1] for p in pairs]
        assert corpus_bleu(hyps, refs) == pytest.approx(
            corpus_bleu(hyps[::-1], refs[::-1]), abs=1e-12)

    def test_single_pair_reduction(self):
        # all p_n > 0 and |hyp| >= 4: equals the unsmoothed sentence formula
        hyp = list("abcdx")
        ref = list("abcdy")
        got = corpus_bleu([hyp], [ref])
        prod = 1.0
        for n in range(1, 5):
            m, t = oracle_ngram_stats(hyp, ref, n)
            prod *= m / t
        assert got == pytest.approx(100 * prod ** 0.25, abs=1e-9)


class TestEvaluate:
    def test_identical_files(self, tmp_path):
        p = tmp_path / "h"
        p.write_text("a b c d\nx y z t\n")
        rep = evaluate_translations(p, p)
        assert rep.corpus == pytest.approx(100.0)
        assert rep.mean_sentence == pytest.approx(100.0)

    def test_line_count_mismatch(self, tmp_path):
        h = tmp_path / "h"
        r = tmp_path / "r"
        h.write_text("a\n")
        r.write_text("a\nb\n")
        with pytest.raises(CorpusError, match=re.escape(f"{h} has 1 lines, {r} has 2")):
            evaluate_translations(h, r)

    def test_report_internally_consistent(self):
        pairs = random_pairs(10, 5)
        rep = score_corpus([p[0] for p in pairs], [p[1] for p in pairs])
        bp = rep.brevity
        recomputed = 100.0 * bp * math.prod(rep.precisions) ** 0.25 \
            if all(p > 0 for p in rep.precisions) else 0.0
        assert rep.corpus == pytest.approx(recomputed, abs=1e-9)

    def test_three_sentence_fixture(self):
        hyps = [list("abcd"), ["a"], list("abce")]
        refs = [list("abce"), ["a", "b"], list("abce")]
        rep = score_corpus(hyps, refs)
        expected_mean = sum(oracle_sentence_bleu(h, r)
                            for h, r in zip(hyps, refs)) / 3
        assert rep.mean_sentence == pytest.approx(expected_mean, abs=1e-9)
        assert rep.corpus == pytest.approx(oracle_corpus_bleu(hyps, refs), abs=1e-9)
