"""BLEU scoring: smoothed sentence-level BLEU-4 and corpus BLEU."""

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import read_aligned_lines


class BleuError(ValueError):
    pass


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_counts(hyp, ref):
    """(matched, total) modified n-gram counts of one hypothesis for
    n = 1..4."""
    counts = []
    for n in range(1, 5):
        rc = _ngrams(ref, n)
        matched = sum(min(c, rc[g]) for g, c in _ngrams(hyp, n).items())
        counts.append((matched, max(len(hyp) - n + 1, 0)))
    return counts


def brevity_penalty(hyp_len, ref_len):
    if hyp_len >= ref_len:
        return 1.0
    if hyp_len == 0:
        return 0.0
    return math.exp(1.0 - ref_len / hyp_len)


def _smoothed_bleu(counts, hyp_len, ref_len):
    """sentence_bleu from the hypothesis's _clipped_counts."""
    if counts[0][0] == 0:  # no unigram matches, as in an empty hypothesis
        return 0.0
    n_max = min(4, hyp_len)
    p = [counts[0][0] / counts[0][1]] + [(m + 1) / (t + 1) for m, t in counts[1:n_max]]
    return 100.0 * brevity_penalty(hyp_len, ref_len) * math.exp(
        sum(math.log(x) for x in p) / n_max)


def sentence_bleu(hyp, ref):
    """Smoothed sentence BLEU on the 0-100 scale.

    Effective order N = min(4, |hyp|); p1 unsmoothed; for n >= 2
    p_n = (matches + 1) / (total + 1).  Empty hypothesis scores 0.
    """
    return score_corpus([hyp], [ref]).mean_sentence


def corpus_bleu(hyps, refs):
    """Standard corpus BLEU: counts pooled over sentences, unsmoothed;
    any zero precision gives score 0."""
    return score_corpus(hyps, refs).corpus


@dataclass
class BleuReport:
    corpus: float
    mean_sentence: float
    precisions: list
    brevity: float
    hyp_tokens: int
    ref_tokens: int
    sentences: int
    beer: str = "n/a (external trained metric)"

    def lines(self):
        return [
            f"sentences\t{self.sentences}",
            f"corpus_bleu\t{self.corpus:.4f}",
            f"mean_sentence_bleu\t{self.mean_sentence:.4f}",
            f"precisions\t" + " ".join(f"{p:.6f}" for p in self.precisions),
            f"brevity_penalty\t{self.brevity:.6f}",
            f"hyp_tokens\t{self.hyp_tokens}",
            f"ref_tokens\t{self.ref_tokens}",
            f"beer\t{self.beer}",
        ]


def score_corpus(hyps, refs):
    """Corpus BLEU (corpus_bleu) and mean sentence BLEU (sentence_bleu) in one
    pass: each sentence's clipped n-grams, n = 1..4, are counted once, then
    pooled over the corpus and smoothed for the sentence's own score."""
    if len(hyps) != len(refs):
        raise BleuError(f"sentence count mismatch: {len(hyps)} vs {len(refs)}")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = ref_len = 0
    sent_sum = 0.0
    for hyp, ref in zip(hyps, refs):
        if not ref:
            raise BleuError("empty reference")
        counts = _clipped_counts(hyp, ref)
        for n, (m, t) in enumerate(counts):
            matched[n] += m
            total[n] += t
        hyp_len += len(hyp)
        ref_len += len(ref)
        sent_sum += _smoothed_bleu(counts, len(hyp), len(ref))
    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    bp = brevity_penalty(hyp_len, ref_len)
    if any(p == 0.0 for p in precisions):
        corpus = 0.0
    else:
        corpus = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4)
    mean_sent = sent_sum / len(hyps) if hyps else 0.0
    return BleuReport(corpus, mean_sent, precisions, bp, hyp_len, ref_len, len(hyps))


def evaluate_translations(hyp_path, ref_path):
    """Score aligned hypothesis/reference files; emits both corpus BLEU and
    mean sentence BLEU.  Files of different line counts raise CorpusError."""
    hyp_lines, ref_lines = read_aligned_lines(hyp_path, ref_path)
    hyps = [line.split() for line in hyp_lines]
    refs = [line.split() for line in ref_lines]
    for ln, ref in enumerate(refs, start=1):
        if not ref:
            raise BleuError(f"{ref_path}:{ln}: empty reference")
    return score_corpus(hyps, refs)
