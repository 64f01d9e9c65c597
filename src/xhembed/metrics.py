"""BLEU scoring: smoothed sentence-level BLEU-4 and corpus BLEU."""

import math
from collections import Counter
from dataclasses import dataclass

from .corpus import read_lines


class BleuError(ValueError):
    pass


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_counts(hyp, ref, n):
    """(matched, total) modified n-gram counts for one hypothesis."""
    hc = _ngrams(hyp, n)
    rc = _ngrams(ref, n)
    matched = sum(min(c, rc[g]) for g, c in hc.items())
    total = max(len(hyp) - n + 1, 0)
    return matched, total


def brevity_penalty(hyp_len, ref_len):
    if hyp_len >= ref_len:
        return 1.0
    if hyp_len == 0:
        return 0.0
    return math.exp(1.0 - ref_len / hyp_len)


def sentence_bleu(hyp, ref):
    """Smoothed sentence BLEU on the 0-100 scale.

    Effective order N = min(4, |hyp|); p1 unsmoothed; for n >= 2
    p_n = (matches + 1) / (total + 1).  Empty hypothesis scores 0.
    """
    if not ref:
        raise BleuError("empty reference")
    if not hyp:
        return 0.0
    n_max = min(4, len(hyp))
    log_p = 0.0
    for n in range(1, n_max + 1):
        m, t = _clipped_counts(hyp, ref, n)
        if n == 1:
            if m == 0:
                return 0.0
            p = m / t
        else:
            p = (m + 1) / (t + 1)
        log_p += math.log(p)
    bp = brevity_penalty(len(hyp), len(ref))
    return 100.0 * bp * math.exp(log_p / n_max)


def corpus_bleu(hyps, refs, n_max=4, return_parts=False):
    """Standard corpus BLEU: counts pooled over sentences, unsmoothed;
    any zero precision gives score 0."""
    if len(hyps) != len(refs):
        raise BleuError(f"sentence count mismatch: {len(hyps)} vs {len(refs)}")
    matched = [0] * n_max
    total = [0] * n_max
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        if not ref:
            raise BleuError("empty reference")
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, n_max + 1):
            m, t = _clipped_counts(hyp, ref, n)
            matched[n - 1] += m
            total[n - 1] += t
    precisions = [m / t if t else 0.0 for m, t in zip(matched, total)]
    bp = brevity_penalty(hyp_len, ref_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / n_max)
    if return_parts:
        return score, precisions, bp, hyp_len, ref_len
    return score


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

    def to_tsv(self):
        lines = [
            f"sentences\t{self.sentences}",
            f"corpus_bleu\t{self.corpus:.4f}",
            f"mean_sentence_bleu\t{self.mean_sentence:.4f}",
            f"precisions\t" + " ".join(f"{p:.6f}" for p in self.precisions),
            f"brevity_penalty\t{self.brevity:.6f}",
            f"hyp_tokens\t{self.hyp_tokens}",
            f"ref_tokens\t{self.ref_tokens}",
            f"beer\t{self.beer}",
        ]
        return "\n".join(lines) + "\n"


def score_corpus(hyps, refs):
    c, precisions, bp, hl, rl = corpus_bleu(hyps, refs, return_parts=True)
    if hyps:
        mean_sent = sum(sentence_bleu(h, r) for h, r in zip(hyps, refs)) / len(hyps)
    else:
        mean_sent = 0.0
    return BleuReport(c, mean_sent, precisions, bp, hl, rl, len(hyps))


def evaluate_translations(hyp_path, ref_path):
    """Score aligned hypothesis/reference files; emits both corpus BLEU and
    mean sentence BLEU."""
    hyps = [line.split() for line in read_lines(hyp_path)]
    refs = [line.split() for line in read_lines(ref_path)]
    if len(hyps) != len(refs):
        raise BleuError(
            f"line count mismatch: {hyp_path} has {len(hyps)}, {ref_path} has {len(refs)}")
    return score_corpus(hyps, refs)
