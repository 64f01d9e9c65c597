"""Character n-gram subword embeddings trained with skip-gram negative
sampling; composes vectors for arbitrary words including OOV."""

import math
import threading
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import artifact
from .corpus import Vocabulary, build_vocabulary
from .embedstore import EmbeddingMatrix

FNV_OFFSET = 2166136261
FNV_PRIME = 16777619


def fnv1a_32(data):
    """FNV-1a 32-bit hash of a byte string."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFF
    return h


def ngram_bucket(ngram, buckets):
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    return fnv1a_32(ngram.encode("utf-8")) % buckets


def extract_ngrams(word, minn=3, maxn=6):
    """All character n-grams of the '<word>'-wrapped form, length-major then
    position order, plus the wrapped whole word as a distinct unit."""
    wrapped = "<" + word + ">"
    grams = []
    for n in range(minn, maxn + 1):
        for i in range(len(wrapped) - n + 1):
            grams.append(wrapped[i:i + n])
    return grams, wrapped


@dataclass
class SkipgramConfig:
    dim: int = 300
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.05
    subsample: float = 1e-4
    min_count: int = 1
    minn: int = 3
    maxn: int = 6
    buckets: int = 100_000
    seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.window < 1 or self.negatives < 1 or self.lr <= 0:
            raise ValueError("window >= 1, negatives >= 1, lr > 0 required")


class SubwordModel:
    """Bucketed n-gram input vectors plus per-vocab-word whole-word rows and
    output vectors.  Word vectors are the average of their unit vectors."""

    def __init__(self, vocab, config, input_vectors, output_vectors):
        self.vocab = vocab
        self.config = config
        self.input_vectors = input_vectors    # (buckets + |vocab|, dim)
        self.output_vectors = output_vectors  # (|vocab|, dim)

    @property
    def dim(self):
        return self.config.dim

    def unit_ids(self, word):
        """Input-vector row indices for a word: hashed n-gram buckets, plus
        the dedicated whole-word row when the word is in vocab."""
        grams, _ = extract_ngrams(word, self.config.minn, self.config.maxn)
        ids = [ngram_bucket(g, self.config.buckets) for g in grams]
        if word in self.vocab:
            ids.append(self.config.buckets + self.vocab.id(word))
        return ids

    def compose(self, word):
        ids = self.unit_ids(word)
        return self.input_vectors[ids].mean(axis=0)

    def export_matrix(self, tokens):
        """Embedding matrix whose rows are compose() of each token."""
        rows = np.stack([self.compose(t) for t in tokens]) if tokens \
            else np.zeros((0, self.dim))
        return EmbeddingMatrix(list(tokens), rows)

    def save(self, path):
        header = {"config": asdict(self.config),
                  "vocab": [[t, self.vocab.freq[t]] for t in self.vocab.tokens()]}
        artifact.save(path, "subword model", header,
                      {"input_vectors": self.input_vectors,
                       "output_vectors": self.output_vectors})

    @classmethod
    def load(cls, path):
        def decode(header, arrays):
            cfg = SkipgramConfig(**header["config"])
            vocab = Vocabulary.from_freqs(header["vocab"])
            inp = artifact.require_shape(arrays, "input_vectors",
                                         (cfg.buckets + len(vocab), cfg.dim))
            out = artifact.require_shape(arrays, "output_vectors",
                                         (len(vocab), cfg.dim))
            return cls(vocab, cfg, inp, out)
        return artifact.load(path, "subword model", decode)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def pair_loss_and_grads(input_vectors, output_vectors, unit_ids, ctx_id, neg_ids):
    """Negative-sampling loss for one (center, context, negatives) triple and
    its gradients.  Returns (loss, grad_input_rows, grad_output_rows) where the
    grads are dicts row_index -> gradient vector.  Used both by training and by
    the finite-difference check."""
    k = len(unit_ids)
    h = input_vectors[unit_ids].mean(axis=0)
    loss = 0.0
    grad_h = np.zeros_like(h)
    grad_out = {}
    for tgt, label in [(ctx_id, 1.0)] + [(n, 0.0) for n in neg_ids]:
        o = output_vectors[tgt]
        s = _sigmoid(float(h @ o))
        loss -= math.log(max(s if label else 1.0 - s, 1e-12))
        g = s - label
        grad_h += g * o
        grad_out[tgt] = grad_out.get(tgt, 0.0) + g * h
    # duplicate unit ids (hash collisions within one word) accumulate
    counts = {}
    for u in unit_ids:
        counts[u] = counts.get(u, 0) + 1
    grad_in = {u: (c / k) * grad_h for u, c in counts.items()}
    return loss, grad_in, grad_out


@dataclass
class EpochReport:
    epoch: int
    pairs: int
    mean_loss: float
    tokens_per_sec: float

    def __str__(self):
        return (f"epoch {self.epoch}\tpairs {self.pairs}\t"
                f"mean_loss {self.mean_loss:.6f}\ttokens/s {self.tokens_per_sec:.0f}")


class _Trainer:
    def __init__(self, sentences, config):
        self.cfg = config
        self.vocab = build_vocabulary(sentences, config.min_count)
        if not self.vocab.tokens():
            raise ValueError("empty vocabulary after min_count filtering")
        # sentences as vocab ids, dropping filtered tokens
        self.sentences = []
        for sent in sentences:
            ids = [self.vocab.id(t) for t in sent if t in self.vocab]
            if ids:
                self.sentences.append(ids)
        self.total_tokens = sum(len(s) for s in self.sentences)
        freqs = np.array([self.vocab.freq[t] for t in self.vocab.tokens()],
                         dtype=np.float64)
        self.first_word_id = 4  # specials occupy 0-3 and never occur in text
        probs = freqs ** 0.75
        self.neg_cdf = np.cumsum(probs / probs.sum())
        # subsampling: keep probability per word (<= 0 disables)
        t = config.subsample
        rel = freqs / freqs.sum()
        if t > 0:
            self.keep_prob = np.minimum(1.0, np.sqrt(t / rel) + t / rel)
        else:
            self.keep_prob = np.ones_like(rel)
        rng = np.random.default_rng(config.seed)
        n_in = config.buckets + len(self.vocab)
        self.input_vectors = (rng.random((n_in, config.dim)) - 0.5) / config.dim
        self.output_vectors = np.zeros((len(self.vocab), config.dim))
        self.unit_cache = {}
        self.model = SubwordModel(self.vocab, config,
                                  self.input_vectors, self.output_vectors)
        for wid in range(self.first_word_id, len(self.vocab)):
            self.unit_cache[wid] = np.array(
                self.model.unit_ids(self.vocab.token(wid)), dtype=np.int64)

    def sample_negative(self, rng, exclude):
        while True:
            wid = self.first_word_id + int(
                np.searchsorted(self.neg_cdf, rng.random()))
            wid = min(wid, len(self.vocab) - 1)
            if wid != exclude:
                return wid

    def run_sentences(self, sent_indices, rng, lr_state):
        cfg = self.cfg
        inp, out = self.input_vectors, self.output_vectors
        loss_sum, pair_count = 0.0, 0
        planned = max(1, cfg.epochs * self.total_tokens)
        for si in sent_indices:
            sent = self.sentences[si]
            kept = [w for w in sent
                    if rng.random() < self.keep_prob[w - self.first_word_id]]
            for pos, w in enumerate(kept):
                lr_state[1] += 1
                lr = cfg.lr * max(1e-4, 1.0 - lr_state[1] / planned)
                b = int(rng.integers(1, cfg.window + 1))
                units = self.unit_cache[w]
                k = len(units)
                h = inp[units].mean(axis=0)
                grad_h = np.zeros(cfg.dim)
                touched = False
                for cpos in range(max(0, pos - b), min(len(kept), pos + b + 1)):
                    if cpos == pos:
                        continue
                    c = kept[cpos]
                    touched = True
                    targets = [c] + [self.sample_negative(rng, c)
                                     for _ in range(cfg.negatives)]
                    for j, tgt in enumerate(targets):
                        row = out[tgt]
                        s = _sigmoid(float(h @ row))
                        label = 1.0 if j == 0 else 0.0
                        loss_sum -= math.log(
                            max(s if label else 1.0 - s, 1e-12))
                        g = (s - label) * lr
                        grad_h += g * row
                        row -= g * h
                    pair_count += 1
                if touched:
                    np.add.at(inp, units, (-1.0 / k) * grad_h)
        return loss_sum, pair_count


def train_skipgram(sentences, config):
    """Train a subword skip-gram model; returns (model, list of EpochReport).

    Deterministic (bit-identical across runs) when config.workers == 1;
    with more workers updates race benignly and only aggregate quality holds.
    """
    tr = _Trainer(list(sentences), config)
    reports = []
    lr_state = [config.lr, 0]  # [unused, processed tokens]
    order = np.arange(len(tr.sentences))
    for epoch in range(1, config.epochs + 1):
        t0 = time.time()
        rng = np.random.default_rng((config.seed, epoch))
        rng.shuffle(order)
        if config.workers <= 1:
            loss, pairs = tr.run_sentences(order.tolist(), rng, lr_state)
        else:
            chunks = np.array_split(order, config.workers)
            results = [None] * config.workers
            def work(i):
                wrng = np.random.default_rng((config.seed, epoch, i))
                results[i] = tr.run_sentences(chunks[i].tolist(), wrng, lr_state)
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(config.workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            loss = sum(r[0] for r in results)
            pairs = sum(r[1] for r in results)
        dt = max(time.time() - t0, 1e-9)
        reports.append(EpochReport(epoch, pairs,
                                   loss / max(pairs, 1),
                                   tr.total_tokens / dt))
    return tr.model, reports
