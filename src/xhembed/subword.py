"""Character n-gram subword embeddings trained with skip-gram negative
sampling; composes vectors for arbitrary words including OOV."""

import math
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from . import artifact
from .corpus import SPECIALS, Vocabulary, build_vocabulary, check_fields
from .embedstore import EmbeddingMatrix

FNV_OFFSET = 2166136261
FNV_PRIME = 16777619
# unit rows gathered at once when composing word vectors (about 10 MB at dim 300)
_GATHER_ROWS = 4096
# bytes of float64 uniforms drawn at once to fill the input table
_DRAW_BYTES = 1 << 20


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
    # Only 1 is accepted.  The field remains because the benchmark's SGNS
    # workload still passes workers=1; it goes once that key is dropped there.
    workers: int = 1

    def __post_init__(self):
        check_fields(self, ("dim", self.dim >= 1, ">= 1"),
                     ("window", self.window >= 1, ">= 1"),
                     ("negatives", self.negatives >= 1, ">= 1"),
                     ("epochs", self.epochs >= 1, ">= 1"),
                     ("lr", 0 < self.lr < math.inf, "finite and > 0"),
                     ("subsample", not math.isnan(self.subsample), "a number"),
                     ("min_count", self.min_count >= 1, ">= 1"),
                     ("minn", self.minn >= 1, ">= 1"),
                     ("maxn", self.maxn >= self.minn, f">= minn {self.minn}"),
                     ("buckets", self.buckets >= 1, ">= 1"),
                     ("workers", self.workers == 1, "1 (training is single-threaded)"))


class SubwordModel:
    """Bucketed n-gram input vectors plus per-vocab-word whole-word rows and
    output vectors.  Word vectors are the average of their unit vectors."""

    def __init__(self, vocab, config, input_vectors, output_vectors):
        self.vocab = vocab
        self.config = config
        self.input_vectors = input_vectors    # (buckets + |vocab|, dim)
        self.output_vectors = output_vectors  # (|vocab|, dim)
        # unit ids of every vocabulary word, by id: the one time the
        # vocabulary's n-grams are hashed
        self.vocab_units = self._ngram_buckets(vocab.id_to_token)
        for i, ids in enumerate(self.vocab_units):
            ids.append(config.buckets + i)

    @property
    def dim(self):
        return self.config.dim

    def _ngram_buckets(self, words):
        """Hashed n-gram bucket ids of each word; each distinct n-gram is
        hashed once per call."""
        cfg = self.config
        bucket = {}
        lists = []
        for word in words:
            grams, _ = extract_ngrams(word, cfg.minn, cfg.maxn)
            ids = []
            for g in grams:
                if g not in bucket:
                    bucket[g] = ngram_bucket(g, cfg.buckets)
                ids.append(bucket[g])
            lists.append(ids)
        return lists

    def unit_lists(self, words):
        """Input-vector row indices of each word: hashed n-gram buckets, plus
        the dedicated whole-word row when the word is in vocab.  A vocabulary
        word gets its list from `vocab_units` (shared, not a copy); only the
        other words' n-grams are hashed."""
        index = self.vocab.token_to_id
        oov = iter(self._ngram_buckets([w for w in words if w not in index]))
        return [self.vocab_units[index[w]] if w in index else next(oov)
                for w in words]

    def unit_ids(self, word):
        return self.unit_lists([word])[0]

    def compose_rows(self, words):
        """(len(words), dim) matrix whose rows are the mean unit vector of each
        word; a word with no units (out of vocabulary, and shorter than minn
        with its brackets) gets a zero row, as in fastText.  Each row sums its
        units in unit order, as `input_vectors[ids].mean(axis=0)` does, so a
        row does not depend on which other words share the call.  Rows are
        summed and divided in the table's dtype, float32 or float64."""
        lists = self.unit_lists(words)
        counts = np.array([len(ids) for ids in lists], dtype=np.int64)
        width = int(counts.max(initial=1))
        table = np.zeros((len(lists), width), dtype=np.int64)
        for i, ids in enumerate(lists):
            table[i, :len(ids)] = ids
        live = (np.arange(width) < counts[:, None])[:, :, None]
        sums = np.empty((len(lists), self.dim), dtype=self.input_vectors.dtype)
        step = max(1, _GATHER_ROWS // width)
        for a in range(0, len(lists), step):
            np.add.reduce(self.input_vectors[table[a:a + step]], axis=1,
                          where=live[a:a + step], out=sums[a:a + step])
        return sums / np.maximum(counts, 1).astype(sums.dtype)[:, None]

    def compose(self, word):
        return self.compose_rows([word])[0]

    def export_matrix(self, tokens):
        """Embedding matrix whose rows are compose() of each token."""
        return EmbeddingMatrix(list(tokens), self.compose_rows(tokens))

    def save(self, path):
        header = {"config": asdict(self.config),
                  "vocab": [[t, self.vocab.freq[t]] for t in self.vocab.tokens()]}
        artifact.save(path, "subword model", header,
                      {"input_vectors": self.input_vectors,
                       "output_vectors": self.output_vectors})

    @classmethod
    def load(cls, path):
        """The model saved at `path`.  Its two tables must share one dtype,
        float32 or float64, which the model then composes in."""
        def decode(header, arrays):
            cfg = SkipgramConfig(**header["config"])
            vocab = Vocabulary.from_freqs(header["vocab"])
            inp = artifact.require_shape(arrays, "input_vectors",
                                         (cfg.buckets + len(vocab), cfg.dim))
            out = artifact.require_shape(arrays, "output_vectors",
                                         (len(vocab), cfg.dim))
            if inp.dtype not in (np.float32, np.float64):
                raise ValueError(f"array 'input_vectors' has dtype {inp.dtype}, "
                                 "expected float32 or float64")
            if out.dtype != inp.dtype:
                raise ValueError(f"array 'output_vectors' has dtype {out.dtype}, "
                                 f"expected {inp.dtype} as 'input_vectors'")
            return cls(vocab, cfg, inp, out)
        return artifact.load(path, "subword model", decode)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def unit_table(unit_lists):
    """Padded (words, max distinct units) table of each word's distinct unit
    ids and their weights c/k, where c counts the unit among the word's k
    units: a word whose n-grams collide in one bucket gives that bucket c/k
    of its gradient.  Padding repeats the word's last id with weight 0."""
    counted = [Counter(ids) for ids in unit_lists]
    width = max(map(len, counted))
    ids = np.empty((len(counted), width), dtype=np.int64)
    weights = np.zeros((len(counted), width))
    for i, (count, k) in enumerate(zip(counted, map(len, unit_lists))):
        units = list(count)
        ids[i, :len(units)] = units
        ids[i, len(units):] = units[-1]
        weights[i, :len(units)] = [c / k for c in count.values()]
    return ids, weights


def sgns_loss_and_grads(input_vectors, output_vectors, units, unit_weights,
                        centres, targets, scale=None):
    """Negative-sampling loss of a batch of pairs and its gradients.

    Centre c is the word vector `unit_weights[c] @ input_vectors[units[c]]`
    (a `unit_table` row).  Pair p scores centre `centres[p]` against the
    output rows `targets[p]`: its context, then its negatives.  Every score
    uses the vectors as passed.  The gradients of pair p are multiplied by
    `scale[p]` (training passes the learning rate); the loss is not.

    Returns (loss, (input_rows, grad_input), (output_rows, grad_output)):
    the summed loss, then the distinct touched rows of each matrix, sorted,
    with one gradient row each.  Both gradients are matmuls with small
    weight matrices that link centres to rows, so repeated rows need no
    scatter-add.  The weight matrices are cast to the vectors' dtype, so
    scores and gradients are computed in it: float32 tables give float32
    gradients, float64 tables float64 ones."""
    n_c = len(units)
    in_rows, in_inv = np.unique(units.ravel(), return_inverse=True)
    cells = np.repeat(np.arange(n_c) * len(in_rows), units.shape[1]) + in_inv
    mix = np.bincount(cells, weights=unit_weights.ravel(),
                      minlength=n_c * len(in_rows)).reshape(n_c, len(in_rows))
    mix = mix.astype(input_vectors.dtype)
    h = mix @ input_vectors[in_rows]
    out_rows, out_inv = np.unique(targets.ravel(), return_inverse=True)
    out_inv = out_inv.reshape(targets.shape)
    o = output_vectors[out_rows]
    s = _sigmoid((h @ o.T)[centres[:, None], out_inv])
    p = 1.0 - s              # probability of each label: 1 for the context,
    p[:, 0] = s[:, 0]        # 0 for the negatives
    loss = float(-np.log(np.maximum(p, 1e-12)).sum())
    g = s
    g[:, 0] -= 1.0
    if scale is not None:
        g *= scale[:, None]
    weight = np.bincount((out_inv * n_c + centres[:, None]).ravel(),
                         weights=g.ravel(),
                         minlength=len(out_rows) * n_c).reshape(len(out_rows), n_c)
    weight = weight.astype(o.dtype)
    return (loss, (in_rows, mix.T @ (weight.T @ o)), (out_rows, weight @ h))


def negative_cdf(vocab):
    """Cumulative unigram^0.75 distribution over vocabulary ids, the table
    negatives are drawn from; the special ids get probability 0."""
    probs = np.array([vocab.freq[t] for t in vocab.id_to_token],
                     dtype=np.float64) ** 0.75
    return np.cumsum(probs / probs.sum())


def draw_negatives(rng, neg_cdf, context, negatives):
    """(len(context), negatives) word ids drawn from the cumulative table
    `neg_cdf` (one entry per vocabulary id), none equal to its pair's
    context: clashes are redrawn in bulk until none remains."""
    def draw(size):
        return np.minimum(np.searchsorted(neg_cdf, rng.random(size), side="right"),
                          len(neg_cdf) - 1)
    negs = draw((len(context), negatives))
    clash = negs == context[:, None]
    while clash.any():
        negs[clash] = draw(int(clash.sum()))
        clash = negs == context[:, None]
    return negs


@dataclass
class EpochReport:
    epoch: int
    pairs: int
    mean_loss: float
    tokens_per_sec: float

    def __str__(self):
        return (f"epoch {self.epoch}\tpairs {self.pairs}\t"
                f"mean_loss {self.mean_loss:.6f}\ttokens/s {self.tokens_per_sec:.0f}")


def train_skipgram(sentences, config):
    """Train a subword skip-gram model; returns (model, list of EpochReport).
    Each sentence is one update: every pair of the sentence is scored against
    the vectors as they stood at its start.  Both tables are float32, as in
    fastText; the input table starts from float64 uniforms rounded to
    float32, and every update is computed in float32.  Single-threaded and
    deterministic: the same sentences and config give bit-identical vectors."""
    sentences = list(sentences)
    vocab = build_vocabulary(sentences, config.min_count)
    if len(vocab.tokens()) < 2:
        raise ValueError("negative sampling needs at least two distinct words "
                         "after min_count filtering")
    # sentences as vocab ids, dropping filtered tokens and literal specials
    id_sents = []
    for sent in sentences:
        ids = [vocab.id(t) for t in sent if t in vocab and t not in SPECIALS]
        if ids:
            id_sents.append(np.array(ids, dtype=np.int64))
    total_tokens = sum(len(s) for s in id_sents)
    freqs = np.array([vocab.freq[t] for t in vocab.id_to_token], dtype=np.float64)
    neg_cdf = negative_cdf(vocab)
    # subsampling: keep probability per word (<= 0 disables)
    t = config.subsample
    first = len(SPECIALS)
    rel = freqs[first:] / freqs.sum()
    keep_prob = np.ones_like(freqs)
    if t > 0:
        keep_prob[first:] = np.minimum(1.0, np.sqrt(t / rel) + t / rel)
    rng = np.random.default_rng(config.seed)
    # uniform in [-0.5, 0.5) / dim, drawn in float64 into one reused block
    # of rows and rounded into place: no full-size float64 temporary
    inp = np.empty((config.buckets + len(vocab), config.dim), dtype=np.float32)
    block = np.empty((max(1, _DRAW_BYTES // (8 * config.dim)), config.dim))
    for a in range(0, len(inp), len(block)):
        u = rng.random(out=block[:len(inp) - a])
        u -= 0.5
        u /= config.dim
        inp[a:a + len(u)] = u
    out = np.zeros((len(vocab), config.dim), dtype=np.float32)
    model = SubwordModel(vocab, config, inp, out)
    units, unit_weights = unit_table(model.vocab_units)
    window = np.arange(1, config.window + 1)
    offsets = np.concatenate([-window[::-1], window])
    processed = 0  # kept tokens so far; drives the linear lr decay
    planned = max(1, config.epochs * total_tokens)
    reports = []
    order = np.arange(len(id_sents))
    for epoch in range(1, config.epochs + 1):
        t0 = time.time()
        rng = np.random.default_rng((config.seed, epoch))
        rng.shuffle(order)
        loss_sum, pair_count = 0.0, 0
        for si in order.tolist():
            sent = id_sents[si]
            kept = sent[rng.random(len(sent)) < keep_prob[sent]]
            n = len(kept)
            lr = config.lr * np.maximum(
                1e-4, 1.0 - (processed + np.arange(1, n + 1)) / planned)
            processed += n
            if n < 2:
                continue
            b = rng.integers(1, config.window + 1, size=n)
            ctx_pos = np.arange(n)[:, None] + offsets
            valid = (np.abs(offsets) <= b[:, None]) & (ctx_pos >= 0) & (ctx_pos < n)
            centres, slots = np.nonzero(valid)
            context = kept[ctx_pos[centres, slots]]
            targets = np.column_stack(
                [context, draw_negatives(rng, neg_cdf, context, config.negatives)])
            loss, (in_rows, g_in), (out_rows, g_out) = sgns_loss_and_grads(
                inp, out, units[kept], unit_weights[kept], centres, targets,
                lr[centres])
            inp[in_rows] -= g_in
            out[out_rows] -= g_out
            loss_sum += loss
            pair_count += len(centres)
        dt = max(time.time() - t0, 1e-9)
        reports.append(EpochReport(epoch, pair_count, loss_sum / max(pair_count, 1),
                                   total_tokens / dt))
    return model, reports
