"""Parallel corpus loading, tokenization, vocabularies, splits and statistics."""

import math
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

from .artifact import atomic_open

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIALS = ["<pad>", "<unk>", "<bos>", "<eos>"]


class CorpusError(ValueError):
    pass


def tokenize(text):
    """NFC-normalize, lowercase, split punctuation into standalone tokens,
    then split on whitespace.  Idempotent on its own output."""
    text = unicodedata.normalize("NFC", text).lower()
    out = []
    for ch in text:
        if unicodedata.category(ch).startswith("P"):
            out.append(" ")
            out.append(ch)
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out).split()


@dataclass
class LoadReport:
    src_lines: int = 0
    tgt_lines: int = 0
    dropped: int = 0

    def __str__(self):
        return (f"source lines\t{self.src_lines}\n"
                f"target lines\t{self.tgt_lines}\n"
                f"dropped pairs\t{self.dropped}\n")


@dataclass
class ParallelCorpus:
    """Aligned sentence pairs; immutable after load, safe to share read-only."""
    name: str
    pairs: list  # list of (src_tokens, tgt_tokens)
    report: LoadReport = field(default_factory=LoadReport)

    def __len__(self):
        return len(self.pairs)

    def side(self, which):
        i = 0 if which == "src" else 1
        return [p[i] for p in self.pairs]


def read_lines(path):
    """The lines of a UTF-8 text file, split on newlines only; a byte that
    does not decode raises CorpusError naming the file and line."""
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    out = []
    for i, line in enumerate(lines, start=1):
        try:
            out.append(line.decode("utf-8"))
        except UnicodeDecodeError as e:
            raise CorpusError(f"{path}: undecodable bytes at line {i}: {e}") from e
    return out


def write_lines(path, lines):
    """Write each of `lines` plus a newline to `path` as UTF-8, atomically:
    `lines` is consumed inside the write, so if it raises the old file stays."""
    with atomic_open(path, text=True) as f:
        f.writelines(line + "\n" for line in lines)


def read_aligned_lines(src_path, tgt_path):
    """The lines of two aligned files; raises CorpusError naming both files
    if their line counts differ."""
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}")
    return src_lines, tgt_lines


def load_parallel_corpus(src_path, tgt_path, name="corpus"):
    """Load two aligned one-sentence-per-line files.  Pairs that are empty on
    either side after tokenization are dropped and counted."""
    src_lines, tgt_lines = read_aligned_lines(src_path, tgt_path)
    pairs = []
    dropped = 0
    for s, t in zip(src_lines, tgt_lines):
        st, tt = tokenize(s), tokenize(t)
        if st and tt:
            pairs.append((st, tt))
        else:
            dropped += 1
    report = LoadReport(len(src_lines), len(tgt_lines), dropped)
    return ParallelCorpus(name, pairs, report)


class Vocabulary:
    """Token <-> id bijection with reserved specials at ids 0-3."""

    def __init__(self, counts=None, min_count=1):
        self.token_to_id = {tok: i for i, tok in enumerate(SPECIALS)}
        self.id_to_token = list(SPECIALS)
        self.freq = {tok: 0 for tok in SPECIALS}
        if counts:
            kept = [(tok, c) for tok, c in counts.items() if c >= min_count]
            kept.sort(key=lambda tc: (-tc[1], tc[0]))
            for tok, c in kept:
                if tok in self.token_to_id:
                    continue
                self.token_to_id[tok] = len(self.id_to_token)
                self.id_to_token.append(tok)
                self.freq[tok] = c

    def __len__(self):
        return len(self.id_to_token)

    def __contains__(self, tok):
        return tok in self.token_to_id

    def id(self, tok):
        return self.token_to_id.get(tok, UNK)

    def token(self, i):
        return self.id_to_token[i]

    def tokens(self):
        """Non-special tokens in id order."""
        return self.id_to_token[len(SPECIALS):]

    def save(self, path):
        write_lines(path, (f"{tok}\t{self.freq[tok]}" for tok in self.tokens()))

    @classmethod
    def from_freqs(cls, pairs):
        """Vocabulary of (token, count) pairs, keeping their order as ids."""
        v = cls()
        for tok, c in pairs:
            v.token_to_id[tok] = len(v.id_to_token)
            v.id_to_token.append(tok)
            v.freq[tok] = int(c)
        return v

    @classmethod
    def load(cls, path):
        """Read `save`'s `token<TAB>count` lines; a malformed line, a repeated
        token or a special token raises CorpusError naming file and line."""
        counts = {}
        for i, line in enumerate(read_lines(path), start=1):
            if not line:
                continue
            tok, sep, count = line.partition("\t")
            if not (tok and sep and count.strip().isdecimal()):
                raise CorpusError(f"{path}:{i}: expected token<TAB>count, "
                                  f"got {line!r}")
            if tok in counts or tok in SPECIALS:
                raise CorpusError(f"{path}:{i}: repeated or special token {tok!r}")
            counts[tok] = int(count)
        return cls.from_freqs(counts.items())


def build_vocabulary(side, min_count=1):
    """Build a vocabulary from an iterable of token sequences.  Tokens are
    ordered by descending frequency, ties broken lexicographically."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = {}
    for sent in side:
        for tok in sent:
            counts[tok] = counts.get(tok, 0) + 1
    return Vocabulary(counts, min_count)


@dataclass
class SplitSpec:
    ratios: tuple = (0.7, 0.2, 0.1)
    seed: int = 0

    def __post_init__(self):
        # `not r >= 0`, unlike `r < 0`, also holds for a NaN ratio
        if any(not r >= 0 for r in self.ratios) or abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must be non-negative and sum to 1: {self.ratios}")


def split_corpus(corpus, spec):
    """Seeded Fisher-Yates shuffle then contiguous cut.
    Sizes: floor(n*r_train), floor(n*r_dev), remainder to test."""
    n = len(corpus)
    idx = list(range(n))
    random.Random(spec.seed).shuffle(idx)
    n_train = math.floor(n * spec.ratios[0])
    n_dev = math.floor(n * spec.ratios[1])
    cuts = (idx[:n_train], idx[n_train:n_train + n_dev], idx[n_train + n_dev:])
    parts = []
    for part_name, ids in zip(("train", "dev", "test"), cuts):
        parts.append(ParallelCorpus(f"{corpus.name}.{part_name}",
                                    [corpus.pairs[i] for i in ids]))
    return tuple(parts)


@dataclass
class SideStats:
    mean_len: float
    std_len: float
    total_tokens: int


@dataclass
class CorpusStats:
    sentences: int
    src: SideStats
    tgt: SideStats


def _side_stats(lengths):
    n = len(lengths)
    if n == 0:
        return SideStats(0.0, 0.0, 0)
    total = sum(lengths)
    mean = total / n
    var = sum((l - mean) ** 2 for l in lengths) / n
    return SideStats(mean, math.sqrt(var), total)


def corpus_stats(corpus):
    """Population mean/std of sentence lengths and token totals, per side."""
    src_lens = [len(p[0]) for p in corpus.pairs]
    tgt_lens = [len(p[1]) for p in corpus.pairs]
    return CorpusStats(len(corpus), _side_stats(src_lens), _side_stats(tgt_lens))


def write_splits(splits, out_dir, name):
    """Persist train/dev/test to six files <name>.{train,dev,test}.{src,tgt}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for part, corp in zip(("train", "dev", "test"), splits):
        for side in ("src", "tgt"):
            p = paths[(part, side)] = out_dir / f"{name}.{part}.{side}"
            write_lines(p, (" ".join(sent) for sent in corp.side(side)))
    return paths
