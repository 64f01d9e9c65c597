"""Seeded input generators for the three benchmark workloads.

Every size lives in this file, so a later change to the package's own toy
dataset cannot change a workload.  Each generator returns an object whose
`digest()` is a sha256 over the generated content; the same seed gives the
same digest and another seed gives another one.  Files are written with the
benchmark's own writers, so the inputs do not depend on the code under test.
"""

import hashlib
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# toy-grid: the make-toy language (10 suffixing stems, word-by-word target)

TOY = {
    "pairs": 150,          # bible-like corpus (make-toy: 1500)
    "pairs2": 50,          # second corpus (make-toy: 400)
    "hr_dim": 16,
    "words_per_sentence": (2, 7),
}

_TOY_STEMS = [
    ("bhek", "look"), ("funda", "learn"), ("hamb", "go"), ("nja", "dog"),
    ("ntwana", "child"), ("sebenz", "work"), ("thanda", "love"),
    ("mthi", "tree"), ("lal", "sleep"), ("phuz", "drink"),
]
_TOY_SUFFIXES = ["a", "ile", "eni", "o"]
_TOY_SUFFIX_EN = {"a": None, "ile": "did", "eni": "at", "o": None}


def _toy_gloss(stem_idx, suffix):
    en = _TOY_STEMS[stem_idx][1]
    mod = _TOY_SUFFIX_EN[suffix]
    return [mod, en] if mod else [en]


def _fmt_vec(tokens, rows):
    lines = [f"{len(tokens)} {rows.shape[1]}"]
    lines += [tok + " " + " ".join("%.6g" % v for v in row)
              for tok, row in zip(tokens, rows)]
    return "\n".join(lines) + "\n"


class ToyInputs:
    """Two parallel corpora, a lexicon and 'pretrained' target embeddings,
    in the layout `run-all` reads."""

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        lo, hi = TOY["words_per_sentence"]

        # lengths and suffixes are fixed multisets in seeded order, so every
        # seed gives the same token counts and only their arrangement varies
        def corpus(n):
            lens = rng.permutation(np.resize(np.arange(lo, hi), n))
            words = int(lens.sum())
            sufs = rng.permutation(np.resize(np.arange(len(_TOY_SUFFIXES)), words))
            stems = rng.integers(len(_TOY_STEMS), size=words)
            src, tgt = [], []
            k = 0
            for n_words in lens:
                s, t = [], []
                for si, xi in zip(stems[k:k + n_words], sufs[k:k + n_words]):
                    suf = _TOY_SUFFIXES[xi]
                    s.append(_TOY_STEMS[si][0] + suf)
                    t.extend(_toy_gloss(si, suf))
                k += n_words
                src.append(" ".join(s))
                tgt.append(" ".join(t))
            return src, tgt

        self.files = {}
        for name, n in (("bible", TOY["pairs"]), ("corpus2", TOY["pairs2"])):
            src, tgt = corpus(n)
            self.files[f"{name}.src"] = "\n".join(src) + "\n"
            self.files[f"{name}.tgt"] = "\n".join(tgt) + "\n"
        lex = []
        for i, (stem, en) in enumerate(_TOY_STEMS):
            lex.append(f"{stem}a\t{en}")
            lex.append(f"{stem}ile\t" + " ".join(_toy_gloss(i, "ile")))
        self.files["lexicon.tsv"] = "\n".join(lex) + "\n"
        en_words = sorted({w for i in range(len(_TOY_STEMS))
                           for suf in _TOY_SUFFIXES for w in _toy_gloss(i, suf)})
        hr = rng.uniform(-1, 1, (len(en_words), TOY["hr_dim"]))
        self.files["hr.vec"] = _fmt_vec(en_words, hr)

    def digest(self):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()

    def write(self, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (out / name).write_text(text, encoding="utf-8")
        return {name: out / name for name in self.files}


# ---------------------------------------------------------------------------
# paper-mt: a Bible-sized Zipfian parallel corpus; a bounded slice is trained

PAPER_MT = {
    "corpus_pairs": 31102,   # verses in the Bible
    "src_len": 18,           # mean source tokens per verse
    "tgt_len": 27,           # mean target tokens per verse
    # longer verses are clipped, as a length filter would, so nearly every
    # batch pads to the same length and peak memory does not depend on the seed
    "max_src_len": 24,
    "max_tgt_len": 36,
    "src_types": 3000,
    "tgt_types": 2000,
    "train_pairs": 128,
    "dev_pairs": 64,
    "ft_pairs": 64,
    "ft_dev_pairs": 32,
    "test_sents": 6,
}

_SYLLABLES = [c + v for c in "bdfghklmnpstwyz" for v in "aeiou"]


def _word(i, prefix):
    """Distinct pronounceable token for rank i."""
    out = []
    while True:
        i, r = divmod(i, len(_SYLLABLES))
        out.append(_SYLLABLES[r])
        if i == 0:
            break
    return prefix + "".join(out)


def _zipf_probs(n, s=1.07, q=2.7):
    p = 1.0 / (np.arange(1, n + 1) + q) ** s
    return p / p.sum()


class PaperMTInputs:
    """Token pairs for train, dev, fine-tune, fine-tune dev and test slices of
    a 31,102-verse synthetic corpus, plus vocabulary counts over all of it."""

    def __init__(self, seed):
        cfg = PAPER_MT
        rng = np.random.default_rng([seed, 2])
        n = cfg["corpus_pairs"]
        src_lens = rng.poisson(cfg["src_len"] - 1, n) + 1
        ratio = cfg["tgt_len"] / cfg["src_len"]
        tgt_lens = np.rint(src_lens * ratio + rng.normal(0, 2, n)).astype(np.int64)
        src_lens = np.minimum(src_lens, cfg["max_src_len"])
        tgt_lens = np.clip(tgt_lens, 1, cfg["max_tgt_len"])
        self.src_ids = rng.choice(cfg["src_types"], int(src_lens.sum()),
                                  p=_zipf_probs(cfg["src_types"]))
        self.tgt_ids = rng.choice(cfg["tgt_types"], int(tgt_lens.sum()),
                                  p=_zipf_probs(cfg["tgt_types"]))
        self.src_off = np.concatenate([[0], np.cumsum(src_lens)])
        self.tgt_off = np.concatenate([[0], np.cumsum(tgt_lens)])
        self.src_counts = {_word(int(i), "x"): int(c) for i, c in
                           enumerate(np.bincount(self.src_ids)) if c}
        self.tgt_counts = {_word(int(i), "e"): int(c) for i, c in
                           enumerate(np.bincount(self.tgt_ids)) if c}
        lo = 0
        self.slices = {}
        for name in ("train", "dev", "ft", "ft_dev", "test"):
            key = "test_sents" if name == "test" else f"{name}_pairs"
            self.slices[name] = self._pairs(lo, lo + cfg[key])
            lo += cfg[key]

    def _pairs(self, lo, hi):
        out = []
        for k in range(lo, hi):
            s = self.src_ids[self.src_off[k]:self.src_off[k + 1]]
            t = self.tgt_ids[self.tgt_off[k]:self.tgt_off[k + 1]]
            out.append(([_word(int(i), "x") for i in s],
                        [_word(int(i), "e") for i in t]))
        return out

    def digest(self):
        h = hashlib.sha256()
        for arr in (self.src_ids, self.tgt_ids, self.src_off, self.tgt_off):
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# paper-embed: agglutinative source text, a 300-d high-resource .vec and a
# lexicon whose coverage is known in advance

PAPER_EMBED = {
    "dim": 300,
    "stems": 400,
    "sentences": 300,
    "sentence_len": (8, 17),
    "hr_words": 6000,        # glosses of the stems plus filler vocabulary
    "lexicon_entries": 1200,
    "oov_share": 0.1,        # entries whose every translation is absent from the .vec
}

_PREFIXES = ["um", "aba", "isi", "izi", "in", "ulu", "ubu", "uku"]
_SUFFIXES = ["", "ile", "ana", "ela", "isa", "eni", "wa"]
_SUFFIX_EN = {"ile": "did", "ela": "for", "isa": "make", "eni": "in", "wa": "was"}


class PaperEmbedInputs:
    """Training sentences, high-resource vectors and a lexicon TSV."""

    def __init__(self, seed):
        cfg = PAPER_EMBED
        rng = np.random.default_rng([seed, 3])
        n_stems = cfg["stems"]
        stems = [_word(i + 37, "") for i in range(n_stems)]
        glosses = [_word(i, "g") for i in range(n_stems)]
        stem_p = _zipf_probs(n_stems)
        lo, hi = cfg["sentence_len"]
        self.sentences = []
        words = {}
        for _ in range(cfg["sentences"]):
            k = int(rng.integers(lo, hi))
            si = rng.choice(n_stems, k, p=stem_p)
            pi = rng.integers(len(_PREFIXES), size=k)
            xi = rng.integers(len(_SUFFIXES), size=k)
            sent = []
            for s, p, x in zip(si, pi, xi):
                w = _PREFIXES[p] + stems[s] + _SUFFIXES[x]
                words.setdefault(w, (int(s), _SUFFIXES[x]))
                sent.append(w)
            self.sentences.append(sent)
        self.tokens = sum(len(s) for s in self.sentences)

        filler = [_word(i, "f") for i in range(cfg["hr_words"] - n_stems)]
        funcs = sorted(set(_SUFFIX_EN.values()))
        hr_words = glosses + funcs + filler[:cfg["hr_words"] - n_stems - len(funcs)]
        self.hr_words = hr_words
        self.hr = rng.normal(0, 1, (len(hr_words), cfg["dim"]))

        # lexicon over words seen in training; an OOV entry's gloss is
        # replaced by a word the .vec lacks, so projection must skip it
        seen = sorted(words)
        pick = rng.choice(len(seen), min(cfg["lexicon_entries"], len(seen)),
                          replace=False)
        oov = rng.random(len(pick)) < cfg["oov_share"]
        lex = []
        for j, is_oov in zip(sorted(pick.tolist()), oov):
            w = seen[j]
            s, suf = words[w]
            trans = [_word(s, "q")] if is_oov else [glosses[s]]
            if _SUFFIX_EN.get(suf):
                trans = ([] if is_oov else [_SUFFIX_EN[suf]]) + trans
            lex.append(f"{w}\t{' '.join(trans)}")
        self.lexicon = "\n".join(lex) + "\n"
        self.expected_covered = int(len(pick) - oov.sum())

    def digest(self):
        h = hashlib.sha256()
        for sent in self.sentences:
            h.update(" ".join(sent).encode() + b"\n")
        h.update("\n".join(self.hr_words).encode() + b"\0" + self.hr.tobytes())
        h.update(self.lexicon.encode())
        return h.hexdigest()

    def write(self, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "hr.vec").write_text(_fmt_vec(self.hr_words, self.hr),
                                    encoding="utf-8")
        (out / "lexicon.tsv").write_text(self.lexicon, encoding="utf-8")
        return out / "hr.vec", out / "lexicon.tsv"
