"""Deterministic synthetic bilingual toy dataset for end-to-end runs and
demos: a suffixing source language, a word-by-word target language, a
bilingual lexicon and random 'pretrained' target-side embeddings."""

from pathlib import Path

import numpy as np


_STEMS = [
    ("indo", "man"), ("haml", "walk"), ("bawo", "father"), ("tolo", "house"),
    ("zunga", "water"), ("phala", "run"), ("kimbi", "bird"), ("sebe", "work"),
    ("lwandle", "sea"), ("ntaba", "hill"),
]
_SUFFIXES = ["a", "ile", "eni", "o"]
_SUFFIX_EN = {"a": None, "ile": "did", "eni": "at", "o": None}


def _translate_word(stem_idx, suffix):
    en = _STEMS[stem_idx][1]
    mod = _SUFFIX_EN[suffix]
    return [mod, en] if mod else [en]


def write_toy_dataset(out_dir, pairs=1500, pairs2=400, seed=7, hr_dim=16):
    """Write bible-like and second-corpus parallel files, a lexicon TSV and a
    target-side embedding file under `out_dir`; returns a dict of paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    def sentence():
        n = int(rng.integers(2, 7))
        src, tgt = [], []
        for _ in range(n):
            si = int(rng.integers(len(_STEMS)))
            suf = _SUFFIXES[int(rng.integers(len(_SUFFIXES)))]
            src.append(_STEMS[si][0] + suf)
            tgt.extend(_translate_word(si, suf))
        return " ".join(src), " ".join(tgt)

    paths = {}
    for name, n in (("bible", pairs), ("oxex", pairs2)):
        sp, tp = out / f"{name}.src", out / f"{name}.tgt"
        with open(sp, "w", encoding="utf-8") as fs, open(tp, "w", encoding="utf-8") as ft:
            for _ in range(n):
                s, t = sentence()
                fs.write(s + "\n")
                ft.write(t + "\n")
        paths[f"{name}_src"], paths[f"{name}_tgt"] = sp, tp

    # lexicon covers the base form and one inflection of every stem
    lex = out / "lexicon.tsv"
    with open(lex, "w", encoding="utf-8") as f:
        for i, (stem, en) in enumerate(_STEMS):
            f.write(f"{stem}a\t{en}\n")
            f.write(f"{stem}ile\t" + " ".join(_translate_word(i, "ile")) + "\n")
    paths["lexicon"] = lex

    # 'pretrained' high-resource embeddings over the target vocabulary
    en_words = sorted({w for i in range(len(_STEMS)) for suf in _SUFFIXES
                       for w in _translate_word(i, suf)})
    hr = rng.uniform(-1, 1, (len(en_words), hr_dim))
    hr_path = out / "hr.vec"
    # they stand in for downloaded vectors, so they are word2vec text
    with open(hr_path, "w", encoding="utf-8") as f:
        f.write(f"{len(en_words)} {hr_dim}\n")
        for word, row in zip(en_words, hr):
            f.write(word + " " + " ".join("%.6g" % v for v in row) + "\n")
    paths["hr_embeddings"] = hr_path
    return paths


def toy_config_text(paths, out_dir):
    """Config file contents wiring the toy dataset into the full pipeline at
    desk scale."""
    return f"""\
data.bible_src={paths['bible_src']}
data.bible_tgt={paths['bible_tgt']}
data.corpus2_src={paths['oxex_src']}
data.corpus2_tgt={paths['oxex_tgt']}
data.lexicon={paths['lexicon']}
data.hr_embeddings={paths['hr_embeddings']}
run.out={out_dir}
subword.dim=16
subword.epochs=2
subword.buckets=500
subword.subsample=0
nmt.emb_dim=16
nmt.hidden=16
nmt.dropout=0.1
nmt.max_decode_len=16
train.lr=0.003
train.batch=32
train.epochs=16
finetune.epochs=3
"""
