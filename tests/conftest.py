import numpy as np
import pytest

from xhembed.corpus import Vocabulary
from xhembed.embedstore import EmbeddingMatrix
from xhembed.nmt import Seq2SeqConfig, build_model
from xhembed.xmap import MappingModel, PreprocessRecord


def vocab_of(words):
    return Vocabulary({w: 5 for w in words})


def fixed_mapping(w_x, w_z):
    """A MappingModel over w_x and w_z whose preprocessing records have zero
    column means, so both sides only unit-normalize rows before mapping."""
    zero = PreprocessRecord(np.zeros(len(w_x)))
    return MappingModel(w_x, w_z, zero, zero, 1.0)


def tiny_model(n_src=16, n_tgt=16, emb=8, hidden=8, seed=1, init_scale=0.5,
               **cfg_kwargs):
    """Small seq2seq at a random (non-degenerate) point, its float32 tensors
    cast to float64 so the oracle tests can hold 1e-12 tolerances."""
    rng = np.random.default_rng(seed)
    sv = vocab_of([f"w{i}" for i in range(n_src)])
    tv = vocab_of([f"v{i}" for i in range(n_tgt)])
    cfg_kwargs.setdefault("dropout", 0.0)
    cfg = Seq2SeqConfig(hidden=hidden, emb_dim=emb, seed=seed, **cfg_kwargs)
    init = EmbeddingMatrix(sv.id_to_token,
                           rng.uniform(-init_scale, init_scale, (len(sv), emb)))
    params = build_model(cfg, init, tv, init_scale=init_scale, source_vocab=sv)
    params = {name: t.astype(np.float64) for name, t in params.items()}
    return cfg, params, sv, tv


def random_pairs(sv, tv, n, rng, src_len=(3, 7), tgt_len=(2, 6)):
    pairs = []
    src_words = sv.tokens()
    tgt_words = tv.tokens()
    for _ in range(n):
        src = [src_words[int(rng.integers(len(src_words)))]
               for _ in range(int(rng.integers(*src_len)))]
        tgt = [tgt_words[int(rng.integers(len(tgt_words)))]
               for _ in range(int(rng.integers(*tgt_len)))]
        pairs.append((src, tgt))
    return pairs


def grid_models(n, seed=1, **model_kwargs):
    """tiny_model and n - 1 copies of it with other source embeddings: models
    that differ only in src_emb, as the strategies of one grid do."""
    cfg, params, sv, tv = tiny_model(seed=seed, **model_kwargs)
    rng = np.random.default_rng(seed + 100)
    shape = params["src_emb"].shape
    models = [params] + [dict(params, src_emb=rng.uniform(-0.5, 0.5, shape))
                         for _ in range(n - 1)]
    return cfg, models, sv, tv


def stack(models):
    """The models' tensors on a leading model axis."""
    return {k: np.stack([m[k] for m in models]) for k in models[0]}


def micro_dataset(tmp_path):
    """Tiny deterministic corpus wired into a config for fast pipeline runs."""
    rng = np.random.default_rng(0)
    words = ["toza", "tozile", "meka", "mekile", "vusa", "vusile"]
    en = {"toza": "go", "tozile": "went", "meka": "see",
          "mekile": "saw", "vusa": "rise", "vusile": "rose"}
    with open(tmp_path / "b.src", "w") as fs, open(tmp_path / "b.tgt", "w") as ft:
        for _ in range(40):
            sent = [words[int(rng.integers(6))] for _ in range(3)]
            fs.write(" ".join(sent) + "\n")
            ft.write(" ".join(en[w] for w in sent) + "\n")
    with open(tmp_path / "c.src", "w") as fs, open(tmp_path / "c.tgt", "w") as ft:
        for _ in range(20):
            sent = [words[int(rng.integers(6))] for _ in range(2)]
            fs.write(" ".join(sent) + "\n")
            ft.write(" ".join(en[w] for w in sent) + "\n")
    with open(tmp_path / "lex.tsv", "w") as f:
        for w, e in en.items():
            f.write(f"{w}\t{e}\n")
    hr_words = sorted(set(en.values()))
    with open(tmp_path / "hr.vec", "w") as f:
        for w in hr_words:
            vec = " ".join("%.4f" % v for v in rng.uniform(-1, 1, 8))
            f.write(f"{w} {vec}\n")
    return (f"data.bible_src={tmp_path}/b.src\n"
            f"data.bible_tgt={tmp_path}/b.tgt\n"
            f"data.corpus2_src={tmp_path}/c.src\n"
            f"data.corpus2_tgt={tmp_path}/c.tgt\n"
            f"data.lexicon={tmp_path}/lex.tsv\n"
            f"data.hr_embeddings={tmp_path}/hr.vec\n"
            "subword.dim=8\nsubword.epochs=1\nsubword.buckets=100\n"
            "subword.subsample=0\n"
            "nmt.emb_dim=8\nnmt.hidden=8\nnmt.dropout=0\nnmt.max_decode_len=6\n"
            "nmt.beam=2\ntrain.epochs=1\ntrain.batch=16\nfinetune.epochs=1\n")
