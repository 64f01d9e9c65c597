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
