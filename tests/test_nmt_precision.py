"""The model runs in its parameters' dtype: float32 as build_model makes it,
float64 as the oracle tests and older checkpoints have it."""

import numpy as np
import pytest

from xhembed.nmt.checkpoint import load_checkpoint, save_checkpoint
from xhembed.nmt.data import encode_pairs, make_batch
from xhembed.nmt.model import decoder_step, encode_for_decoding, forward_loss
from xhembed.nmt.train import Adam, TrainConfig, train

from conftest import random_pairs, tiny_model

# float32 against float64 on the same tensors: the loss and every gradient
# agree to within this many float32 roundings of the largest value involved.
# Over seeds 1-8 of these models, with dropout on and off, the measured error
# is at most 1 eps on the loss and 9 eps on a gradient.
TOL = 64 * np.finfo(np.float32).eps


def model_in(dtype, dropout=0.0, seed=1):
    cfg, params, sv, tv = tiny_model(seed=seed, dropout=dropout)
    rng = np.random.default_rng(seed)
    pairs = encode_pairs(random_pairs(sv, tv, 6, rng), sv, tv)
    return cfg, {k: v.astype(dtype) for k, v in params.items()}, pairs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_output_in_the_model_dtype(tmp_path, dtype):
    """Nothing the model computes or stores is promoted or demoted: gradients,
    Adam's moments, decoder log-probs and states, trained and saved tensors."""
    cfg, params, pairs = model_in(dtype, dropout=0.3)
    batch = make_batch(pairs)
    loss, grads = forward_loss(params, cfg, batch, rng=np.random.default_rng(0))
    assert type(loss) is float
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}

    stacked = {k: t[None] for k, t in params.items()}
    opt = Adam(stacked, lr=1e-2)
    opt.step(stacked, {k: g[None] for k, g in grads.items()}, clip=1.0)
    for moments in (opt.m, opt.v, params):
        assert {t.dtype for t in moments.values()} == {np.dtype(dtype)}

    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    log_probs, state = decoder_step(params, cfg, state, batch.tgt_ids[:, 0],
                                    h_enc, batch.src_mask)
    assert log_probs.dtype == dtype and h_enc.dtype == dtype
    assert {s.dtype for s in state} == {np.dtype(dtype)}

    best, history = train(params, cfg, pairs, pairs[:2],
                          TrainConfig(epochs=1, batch_size=4))
    assert {t.dtype for t in best.values()} == {np.dtype(dtype)}
    assert all(type(r.dev_ppl) is float for r in history)
    save_checkpoint(tmp_path / "ck.npz", cfg, best, history)
    _, loaded, _ = load_checkpoint(tmp_path / "ck.npz")
    for name, t in best.items():
        assert loaded[name].dtype == dtype and np.array_equal(loaded[name], t), name


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("seed", [1, 2])
def test_float32_matches_float64(seed, dropout):
    """The same tensors in float32 and float64 give the same loss and
    gradients, to TOL relative to each tensor's largest gradient."""
    cfg, p64, pairs = model_in(np.float64, dropout, seed)
    p32 = {k: v.astype(np.float32) for k, v in p64.items()}
    batch = make_batch(pairs)
    l64, g64 = forward_loss(p64, cfg, batch, np.random.default_rng(0))
    l32, g32 = forward_loss(p32, cfg, batch, np.random.default_rng(0))
    assert abs(l32 - l64) <= TOL * abs(l64)
    for name, g in g64.items():
        err = np.abs(g32[name] - g).max()
        assert err <= TOL * np.abs(g).max(), (name, err / np.abs(g).max())
