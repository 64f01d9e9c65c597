import math

import numpy as np
import pytest

from xhembed.nmt.checkpoint import load_checkpoint, save_checkpoint
from xhembed.nmt.data import encode_pairs, make_batch, make_batches
from xhembed.nmt.model import forward_loss
from xhembed.nmt.train import Adam, EpochRecord, TrainConfig, fine_tune, \
    perplexity, train

from conftest import random_pairs, tiny_model


def small_task(seed=0, n_train=24, n_dev=8):
    cfg, params, sv, tv = tiny_model(seed=seed)
    rng = np.random.default_rng(seed)
    tr = encode_pairs(random_pairs(sv, tv, n_train, rng), sv, tv)
    dv = encode_pairs(random_pairs(sv, tv, n_dev, rng), sv, tv)
    return cfg, params, tr, dv


class TestAdam:
    def test_first_step_moves_against_gradient(self):
        params = {"w": np.array([1.0, -2.0])}
        opt = Adam(params, lr=0.1)
        opt.step(params, {"w": np.array([3.0, -4.0])})
        # bias-corrected first step has magnitude ~lr in each coordinate
        assert np.allclose(params["w"], [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_clip_rescales_global_norm(self):
        params = {"a": np.zeros(2), "b": np.zeros(2)}
        opt = Adam(params, lr=1.0)
        g = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        opt.step(params, g, clip=1.0)  # norm 5 -> scaled by 0.2
        # the scaled gradient, not the raw one, feeds the moments
        assert np.allclose(opt.m["a"], [0.1 * 0.6, 0.0])
        assert np.allclose(opt.m["b"], [0.0, 0.1 * 0.8])

    def test_no_clip_below_threshold(self):
        params = {"a": np.array([0.0])}
        opt = Adam(params, lr=1.0)
        opt.step(params, {"a": np.array([0.5])}, clip=10.0)
        assert np.allclose(opt.m["a"], [0.05])

    @pytest.mark.parametrize("clip", [None, 1e3, 0.5])
    def test_in_place_step_matches_formula(self, clip):
        """Five steps of the in-place update against the out-of-place
        formula it replaced; clip 0.5 is active on every step, 1e3 never."""
        _, params, _, _ = tiny_model()
        rng = np.random.default_rng(3)
        want = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, lr=1e-2)
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v = {k: np.zeros_like(x) for k, x in want.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
        for t in range(1, 6):
            grads = {k: rng.normal(size=x.shape) for k, x in want.items()}
            ref = {k: g.copy() for k, g in grads.items()}
            opt.step(params, grads, clip=clip)
            if clip is not None:
                norm = math.sqrt(sum(float(np.sum(g * g)) for g in ref.values()))
                assert (norm > clip) == (clip < 1)
                if norm > clip:
                    ref = {k: g * (clip / norm) for k, g in ref.items()}
            for k, p in want.items():
                g = ref[k]
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                p -= lr * (m[k] / (1 - b1 ** t)) / (np.sqrt(v[k] / (1 - b2 ** t)) + eps)
        for k, p in want.items():
            err = np.abs(params[k] - p).max() / np.abs(p).max()
            assert err <= 1e-12, (k, err)


class TestPerplexity:
    def test_single_batch_is_exp_loss(self):
        cfg, params, tr, _ = small_task()
        batch = make_batch(tr[:4])
        loss, _ = forward_loss(params, cfg, batch, compute_grads=False)
        assert perplexity(params, cfg, [batch]) == pytest.approx(
            math.exp(loss), rel=1e-12)

    def test_token_weighted_across_batches(self):
        cfg, params, tr, _ = small_task()
        whole = perplexity(params, cfg, make_batches(tr, len(tr)))
        split = perplexity(params, cfg, make_batches(tr, 1))
        assert split == pytest.approx(whole, rel=1e-9)


class TestTrainLoop:
    def test_loss_decreases(self):
        cfg, params, tr, dv = small_task()
        _, history = train(params, cfg, tr, dv, TrainConfig(epochs=5, batch_size=8))
        assert history[-1].train_loss < history[0].train_loss

    def test_returns_best_dev_checkpoint(self):
        cfg, params, tr, dv = small_task()
        best, history = train(params, cfg, tr, dv,
                              TrainConfig(epochs=6, batch_size=8))
        dev_batches = make_batches(dv, 8)
        best_ppl = perplexity(best, cfg, dev_batches)
        assert best_ppl == pytest.approx(min(h.dev_ppl for h in history), rel=1e-9)

    def test_deterministic(self):
        a = small_task(seed=3)
        b = small_task(seed=3)
        hyper = TrainConfig(epochs=3, batch_size=8, seed=1)
        best_a, hist_a = train(a[1], a[0], a[2], a[3], hyper)
        best_b, hist_b = train(b[1], b[0], b[2], b[3], hyper)
        assert [h.train_loss for h in hist_a] == [h.train_loss for h in hist_b]
        assert all(np.array_equal(best_a[k], best_b[k]) for k in best_a)

    def test_early_stopping_with_frozen_params(self):
        cfg, params, tr, dv = small_task()
        hyper = TrainConfig(lr=0.0, epochs=50, patience=3, batch_size=8)
        _, history = train(params, cfg, tr, dv, hyper)
        # constant dev perplexity: first epoch sets the best, then 3 stalls
        assert len(history) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts(self):
        cfg, params, tr, dv = small_task()
        params["out_b"][:] = np.inf
        with pytest.raises(RuntimeError):
            train(params, cfg, tr, dv, TrainConfig(epochs=1, batch_size=8))


class TestFineTune:
    def test_zero_epochs_copies_unchanged(self):
        cfg, params, tr, dv = small_task()
        out, history = fine_tune(params, cfg, tr, dv, TrainConfig(epochs=0))
        assert history == []
        assert all(np.array_equal(out[k], params[k]) for k in params)
        assert all(out[k] is not params[k] for k in params)

    def test_continues_training(self):
        cfg, params, tr, dv = small_task()
        before = perplexity(params, cfg, make_batches(dv, 8))
        out, _ = fine_tune(params, cfg, tr, dv,
                           TrainConfig(lr=1e-3, epochs=4, batch_size=8))
        after = perplexity(out, cfg, make_batches(dv, 8))
        assert after < before


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        cfg, params, tr, dv = small_task()
        history = [EpochRecord(1, 3.25, 17.5), EpochRecord(2, 2.5, float("nan"))]
        save_checkpoint(tmp_path / "ck.txt", cfg, params, history)
        cfg2, params2, hist2 = load_checkpoint(tmp_path / "ck.txt")
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for k in params:
            assert params2[k].shape == params[k].shape
            assert np.array_equal(params2[k], params[k]), k
        assert hist2[0] == history[0]
        assert hist2[1].epoch == 2 and math.isnan(hist2[1].dev_ppl)

    def test_loaded_params_reproduce_loss(self, tmp_path):
        cfg, params, tr, _ = small_task()
        save_checkpoint(tmp_path / "ck.txt", cfg, params)
        _, params2, _ = load_checkpoint(tmp_path / "ck.txt")
        batch = make_batch(tr[:4])
        l1, _ = forward_loss(params, cfg, batch, compute_grads=False)
        l2, _ = forward_loss(params2, cfg, batch, compute_grads=False)
        assert l1 == pytest.approx(l2, abs=1e-12)
