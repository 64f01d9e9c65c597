import math

import numpy as np
import pytest

from xhembed.nmt.checkpoint import load_checkpoint, save_checkpoint
from xhembed.nmt.data import encode_pairs, make_batch, make_batches
from xhembed.nmt.model import forward_loss
from xhembed.nmt.train import Adam, EpochRecord, TrainConfig, fine_tune, \
    perplexity, train, train_models

from conftest import grid_models, random_pairs, stack, tiny_model


def small_task(seed=0, n_train=24, n_dev=8):
    cfg, params, sv, tv = tiny_model(seed=seed)
    rng = np.random.default_rng(seed)
    tr = encode_pairs(random_pairs(sv, tv, n_train, rng), sv, tv)
    dv = encode_pairs(random_pairs(sv, tv, n_dev, rng), sv, tv)
    return cfg, params, tr, dv


class TestAdam:
    """Adam steps models stacked on a leading axis; a single model is a stack
    of one."""

    def test_first_step_moves_against_gradient(self):
        params = {"w": np.array([[1.0, -2.0]])}
        opt = Adam(params, lr=0.1)
        opt.step(params, {"w": np.array([[3.0, -4.0]])}, clip=10.0)
        # bias-corrected first step has magnitude ~lr in each coordinate
        assert np.allclose(params["w"][0], [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_clip_rescales_global_norm(self):
        params = {"a": np.zeros((1, 2)), "b": np.zeros((1, 2))}
        opt = Adam(params, lr=1.0)
        g = {"a": np.array([[3.0, 0.0]]), "b": np.array([[0.0, 4.0]])}
        opt.step(params, g, clip=1.0)  # norm 5 -> scaled by 0.2
        # the scaled gradient, not the raw one, feeds the moments
        assert np.allclose(opt.m["a"][0], [0.1 * 0.6, 0.0])
        assert np.allclose(opt.m["b"][0], [0.0, 0.1 * 0.8])

    def test_no_clip_below_threshold(self):
        params = {"a": np.array([[0.0]])}
        opt = Adam(params, lr=1.0)
        opt.step(params, {"a": np.array([[0.5]])}, clip=10.0)
        assert np.allclose(opt.m["a"][0], [0.05])

    @pytest.mark.parametrize("clip", [1e3, 0.5])
    def test_in_place_step_matches_formula(self, clip):
        """Five steps of the in-place update against the out-of-place
        formula it replaced; clip 0.5 is active on every step, 1e3 never."""
        _, params, _, _ = tiny_model()
        rng = np.random.default_rng(3)
        want = {k: v.copy() for k, v in params.items()}
        stacked = {k: v[None] for k, v in params.items()}   # views of params
        opt = Adam(stacked, lr=1e-2)
        m = {k: np.zeros_like(v) for k, v in want.items()}
        v = {k: np.zeros_like(x) for k, x in want.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
        for t in range(1, 6):
            grads = {k: rng.normal(size=x.shape) for k, x in want.items()}
            ref = {k: g.copy() for k, g in grads.items()}
            opt.step(stacked, {k: g[None] for k, g in grads.items()}, clip=clip)
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

    def test_stacked_clip_is_per_model(self):
        """Two models on a leading axis, clip 1 on each: only model 0's
        gradients exceed it and are scaled, and every step of each slice is
        the step of that model alone, bit for bit."""
        _, models, _, _ = grid_models(2)
        models = [{k: t.astype(np.float32) for k, t in m.items()} for m in models]
        stacked = stack(models)
        opt = Adam(stacked, lr=1e-2)
        singles = [(stack([m]), Adam(stack([m]), lr=1e-2)) for m in models]
        rng = np.random.default_rng(3)
        for _ in range(3):
            grads = [{k: rng.normal(scale=s, size=t.shape).astype(np.float32)
                      for k, t in models[0].items()} for s in (1.0, 1e-3)]
            norms = [math.sqrt(sum(float(np.vdot(g, g)) for g in gs.values()))
                     for gs in grads]
            assert norms[0] > 1.0 > norms[1]
            stacked_grads = stack(grads)
            raw = {k: g.copy() for k, g in stacked_grads.items()}
            m_before = {k: m.copy() for k, m in opt.m.items()}
            opt.step(stacked, stacked_grads, clip=1.0)
            for k in raw:    # m = b1 m + (1 - b1) g, g unscaled for model 1
                assert np.array_equal(
                    opt.m[k][1],
                    np.float32(0.9) * m_before[k][1] + np.float32(0.1) * raw[k][1])
            for (params, single), g in zip(singles, grads):
                single.step(params, stack([g]), clip=1.0)
        for i, (params, single) in enumerate(singles):
            for k, t in params.items():
                assert np.array_equal(stacked[k][i], t[0]), (i, k)
                assert np.array_equal(opt.m[k][i], single.m[k][0]), (i, k)
                assert np.array_equal(opt.v[k][i], single.v[k][0]), (i, k)


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


class TestLockstep:
    def test_matches_separate_runs(self):
        """Three models that differ in src_emb, dropout on, trained and then
        fine-tuned in lockstep: each model's parameters and history are those
        of its own train and fine_tune runs, byte for byte.  Two models stop
        early in training, so the stack shrinks from 3 to 2 to 1."""
        cfg, models, sv, tv = grid_models(3, seed=3, dropout=0.3)
        models = [{k: t.astype(np.float32) for k, t in m.items()} for m in models]
        rng = np.random.default_rng(3)
        data = [encode_pairs(random_pairs(sv, tv, n, rng), sv, tv)
                for n in (24, 8, 16, 8)]
        hypers = [TrainConfig(lr=3e-2, epochs=8, patience=2, batch_size=8, seed=1),
                  TrainConfig(lr=1e-2, epochs=4, patience=1, batch_size=8, seed=2)]
        want = [(m, None) for m in models]
        got = [({k: t.copy() for k, t in m.items()}, None) for m in models]
        for fit, (tr, dv), hyper in zip((train, fine_tune), (data[:2], data[2:]),
                                        hypers):
            want = [fit({k: t.copy() for k, t in p.items()}, cfg, tr, dv, hyper)
                    for p, _ in want]
            got = train_models([p for p, _ in got], cfg, tr, dv, hyper)
            for (p, hist), (q, want_hist) in zip(got, want):
                assert hist == want_hist
                assert set(p) == set(q)
                for k, t in q.items():
                    assert p[k].dtype == t.dtype and np.array_equal(p[k], t), k
            if fit is train:
                assert sorted(len(h) for _, h in want) == [5, 6, 8]
