import math

import numpy as np
import pytest

from xhembed.corpus import BOS, EOS, PAD
from xhembed.embedstore import EmbeddingMatrix
from xhembed.nmt import Seq2SeqConfig, build_model
from xhembed.nmt import model as nmt_model
from xhembed.nmt.data import Batch, encode_pairs, make_batch, make_batches
from xhembed.nmt.model import (attention_backward, attention_keys,
                               attention_output, bridge, decoder_step,
                               encode_for_decoding, forward_loss,
                               forward_losses, gru_backward, gru_forward,
                               param_shapes, zero_grads)

import gradcheck
from conftest import grid_models, random_pairs, stack, tiny_model, vocab_of
from einsum_attention import einsum_attention_backward, einsum_attention_output
from gradcheck import gradient_check
from memory import traced_peak


class TestData:
    def test_target_framed(self):
        sv = vocab_of(["x"])
        tv = vocab_of(["y"])
        pairs = encode_pairs([(["x"], ["y", "y"])], sv, tv)
        assert pairs == [([4], [BOS, 4, 4, EOS])]

    def test_batch_padding_and_mask(self):
        batch = make_batch([([4, 5], [BOS, 4, EOS]), ([6], [BOS, EOS])])
        assert batch.src_ids.tolist() == [[4, 5], [6, PAD]]
        assert batch.src_mask.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert batch.tgt_ids[1].tolist() == [BOS, EOS, PAD]

    def test_batches_partition(self):
        pairs = [([4], [BOS, EOS])] * 10
        batches = make_batches(pairs, 3)
        assert [len(b.src_ids) for b in batches] == [3, 3, 3, 1]

    def test_shuffle_reproducible(self):
        pairs = [([4 + i], [BOS, EOS]) for i in range(20)]
        a = make_batches(pairs, 4, np.random.default_rng(1))
        b = make_batches(pairs, 4, np.random.default_rng(1))
        assert all(np.array_equal(x.src_ids, y.src_ids) for x, y in zip(a, b))


def per_tensor_build_model(cfg, src_emb, vt, scale):
    """build_model as it was written tensor by tensor before it drew from
    param_shapes: the oracle for its names, order and random draws."""
    rng = np.random.default_rng(cfg.seed)
    h, h2, e = cfg.hidden, cfg.hidden // 2, cfg.emb_dim
    params = {"src_emb": src_emb.copy(),
              "tgt_emb": rng.uniform(-scale, scale, (vt, e))}

    def gru(prefix, in_dim, hid):
        ws, us = [], []
        for _ in range(3):                  # W_z, U_z, W_r, U_r, W_c, U_c
            ws.append(rng.uniform(-scale, scale, (in_dim, hid)))
            us.append(rng.uniform(-scale, scale, (hid, hid)))
        params[f"{prefix}_W"] = np.concatenate(ws, axis=1)
        params[f"{prefix}_U"] = np.concatenate(us, axis=1)
        params[f"{prefix}_b"] = np.zeros(3 * hid)

    for l in range(cfg.enc_layers):
        gru(f"enc_{l}_f", e if l == 0 else h, h2)
        gru(f"enc_{l}_b", e if l == 0 else h, h2)
    for l in range(cfg.dec_layers):
        gru(f"dec_{l}", e if l == 0 else h, h)
        params[f"bridge_{l}_W"] = rng.uniform(-scale, scale, (h, h))
        params[f"bridge_{l}_b"] = np.zeros(h)
    params["att_W"] = rng.uniform(-scale, scale, (h, h))
    params["comb_W"] = rng.uniform(-scale, scale, (2 * h, h))
    params["comb_b"] = np.zeros(h)
    params["out_W"] = rng.uniform(-scale, scale, (h, vt))
    params["out_b"] = np.zeros(vt)
    return params


class TestBuildModel:
    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            Seq2SeqConfig(hidden=7)

    @pytest.mark.parametrize("max_decode_len", [0, -1])
    def test_max_decode_len_below_one_rejected(self, max_decode_len):
        with pytest.raises(ValueError, match="max_decode_len must be >= 1"):
            Seq2SeqConfig(max_decode_len=max_decode_len)

    def test_source_rows_copied(self):
        cfg, params, sv, _ = tiny_model()
        assert params["src_emb"].shape == (len(sv), cfg.emb_dim)

    @pytest.mark.parametrize("layers", [(1, 1), (2, 2), (3, 2)])
    def test_keys_are_param_names(self, layers):
        cfg, params, _, _ = tiny_model(enc_layers=layers[0], dec_layers=layers[1])
        assert list(params) == list(param_shapes(cfg, 0, 0))

    @pytest.mark.parametrize("layers", [(1, 1), (2, 2), (3, 2)])
    def test_checkpoint_shapes_are_build_model_shapes(self, layers):
        cfg, params, sv, tv = tiny_model(n_src=11, n_tgt=13, emb=6, hidden=10,
                                         enc_layers=layers[0], dec_layers=layers[1])
        assert param_shapes(cfg, len(sv), len(tv)) == \
            {name: t.shape for name, t in params.items()}

    @pytest.mark.parametrize("layers", [(1, 1), (2, 2), (3, 2)])
    def test_draws_as_written_per_tensor(self, layers):
        cfg, params, sv, tv = tiny_model(enc_layers=layers[0], dec_layers=layers[1])
        want = per_tensor_build_model(cfg, params["src_emb"], len(tv), 0.5)
        assert list(params) == list(want)
        for name, t in want.items():
            assert np.array_equal(params[name], t.astype(np.float32)), name

    def test_stacked_gru_tensors(self):
        cfg, params, _, _ = tiny_model()
        assert len(params) == 29
        h, e = cfg.hidden, cfg.emb_dim
        assert params["enc_0_f_W"].shape == (e, 3 * h // 2)
        assert params["enc_1_b_U"].shape == (h // 2, 3 * h // 2)
        assert params["dec_1_W"].shape == (h, 3 * h)
        assert params["dec_0_b"].shape == (3 * h,)

    def test_vocab_order_mismatch_rejected(self):
        cfg, _, sv, tv = tiny_model()
        rng = np.random.default_rng(0)
        wrong = EmbeddingMatrix(list(reversed(sv.id_to_token)),
                                rng.normal(size=(len(sv), cfg.emb_dim)))
        with pytest.raises(ValueError):
            build_model(cfg, wrong, tv, source_vocab=sv)


class TestForwardLoss:
    def test_uniform_logits_give_log_vocab(self):
        cfg, params, sv, tv = tiny_model()
        params["out_W"][:] = 0.0
        params["out_b"][:] = 0.0
        rng = np.random.default_rng(0)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
        loss, _ = forward_loss(params, cfg, batch)
        assert loss == pytest.approx(math.log(len(tv)), abs=1e-12)

    def test_deterministic(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(1)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 3, rng), sv, tv))
        l1, g1 = forward_loss(params, cfg, batch)
        l2, g2 = forward_loss(params, cfg, batch)
        assert l1 == l2
        assert all(np.array_equal(g1[k], g2[k]) for k in g1)

    def test_source_pad_extension_invariant(self):
        cfg, params, sv, tv = tiny_model()
        pair = ([4, 5, 6], [BOS, 4, 5, EOS])
        base = make_batch([pair])
        loss0, _ = forward_loss(params, cfg, base)
        src = np.concatenate([base.src_ids, np.full((1, 2), PAD)], axis=1)
        mask = np.concatenate([base.src_mask, np.zeros((1, 2))], axis=1)
        padded = Batch(src, mask, base.tgt_ids)
        loss1, _ = forward_loss(params, cfg, padded)
        assert loss1 == pytest.approx(loss0, abs=1e-12)

    def test_target_pad_extension_invariant(self):
        cfg, params, sv, tv = tiny_model()
        pair = ([4, 5], [BOS, 4, EOS])
        base = make_batch([pair])
        loss0, _ = forward_loss(params, cfg, base)
        tgt = np.concatenate([base.tgt_ids, np.full((1, 3), PAD)], axis=1)
        padded = Batch(base.src_ids, base.src_mask, tgt)
        loss1, _ = forward_loss(params, cfg, padded)
        assert loss1 == pytest.approx(loss0, abs=1e-12)

    def test_masked_source_content_ignored(self):
        cfg, params, sv, tv = tiny_model()
        batch = make_batch([([4, 5], [BOS, 4, EOS]), ([6], [BOS, 5, EOS])])
        loss0, _ = forward_loss(params, cfg, batch)
        batch.src_ids[1, 1] = 9  # padded slot, mask stays 0
        loss1, _ = forward_loss(params, cfg, batch)
        assert loss1 == pytest.approx(loss0, abs=1e-12)

    def test_no_target_tokens_rejected(self):
        cfg, params, _, _ = tiny_model()
        batch = make_batch([([4], [BOS])])
        with pytest.raises(ValueError):
            forward_loss(params, cfg, batch)

    def test_dropout_changes_loss(self):
        cfg, params, sv, tv = tiny_model(dropout=0.5)
        rng = np.random.default_rng(2)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
        clean, _ = forward_loss(params, cfg, batch)
        noisy, _ = forward_loss(params, cfg, batch, rng=np.random.default_rng(3))
        assert noisy != clean


class TestGradients:
    def test_finite_difference_check(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(4)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
        err = gradient_check(params, cfg, batch, sample_size=100, seed=0)
        assert err < 1e-4

    def test_float32_model_checked_in_float64(self):
        """A float32 model is checked on a float64 copy: the same error as
        the check of that copy, and the model left as it was."""
        cfg, params, sv, tv = tiny_model()
        p32 = {k: v.astype(np.float32) for k, v in params.items()}
        before = {k: v.copy() for k, v in p32.items()}
        rng = np.random.default_rng(4)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
        err = gradient_check(p32, cfg, batch, sample_size=30, seed=0)
        assert err == gradient_check(params, cfg, batch, sample_size=30, seed=0)
        assert err < 1e-4
        for name, t in p32.items():
            assert t.dtype == np.float32 and np.array_equal(t, before[name]), name

    def test_every_tensor_gets_nonzero_grad(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(5)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 6, rng), sv, tv))
        _, grads = forward_loss(params, cfg, batch)
        assert set(grads) == set(params)
        for name, g in grads.items():
            assert np.any(g != 0), name
            if name.startswith(("enc_", "dec_")):
                # each [z|r|c] gate block of a stacked GRU tensor
                for gate, block in zip("zrc", np.split(g, 3, axis=-1)):
                    assert np.any(block != 0), (name, gate)

    @staticmethod
    def gradcheck_error(**model_kwargs):
        cfg, params, sv, tv = tiny_model(**model_kwargs)
        rng = np.random.default_rng(4)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
        return gradient_check(params, cfg, batch, sample_size=100, seed=0)

    def test_finite_difference_check_deep(self):
        assert self.gradcheck_error(enc_layers=3, dec_layers=3) < 1e-4

    def test_finite_difference_check_dropout(self, monkeypatch):
        """Dropout on, with the same masks on every forward pass."""
        def fixed_mask_loss(params, cfg, batch, rng=None, compute_grads=True):
            return forward_loss(params, cfg, batch, rng=np.random.default_rng(7),
                                compute_grads=compute_grads)
        monkeypatch.setattr(gradcheck, "forward_loss", fixed_mask_loss)
        assert self.gradcheck_error(dropout=0.3) < 1e-4


class TestModelAxis:
    """Models stacked on a leading axis run as if each ran alone."""

    @staticmethod
    def grid_batch(n, dtype=np.float64, **model_kwargs):
        cfg, models, sv, tv = grid_models(n, dropout=0.3, **model_kwargs)
        models = [{k: t.astype(dtype) for k, t in m.items()} for m in models]
        rng = np.random.default_rng(4)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 6, rng), sv, tv))
        return cfg, models, batch

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slices_are_single_models(self, dtype, monkeypatch):
        """Each slice of the stacked loss and gradients is the model's own,
        bit for bit, with dropout on: one mask per site, shared by all.  So
        it is with the output layer in one block and in blocks of 5 rows,
        which a stack of models sizes as one model does."""
        cfg, models, batch = self.grid_batch(3, dtype)
        n_rows, n_out = batch.tgt_ids[:, 1:].size, models[0]["out_W"].shape[-1]
        assert n_rows > 10 and n_rows % 5     # three or more blocks, one ragged
        for rows in (n_rows, 5):
            monkeypatch.setattr(nmt_model, "OUT_BLOCK_BYTES",
                                rows * n_out * np.dtype(dtype).itemsize)
            losses, grads = forward_losses(stack(models), cfg, batch,
                                           rng=np.random.default_rng(7))
            assert losses.shape == (3,) and losses.dtype == dtype
            for i, params in enumerate(models):
                loss, want = forward_loss(params, cfg, batch,
                                          rng=np.random.default_rng(7))
                assert float(losses[i]) == loss
                for name, g in want.items():
                    assert grads[name][i].dtype == g.dtype
                    assert np.array_equal(grads[name][i], g), (rows, i, name)

    def test_finite_difference_check_stacked(self, monkeypatch):
        """The gradients of a stack of two models against finite differences
        of the sum of their losses, dropout on with fixed masks: a tensor of
        one model moves that model's loss alone."""
        def summed_loss(params, cfg, batch, rng=None, compute_grads=True):
            losses, grads = forward_losses(params, cfg, batch,
                                           rng=np.random.default_rng(7),
                                           compute_grads=compute_grads)
            return float(losses.sum()), grads
        monkeypatch.setattr(gradcheck, "forward_loss", summed_loss)
        cfg, models, batch = self.grid_batch(2)
        assert gradient_check(stack(models), cfg, batch, sample_size=100,
                              seed=0) < 1e-4

    def test_perturbing_one_model_leaves_the_other(self):
        cfg, models, batch = self.grid_batch(2)
        stacked = stack(models)
        rng = np.random.default_rng(3)
        moved = {k: t.copy() for k, t in stacked.items()}
        for t in moved.values():
            t[0] += rng.normal(scale=0.1, size=t[0].shape)
        runs = [forward_losses(p, cfg, batch, rng=np.random.default_rng(7))
                for p in (stacked, moved)]
        (losses, grads), (moved_losses, moved_grads) = runs
        assert moved_losses[0] != losses[0]
        assert moved_losses[1] == losses[1]
        for name, g in grads.items():
            assert np.array_equal(moved_grads[name][1], g[1]), name


    def test_peak_memory_of_a_stacked_step(self):
        """One forward and backward pass of three stacked models (hidden 32,
        16 pairs of 10 to 13 tokens each side, dropout on) peaks at 6.51 MB
        as tracemalloc sees it.  With the attention backward's temporaries
        held until it returned it peaked at 6.75 MB; with float dropout
        masks in the caches and the output layer's logits and `+ out_b`
        transient side by side as well, at 6.95 MB; and with caches that
        also kept every step's r * h_prev and the attention context, at
        7.80 MB.  The bound sits 6% above the first and 0.7% below 6.95 MB."""
        cfg, models, sv, tv = grid_models(3, hidden=32, emb=16, n_tgt=20,
                                          dropout=0.3)
        rng = np.random.default_rng(0)
        pairs = random_pairs(sv, tv, 16, rng, src_len=(10, 14), tgt_len=(10, 14))
        batch = make_batch(encode_pairs(pairs, sv, tv))
        _, peak = traced_peak(forward_losses, stack(models), cfg, batch,
                              np.random.default_rng(1))
        assert peak < 6.9e6

    def test_peak_memory_of_a_wide_output_layer(self):
        """A step whose (B*T, V) logits (600 x 4000 floats, 19.2 MB) are
        several OUT_BLOCK_BYTES (4 MiB) blocks: one model of hidden 32, dropout
        on, peaks at 11.12 MB.  Holding every row's logits at once, beside
        the `a @ out_W` product they were formed from, it peaked at 43.0 MB.
        The bound sits 8% above the measurement, and below the 26 MB of the
        step's other arrays (its peak less one block) and one whole logits
        buffer."""
        cfg, params, sv, tv = tiny_model(n_tgt=4000, hidden=32, emb=16,
                                         dropout=0.3)
        rng = np.random.default_rng(0)
        pairs = random_pairs(sv, tv, 40, rng, src_len=(10, 14), tgt_len=(13, 15))
        batch = make_batch(encode_pairs(pairs, sv, tv))
        assert batch.tgt_ids[:, 1:].size == 600
        _, peak = traced_peak(forward_losses, params, cfg, batch,
                              np.random.default_rng(1))
        assert peak < 12e6


class TestDecoderStep:
    @pytest.mark.parametrize("cfg_kwargs", [
        {"dropout": 0.0}, {"dropout": 0.3}, {"dropout": 0.3, "dec_layers": 3}],
        ids=["no-dropout", "dropout", "dropout-3-dec-layers"])
    def test_chained_steps_give_forward_loss(self, cfg_kwargs):
        """Teacher-forced decoder_step calls score the gold tokens as the
        training loss without dropout does: the step runs the training
        decoder stack, every layer of it, and never drops units."""
        cfg, params, sv, tv = tiny_model(**cfg_kwargs)
        batch = make_batch([([4, 5, 6, 7], [BOS, 4, 9, 5, 6, EOS])])
        loss, _ = forward_loss(params, cfg, batch, compute_grads=False)
        h_enc, state = encode_for_decoding(params, cfg, batch.src_ids,
                                           batch.src_mask)
        gold = []
        tgt = batch.tgt_ids[0]
        for prev, want in zip(tgt[:-1], tgt[1:]):
            lp, state = decoder_step(params, cfg, state, np.array([prev]),
                                     h_enc, batch.src_mask)
            gold.append(lp[0, want])
        assert abs(loss - (-np.mean(gold))) <= 1e-12


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def reference_gru_step(u, xw_t, h_prev):
    """One step from the input projection xw_t (B,3H) and h_prev (B,H).
    Returns (h, [z|r], c)."""
    hid = h_prev.shape[1]
    zr = _sigmoid(xw_t[:, :2 * hid] + h_prev @ u[:, :2 * hid])
    z, r = zr[:, :hid], zr[:, hid:]
    c = np.tanh(xw_t[:, 2 * hid:] + (r * h_prev) @ u[:, 2 * hid:])
    h = (1.0 - z) * h_prev + z * c
    return h, zr, c


def reference_gru_forward(p, prefix, x, mask, h0, reverse=False):
    """One GRU over (B,T,I) input, one step per call of reference_gru_step;
    masked positions carry the previous state through.  The per-step GRU
    the fused time loop replaced, kept as its oracle.  Returns (hs (B,T,H),
    h_last, cache)."""
    xw = x @ p[f"{prefix}_W"] + p[f"{prefix}_b"]
    if reverse:
        xw = xw[:, ::-1]
        mask = mask[:, ::-1]
    u = p[f"{prefix}_U"]
    b, t_len, _ = x.shape
    hid = u.shape[0]
    hs = np.empty((b, t_len, hid))
    zrs = np.empty((b, t_len, 2 * hid))
    cs = np.empty_like(hs)
    h_prevs = np.empty_like(hs)
    h = h0
    for t in range(t_len):
        m = mask[:, t:t + 1]
        h_prevs[:, t] = h
        h_new, zrs[:, t], cs[:, t] = reference_gru_step(u, xw[:, t], h)
        h = m * h_new + (1.0 - m) * h
        hs[:, t] = h
    cache = (x, mask, h_prevs, zrs, cs, reverse)
    out = hs[:, ::-1] if reverse else hs
    return out, h, cache


def reference_gru_backward(p, prefix, cache, dhs, dh_last, grads):
    """Backward through reference_gru_forward, step by step.  Returns (dx in
    original order, dh0)."""
    x, mask, h_prevs, zrs, cs, reverse = cache
    u = p[f"{prefix}_U"]
    b, t_len, hid = h_prevs.shape
    if reverse:
        dhs = dhs[:, ::-1]
    u_zr, u_c = u[:, :2 * hid], u[:, 2 * hid:]
    da = np.empty((b, t_len, 3 * hid))
    dh = dh_last.copy()
    for t in range(t_len - 1, -1, -1):
        m = mask[:, t:t + 1]
        h_prev, c = h_prevs[:, t], cs[:, t]
        z, r = zrs[:, t, :hid], zrs[:, t, hid:]
        dh_total = dh + dhs[:, t]
        dh_new = dh_total * m
        dh_prev = dh_total * (1.0 - m)
        dz = dh_new * (c - h_prev)
        dc = dh_new * z
        dh_prev = dh_prev + dh_new * (1.0 - z)
        dac = dc * (1.0 - c * c)
        drh = dac @ u_c.T
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da[:, t, :hid] = dz * z * (1.0 - z)
        da[:, t, hid:2 * hid] = dr * r * (1.0 - r)
        da[:, t, 2 * hid:] = dac
        dh = dh_prev + da[:, t, :2 * hid] @ u_zr.T
    h_flat = h_prevs.reshape(-1, hid)
    r_flat = zrs.reshape(-1, 2 * hid)[:, hid:]
    da_flat = da.reshape(-1, 3 * hid)
    g_u = grads[f"{prefix}_U"]
    g_u[:, :2 * hid] += h_flat.T @ da_flat[:, :2 * hid]
    g_u[:, 2 * hid:] += (r_flat * h_flat).T @ da_flat[:, 2 * hid:]
    if reverse:
        da_flat = da[:, ::-1].reshape(-1, 3 * hid)
    w = p[f"{prefix}_W"]
    grads[f"{prefix}_W"] += x.reshape(-1, w.shape[0]).T @ da_flat
    grads[f"{prefix}_b"] += da_flat.sum(axis=0)
    dx = (da_flat @ w.T).reshape(x.shape)
    return dx, dh


def assert_close(got, want, what):
    err = np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)
    assert err <= 1e-12, (what, err)


def ragged_mask(lens):
    """The (B, S) source mask of rows of the given lengths."""
    return (np.arange(max(lens)) < np.array(lens)[:, None]).astype(np.float64)


class TestGruScan:
    """The one-loop GRU scan against the per-step reference GRU."""

    @staticmethod
    def check(params, prefixes, x, mask, seed):
        rng = np.random.default_rng(seed)
        b, t_len, _ = x.shape
        hid = params[f"{prefixes[0]}_U"].shape[0]
        n = len(prefixes)
        h0 = rng.normal(size=(b, n * hid))
        dhs = rng.normal(size=(b, t_len, n * hid))
        dh_last = rng.normal(size=(b, n * hid))
        ref_mask = np.ones((b, t_len)) if mask is None else mask
        want_grads, grads = zero_grads(params), zero_grads(params)
        outs, lasts, dxs, dh0s = [], [], [], []
        for d, q in enumerate(prefixes):
            cols = slice(d * hid, (d + 1) * hid)
            out, last, cache = reference_gru_forward(
                params, q, x, ref_mask, h0[:, cols], reverse=d == 1)
            dx, dh0 = reference_gru_backward(params, q, cache, dhs[:, :, cols],
                                             dh_last[:, cols], want_grads)
            outs.append(out)
            lasts.append(last)
            dxs.append(dx)
            dh0s.append(dh0)

        out, last, cache = gru_forward(params, prefixes, x, mask, h0)
        dx, dh0 = gru_backward(params, cache, dhs, dh_last, grads)
        assert_close(out, np.concatenate(outs, axis=2), "outputs")
        assert_close(last, np.concatenate(lasts, axis=1), "final states")
        assert_close(dx, sum(dxs), "dx")
        assert_close(dh0, np.concatenate(dh0s, axis=1), "dh0")
        for q in prefixes:
            for name in "WUb":
                key = f"{q}_{name}"
                assert np.any(want_grads[key] != 0), key
                assert_close(grads[key], want_grads[key], key)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_direction_without_mask(self, seed):
        cfg, params, _, _ = tiny_model(seed=seed)
        x = np.random.default_rng(seed).normal(size=(3, 5, cfg.emb_dim))
        self.check(params, ("dec_0",), x, None, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bidirectional_pair_on_ragged_batch(self, seed):
        cfg, params, _, _ = tiny_model(seed=seed)
        rng = np.random.default_rng(seed)
        lens = [6, 2, 4, 1]
        x = rng.normal(size=(len(lens), max(lens), cfg.emb_dim))
        self.check(params, ("enc_0_f", "enc_0_b"), x, ragged_mask(lens), seed)


class TestAttention:
    """The attention's batched matmuls against the einsum oracle, in float64."""

    NAMES = ("comb_W", "comb_b", "att_W")

    def check(self, params, h_top, h_enc, src_mask, proj=None, da=None):
        """attention_output and attention_backward, the latter on the grads
        `da` (random when not given), against the oracle, to 1e-12 of each
        array's largest value; returns their outputs."""
        a, cache = attention_output(params, h_top, h_enc, src_mask, proj)
        want_a, want_cache = einsum_attention_output(params, h_top, h_enc,
                                                     src_mask, proj)
        for got, want, what in zip((a, *cache), (want_a, *want_cache),
                                   ("a", "proj", "alpha", "comb_in", "cached a")):
            assert_close(got, want, what)
        if da is None:
            da = np.random.default_rng(0).normal(size=a.shape)
        grads = {k: np.zeros_like(params[k]) for k in self.NAMES}
        want_grads = {k: np.zeros_like(params[k]) for k in self.NAMES}
        dh = attention_backward(params, cache, h_top, h_enc, da, grads)
        want_dh = einsum_attention_backward(params, want_cache, h_top, h_enc,
                                            da, want_grads)
        for got, want, what in zip(dh, want_dh, ("dh_top", "dh_enc")):
            assert_close(got, want, what)
        for k in self.NAMES:
            assert np.any(want_grads[k] != 0), k
            assert_close(grads[k], want_grads[k], k)
        return a, dh, grads

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ragged_source_mask(self, seed):
        cfg, params, _, _ = tiny_model(seed=seed)
        rng = np.random.default_rng(seed)
        lens = [6, 2, 4, 1]
        h_top = rng.normal(size=(len(lens), 5, cfg.hidden))
        h_enc = rng.normal(size=(len(lens), max(lens), cfg.hidden))
        self.check(params, h_top, h_enc, ragged_mask(lens))

    def test_stack_of_three_models(self):
        """Three models with their own attention tensors, each slice also the
        model's own result bit for bit."""
        models = [tiny_model(seed=s)[1] for s in (1, 2, 3)]
        rng = np.random.default_rng(5)
        lens = [3, 5, 1]
        hid = models[0]["att_W"].shape[0]
        h_top = rng.normal(size=(3, len(lens), 4, hid))
        h_enc = rng.normal(size=(3, len(lens), max(lens), hid))
        mask, da = ragged_mask(lens), rng.normal(size=h_top.shape)
        a, dh, grads = self.check(stack(models), h_top, h_enc, mask, da=da)
        for i, params in enumerate(models):
            want_a, want_dh, want_grads = self.check(params, h_top[i], h_enc[i],
                                                     mask, da=da[i])
            assert np.array_equal(a[i], want_a)
            for got, want in zip(dh, want_dh):
                assert np.array_equal(got[i], want)
            for k, g in want_grads.items():
                assert np.array_equal(grads[k][i], g), k

    def test_decoder_step_layout(self):
        """The (N, k, H) hypotheses of N sources with the given attention
        keys, as decoder_step passes them."""
        cfg, params, _, _ = tiny_model(seed=3)
        rng = np.random.default_rng(3)
        lens = [4, 1, 6]
        h_enc = rng.normal(size=(len(lens), max(lens), cfg.hidden))
        h_top = rng.normal(size=(len(lens), 5, cfg.hidden))
        proj = attention_keys(params, h_enc)
        self.check(params, h_top, h_enc, ragged_mask(lens), proj=proj)


class TestScatterAddRows:
    """The sorted segment sums of _scatter_add_rows against np.add.at."""

    @staticmethod
    def case(lead, pad_share, dtype, seed):
        """(table, ids, rows): ids (6, 9) over 12 types, so ids repeat, a
        share of them PAD; rows (*lead, 6, 9, 5)."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 12, (6, 9))
        ids[rng.random(ids.shape) < pad_share] = PAD
        rows = rng.normal(size=(*lead, *ids.shape, 5)).astype(dtype)
        table = np.zeros((*lead, 12, 5), dtype)
        return table, ids, rows

    @staticmethod
    def add_at(table, ids, rows):
        want = table.copy()
        np.add.at(want, (..., ids, slice(None)), rows)
        return want

    @pytest.mark.parametrize("lead", [(), (1,), (5,)], ids=["no-axis", "M1", "M5"])
    @pytest.mark.parametrize("pad_share", [0.0, 0.7], ids=["few-pads", "pad-heavy"])
    def test_float64_matches_add_at(self, lead, pad_share):
        table, ids, rows = self.case(lead, pad_share, np.float64, seed=len(lead))
        table += np.random.default_rng(9).normal(size=table.shape)
        want = self.add_at(table, ids, rows)
        nmt_model._scatter_add_rows(table, ids, rows)
        assert_close(table, want, "table")

    @pytest.mark.parametrize("lead", [(), (1,), (5,)], ids=["no-axis", "M1", "M5"])
    @pytest.mark.parametrize("pad_share", [0.0, 0.7], ids=["few-pads", "pad-heavy"])
    def test_float32_within_summation_bound(self, lead, pad_share):
        """In float32 each sum of k rows r_i is within (k - 1) eps sum |r_i|
        of the exact sum, the bound of any order of k - 1 float32 additions,
        and so is np.add.at's; models of a stack get their own sums bit for
        bit."""
        table, ids, rows = self.case(lead, pad_share, np.float32, seed=len(lead))
        want = self.add_at(table, ids, rows)
        nmt_model._scatter_add_rows(table, ids, rows)
        r64 = rows.astype(np.float64)
        exact = self.add_at(np.zeros(table.shape), ids, r64)
        abs_sum = self.add_at(np.zeros(table.shape), ids, np.abs(r64))
        k = np.bincount(ids.reshape(-1), minlength=table.shape[-2])[:, None]
        bound = np.maximum(k - 1, 0) * np.finfo(np.float32).eps * abs_sum
        assert k.max() > 2                          # some sums can round otherwise
        assert np.all(np.abs(table - exact) <= bound)
        assert np.all(np.abs(want - exact) <= bound)
        for i in range(len(table) if lead else 0):
            alone = np.zeros_like(table[i])
            nmt_model._scatter_add_rows(alone, ids, rows[i])
            assert np.array_equal(table[i], alone)


class _Dropout:
    """Inverted dropout; a None rng or zero rate means identity."""

    def __init__(self, rate, rng):
        self.rate = rate
        self.rng = rng
        self.masks = []

    def apply(self, x):
        if self.rng is None or self.rate <= 0.0:
            self.masks.append(None)
            return x
        m = (self.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        self.masks.append(m)
        return x * m

    def backward(self, i, dx):
        m = self.masks[i]
        return dx if m is None else dx * m


def encode(params, cfg, src_ids, src_mask, drop):
    """Returns (encoder outputs (B,S,H), per-layer final states, cache)."""
    x = drop.apply(params["src_emb"][src_ids])
    h0 = np.zeros((src_ids.shape[0], cfg.hidden))
    layer_caches = []
    finals = []
    for l in range(cfg.enc_layers):
        out, h_last, cache = gru_forward(params, (f"enc_{l}_f", f"enc_{l}_b"),
                                         x, src_mask, h0)
        finals.append(h_last)
        layer_caches.append(cache)
        if l < cfg.enc_layers - 1:
            x = drop.apply(out)
        else:
            x = out
    return x, finals, layer_caches


def unfused_forward_loss(params, cfg, batch, rng=None):
    """forward_loss as it was before the output layer was fused: separate
    log-prob, prob and dlogits arrays and 3-D output matmuls.  The oracle for
    the fused, in-place output layer, and, through its own encoder loop and
    dropout masks found by position in one list, for the GRU stacks of
    stack_forward and stack_backward."""
    drop = _Dropout(cfg.dropout, rng)
    src_ids, src_mask = batch.src_ids, batch.src_mask
    y_in, y_out = batch.tgt_ids[:, :-1], batch.tgt_ids[:, 1:]
    out_mask = (y_out != PAD).astype(np.float64)
    n_tokens = out_mask.sum()
    h_enc, enc_finals, enc_caches = encode(params, cfg, src_ids, src_mask, drop)
    n_enc_drops = len(drop.masks)
    dec_h0, bridge_cache = bridge(params, cfg, enc_finals)
    x = drop.apply(params["tgt_emb"][y_in])
    dec_caches = []
    for l in range(cfg.dec_layers):
        hs, _, c = gru_forward(params, (f"dec_{l}",), x, None, dec_h0[l])
        dec_caches.append(c)
        x = drop.apply(hs) if l < cfg.dec_layers - 1 else hs
    h_top = x

    a, att_cache = attention_output(params, h_top, h_enc, src_mask)
    a_d = drop.apply(a)
    logits = a_d @ params["out_W"] + params["out_b"]
    logits -= logits.max(axis=2, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=2, keepdims=True))
    log_probs = logits - log_z
    bsz, t_len = y_out.shape
    gold = log_probs[np.arange(bsz)[:, None], np.arange(t_len)[None, :], y_out]
    loss = -(gold * out_mask).sum() / n_tokens

    grads = zero_grads(params)
    probs = np.exp(log_probs)
    dlogits = probs * out_mask[:, :, None]
    dlogits[np.arange(bsz)[:, None], np.arange(t_len)[None, :], y_out] -= out_mask
    dlogits /= n_tokens
    h = cfg.hidden
    grads["out_W"] += a_d.reshape(-1, h).T @ dlogits.reshape(bsz * t_len, -1)
    grads["out_b"] += dlogits.sum(axis=(0, 1))
    da_d = dlogits @ params["out_W"].T
    da = drop.backward(len(drop.masks) - 1, da_d)
    dh_top, dh_enc = attention_backward(params, att_cache, h_top, h_enc, da, grads)

    dx_upper = dh_top
    d_h0 = [None] * cfg.dec_layers
    for l in range(cfg.dec_layers - 1, -1, -1):
        dx, d_h0[l] = gru_backward(params, dec_caches[l], dx_upper,
                                   np.zeros_like(dec_h0[l]), grads)
        if l > 0:
            dx_upper = drop.backward(n_enc_drops + l, dx)
        else:
            np.add.at(grads["tgt_emb"], y_in, drop.backward(n_enc_drops, dx))
    d_enc_finals = [np.zeros_like(f) for f in enc_finals]
    for l in range(cfg.dec_layers):
        src, out = bridge_cache[l]
        dpre = d_h0[l] * (1.0 - out * out)
        grads[f"bridge_{l}_W"] += src.T @ dpre
        grads[f"bridge_{l}_b"] += dpre.sum(axis=0)
        d_enc_finals[min(l, len(enc_finals) - 1)] += dpre @ params[f"bridge_{l}_W"].T
    dout = dh_enc
    for l in range(cfg.enc_layers - 1, -1, -1):
        dx, _ = gru_backward(params, enc_caches[l], dout, d_enc_finals[l], grads)
        if l > 0:
            dout = drop.backward(l, dx)
        else:
            np.add.at(grads["src_emb"], src_ids, drop.backward(0, dx))
    return loss, grads


# (dropout on, (encoder, decoder) layers); the 2+2 cases keep the ids they had
# before the test covered other depths
UNFUSED_CASES = [pytest.param(on, layers, id=f"{on}" if layers == (2, 2)
                              else f"{on}-{layers[0]}x{layers[1]}")
                 for layers in [(2, 2), (3, 1), (1, 3)] for on in (False, True)]


class TestFusedOutputLayer:
    """The in-place output layer and the GRU stacks against the unfused
    forward_loss and its per-stack loops."""

    @staticmethod
    def check(cfg, params, batch, rng):
        """forward_loss, its loss bit for bit and its gradients to 1e-12,
        against unfused_forward_loss with fresh dropout masks from rng();
        returns the loss."""
        loss, grads = forward_loss(params, cfg, batch, rng=rng())
        want_loss, want = unfused_forward_loss(params, cfg, batch, rng=rng())
        assert loss == want_loss
        assert loss == forward_loss(params, cfg, batch, rng=rng(),
                                    compute_grads=False)[0]
        assert set(grads) == set(want)
        for name, g in want.items():
            err = np.abs(grads[name] - g).max() / max(np.abs(g).max(), 1e-300)
            assert err <= 1e-12, (name, err)
        return loss

    @staticmethod
    def case(seed, dropout_on, layers=(2, 2)):
        cfg, params, sv, tv = tiny_model(seed=seed, dropout=0.3,
                                         enc_layers=layers[0], dec_layers=layers[1])
        rng = np.random.default_rng(seed)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 6, rng), sv, tv))
        def rng():
            return np.random.default_rng(7) if dropout_on else None
        return cfg, params, batch, rng

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dropout_on,layers", UNFUSED_CASES)
    def test_matches_unfused(self, seed, dropout_on, layers):
        self.check(*self.case(seed, dropout_on, layers))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dropout_on", [False, True])
    def test_matches_unfused_over_blocks(self, seed, dropout_on, monkeypatch):
        """The output layer over three or more blocks of rows, the last one
        ragged: still the unfused pass, and the loss of one block bit for
        bit."""
        cfg, params, batch, rng = self.case(seed, dropout_on)
        one_block = self.check(cfg, params, batch, rng)
        n_rows, n_out = batch.tgt_ids[:, 1:].size, params["out_W"].shape[-1]
        rows = next(r for r in range(n_rows // 3, 0, -1) if n_rows % r)
        monkeypatch.setattr(nmt_model, "OUT_BLOCK_BYTES",
                            rows * n_out * params["out_W"].itemsize)
        assert self.check(cfg, params, batch, rng) == one_block
