import math

import numpy as np
import pytest

from xhembed.corpus import BOS, EOS, PAD
from xhembed.embedstore import EmbeddingMatrix
from xhembed.nmt import Seq2SeqConfig, build_model, gradcheck
from xhembed.nmt.checkpoint import expected_shapes
from xhembed.nmt.data import Batch, encode_pairs, make_batch, make_batches
from xhembed.nmt.gradcheck import gradient_check
from xhembed.nmt.model import forward_loss, param_names

from conftest import random_pairs, tiny_model, vocab_of


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
        assert [len(b.src_lens) for b in batches] == [3, 3, 3, 1]

    def test_shuffle_reproducible(self):
        pairs = [([4 + i], [BOS, EOS]) for i in range(20)]
        a = make_batches(pairs, 4, np.random.default_rng(1))
        b = make_batches(pairs, 4, np.random.default_rng(1))
        assert all(np.array_equal(x.src_ids, y.src_ids) for x, y in zip(a, b))


class TestBuildModel:
    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            Seq2SeqConfig(hidden=7)

    def test_source_rows_copied(self):
        cfg, params, sv, _ = tiny_model()
        assert params["src_emb"].shape == (len(sv), cfg.emb_dim)

    @pytest.mark.parametrize("layers", [(1, 1), (2, 2), (3, 2)])
    def test_keys_are_param_names(self, layers):
        cfg, params, _, _ = tiny_model(enc_layers=layers[0], dec_layers=layers[1])
        assert list(params) == param_names(cfg)

    @pytest.mark.parametrize("layers", [(1, 1), (2, 2), (3, 2)])
    def test_checkpoint_shapes_are_build_model_shapes(self, layers):
        cfg, params, sv, tv = tiny_model(n_src=11, n_tgt=13, emb=6, hidden=10,
                                         enc_layers=layers[0], dec_layers=layers[1])
        assert expected_shapes(cfg, len(sv), len(tv)) == \
            {name: t.shape for name, t in params.items()}

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
        padded = Batch(src, mask, base.src_lens, base.tgt_ids, base.tgt_lens)
        loss1, _ = forward_loss(params, cfg, padded)
        assert loss1 == pytest.approx(loss0, abs=1e-12)

    def test_target_pad_extension_invariant(self):
        cfg, params, sv, tv = tiny_model()
        pair = ([4, 5], [BOS, 4, EOS])
        base = make_batch([pair])
        loss0, _ = forward_loss(params, cfg, base)
        tgt = np.concatenate([base.tgt_ids, np.full((1, 3), PAD)], axis=1)
        padded = Batch(base.src_ids, base.src_mask, base.src_lens,
                       tgt, base.tgt_lens)
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
        noisy, _ = forward_loss(params, cfg, batch, dropout_on=True,
                                rng=np.random.default_rng(3))
        assert noisy != clean


class TestGradients:
    def test_finite_difference_check(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(4)
        batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
        err = gradient_check(params, cfg, batch, sample_size=100, seed=0)
        assert err < 1e-4

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
        def fixed_mask_loss(params, cfg, batch, dropout_on=False, rng=None,
                            compute_grads=True):
            return forward_loss(params, cfg, batch, dropout_on=True,
                                rng=np.random.default_rng(7),
                                compute_grads=compute_grads)
        monkeypatch.setattr(gradcheck, "forward_loss", fixed_mask_loss)
        assert self.gradcheck_error(dropout=0.3) < 1e-4
