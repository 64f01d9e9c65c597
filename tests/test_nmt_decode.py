from dataclasses import dataclass, field

import numpy as np
import pytest

from xhembed.corpus import BOS, EOS, PAD, UNK
from xhembed.metrics import corpus_bleu
from xhembed.nmt import decode
from xhembed.nmt.data import encode_pairs, make_batch
from xhembed.nmt.decode import (beam_search, best_hypothesis, greedy_decode,
                                translate)
from xhembed.nmt.model import decoder_step, encode_for_decoding
from xhembed.nmt.train import TrainConfig, train

from conftest import random_pairs, tiny_model


def sequence_score(params, cfg, src_ids, tokens):
    """Cumulative log-probability of `tokens` followed by EOS."""
    batch = make_batch([(list(src_ids), [BOS])])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    total = 0.0
    prev = BOS
    for tok in list(tokens) + [EOS]:
        lp, state = decoder_step(params, cfg, state, np.array([prev]),
                                 h_enc, batch.src_mask)
        total += float(lp[0][tok])
        prev = tok
    return total


@dataclass
class RefHypothesis:
    tokens: list
    log_prob: float
    state: list = field(repr=False, default=None)


def reference_beam(params, cfg, src_ids, beam, max_len=None):
    """Beam search with one batch-1 decoder_step per live hypothesis per step,
    the loop the batched search replaced.  Returns the best RefHypothesis."""
    max_len = max_len or cfg.max_decode_len
    batch = make_batch([(list(src_ids), [BOS])])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    live = [RefHypothesis([BOS], 0.0, state)]
    finished = []
    for _ in range(max_len):
        candidates = []
        for hyp in live:
            lp, new_state = decoder_step(params, cfg, hyp.state,
                                         np.array([hyp.tokens[-1]]), h_enc,
                                         batch.src_mask)
            lp = lp[0].copy()
            lp[[PAD, BOS]] = -np.inf
            top = np.argsort(-lp)[:beam]
            for tok in top:
                if lp[tok] == -np.inf:
                    continue
                candidates.append(RefHypothesis(
                    hyp.tokens + [int(tok)], hyp.log_prob + float(lp[tok]),
                    new_state))
        candidates.sort(key=lambda h: -h.log_prob)
        live = []
        for hyp in candidates[:beam]:
            if hyp.tokens[-1] == EOS:
                finished.append(hyp)
            else:
                live.append(hyp)
        if not live:
            break
        if finished and max(h.log_prob for h in finished) >= live[0].log_prob:
            break
    pool = finished if finished else live
    return max(pool, key=lambda h: h.log_prob)


def assert_matches_reference(params, cfg, src_ids, beam):
    want = reference_beam(params, cfg, src_ids, beam)
    got = best_hypothesis(params, cfg, src_ids, beam)
    assert got.tokens == want.tokens
    assert abs(got.log_prob - want.log_prob) <= 1e-12


class TestGreedy:
    def test_never_emits_pad_or_bos(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(0)
        for src, _ in random_pairs(sv, tv, 20, rng):
            out = greedy_decode(params, cfg, [sv.id(t) for t in src])
            assert PAD not in out and BOS not in out and EOS not in out

    def test_respects_max_len(self):
        cfg, params, sv, tv = tiny_model()
        out = greedy_decode(params, cfg, [4, 5], max_len=3)
        assert len(out) <= 3

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_len_below_one_rejected(self, max_len):
        cfg, params, sv, tv = tiny_model()
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            greedy_decode(params, cfg, [4, 5], max_len=max_len)


class TestBeam:
    def test_beam_one_equals_greedy(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(1)
        for src, _ in random_pairs(sv, tv, 50, rng):
            ids = [sv.id(t) for t in src]
            assert beam_search(params, cfg, ids, beam=1) == \
                greedy_decode(params, cfg, ids)

    def test_deterministic(self):
        cfg, params, sv, tv = tiny_model()
        ids = [4, 5, 6]
        assert beam_search(params, cfg, ids) == beam_search(params, cfg, ids)

    @pytest.mark.parametrize("beam", [0, -3])
    def test_beam_below_one_rejected(self, beam):
        cfg, params, sv, tv = tiny_model()
        with pytest.raises(ValueError, match="beam must be >= 1"):
            beam_search(params, cfg, [4, 5, 6], beam=beam)

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_len_below_one_rejected(self, max_len):
        cfg, params, sv, tv = tiny_model()
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            best_hypothesis(params, cfg, [4, 5, 6], max_len=max_len)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beam", [2, 3, 5])
    def test_batched_equals_per_hypothesis_search(self, seed, beam):
        cfg, params, sv, tv = tiny_model(seed=seed)
        rng = np.random.default_rng(seed)
        for src, _ in random_pairs(sv, tv, 50, rng):
            assert_matches_reference(params, cfg, [sv.id(t) for t in src], beam)

    def test_ties_go_to_the_lower_token_id(self):
        """With a zero output layer every extension ties, so the lowest
        unbanned ids win: UNK forever at beam 1, as greedy's argmax, and at
        beam 3 EOS finishes on the first step level with the best live."""
        cfg, params, sv, tv = tiny_model()
        params["out_W"][:] = 0.0
        params["out_b"][:] = 0.0
        ids = [4, 5, 6]
        assert beam_search(params, cfg, ids, beam=1, max_len=5) == \
            greedy_decode(params, cfg, ids, max_len=5) == [UNK] * 5
        assert best_hypothesis(params, cfg, ids, beam=3).tokens == [BOS, EOS]


class TestBatchedStep:
    def test_batch_rows_equal_single_calls(self):
        """decoder_step on 5 rows gives each row's batch-1 result; BLAS may
        reorder the sums between batch sizes, so not bit for bit."""
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(5)
        batch = make_batch([(list(rng.integers(4, len(sv), n)), [BOS])
                            for n in (3, 6, 4, 5, 2)])
        h_enc, _ = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
        state = [rng.uniform(-1, 1, (5, cfg.hidden)) for _ in range(cfg.dec_layers)]
        prev = rng.integers(4, len(tv), 5)
        lp, new_state = decoder_step(params, cfg, state, prev, h_enc, batch.src_mask)
        for i in range(5):
            lp_i, state_i = decoder_step(params, cfg, [s[i:i + 1] for s in state],
                                         prev[i:i + 1], h_enc[i:i + 1],
                                         batch.src_mask[i:i + 1])
            np.testing.assert_allclose(lp[i], lp_i[0], rtol=0, atol=1e-12)
            for s, s_i in zip(new_state, state_i):
                np.testing.assert_allclose(s[i], s_i[0], rtol=0, atol=1e-12)

    @pytest.fixture
    def step_batches(self, monkeypatch):
        """Batch size of every decoder_step call the decode module makes."""
        sizes = []

        def counting(params, cfg, state, y_prev, h_enc, src_mask):
            sizes.append(len(y_prev))
            return decoder_step(params, cfg, state, y_prev, h_enc, src_mask)
        monkeypatch.setattr(decode, "decoder_step", counting)
        return sizes

    def test_beam_makes_one_call_per_step(self, step_batches):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(2)
        largest = 0
        for src, _ in random_pairs(sv, tv, 20, rng):
            step_batches.clear()
            beam_search(params, cfg, [sv.id(t) for t in src], beam=5, max_len=6)
            assert 1 <= len(step_batches) <= 6
            assert max(step_batches) <= 5
            largest = max(largest, max(step_batches))
        assert largest > 1

    def test_greedy_calls_at_batch_one(self, step_batches):
        cfg, params, sv, tv = tiny_model()
        greedy_decode(params, cfg, [4, 5, 6], max_len=6)
        assert step_batches and set(step_batches) == {1}


class TestTranslateFile:
    def test_writes_one_line_per_sentence(self, tmp_path):
        cfg, params, sv, tv = tiny_model()
        sents = [["w1", "w2"], [], ["w3"]]
        out = tmp_path / "hyp.txt"
        translate(params, cfg, sents, sv, tv, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == ""
        for line in lines:
            for tok in line.split():
                assert tok in tv

    def test_unknown_source_word_maps_to_unk(self, tmp_path):
        cfg, params, sv, tv = tiny_model()
        out = tmp_path / "hyp.txt"
        # must not raise: unseen words go through the UNK id
        assert sv.id("neverseen") == UNK
        translate(params, cfg, [["neverseen"]], sv, tv, out)
        assert len(out.read_text().splitlines()) == 1

    def test_failure_part_way_keeps_old_file(self, tmp_path, monkeypatch):
        cfg, params, sv, tv = tiny_model()
        out = tmp_path / "hyp.txt"
        out.write_bytes(b"old hypotheses\n")
        calls = []

        def failing_beam_search(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("decoder failed")
            return beam_search(*args, **kwargs)

        monkeypatch.setattr(decode, "beam_search", failing_beam_search)
        with pytest.raises(RuntimeError, match="decoder failed"):
            translate(params, cfg, [["w1"], ["w2"], ["w3"]], sv, tv, out)
        assert len(calls) == 2
        assert out.read_bytes() == b"old hypotheses\n"
        assert [p.name for p in tmp_path.iterdir()] == ["hyp.txt"]


@pytest.fixture(scope="module")
def copy_model():
    """Model overfit on a tiny copy task; decoding should echo the source."""
    cfg, params, sv, tv = tiny_model(n_src=6, n_tgt=6, emb=16, hidden=32,
                                     seed=4, max_decode_len=12)
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(60):
        toks = [sv.tokens()[int(rng.integers(6))]
                for _ in range(int(rng.integers(2, 6)))]
        pairs.append((toks, [t.replace("w", "v") for t in toks]))
    ids = encode_pairs(pairs, sv, tv)
    best, _ = train(params, cfg, ids, ids[:12],
                    TrainConfig(lr=5e-3, batch_size=8, epochs=40, patience=50))
    return cfg, best, sv, tv, pairs


class TestCopyTask:
    def test_overfits_to_high_bleu(self, copy_model):
        cfg, params, sv, tv, pairs = copy_model
        hyps = []
        refs = []
        for src, tgt in pairs[:30]:
            out = beam_search(params, cfg, [sv.id(t) for t in src])
            hyps.append([tv.token(i) for i in out])
            refs.append(tgt)
        assert corpus_bleu(hyps, refs) > 90.0

    def test_beam_matches_or_beats_greedy_score(self, copy_model):
        cfg, params, sv, tv, pairs = copy_model
        for src, _ in pairs[:10]:
            ids = [sv.id(t) for t in src]
            g = greedy_decode(params, cfg, ids)
            b = beam_search(params, cfg, ids, beam=5)
            assert sequence_score(params, cfg, ids, b) >= \
                sequence_score(params, cfg, ids, g) - 1e-9

    @pytest.mark.parametrize("beam", [2, 3, 5])
    def test_batched_equals_per_hypothesis_search(self, copy_model, beam):
        cfg, params, sv, tv, pairs = copy_model
        for src, _ in pairs[:30]:
            assert_matches_reference(params, cfg, [sv.id(t) for t in src], beam)
