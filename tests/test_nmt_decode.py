from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from xhembed.corpus import BOS, EOS, PAD, UNK
from xhembed.metrics import corpus_bleu
from xhembed.nmt import decode, model as nmt_model
from xhembed.nmt.data import encode_pairs, make_batch
from xhembed.nmt.decode import beam_search, best_hypotheses, translate
from xhembed.nmt.model import decoder_step, encode_for_decoding
from xhembed.nmt.train import TrainConfig, train

import greedy
from conftest import random_pairs, tiny_model
from greedy import greedy_decode
from memory import traced_peak


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


def reference_beam(params, cfg, src_ids, beam):
    """Beam search with one batch-1 decoder_step per live hypothesis per step,
    the loop the batched search replaced.  Returns the best RefHypothesis."""
    batch = make_batch([(list(src_ids), [BOS])])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    live = [RefHypothesis([BOS], 0.0, state)]
    finished = []
    for _ in range(cfg.max_decode_len):
        candidates = []
        for hyp in live:
            lp, new_state = decoder_step(params, cfg, hyp.state,
                                         np.array([hyp.tokens[-1]]), h_enc,
                                         batch.src_mask)
            lp = lp[0].copy()
            lp[[PAD, BOS]] = -np.inf
            top = np.argsort(-lp, kind="stable")[:beam]   # ties: lower id
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
    [got] = best_hypotheses(params, cfg, [src_ids], beam)
    assert got.tokens == want.tokens
    assert abs(got.log_prob - want.log_prob) <= 1e-12


def assert_batch_matches_reference(params, cfg, sources, beam):
    """`sources` searched together give each one's oracle result."""
    got = best_hypotheses(params, cfg, sources, beam)
    for src, hyp in zip(sources, got):
        want = reference_beam(params, cfg, src, beam)
        assert hyp.tokens == want.tokens
        assert abs(hyp.log_prob - want.log_prob) <= 1e-12
    return got


class TestGreedy:
    def test_never_emits_pad_or_bos(self):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(0)
        for src, _ in random_pairs(sv, tv, 20, rng):
            out = greedy_decode(params, cfg, [sv.id(t) for t in src])
            assert PAD not in out and BOS not in out and EOS not in out

    def test_respects_max_len(self):
        cfg, params, sv, tv = tiny_model()
        out = greedy_decode(params, replace(cfg, max_decode_len=3), [4, 5])
        assert len(out) <= 3


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

    def test_empty_source_rejected(self, monkeypatch):
        """An empty source is a ValueError naming its index, raised before
        anything is encoded."""
        cfg, params, sv, tv = tiny_model()

        def no_encoding(*args):
            raise AssertionError("encoded")

        monkeypatch.setattr(decode, "encode_for_decoding", no_encoding)
        with pytest.raises(ValueError, match=r"empty source: sources\[0\]"):
            beam_search(params, cfg, [])
        with pytest.raises(ValueError, match=r"empty source: sources\[1\]"):
            best_hypotheses(params, cfg, [[4, 5], [], [6]])

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
        short = replace(cfg, max_decode_len=5)
        assert beam_search(params, short, ids, beam=1) == \
            greedy_decode(params, short, ids) == [UNK] * 5
        assert best_hypotheses(params, cfg, [ids], beam=3)[0].tokens == [BOS, EOS]


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
        """Batch size of every decoder_step call the decode module and the
        greedy oracle make."""
        sizes = []

        def counting(params, cfg, state, y_prev, *source):
            sizes.append(len(y_prev))
            return decoder_step(params, cfg, state, y_prev, *source)
        monkeypatch.setattr(decode, "decoder_step", counting)
        monkeypatch.setattr(greedy, "decoder_step", counting)
        return sizes

    def test_beam_makes_one_call_per_step(self, step_batches):
        cfg, params, sv, tv = tiny_model()
        rng = np.random.default_rng(2)
        largest = 0
        short = replace(cfg, max_decode_len=6)
        for src, _ in random_pairs(sv, tv, 20, rng):
            step_batches.clear()
            beam_search(params, short, [sv.id(t) for t in src], beam=5)
            assert 1 <= len(step_batches) <= 6
            assert max(step_batches) <= 5
            largest = max(largest, max(step_batches))
        assert largest > 1

    def test_translate_makes_one_call_per_step(self, step_batches, tmp_path):
        """S sentences in one chunk take at most max_decode_len decoder_step
        calls, not S times as many, none over the chunk's S * beam rows."""
        cfg, params, sv, tv = tiny_model(max_decode_len=6)
        rng = np.random.default_rng(2)
        sents = [src for src, _ in random_pairs(sv, tv, 20, rng)]
        translate(params, cfg, sents, sv, tv, tmp_path / "hyp.txt", beam=5)
        assert 1 <= len(step_batches) <= 6
        assert 5 < max(step_batches) <= 20 * 5

    def test_greedy_calls_at_batch_one(self, step_batches):
        cfg, params, sv, tv = tiny_model()
        greedy_decode(params, replace(cfg, max_decode_len=6), [4, 5, 6])
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
        """A decoder failure in the second of three one-sentence chunks,
        after the first chunk's line was written to the temporary file."""
        cfg, params, sv, tv = tiny_model()
        out = tmp_path / "hyp.txt"
        out.write_bytes(b"old hypotheses\n")
        monkeypatch.setattr(nmt_model, "OUT_BLOCK_BYTES",
                            cfg.beam * len(tv) * params["out_W"].itemsize)
        chunks, calls = [], []

        def counting_encode(*args):
            chunks.append(args)
            return encode_for_decoding(*args)

        def failing_step(*args):
            calls.append(len(chunks))
            if len(chunks) == 2:
                raise RuntimeError("decoder failed")
            return decoder_step(*args)

        monkeypatch.setattr(decode, "encode_for_decoding", counting_encode)
        monkeypatch.setattr(decode, "decoder_step", failing_step)
        with pytest.raises(RuntimeError, match="decoder failed"):
            translate(params, cfg, [["w1"], ["w2"], ["w3"]], sv, tv, out)
        assert len(chunks) == 2 and calls.count(1) >= 1 and calls.count(2) == 1
        assert out.read_bytes() == b"old hypotheses\n"
        assert [p.name for p in tmp_path.iterdir()] == ["hyp.txt"]


class TestBatchedSearch:
    """Sentences beam-searched together, as translate searches a chunk."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beam", [1, 2, 3, 5])
    def test_equals_per_hypothesis_search(self, seed, beam):
        """All of one random_pairs draw in one batch: sources of 3 to 6
        tokens, whose searches stop at different steps, some on EOS and some
        at max_decode_len.  Each is the per-sentence oracle's result."""
        cfg, params, sv, tv = tiny_model(seed=seed, max_decode_len=12)
        rng = np.random.default_rng(seed)
        sources = [[sv.id(t) for t in src] for src, _ in random_pairs(sv, tv, 50, rng)]
        got = best_hypotheses(params, cfg, sources, beam)
        assert len({len(src) for src in sources}) > 1
        assert len({len(hyp.tokens) for hyp in got if hyp.tokens[-1] == EOS}) > 1
        assert any(hyp.tokens[-1] != EOS for hyp in got)
        for src, hyp in zip(sources, got):
            want = reference_beam(params, cfg, src, beam)
            assert hyp.tokens == want.tokens
            assert abs(hyp.log_prob - want.log_prob) <= 1e-12

    @pytest.mark.parametrize("eos_bias", [0.0, -1.0])
    @pytest.mark.parametrize("beam", [1, 3, 5])
    def test_all_extensions_tied(self, beam, eos_bias):
        """A zero output layer ties every extension, so each step's beam is
        the first extensions in (live hypothesis, token id) order.  With EOS
        held back, the searches run to max_decode_len on ties alone."""
        cfg, params, sv, tv = tiny_model(max_decode_len=12)
        params["out_W"][:] = 0.0
        params["out_b"][:] = 0.0
        params["out_b"][EOS] = eos_bias
        rng = np.random.default_rng(6)
        sources = [[sv.id(t) for t in src] for src, _ in random_pairs(sv, tv, 10, rng)]
        assert len({len(src) for src in sources}) > 1
        got = assert_batch_matches_reference(params, cfg, sources, beam)
        ends_on_eos = beam > 1 and eos_bias == 0.0
        assert all((hyp.tokens[-1] == EOS) == ends_on_eos for hyp in got)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beam_wider_than_the_first_step(self, seed, monkeypatch):
        """Beam 12 over V = 10, of which PAD and BOS are never proposed:
        the first step has 8 finite extensions, all of which survive, and
        no later step is fed PAD or BOS, not even in an empty slot."""
        cfg, params, sv, tv = tiny_model(n_tgt=6, seed=seed, max_decode_len=12)
        assert len(tv) == 10
        rng = np.random.default_rng(seed)
        sources = [[sv.id(t) for t in src] for src, _ in random_pairs(sv, tv, 10, rng)]
        fed = []

        def recording(params, cfg, state, y_prev, *source):
            fed.append(y_prev.copy())
            return decoder_step(params, cfg, state, y_prev, *source)
        monkeypatch.setattr(decode, "decoder_step", recording)
        assert_batch_matches_reference(params, cfg, sources, 12)
        assert set(fed[0]) == {BOS} and len(fed) > 1
        assert not any(np.isin(y_prev, [PAD, BOS]).any() for y_prev in fed[1:])

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunks_write_the_same_lines(self, chunk, tmp_path, monkeypatch):
        """Chunks of 1, 3 and 7 sentences, the last one ragged, write the
        lines one chunk writes, each the sentence's own beam_search; an empty
        sentence between others still gives an empty line."""
        cfg, params, sv, tv = tiny_model(max_decode_len=12)
        rng = np.random.default_rng(3)
        sents = [src for src, _ in random_pairs(sv, tv, 20, rng)]
        sents[5:5], sents[12:12] = [[]], [[]]
        assert len(sents) % 3 and len(sents) % 7
        want = [" ".join(map(tv.token, beam_search(params, cfg, [sv.id(t) for t in s])))
                if s else "" for s in sents]
        translate(params, cfg, sents, sv, tv, tmp_path / "one.hyp")
        assert (tmp_path / "one.hyp").read_text().splitlines() == want
        encodes = []

        def counting_encode(*args):
            encodes.append(len(args[2]))
            return encode_for_decoding(*args)

        monkeypatch.setattr(decode, "encode_for_decoding", counting_encode)
        monkeypatch.setattr(nmt_model, "OUT_BLOCK_BYTES",
                            chunk * cfg.beam * len(tv) * params["out_W"].itemsize)
        translate(params, cfg, sents, sv, tv, tmp_path / "chunked.hyp")
        assert encodes == [sum(1 for s in sents[lo:lo + chunk] if s)
                           for lo in range(0, len(sents), chunk)
                           if any(sents[lo:lo + chunk])]
        assert (tmp_path / "chunked.hyp").read_text().splitlines() == want

    def test_peak_memory_of_a_long_file(self, tmp_path, monkeypatch):
        """2,000 short sentences in 40-sentence chunks peak within 1.5 times
        the peak of one such chunk, not with the file's length: one chunk
        traced 0.40 MB and all 2,000 0.45 MB, where 2,000 in one chunk take
        17.6 MB."""
        cfg, params, sv, tv = tiny_model(max_decode_len=4)
        rng = np.random.default_rng(0)
        words = sv.tokens()
        sents = [[words[i] for i in rng.integers(len(words), size=3)]
                 for _ in range(2000)]
        monkeypatch.setattr(nmt_model, "OUT_BLOCK_BYTES",
                            40 * cfg.beam * len(tv) * params["out_W"].itemsize)
        _, one_chunk = traced_peak(translate, params, cfg, sents[:40], sv, tv,
                                   tmp_path / "chunk.hyp")
        _, whole = traced_peak(translate, params, cfg, sents, sv, tv,
                               tmp_path / "all.hyp")
        assert len((tmp_path / "all.hyp").read_text().splitlines()) == 2000
        assert whole <= 1.5 * one_chunk, (whole, one_chunk)


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
        """Each sentence alone and all of them searched together.  The
        trained model's searches go on with fewer live hypotheses than others
        of the batch, which the random models' searches do not."""
        cfg, params, sv, tv, pairs = copy_model
        sources = [[sv.id(t) for t in src] for src, _ in pairs[:30]]
        together = best_hypotheses(params, cfg, sources, beam)
        for src, hyp in zip(sources, together):
            want = reference_beam(params, cfg, src, beam)
            for got in (*best_hypotheses(params, cfg, [src], beam), hyp):
                assert got.tokens == want.tokens
                assert abs(got.log_prob - want.log_prob) <= 1e-12
