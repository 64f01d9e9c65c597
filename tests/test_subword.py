import warnings
from collections import Counter

import numpy as np
import pytest

from xhembed import subword
from xhembed.corpus import Vocabulary
from xhembed.subword import (SkipgramConfig, SubwordModel, draw_negatives,
                             extract_ngrams, fnv1a_32, negative_cdf,
                             ngram_bucket, sgns_loss_and_grads, train_skipgram,
                             unit_table)


class TestHashing:
    def test_published_vectors(self):
        # reference values for 32-bit FNV-1a
        assert fnv1a_32(b"") == 2166136261
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_oracle_reimplementation(self):
        def slow(data):
            h = 2166136261
            for byte in data:
                h = ((h ^ byte) * 16777619) % 2 ** 32
            return h
        for s in [b"man", b"<ma", b"umntu", "izinto".encode(), b"\xff\x00"]:
            assert fnv1a_32(s) == slow(s)

    def test_bucket_range(self):
        for g in ["<ma", "man", "an>"]:
            assert 0 <= ngram_bucket(g, 17) < 17

    def test_bucket_requires_positive(self):
        with pytest.raises(ValueError):
            ngram_bucket("abc", 0)


class TestNgrams:
    def test_hand_case_man(self):
        grams, wrapped = extract_ngrams("man")
        assert wrapped == "<man>"
        assert grams == ["<ma", "man", "an>", "<man", "man>", "<man>"]

    def test_short_word(self):
        grams, wrapped = extract_ngrams("a")
        assert wrapped == "<a>"
        assert grams == ["<a>"]

    def test_window_bounds(self):
        grams, _ = extract_ngrams("abcdef", minn=3, maxn=4)
        assert all(3 <= len(g) <= 4 for g in grams)
        assert len(grams) == 6 + 5  # 8-char wrapped form

    def test_length_major_position_order(self):
        grams, _ = extract_ngrams("ab", minn=2, maxn=3)
        assert grams == ["<a", "ab", "b>", "<ab", "ab>"]


STEMS = ["hamb", "fund", "thand", "bon", "sebenz", "phil", "cul", "dlal"]


def tiny_corpus(n_sent=300, seed=0):
    """Synthetic morphology: each sentence sticks to one stem, so forms of the
    same stem share contexts (a per-stem marker word plus sibling forms)."""
    suffixes = ["a", "ile", "eni", "isa"]
    rng = np.random.default_rng(seed)
    sents = []
    for _ in range(n_sent):
        stem = STEMS[int(rng.integers(len(STEMS)))]
        sent = []
        for _ in range(int(rng.integers(3, 7))):
            sent.append(stem + suffixes[int(rng.integers(len(suffixes)))])
            sent.append("um" + stem)
        sents.append(sent)
    return sents


def quick_config(**kw):
    base = dict(dim=30, window=3, epochs=3, buckets=2000, subsample=0.0, seed=5)
    base.update(kw)
    return SkipgramConfig(**base)


def pair_loss_and_grads(input_vectors, output_vectors, unit_ids, ctx_id, neg_ids):
    """`sgns_loss_and_grads` for one (center, context, negatives) triple.
    Returns (loss, grad_input_rows, grad_output_rows) where the grads are
    dicts row_index -> gradient vector."""
    units, weights = unit_table([unit_ids])
    loss, (in_rows, g_in), (out_rows, g_out) = sgns_loss_and_grads(
        input_vectors, output_vectors, units, weights, np.zeros(1, dtype=np.int64),
        np.array([[ctx_id, *neg_ids]], dtype=np.int64))
    return (loss, {int(r): g for r, g in zip(in_rows, g_in)},
            {int(r): g for r, g in zip(out_rows, g_out)})


class TestPairGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        inp = rng.normal(scale=0.5, size=(12, 6))
        out = rng.normal(scale=0.5, size=(8, 6))
        unit_ids = [0, 3, 3, 7]  # includes a duplicate (hash collision case)
        ctx, negs = 2, [5, 2, 6]

        loss, g_in, g_out = pair_loss_and_grads(inp, out, unit_ids, ctx, negs)
        h = 1e-6
        for grads, mat in ((g_in, inp), (g_out, out)):
            for row, g in grads.items():
                for j in range(mat.shape[1]):
                    orig = mat[row, j]
                    mat[row, j] = orig + h
                    lp = pair_loss_and_grads(inp, out, unit_ids, ctx, negs)[0]
                    mat[row, j] = orig - h
                    lm = pair_loss_and_grads(inp, out, unit_ids, ctx, negs)[0]
                    mat[row, j] = orig
                    num = (lp - lm) / (2 * h)
                    assert g[j] == pytest.approx(num, abs=1e-6)

    def test_untouched_rows_have_no_grad(self):
        rng = np.random.default_rng(2)
        inp = rng.normal(size=(10, 4))
        out = rng.normal(size=(6, 4))
        _, g_in, g_out = pair_loss_and_grads(inp, out, [1, 4], 0, [3])
        assert set(g_in) == {1, 4}
        assert set(g_out) == {0, 3}

    def test_loss_positive(self):
        rng = np.random.default_rng(3)
        inp = rng.normal(size=(5, 3))
        out = rng.normal(size=(5, 3))
        loss, _, _ = pair_loss_and_grads(inp, out, [0], 1, [2, 3])
        assert loss > 0


def reference_sentence_grads(inp, out, unit_lists, pairs, lr):
    """Per-pair loop over one sentence, every pair scored against the vectors
    as they stood at the sentence start: the oracle for the batched kernel.
    `pairs` holds (centre position, context, negatives); returns the summed
    loss and the lr-scaled gradients as dicts row -> vector."""
    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))
    loss, g_in, g_out = 0.0, {}, {}
    for (pos, ctx, negs), rate in zip(pairs, lr):
        units = unit_lists[pos]
        h = inp[units].mean(axis=0)
        grad_h = np.zeros_like(h)
        for tgt, label in [(ctx, 1.0)] + [(n, 0.0) for n in negs]:
            s = sigmoid(h @ out[tgt])
            loss -= np.log(max(s if label else 1.0 - s, 1e-12))
            g = (s - label) * rate
            grad_h += g * out[tgt]
            g_out[tgt] = g_out.get(tgt, 0.0) + g * h
        for u in units:
            g_in[u] = g_in.get(u, 0.0) + grad_h / len(units)
    return loss, g_in, g_out


class TestBatchedKernel:
    def test_sentence_matches_per_pair_loop(self):
        rng = np.random.default_rng(4)
        inp = rng.normal(scale=0.5, size=(20, 7))
        out = rng.normal(scale=0.5, size=(9, 7))
        # one sentence of five tokens; "word" 2 occurs twice, and the unit
        # lists repeat rows across words and inside one word (a collision)
        unit_lists = [[0, 5, 11], [1, 5, 5, 12], [2, 6, 13], [1, 5, 5, 12], [3, 14]]
        words = [4, 5, 6, 5, 7]
        pairs, lr = [], []
        for pos in range(5):
            for cpos in (pos - 2, pos - 1, pos + 1, pos + 2):
                if 0 <= cpos < 5:
                    negs = [int(n) for n in rng.integers(4, 9, 3)]
                    pairs.append((pos, words[cpos], negs))
                    lr.append(0.05 * (1 - pos / 10))
        ref_loss, ref_in, ref_out = reference_sentence_grads(inp, out, unit_lists,
                                                             pairs, lr)
        units, weights = unit_table(unit_lists)
        loss, (in_rows, g_in), (out_rows, g_out) = sgns_loss_and_grads(
            inp, out, units, weights, np.array([p[0] for p in pairs]),
            np.array([[p[1], *p[2]] for p in pairs]), np.array(lr))
        assert loss == pytest.approx(ref_loss, rel=0, abs=1e-12)
        for rows, grads, ref in ((in_rows, g_in, ref_in), (out_rows, g_out, ref_out)):
            assert sorted(ref) == list(rows)
            for r, g in zip(rows, grads):
                assert np.allclose(g, ref[r], rtol=0, atol=1e-12)

    def test_collision_gets_count_over_k_of_input_gradient(self):
        # buckets=1 hashes every n-gram of a word into bucket 0
        model, _ = train_skipgram(tiny_corpus(20), quick_config(buckets=1, epochs=1))
        ids = model.unit_ids("hambile")
        k = len(ids)
        assert ids.count(0) == k - 1
        units, weights = unit_table([ids])
        assert list(units[0]) == [0, ids[-1]]
        assert list(weights[0]) == [(k - 1) / k, 1 / k]
        # float64 copies of the trained tables, so the oracle's 1e-15 holds
        inp, out = (model.input_vectors.astype(np.float64),
                    model.output_vectors.astype(np.float64))
        _, (in_rows, g_in), _ = sgns_loss_and_grads(
            inp, out, units, weights, np.array([0]), np.array([[4, 5, 6]]))
        h = inp[ids].mean(axis=0)
        s = 1.0 / (1.0 + np.exp(-(out[[4, 5, 6]] @ h)))
        grad_h = (s - [1.0, 0.0, 0.0]) @ out[[4, 5, 6]]
        assert np.allclose(g_in[0], (k - 1) / k * grad_h, rtol=0, atol=1e-15)
        assert np.allclose(g_in[1], grad_h / k, rtol=0, atol=1e-15)


class TestNegatives:
    COUNTS = {"a": 50, "b": 30, "c": 20, "d": 10, "e": 5, "f": 3, "g": 2, "h": 1}

    def test_never_own_context(self):
        rng = np.random.default_rng(0)
        context = rng.integers(4, 12, 20_000)
        negs = draw_negatives(rng, negative_cdf(Vocabulary(self.COUNTS)), context, 5)
        assert negs.shape == (20_000, 5)
        assert not (negs == context[:, None]).any()
        assert negs.min() >= 4 and negs.max() <= 11

    def test_unigram_three_quarter_frequencies(self):
        """10^5 draws against the most frequent word "a": every other word w
        comes with probability p_w / (1 - p_a), p ~ count^0.75.  Pearson's
        statistic must stay under the 0.999 quantile of chi-square with 6
        degrees of freedom (22.46), which a correct sampler exceeds once in
        1000 seeds."""
        vocab = Vocabulary(self.COUNTS)
        ids = [vocab.id(w) for w in self.COUNTS]
        negs = draw_negatives(np.random.default_rng(1), negative_cdf(vocab),
                              np.full(20_000, ids[0]), 5)
        observed = np.bincount(negs.ravel(), minlength=len(vocab))
        assert observed[:4].sum() == 0 and observed[ids[0]] == 0
        p = np.array([self.COUNTS[w] for w in self.COUNTS][1:]) ** 0.75
        expected = negs.size * p / p.sum()
        chi2 = float(((observed[ids[1:]] - expected) ** 2 / expected).sum())
        assert chi2 < 22.46


class TestTraining:
    def test_loss_decreases(self):
        _, reports = train_skipgram(tiny_corpus(), quick_config())
        losses = [r.mean_loss for r in reports]
        assert len(losses) == 3
        assert losses[-1] < losses[0]
        assert all(l > 0 for l in losses)

    def test_bit_identical_retrain(self):
        sents = tiny_corpus(60)
        cfg = quick_config(epochs=2)
        m1, r1 = train_skipgram(sents, cfg)
        m2, r2 = train_skipgram(sents, cfg)
        assert np.array_equal(m1.input_vectors, m2.input_vectors)
        assert np.array_equal(m1.output_vectors, m2.output_vectors)
        assert [r.mean_loss for r in r1] == [r.mean_loss for r in r2]

    def test_seed_changes_result(self):
        sents = tiny_corpus(60)
        m1, _ = train_skipgram(sents, quick_config(epochs=1, seed=5))
        m2, _ = train_skipgram(sents, quick_config(epochs=1, seed=6))
        assert not np.array_equal(m1.input_vectors, m2.input_vectors)

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            train_skipgram([["a"]], quick_config(min_count=5))

    def test_one_word_vocab_rejected(self):
        """No negative can differ from the context when only one word is left."""
        with pytest.raises(ValueError, match="two distinct words"):
            train_skipgram([["a", "a", "a"]], quick_config())

    def test_special_token_text_is_not_trained(self):
        """A literal "<unk>" in the text maps to a special id; it is dropped."""
        _, reports = train_skipgram([["a", "<unk>", "b", "c"]] * 3,
                                    quick_config(window=1, epochs=1))
        assert reports[0].pairs == 3 * 2 * 2

    def test_window_one_pairs_every_neighbour(self):
        sents = tiny_corpus(40)
        _, reports = train_skipgram(sents, quick_config(window=1, epochs=2))
        assert [r.pairs for r in reports] == [sum(2 * (len(s) - 1) for s in sents)] * 2

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            quick_config(epochs=0)

    def test_more_than_one_worker_rejected(self):
        with pytest.raises(ValueError, match="workers must be 1"):
            quick_config(workers=2)

    def test_oov_variants_cluster_by_stem(self):
        model, _ = train_skipgram(tiny_corpus(400, seed=1), quick_config())
        # held-out morphological variants: "o" suffix never appears in training
        hits = total = 0
        for stem in STEMS:
            oov = model.compose(stem + "o")
            for other in STEMS:
                if other == stem:
                    continue
                total += 1
                same = model.compose(stem + "ile")
                diff = model.compose(other + "ile")
                def cos(a, b):
                    return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                hits += cos(oov, same) > cos(oov, diff)
        assert hits / total >= 0.9


@pytest.fixture(scope="module")
def model():
    return train_skipgram(tiny_corpus(80), quick_config(epochs=1))[0]


class TestModelApi:

    def test_compose_is_mean_of_units(self, model):
        for word in ["hamba", "neverseenword"]:
            ids = model.unit_ids(word)
            assert np.array_equal(model.compose(word),
                                  model.input_vectors[ids].mean(axis=0))

    def test_vocab_word_gets_whole_word_row(self, model):
        word = model.vocab.tokens()[0]
        ids = model.unit_ids(word)
        assert ids[-1] == model.config.buckets + model.vocab.id(word)
        assert model.config.buckets + model.vocab.id(word) not in \
            model.unit_ids("zzqqneverseen")[len(ids):]

    def test_export_matrix_rows_equal_compose(self, model):
        toks = model.vocab.tokens()[:5] + ["unseenx"]
        mat = model.export_matrix(toks)
        for t in toks:
            assert np.array_equal(mat.get(t), model.compose(t))

    def test_word_without_units_gets_zero_row(self):
        model = train_skipgram(tiny_corpus(80), quick_config(epochs=1, minn=4))[0]
        assert model.unit_ids("z") == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = model.compose("z")
            words = model.vocab.tokens()[:5] + ["unseenx"]
            mat = model.export_matrix(words + ["z"])
        assert np.all(np.isfinite(row)) and not np.any(row)
        want = model.export_matrix(words)
        for w in words:
            assert np.array_equal(mat.get(w), want.get(w))

    def test_save_load_roundtrip(self, model, tmp_path):
        model.save(tmp_path / "m.txt")
        loaded = SubwordModel.load(tmp_path / "m.txt")
        assert loaded.vocab.id_to_token == model.vocab.id_to_token
        assert np.array_equal(loaded.input_vectors, model.input_vectors)
        assert np.array_equal(loaded.output_vectors, model.output_vectors)
        for w in ["hamba", "oovword"]:
            assert np.array_equal(loaded.compose(w), model.compose(w))


def per_word_unit_lists(model, words):
    """Oracle: every word's n-grams hashed on their own, then its whole-word
    row if it is in the vocabulary."""
    cfg = model.config
    lists = []
    for word in words:
        grams, _ = extract_ngrams(word, cfg.minn, cfg.maxn)
        ids = [ngram_bucket(g, cfg.buckets) for g in grams]
        if word in model.vocab:
            ids.append(cfg.buckets + model.vocab.id(word))
        lists.append(ids)
    return lists


class TestHashOnce:
    def test_unit_lists_match_per_word_loop(self, model, tmp_path):
        words = (model.vocab.id_to_token + ["hambo", "zz", "hambo", "a"]
                 + model.vocab.tokens()[:3])
        assert model.unit_lists(words) == per_word_unit_lists(model, words)
        model.save(tmp_path / "m.npz")
        loaded = SubwordModel.load(tmp_path / "m.npz")
        assert loaded.unit_lists(words) == per_word_unit_lists(model, words)

    def test_vocabulary_ngrams_hashed_once_per_model(self, monkeypatch):
        hashed = Counter()
        real = subword.ngram_bucket

        def counting(gram, buckets):
            hashed[gram] += 1
            return real(gram, buckets)

        monkeypatch.setattr(subword, "ngram_bucket", counting)
        model, _ = train_skipgram(tiny_corpus(80), quick_config(epochs=1))
        model.export_matrix(model.vocab.tokens())
        model.compose_rows(model.vocab.tokens()[::2])
        cfg = model.config
        vocab_grams = {g for w in model.vocab.id_to_token
                       for g in extract_ngrams(w, cfg.minn, cfg.maxn)[0]}
        assert hashed == Counter(dict.fromkeys(vocab_grams, 1))

        hashed.clear()
        oov = "hambo"
        assert oov not in model.vocab
        model.compose_rows([oov, *model.vocab.tokens(), oov])
        assert hashed == Counter(dict.fromkeys(extract_ngrams(oov)[0], 1))
