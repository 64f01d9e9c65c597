import numpy as np
import pytest

from xhembed.subword import (SkipgramConfig, SubwordModel, extract_ngrams,
                             fnv1a_32, ngram_bucket, pair_loss_and_grads,
                             train_skipgram)


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

    def test_save_load_roundtrip(self, model, tmp_path):
        model.save(tmp_path / "m.txt")
        loaded = SubwordModel.load(tmp_path / "m.txt")
        assert loaded.vocab.id_to_token == model.vocab.id_to_token
        assert np.array_equal(loaded.input_vectors, model.input_vectors)
        assert np.array_equal(loaded.output_vectors, model.output_vectors)
        for w in ["hamba", "oovword"]:
            assert np.array_equal(loaded.compose(w), model.compose(w))
