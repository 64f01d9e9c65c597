"""The embedding side runs in its tables' dtype: float32 as train_skipgram
makes them, float64 as subword models written before that have them."""

import numpy as np
import pytest

from xhembed.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings
from xhembed.subword import (SubwordModel, sgns_loss_and_grads, train_skipgram,
                             unit_table)

from memory import traced_peak
from test_subword import quick_config, tiny_corpus

# float32 against float64 on the same arrays: the loss, and each gradient
# relative to its largest entry, agree to within this many float32 eps.
# Over seeds 1-32 of `sentence_batch` the measured error is at most 0.85 eps
# on the loss, 1.9 eps on the input gradient and 2.7 eps on the output one.
TOL = 8 * np.finfo(np.float32).eps
WORDS = ["hamba", "hambile", "neverseenword", "z"]


@pytest.fixture(scope="module")
def model():
    return train_skipgram(tiny_corpus(80), quick_config(epochs=1))[0]


def in_dtype(model, dtype):
    return SubwordModel(model.vocab, model.config, model.input_vectors.astype(dtype),
                        model.output_vectors.astype(dtype))


class TestDtypes:
    def test_training_export_and_files_are_float32(self, model, tmp_path):
        assert model.input_vectors.dtype == model.output_vectors.dtype == np.float32
        em = model.export_matrix(model.vocab.tokens() + ["neverseenword", "z"])
        assert em.rows.dtype == np.float32
        model.save(tmp_path / "m.npz")
        loaded = SubwordModel.load(tmp_path / "m.npz")
        for name in ("input_vectors", "output_vectors"):
            table = getattr(loaded, name)
            assert table.dtype == np.float32, name
            assert np.array_equal(table, getattr(model, name)), name
        write_embeddings(em, tmp_path / "em.npz")
        back = read_embeddings(tmp_path / "em.npz")
        assert back.rows.dtype == np.float32 and np.array_equal(back.rows, em.rows)

    def test_float64_model_loads_and_composes_in_float64(self, model, tmp_path):
        in_dtype(model, np.float64).save(tmp_path / "m64.npz")
        loaded = SubwordModel.load(tmp_path / "m64.npz")
        assert loaded.input_vectors.dtype == loaded.output_vectors.dtype == np.float64
        assert loaded.compose_rows(WORDS).dtype == np.float64
        assert loaded.export_matrix(WORDS).rows.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_compose_is_mean_of_units(self, model, dtype):
        m = in_dtype(model, dtype)
        for word, row in zip(WORDS, m.compose_rows(WORDS)):
            want = m.input_vectors[m.unit_ids(word)].mean(axis=0)
            assert row.dtype == want.dtype == dtype
            assert np.array_equal(row, want) and np.array_equal(m.compose(word), want)


def sentence_batch(seed):
    """The arrays of test_subword's test_sentence_matches_per_pair_loop at
    seed 4: one five-token sentence whose unit lists repeat rows across words
    and inside one word, as (inp, out, units, weights, centres, targets, lr)."""
    rng = np.random.default_rng(seed)
    inp = rng.normal(scale=0.5, size=(20, 7))
    out = rng.normal(scale=0.5, size=(9, 7))
    unit_lists = [[0, 5, 11], [1, 5, 5, 12], [2, 6, 13], [1, 5, 5, 12], [3, 14]]
    words = [4, 5, 6, 5, 7]
    centres, targets, lr = [], [], []
    for pos in range(5):
        for cpos in (pos - 2, pos - 1, pos + 1, pos + 2):
            if 0 <= cpos < 5:
                centres.append(pos)
                targets.append([words[cpos], *rng.integers(4, 9, 3)])
                lr.append(0.05 * (1 - pos / 10))
    return (inp, out, *unit_table(unit_lists), np.array(centres),
            np.array(targets), np.array(lr))


class TestKernelPrecision:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_float32_matches_float64(self, seed):
        inp, out, *batch = sentence_batch(seed)
        l64, (r64, gi64), (o64, go64) = sgns_loss_and_grads(inp, out, *batch)
        l32, (r32, gi32), (o32, go32) = sgns_loss_and_grads(
            inp.astype(np.float32), out.astype(np.float32), *batch)
        assert type(l32) is float and abs(l32 - l64) <= TOL * abs(l64)
        assert np.array_equal(r32, r64) and np.array_equal(o32, o64)
        for g32, g64 in ((gi32, gi64), (go32, go64)):
            assert g32.dtype == np.float32
            err = np.abs(g32 - g64).max()
            assert err <= TOL * np.abs(g64).max(), err / np.abs(g64).max()


class TestTrainingMemory:
    def test_peak_is_the_float32_tables_and_one_draw_block(self):
        """At dim 300 and 5,000 buckets, train_skipgram peaks at 7.84 MB as
        tracemalloc sees it: its float32 tables (6.05 + 0.05 MB) and one
        1 MB block of float64 draws.  With float64 tables filled by one
        full-size draw, it peaked at 13.05 MB.  The bound sits 3% above the
        first figure."""
        (model, _), peak = traced_peak(
            train_skipgram, tiny_corpus(80), quick_config(dim=300, buckets=5000, epochs=1))
        assert model.input_vectors.shape == (5000 + len(model.vocab), 300)
        assert peak < 8.07e6


class TestEmbeddingMatrixDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_rows_kept(self, dtype):
        rows = np.arange(6, dtype=dtype).reshape(3, 2)
        m = EmbeddingMatrix(["a", "b", "c"], rows)
        assert m.rows.dtype == dtype and np.array_equal(m.rows, rows)

    @pytest.mark.parametrize("rows", [np.arange(6).reshape(3, 2),
                                      [[0, 1], [2, 3], [4, 5]],
                                      [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]],
                                      np.arange(6, dtype=np.float16).reshape(3, 2)])
    def test_other_rows_become_float64(self, rows):
        m = EmbeddingMatrix(["a", "b", "c"], rows)
        assert m.rows.dtype == np.float64
        assert np.array_equal(m.rows, np.arange(6).reshape(3, 2))
