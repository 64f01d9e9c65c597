from contextlib import nullcontext

import numpy as np
import pytest

from xhembed import artifact, xmap
from xhembed.artifact import ArtifactError
from xhembed.embedstore import EmbeddingMatrix, normalize_rows
from xhembed.xmap import (CSLS_BLOCK, CSLS_K, fit_mapping,
                          fit_orthogonal_mapping, induce_dictionary,
                          load_mapping, preprocess, save_mapping,
                          self_learning_loop)

from full_csls import full_csls, full_induce_dictionary
from memory import traced_peak
from objective import dictionary_objective


def random_orthogonal(d, seed):
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))[0]


class TestPreprocess:
    def test_rows_unit_norm(self):
        x, _ = preprocess(np.random.default_rng(0).normal(size=(8, 4)))
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0)

    def test_matches_manual_chain(self):
        raw = np.random.default_rng(1).normal(size=(6, 3))
        step1 = normalize_rows(raw)
        step2 = step1 - step1.mean(axis=0)
        want = normalize_rows(step2)
        got, rec = preprocess(raw)
        assert np.allclose(got, want)
        assert np.allclose(rec.column_means, step1.mean(axis=0))

    def test_record_apply_reproduces_rows(self):
        raw = np.random.default_rng(2).normal(size=(6, 3))
        x, rec = preprocess(raw)
        for i in range(6):
            assert np.allclose(rec.apply(raw[i]), x[i], atol=1e-12)

    def test_apply_on_matrix_equals_per_row(self):
        raw = np.random.default_rng(5).normal(size=(40, 7)) * 3.0
        raw[4] = 0.0
        _, rec = preprocess(raw[::2])
        rows = rec.apply(raw)
        per_row = np.array([rec.apply(v) for v in raw])
        assert np.abs(rows - per_row).max() <= 1e-14

    def test_preprocess_is_apply_with_its_record(self):
        raw = np.random.default_rng(6).normal(size=(30, 5))
        x, rec = preprocess(raw)
        assert np.array_equal(x, rec.apply(raw))

    def test_zero_row_kept_zero(self):
        raw = np.random.default_rng(3).normal(size=(5, 3))
        raw[2] = 0.0
        x, rec = preprocess(raw)
        # a zero input row becomes -means, generally nonzero after centering,
        # so force a post-centering zero instead: duplicate rows of a 1-row case
        assert np.all(np.isfinite(x))
        raw = np.ones((4, 3))
        x, rec = preprocess(raw)
        assert np.array_equal(x, np.zeros((4, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            preprocess(np.zeros((0, 3)))

    def test_commutes_with_orthogonal_map(self):
        raw = np.random.default_rng(4).normal(size=(10, 5))
        q = random_orthogonal(5, 5)
        a, _ = preprocess(raw @ q)
        b, _ = preprocess(raw)
        assert np.allclose(a, b @ q, atol=1e-12)


class TestProcrustes:
    def test_outputs_orthogonal(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 4))
        z = rng.normal(size=(20, 4))
        w_x, w_z, _ = fit_orthogonal_mapping(x, z, [(i, i) for i in range(20)])
        assert np.allclose(w_x.T @ w_x, np.eye(4), atol=1e-10)
        assert np.allclose(w_z.T @ w_z, np.eye(4), atol=1e-10)

    def test_recovers_rotation(self):
        x, _ = preprocess(np.random.default_rng(7).normal(size=(30, 6)))
        q = random_orthogonal(6, 8)
        z = x @ q
        pairs = [(i, i) for i in range(30)]
        w_x, w_z, _ = fit_orthogonal_mapping(x, z, pairs)
        assert np.allclose(w_x @ w_z.T, q, atol=1e-10)
        assert dictionary_objective(x, z, pairs, w_x, w_z) == pytest.approx(1.0, abs=1e-10)

    def test_optimal_among_random_orthogonal(self):
        rng = np.random.default_rng(9)
        x, _ = preprocess(rng.normal(size=(25, 4)))
        z, _ = preprocess(rng.normal(size=(25, 4)))
        pairs = [(i, i) for i in range(25)]
        w_x, w_z, _ = fit_orthogonal_mapping(x, z, pairs)
        obj = dictionary_objective(x, z, pairs, w_x, w_z)
        for s in range(20):
            cand = (random_orthogonal(4, 100 + s), np.eye(4))
            assert dictionary_objective(x, z, pairs, *cand) <= obj + 1e-9

    @pytest.mark.parametrize("case", ["full_rank", "zero_rows", "rank_deficient"])
    def test_objective_is_mean_cosine(self, case):
        """sum(S) / |D| equals the mean common-space cosine of the pairs on
        rows that are unit-length or zero."""
        rng = np.random.default_rng(20)
        x, _ = preprocess(rng.normal(size=(40, 6)))
        z, _ = preprocess(rng.normal(size=(40, 6)))
        pairs = [(i, int(j)) for i, j in enumerate(rng.permutation(40))]
        if case == "zero_rows":
            x[3] = 0.0
            z[pairs[5][1]] = 0.0
        if case == "rank_deficient":
            pairs = pairs[:3]  # X_D^T Z_D has rank 3 < 6
        with pytest.warns(UserWarning) if case == "rank_deficient" else nullcontext():
            w_x, w_z, objective = fit_orthogonal_mapping(x, z, pairs)
        assert abs(objective - dictionary_objective(x, z, pairs, w_x, w_z)) <= 1e-12

    def test_empty_dictionary(self):
        with pytest.raises(ValueError):
            fit_orthogonal_mapping(np.eye(3), np.eye(3), [])

    def test_rank_deficiency_warns(self):
        x = np.zeros((4, 3))
        x[:, 0] = [1, 2, 3, 4]
        with pytest.warns(UserWarning):
            fit_orthogonal_mapping(x, x, [(i, i) for i in range(4)])


class TestInduction:
    def test_identity_on_identical_spaces(self):
        x = normalize_rows(np.random.default_rng(10).normal(size=(8, 5)))
        pairs = induce_dictionary(x, x, k=2)
        assert set(pairs) >= {(i, i) for i in range(8)}

    def test_union_of_directions(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 4))
        z = rng.normal(size=(7, 4))
        pairs = set(induce_dictionary(x, z, k=3))
        # every source row and every target row appears at least once
        assert {i for i, _ in pairs} == set(range(6))
        assert {j for _, j in pairs} == set(range(7))

    def test_sorted_and_deterministic(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 3))
        z = rng.normal(size=(5, 3))
        a = induce_dictionary(x, z, CSLS_K)
        assert a == sorted(a)
        assert a == induce_dictionary(x, z, CSLS_K)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induce_dictionary(np.zeros((0, 3)), np.ones((2, 3)), CSLS_K)


def tied_rows(n, rng, dim=8):
    """n rows of four entries of +-1 and four zeros: unit rows of +-0.5 whose
    cosines, multiples of 0.25, and CSLS scores are exact in any summation
    order, so equal rows tie exactly wherever they fall in a block."""
    rows = np.zeros((n, dim))
    for row in rows:
        row[rng.choice(dim, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    return rows


def ties(scores, axis):
    """How many rows (axis 1) or columns (axis 0) reach their maximum twice."""
    return int(((scores == scores.max(axis=axis, keepdims=True)).sum(axis=axis) > 1).sum())


class TestBlockedInduction:
    """induce_dictionary, one block of x rows at a time, against the
    full-matrix oracle."""

    @pytest.mark.parametrize("n, m", [
        (CSLS_BLOCK // 2 + 1, CSLS_BLOCK - 7), (CSLS_BLOCK, CSLS_BLOCK),
        (CSLS_BLOCK + 1, 2 * CSLS_BLOCK + 9), (3 * CSLS_BLOCK - 5, CSLS_BLOCK + 3),
        (2 * CSLS_BLOCK, 2 * CSLS_BLOCK - 1)])
    def test_matches_oracle(self, n, m):
        rng = np.random.default_rng(n * m)
        x, z = rng.normal(size=(n, 6)), rng.normal(size=(m, 6))
        assert induce_dictionary(x, z, CSLS_K) == full_induce_dictionary(x, z, CSLS_K)

    @pytest.mark.parametrize("block", [1, 2, 3, CSLS_BLOCK])
    def test_k_larger_than_either_side(self, monkeypatch, block):
        monkeypatch.setattr(xmap, "CSLS_BLOCK", block)
        rng = np.random.default_rng(block)
        x, z = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
        for k in (8, CSLS_K, 50):
            assert induce_dictionary(x, z, k) == full_induce_dictionary(x, z, k)

    @pytest.mark.parametrize("block", [1, 3, 7, CSLS_BLOCK])
    def test_ties_keep_the_first_row(self, monkeypatch, block):
        """Duplicated rows on both sides, repeats spread over blocks: a row
        of z whose best score several rows of x reach takes the first, and a
        row of x with several best rows of z takes the first of those."""
        monkeypatch.setattr(xmap, "CSLS_BLOCK", block)
        rng = np.random.default_rng(20 + block)
        x, z = tied_rows(12, rng), tied_rows(9, rng)
        x = np.concatenate([x, x[[5, 0, 11, 5]], tied_rows(6, rng), x[::-3]])
        z = np.concatenate([z, z[[2, 2, 8]], tied_rows(4, rng), z[::2]])
        for k in (1, 3, CSLS_K):
            scores = full_csls(x, z, k)
            assert ties(scores, axis=1) and ties(scores, axis=0)
            assert induce_dictionary(x, z, k) == full_induce_dictionary(x, z, k)

    def test_memory_grows_with_block_not_n_times_m(self):
        n, m = 3000, 4000
        rng = np.random.default_rng(30)
        x, z = rng.normal(size=(n, 8)), rng.normal(size=(m, 8))
        pairs, peak = traced_peak(induce_dictionary, x, z, CSLS_K)
        assert len(pairs) >= m
        assert peak < n * m * 8 / 4

    @pytest.mark.parametrize("n, m, bound_mb", [
        (3000, 4000, 17.5), (4000, 3000, 13.3), (2563, 1080, 5.7)])
    def test_one_pass_buffer_at_a_time(self, n, m, bound_mb):
        """At dim 8, induction peaks at 16.99, 12.87 and 5.51 MB on these
        shapes as tracemalloc sees it.  With the first pass's last block
        still held during the second pass, it peaked at 16.99, 14.86 and
        7.72 MB.  The bounds sit 3% above the first figures."""
        rng = np.random.default_rng(30)
        x, z = rng.normal(size=(n, 8)), rng.normal(size=(m, 8))
        _, peak = traced_peak(induce_dictionary, x, z, CSLS_K)
        assert peak < bound_mb * 1e6


class TestSelfLearning:
    def test_recovers_from_corrupted_seed(self):
        rng = np.random.default_rng(13)
        x, _ = preprocess(rng.normal(size=(100, 20)))
        q = random_orthogonal(20, 14)
        z = x @ q
        seed = [(i, i) for i in range(50)]
        for i in range(0, 50, 2):  # corrupt half of the seed pairs
            seed[i] = (seed[i][0], (seed[i][1] + 7) % 100)
        w_x, w_z, _ = self_learning_loop(x, z, seed)
        pairs = induce_dictionary(x @ w_x, z @ w_z, CSLS_K)
        correct = sum(1 for i, j in pairs if i == j)
        assert correct / 100 >= 0.95

    def test_never_worse_than_seed_fit(self):
        rng = np.random.default_rng(15)
        x, _ = preprocess(rng.normal(size=(40, 8)))
        z, _ = preprocess(rng.normal(size=(40, 8)))
        seed = [(i, i) for i in range(20)]
        base_w_x, base_w_z, _ = fit_orthogonal_mapping(x, z, seed)
        base_obj = dictionary_objective(x, z, seed, base_w_x, base_w_z)
        _, _, objective = self_learning_loop(x, z, seed)
        assert objective >= base_obj - 1e-9


class TestSaveLoad:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        ev = EmbeddingMatrix([f"x{i}" for i in range(12)], rng.normal(size=(12, 4)))
        em = EmbeddingMatrix([f"x{i}" for i in range(12)], rng.normal(size=(12, 4)))
        model = fit_mapping(ev, em)
        save_mapping(model, tmp_path / "map.txt")
        loaded = load_mapping(tmp_path / "map.txt")
        assert np.array_equal(loaded.w_x, model.w_x)
        assert np.array_equal(loaded.w_z, model.w_z)
        assert loaded.objective == model.objective
        assert np.array_equal(loaded.pre_x.column_means, model.pre_x.column_means)
        v = rng.normal(size=4)
        # memory layout of the reloaded matrices can differ (BLAS path), so
        # mapped vectors are compared to the last few ulps, not bit-exactly
        assert np.allclose(loaded.map_x(v), model.map_x(v), atol=1e-14)
        assert np.allclose(loaded.map_z(v), model.map_z(v), atol=1e-14)


    def test_missing_preprocessing_named(self, tmp_path):
        rng = np.random.default_rng(19)
        ev = EmbeddingMatrix([f"x{i}" for i in range(12)], rng.normal(size=(12, 4)))
        model = fit_mapping(ev, ev)
        path = tmp_path / "map.npz"
        artifact.save(path, "mapping", {"dim": 4, "objective": model.objective},
                      {"w_x": model.w_x, "w_z": model.w_z,
                       "pre_x": model.pre_x.column_means})
        with pytest.raises(ArtifactError) as info:
            load_mapping(path)
        assert str(info.value) == f"{path}: not a readable mapping: missing key 'pre_z'"


class TestFitMapping:
    def test_no_shared_vocab(self):
        ev = EmbeddingMatrix(["a"], np.ones((1, 3)))
        em = EmbeddingMatrix(["b"], np.ones((1, 3)))
        with pytest.raises(ValueError):
            fit_mapping(ev, em)

    def test_dim_mismatch_names_both_dims(self):
        toks = ["a", "b", "c"]
        ev = EmbeddingMatrix(toks, np.eye(3, 6))
        em = EmbeddingMatrix(toks, np.eye(3, 4))
        with pytest.raises(ValueError, match="dim 6.*dim 4"):
            fit_mapping(ev, em)

    def test_aligns_rotated_copy(self):
        rng = np.random.default_rng(17)
        toks = [f"w{i}" for i in range(30)]
        base = rng.normal(size=(30, 6))
        q = random_orthogonal(6, 18)
        ev = EmbeddingMatrix(toks, base)
        em = EmbeddingMatrix(toks, base @ q)
        model = fit_mapping(ev, em)
        for t in toks[:5]:
            a = model.map_x(ev.get(t))
            b = model.map_z(em.get(t))
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos == pytest.approx(1.0, abs=1e-8)
