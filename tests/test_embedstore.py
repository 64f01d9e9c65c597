import numpy as np
import pytest
from hypothesis import given, strategies as st

from xhembed.artifact import ArtifactError
from xhembed.embedstore import (EmbeddingFormatError, EmbeddingMatrix,
                                nearest_neighbors, normalize_rows,
                                read_embeddings, unit_normalize,
                                write_embeddings)
from xhembed.xmap import MappingModel, csls, save_mapping


class TestIO:
    def test_header_form(self, tmp_path):
        p = tmp_path / "e.vec"
        p.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        m = read_embeddings(p)
        assert len(m) == 2 and m.dim == 3
        assert np.allclose(m.get("a"), [1, 0, 0])

    def test_headerless_dim_inferred(self, tmp_path):
        p = tmp_path / "e.vec"
        p.write_text("a 1 0 0\nb 0 1 0\n")
        m = read_embeddings(p)
        assert len(m) == 2 and m.dim == 3

    def test_bad_row_reports_line(self, tmp_path):
        p = tmp_path / "e.vec"
        p.write_text("1 3\na 1 0\n")
        with pytest.raises(EmbeddingFormatError, match=":2:"):
            read_embeddings(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "e.vec"
        p.write_text("a 1 x 0\n")
        with pytest.raises(EmbeddingFormatError):
            read_embeddings(p)

    def test_duplicates_keep_first(self, tmp_path):
        p = tmp_path / "e.vec"
        p.write_text("a 1 0\na 0 1\nb 0 2\n")
        m = read_embeddings(p)
        assert np.allclose(m.get("a"), [1, 0])
        assert m.duplicates_dropped == 1

    def test_write_header(self, tmp_path):
        rng = np.random.default_rng(3)
        m = EmbeddingMatrix(["a", "b", "ümlaut", "x y"], rng.normal(size=(4, 3)))
        write_embeddings(m, tmp_path / "e.vec")
        m2 = read_embeddings(tmp_path / "e.vec")
        assert m2.tokens == m.tokens and m2.dim == 3
        assert m2.rows.dtype == np.float64
        assert np.array_equal(m2.rows, m.rows)

    def test_truncated_artifact_names_file(self, tmp_path):
        """A cut artifact still starts with the zip signature, so it is
        reported as an artifact, not parsed as text."""
        p = tmp_path / "e.npz"
        write_embeddings(EmbeddingMatrix(["a", "b"], np.ones((2, 3))), p)
        data = p.read_bytes()
        for cut in (4, len(data) // 2, len(data) - 1):
            p.write_bytes(data[:cut])
            with pytest.raises(ArtifactError, match=str(p)):
                read_embeddings(p)

    def test_other_artifact_kind_rejected(self, tmp_path):
        p = tmp_path / "mapping.npz"
        save_mapping(MappingModel(np.eye(2), np.eye(2)), p)
        with pytest.raises(ArtifactError, match="embedding matrix"):
            read_embeddings(p)

    def test_empty_matrix(self, tmp_path):
        m = EmbeddingMatrix([], np.zeros((0, 4)))
        write_embeddings(m, tmp_path / "e.vec")
        m2 = read_embeddings(tmp_path / "e.vec")
        assert len(m2) == 0 and m2.dim == 4

    def test_roundtrip_property(self, tmp_path):
        rng = np.random.default_rng(0)
        m = EmbeddingMatrix([f"t{i}" for i in range(10)],
                            rng.uniform(-1, 1, (10, 5)))
        write_embeddings(m, tmp_path / "e.vec")
        m2 = read_embeddings(tmp_path / "e.vec")
        assert m2.tokens == m.tokens
        assert np.max(np.abs(m2.rows - m.rows)) < 1e-6


class TestNormalize:
    def test_hand_case(self):
        assert np.allclose(unit_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_unit_unchanged(self):
        v = np.array([0.0, 1.0])
        assert np.allclose(unit_normalize(v), v)

    def test_zero_preserved(self):
        assert np.array_equal(unit_normalize([0.0, 0.0]), [0.0, 0.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=6))
    def test_idempotent_for_nonzero(self, vals):
        v = np.array(vals)
        if np.linalg.norm(v) < 1e-6:  # near-underflow scales lose precision
            return
        u = unit_normalize(v)
        assert np.allclose(unit_normalize(u), u, atol=1e-12)


class TestNearestNeighbors:
    def basis(self):
        return EmbeddingMatrix(["x", "y", "z"], np.eye(3))

    def test_self_is_top(self):
        m = self.basis()
        tok, cos = nearest_neighbors(m, m.get("y"), 1)[0]
        assert tok == "y" and cos == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        res = nearest_neighbors(self.basis(), np.array([1.0, 0, 0]), 2)
        assert res[0] == ("x", pytest.approx(1.0))
        assert res[1][1] == pytest.approx(0.0)

    def test_k_clamped(self):
        assert len(nearest_neighbors(self.basis(), np.ones(3), 10)) == 3

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            nearest_neighbors(self.basis(), np.ones(2), 1)


def brute_force_csls(x, y, x_space, y_space, k):
    """Independent oracle: direct mean-of-top-k cosines."""
    def mean_topk(v, space):
        sims = sorted(float(np.dot(v, s)) for s in space)
        return float(np.mean(sims[-min(k, len(space)):]))
    return 2 * float(np.dot(x, y)) - mean_topk(x, y_space) - mean_topk(y, x_space)


class TestCsls:
    """xmap.csls, the one CSLS implementation, against the oracle."""

    def test_single_candidate_zero(self):
        x = unit_normalize(np.array([1.0, 1.0]))
        y = unit_normalize(np.array([1.0, 0.0]))
        assert csls(x[None], y[None], 1)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_identical_spaces_self_score(self):
        space = normalize_rows(np.random.default_rng(1).normal(size=(4, 3)))
        assert np.allclose(np.diag(csls(space, space, 1)), 0.0, rtol=0, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        xs = normalize_rows(rng.normal(size=(3, 4)))
        ys = normalize_rows(rng.normal(size=(3, 4)))
        for k in (1, 2, 3):
            scores = csls(xs, ys, k)
            assert scores.shape == (3, 3)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert scores[i, j] == pytest.approx(
                        brute_force_csls(x, y, xs, ys, k), abs=1e-9)

    def test_empty_space_error(self):
        with pytest.raises(ValueError):
            csls(np.ones((1, 3)), np.zeros((0, 3)), 1)
        with pytest.raises(ValueError):
            csls(np.zeros((0, 3)), np.ones((1, 3)), 1)
