import numpy as np
import pytest

from xhembed.embedstore import EmbeddingMatrix
from xhembed.lexproject import (LexiconError, build_projected_matrix,
                                project_entry, read_lexicon)


def hr(entries):
    toks = list(entries)
    return EmbeddingMatrix(toks, np.array([entries[t] for t in toks], dtype=float))


class TestReadLexicon:
    def test_single_word_entry(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("indoda\tman\n")
        assert read_lexicon(p) == [("indoda", ["man"])]

    def test_multi_word_entry(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("bethuna\tlisten everyone\n")
        assert read_lexicon(p) == [("bethuna", ["listen", "everyone"])]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("a\tx\n\nb\ty\n")
        assert len(read_lexicon(p)) == 2

    def test_duplicate_source_rejected_with_lines(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("a\tx\nb\ty\na\tz\n")
        with pytest.raises(LexiconError, match="line 1"):
            read_lexicon(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("aloneword\n")
        with pytest.raises(LexiconError, match=":1:"):
            read_lexicon(p)


class TestProjectEntry:
    def test_single_word_normalized(self):
        e = hr({"man": [3.0, 4.0]})
        vec = project_entry(("indoda", ["man"]), e)
        assert np.allclose(vec, [0.6, 0.8])

    def test_sequence_sums_unit_vectors(self):
        e = hr({"listen": [1.0, 0.0], "everyone": [0.0, 2.0]})
        vec = project_entry(("bethuna", ["listen", "everyone"]), e)
        assert np.allclose(vec, [1.0, 1.0])

    def test_all_oov_is_none(self):
        e = hr({"man": [1.0, 0.0]})
        assert project_entry(("w", ["ghost", "word"]), e) is None

    def test_partial_oov_drops_missing(self):
        e = hr({"listen": [2.0, 0.0]})
        vec = project_entry(("w", ["listen", "ghost"]), e)
        assert np.allclose(vec, [1.0, 0.0])


class TestBuildMatrix:
    def test_empty_lexicon(self):
        e = hr({"man": [1.0, 0.0]})
        mat, rep = build_projected_matrix([], e)
        assert len(mat) == 0 and rep.covered == 0 and not rep.skipped

    def test_skip_accounting(self):
        e = hr({"man": [1.0, 0.0]})
        lex = [("a", ["man"]), ("b", ["ghost"])]
        mat, rep = build_projected_matrix(lex, e)
        assert len(mat) == 1
        assert rep.covered == 1 and rep.skipped == ["b"]
        assert rep.covered + len(rep.skipped) == len(lex)

    def test_rows_match_project_entry(self):
        rng = np.random.default_rng(0)
        e = hr({w: rng.normal(size=2) for w in "abcdef"})
        lex = [("w1", ["a"]), ("w2", ["a", "b"]), ("w3", ["c", "d", "e"]),
               ("w4", ["f", "ghost"]), ("w5", ["b"])]
        mat, rep = build_projected_matrix(lex, e)
        for word, targets in lex:
            assert np.allclose(mat.get(word), project_entry((word, targets), e))
        assert rep.dropped_words == {"w4": ["ghost"]}

    def test_dim_matches_hr(self):
        e = hr({"man": [1.0, 0.0, 0.0]})
        mat, _ = build_projected_matrix([("a", ["man"])], e)
        assert mat.dim == 3

    def test_single_word_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        e = hr({w: rng.normal(size=3) for w in "abc"})
        lex = [(f"w_{w}", [w]) for w in "abc"]
        mat, _ = build_projected_matrix(lex, e)
        norms = np.linalg.norm(mat.rows, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_entry_order_independent_up_to_permutation(self):
        rng = np.random.default_rng(2)
        e = hr({w: rng.normal(size=2) for w in "abcd"})
        entries = [("w1", ["a"]), ("w2", ["b", "c"]), ("w3", ["d"])]
        m1, _ = build_projected_matrix(entries, e)
        m2, _ = build_projected_matrix(entries[::-1], e)
        for word, _ in entries:
            assert np.allclose(m1.get(word), m2.get(word))
