import numpy as np
import pytest
from hypothesis import given, strategies as st

from xhembed import artifact, embedstore
from xhembed.artifact import ArtifactError
from xhembed.corpus import CorpusError, read_lines
from xhembed.embedstore import (EmbeddingFormatError, EmbeddingMatrix,
                                nearest_neighbors, normalize_rows, read_dim,
                                read_embeddings, unit_normalize,
                                write_embeddings)
from xhembed import xmap
from xhembed.xmap import csls_blocks, save_mapping

from conftest import fixed_mapping
from memory import traced_peak


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
        save_mapping(fixed_mapping(np.eye(2), np.eye(2)), p)
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


def reference_read_text(path):
    """Oracle: the per-line reader that parsed every value with float()."""
    lines = read_lines(path)
    start = 0
    dim = None
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                _, dim = int(head[0]), int(head[1])
                start = 1
            except ValueError:
                pass
    tokens, rows = [], []
    seen = set()
    dups = 0
    for ln, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        tok, vals = parts[0], parts[1:]
        if dim is None:
            dim = len(vals)
        if len(vals) != dim:
            raise EmbeddingFormatError(
                f"{path}:{ln}: expected {dim} values, got {len(vals)}")
        if tok in seen:
            dups += 1
            continue
        seen.add(tok)
        try:
            rows.append([float(v) for v in vals])
        except ValueError as e:
            raise EmbeddingFormatError(f"{path}:{ln}: non-numeric field: {e}") from e
        tokens.append(tok)
    m = EmbeddingMatrix(tokens, np.array(rows, dtype=np.float64).reshape(len(tokens), dim or 0))
    m.duplicates_dropped = dups
    return m


def read_outcome(read, path):
    """The matrix `read` returns for `path`, or what it raises: the file line
    of an EmbeddingFormatError, the message of any other ValueError."""
    try:
        return read(path)
    except EmbeddingFormatError as e:
        where = str(e).removeprefix(f"{path}:")
        return "format error at line", int(where.split(":")[0])
    except ValueError as e:
        return "error", str(e)


def assert_reads_like_reference(path):
    want = read_outcome(reference_read_text, path)
    got = read_outcome(read_embeddings, path)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.tokens == want.tokens
    assert got.rows.dtype == np.float64
    assert np.array_equal(got.rows, want.rows)
    assert got.duplicates_dropped == want.duplicates_dropped


# text files for the reader and its oracle, each read whole and in chunks
READER_CASES = [
    "3 2\na 1 2\nb 3 4\nc 5 6\n",                   # header
    "a 1 2\nb 3 4\n",                                 # headerless
    "a 1\nb 2\n",                                     # one value a row
    "3 1.5\n4 2.5\n",                                 # a non-integer 2-field first row
    "2 2\r\n\r\na 1 2\r\n   \r\nb 3 4\r\n",           # blank lines, CRLF
    "\n\na 1 2\n\nb 3 4",                             # leading blanks, no final newline
    "ümlaut 1 2\n日本語 3 4\nà\u00a0b -5 6\n",         # unicode tokens
    "a 1e-3 -2.5E+02\nb +.5 5.\nc 1E5 -0\n",            # exponent forms
    "a inf 1\n", "a 1 -Infinity\n", "a nan 0\n",       # non-finite values
    "a 1e400 0\n",                                     # overflows to inf
    "a 1 2\na 3 inf\nb 5 6\n",                         # a dropped inf
    "a 1 2\na x y\nb 3 4\n",                           # a dropped non-numeric line
    "a 1 2\na x y\na\t7 8\n",                          # a tab is part of the token
    "a 1 2   \nb 3 4\t\n",                             # trailing whitespace
    "a\nb\n", "2 0\na\nb\n",                          # zero values a row
    "", "0 4\n", "\n\n",                                # nothing to read
    # errors, by file line
    "a 1 2\nb 3\n",                                    # wrong field count
    "2 3\na 1 2 3\n\nb 1 2\n",                         # after a blank line
    "a 1 2\na 5\nb 3 4\n",                             # a duplicate is counted too
    "a 1 2\na 5 6\nb 3 x\n",                           # bad field after a duplicate
    "2 2\n\na 1 2\na 1 2\n\nb 3 x\nc 1 2\n",             # ... with header and blanks
    "a 1 x\nb 1\n",                                    # bad field before bad count
    "a 1  2\n",                                        # an empty field
    " 1 2\nb 3 4\n",                                   # an empty token
]


class TestTextReader:
    """The one-pass numpy reader against the per-line float() oracle."""

    @pytest.mark.parametrize("text", READER_CASES)
    def test_matches_reference(self, tmp_path, text):
        p = tmp_path / "e.vec"
        p.write_bytes(text.encode("utf-8"))
        assert_reads_like_reference(p)

    def test_bad_field_line_among_many(self, tmp_path):
        """The bisection that locates a bad field names its file line."""
        lines = [f"w{i} {i} 1" for i in range(1000)]
        for bad in (0, 1, 500, 998, 999):
            rows = list(lines)
            rows[bad] = f"w{bad} 1 ?"
            p = tmp_path / "e.vec"
            p.write_text("\n".join(["1001 2", "", "d 0 0", "d 1 1", *rows]) + "\n")
            with pytest.raises(EmbeddingFormatError, match=f":{bad + 5}: non-numeric"):
                read_embeddings(p)
            assert_reads_like_reference(p)

    def test_17g_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-300, 300, (50, 7))
        rows[0, :4] = [5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308]
        p = tmp_path / "e.vec"
        p.write_text("".join(f"t{i} " + " ".join("%.17g" % v for v in r) + "\n"
                             for i, r in enumerate(rows)))
        assert np.array_equal(read_embeddings(p).rows, rows)
        assert np.signbit(read_embeddings(p).rows[0, 1])
        assert_reads_like_reference(p)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11"])
    def test_python_only_number_syntax_rejected(self, tmp_path, field):
        """float() took digit separators and non-ASCII digits; the reader
        takes only the ASCII forms and names the line."""
        p = tmp_path / "e.vec"
        p.write_text(f"a 1 2\nb {field} 2\n", encoding="utf-8")
        assert len(reference_read_text(p)) == 2
        with pytest.raises(EmbeddingFormatError, match=":2: non-numeric"):
            read_embeddings(p)


class TestChunkedReader:
    """The reader parses 3 kept rows at a time here, so a few lines span
    several np.loadtxt calls."""

    @pytest.fixture(autouse=True)
    def chunks_of_3(self, monkeypatch):
        monkeypatch.setattr(embedstore, "_PARSE_ROWS", 3)

    def read(self, tmp_path, text):
        p = tmp_path / "e.vec"
        p.write_bytes(text.encode("utf-8"))
        assert_reads_like_reference(p)
        return p

    @pytest.mark.parametrize("text", READER_CASES)
    def test_matches_reference(self, tmp_path, text):
        self.read(tmp_path, text)

    def test_bad_field_in_a_later_chunk(self, tmp_path):
        rows = [f"w{i} {i} 1" for i in range(10)]
        rows[7] = "w7 1 ?"
        p = self.read(tmp_path, "\n".join(["10 2", *rows]) + "\n")
        with pytest.raises(EmbeddingFormatError, match=":9: non-numeric"):
            read_embeddings(p)

    def test_bad_value_before_a_later_bad_count(self, tmp_path):
        """Line 3's bad value is in the first chunk, line 9's missing value
        in the third; the earlier line is reported."""
        rows = [f"w{i} {i} 1" for i in range(10)]
        rows[2], rows[8] = "w2 1 ?", "w8 1"
        p = self.read(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(EmbeddingFormatError, match=":3: non-numeric"):
            read_embeddings(p)
        rows[2] = "w2 1 2"
        p = self.read(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(EmbeddingFormatError, match=":9: expected 2 values, got 1"):
            read_embeddings(p)

    def test_bad_value_before_a_later_undecodable_line(self, tmp_path):
        """Line 4's bad value waits in a chunk when line 5 fails to decode."""
        p = tmp_path / "e.vec"
        p.write_bytes(b"a 1 2\nb 1 2\nc 3 4\nd 5 x\n\xff 7 8\n")
        with pytest.raises(EmbeddingFormatError, match=":4: non-numeric"):
            read_embeddings(p)
        p.write_bytes(b"a 1 2\nb 1 2\nc 3 4\nd 5 6\n\xff 7 8\n")
        with pytest.raises(CorpusError, match="line 5"):
            read_embeddings(p)

    def test_duplicates_across_chunks(self, tmp_path):
        text = "a 1 2\nb 3 4\nc 5 6\nb 0 0\nd 7 8\na 9 9\ne 1 1\nf 2 2\nc 3 3\n"
        m = read_embeddings(self.read(tmp_path, text))
        assert m.tokens == list("abcdef") and m.duplicates_dropped == 3
        assert np.array_equal(m.rows[:3], [[1, 2], [3, 4], [5, 6]])

    def test_headerless_with_blank_lines(self, tmp_path):
        text = "\n".join(["", *(f"w{i} {i} {-i}" + "\n" * (i % 3) for i in range(8)), ""])
        m = read_embeddings(self.read(tmp_path, text))
        assert len(m) == 8 and np.array_equal(m.rows[:, 0], np.arange(8))

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 10 ** 12])
    def test_header_row_count_need_not_hold(self, tmp_path, n):
        """N presizes the rows; more rows or fewer than N still read."""
        text = f"{n} 2\n" + "".join(f"w{i} {i} 1\n" for i in range(7))
        assert len(read_embeddings(self.read(tmp_path, text))) == 7


class TestReaderMemory:
    def test_peak_is_the_matrix_and_one_chunk(self, tmp_path, monkeypatch):
        """The traced peak of reading a 4.4 MB .vec into its 4.8 MB float64
        matrix stays below 1.5 times the matrix plus one chunk, the text and
        floats of 128 rows: the file's text is never held whole, and the
        rows are never copied into a second matrix."""
        monkeypatch.setattr(embedstore, "_PARSE_ROWS", 128)
        n, dim = 2000, 300
        rows = np.round(np.random.default_rng(5).normal(size=(n, dim)), 4)
        p = tmp_path / "e.vec"
        with open(p, "w") as f:
            f.write(f"{n} {dim}\n")
            for i, row in enumerate(rows):
                f.write(f"w{i} " + " ".join(map(str, row)) + "\n")
        matrix, peak = traced_peak(read_embeddings, p)
        assert np.array_equal(matrix.rows, rows)
        chunk = 128 / n * (p.stat().st_size + rows.nbytes)
        assert peak < 1.5 * rows.nbytes + chunk


class TestReadDim:
    def test_text_forms(self, tmp_path):
        p = tmp_path / "e.vec"
        for text, dim in [("2 3\na 1 2 3\n", 3), ("a 1 2\n", 2), ("3 1.5\n", 1),
                          ("a\n", 0), ("\na 1 2\n", None), ("", None)]:
            p.write_text(text)
            assert read_dim(p) == dim, text

    def test_artifact_header(self, tmp_path):
        """The width comes from the rows array's shape; the JSON header does
        not restate it."""
        p = tmp_path / "e.npz"
        write_embeddings(EmbeddingMatrix(["a", "b"], np.ones((2, 5))), p)
        assert read_dim(p) == 5
        assert "dim" not in artifact.load(p, embedstore.KIND, lambda header, _: header)

    @pytest.mark.parametrize("rows", [np.ones(5), np.ones((2, 5, 1)), np.ones((3, 5))],
                             ids=["1-d", "3-d", "3-rows"])
    def test_malformed_rows_named(self, tmp_path, rows):
        """A rows array that is not one 2-D row per token is an ArtifactError
        naming the file, from `read_dim` as from `read_embeddings`."""
        p = tmp_path / "e.npz"
        artifact.save(p, embedstore.KIND, {"tokens": ["a", "b"]}, {"rows": rows})
        for read in (read_embeddings, read_dim):
            with pytest.raises(ArtifactError, match=f"{p}.*'rows' has shape"):
                read(p)


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

    def test_matches_sorted_oracle_with_ties(self):
        """Ties (repeated and rescaled rows, zero rows) go to the earlier row."""
        rng = np.random.default_rng(4)
        base = rng.normal(size=(6, 4))
        rows = np.concatenate([base, base[[3, 1]], 2 * base[[1]], np.zeros((2, 4)),
                               base[[5, 3]]])
        m = EmbeddingMatrix([f"t{i}" for i in range(len(rows))], rows)
        for query in [*base, np.zeros(4), -base[2]]:
            cos = normalize_rows(rows) @ unit_normalize(query)
            oracle = sorted(range(len(rows)), key=lambda i: (-cos[i], i))
            for k in (1, 2, 3, 7, len(rows), len(rows) + 3):
                got = nearest_neighbors(m, query, k)
                assert [t for t, _ in got] == [f"t{i}" for i in oracle[:k]]
                assert [c for _, c in got] == [float(cos[i]) for i in oracle[:k]]


def brute_force_csls(x, y, x_space, y_space, k):
    """Independent oracle: direct mean-of-top-k cosines."""
    def mean_topk(v, space):
        sims = sorted(float(np.dot(v, s)) for s in space)
        return float(np.mean(sims[-min(k, len(space)):]))
    return 2 * float(np.dot(x, y)) - mean_topk(x, y_space) - mean_topk(y, x_space)


def csls(x, z, k):
    """The score matrix that xmap.csls_blocks yields block by block."""
    blocks = [(a, scores.copy()) for a, scores in csls_blocks(x, z, k)]
    assert [a for a, _ in blocks] == list(range(0, len(x), xmap.CSLS_BLOCK))
    return np.concatenate([scores for _, scores in blocks])


class TestCsls:
    """xmap.csls_blocks, the one CSLS implementation, against the oracle."""

    def test_single_candidate_zero(self):
        x = unit_normalize(np.array([1.0, 1.0]))
        y = unit_normalize(np.array([1.0, 0.0]))
        assert csls(x[None], y[None], 1)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_identical_spaces_self_score(self):
        space = normalize_rows(np.random.default_rng(1).normal(size=(4, 3)))
        assert np.allclose(np.diag(csls(space, space, 1)), 0.0, rtol=0, atol=1e-12)

    def assert_matches_brute_force(self, n, m):
        rng = np.random.default_rng(2)
        xs = normalize_rows(rng.normal(size=(n, 4)))
        ys = normalize_rows(rng.normal(size=(m, 4)))
        for k in (1, 2, 3, 6):
            scores = csls(xs, ys, k)
            assert scores.shape == (n, m)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert scores[i, j] == pytest.approx(
                        brute_force_csls(x, y, xs, ys, k), abs=1e-9)

    def test_matches_brute_force(self):
        self.assert_matches_brute_force(3, 3)

    def test_matches_brute_force_across_blocks(self, monkeypatch):
        """Blocks of 2 rows: 5 rows of x in three blocks, 4 of z in two."""
        monkeypatch.setattr(xmap, "CSLS_BLOCK", 2)
        self.assert_matches_brute_force(5, 4)

    def test_empty_space_error(self):
        with pytest.raises(ValueError):
            csls(np.ones((1, 3)), np.zeros((0, 3)), 1)
        with pytest.raises(ValueError):
            csls(np.zeros((0, 3)), np.ones((1, 3)), 1)
