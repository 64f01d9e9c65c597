"""Embedding matrix type, its I/O (artifacts written by the pipeline,
word2vec-style text read from outside), normalization and cosine retrieval."""

import itertools
import os

import numpy as np

from . import artifact
from .corpus import CorpusError, iter_lines

# kept rows of a text file whose values are parsed in one np.loadtxt call
# (about 2.5 MB of text and of floats at dim 300)
_PARSE_ROWS = 1024

KIND = "embedding matrix"


class EmbeddingFormatError(ValueError):
    pass


class EmbeddingMatrix:
    """Token-indexed dense matrix.  Immutable after construction.  float32
    and float64 rows are kept as given; any other rows become float64."""

    def __init__(self, tokens, rows):
        rows = np.asarray(rows)
        if rows.dtype not in (np.float32, np.float64):
            rows = rows.astype(np.float64)
        if rows.ndim != 2:
            rows = rows.reshape(len(tokens), -1)
        if len(tokens) != rows.shape[0]:
            raise ValueError(f"{len(tokens)} tokens but {rows.shape[0]} rows")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens")
        if rows.size and not np.all(np.isfinite(rows)):
            raise ValueError("non-finite entries")
        self.tokens = list(tokens)
        self.rows = rows
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @property
    def dim(self):
        return self.rows.shape[1]

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, tok):
        return tok in self.index

    def get(self, tok):
        return self.rows[self.index[tok]]


def read_embeddings(path):
    """Read a matrix written by write_embeddings or, for outside input,
    word2vec text; the file's first four bytes decide which."""
    with open(path, "rb") as f:
        signature = f.read(4)
    return _read_artifact(path) if signature == artifact.SIGNATURE else _read_text(path)


def _read_artifact(path):
    """The matrix of the artifact at `path`: one row of its rows array per
    token.  Its width is the rows array's; files whose header also gives it
    (`dim`) still load."""
    def decode(header, arrays):
        tokens = header["tokens"]
        rows = artifact.require_shape(arrays, "rows", (len(tokens), None))
        return EmbeddingMatrix(tokens, rows)
    return artifact.load(path, KIND, decode)


def _header(line):
    """(N, D) of an "N D" header line; None when `line` is not one."""
    head = line.split()
    if len(head) == 2:
        try:
            return int(head[0]), int(head[1])
        except ValueError:
            pass
    return None


def _split_row(line):
    """(token, value text, value count) of one text row."""
    tok, sep, rest = line.rstrip().partition(" ")
    return tok, rest, rest.count(" ") + 1 if sep else 0


def _read_text(path):
    """Header ("N D" first line) or headerless text embeddings, parsed as
    the file is read: the value texts of each _PARSE_ROWS kept rows go to one
    np.loadtxt call, and the parsed rows fill an array sized by a header's N
    and doubled when more rows come.  Duplicate tokens keep the first
    occurrence; the count of dropped duplicates is returned on the matrix as
    .duplicates_dropped.  A dropped duplicate's values are counted but never
    parsed.  Of several faults in a file, the earliest line's is reported."""
    lines = enumerate(iter_lines(path), start=1)
    first = next(lines, None)
    head = _header(first[1]) if first else None
    if head is None and first:
        lines = itertools.chain([first], lines)
    n, dim = head or (0, None)
    # a row of D values takes at least 2 D + 1 bytes, which bounds a header's N
    n = max(0, min(n, os.path.getsize(path) // (2 * (dim or 0) + 1)))
    rows = None  # allocated at the first parse, when dim is known
    tokens, fields, line_nos = [], [], []
    seen = set()
    dups = 0

    def parse_pending():
        nonlocal rows
        if rows is None:
            rows = np.empty((n, dim or 0))
        if len(tokens) > len(rows):  # rows has no views, so it can be resized in place
            rows.resize((max(len(tokens), 2 * len(rows)), rows.shape[1]), refcheck=False)
        rows[len(tokens) - len(fields):len(tokens)] = _parse_values(
            path, fields, line_nos, rows.shape[1])
        fields.clear()
        line_nos.clear()

    try:
        for ln, line in lines:
            if not line.strip():
                continue
            tok, rest, count = _split_row(line)
            if dim is None:
                dim = count
            if count != dim:
                parse_pending()  # a bad value on an earlier line is reported first
                raise EmbeddingFormatError(f"{path}:{ln}: expected {dim} values, got {count}")
            if tok in seen:
                dups += 1
                continue
            seen.add(tok)
            tokens.append(tok)
            fields.append(rest)
            line_nos.append(ln)
            if len(fields) == _PARSE_ROWS:
                parse_pending()
    except CorpusError:
        parse_pending()  # so is one before an undecodable line
        raise
    parse_pending()
    rows.resize((len(tokens), rows.shape[1]), refcheck=False)
    m = EmbeddingMatrix(tokens, rows)
    m.duplicates_dropped = dups
    return m


def _parse_values(path, fields, line_nos, dim):
    """(len(fields), dim) float64 rows of the value texts `fields`, parsed in
    one np.loadtxt call.  If that fails or gives a non-finite value, the
    fields are parsed one at a time and the first that fails or holds one
    raises EmbeddingFormatError naming its file line `line_nos[i]` (the first
    line, if none fails alone)."""
    def parse(part):
        return np.loadtxt(part, delimiter=" ", comments=None, quotechar=None, ndmin=2)
    if not (fields and dim):
        return np.zeros((len(fields), dim))
    error = None
    try:
        rows = parse(fields)
        if np.isfinite(rows).all():
            return rows
    except ValueError as e:
        error = e
    for field, ln in zip(fields, line_nos):
        try:
            row = parse([field])
        except ValueError as e:
            raise EmbeddingFormatError(f"{path}:{ln}: non-numeric field: {e}") from e
        if not np.isfinite(row).all():
            raise EmbeddingFormatError(f"{path}:{ln}: non-finite value")
    raise EmbeddingFormatError(f"{path}:{line_nos[0]}: non-numeric field: {error}") from error


def write_embeddings(matrix, path):
    """Write `matrix` to exactly `path` as an artifact; floats round-trip
    bit for bit."""
    artifact.save(path, KIND, {"tokens": matrix.tokens}, {"rows": matrix.rows})


def unit_normalize(v):
    """Scale to L2 norm 1; the zero vector is returned unchanged (callers that
    need nonzero norms must check)."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n == 0:
        return v
    return v / n


def normalize_rows(rows):
    """Rows of a matrix, or one vector, scaled to L2 norm 1; zero rows stay zero."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    safe = np.where(norms == 0, 1.0, norms)
    return rows / safe


def _cosines(rows, query):
    qn = unit_normalize(query)
    return normalize_rows(rows) @ qn


def nearest_neighbors(matrix, query, k):
    """Top-k tokens by cosine, descending; ties broken by token order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(query) != matrix.dim:
        raise ValueError(f"query dim {len(query)} != matrix dim {matrix.dim}")
    cos = _cosines(matrix.rows, query)
    order = np.argsort(-cos, kind="stable")[:k]
    return [(matrix.tokens[i], float(cos[i])) for i in order]
