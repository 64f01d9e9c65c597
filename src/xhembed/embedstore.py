"""Embedding matrix type, its I/O (artifacts written by the pipeline,
word2vec-style text read from outside), normalization and cosine retrieval."""

import numpy as np

from . import artifact
from .corpus import read_lines

KIND = "embedding matrix"


class EmbeddingFormatError(ValueError):
    pass


class EmbeddingMatrix:
    """Token-indexed dense matrix.  Immutable after construction."""

    def __init__(self, tokens, rows):
        rows = np.asarray(rows, dtype=np.float64)
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


def read_dim(path):
    """Row width of the matrix at `path`, read from its start alone: the
    artifact header, else the first text line as `read_embeddings` parses
    it (an "N D" header, or a first row whose values are counted).  None
    when a text file starts with a blank line."""
    with open(path, "rb") as f:
        first = f.readline()
    if first.startswith(artifact.SIGNATURE):
        return artifact.read_header(path, KIND)["dim"]
    line = first.decode("utf-8", errors="replace")  # the full read names bad bytes
    dim = _header_dim(line)
    if dim is None and line.strip():
        dim = _split_row(line)[2]
    return dim


def _read_artifact(path):
    def decode(header, arrays):
        tokens = header["tokens"]
        rows = artifact.require_shape(arrays, "rows", (len(tokens), header["dim"]))
        return EmbeddingMatrix(tokens, rows)
    return artifact.load(path, KIND, decode)


def _header_dim(line):
    """D of an "N D" header line; None when `line` is not one."""
    head = line.split()
    if len(head) == 2:
        try:
            _, dim = int(head[0]), int(head[1])
            return dim
        except ValueError:
            pass
    return None


def _split_row(line):
    """(token, value text, value count) of one text row."""
    tok, sep, rest = line.rstrip().partition(" ")
    return tok, rest, rest.count(" ") + 1 if sep else 0


def _read_text(path):
    """Header ("N D" first line) or headerless text embeddings.  Duplicate
    tokens keep the first occurrence; the count of dropped duplicates is
    returned on the matrix as .duplicates_dropped.  A dropped duplicate's
    values are counted but never parsed."""
    lines = read_lines(path)
    dim = _header_dim(lines[0]) if lines else None
    start = 0 if dim is None else 1
    tokens, fields, line_nos = [], [], []
    seen = set()
    dups = 0
    for ln, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        tok, rest, n = _split_row(line)
        if dim is None:
            dim = n
        if n != dim:
            # a bad value on an earlier line is met first, so it is reported first
            _parse_values(path, fields, line_nos, dim)
            raise EmbeddingFormatError(f"{path}:{ln}: expected {dim} values, got {n}")
        if tok in seen:
            dups += 1
            continue
        seen.add(tok)
        tokens.append(tok)
        fields.append(rest)
        line_nos.append(ln)
    m = EmbeddingMatrix(tokens, _parse_values(path, fields, line_nos, dim or 0))
    m.duplicates_dropped = dups
    return m


def _parse_values(path, fields, line_nos, dim):
    """(len(fields), dim) float64 rows of the value texts `fields`, parsed in
    one np.loadtxt call.  A field that does not parse is found by bisection
    and raises EmbeddingFormatError naming its file line `line_nos[i]`."""
    def parse(part):
        return np.loadtxt(part, delimiter=" ", comments=None, quotechar=None, ndmin=2)
    if not (fields and dim):
        return np.zeros((len(fields), dim))
    try:
        return parse(fields)
    except ValueError as e:
        error = e
    lo, hi = 0, len(fields)  # the first line that fails is in fields[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(fields[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    try:
        parse(fields[lo:hi])
    except ValueError as e:
        error = e
    raise EmbeddingFormatError(
        f"{path}:{line_nos[lo]}: non-numeric field: {error}") from error


def write_embeddings(matrix, path):
    """Write `matrix` to exactly `path` as an artifact; floats round-trip
    bit for bit."""
    artifact.save(path, KIND, {"tokens": matrix.tokens, "dim": matrix.dim},
                  {"rows": matrix.rows})


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
