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


def _read_artifact(path):
    def decode(header, arrays):
        tokens = header["tokens"]
        rows = artifact.require_shape(arrays, "rows", (len(tokens), header["dim"]))
        return EmbeddingMatrix(tokens, rows)
    return artifact.load(path, KIND, decode)


def _read_text(path):
    """Header ("N D" first line) or headerless text embeddings.  Duplicate
    tokens keep the first occurrence; the count of dropped duplicates is
    returned on the matrix as .duplicates_dropped."""
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
    k = min(k, len(matrix))
    order = sorted(range(len(matrix)), key=lambda i: (-cos[i], i))[:k]
    return [(matrix.tokens[i], float(cos[i])) for i in order]
