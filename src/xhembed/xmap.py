"""Cross-space mapping: preprocessing, orthogonal Procrustes fit, CSLS
dictionary induction one block of rows at a time, and a self-learning
refinement loop.  Each fit's objective, the mean dictionary cosine in the
common space, is read off the Procrustes SVD; a MappingModel is the complete
fitted map, preprocessing records included."""

import warnings
from dataclasses import dataclass

import numpy as np

from . import artifact
from .embedstore import normalize_rows

# self-learning: at most MAX_ITERS refinements, stopping after PATIENCE without
# a better objective; CSLS over CSLS_K neighbours (Conneau et al. 2018)
MAX_ITERS, PATIENCE, CSLS_K = 20, 3, 10
# rows of one side whose similarities to all of the other side are held at
# once by CSLS induction (about 5 MB against 2,563 rows)
CSLS_BLOCK = 256


@dataclass
class PreprocessRecord:
    column_means: np.ndarray

    def apply(self, rows):
        """Apply the recorded chain to a vector or to each row of a matrix:
        unit-normalize, subtract the column means, unit-normalize again.
        A row that is zero at either step is left at zero."""
        return normalize_rows(normalize_rows(rows) - self.column_means)


def preprocess(matrix):
    """Fit the chain's column means (those of the unit-normalized rows) and
    apply the chain to `matrix`."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty matrix")
    record = PreprocessRecord(normalize_rows(x).mean(axis=0))
    return record.apply(x), record


@dataclass
class MappingModel:
    """Pair of orthogonal matrices taking two preprocessed spaces into a
    common space, with each space's preprocessing record and the fit's
    objective; map_x and map_z take a raw vector or the rows of a matrix."""
    w_x: np.ndarray
    w_z: np.ndarray
    pre_x: PreprocessRecord
    pre_z: PreprocessRecord
    objective: float

    def map_x(self, rows):
        return self.pre_x.apply(rows) @ self.w_x

    def map_z(self, rows):
        return self.pre_z.apply(rows) @ self.w_z


def fit_orthogonal_mapping(x, z, pairs):
    """Procrustes-optimal orthogonal pair: SVD of X_D^T Z_D = U S V^T gives
    W_x = U, W_z = V; common-space embeddings are X W_x and Z W_z.  Returns
    (W_x, W_z, sum(S) / |D|).  When every row of x and z is unit-length or
    zero, as `preprocess` leaves them, that value is the mean cosine of the
    dictionary pairs in the common space: the pairs' dot products there sum
    to tr(U^T X_D^T Z_D V) = tr(S), and orthogonal W_x, W_z keep row norms."""
    if not len(pairs):
        raise ValueError("empty dictionary")
    xi = np.array([p[0] for p in pairs])
    zi = np.array([p[1] for p in pairs])
    m = x[xi].T @ z[zi]
    u, s, vt = np.linalg.svd(m)
    if s.size and s[-1] < 1e-12 * max(s[0], 1.0):
        warnings.warn("rank-deficient cross-covariance in orthogonal fit")
    return u, vt.T, float(s.sum() / len(pairs))


def _similarity_blocks(a, b):
    """Yields (start, a[start:start + CSLS_BLOCK] @ b.T), each block in one
    buffer that the next block overwrites."""
    buf = np.empty((min(CSLS_BLOCK, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], CSLS_BLOCK):
        block = a[start:start + CSLS_BLOCK]
        yield start, np.matmul(block, b.T, out=buf[:len(block)])


def csls_blocks(x_mapped, z_mapped, k):
    """CSLS(x_i, z_j) = 2 cos(x_i, z_j) - r_z(x_i) - r_x(z_j), where r_z(x_i)
    is the mean cosine of x_i's k nearest rows of z_mapped and r_x(z_j) that
    of z_j's k nearest rows of x_mapped (Conneau et al. 2018).  Yields
    (start, scores): the scores of the CSLS_BLOCK rows of x from `start` on,
    in one buffer that the next block overwrites.  A first pass of z against
    x forms r_x(z) and releases its buffer before the scores' pass, so no
    step holds more than two blocks of similarities."""
    if x_mapped.size == 0 or z_mapped.size == 0:
        raise ValueError("empty mapped matrix")
    xn = normalize_rows(x_mapped)
    zn = normalize_rows(z_mapped)
    kx, kz = min(k, zn.shape[0]), min(k, xn.shape[0])
    r_z = np.empty(zn.shape[0])  # z's neighborhood in x
    for a, sims in _similarity_blocks(zn, xn):
        sims.partition(-kz, axis=1)
        r_z[a:a + len(sims)] = sims[:, -kz:].mean(axis=1)
    del sims  # the first pass's buffer
    for a, sims in _similarity_blocks(xn, zn):
        r_x = np.partition(sims, -kx, axis=1)[:, -kx:].mean(axis=1)  # x's neighborhood in z
        sims *= 2.0
        sims -= r_x[:, None]
        sims -= r_z[None, :]
        yield a, sims


def induce_dictionary(x_mapped, z_mapped, k):
    """Union of the CSLS-argmax pairing in both directions.  Each row of x
    takes its best row of z; each row of z takes the first row of x that
    reaches its best score, as argmax over the whole score matrix would."""
    fwd = []
    bwd = np.zeros(len(z_mapped), dtype=np.intp)
    best = np.full(len(z_mapped), -np.inf)
    for a, scores in csls_blocks(x_mapped, z_mapped, k):
        fwd.append(scores.argmax(axis=1))
        top = scores.max(axis=0)
        better = top > best  # strict: a tie keeps the earlier block's row
        best[better] = top[better]
        bwd[better] = (scores == top).argmax(axis=0)[better] + a
    pairs = {(i, int(j)) for i, j in enumerate(np.concatenate(fwd))}
    pairs |= {(int(i), j) for j, i in enumerate(bwd)}
    return sorted(pairs)


def self_learning_loop(x, z, seed_dict):
    """Alternate Procrustes fit and CSLS induction over the preprocessed
    x and z; return the fit (W_x, W_z, objective) with the best objective seen."""
    fit = best = fit_orthogonal_mapping(x, z, seed_dict)
    stall = 0
    for _ in range(MAX_ITERS):
        w_x, w_z, _ = fit
        fit = fit_orthogonal_mapping(x, z, induce_dictionary(x @ w_x, z @ w_z, CSLS_K))
        if fit[2] > best[2] + 1e-9:
            best = fit
            stall = 0
        else:
            stall += 1
            if stall >= PATIENCE:
                break
    return best


def save_mapping(model, path):
    arrays = {"w_x": model.w_x, "w_z": model.w_z,
              "pre_x": model.pre_x.column_means, "pre_z": model.pre_z.column_means}
    artifact.save(path, "mapping", {"objective": model.objective}, arrays)


def load_mapping(path):
    """The mapping at `path`.  Its width d is the row count of w_x; an
    artifact missing any of its four arrays, or whose w_x and w_z are not
    d x d or pre_x and pre_z not of length d, is an ArtifactError naming the
    file."""
    def decode(header, arrays):
        objective = float(header["objective"])
        d = len(arrays["w_x"])
        w_x, w_z = (artifact.require_shape(arrays, name, (d, d)) for name in ("w_x", "w_z"))
        pre_x, pre_z = (PreprocessRecord(artifact.require_shape(arrays, name, (d,)))
                        for name in ("pre_x", "pre_z"))
        return MappingModel(w_x, w_z, pre_x, pre_z, objective)
    return artifact.load(path, "mapping", decode)


def fit_mapping(e_v, e_m):
    """Pipeline entry: preprocess both matrices, seed with identity pairs over
    the shared vocabulary, and refine by self-learning."""
    if e_v.dim != e_m.dim:
        raise ValueError(f"cannot map E_V of dim {e_v.dim} onto E_M of dim "
                         f"{e_m.dim}: both spaces must have the same dim")
    shared = [t for t in e_v.tokens if t in e_m.index]
    if not shared:
        raise ValueError("no shared vocabulary between the two spaces")
    x, pre_x = preprocess(e_v.rows)
    z, pre_z = preprocess(e_m.rows)
    seed = [(e_v.index[t], e_m.index[t]) for t in shared]
    w_x, w_z, objective = self_learning_loop(x, z, seed)
    return MappingModel(w_x, w_z, pre_x, pre_z, objective)
