"""Mean dictionary cosine in the common space: the oracle for the objective
that `fit_orthogonal_mapping` reads off its SVD."""

import numpy as np

from xhembed.embedstore import normalize_rows


def dictionary_objective(x, z, pairs, w_x, w_z):
    """Mean cosine over dictionary pairs in the common space."""
    xi = np.array([p[0] for p in pairs])
    zi = np.array([p[1] for p in pairs])
    xm = normalize_rows(x[xi] @ w_x)
    zm = normalize_rows(z[zi] @ w_z)
    return float(np.sum(xm * zm, axis=1).mean())
