"""CSLS over the whole n x m score matrix at once: the oracle for the blocked
induction of `xmap.induce_dictionary`."""

import numpy as np

from xhembed.embedstore import normalize_rows


def full_csls(x_mapped, z_mapped, k):
    """CSLS(x_i, z_j) = 2 cos(x_i, z_j) - r_z(x_i) - r_x(z_j) for every pair,
    where r_z(x_i) is the mean cosine of x_i's k nearest rows of z_mapped
    and r_x(z_j) that of z_j's k nearest rows of x_mapped (Conneau et al. 2018)."""
    xn = normalize_rows(x_mapped)
    zn = normalize_rows(z_mapped)
    sims = xn @ zn.T
    kx = min(k, zn.shape[0])
    kz = min(k, xn.shape[0])
    r_x = np.partition(sims, -kx, axis=1)[:, -kx:].mean(axis=1)  # x's neighborhood in z
    r_z = np.partition(sims, -kz, axis=0)[-kz:, :].mean(axis=0)  # z's neighborhood in x
    return 2.0 * sims - r_x[:, None] - r_z[None, :]


def full_induce_dictionary(x_mapped, z_mapped, k):
    """Union of the CSLS-argmax pairing in both directions."""
    scores = full_csls(x_mapped, z_mapped, k)
    fwd = {(i, int(j)) for i, j in enumerate(scores.argmax(axis=1))}
    bwd = {(int(i), j) for j, i in enumerate(scores.argmax(axis=0))}
    return sorted(fwd | bwd)
