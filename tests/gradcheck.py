"""Finite-difference verification of the analytic gradients."""

import numpy as np

from xhembed.nmt.model import forward_loss


def gradient_check(params, cfg, batch, sample_size=100, seed=0):
    """Compare analytic gradients against finite differences for
    `sample_size` randomly chosen scalar parameters (dropout off, double
    precision).  The reference is central differences D(h) extrapolated as
    (4*D(h/2) - D(h)) / 3 with h = 1e-3 * max(1, |theta|): the large step
    keeps the rounding error of the loss small next to gradients near 1e-8,
    and the extrapolation cancels the O(h^2) error the large step brings.
    Returns the max relative error; a zero analytic gradient with zero
    finite difference counts as error 0.  The check runs on a float64 copy of
    `params`, whatever their dtype, and leaves them untouched."""
    params = {name: t.astype(np.float64) for name, t in params.items()}
    rng = np.random.default_rng(seed)
    _, grads = forward_loss(params, cfg, batch)
    names = sorted(params)

    def central(flat, i, theta, h):
        flat[i] = theta + h
        lp, _ = forward_loss(params, cfg, batch, compute_grads=False)
        flat[i] = theta - h
        lm, _ = forward_loss(params, cfg, batch, compute_grads=False)
        flat[i] = theta
        return (lp - lm) / (2.0 * h)

    max_err = 0.0
    for _ in range(sample_size):
        name = names[int(rng.integers(len(names)))]
        flat = params[name].reshape(-1)
        i = int(rng.integers(flat.size))
        theta = flat[i]
        h = 1e-3 * max(1.0, abs(theta))
        numeric = (4.0 * central(flat, i, theta, h / 2)
                   - central(flat, i, theta, h)) / 3.0
        analytic = grads[name].reshape(-1)[i]
        denom = max(abs(numeric), abs(analytic))
        err = 0.0 if denom == 0.0 else abs(numeric - analytic) / denom
        max_err = max(max_err, err)
    return max_err
