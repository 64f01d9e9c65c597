"""The attention layer with its contractions written as np.einsum: the oracle
for the batched matmuls of `nmt.model.attention_output` and
`attention_backward`."""

import numpy as np

from xhembed.nmt.model import attention_keys


def _t(w):
    return w.swapaxes(-1, -2)


def einsum_attention_output(params, h_top, h_enc, src_mask, proj=None):
    """Global multiplicative attention + tanh combination layer.  h_top:
    (..., B,T,H); h_enc: (..., B,S,H); proj: attention_keys(params, h_enc),
    taken here when not given.  Returns (a, cache)."""
    if proj is None:
        proj = attention_keys(params, h_enc)
    scores = np.einsum("...bth,...bsh->...bts", h_top, proj)
    scores = scores - 1e9 * (1.0 - src_mask[:, None, :])
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores) * src_mask[:, None, :]
    alpha = exp / exp.sum(axis=-1, keepdims=True)
    ctx = np.einsum("...bts,...bsh->...bth", alpha, h_enc)
    comb_in = np.concatenate([h_top, ctx], axis=-1)
    a = np.tanh(comb_in @ params["comb_W"][..., None, :, :]
                + params["comb_b"][..., None, None, :])
    return a, (proj, alpha, comb_in, a)


def einsum_attention_backward(params, cache, h_top, h_enc, da, grads):
    """Backward through einsum_attention_output: adds the grads of comb_W,
    comb_b and att_W, and returns (dh_top, dh_enc)."""
    proj, alpha, comb_in, a = cache
    da_pre = da * (1.0 - a * a)
    *lead, _, _, h = a.shape
    grads["comb_W"] += (_t(comb_in.reshape(*lead, -1, 2 * h))
                        @ da_pre.reshape(*lead, -1, h))
    grads["comb_b"] += da_pre.sum(axis=(-3, -2))
    dcomb_in = da_pre @ _t(params["comb_W"])[..., None, :, :]
    dh_top = dcomb_in[..., :h].copy()
    dctx = dcomb_in[..., h:]
    dalpha = np.einsum("...bth,...bsh->...bts", dctx, h_enc)
    dh_enc = np.einsum("...bts,...bth->...bsh", alpha, dctx)
    dscores = alpha * (dalpha - np.sum(dalpha * alpha, axis=-1, keepdims=True))
    dh_top += np.einsum("...bts,...bsh->...bth", dscores, proj)
    tmp = np.einsum("...bts,...bsh->...bth", dscores, h_enc)   # d(h_top @ att_W)
    grads["att_W"] += _t(h_top.reshape(*lead, -1, h)) @ tmp.reshape(*lead, -1, h)
    dh_enc += np.einsum("...bts,...bth->...bsh", dscores,
                        h_top @ params["att_W"][..., None, :, :])
    return dh_top, dh_enc
