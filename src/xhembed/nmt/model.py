"""Model definition: 2-layer BiGRU encoder, 2-layer GRU decoder with global
multiplicative attention.  Forward and backward passes are hand-written on
numpy so gradients can be verified by finite differences.

Each GRU is three tensors, `{prefix}_W` (I, 3H), `{prefix}_U` (H, 3H) and
`{prefix}_b` (3H), whose column blocks are the update, reset and candidate
gates in that order, [z|r|c].  `param_shapes` is the one statement of the
tensors of a config: `build_model` draws them from it, and checkpoints with
any other names or shapes (such as the nine per-gate tensors per GRU of
earlier versions) are rejected when loaded.

`gru_forward` runs one GRU, or both directions of an encoder layer, in one
time-major loop of `_gru_step`, the step `decoder_step` also takes.
`stack_forward` and `stack_backward` run a stack of such layers, the encoder
and the decoder alike.  Dropout applies to the input of each GRU layer and to
the attention output.

`build_model` makes float32 tensors, the precision training and decoding run
in.  Every kernel allocates in its parameters' dtype, so a float64 model (a
checkpoint written in float64, or the tests' cast) runs in float64 throughout."""

from dataclasses import dataclass

import numpy as np

from ..corpus import PAD


@dataclass
class Seq2SeqConfig:
    enc_layers: int = 2
    dec_layers: int = 2
    hidden: int = 128          # per-direction encoder size is hidden // 2
    emb_dim: int = 300
    dropout: float = 0.3
    max_decode_len: int = 50
    beam: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.hidden < 2 or self.hidden % 2 != 0:
            raise ValueError(f"hidden size must be even and >= 2 (split across "
                             f"directions), got {self.hidden}")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_decode_len < 1:
            raise ValueError("max_decode_len must be >= 1")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ValueError(f"enc_layers and dec_layers must be >= 1, got "
                             f"{self.enc_layers} and {self.dec_layers}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def param_shapes(cfg, n_src, n_tgt):
    """The name and shape of every tensor of the model for `cfg` with source
    and target vocabularies of n_src and n_tgt types: the one statement of its
    layout, which build_model draws in this order and load_checkpoint checks
    against."""
    h, h2, e = cfg.hidden, cfg.hidden // 2, cfg.emb_dim
    shapes = {"src_emb": (n_src, e), "tgt_emb": (n_tgt, e)}

    def gru(prefix, in_dim, hid):
        shapes.update({f"{prefix}_W": (in_dim, 3 * hid),
                       f"{prefix}_U": (hid, 3 * hid), f"{prefix}_b": (3 * hid,)})

    for l in range(cfg.enc_layers):
        for d in "fb":
            gru(f"enc_{l}_{d}", e if l == 0 else h, h2)
    for l in range(cfg.dec_layers):
        gru(f"dec_{l}", e if l == 0 else h, h)
        shapes.update({f"bridge_{l}_W": (h, h), f"bridge_{l}_b": (h,)})
    shapes.update({"att_W": (h, h), "comb_W": (2 * h, h), "comb_b": (h,),
                   "out_W": (h, n_tgt), "out_b": (n_tgt,)})
    return shapes


def param_names(cfg):
    """The tensor names build_model creates for `cfg`, in its order."""
    return list(param_shapes(cfg, 0, 0))


def build_model(cfg, source_init, target_vocab, init_scale=0.1, source_vocab=None):
    """Create the parameter dict, one tensor per entry of param_shapes.  The
    source embedding table is copied from `source_init` (an
    InitializedEmbeddings or EmbeddingMatrix) whose row order must match the
    source vocabulary ids; biases are zero and everything else is seeded
    uniform +/-init_scale.  Every tensor is float32; the draws and the init
    table are float64 until the one cast at the end."""
    matrix = getattr(source_init, "matrix", source_init)
    if matrix.dim != cfg.emb_dim:
        raise ValueError(f"source init dim {matrix.dim} != config emb_dim {cfg.emb_dim}")
    if len(matrix) == 0:
        raise ValueError("empty source initialization")
    if source_vocab is not None and matrix.tokens != source_vocab.id_to_token:
        raise ValueError("source init does not cover the source vocabulary "
                         "in id order")
    rng = np.random.default_rng(cfg.seed)
    shapes = param_shapes(cfg, len(matrix), len(target_vocab))
    params = {}
    for name, shape in shapes.items():
        if name in params:                 # a GRU's _U, drawn with its _W
            continue
        if name == "src_emb":
            params[name] = matrix.rows.copy()
        elif name.endswith("_b"):
            params[name] = np.zeros(shape)
        elif name.endswith("_W") and f"{name[:-2]}_U" in shapes:
            # gate blocks drawn in the order W_z, U_z, W_r, U_r, W_c, U_c
            in_dim, hid = shape[0], shape[1] // 3
            blocks = [rng.uniform(-init_scale, init_scale, (d, hid))
                      for _ in range(3) for d in (in_dim, hid)]
            params[name] = np.concatenate(blocks[0::2], axis=1)
            params[f"{name[:-2]}_U"] = np.concatenate(blocks[1::2], axis=1)
        else:
            params[name] = rng.uniform(-init_scale, init_scale, shape)
    return {name: t.astype(np.float32) for name, t in params.items()}


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def _cat(p, prefixes, name):
    """The `name` tensors of the GRUs in `prefixes`, side by side."""
    return np.concatenate([p[f"{q}_{name}"] for q in prefixes], axis=-1)


def _split_dirs(a, n_dir):
    """(B, D*H) states side by side -> (D, B, H) view."""
    return a.reshape(a.shape[0], n_dir, -1).swapaxes(0, 1)


def _join_dirs(a):
    """(D, B, H) -> (B, D*H), the inverse of _split_dirs."""
    return a.swapaxes(0, 1).reshape(a.shape[1], -1)


def _dir_time(a, d):
    """(T, ...) array `a` in the time order of direction d: the backward
    direction (d = 1) of an encoder layer reads time reversed."""
    return a[::-1] if d else a


def _gru_step(u_zr, u_c, xw_zr, xw_c, h_prev, zr, rh, c, h):
    """One step of a GRU, or of D stacked GRUs at once: h_prev (..., B, H)
    -> h, written into the buffers zr ([z|r], (..., B, 2H)), rh (r * h_prev),
    c (candidate) and h.  xw_zr and xw_c are the step's [z|r] and candidate
    columns of x @ W + b; u_zr and u_c the same blocks of U."""
    hid = h_prev.shape[-1]
    np.matmul(h_prev, u_zr, out=zr)
    zr += xw_zr
    np.negative(zr, out=zr)            # sigmoid(a) = 1 / (1 + exp(-a))
    np.exp(zr, out=zr)
    zr += 1.0
    np.reciprocal(zr, out=zr)
    np.multiply(zr[..., hid:], h_prev, out=rh)
    np.matmul(rh, u_c, out=c)
    c += xw_c
    np.tanh(c, out=c)
    np.subtract(c, h_prev, out=h)      # h = h_prev + z (c - h_prev)
    h *= zr[..., :hid]
    h += h_prev


def gru_forward(p, prefixes, x, mask, h0):
    """Run the GRUs named in `prefixes` over (B,T,I) input in one time loop:
    one GRU, or the forward and backward direction of an encoder layer, the
    latter reading the input time-reversed.  h0 (B, D*H) holds the D initial
    states side by side.  A position where mask (B,T) is 0 carries the state
    through unchanged; mask None means no padding.  Returns (hs (B,T,D*H),
    every direction in the original time order, h_last (B,D*H), cache)."""
    n_dir = len(prefixes)
    b, t_len, _ = x.shape
    u = np.stack([p[f"{q}_U"] for q in prefixes])
    hid, dtype = u.shape[1], u.dtype
    # x @ W + b, written time-major in each direction's time order; x @ W is
    # one 2-D BLAS call on (B*T, I) rows per direction
    xw = np.empty((t_len, n_dir, b, 3 * hid), dtype)
    x_rows = x.reshape(b * t_len, -1)
    for d, q in enumerate(prefixes):
        x_w = (x_rows @ p[f"{q}_W"]).reshape(b, t_len, 3 * hid).swapaxes(0, 1)
        np.add(_dir_time(x_w, d), p[f"{q}_b"], out=xw[:, d])
    if mask is not None:
        # z = 0 at a padded position keeps h = h_prev there, and zeroes the
        # position's factors in gru_backward
        pad = (mask == 0).T
        for d in range(n_dir):
            xw[:, d, :, :hid][_dir_time(pad, d)] = -np.inf
    u_zr, u_c = u[..., :2 * hid], u[..., 2 * hid:]
    hs = np.empty((t_len + 1, n_dir, b, hid), dtype)  # hs[t] is step t's h_prev
    hs[0] = _split_dirs(h0, n_dir)
    zrs = np.empty((t_len, n_dir, b, 2 * hid), dtype)
    rhs = np.empty((t_len, n_dir, b, hid), dtype)
    cs = np.empty_like(rhs)
    xw_zr, xw_c = xw[..., :2 * hid], xw[..., 2 * hid:]
    for t in range(t_len):
        _gru_step(u_zr, u_c, xw_zr[t], xw_c[t], hs[t], zrs[t], rhs[t], cs[t],
                  hs[t + 1])
    out = np.concatenate([_dir_time(hs[1:, d], d).swapaxes(0, 1)
                          for d in range(n_dir)], axis=2)
    return out, _join_dirs(hs[-1]), (prefixes, x, hs, zrs, rhs, cs)


def gru_backward(p, cache, dhs, dh_last, grads):
    """Backward through gru_forward.  dhs (B,T,D*H): grads on its outputs;
    dh_last (B,D*H): extra grads on the final states.  Every factor that
    depends only on the forward pass is taken for all steps before the time
    loop, which carries only the recurrent terms; the weight grads and dx are
    taken after it.  Returns (dx (B,T,I), summed over the directions, dh0
    (B,D*H))."""
    prefixes, x, hs, zrs, rhs, cs = cache
    t_len, n_dir, b, hid = cs.shape
    h_prev = hs[:-1]
    z, r = zrs[..., :hid], zrs[..., hid:]
    # per-step factors: da_z = dh f_z, da_c = dh f_c, da_r = d(r h_prev) f_r,
    # and dh reaches h_prev directly through (1 - z).  z = 0 at a padded
    # position zeroes f_z and f_c there, so dh passes it unchanged.
    one_minus_z = 1.0 - z
    f_z = cs - h_prev
    f_z *= z
    f_z *= one_minus_z
    f_c = cs * cs
    np.subtract(1.0, f_c, out=f_c)
    f_c *= z
    f_r = 1.0 - r
    f_r *= r
    f_r *= h_prev
    dhs_t = np.empty_like(cs)
    for d in range(n_dir):
        dhs_t[:, d] = _dir_time(dhs[:, :, d * hid:(d + 1) * hid].swapaxes(0, 1), d)
    u = np.stack([p[f"{q}_U"] for q in prefixes])
    u_zr_t = np.ascontiguousarray(u[..., :2 * hid].swapaxes(1, 2))
    u_c_t = np.ascontiguousarray(u[..., 2 * hid:].swapaxes(1, 2))
    da = np.empty((t_len, n_dir, b, 3 * hid), cs.dtype)  # [z|r|c] pre-activations
    da_z, da_r, da_c = da[..., :hid], da[..., hid:2 * hid], da[..., 2 * hid:]
    da_zr = da[..., :2 * hid]
    dh = _split_dirs(dh_last, n_dir).copy()
    for t in range(t_len - 1, -1, -1):
        dh += dhs_t[t]
        np.multiply(dh, f_z[t], out=da_z[t])
        np.multiply(dh, f_c[t], out=da_c[t])
        drh = np.matmul(da_c[t], u_c_t)
        np.multiply(drh, f_r[t], out=da_r[t])
        dh *= one_minus_z[t]
        drh *= r[t]
        dh += drh
        dh += np.matmul(da_zr[t], u_zr_t)
    for d, q in enumerate(prefixes):
        g_u = grads[f"{q}_U"]
        g_u[:, :2 * hid] += (h_prev[:, d].reshape(-1, hid).T
                             @ da_zr[:, d].reshape(-1, 2 * hid))
        g_u[:, 2 * hid:] += rhs[:, d].reshape(-1, hid).T @ da_c[:, d].reshape(-1, hid)
    # back to (B,T) rows in the original time order, directions side by side
    da_flat = np.concatenate([_dir_time(da[:, d], d).swapaxes(0, 1)
                              for d in range(n_dir)], axis=2).reshape(b * t_len, -1)
    w = _cat(p, prefixes, "W")
    g_w = x.reshape(-1, w.shape[0]).T @ da_flat
    g_b = da_flat.sum(axis=0)
    for d, q in enumerate(prefixes):
        cols = slice(3 * hid * d, 3 * hid * (d + 1))
        grads[f"{q}_W"] += g_w[:, cols]
        grads[f"{q}_b"] += g_b[cols]
    dx = (da_flat @ w.T).reshape(x.shape)
    return dx, _join_dirs(dh)


def _dropout(x, rate, rng):
    """Inverted dropout: (x * mask, mask in x's dtype), or (x, None) when rng
    is None or rate is zero."""
    if rng is None or rate <= 0.0:
        return x, None
    m = np.divide(rng.random(x.shape) >= rate, 1.0 - rate, dtype=x.dtype)
    return x * m, m


def _encoder_layers(cfg):
    return [(f"enc_{l}_f", f"enc_{l}_b") for l in range(cfg.enc_layers)]


def stack_forward(params, layers, x, mask, h0s, rate, rng):
    """Run a stack of GRU layers over (B,T,I) input x, each layer named by
    its tuple of prefixes as in gru_forward and started from its entry of
    h0s.  Dropout at `rate` applies to the input of every layer.  Returns
    (top layer outputs (B,T,D*H), each layer's final state, cache)."""
    finals, cache = [], []
    for prefixes, h0 in zip(layers, h0s):
        x, drop_mask = _dropout(x, rate, rng)
        x, h_last, gru_cache = gru_forward(params, prefixes, x, mask, h0)
        finals.append(h_last)
        cache.append((drop_mask, gru_cache))
    return x, finals, cache


def stack_backward(params, cache, dtop, dh_lasts, grads):
    """Backward through stack_forward.  dtop: grads on the top layer's
    outputs; dh_lasts: grads on each layer's final state.  Returns (dx on the
    stack's input before dropout, each layer's dh0)."""
    dx, dh0s = dtop, [None] * len(cache)
    for l in range(len(cache) - 1, -1, -1):
        drop_mask, gru_cache = cache[l]
        dx, dh0s[l] = gru_backward(params, gru_cache, dx, dh_lasts[l], grads)
        if drop_mask is not None:
            dx = dx * drop_mask
    return dx, dh0s


def bridge(params, cfg, enc_finals):
    states, pres = [], []
    for l in range(cfg.dec_layers):
        src = enc_finals[min(l, len(enc_finals) - 1)]
        pre = src @ params[f"bridge_{l}_W"] + params[f"bridge_{l}_b"]
        states.append(np.tanh(pre))
        pres.append((src, states[-1]))
    return states, pres


def attention_output(params, h_top, h_enc, src_mask):
    """Global multiplicative attention + tanh combination layer, vectorized
    over decoder time steps.  h_top: (B,T,H); h_enc: (B,S,H)."""
    proj = h_enc @ params["att_W"].T                      # (B,S,H)
    scores = np.einsum("bth,bsh->bts", h_top, proj)
    scores = scores - 1e9 * (1.0 - src_mask[:, None, :])
    scores -= scores.max(axis=2, keepdims=True)
    exp = np.exp(scores) * src_mask[:, None, :]
    alpha = exp / exp.sum(axis=2, keepdims=True)
    ctx = np.einsum("bts,bsh->bth", alpha, h_enc)
    comb_in = np.concatenate([h_top, ctx], axis=2)
    a = np.tanh(comb_in @ params["comb_W"] + params["comb_b"])
    return a, (proj, alpha, ctx, comb_in, a)


def attention_backward(params, cache, h_top, h_enc, da, grads):
    proj, alpha, ctx, comb_in, a = cache
    da_pre = da * (1.0 - a * a)
    b, t_len, h = a.shape
    grads["comb_W"] += comb_in.reshape(-1, 2 * h).T @ da_pre.reshape(-1, h)
    grads["comb_b"] += da_pre.sum(axis=(0, 1))
    dcomb_in = da_pre @ params["comb_W"].T
    dh_top = dcomb_in[:, :, :h].copy()
    dctx = dcomb_in[:, :, h:]
    dalpha = np.einsum("bth,bsh->bts", dctx, h_enc)
    dh_enc = np.einsum("bts,bth->bsh", alpha, dctx)
    dscores = alpha * (dalpha - np.sum(dalpha * alpha, axis=2, keepdims=True))
    dh_top += np.einsum("bts,bsh->bth", dscores, proj)
    tmp = np.einsum("bts,bsh->bth", dscores, h_enc)      # d(h_top @ att_W)
    grads["att_W"] += h_top.reshape(-1, h).T @ tmp.reshape(-1, h)
    dh_enc += np.einsum("bts,bth->bsh", dscores, h_top @ params["att_W"])
    return dh_top, dh_enc


def forward_loss(params, cfg, batch, dropout_on=False, rng=None,
                 compute_grads=True):
    """Mean token cross-entropy over non-PAD target positions, as a Python
    float, with gradients in the parameters' dtype for every parameter.
    Teacher-forced decoding with per-step attention."""
    rate, rng = (cfg.dropout, rng) if dropout_on else (0.0, None)
    dtype = params["src_emb"].dtype
    src_ids, src_mask = batch.src_ids, batch.src_mask
    y_in, y_out = batch.tgt_ids[:, :-1], batch.tgt_ids[:, 1:]
    out_mask = (y_out != PAD).astype(dtype)
    n_tokens = out_mask.sum()
    if n_tokens == 0:
        raise ValueError("batch has no target tokens")

    h0 = np.zeros((src_ids.shape[0], cfg.hidden), dtype)
    h_enc, enc_finals, enc_cache = stack_forward(
        params, _encoder_layers(cfg), params["src_emb"][src_ids], src_mask,
        [h0] * cfg.enc_layers, rate, rng)
    dec_h0, bridge_cache = bridge(params, cfg, enc_finals)
    h_top, _, dec_cache = stack_forward(
        params, [(f"dec_{l}",) for l in range(cfg.dec_layers)],
        params["tgt_emb"][y_in], None, dec_h0, rate, rng)

    a, att_cache = attention_output(params, h_top, h_enc, src_mask)
    a_d, a_mask = _dropout(a, rate, rng)
    # The output layer works on (B*T, .) rows, so each matmul is one 2-D BLAS
    # call, and on one (B*T, V) buffer: the logits, then their exponents,
    # then dlogits, each in place.
    bsz, t_len = y_out.shape
    a_flat = a_d.reshape(bsz * t_len, -1)
    rows, gold_ids = np.arange(bsz * t_len), y_out.reshape(-1)
    buf = a_flat @ params["out_W"] + params["out_b"]
    buf -= buf.max(axis=1, keepdims=True)
    gold = buf[rows, gold_ids]
    np.exp(buf, out=buf)
    z = buf.sum(axis=1)
    gold_log_probs = (gold - np.log(z)).reshape(bsz, t_len)
    loss = float(-(gold_log_probs * out_mask).sum() / n_tokens)
    if not compute_grads:
        return loss, None

    grads = zero_grads(params)
    mask_flat = out_mask.reshape(-1)
    buf *= (mask_flat / (z * n_tokens))[:, None]   # softmax * mask / n
    buf[rows, gold_ids] -= mask_flat / n_tokens
    grads["out_W"] += a_flat.T @ buf
    grads["out_b"] += buf.sum(axis=0)
    da_d = (buf @ params["out_W"].T).reshape(a_d.shape)
    da = da_d if a_mask is None else da_d * a_mask
    dh_top, dh_enc = attention_backward(params, att_cache, h_top, h_enc, da, grads)

    demb, d_h0 = stack_backward(params, dec_cache, dh_top,
                                [np.zeros_like(h) for h in dec_h0], grads)
    np.add.at(grads["tgt_emb"], y_in, demb)

    # bridge
    d_enc_finals = [np.zeros_like(f) for f in enc_finals]
    for l in range(cfg.dec_layers):
        src, out = bridge_cache[l]
        dpre = d_h0[l] * (1.0 - out * out)
        grads[f"bridge_{l}_W"] += src.T @ dpre
        grads[f"bridge_{l}_b"] += dpre.sum(axis=0)
        d_enc_finals[min(l, len(enc_finals) - 1)] += dpre @ params[f"bridge_{l}_W"].T

    demb, _ = stack_backward(params, enc_cache, dh_enc, d_enc_finals, grads)
    np.add.at(grads["src_emb"], src_ids, demb)
    return loss, grads


def decoder_step(params, cfg, state, y_prev, h_enc, src_mask):
    """One decode step for a (B,) batch of previous tokens, through the
    _gru_step that training runs.  Returns (log_probs (B,Vt), new per-layer
    states)."""
    x = params["tgt_emb"][y_prev]
    new_state = []
    for l in range(cfg.dec_layers):
        u, h_prev = params[f"dec_{l}_U"], state[l]
        b, hid = h_prev.shape
        xw = x @ params[f"dec_{l}_W"] + params[f"dec_{l}_b"]
        zr = np.empty((b, 2 * hid), u.dtype)
        rh, c, x = np.empty((3, b, hid), u.dtype)
        _gru_step(u[:, :2 * hid], u[:, 2 * hid:], xw[:, :2 * hid],
                  xw[:, 2 * hid:], h_prev, zr, rh, c, x)
        new_state.append(x)
    h_top = x[:, None, :]
    a, _ = attention_output(params, h_top, h_enc, src_mask)
    logits = a[:, 0] @ params["out_W"] + params["out_b"]
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return log_probs, new_state


def encode_for_decoding(params, cfg, src_ids, src_mask):
    h0 = np.zeros((src_ids.shape[0], cfg.hidden), params["src_emb"].dtype)
    h_enc, finals, _ = stack_forward(params, _encoder_layers(cfg),
                                     params["src_emb"][src_ids], src_mask,
                                     [h0] * cfg.enc_layers, 0.0, None)
    state, _ = bridge(params, cfg, finals)
    return h_enc, state
