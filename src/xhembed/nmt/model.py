"""Model definition: 2-layer BiGRU encoder, 2-layer GRU decoder with global
multiplicative attention.  Forward and backward passes are hand-written on
numpy so gradients can be verified by finite differences.

Each GRU is three tensors, `{prefix}_W` (I, 3H), `{prefix}_U` (H, 3H) and
`{prefix}_b` (3H), whose column blocks are the update, reset and candidate
gates in that order, [z|r|c].  `param_names` lists the tensors of a config;
checkpoints with any other set of names (such as the nine per-gate tensors
per GRU of earlier versions) are rejected when loaded."""

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
        if self.hidden % 2 != 0:
            raise ValueError("hidden size must be even (split across directions)")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if self.max_decode_len < 1:
            raise ValueError("max_decode_len must be >= 1")


def _init_gru(params, rng, prefix, in_dim, hid, scale):
    """Stacked gate blocks [z|r|c]: W (in_dim, 3*hid), U (hid, 3*hid),
    b (3*hid).  Blocks are drawn in the order W_z, U_z, W_r, U_r, W_c, U_c."""
    ws, us = [], []
    for _ in range(3):
        ws.append(rng.uniform(-scale, scale, (in_dim, hid)))
        us.append(rng.uniform(-scale, scale, (hid, hid)))
    params[f"{prefix}_W"] = np.concatenate(ws, axis=1)
    params[f"{prefix}_U"] = np.concatenate(us, axis=1)
    params[f"{prefix}_b"] = np.zeros(3 * hid)


def param_names(cfg):
    """The tensor names build_model creates for `cfg`, in its order."""
    gru = ("W", "U", "b")
    names = ["src_emb", "tgt_emb"]
    for l in range(cfg.enc_layers):
        names += [f"enc_{l}_{d}_{n}" for d in "fb" for n in gru]
    for l in range(cfg.dec_layers):
        names += [f"dec_{l}_{n}" for n in gru] + [f"bridge_{l}_W", f"bridge_{l}_b"]
    return names + ["att_W", "comb_W", "comb_b", "out_W", "out_b"]


def build_model(cfg, source_init, target_vocab, seed=None, init_scale=0.1,
                source_vocab=None):
    """Create the parameter dict.  The source embedding table is copied from
    `source_init` (an InitializedEmbeddings or EmbeddingMatrix) whose row
    order must match the source vocabulary ids; everything else is seeded
    uniform +/-init_scale."""
    matrix = getattr(source_init, "matrix", source_init)
    if matrix.dim != cfg.emb_dim:
        raise ValueError(f"source init dim {matrix.dim} != config emb_dim {cfg.emb_dim}")
    if len(matrix) == 0:
        raise ValueError("empty source initialization")
    if source_vocab is not None and matrix.tokens != source_vocab.id_to_token:
        raise ValueError("source init does not cover the source vocabulary "
                         "in id order")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    h, h2, e = cfg.hidden, cfg.hidden // 2, cfg.emb_dim
    vt = len(target_vocab)
    params = {}
    params["src_emb"] = matrix.rows.copy()
    params["tgt_emb"] = rng.uniform(-init_scale, init_scale, (vt, e))
    for l in range(cfg.enc_layers):
        in_dim = e if l == 0 else h
        _init_gru(params, rng, f"enc_{l}_f", in_dim, h2, init_scale)
        _init_gru(params, rng, f"enc_{l}_b", in_dim, h2, init_scale)
    for l in range(cfg.dec_layers):
        in_dim = e if l == 0 else h
        _init_gru(params, rng, f"dec_{l}", in_dim, h, init_scale)
        params[f"bridge_{l}_W"] = rng.uniform(-init_scale, init_scale, (h, h))
        params[f"bridge_{l}_b"] = np.zeros(h)
    params["att_W"] = rng.uniform(-init_scale, init_scale, (h, h))
    params["comb_W"] = rng.uniform(-init_scale, init_scale, (2 * h, h))
    params["comb_b"] = np.zeros(h)
    params["out_W"] = rng.uniform(-init_scale, init_scale, (h, vt))
    params["out_b"] = np.zeros(vt)
    return params


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gru_input(p, prefix, x):
    """x @ W + b for every leading position of x (..., I) at once, as one 2-D
    matmul: a 3-D matmul on a strided view does not reach BLAS."""
    w = p[f"{prefix}_W"]
    return (x.reshape(-1, w.shape[0]) @ w + p[f"{prefix}_b"]).reshape(
        *x.shape[:-1], w.shape[1])


def _gru_step(u, xw_t, h_prev):
    """One step from the input projection xw_t (B,3H) and h_prev (B,H).
    Returns (h, [z|r], c)."""
    hid = h_prev.shape[1]
    zr = _sigmoid(xw_t[:, :2 * hid] + h_prev @ u[:, :2 * hid])
    z, r = zr[:, :hid], zr[:, hid:]
    c = np.tanh(xw_t[:, 2 * hid:] + (r * h_prev) @ u[:, 2 * hid:])
    h = (1.0 - z) * h_prev + z * c
    return h, zr, c


def gru_forward(p, prefix, x, mask, h0, reverse=False):
    """Run a GRU over (B,T,I) input.  Masked positions carry the previous
    state through unchanged.  Returns (hs (B,T,H), h_last, cache)."""
    xw = _gru_input(p, prefix, x)
    if reverse:
        xw = xw[:, ::-1]
        mask = mask[:, ::-1]
    u = p[f"{prefix}_U"]
    b, t_len, _ = x.shape
    hid = u.shape[0]
    hs = np.empty((b, t_len, hid))
    zrs = np.empty((b, t_len, 2 * hid))
    cs = np.empty_like(hs)
    h_prevs = np.empty_like(hs)
    h = h0
    for t in range(t_len):
        m = mask[:, t:t + 1]
        h_prevs[:, t] = h
        h_new, zrs[:, t], cs[:, t] = _gru_step(u, xw[:, t], h)
        h = m * h_new + (1.0 - m) * h
        hs[:, t] = h
    cache = (x, mask, h_prevs, zrs, cs, reverse)
    out = hs[:, ::-1] if reverse else hs
    return out, h, cache


def gru_backward(p, prefix, cache, dhs, dh_last, grads):
    """Backward through gru_forward.  dhs: (B,T,H) grads on outputs in
    original time order; dh_last: (B,H) extra grad on the final state.
    The time loop only carries the recurrent terms and stores the gate
    pre-activation grads; the weight grads and dx are taken after it.
    Returns (dx in original order, dh0)."""
    x, mask, h_prevs, zrs, cs, reverse = cache
    u = p[f"{prefix}_U"]
    b, t_len, hid = h_prevs.shape
    if dhs is None:
        dhs = np.zeros_like(h_prevs)
    elif reverse:
        dhs = dhs[:, ::-1]
    u_zr, u_c = u[:, :2 * hid], u[:, 2 * hid:]
    da = np.empty((b, t_len, 3 * hid))       # [z|r|c] pre-activation grads
    dh = dh_last.copy()
    for t in range(t_len - 1, -1, -1):
        m = mask[:, t:t + 1]
        h_prev, c = h_prevs[:, t], cs[:, t]
        z, r = zrs[:, t, :hid], zrs[:, t, hid:]
        dh_total = dh + dhs[:, t]
        dh_new = dh_total * m
        dh_prev = dh_total * (1.0 - m)
        dz = dh_new * (c - h_prev)
        dc = dh_new * z
        dh_prev = dh_prev + dh_new * (1.0 - z)
        dac = dc * (1.0 - c * c)
        drh = dac @ u_c.T
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r
        da[:, t, :hid] = dz * z * (1.0 - z)
        da[:, t, hid:2 * hid] = dr * r * (1.0 - r)
        da[:, t, 2 * hid:] = dac
        dh = dh_prev + da[:, t, :2 * hid] @ u_zr.T
    h_flat = h_prevs.reshape(-1, hid)
    r_flat = zrs.reshape(-1, 2 * hid)[:, hid:]
    da_flat = da.reshape(-1, 3 * hid)
    g_u = grads[f"{prefix}_U"]
    g_u[:, :2 * hid] += h_flat.T @ da_flat[:, :2 * hid]
    g_u[:, 2 * hid:] += (r_flat * h_flat).T @ da_flat[:, 2 * hid:]
    if reverse:  # x, dx and the returned order are the original time order
        da_flat = da[:, ::-1].reshape(-1, 3 * hid)
    w = p[f"{prefix}_W"]
    grads[f"{prefix}_W"] += x.reshape(-1, w.shape[0]).T @ da_flat
    grads[f"{prefix}_b"] += da_flat.sum(axis=0)
    dx = (da_flat @ w.T).reshape(x.shape)
    return dx, dh


class _Dropout:
    """Inverted dropout; a None rng or zero rate means identity."""

    def __init__(self, rate, rng):
        self.rate = rate
        self.rng = rng
        self.masks = []

    def apply(self, x):
        if self.rng is None or self.rate <= 0.0:
            self.masks.append(None)
            return x
        m = (self.rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        self.masks.append(m)
        return x * m

    def backward(self, i, dx):
        m = self.masks[i]
        return dx if m is None else dx * m


def encode(params, cfg, src_ids, src_mask, drop):
    """Returns (encoder outputs (B,S,H), per-layer final states, cache)."""
    x = params["src_emb"][src_ids]
    x = drop.apply(x)
    layer_caches = []
    finals = []
    h2 = cfg.hidden // 2
    b = src_ids.shape[0]
    h0 = np.zeros((b, h2))
    for l in range(cfg.enc_layers):
        hf, hf_last, cf = gru_forward(params, f"enc_{l}_f", x, src_mask, h0)
        hb, hb_last, cb = gru_forward(params, f"enc_{l}_b", x, src_mask, h0, reverse=True)
        out = np.concatenate([hf, hb], axis=2)
        finals.append(np.concatenate([hf_last, hb_last], axis=1))
        layer_caches.append((cf, cb))
        if l < cfg.enc_layers - 1:
            x = drop.apply(out)
        else:
            x = out
    return x, finals, layer_caches


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
    """Mean token cross-entropy over non-PAD target positions, with gradients
    for every parameter.  Teacher-forced decoding with per-step attention."""
    drop = _Dropout(cfg.dropout if dropout_on else 0.0,
                    rng if dropout_on else None)
    src_ids, src_mask = batch.src_ids, batch.src_mask
    y_in, y_out = batch.tgt_ids[:, :-1], batch.tgt_ids[:, 1:]
    out_mask = (y_out != PAD).astype(np.float64)
    n_tokens = out_mask.sum()
    if n_tokens == 0:
        raise ValueError("batch has no target tokens")

    h_enc, enc_finals, enc_caches = encode(params, cfg, src_ids, src_mask, drop)
    n_enc_drops = len(drop.masks)
    dec_h0, bridge_cache = bridge(params, cfg, enc_finals)

    x = params["tgt_emb"][y_in]
    x = drop.apply(x)
    in_mask = np.ones_like(y_in, dtype=np.float64)
    dec_caches = []
    dec_inputs = [x]
    for l in range(cfg.dec_layers):
        hs, _, c = gru_forward(params, f"dec_{l}", x, in_mask, dec_h0[l])
        dec_caches.append(c)
        if l < cfg.dec_layers - 1:
            x = drop.apply(hs)
        else:
            x = hs
        dec_inputs.append(x)
    h_top = x

    a, att_cache = attention_output(params, h_top, h_enc, src_mask)
    a_d = drop.apply(a)
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
    loss = -(gold_log_probs * out_mask).sum() / n_tokens
    if not compute_grads:
        return loss, None

    grads = zero_grads(params)
    mask_flat = out_mask.reshape(-1)
    buf *= (mask_flat / (z * n_tokens))[:, None]   # softmax * mask / n
    buf[rows, gold_ids] -= mask_flat / n_tokens
    grads["out_W"] += a_flat.T @ buf
    grads["out_b"] += buf.sum(axis=0)
    da_d = (buf @ params["out_W"].T).reshape(a_d.shape)
    da = drop.backward(len(drop.masks) - 1, da_d)
    dh_top, dh_enc = attention_backward(params, att_cache, h_top, h_enc, da, grads)

    # decoder GRU stack, top down
    dec_drop_base = n_enc_drops  # index of the tgt-emb dropout mask
    dx_upper = dh_top
    d_h0 = [None] * cfg.dec_layers
    for l in range(cfg.dec_layers - 1, -1, -1):
        dx, dh0 = gru_backward(params, f"dec_{l}", dec_caches[l], dx_upper,
                               np.zeros_like(dec_h0[l]), grads)
        d_h0[l] = dh0
        if l > 0:
            # dx is the grad on the dropped output of layer l-1
            dx_upper = drop.backward(dec_drop_base + l, dx)
        else:
            demb = drop.backward(dec_drop_base, dx)
            np.add.at(grads["tgt_emb"], y_in, demb)

    # bridge
    d_enc_finals = [np.zeros_like(f) for f in enc_finals]
    for l in range(cfg.dec_layers):
        src, out = bridge_cache[l]
        dpre = d_h0[l] * (1.0 - out * out)
        grads[f"bridge_{l}_W"] += src.T @ dpre
        grads[f"bridge_{l}_b"] += dpre.sum(axis=0)
        d_enc_finals[min(l, len(enc_finals) - 1)] += dpre @ params[f"bridge_{l}_W"].T

    # encoder stack, top down
    h2 = cfg.hidden // 2
    dout = dh_enc
    for l in range(cfg.enc_layers - 1, -1, -1):
        cf, cb = enc_caches[l]
        dff, dfb = d_enc_finals[l][:, :h2], d_enc_finals[l][:, h2:]
        dxf, _ = gru_backward(params, f"enc_{l}_f", cf, dout[:, :, :h2], dff, grads)
        dxb, _ = gru_backward(params, f"enc_{l}_b", cb, dout[:, :, h2:], dfb, grads)
        dx = dxf + dxb
        if l > 0:
            dout = drop.backward(l, dx)
        else:
            demb = drop.backward(0, dx)
            np.add.at(grads["src_emb"], src_ids, demb)
    return loss, grads


def decoder_step(params, cfg, state, y_prev, h_enc, src_mask):
    """One decode step for a (B,) batch of previous tokens.  Returns
    (log_probs (B,Vt), new per-layer states)."""
    x = params["tgt_emb"][y_prev]
    new_state = []
    for l in range(cfg.dec_layers):
        h, _, _ = _gru_step(params[f"dec_{l}_U"],
                            _gru_input(params, f"dec_{l}", x), state[l])
        new_state.append(h)
        x = h
    h_top = x[:, None, :]
    a, _ = attention_output(params, h_top, h_enc, src_mask)
    logits = a[:, 0] @ params["out_W"] + params["out_b"]
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return log_probs, new_state


def encode_for_decoding(params, cfg, src_ids, src_mask):
    drop = _Dropout(0.0, None)
    h_enc, finals, _ = encode(params, cfg, src_ids, src_mask, drop)
    state, _ = bridge(params, cfg, finals)
    return h_enc, state
