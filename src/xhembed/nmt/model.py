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
time-major loop of `_gru_step`.  `stack_forward` and `stack_backward` run a
stack of such layers, the encoder and the decoder alike; `_encoder_layers` and
`_decoder_layers` name them.  Dropout applies to the input of each GRU layer
and to the attention output.

The training kernels take an optional leading model axis M on every
parameter, activation and gradient: `forward_losses` on tensors stacked as
(M, ...) runs M models of one config over one batch in lockstep, each model
its own slice.  The batch ids and masks are shared, and each dropout mask is
drawn once at one model's shape and shared by the M models, so every model
sees the masks it would draw alone.  A stacked matmul is one BLAS call per
model at that model's shape, never one call over M folded into the rows, so
each slice is computed exactly as the single model computes it.
The attention's contractions over source and decoder positions are batched
matmuls over the leading (..., B) axes, one BLAS call per model and batch
row, in training, dev perplexity and every `decoder_step` alike.  The
embedding gradients are scattered by `_scatter_add_rows`: a stable sort of
the ids and one np.add.reduceat sum per id, which rounds the sum of an id of
three or more rows otherwise than adding them one at a time would.
`forward_loss` is the single-model case.  Decoding runs one model at a time.
`decoder_step` is one position of the training decoder: the same
`stack_forward` over the same layers, without dropout, then the attention and
a log-softmax.  It takes the live hypotheses of several sources at once, those
of each source side by side, and `attention_keys` lets a search take each
source's h_enc @ att_W^T once.

A forward pass caches what its backward pass reads, each value once.
`gru_forward` keeps the input, the states h_0..h_T and every step's [z|r]
gates and candidate; `gru_backward` redoes the step's r * h_prev from them.
`stack_forward` keeps each layer's dropout mask, as bool, and GRU cache,
`bridge` each decoder layer's encoder state and output, and
`attention_output` h_enc @ att_W^T, the attention weights, [h_top | context]
and its output.  The output layer keeps nothing: `forward_losses` takes its
logits, softmax, loss terms and gradients together, over blocks of the
(B*T) target rows of at most OUT_BLOCK_BYTES of logits per model (one row,
if a row is larger), so the logits a step holds at once do not grow with
the batch.

`build_model` makes float32 tensors, the precision training and decoding run
in.  Every kernel allocates in its parameters' dtype, so a float64 model (a
checkpoint written in float64, or the tests' cast) runs in float64 throughout."""

from dataclasses import dataclass

import numpy as np

from ..corpus import PAD, check_fields

# bytes of one model's output-layer buffer: forward_losses takes the logits,
# softmax and dlogits of as many (B*T) rows at a time as fit in it
OUT_BLOCK_BYTES = 4 << 20


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
        check_fields(self, ("enc_layers", self.enc_layers >= 1, ">= 1"),
                     ("dec_layers", self.dec_layers >= 1, ">= 1"),
                     ("hidden", self.hidden >= 2 and self.hidden % 2 == 0,
                      "even and >= 2 (split across directions)"),
                     ("dropout", 0 <= self.dropout < 1, "in [0, 1)"),
                     ("max_decode_len", self.max_decode_len >= 1, ">= 1"),
                     ("beam", self.beam >= 1, ">= 1"))


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


def build_model(cfg, source_init, target_vocab, init_scale=0.1, *, source_vocab):
    """Create the parameter dict, one tensor per entry of param_shapes.  The
    source embedding table is copied from `source_init` (an
    InitializedEmbeddings or EmbeddingMatrix) whose rows must be the tokens of
    `source_vocab` in id order; biases are zero and everything else is seeded
    uniform +/-init_scale.  Every tensor is float32; the draws and the init
    table are float64 until the one cast at the end."""
    matrix = getattr(source_init, "matrix", source_init)
    if matrix.dim != cfg.emb_dim:
        raise ValueError(f"source init dim {matrix.dim} != config emb_dim {cfg.emb_dim}")
    if len(matrix) == 0:
        raise ValueError("empty source initialization")
    if matrix.tokens != source_vocab.id_to_token:
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
    """(..., B, D*H) states side by side -> (..., D, B, H) view."""
    return a.reshape(*a.shape[:-1], n_dir, -1).swapaxes(-3, -2)


def _join_dirs(a):
    """(..., D, B, H) -> (..., B, D*H), the inverse of _split_dirs."""
    return a.swapaxes(-3, -2).reshape(*a.shape[:-3], a.shape[-2], -1)


def _dir_time(a, d):
    """(T, ...) array `a` in the time order of direction d: the backward
    direction (d = 1) of an encoder layer reads time reversed."""
    return a[::-1] if d else a


def _time_major(a):
    """(..., B, T, K) -> (T, ..., B, K) view."""
    n = a.ndim
    return a.transpose(n - 2, *range(n - 2), n - 1)


def _batch_major(a):
    """(T, ..., B, K) -> (..., B, T, K) view, the inverse of _time_major."""
    n = a.ndim
    return a.transpose(*range(1, n - 1), 0, n - 1)


def _t(w):
    """The matrices of `w` (..., I, O) transposed."""
    return w.swapaxes(-1, -2)


def _per_row(w):
    """Matrices (..., I, O) to multiply (..., B, T, I) activations with: one
    matmul per model and batch row, as for a single model's (I, O)."""
    return w[..., None, :, :]


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
    """Run the GRUs named in `prefixes` over (..., B,T,I) input in one time
    loop: one GRU, or the forward and backward direction of an encoder layer,
    the latter reading the input time-reversed.  h0 (..., B, D*H) holds the D
    initial states side by side.  A position where mask (B,T) is 0 carries
    the state through unchanged; mask None means no padding.  Returns (hs
    (..., B,T,D*H), every direction in the original time order, h_last
    (..., B,D*H), cache)."""
    n_dir = len(prefixes)
    *lead, b, t_len, _ = x.shape
    u = np.stack([p[f"{q}_U"] for q in prefixes], axis=-3)   # (..., D, H, 3H)
    hid, dtype = u.shape[-2], u.dtype
    # x @ W + b, written time-major in each direction's time order; x @ W is
    # one 2-D BLAS call on (B*T, I) rows per direction and model
    xw = np.empty((t_len, *lead, n_dir, b, 3 * hid), dtype)
    x_rows = x.reshape(*lead, b * t_len, -1)
    for d, q in enumerate(prefixes):
        x_w = _time_major((x_rows @ p[f"{q}_W"]).reshape(*lead, b, t_len, 3 * hid))
        np.add(_dir_time(x_w, d), p[f"{q}_b"][..., None, :], out=xw[:, ..., d, :, :])
    if mask is not None:
        # z = 0 at a padded position keeps h = h_prev there, and zeroes the
        # position's factors in gru_backward
        pad = (mask == 0).T.reshape(t_len, *[1] * len(lead), b, 1)
        for d in range(n_dir):
            np.copyto(xw[:, ..., d, :, :hid], -np.inf, where=_dir_time(pad, d))
    u_zr, u_c = u[..., :2 * hid], u[..., 2 * hid:]
    # hs[t] is step t's h_prev
    hs = np.empty((t_len + 1, *lead, n_dir, b, hid), dtype)
    hs[0] = _split_dirs(h0, n_dir)
    zrs = np.empty((t_len, *lead, n_dir, b, 2 * hid), dtype)
    cs = np.empty((t_len, *lead, n_dir, b, hid), dtype)
    rh = np.empty_like(cs[0])          # r * h_prev of one step: gru_backward redoes it
    xw_zr, xw_c = xw[..., :2 * hid], xw[..., 2 * hid:]
    for t in range(t_len):
        _gru_step(u_zr, u_c, xw_zr[t], xw_c[t], hs[t], zrs[t], rh, cs[t],
                  hs[t + 1])
    out = np.concatenate([_batch_major(_dir_time(hs[1:, ..., d, :, :], d))
                          for d in range(n_dir)], axis=-1)
    return out, _join_dirs(hs[-1]), (prefixes, x, hs, zrs, cs)


def _step_rows(a, d):
    """Direction d of time-major (T, ..., D, B, K) steps as (..., T*B, K)
    rows in (t, b) order."""
    a = _batch_major(a[:, ..., d, :, :]).swapaxes(-3, -2)
    return a.reshape(*a.shape[:-3], -1, a.shape[-1])


def gru_backward(p, cache, dhs, dh_last, grads):
    """Backward through gru_forward.  dhs (..., B,T,D*H): grads on its
    outputs; dh_last (..., B,D*H): extra grads on the final states.  Every
    factor that depends only on the forward pass is taken for all steps
    before the time loop, which carries only the recurrent terms; the weight
    grads and dx are taken after it.  Returns (dx (..., B,T,I), summed over
    the directions, dh0 (..., B,D*H))."""
    prefixes, x, hs, zrs, cs = cache
    t_len, *lead, n_dir, b, hid = cs.shape
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
        dhs_t[:, ..., d, :, :] = _dir_time(
            _time_major(dhs[..., d * hid:(d + 1) * hid]), d)
    u = np.stack([p[f"{q}_U"] for q in prefixes], axis=-3)
    u_zr_t = np.ascontiguousarray(_t(u[..., :2 * hid]))
    u_c_t = np.ascontiguousarray(_t(u[..., 2 * hid:]))
    # [z|r|c] pre-activations
    da = np.empty((t_len, *lead, n_dir, b, 3 * hid), cs.dtype)
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
    del one_minus_z, f_z, f_c, f_r   # dead: free them before the copies below
    rh = np.multiply(r, h_prev, out=dhs_t)   # the step's r * h_prev, bit for bit
    for d, q in enumerate(prefixes):
        g_u = grads[f"{q}_U"]
        g_u[..., :2 * hid] += _t(_step_rows(h_prev, d)) @ _step_rows(da_zr, d)
        g_u[..., 2 * hid:] += _t(_step_rows(rh, d)) @ _step_rows(da_c, d)
    # back to (B,T) rows in the original time order, directions side by side
    da_flat = np.concatenate([_batch_major(_dir_time(da[:, ..., d, :, :], d))
                              for d in range(n_dir)], axis=-1)
    da_flat = da_flat.reshape(*lead, b * t_len, -1)
    w = _cat(p, prefixes, "W")
    g_w = _t(x.reshape(*lead, -1, w.shape[-2])) @ da_flat
    g_b = da_flat.sum(axis=-2)
    for d, q in enumerate(prefixes):
        cols = slice(3 * hid * d, 3 * hid * (d + 1))
        grads[f"{q}_W"] += g_w[..., cols]
        grads[f"{q}_b"] += g_b[..., cols]
    dx = (da_flat @ _t(w)).reshape(x.shape)
    return dx, _join_dirs(dh)


def _dropout(x, rate, rng):
    """Inverted dropout on (..., B,T,I) activations: (x scaled by
    _keep_scale(keep, rate), keep), keep the bool (B,T,I) mask of the units
    kept, or (x, None) when rng is None or rate is zero.  The mask is drawn at
    one model's (B,T,I) shape and shared by the models of a stack."""
    if rng is None or rate <= 0.0:
        return x, None
    keep = rng.random(x.shape[-3:]) >= rate
    return x * _keep_scale(keep, rate, x.dtype), keep


def _keep_scale(keep, rate, dtype):
    """The inverted-dropout multiplier of bool mask `keep` in `dtype`:
    1 / (1 - rate) where a unit is kept, else 0.  The forward and backward
    passes build it alike, so they scale by the same floats."""
    return np.divide(keep, 1.0 - rate, dtype=dtype)


def _encoder_layers(cfg):
    return [(f"enc_{l}_f", f"enc_{l}_b") for l in range(cfg.enc_layers)]


def _decoder_layers(cfg):
    return [(f"dec_{l}",) for l in range(cfg.dec_layers)]


def stack_forward(params, layers, x, mask, h0s, rate, rng):
    """Run a stack of GRU layers over (..., B,T,I) input x, each layer named
    by its tuple of prefixes as in gru_forward and started from its entry of
    h0s.  Dropout at `rate` applies to the input of every layer.  Returns
    (top layer outputs (..., B,T,D*H), each layer's final state, cache)."""
    finals, cache = [], []
    for prefixes, h0 in zip(layers, h0s):
        x, keep = _dropout(x, rate, rng)
        x, h_last, gru_cache = gru_forward(params, prefixes, x, mask, h0)
        finals.append(h_last)
        cache.append((keep, gru_cache))
    return x, finals, cache


def stack_backward(params, cache, dtop, dh_lasts, grads, rate):
    """Backward through stack_forward run at dropout `rate`.  dtop: grads on
    the top layer's outputs; dh_lasts: grads on each layer's final state.
    Returns (dx on the stack's input before dropout, each layer's dh0)."""
    dx, dh0s = dtop, [None] * len(cache)
    for l in range(len(cache) - 1, -1, -1):
        keep, gru_cache = cache[l]
        dx, dh0s[l] = gru_backward(params, gru_cache, dx, dh_lasts[l], grads)
        if keep is not None:
            dx = dx * _keep_scale(keep, rate, dx.dtype)
    return dx, dh0s


def bridge(params, cfg, enc_finals):
    states, pres = [], []
    for l in range(cfg.dec_layers):
        src = enc_finals[min(l, len(enc_finals) - 1)]
        pre = src @ params[f"bridge_{l}_W"] + params[f"bridge_{l}_b"][..., None, :]
        states.append(np.tanh(pre))
        pres.append((src, states[-1]))
    return states, pres


def attention_keys(params, h_enc):
    """h_enc @ att_W^T (..., B,S,H): the term of the attention scores that
    depends on the source alone."""
    return h_enc @ _per_row(_t(params["att_W"]))


def attention_output(params, h_top, h_enc, src_mask, proj=None):
    """Global multiplicative attention + tanh combination layer, vectorized
    over decoder time steps.  h_top: (..., B,T,H); h_enc: (..., B,S,H); proj:
    attention_keys(params, h_enc), taken here when not given."""
    if proj is None:
        proj = attention_keys(params, h_enc)
    scores = h_top @ _t(proj)
    scores = scores - 1e9 * (1.0 - src_mask[:, None, :])
    scores -= scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores) * src_mask[:, None, :]
    alpha = exp / exp.sum(axis=-1, keepdims=True)
    ctx = alpha @ h_enc
    comb_in = np.concatenate([h_top, ctx], axis=-1)
    a = np.tanh(comb_in @ _per_row(params["comb_W"])
                + params["comb_b"][..., None, None, :])
    return a, (proj, alpha, comb_in, a)


def attention_backward(params, cache, h_top, h_enc, da, grads):
    """Backward through attention_output: adds the grads of comb_W, comb_b
    and att_W, and returns (dh_top, dh_enc).  Each temporary is dropped as
    soon as it is dead."""
    proj, alpha, comb_in, a = cache
    da_pre = da * (1.0 - a * a)
    *lead, _, _, h = a.shape
    grads["comb_W"] += (_t(comb_in.reshape(*lead, -1, 2 * h))
                        @ da_pre.reshape(*lead, -1, h))
    grads["comb_b"] += da_pre.sum(axis=(-3, -2))
    dcomb_in = da_pre @ _per_row(_t(params["comb_W"]))
    del da_pre
    dh_top = dcomb_in[..., :h].copy()
    dctx = dcomb_in[..., h:]
    dscores = dctx @ _t(h_enc)                  # dalpha, made dscores in place
    dh_enc = _t(alpha) @ dctx
    del dcomb_in, dctx
    dscores -= np.sum(dscores * alpha, axis=-1, keepdims=True)
    dscores *= alpha
    dh_top += dscores @ proj
    tmp = dscores @ h_enc                       # d(h_top @ att_W)
    grads["att_W"] += _t(h_top.reshape(*lead, -1, h)) @ tmp.reshape(*lead, -1, h)
    del tmp
    dh_enc += _t(dscores) @ (h_top @ _per_row(params["att_W"]))
    return dh_top, dh_enc


def _encode(params, cfg, src_ids, src_mask, rng):
    """The encoder stack over (B,S) source ids and the bridge to the
    decoder's initial states: (h_enc, dec_h0, enc_finals, enc_cache,
    bridge_cache).  Dropout applies iff `rng` is given."""
    src_emb = params["src_emb"]
    h0 = np.zeros((*src_emb.shape[:-2], src_ids.shape[0], cfg.hidden), src_emb.dtype)
    h_enc, enc_finals, enc_cache = stack_forward(
        params, _encoder_layers(cfg), src_emb[..., src_ids, :], src_mask,
        [h0] * cfg.enc_layers, cfg.dropout, rng)
    dec_h0, bridge_cache = bridge(params, cfg, enc_finals)
    return h_enc, dec_h0, enc_finals, enc_cache, bridge_cache


def _scatter_add_rows(table, ids, rows):
    """table[..., i, :] += the sum of the rows of `rows` (..., *ids.shape, K)
    whose id in `ids` is i.  A stable sort of the ids keeps each id's rows in
    batch order, and np.add.reduceat sums each id's run of rows in one call.
    It adds the first row of a run to the pairwise sum of the others, where a
    scatter of one row at a time adds them left to right, so the sum of an id
    of three or more rows may differ from that scatter's in the last bits."""
    rows = rows.reshape(*rows.shape[:rows.ndim - ids.ndim - 1], ids.size, -1)
    ids = ids.reshape(-1)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    starts = np.flatnonzero(np.concatenate([[True], ids[1:] != ids[:-1]]))
    table[..., ids[starts], :] += np.add.reduceat(rows[..., order, :], starts,
                                                  axis=-2)


def forward_losses(params, cfg, batch, rng=None, compute_grads=True):
    """Mean token cross-entropy over non-PAD target positions of each model
    of a stack (tensors (M, ...)), as an (M,) array in the parameters' dtype,
    with gradients in that dtype for every parameter; on one model's tensors,
    a 0-d array.  Teacher-forced decoding with per-step attention.  Dropout
    at cfg.dropout applies iff `rng` is given, and draws its masks from it."""
    lead, dtype = params["src_emb"].shape[:-2], params["src_emb"].dtype
    src_ids, src_mask = batch.src_ids, batch.src_mask
    y_in, y_out = batch.tgt_ids[:, :-1], batch.tgt_ids[:, 1:]
    out_mask = (y_out != PAD).astype(dtype)
    n_tokens = out_mask.sum()
    if n_tokens == 0:
        raise ValueError("batch has no target tokens")

    h_enc, dec_h0, enc_finals, enc_cache, bridge_cache = _encode(
        params, cfg, src_ids, src_mask, rng)
    h_top, _, dec_cache = stack_forward(
        params, _decoder_layers(cfg), params["tgt_emb"][..., y_in, :], None,
        dec_h0, cfg.dropout, rng)

    a, att_cache = attention_output(params, h_top, h_enc, src_mask)
    a_d, a_keep = _dropout(a, cfg.dropout, rng)
    # The output layer works on (B*T, .) rows, so each matmul is one 2-D BLAS
    # call per model, and runs over blocks of those rows in one buffer of at
    # most OUT_BLOCK_BYTES per model: a block's logits, then their exponents,
    # then its dlogits, each in place.  The rows of a block come from one
    # model's row bytes, so a model blocks alike alone and in a stack.  Each
    # row's gold logit and softmax sum are kept, and the loss sums them once
    # after the loop, so it does not depend on the block size.
    out_w = params["out_W"]
    n_rows, n_out = y_out.size, out_w.shape[-1]
    step = min(n_rows, max(1, OUT_BLOCK_BYTES // (n_out * out_w.itemsize)))
    a_flat = a_d.reshape(*lead, n_rows, -1)
    gold_ids, mask_flat = y_out.reshape(-1), out_mask.reshape(-1)
    gold, z = np.empty((2, *lead, n_rows), dtype)
    buf = np.empty((*lead, step, n_out), dtype)
    if compute_grads:
        grads = zero_grads(params)
        da_d = np.empty_like(a_flat)
    for lo in range(0, n_rows, step):
        rows = slice(lo, lo + step)
        a_blk, ids = a_flat[..., rows, :], gold_ids[rows]
        blk, at = buf[..., :len(ids), :], np.arange(len(ids))
        np.matmul(a_blk, out_w, out=blk)
        blk += params["out_b"][..., None, :]
        blk -= blk.max(axis=-1, keepdims=True)
        gold[..., rows] = blk[..., at, ids]
        np.exp(blk, out=blk)
        np.sum(blk, axis=-1, out=z[..., rows])
        if compute_grads:
            m = mask_flat[rows]
            blk *= (m / (z[..., rows] * n_tokens))[..., None]   # softmax * mask / n
            blk[..., at, ids] -= m / n_tokens
            grads["out_W"] += _t(a_blk) @ blk
            grads["out_b"] += blk.sum(axis=-2)
            np.matmul(blk, _t(out_w), out=da_d[..., rows, :])
    del buf, blk, a_blk
    losses = -((gold - np.log(z)) * mask_flat).sum(axis=-1) / n_tokens
    if not compute_grads:
        return losses, None

    da_d = da_d.reshape(a_d.shape)
    da = da_d if a_keep is None else da_d * _keep_scale(a_keep, cfg.dropout, dtype)
    # the output layer's and then the attention's arrays are dead: free them,
    # so that the peak memory of the backward passes below leaves them out
    del a_flat, a_d, da_d, gold, z
    dh_top, dh_enc = attention_backward(params, att_cache, h_top, h_enc, da, grads)
    del da, a, att_cache, h_top

    demb, d_h0 = stack_backward(params, dec_cache, dh_top,
                                [np.zeros_like(h) for h in dec_h0], grads,
                                cfg.dropout)
    _scatter_add_rows(grads["tgt_emb"], y_in, demb)

    # bridge
    d_enc_finals = [np.zeros_like(f) for f in enc_finals]
    for l in range(cfg.dec_layers):
        src, out = bridge_cache[l]
        dpre = d_h0[l] * (1.0 - out * out)
        grads[f"bridge_{l}_W"] += _t(src) @ dpre
        grads[f"bridge_{l}_b"] += dpre.sum(axis=-2)
        d_enc_finals[min(l, len(enc_finals) - 1)] += dpre @ _t(params[f"bridge_{l}_W"])

    demb, _ = stack_backward(params, enc_cache, dh_enc, d_enc_finals, grads,
                             cfg.dropout)
    _scatter_add_rows(grads["src_emb"], src_ids, demb)
    return losses, grads


def forward_loss(params, cfg, batch, rng=None, compute_grads=True):
    """forward_losses of one model, its tensors without the model axis: the
    loss as a Python float, and the gradients.  Dropout applies iff `rng` is
    given."""
    loss, grads = forward_losses(params, cfg, batch, rng, compute_grads)
    return float(loss), grads


def decoder_step(params, cfg, state, y_prev, h_enc, src_mask, proj=None):
    """One decode step for a (B,) batch of previous tokens, through the
    decoder stack that training runs, without dropout.  The B rows go to the
    N sources of h_enc (N,S,H) and src_mask (N,S) in order, B / N rows each,
    so the hypotheses of one source share its encoder states; proj is
    attention_keys(params, h_enc), taken here when not given.  Returns
    (log_probs (B,Vt), new per-layer states)."""
    h_top, new_state, _ = stack_forward(
        params, _decoder_layers(cfg), params["tgt_emb"][y_prev][:, None, :],
        None, state, cfg.dropout, None)
    h_top = h_top.reshape(len(h_enc), -1, h_top.shape[-1])     # (N, B/N, H)
    a, _ = attention_output(params, h_top, h_enc, src_mask, proj)
    logits = a.reshape(len(y_prev), -1) @ params["out_W"] + params["out_b"]
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return log_probs, new_state


def encode_for_decoding(params, cfg, src_ids, src_mask):
    """(h_enc, the decoder's initial per-layer states) of one model, without
    dropout."""
    h_enc, state, *_ = _encode(params, cfg, src_ids, src_mask, None)
    return h_enc, state
