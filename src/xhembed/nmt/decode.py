"""Greedy and beam-search decoding, and file-level translation."""

from dataclasses import dataclass

import numpy as np

from ..corpus import PAD, BOS, EOS
from .data import make_batch
from .model import decoder_step, encode_for_decoding

# tokens never proposed during decoding
_BANNED = [PAD, BOS]


def _decode_setup(params, cfg, src_ids):
    batch = make_batch([(list(src_ids), [BOS])])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    return batch, h_enc, state


def _step_logprobs(params, cfg, state, prev_ids, h_enc, src_mask):
    """decoder_step for one row per entry of prev_ids; returns ((B,Vt)
    log-probs with the banned tokens at -inf, new per-layer states)."""
    lp, new_state = decoder_step(params, cfg, state, np.array(prev_ids),
                                 h_enc, src_mask)
    lp[:, _BANNED] = -np.inf
    return lp, new_state


def _decode_len(cfg, max_len):
    max_len = cfg.max_decode_len if max_len is None else max_len
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return max_len


def greedy_decode(params, cfg, src_ids, max_len=None):
    """Raises ValueError if max_len < 1."""
    max_len = _decode_len(cfg, max_len)
    batch, h_enc, state = _decode_setup(params, cfg, src_ids)
    out = []
    prev = BOS
    for _ in range(max_len):
        lp, state = _step_logprobs(params, cfg, state, [prev], h_enc, batch.src_mask)
        prev = int(lp[0].argmax())
        if prev == EOS:
            break
        out.append(prev)
    return out


@dataclass
class BeamHypothesis:
    tokens: list            # starts with BOS
    log_prob: float
    row: int = 0            # row of its decoder state in the last step's batch


def _beam_width(cfg, beam):
    beam = cfg.beam if beam is None else beam
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    return beam


def best_hypothesis(params, cfg, src_ids, beam=None, max_len=None):
    """The highest-scoring BeamHypothesis of beam_search, BOS and any final
    EOS included.  Raises ValueError if beam < 1 or max_len < 1."""
    beam = _beam_width(cfg, beam)
    max_len = _decode_len(cfg, max_len)
    batch, h_enc, state = _decode_setup(params, cfg, src_ids)
    live = [BeamHypothesis([BOS], 0.0)]
    finished = []
    for _ in range(max_len):
        n = len(live)
        state = [s[[hyp.row for hyp in live]] for s in state]
        # np.repeat, not np.broadcast_to: a stride-0 view sends attention's
        # 3-D matmul off BLAS
        lp, state = _step_logprobs(
            params, cfg, state, [hyp.tokens[-1] for hyp in live],
            np.repeat(h_enc, n, axis=0), np.repeat(batch.src_mask, n, axis=0))
        # the `beam` best (hypothesis, token) extensions from one partition of
        # all of them; those tied with the k-th best go by flat index
        total = (np.array([hyp.log_prob for hyp in live])[:, None] + lp).ravel()
        k = min(beam, int(np.isfinite(total).sum()))
        kth = np.partition(total, total.size - k)[total.size - k]
        top = np.flatnonzero(total >= kth)
        grown = []
        for flat in top[np.lexsort((top, -total[top]))][:k]:
            i, tok = divmod(int(flat), lp.shape[1])
            hyp = BeamHypothesis(live[i].tokens + [tok], float(total[flat]), i)
            (finished if tok == EOS else grown).append(hyp)
        live = grown
        if not live:
            break
        if finished and max(h.log_prob for h in finished) >= live[0].log_prob:
            break
    return max(finished or live, key=lambda h: h.log_prob)


def beam_search(params, cfg, src_ids, beam=None, max_len=None):
    """Breadth-limited search over cumulative log-probability, no length
    normalization.  The `beam` best extensions (live hypothesis, token) of
    each step survive, ties going to the earlier live hypothesis and then to
    the lower token id; EOS-terminated ones move to a finished pool.  Stops
    when the best finished score cannot be beaten or max_len is reached.
    Each step advances all live hypotheses of the sentence in one
    batched decoder_step call, so a sentence costs at most max_len calls.
    Raises ValueError if beam < 1 or max_len < 1."""
    toks = best_hypothesis(params, cfg, src_ids, beam, max_len).tokens[1:]
    if toks and toks[-1] == EOS:
        toks = toks[:-1]
    return toks


def translate(params, cfg, sentences, src_vocab, tgt_vocab, out_path, beam=None):
    """Decode each source sentence and write one space-joined hypothesis per
    line, order-preserving.  A beam < 1 raises ValueError before out_path is
    opened."""
    beam = _beam_width(cfg, beam)
    with open(out_path, "w", encoding="utf-8") as f:
        for sent in sentences:
            if not sent:
                f.write("\n")
                continue
            ids = [src_vocab.id(t) for t in sent]
            hyp = beam_search(params, cfg, ids, beam=beam)
            f.write(" ".join(tgt_vocab.token(i) for i in hyp) + "\n")
