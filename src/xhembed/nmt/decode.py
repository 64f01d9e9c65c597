"""Beam-search decoding up to the config's max_decode_len, and file-level
translation."""

from dataclasses import dataclass

import numpy as np

from ..corpus import PAD, BOS, EOS, write_lines
from .data import make_batch
from .model import decoder_step, encode_for_decoding


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


def best_hypothesis(params, cfg, src_ids, beam=None):
    """The highest-scoring BeamHypothesis of beam_search, BOS and any final
    EOS included.  Raises ValueError if beam < 1."""
    beam = _beam_width(cfg, beam)
    batch = make_batch([(list(src_ids), [BOS])])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    live = [BeamHypothesis([BOS], 0.0)]
    finished = []
    for _ in range(cfg.max_decode_len):
        n = len(live)
        state = [s[[hyp.row for hyp in live]] for s in state]
        # np.repeat, not np.broadcast_to: a stride-0 view sends attention's
        # 3-D matmul off BLAS
        lp, state = decoder_step(
            params, cfg, state, np.array([hyp.tokens[-1] for hyp in live]),
            np.repeat(h_enc, n, axis=0), np.repeat(batch.src_mask, n, axis=0))
        lp[:, [PAD, BOS]] = -np.inf        # never proposed
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


def beam_search(params, cfg, src_ids, beam=None):
    """Breadth-limited search over cumulative log-probability, no length
    normalization.  The `beam` best extensions (live hypothesis, token) of
    each step survive, ties going to the earlier live hypothesis and then to
    the lower token id; EOS-terminated ones move to a finished pool.  Stops
    when the best finished score cannot be beaten or cfg.max_decode_len is
    reached.  Each step advances all live hypotheses of the sentence in one
    batched decoder_step call, so a sentence costs at most max_decode_len
    calls.  Raises ValueError if beam < 1."""
    toks = best_hypothesis(params, cfg, src_ids, beam).tokens[1:]
    if toks and toks[-1] == EOS:
        toks = toks[:-1]
    return toks


def translate(params, cfg, sentences, src_vocab, tgt_vocab, out_path, beam=None):
    """Decode each source sentence and write one space-joined hypothesis per
    line, order-preserving.  Each is decoded as it is written (write_lines),
    so a failure part-way leaves out_path as it was.  A beam < 1 raises
    ValueError before anything is opened."""
    beam = _beam_width(cfg, beam)
    hyps = (beam_search(params, cfg, [src_vocab.id(t) for t in sent], beam=beam)
            if sent else [] for sent in sentences)
    write_lines(out_path, (" ".join(map(tgt_vocab.token, hyp)) for hyp in hyps))
