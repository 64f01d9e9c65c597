"""Beam-search decoding up to the config's max_decode_len, and file-level
translation.

Sentences are searched together, in chunks: one encoder pass per chunk, the
attention keys h_enc @ att_W^T taken once per chunk, and one decoder_step per
step over the live hypotheses of every sentence of the chunk still searched.
Each sentence keeps its own beam, candidate selection and stop rule.  The
sentences searched with it change only the shapes of the step's matmuls, so
its scores can round differently, by float ulps, than if it were searched
alone."""

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ..corpus import PAD, BOS, EOS, write_lines
from . import model
from .data import make_batch
from .model import attention_keys, decoder_step, encode_for_decoding


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


def _extend(live, lp, beam, row0, finished):
    """The `beam` best (hypothesis, token) extensions of one sentence's live
    hypotheses, whose step log-probs are the rows of lp and whose new states
    are rows row0, row0 + 1, ... of the step's batch.  They come from one
    partition of all extensions; those tied with the k-th best go by flat
    index, so earlier hypothesis, then lower token id.  EOS-terminated ones
    are appended to `finished`; the others are returned, best first."""
    total = (np.array([hyp.log_prob for hyp in live])[:, None] + lp).ravel()
    k = min(beam, int(np.isfinite(total).sum()))
    kth = np.partition(total, total.size - k)[total.size - k]
    top = np.flatnonzero(total >= kth)
    grown = []
    for flat in top[np.lexsort((top, -total[top]))][:k]:
        i, tok = divmod(int(flat), lp.shape[1])
        hyp = BeamHypothesis(live[i].tokens + [tok], float(total[flat]), row0 + i)
        (finished if tok == EOS else grown).append(hyp)
    return grown


def best_hypotheses(params, cfg, sources, beam=None):
    """The best BeamHypothesis of each of the non-empty id lists `sources`,
    BOS and any final EOS included, all searched together as beam_search
    searches one.  Raises ValueError if beam < 1 or a source is empty."""
    beam = _beam_width(cfg, beam)
    for i, src in enumerate(sources):
        if len(src) == 0:
            raise ValueError(f"cannot search an empty source: sources[{i}]")
    batch = make_batch([(list(src), [BOS]) for src in sources])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    src_mask, proj = batch.src_mask, attention_keys(params, h_enc)
    live = [[BeamHypothesis([BOS], 0.0, i)] for i in range(len(sources))]
    finished = [[] for _ in sources]
    searched = list(range(len(sources)))    # in the order of h_enc's rows
    for _ in range(cfg.max_decode_len):
        # k rows per searched sentence: its live hypotheses, then copies of
        # its last one, whose log-probs are never read
        k = max(len(live[i]) for i in searched)
        rows = [hyp for i in searched
                for hyp in live[i] + live[i][-1:] * (k - len(live[i]))]
        state = [s[[hyp.row for hyp in rows]] for s in state]
        lp, state = decoder_step(params, cfg, state,
                                 np.array([hyp.tokens[-1] for hyp in rows]),
                                 h_enc, src_mask, proj)
        lp[:, [PAD, BOS]] = -np.inf        # never proposed
        lp = lp.reshape(len(searched), k, -1)
        kept = []
        for j, i in enumerate(searched):
            live[i] = _extend(live[i], lp[j, :len(live[i])], beam, j * k, finished[i])
            if live[i] and not (finished[i] and max(h.log_prob for h in finished[i])
                                >= live[i][0].log_prob):
                kept.append(j)
        if not kept:
            break
        if len(kept) < len(searched):
            searched = [searched[j] for j in kept]
            h_enc, src_mask, proj = h_enc[kept], src_mask[kept], proj[kept]
    return [max(done or alive, key=lambda h: h.log_prob)
            for done, alive in zip(finished, live)]


def _output_tokens(hyp):
    toks = hyp.tokens[1:]
    return toks[:-1] if toks and toks[-1] == EOS else toks


def beam_search(params, cfg, src_ids, beam=None):
    """The output tokens of one sentence's best_hypotheses: breadth-limited
    search over cumulative log-probability, no length normalization.  The
    `beam` best extensions (live hypothesis, token) of each step survive, ties
    going to the earlier live hypothesis and then to the lower token id;
    EOS-terminated ones move to a finished pool.  Stops when the best
    finished score cannot be beaten or cfg.max_decode_len is reached.  Each
    step advances all live hypotheses in one batched decoder_step call, so a
    search costs at most max_decode_len calls, of this one sentence here or
    of a whole chunk of them in translate.
    Raises ValueError if beam < 1 or src_ids is empty."""
    return _output_tokens(best_hypotheses(params, cfg, [src_ids], beam)[0])


def translate(params, cfg, sentences, src_vocab, tgt_vocab, out_path, beam=None):
    """Decode each source sentence and write one space-joined hypothesis per
    line, order-preserving; an empty sentence gives an empty line.  The
    sentences are beam-searched in chunks, each as many sentences as keep a
    step's log-probabilities within model.OUT_BLOCK_BYTES, so the memory of a
    step does not grow with the file.  Each chunk is written as it is decoded
    (write_lines), so a failure part-way leaves out_path as it was.  A
    beam < 1 raises ValueError before anything is opened."""
    beam = _beam_width(cfg, beam)
    # sentences a chunk: the training output layer's budget over `beam` rows
    # of V log-probs each, read from the module at call time as training does
    out_w = params["out_W"]
    size = max(1, model.OUT_BLOCK_BYTES // (beam * out_w.shape[-1] * out_w.itemsize))

    def hyps():
        rest = iter(sentences)
        while chunk := list(islice(rest, size)):
            ids = [[src_vocab.id(t) for t in sent] for sent in chunk if sent]
            best = iter(best_hypotheses(params, cfg, ids, beam) if ids else ())
            for sent in chunk:
                yield _output_tokens(next(best)) if sent else []

    write_lines(out_path, (" ".join(map(tgt_vocab.token, hyp)) for hyp in hyps()))
