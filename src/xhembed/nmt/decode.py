"""Beam-search decoding up to the config's max_decode_len, and file-level
translation.

Sentences are searched together, in chunks: one encoder pass per chunk, the
attention keys h_enc @ att_W^T taken once per chunk, and one decoder_step per
step over the live hypotheses of every sentence of the chunk still searched.
The search state is arrays over (open sentence, slot); one partition and one
sort over the (sentences, k*V) scores select each sentence's own beam per step.
The sentences searched with a sentence change only the shapes of the step's
matmuls, so its scores can round differently, by float ulps, than if it were
searched alone."""

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


def _beam_width(cfg, beam):
    beam = cfg.beam if beam is None else beam
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    return beam


def best_hypotheses(params, cfg, sources, beam=None):
    """The best BeamHypothesis of each of the non-empty id lists `sources`,
    BOS and any final EOS included, all searched together.  Breadth-limited
    search over cumulative log-probability, no length normalization: the
    `beam` best extensions (live hypothesis, token) of a sentence survive each
    step, ties going to the earlier live hypothesis and then to the lower
    token id, and EOS-terminated ones finish.  A sentence stops when its best
    finished score cannot be beaten or cfg.max_decode_len is reached, and
    gives its best finished hypothesis, the earliest of equals, else its best
    live one.  Raises ValueError if beam < 1 or a source is empty."""
    beam = _beam_width(cfg, beam)
    for i, src in enumerate(sources):
        if len(src) == 0:
            raise ValueError(f"cannot search an empty source: sources[{i}]")
    batch = make_batch([(list(src), [BOS]) for src in sources])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    src_mask, proj = batch.src_mask, attention_keys(params, h_enc)
    # (open sentence, slot) arrays: the live log-probs, best first, then -inf
    # in empty slots, which repeat the sentence's last live hypothesis; each
    # slot's tokens; the row of its decoder state in the last step's batch
    n = len(sources)
    scores, tokens, rows = np.zeros((n, 1)), np.full((n, 1, 1), BOS), np.arange(n)
    searched = np.arange(n)             # index in sources of each open sentence
    finished, ends = np.full(n, -np.inf), [None] * n    # best finished of each
    for _ in range(cfg.max_decode_len):
        m, k = scores.shape
        state = [s[rows.ravel()] for s in state]
        lp, state = decoder_step(params, cfg, state, tokens[:, :, -1].ravel(),
                                 h_enc, src_mask, proj)
        lp[:, [PAD, BOS]] = -np.inf        # never proposed
        total = (scores[:, :, None] + lp.reshape(m, k, -1)).reshape(m, -1)
        # each sentence's `beam` best finite totals, ties by lower flat index
        cut = max(total.shape[1] - beam, 0)
        kth = np.partition(total, cut, axis=1)[:, cut, None]
        sent, flat = np.nonzero((total >= kth) & np.isfinite(total))
        order = np.lexsort((flat, -total[sent, flat], sent))
        sent, flat = sent[order], flat[order]
        top = np.arange(sent.size) - np.searchsorted(sent, sent) < beam
        sent, flat = sent[top], flat[top]
        score, (slot, tok) = total[sent, flat], np.divmod(flat, lp.shape[1])
        grown = np.concatenate([tokens[sent, slot], tok[:, None]], axis=1)
        eos = tok == EOS
        for j, p, toks in zip(searched[sent[eos]], score[eos], grown[eos]):
            if p > finished[j]:
                finished[j], ends[j] = p, toks.tolist()
        live = np.flatnonzero(~eos)
        count = np.bincount(sent[live], minlength=m)
        first = np.cumsum(count) - count
        kept = np.flatnonzero(count)
        kept = kept[finished[searched[kept]] < score[live[first[kept]]]]
        if not kept.size:
            break
        slots = np.arange(count[kept].max())
        pick = live[first[kept, None] + np.minimum(slots, count[kept, None] - 1)]
        scores = np.where(slots < count[kept, None], score[pick], -np.inf)
        tokens, rows = grown[pick], (sent * k + slot)[pick]
        if kept.size < m:
            searched = searched[kept]
            h_enc, src_mask, proj = h_enc[kept], src_mask[kept], proj[kept]
    for j, i in enumerate(searched):
        if ends[i] is None:
            finished[i], ends[i] = scores[j, 0], tokens[j, 0].tolist()
    return [BeamHypothesis(toks, float(p)) for toks, p in zip(ends, finished)]


def _output_tokens(hyp):
    toks = hyp.tokens[1:]
    return toks[:-1] if toks and toks[-1] == EOS else toks


def beam_search(params, cfg, src_ids, beam=None):
    """The output tokens of one sentence's best hypothesis, searched by
    best_hypotheses alone.  Each step advances all live hypotheses in one
    batched decoder_step call, so a search costs at most max_decode_len calls,
    of this one sentence here or of a whole chunk of them in translate.
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
