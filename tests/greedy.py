"""Greedy decoding: the oracle that beam search at width 1 must match."""

import numpy as np

from xhembed.corpus import BOS, EOS, PAD
from xhembed.nmt.data import make_batch
from xhembed.nmt.model import decoder_step, encode_for_decoding


def greedy_decode(params, cfg, src_ids):
    """The argmax token of each step, PAD and BOS never proposed, until EOS
    or cfg.max_decode_len tokens; one batch-1 decoder_step per step."""
    batch = make_batch([(list(src_ids), [BOS])])
    h_enc, state = encode_for_decoding(params, cfg, batch.src_ids, batch.src_mask)
    out = []
    prev = BOS
    for _ in range(cfg.max_decode_len):
        lp, state = decoder_step(params, cfg, state, np.array([prev]), h_enc,
                                 batch.src_mask)
        lp[:, [PAD, BOS]] = -np.inf
        prev = int(lp[0].argmax())
        if prev == EOS:
            break
        out.append(prev)
    return out
