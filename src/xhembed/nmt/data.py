"""Batch construction: id conversion, padding, BOS/EOS framing."""

from dataclasses import dataclass

import numpy as np

from ..corpus import PAD, BOS, EOS


@dataclass
class Batch:
    src_ids: np.ndarray    # (B, S) padded
    src_mask: np.ndarray   # (B, S) float32 0/1, exact in any model dtype
    tgt_ids: np.ndarray    # (B, T) BOS ... EOS padded


def encode_pairs(pairs, src_vocab, tgt_vocab):
    """Token pairs -> id pairs (target framed with BOS/EOS)."""
    out = []
    for src, tgt in pairs:
        s = [src_vocab.id(t) for t in src]
        t = [BOS] + [tgt_vocab.id(tok) for tok in tgt] + [EOS]
        out.append((s, t))
    return out


def make_batch(id_pairs):
    b = len(id_pairs)
    s_max = max(len(p[0]) for p in id_pairs)
    t_max = max(len(p[1]) for p in id_pairs)
    src = np.full((b, s_max), PAD, dtype=np.int64)
    tgt = np.full((b, t_max), PAD, dtype=np.int64)
    mask = np.zeros((b, s_max), dtype=np.float32)
    for i, (s, t) in enumerate(id_pairs):
        src[i, :len(s)] = s
        tgt[i, :len(t)] = t
        mask[i, :len(s)] = 1.0
    return Batch(src, mask, tgt)


def make_batches(id_pairs, batch_size, rng=None):
    """Fixed-size batches; optionally shuffled with the supplied generator."""
    order = np.arange(len(id_pairs))
    if rng is not None:
        rng.shuffle(order)
    return [make_batch([id_pairs[i] for i in order[lo:lo + batch_size]])
            for lo in range(0, len(id_pairs), batch_size)]
