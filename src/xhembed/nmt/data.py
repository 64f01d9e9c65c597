"""Batch construction: id conversion, padding, BOS/EOS framing."""

from dataclasses import dataclass

import numpy as np

from ..corpus import PAD, BOS, EOS


@dataclass
class Batch:
    src_ids: np.ndarray    # (B, S) padded
    src_mask: np.ndarray   # (B, S) float32 0/1, exact in any model dtype
    src_lens: np.ndarray
    tgt_ids: np.ndarray    # (B, T) BOS ... EOS padded
    tgt_lens: np.ndarray   # framed lengths


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
    s_lens = np.empty(b, dtype=np.int64)
    t_lens = np.empty(b, dtype=np.int64)
    for i, (s, t) in enumerate(id_pairs):
        src[i, :len(s)] = s
        tgt[i, :len(t)] = t
        s_lens[i], t_lens[i] = len(s), len(t)
    mask = (np.arange(s_max)[None, :] < s_lens[:, None]).astype(np.float32)
    return Batch(src, mask, s_lens, tgt, t_lens)


def make_batches(id_pairs, batch_size, rng=None):
    """Fixed-size batches; optionally shuffled with the supplied generator."""
    order = np.arange(len(id_pairs))
    if rng is not None:
        rng.shuffle(order)
    return [make_batch([id_pairs[i] for i in order[lo:lo + batch_size]])
            for lo in range(0, len(id_pairs), batch_size)]
