"""Adam training loop with gradient clipping, dev-perplexity model selection
and early stopping; fine-tuning is the same loop at a lower learning rate."""

import math
from dataclasses import dataclass

import numpy as np

from ..corpus import PAD
from .data import make_batches
from .model import forward_loss


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    clip: float = 5.0
    epochs: int = 10
    patience: int = 5
    seed: int = 0


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_ppl: float


class Adam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads, clip=None):
        """One update of `params` in place, after scaling the gradients to a
        global norm of at most `clip`.  Overwrites `grads`: they are scaled in
        place and then used as scratch space, so pass arrays you no longer
        need."""
        if clip is not None:
            norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
            if norm > clip:
                scale = clip / norm
                for g in grads.values():
                    g *= scale
        self.t += 1
        bias1 = 1.0 - self.b1 ** self.t
        bias2 = 1.0 - self.b2 ** self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            # the same operations, in the same order, as
            #   m = b1 * m + (1 - b1) * g
            #   v = b2 * v + (1 - b2) * g * g
            #   p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            # with one temporary and g as scratch
            tmp = (1 - self.b2) * g
            tmp *= g
            v *= self.b2
            v += tmp
            g *= 1 - self.b1
            m *= self.b1
            m += g
            np.divide(m, bias1, out=tmp)
            tmp *= self.lr
            np.divide(v, bias2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            tmp /= g
            p -= tmp


def perplexity(params, cfg, batches):
    """exp of mean cross-entropy per non-PAD target token."""
    total_nll, total_tokens = 0.0, 0
    for batch in batches:
        n = int((batch.tgt_ids[:, 1:] != PAD).sum())
        loss, _ = forward_loss(params, cfg, batch, compute_grads=False)
        total_nll += loss * n
        total_tokens += n
    return math.exp(total_nll / max(total_tokens, 1))


def train(params, cfg, train_pairs, dev_pairs, hyper):
    """Train in place; returns (best params, history).  Keeps the checkpoint
    with the lowest dev perplexity and stops after `patience` epochs without
    improvement.  Aborts on non-finite loss."""
    dev_batches = make_batches(dev_pairs, hyper.batch_size)
    best = {k: v.copy() for k, v in params.items()}
    best_ppl = float("inf")
    history = []
    opt = Adam(params, hyper.lr)
    stall = 0
    for epoch in range(1, hyper.epochs + 1):
        rng = np.random.default_rng((hyper.seed, epoch))
        batches = make_batches(train_pairs, hyper.batch_size, rng)
        losses = []
        for batch in batches:
            loss, grads = forward_loss(params, cfg, batch, dropout_on=cfg.dropout > 0,
                                       rng=rng)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} after {len(losses)} batches")
            losses.append(loss)
            opt.step(params, grads, clip=hyper.clip)
        dev_ppl = perplexity(params, cfg, dev_batches) if dev_pairs else float("nan")
        history.append(EpochRecord(epoch, float(np.mean(losses)), dev_ppl))
        if not dev_pairs or dev_ppl < best_ppl - 1e-12:
            best_ppl = dev_ppl
            best = {k: v.copy() for k, v in params.items()}
            stall = 0
        else:
            stall += 1
            if stall >= hyper.patience:
                break
    return best, history


def fine_tune(params, cfg, new_train_pairs, new_dev_pairs, hyper):
    """Continue training on a new domain, at the lower learning rate `hyper`
    gives; tokens outside the original vocabularies arrive as UNK ids."""
    return train(params, cfg, new_train_pairs, new_dev_pairs, hyper)
