"""Adam training loop with gradient clipping, dev-perplexity model selection
and early stopping; fine-tuning is the same loop at a lower learning rate.

`train_models` trains M models of one config in lockstep, their tensors
stacked on a leading model axis (see `model`): one forward and backward pass
and one Adam step per batch for the whole stack.  Clipping, dev perplexity,
the best checkpoint and early stopping are per model, and a model that stops
leaves the stack, so each model's parameters and history are those of its
own run.  `train`, `fine_tune` and `perplexity` are the single-model case.
Fine-tuning a stack is `train_models` on the new domain."""

import math
from dataclasses import dataclass

import numpy as np

from ..corpus import PAD, check_fields
from .data import make_batches
from .model import forward_losses


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    clip: float = 5.0
    epochs: int = 10
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("lr", 0 <= self.lr < math.inf, "finite and >= 0"),
                     ("batch_size", self.batch_size >= 1, ">= 1"),
                     ("clip", self.clip > 0, "> 0"),
                     ("epochs", self.epochs >= 0, ">= 0"),
                     ("patience", self.patience >= 1, ">= 1"))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    dev_ppl: float


# Adam's moment decay rates and the offset of its denominator, the values of
# Kingma & Ba 2015
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over M models stacked on a leading axis: every tensor of `params`
    is (M, ...), and the moments are kept in the same layout."""

    def __init__(self, params, lr):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads, clip):
        """One update of the stacked `params` in place.  First each model's
        gradients are scaled to a global norm of at most `clip`, by that
        model's own norm.  The update itself is elementwise, so each model's
        slice moves exactly as it would alone.  Overwrites `grads`: they are
        scaled in place and then used as scratch space, so pass arrays you no
        longer need."""
        gs = list(grads.values())
        for i in range(len(gs[0])):
            norm = math.sqrt(sum(float(np.vdot(g[i], g[i])) for g in gs))
            if norm > clip:
                scale = clip / norm
                for g in gs:
                    g[i] *= scale
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for k, p in params.items():
            g, m, v = grads[k], self.m[k], self.v[k]
            # the same operations, in the same order, as
            #   m = b1 * m + (1 - b1) * g
            #   v = b2 * v + (1 - b2) * g * g
            #   p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
            # with one temporary and g as scratch
            tmp = (1 - BETA2) * g
            tmp *= g
            v *= BETA2
            v += tmp
            g *= 1 - BETA1
            m *= BETA1
            m += g
            np.divide(m, bias1, out=tmp)
            tmp *= self.lr
            np.divide(v, bias2, out=g)
            np.sqrt(g, out=g)
            g += EPS
            tmp /= g
            p -= tmp

    def keep(self, rows):
        """Keep the moments of the models at `rows` of a stack only."""
        self.m = {k: t[rows] for k, t in self.m.items()}
        self.v = {k: t[rows] for k, t in self.v.items()}


def _stack(arrays):
    """Tensors of M models on a leading axis.  One model's tensor is viewed,
    not copied, so a single model trains in its own arrays."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def perplexities(params, cfg, batches):
    """exp of mean cross-entropy per non-PAD target token, for each model of
    a stack, as a list."""
    total_nll = np.zeros(len(params["src_emb"]))
    total_tokens = 0
    for batch in batches:
        n = int((batch.tgt_ids[:, 1:] != PAD).sum())
        losses, _ = forward_losses(params, cfg, batch, compute_grads=False)
        total_nll += losses.astype(np.float64) * n
        total_tokens += n
    return [math.exp(nll / max(total_tokens, 1)) for nll in total_nll.tolist()]


def perplexity(params, cfg, batches):
    """perplexities of one model."""
    return perplexities({k: t[None] for k, t in params.items()}, cfg, batches)[0]


def train_models(models, cfg, train_pairs, dev_pairs, hyper):
    """Train models of one config (a list of parameter dicts) in lockstep on
    a leading model axis; returns (best params, history) per model.  They
    see the same batches and dropout masks and each model follows exactly
    the run it would have alone: its own gradient clipping, dev perplexity,
    best checkpoint and `patience` count.  A model that stops early leaves
    the stack.  Aborts on non-finite loss."""
    params = {k: _stack([m[k] for m in models]) for k in models[0]}
    dev_batches = make_batches(dev_pairs, hyper.batch_size)
    best = [{k: v.copy() for k, v in m.items()} for m in models]
    best_ppl = [float("inf")] * len(models)
    history = [[] for _ in models]
    stall = [0] * len(models)
    active = list(range(len(models)))        # the model at each stack row
    opt = Adam(params, hyper.lr)
    for epoch in range(1, hyper.epochs + 1):
        rng = np.random.default_rng((hyper.seed, epoch))
        batches = make_batches(train_pairs, hyper.batch_size, rng)
        losses = []
        for batch in batches:
            loss, grads = forward_losses(params, cfg, batch, rng=rng)
            if not np.isfinite(loss).all():
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} after {len(losses)} batches")
            losses.append(loss.tolist())
            opt.step(params, grads, hyper.clip)
            del grads      # scratch now: free it before the next forward pass
        dev_ppls = (perplexities(params, cfg, dev_batches) if dev_pairs
                    else [float("nan")] * len(active))
        keep = []
        for row, (i, dev_ppl) in enumerate(zip(active, dev_ppls)):
            history[i].append(EpochRecord(
                epoch, float(np.mean([l[row] for l in losses])), dev_ppl))
            if not dev_pairs or dev_ppl < best_ppl[i] - 1e-12:
                best_ppl[i] = dev_ppl
                best[i] = {k: v[row].copy() for k, v in params.items()}
                stall[i] = 0
            else:
                stall[i] += 1
            if stall[i] < hyper.patience:
                keep.append(row)
        if not keep:
            break
        if len(keep) < len(active):
            params = {k: v[keep] for k, v in params.items()}
            opt.keep(keep)
            active = [active[row] for row in keep]
    return list(zip(best, history))


def train(params, cfg, train_pairs, dev_pairs, hyper):
    """train_models of one model, in place; returns (best params, history).
    Keeps the checkpoint with the lowest dev perplexity and stops after
    `patience` epochs without improvement."""
    return train_models([params], cfg, train_pairs, dev_pairs, hyper)[0]


def fine_tune(params, cfg, new_train_pairs, new_dev_pairs, hyper):
    """Continue training on a new domain, at the lower learning rate `hyper`
    gives; tokens outside the original vocabularies arrive as UNK ids."""
    return train(params, cfg, new_train_pairs, new_dev_pairs, hyper)
