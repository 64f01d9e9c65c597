"""Single-file checkpoints in the artifact format: the config and training
history in the header, one array per tensor."""

from dataclasses import asdict

from .. import artifact
from .model import Seq2SeqConfig
from .train import EpochRecord


def save_checkpoint(path, cfg, params, history=None):
    header = {"config": asdict(cfg),
              "tensors": {name: t.shape for name, t in params.items()},
              "history": [asdict(rec) for rec in history or []]}
    artifact.save(path, "checkpoint", header, params)


def load_checkpoint(path):
    """Returns (cfg, params, history)."""
    def decode(header, arrays):
        cfg = Seq2SeqConfig(**header["config"])
        params = {name: artifact.require_shape(arrays, name, shape)
                  for name, shape in header["tensors"].items()}
        history = [EpochRecord(**rec) for rec in header["history"]]
        return cfg, params, history
    return artifact.load(path, "checkpoint", decode)
