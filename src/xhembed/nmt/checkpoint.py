"""Single-file checkpoints in the artifact format: the config and training
history in the header, one array per tensor."""

from dataclasses import asdict

from .. import artifact
from .model import Seq2SeqConfig, param_shapes
from .train import EpochRecord


def save_checkpoint(path, cfg, params, history=None):
    header = {"config": asdict(cfg),
              "history": [asdict(rec) for rec in history or []]}
    artifact.save(path, "checkpoint", header, params)


def load_checkpoint(path):
    """Returns (cfg, params, history), params in param_shapes order.  The
    arrays must be the config's tensors, of the shapes it gives them with
    the vocabulary sizes taken from the embedding rows, and all must share
    one floating dtype, which the model then runs in."""
    def decode(header, arrays):
        cfg = Seq2SeqConfig(**header["config"])
        expected, found = set(param_shapes(cfg, 0, 0)), set(arrays)
        if found != expected:
            missing, extra = sorted(expected - found), sorted(found - expected)
            raise ValueError(
                f"tensor names differ from the model's: {len(missing)} missing "
                f"{missing[:3]}, {len(extra)} unexpected {extra[:3]}")
        shapes = param_shapes(cfg, len(arrays["src_emb"]), len(arrays["tgt_emb"]))
        params = {name: artifact.require_shape(arrays, name, shape)
                  for name, shape in shapes.items()}
        first = next(iter(params))
        for name, t in params.items():
            if t.dtype.kind != "f" or t.dtype != params[first].dtype:
                want = (f"{params[first].dtype} as {first!r}" if name != first
                        else "a floating dtype")
                raise ValueError(f"tensor {name!r} has dtype {t.dtype}, expected {want}")
        history = [EpochRecord(**rec) for rec in header["history"]]
        return cfg, params, history
    return artifact.load(path, "checkpoint", decode)
