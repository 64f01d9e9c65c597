"""Single-file checkpoints in the artifact format: the config and training
history in the header, one array per tensor."""

from dataclasses import asdict

from .. import artifact
from .model import Seq2SeqConfig, param_names
from .train import EpochRecord


def expected_shapes(cfg, n_src, n_tgt):
    """The shape of every tensor build_model creates for `cfg` with source and
    target vocabularies of n_src and n_tgt types."""
    h, h2, e = cfg.hidden, cfg.hidden // 2, cfg.emb_dim
    shapes = {"src_emb": (n_src, e), "tgt_emb": (n_tgt, e)}

    def gru(prefix, in_dim, hid):
        shapes.update({f"{prefix}_W": (in_dim, 3 * hid),
                       f"{prefix}_U": (hid, 3 * hid), f"{prefix}_b": (3 * hid,)})

    for l in range(cfg.enc_layers):
        for d in "fb":
            gru(f"enc_{l}_{d}", e if l == 0 else h, h2)
    for l in range(cfg.dec_layers):
        gru(f"dec_{l}", e if l == 0 else h, h)
        shapes.update({f"bridge_{l}_W": (h, h), f"bridge_{l}_b": (h,)})
    shapes.update({"att_W": (h, h), "comb_W": (2 * h, h), "comb_b": (h,),
                   "out_W": (h, n_tgt), "out_b": (n_tgt,)})
    return shapes


def save_checkpoint(path, cfg, params, history=None):
    header = {"config": asdict(cfg),
              "tensors": {name: t.shape for name, t in params.items()},
              "history": [asdict(rec) for rec in history or []]}
    artifact.save(path, "checkpoint", header, params)


def load_checkpoint(path):
    """Returns (cfg, params, history).  Every tensor must have the shape the
    config gives it, with the vocabulary sizes taken from the embedding rows."""
    def decode(header, arrays):
        cfg = Seq2SeqConfig(**header["config"])
        expected, found = set(param_names(cfg)), set(header["tensors"])
        if found != expected:
            missing, extra = sorted(expected - found), sorted(found - expected)
            raise ValueError(
                f"tensor names differ from the model's: {len(missing)} missing "
                f"{missing[:3]}, {len(extra)} unexpected {extra[:3]}")
        shapes = expected_shapes(cfg, len(arrays["src_emb"]), len(arrays["tgt_emb"]))
        params = {name: artifact.require_shape(arrays, name, shapes[name])
                  for name in header["tensors"]}
        history = [EpochRecord(**rec) for rec in header["history"]]
        return cfg, params, history
    return artifact.load(path, "checkpoint", decode)
