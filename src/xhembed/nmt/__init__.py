"""Small GRU encoder-decoder MT harness with attention, written on numpy
with hand-derived gradients."""

from .model import Seq2SeqConfig, build_model, forward_loss, forward_losses
from .data import Batch, make_batches
from .train import TrainConfig, fine_tune, perplexity, train, train_models
from .decode import beam_search, translate
from .checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Seq2SeqConfig", "build_model", "forward_loss", "forward_losses", "Batch",
    "make_batches", "TrainConfig", "train", "train_models", "fine_tune",
    "perplexity", "beam_search", "translate", "save_checkpoint", "load_checkpoint",
]
