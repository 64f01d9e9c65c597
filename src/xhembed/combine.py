"""Initial embedding construction for the task vocabulary under each
strategy (Random, XhPre, XhSub, VecMap, XhMeta) from the matrices E_V
(projected) and E_M (subword-composed) and the mapping between them."""

import enum
from dataclasses import dataclass

import numpy as np

from .corpus import SPECIALS, PAD, write_lines
from .embedstore import EmbeddingMatrix


class InitStrategy(enum.Enum):
    RANDOM = "Random"
    XH_PRE = "XhPre"
    XH_SUB = "XhSub"
    VECMAP = "VecMap"
    XH_META = "XhMeta"

    @classmethod
    def parse(cls, name):
        """The strategy named `name`, ignoring case and surrounding spaces."""
        for s in cls:
            if s.value.lower() == name.strip().lower():
                return s
        raise ValueError(f"unknown strategy {name!r}; "
                         f"choose from {[s.value for s in cls]}")

    def __str__(self):
        return self.value


# fixed row order for the results report
STRATEGY_ORDER = [InitStrategy.RANDOM, InitStrategy.VECMAP, InitStrategy.XH_SUB,
                  InitStrategy.XH_PRE, InitStrategy.XH_META]

# the inputs each strategy's init table is built from, by their parameter
# names in `build_initial_embeddings`
STRATEGY_INPUTS = {
    InitStrategy.RANDOM: (),
    InitStrategy.XH_PRE: ("e_v", "e_m"),
    InitStrategy.XH_SUB: ("e_m",),
    InitStrategy.VECMAP: ("e_v", "e_m", "mapping"),
    InitStrategy.XH_META: ("e_v", "e_m"),
}

# random rows are drawn uniform in [-INIT_RANGE, INIT_RANGE)
INIT_RANGE = 0.1


@dataclass
class InitializedEmbeddings:
    matrix: EmbeddingMatrix
    provenance: dict  # token -> fromEV | fromEM | unkSubstituted | random

    def write_provenance(self, path):
        write_lines(path, (f"{tok}\t{self.provenance[tok]}" for tok in self.matrix.tokens))


def unk_vector(e_v):
    """Centroid of all projected rows; the stand-in for words absent from E_V."""
    if len(e_v) == 0:
        raise ValueError("cannot build an UNK vector from an empty matrix")
    return e_v.rows.mean(axis=0)


def meta_embedding(ev_vec, em_vec):
    """Elementwise arithmetic mean of the two source vectors, or of two
    matrices row by row."""
    ev_vec = np.asarray(ev_vec, dtype=np.float64)
    em_vec = np.asarray(em_vec, dtype=np.float64)
    if ev_vec.shape != em_vec.shape:
        raise ValueError(f"dim mismatch: {ev_vec.shape} vs {em_vec.shape}")
    return (ev_vec + em_vec) / 2.0


def build_initial_embeddings(strategy, task_vocab, e_v=None, e_m=None,
                             mapping=None, dim=None, seed=0):
    """One row and one provenance tag per task-vocabulary token.

    `e_m` is E_M over the task vocabulary: one subword-composed row per
    non-special token, in id order.  Specials, and every row under Random,
    come from one uniform draw in id order (PAD is all zeros); `_word_rows`
    gives the other strategies' rows.  Rows are zero-padded to `dim`, which
    may not be narrower than a source.
    """
    needs = STRATEGY_INPUTS[strategy]
    have = {"e_v": e_v, "e_m": e_m, "mapping": mapping}
    for name in needs:
        if have[name] is None:
            raise ValueError(f"strategy {strategy} requires input {name!r}")
    if "e_m" in needs and e_m.tokens != task_vocab.tokens():
        raise ValueError("e_m's tokens are not the task vocabulary's words in id order")

    if dim is None:
        dims = [m.dim for m in (e_v, e_m) if m is not None]
        if not dims:
            raise ValueError("Random strategy needs an explicit dim")
        dim = max(dims)
    for name in ("e_v", "e_m"):
        if name in needs and have[name].dim > dim:
            raise ValueError(f"dim {dim} is narrower than {name} "
                             f"(dim {have[name].dim})")

    tokens = list(task_vocab.id_to_token)
    special = np.array([tok in SPECIALS for tok in tokens])
    drawn = special | (strategy is InitStrategy.RANDOM)
    drawn[PAD] = False
    rows = np.zeros((len(tokens), dim))
    rng = np.random.default_rng(seed)
    rows[drawn] = rng.uniform(-INIT_RANGE, INIT_RANGE, (int(drawn.sum()), dim))
    tags = np.full(len(tokens), "random", dtype=object)
    if strategy is not InitStrategy.RANDOM:
        words = np.flatnonzero(~special)
        table, tags[words] = _word_rows(strategy, [tokens[i] for i in words],
                                        e_v, e_m.rows, mapping)
        rows[words, :table.shape[1]] = table
    return InitializedEmbeddings(EmbeddingMatrix(tokens, rows), dict(zip(tokens, tags)))


def _word_rows(strategy, words, e_v, em, mapping):
    """Rows and provenance tags of `words` under a strategy other than Random,
    given their E_M rows `em`.  XhSub takes the E_M row; XhPre and VecMap (in
    the common space) take a word's E_V row if it has one, else its E_M row;
    XhMeta averages the E_M row with the E_V row or the E_V centroid.  The
    narrower of E_V and E_M is zero-padded."""
    if strategy is InitStrategy.XH_SUB:
        return em, ["fromEM"] * len(words)
    has = np.array([w in e_v for w in words], dtype=bool)
    ev = e_v.rows[[e_v.index[w] for w in words if w in e_v]]
    if strategy is InitStrategy.VECMAP:
        em, ev = mapping.map_z(em), mapping.map_x(ev)
    width = max(em.shape[1], ev.shape[1])
    em_side = np.zeros((len(words), width))
    em_side[:, :em.shape[1]] = em
    ev_side = np.zeros((len(words), width))
    ev_side[has, :ev.shape[1]] = ev
    if strategy is InitStrategy.XH_META:
        if not has.all():
            ev_side[~has, :e_v.dim] = unk_vector(e_v)
        return (meta_embedding(ev_side, em_side),
                np.where(has, "fromEV", "unkSubstituted").tolist())
    return (np.where(has[:, None], ev_side, em_side),
            np.where(has, "fromEV", "fromEM").tolist())
