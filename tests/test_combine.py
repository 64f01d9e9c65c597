import numpy as np
import pytest

from xhembed.combine import (STRATEGY_ORDER, InitStrategy,
                             build_initial_embeddings, meta_embedding,
                             unk_vector)
from xhembed.corpus import PAD, SPECIALS
from xhembed.embedstore import EmbeddingMatrix
from xhembed.subword import SkipgramConfig, train_skipgram
from xhembed.xmap import fit_mapping

from conftest import fixed_mapping, vocab_of


class FakeSubword:
    """Deterministic stand-in: each word maps to a fixed pseudo-random row."""

    def __init__(self, dim=4):
        self.dim = dim

    def compose(self, word):
        rng = np.random.default_rng(abs(hash(word)) % (2 ** 31))
        return rng.normal(size=self.dim)

    def compose_rows(self, words):
        return np.array([self.compose(w) for w in words]).reshape(len(words), self.dim)


def ev_of(entries, dim=4):
    toks = list(entries)
    rng = np.random.default_rng(9)
    return EmbeddingMatrix(toks, rng.normal(size=(len(toks), dim)))


class TestStrategyEnum:
    def test_parse_exact(self):
        assert InitStrategy.parse("XhMeta") is InitStrategy.XH_META

    def test_parse_case_insensitive(self):
        assert InitStrategy.parse("vecmap") is InitStrategy.VECMAP

    def test_parse_strips_spaces(self):
        assert InitStrategy.parse(" XhPre") is InitStrategy.XH_PRE
        assert InitStrategy.parse("\txhsub \n") is InitStrategy.XH_SUB

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="nope"):
            InitStrategy.parse("nope")

    def test_report_row_order(self):
        assert [str(s) for s in STRATEGY_ORDER] == [
            "Random", "VecMap", "XhSub", "XhPre", "XhMeta"]


class TestHelpers:
    def test_unk_vector_is_centroid(self):
        ev = EmbeddingMatrix(["a", "b"], np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert np.allclose(unk_vector(ev), [1.0, 1.0])

    def test_unk_vector_empty(self):
        with pytest.raises(ValueError):
            unk_vector(EmbeddingMatrix([], np.zeros((0, 3))))

    def test_meta_embedding_mean(self):
        assert np.allclose(meta_embedding([0.0, 2.0], [2.0, 0.0]), [1.0, 1.0])

    def test_meta_embedding_dim_mismatch(self):
        with pytest.raises(ValueError):
            meta_embedding([1.0], [1.0, 2.0])


class TestBuild:
    def setup_method(self):
        self.vocab = vocab_of(["inkosi", "indoda", "umntu"])
        self.ev = ev_of(["indoda", "umntu"])
        self.sub = FakeSubword()

    def test_random_needs_dim(self):
        with pytest.raises(ValueError):
            build_initial_embeddings(InitStrategy.RANDOM, self.vocab)

    def test_random_shape_and_range(self):
        init = build_initial_embeddings(InitStrategy.RANDOM, self.vocab, dim=6,
                                        seed=1)
        assert init.matrix.rows.shape == (7, 6)
        assert np.all(np.abs(init.matrix.rows) <= 0.1)
        assert all(init.provenance[t] == "random" for t in init.matrix.tokens)

    def test_pad_row_zero_other_specials_not(self):
        init = build_initial_embeddings(InitStrategy.XH_SUB, self.vocab,
                                        subword_model=self.sub, seed=1)
        assert np.array_equal(init.matrix.rows[PAD], np.zeros(4))
        for tok in SPECIALS[1:]:
            assert np.linalg.norm(init.matrix.get(tok)) > 0
            assert init.provenance[tok] == "random"

    def test_missing_input_named(self):
        with pytest.raises(ValueError, match="subword_model"):
            build_initial_embeddings(InitStrategy.XH_SUB, self.vocab)
        with pytest.raises(ValueError, match="e_v"):
            build_initial_embeddings(InitStrategy.XH_PRE, self.vocab,
                                     subword_model=self.sub)
        with pytest.raises(ValueError, match="mapping"):
            build_initial_embeddings(InitStrategy.VECMAP, self.vocab,
                                     e_v=self.ev, subword_model=self.sub)

    def test_xhsub_rows_are_compositions(self):
        init = build_initial_embeddings(InitStrategy.XH_SUB, self.vocab,
                                        subword_model=self.sub)
        for tok in self.vocab.tokens():
            assert np.allclose(init.matrix.get(tok), self.sub.compose(tok))
            assert init.provenance[tok] == "fromEM"

    def test_xhpre_prefers_projected(self):
        init = build_initial_embeddings(InitStrategy.XH_PRE, self.vocab,
                                        e_v=self.ev, subword_model=self.sub)
        assert np.allclose(init.matrix.get("indoda"), self.ev.get("indoda"))
        assert init.provenance["indoda"] == "fromEV"
        assert np.allclose(init.matrix.get("inkosi"), self.sub.compose("inkosi"))
        assert init.provenance["inkosi"] == "fromEM"

    def test_vecmap_applies_mapping(self):
        q = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
        mapping = fixed_mapping(q, np.eye(4))
        init = build_initial_embeddings(InitStrategy.VECMAP, self.vocab,
                                        e_v=self.ev, subword_model=self.sub,
                                        mapping=mapping)
        assert np.allclose(init.matrix.get("indoda"),
                           mapping.map_x(self.ev.get("indoda")))
        assert np.allclose(init.matrix.get("inkosi"),
                           mapping.map_z(self.sub.compose("inkosi")))

    def test_xhmeta_averages(self):
        init = build_initial_embeddings(InitStrategy.XH_META, self.vocab,
                                        e_v=self.ev, subword_model=self.sub)
        want = (self.ev.get("indoda") + self.sub.compose("indoda")) / 2
        assert np.allclose(init.matrix.get("indoda"), want)
        assert init.provenance["indoda"] == "fromEV"

    def test_xhmeta_absent_uses_centroid(self):
        init = build_initial_embeddings(InitStrategy.XH_META, self.vocab,
                                        e_v=self.ev, subword_model=self.sub)
        want = (unk_vector(self.ev) + self.sub.compose("inkosi")) / 2
        assert np.allclose(init.matrix.get("inkosi"), want)
        assert init.provenance["inkosi"] == "unkSubstituted"

    def test_unequal_dims_zero_padded(self):
        ev = ev_of(["indoda"], dim=2)
        init = build_initial_embeddings(InitStrategy.XH_PRE, self.vocab,
                                        e_v=ev, subword_model=FakeSubword(4))
        assert init.matrix.dim == 4
        row = init.matrix.get("indoda")
        assert np.allclose(row[:2], ev.get("indoda")) and np.all(row[2:] == 0)

    def test_deterministic_given_seed(self):
        a = build_initial_embeddings(InitStrategy.RANDOM, self.vocab, dim=5, seed=7)
        b = build_initial_embeddings(InitStrategy.RANDOM, self.vocab, dim=5, seed=7)
        assert np.array_equal(a.matrix.rows, b.matrix.rows)

    def test_write_provenance(self, tmp_path):
        init = build_initial_embeddings(InitStrategy.XH_SUB, self.vocab,
                                        subword_model=self.sub)
        init.write_provenance(tmp_path / "prov.tsv")
        lines = (tmp_path / "prov.tsv").read_text().splitlines()
        assert len(lines) == 7
        assert lines[0] == "<pad>\trandom"
        assert any(line == "indoda\tfromEM" for line in lines)


def reference_map(record, w, vec):
    """One vector through the preprocessing chain, the per-vector way, then
    through the orthogonal map `w`."""
    v = np.asarray(vec, dtype=np.float64)
    if record is not None:
        n = np.linalg.norm(v)
        if n:
            v = v / n
        v = v - record.column_means
        n = np.linalg.norm(v)
        if n:
            v = v / n
    return v @ w


def reference_build_initial_embeddings(strategy, task_vocab, e_v=None,
                                       subword_model=None, mapping=None,
                                       dim=None, seed=0):
    """Oracle: one row per token, one `compose` per word."""
    if dim is None:
        dim = max(m.dim for m in (e_v, subword_model) if m is not None)

    def pad_to(vec):
        out = np.zeros(dim)
        out[:len(vec)] = vec
        return out

    rng = np.random.default_rng(seed)
    tokens = list(task_vocab.id_to_token)
    rows = np.empty((len(tokens), dim))
    provenance = {}
    centroid = None
    for i, tok in enumerate(tokens):
        if tok in SPECIALS:
            row = np.zeros(dim) if i == PAD else rng.uniform(-0.1, 0.1, dim)
            tag = "random"
        elif strategy == InitStrategy.RANDOM:
            row, tag = rng.uniform(-0.1, 0.1, dim), "random"
        elif strategy == InitStrategy.XH_SUB:
            row, tag = pad_to(subword_model.compose(tok)), "fromEM"
        elif strategy == InitStrategy.XH_PRE:
            if tok in e_v:
                row, tag = pad_to(e_v.get(tok)), "fromEV"
            else:
                row, tag = pad_to(subword_model.compose(tok)), "fromEM"
        elif strategy == InitStrategy.VECMAP:
            if tok in e_v:
                row = pad_to(reference_map(mapping.pre_x, mapping.w_x, e_v.get(tok)))
                tag = "fromEV"
            else:
                row = pad_to(reference_map(mapping.pre_z, mapping.w_z,
                                           subword_model.compose(tok)))
                tag = "fromEM"
        else:
            em_row = pad_to(subword_model.compose(tok))
            if tok in e_v:
                ev_row, tag = pad_to(e_v.get(tok)), "fromEV"
            else:
                if centroid is None:
                    centroid = unk_vector(e_v)
                ev_row, tag = pad_to(centroid), "unkSubstituted"
            row = meta_embedding(ev_row, em_row)
        rows[i] = row
        provenance[tok] = tag
    return rows, provenance


MICRO_WORDS = ["toza", "tozile", "meka", "mekile", "vusa", "vusile", "hamba",
               "hambile", "bona", "bonile"]


@pytest.fixture(scope="module")
def micro_sources():
    """A 4-d subword model trained on a micro corpus (minn 4, so an unseen
    one-letter word has no units), a 4-d E_V over half its words, and the
    mapping fitted between them."""
    rng = np.random.default_rng(0)
    corpus = [[MICRO_WORDS[int(rng.integers(len(MICRO_WORDS)))] for _ in range(4)]
              for _ in range(60)]
    cfg = SkipgramConfig(dim=4, epochs=1, buckets=200, subsample=0, minn=4, maxn=5)
    model = train_skipgram(corpus, cfg)[0]
    e_m = model.export_matrix(model.vocab.tokens())
    ev_words = MICRO_WORDS[::2]
    e_v = EmbeddingMatrix(ev_words, rng.normal(size=(len(ev_words), 4)))
    return model, e_v, fit_mapping(e_v, e_m)


class TestAgainstReference:
    """The whole-matrix builder against the per-token oracle: task words with
    and without E_V rows, unseen words, and a word with no subword units."""

    vocab = vocab_of(MICRO_WORDS + ["tozisa", "mekisa", "z"])

    @pytest.mark.parametrize("strategy", list(InitStrategy))
    @pytest.mark.parametrize("dim", [None, 11])
    def test_same_rows_and_provenance(self, micro_sources, strategy, dim):
        model, e_v, mapping = micro_sources
        assert model.compose_rows(["z"]).tolist() == [[0.0] * 4]
        kwargs = dict(e_v=e_v, subword_model=model, mapping=mapping, dim=dim, seed=3)
        got = build_initial_embeddings(strategy, self.vocab, **kwargs)
        rows, provenance = reference_build_initial_embeddings(strategy, self.vocab,
                                                              **kwargs)
        assert got.provenance == provenance
        if strategy is InitStrategy.VECMAP:
            assert np.abs(got.matrix.rows - rows).max() <= 1e-13
        else:
            assert np.array_equal(got.matrix.rows, rows)

    @pytest.mark.parametrize("strategy", [InitStrategy.XH_PRE, InitStrategy.XH_META])
    @pytest.mark.parametrize("ev_dim", [3, 6])
    def test_unequal_source_widths(self, micro_sources, strategy, ev_dim):
        model, e_v, _ = micro_sources
        e_v = EmbeddingMatrix(e_v.tokens, np.random.default_rng(ev_dim).normal(
            size=(len(e_v), ev_dim)))
        got = build_initial_embeddings(strategy, self.vocab, e_v=e_v,
                                       subword_model=model, seed=3)
        rows, provenance = reference_build_initial_embeddings(
            strategy, self.vocab, e_v=e_v, subword_model=model, seed=3)
        assert got.matrix.dim == max(ev_dim, 4)
        assert got.provenance == provenance
        assert np.array_equal(got.matrix.rows, rows)
