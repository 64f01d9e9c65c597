import math

import pytest
from hypothesis import given, strategies as st

from xhembed.corpus import (CorpusError, ParallelCorpus, SplitSpec,
                            build_vocabulary, corpus_stats,
                            load_parallel_corpus, read_lines, split_corpus,
                            tokenize, write_lines, write_splits)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestTokenize:
    def test_punctuation_split_and_lowercase(self):
        assert tokenize("Indoda ihamba.") == ["indoda", "ihamba", "."]

    def test_idempotent(self):
        toks = tokenize("He said: 'go, now!'")
        assert tokenize(" ".join(toks)) == toks

    @given(st.text(max_size=40))
    def test_idempotent_property(self, s):
        toks = tokenize(s)
        assert tokenize(" ".join(toks)) == toks


class TestLoad:
    def test_empty_files(self, tmp_path):
        src = write(tmp_path, "a.src", "")
        tgt = write(tmp_path, "a.tgt", "")
        corp = load_parallel_corpus(src, tgt)
        assert len(corp) == 0 and corp.report.dropped == 0

    def test_single_pair(self, tmp_path):
        src = write(tmp_path, "a.src", "Indoda ihamba.\n")
        tgt = write(tmp_path, "a.tgt", "The man walks.\n")
        corp = load_parallel_corpus(src, tgt)
        assert len(corp) == 1
        assert corp.pairs[0][0] == ["indoda", "ihamba", "."]
        assert corp.pairs[0][1] == ["the", "man", "walks", "."]

    def test_count_mismatch(self, tmp_path):
        src = write(tmp_path, "a.src", "x\ny\n")
        tgt = write(tmp_path, "a.tgt", "x\n")
        with pytest.raises(CorpusError, match="2.*1"):
            load_parallel_corpus(src, tgt)

    def test_undecodable_bytes_reports_line(self, tmp_path):
        src = tmp_path / "a.src"
        src.write_bytes(b"ok\n\xff\xfe\n")
        tgt = write(tmp_path, "a.tgt", "x\ny\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_parallel_corpus(src, tgt)

    def test_empty_side_dropped_and_counted(self, tmp_path):
        src = write(tmp_path, "a.src", "one\n\ntwo\n")
        tgt = write(tmp_path, "a.tgt", "eins\nzwei\ndrei\n")
        corp = load_parallel_corpus(src, tgt)
        assert len(corp) == 2 and corp.report.dropped == 1


class TestVocabulary:
    def test_empty_side_gives_specials_only(self):
        v = build_vocabulary([], min_count=1)
        assert len(v) == 4
        assert v.id_to_token == ["<pad>", "<unk>", "<bos>", "<eos>"]

    def test_frequency_order(self):
        v = build_vocabulary([["a", "a", "b"]], min_count=1)
        assert v.id("a") == 4 and v.id("b") == 5

    def test_min_count_filters(self):
        v = build_vocabulary([["a", "a", "b"]], min_count=2)
        assert "a" in v and "b" not in v
        assert v.id("b") == 1  # UNK

    def test_tie_broken_lexicographically(self):
        v = build_vocabulary([["b", "a"]], min_count=1)
        assert v.id("a") == 4 and v.id("b") == 5

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocabulary([["a", "a", "b"]], min_count=1)
        v.save(tmp_path / "v")
        v2 = type(v).load(tmp_path / "v")
        assert v2.id_to_token == v.id_to_token
        assert v2.freq == v.freq


def corpus_of(n):
    return ParallelCorpus("c", [([f"s{i}"], [f"t{i}"]) for i in range(n)])


class TestSplit:
    def test_bible_arithmetic(self):
        tr, dv, te = split_corpus(corpus_of(31102), SplitSpec())
        assert (len(tr), len(dv), len(te)) == (21771, 6220, 3111)

    def test_exact_ratio(self):
        tr, dv, te = split_corpus(corpus_of(10), SplitSpec())
        assert (len(tr), len(dv), len(te)) == (7, 2, 1)

    def test_deterministic(self):
        c = corpus_of(100)
        a = split_corpus(c, SplitSpec(seed=3))
        b = split_corpus(c, SplitSpec(seed=3))
        assert all(x.pairs == y.pairs for x, y in zip(a, b))

    @given(st.integers(0, 200), st.integers(0, 2 ** 31))
    def test_partition_property(self, n, seed):
        c = corpus_of(n)
        parts = split_corpus(c, SplitSpec(seed=seed))
        assert sum(len(p) for p in parts) == n
        seen = [tuple(p[0]) for part in parts for p in part.pairs]
        assert sorted(seen) == sorted(tuple(p[0]) for p in c.pairs)
        assert len(set(seen)) == n

    def test_invalid_ratios(self):
        with pytest.raises(ValueError):
            SplitSpec((0.5, 0.2, 0.2))

    def test_write_splits_files(self, tmp_path):
        parts = split_corpus(corpus_of(10), SplitSpec())
        paths = write_splits(parts, tmp_path, "c")
        assert len(paths) == 6
        train_src = (tmp_path / "c.train.src").read_text().splitlines()
        assert len(train_src) == 7


class TestWriteLines:
    def test_one_newline_after_each_line(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, iter(["a b", "", "ñé\u2028x"]))
        assert path.read_bytes() == "a b\n\nñé\u2028x\n".encode("utf-8")
        assert read_lines(path) == ["a b", "", "ñé\u2028x"]
        write_lines(path, [])
        assert path.read_bytes() == b""

    def test_failing_lines_keep_old_file(self, tmp_path):
        path = write(tmp_path, "out.txt", "old\n")

        def lines():
            yield "new"
            raise RuntimeError("no second line")

        with pytest.raises(RuntimeError, match="no second line"):
            write_lines(path, lines())
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestStats:
    def test_single_sentence(self):
        c = ParallelCorpus("c", [(["a"] * 5, ["b"] * 3)])
        st_ = corpus_stats(c)
        assert st_.src.mean_len == 5 and st_.src.std_len == 0
        assert st_.sentences == 1

    def test_population_std(self):
        c = ParallelCorpus("c", [(["a"] * 2, ["x"]), (["a"] * 4, ["x"])])
        st_ = corpus_stats(c)
        assert st_.src.mean_len == 3 and st_.src.std_len == 1

    def test_empty(self):
        st_ = corpus_stats(ParallelCorpus("c", []))
        assert st_.sentences == 0
        assert st_.src.mean_len == 0 and st_.src.std_len == 0

    def test_permutation_invariant(self):
        pairs = [(["a"] * k, ["b"] * k) for k in (1, 5, 2, 9)]
        a = corpus_stats(ParallelCorpus("c", pairs))
        b = corpus_stats(ParallelCorpus("c", pairs[::-1]))
        assert a == b

    def test_totals(self):
        c = ParallelCorpus("c", [(["a"] * 2, ["x"]), (["a"] * 4, ["x"])])
        st_ = corpus_stats(c)
        assert st_.src.total_tokens == 6 and st_.tgt.total_tokens == 2
