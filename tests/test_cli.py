from dataclasses import replace

import numpy as np
import pytest

from xhembed.cli import (CONFIG_KEYS, ValidationError, load_config, main,
                         run_pipeline)
from xhembed.combine import InitStrategy
from xhembed.embedstore import EmbeddingMatrix, read_embeddings, write_embeddings
from xhembed.nmt import load_checkpoint, save_checkpoint
from xhembed.subword import SkipgramConfig, SubwordModel
from xhembed.xmap import MappingModel, save_mapping

from conftest import tiny_model, vocab_of


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def cli(*argv):
    return main([str(a) for a in argv])


def assert_fails_naming(argv, path, capsys):
    """`xhembed argv` exits 1 with `path` in its message and no traceback."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


class TestConfig:
    def test_defaults_returned(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, ""))
        assert cfg["train.batch"] == 64
        assert cfg["nmt.hidden"] == 128
        assert cfg["data.bible_src"] is None

    def test_comments_and_blanks_skipped(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "# hello\n\ntrain.epochs=3\n"))
        assert cfg["train.epochs"] == 3

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ValidationError, match=":2:.*nope"):
            load_config(write_cfg(tmp_path, "train.epochs=3\nnope=1\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ValidationError, match="train.epochs"):
            load_config(write_cfg(tmp_path, "train.epochs=three\n"))

    def test_subword_workers_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match=":1:.*subword.workers"):
            load_config(write_cfg(tmp_path, "subword.workers=2\n"))

    @pytest.mark.parametrize("key", ["map.max_iters", "map.patience", "map.csls_k"])
    def test_map_keys_rejected(self, tmp_path, key):
        """fit_mapping reads none of these, so naming one is an error."""
        with pytest.raises(ValidationError, match=f":1:.*{key}"):
            load_config(write_cfg(tmp_path, f"{key}=5\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(write_cfg(tmp_path, "just a line\n"))

    def test_every_key_has_type_and_default_slot(self):
        for key, (typ, _) in CONFIG_KEYS.items():
            assert typ in (str, int, float), key


class TestValidation:
    def base_cfg(self, tmp_path):
        cfg = {k: d for k, (_, d) in CONFIG_KEYS.items()}
        for key in ("data.bible_src", "data.bible_tgt", "data.corpus2_src",
                    "data.corpus2_tgt", "data.hr_embeddings"):
            p = tmp_path / key.split(".")[1]
            p.write_text("x\n")
            cfg[key] = str(p)
        (tmp_path / "hr_embeddings").write_text("x 1 0\n")
        return cfg

    def test_missing_required_path_named(self, tmp_path):
        cfg = {k: d for k, (_, d) in CONFIG_KEYS.items()}
        with pytest.raises(ValidationError, match="data.bible_src"):
            run_pipeline(cfg, tmp_path / "out", [InitStrategy.RANDOM])

    def test_lexicon_required_for_projection_strategies(self, tmp_path):
        cfg = self.base_cfg(tmp_path)
        for strat in (InitStrategy.XH_PRE, InitStrategy.VECMAP,
                      InitStrategy.XH_META):
            with pytest.raises(ValidationError, match="data.lexicon"):
                run_pipeline(cfg, tmp_path / "out", [strat])

    def test_hr_embeddings_required_for_projection_strategies(self, tmp_path):
        cfg = self.base_cfg(tmp_path)
        (tmp_path / "lexicon").write_text("x\ty\n")
        cfg["data.lexicon"] = str(tmp_path / "lexicon")
        cfg["data.hr_embeddings"] = None
        with pytest.raises(ValidationError, match="data.hr_embeddings"):
            run_pipeline(cfg, tmp_path / "out", [InitStrategy.XH_PRE])

    def test_nonexistent_data_path(self, tmp_path):
        cfg = self.base_cfg(tmp_path)
        cfg["data.bible_src"] = str(tmp_path / "missing.src")
        with pytest.raises(ValidationError, match="missing.src"):
            run_pipeline(cfg, tmp_path / "out", [InitStrategy.RANDOM])


class TestExitCodes:
    def test_validation_failure_is_one(self, tmp_path, capsys):
        rc = main(["neighbors", "--embeddings", str(tmp_path / "no.vec"),
                   "--word", "x"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_strategy_is_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "")
        rc = main(["run-all", "--config", str(cfg), "--strategies", "Bogus",
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_success_is_zero(self, tmp_path, capsys):
        p = tmp_path / "h.txt"
        p.write_text("a b c d\n")
        assert main(["evaluate", "--hyp", str(p), "--ref", str(p)]) == 0
        assert "100.0000" in capsys.readouterr().out


class TestSubcommands:
    def test_make_toy_writes_dataset_and_config(self, tmp_path, capsys):
        assert main(["make-toy", "--out", str(tmp_path)]) == 0
        for name in ("bible.src", "bible.tgt", "oxex.src", "oxex.tgt",
                     "lexicon.tsv", "hr.vec", "toy.cfg"):
            assert (tmp_path / name).exists(), name
        # the generated config must parse cleanly
        cfg = load_config(tmp_path / "toy.cfg")
        assert cfg["data.lexicon"].endswith("lexicon.tsv")

    def test_stats_output(self, tmp_path, capsys):
        (tmp_path / "a.src").write_text("one two\n")
        (tmp_path / "a.tgt").write_text("eins zwei\n")
        assert main(["stats", "--src", str(tmp_path / "a.src"),
                     "--tgt", str(tmp_path / "a.tgt")]) == 0
        out = capsys.readouterr().out
        assert "sentences\t1" in out and "src.mean_len\t2.0000" in out

    def test_neighbors_output(self, tmp_path, capsys):
        (tmp_path / "e.vec").write_text("a 1 0\nb 0 1\nc 1 0.1\n")
        assert main(["neighbors", "--embeddings", str(tmp_path / "e.vec"),
                     "--word", "a", "-k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("a\t1.0000")
        assert lines[1].startswith("c\t")

    def test_build_ev_subcommand(self, tmp_path, capsys):
        (tmp_path / "lex.tsv").write_text("indoda\tman\nghost\tzzz\n")
        (tmp_path / "hr.vec").write_text("man 3 4\n")
        assert main(["build-ev", "--lexicon", str(tmp_path / "lex.tsv"),
                     "--hr-embeddings", str(tmp_path / "hr.vec"),
                     "--out", str(tmp_path / "ev.npz")]) == 0
        assert "covered\t1" in capsys.readouterr().out
        e_v = read_embeddings(tmp_path / "ev.npz")
        assert e_v.tokens == ["indoda"]
        assert np.array_equal(e_v.rows, [[0.6, 0.8]])


class TestMalformedInput:
    """Malformed outside input exits 1 with a message naming the file."""

    def test_stats_line_count_mismatch(self, tmp_path, capsys):
        (tmp_path / "a.src").write_text("one two\nthree\n")
        (tmp_path / "a.tgt").write_text("eins zwei\n")
        assert_fails_naming(["stats", "--src", tmp_path / "a.src",
                             "--tgt", tmp_path / "a.tgt"],
                            tmp_path / "a.tgt", capsys)

    @pytest.mark.parametrize("lexicon", [b"indoda man\n", b"indoda\tman\n\xff\tx\n"])
    def test_build_ev_malformed_lexicon(self, tmp_path, capsys, lexicon):
        (tmp_path / "lex.tsv").write_bytes(lexicon)
        (tmp_path / "hr.vec").write_text("man 3 4\n")
        assert_fails_naming(["build-ev", "--lexicon", tmp_path / "lex.tsv",
                             "--hr-embeddings", tmp_path / "hr.vec",
                             "--out", tmp_path / "ev.npz"],
                            tmp_path / "lex.tsv", capsys)

    @pytest.mark.parametrize("bad", ["lex.tsv", "hr.vec"])
    def test_build_ev_undecodable_input(self, tmp_path, capsys, bad):
        (tmp_path / "lex.tsv").write_text("indoda\tman\n")
        (tmp_path / "hr.vec").write_text("man 3 4\n")
        with open(tmp_path / bad, "ab") as f:
            f.write(b"\xff\n")
        assert_fails_naming(["build-ev", "--lexicon", tmp_path / "lex.tsv",
                             "--hr-embeddings", tmp_path / "hr.vec",
                             "--out", tmp_path / "ev.npz"],
                            f"{tmp_path / bad}: undecodable bytes at line 2", capsys)

    @pytest.mark.parametrize("vec", [b"a 1 0\nb 0\n", b"a 1 0\n\xff 0 1\n"])
    def test_neighbors_bad_vec(self, tmp_path, capsys, vec):
        (tmp_path / "e.vec").write_bytes(vec)
        assert_fails_naming(["neighbors", "--embeddings", tmp_path / "e.vec",
                             "--word", "a"], tmp_path / "e.vec", capsys)

    def test_undecodable_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"subword.dim=8\n\xff=1\n")
        assert_fails_naming(["run-all", "--config", cfg], cfg, capsys)

    def test_undecodable_subword_text(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_bytes(b"hamba kahle\n\xffhamba\n")
        assert_fails_naming(["train-subword", "--text", tmp_path / "a.txt",
                             "--out", tmp_path / "sw.model"], tmp_path / "a.txt", capsys)

    def test_undecodable_translate_source(self, tmp_path, capsys):
        argv = tiny_translate_args(tmp_path, *tiny_model())
        (tmp_path / "test.src").write_bytes(b"w1 \xff w3\n")
        assert_fails_naming(argv, tmp_path / "test.src", capsys)

    def test_undecodable_split_file(self, tmp_path, capsys):
        cfg, params, sv, tv = tiny_model()
        save_checkpoint(tmp_path / "model.ckpt", cfg, params)
        sv.save(tmp_path / "vocab.src")
        tv.save(tmp_path / "vocab.tgt")
        (tmp_path / "c.train.src").write_bytes(b"w1 w2\n\xff\n")
        (tmp_path / "c.train.tgt").write_text("v1\nv2\n")
        assert_fails_naming(["finetune", "--checkpoint", tmp_path / "model.ckpt",
                             "--data", tmp_path, "--name", "c",
                             "--src-vocab", tmp_path / "vocab.src",
                             "--tgt-vocab", tmp_path / "vocab.tgt",
                             "--out", tmp_path / "ft.ckpt"],
                            tmp_path / "c.train.src", capsys)

    def test_split_line_count_mismatch(self, tmp_path, capsys):
        cfg, params, sv, tv = tiny_model()
        save_checkpoint(tmp_path / "model.ckpt", cfg, params)
        sv.save(tmp_path / "vocab.src")
        tv.save(tmp_path / "vocab.tgt")
        (tmp_path / "c.train.src").write_text("w1 w2\nw3\nw4 w5\n")
        (tmp_path / "c.train.tgt").write_text("v1\n")
        (tmp_path / "c.dev.src").write_text("w1\n")
        (tmp_path / "c.dev.tgt").write_text("v1\n")
        argv = ["finetune", "--checkpoint", tmp_path / "model.ckpt",
                "--data", tmp_path, "--name", "c",
                "--src-vocab", tmp_path / "vocab.src",
                "--tgt-vocab", tmp_path / "vocab.tgt", "--out", tmp_path / "ft.ckpt"]
        assert_fails_naming(argv, tmp_path / "c.train.src", capsys)
        assert_fails_naming(argv, tmp_path / "c.train.tgt", capsys)
        assert not (tmp_path / "ft.ckpt").exists()

    BAD_VOCABS = [(b"w1\t5\nw2\n", 2), (b"w1\tx\n", 1), (b"w1\t5\nw1\t3\n", 2),
                  (b"w1\t5\n\n<unk>\t2\n", 3)]

    @pytest.mark.parametrize("text,line", BAD_VOCABS)
    def test_init_emb_bad_vocabulary(self, tmp_path, capsys, text, line):
        vocab = tmp_path / "vocab.src"
        vocab.write_bytes(text)
        assert_fails_naming(["init-emb", "--strategy", "Random", "--vocab", vocab,
                             "--dim", "4", "--out", tmp_path / "init.npz"],
                            f"{vocab}:{line}:", capsys)

    @pytest.mark.parametrize("text,line", BAD_VOCABS)
    def test_translate_bad_source_vocabulary(self, tmp_path, capsys, text, line):
        argv = tiny_translate_args(tmp_path, *tiny_model())
        (tmp_path / "vocab.src").write_bytes(text)
        assert_fails_naming(argv, f"{tmp_path / 'vocab.src'}:{line}:", capsys)

    def test_undecodable_hypotheses(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_bytes(b"a b\nc d\xff\n")
        (tmp_path / "r.txt").write_text("a b\nc d\n")
        assert_fails_naming(["evaluate", "--hyp", tmp_path / "h.txt",
                             "--ref", tmp_path / "r.txt"],
                            tmp_path / "h.txt", capsys)

    def test_init_dim_narrower_than_subword_model(self, tmp_path, capsys):
        vocab = vocab_of(["toza", "meka"])
        vocab.save(tmp_path / "vocab.src")
        cfg = SkipgramConfig(dim=16, buckets=10)
        SubwordModel(vocab, cfg, np.zeros((10 + len(vocab), 16)),
                     np.zeros((len(vocab), 16))).save(tmp_path / "sw.model")
        capsys.readouterr()
        assert main(["init-emb", "--strategy", "XhSub",
                     "--vocab", str(tmp_path / "vocab.src"),
                     "--subword-model", str(tmp_path / "sw.model"), "--dim", "4",
                     "--out", str(tmp_path / "init.npz")]) == 1
        err = capsys.readouterr().err
        assert "dim 4" in err and "dim 16" in err and "Traceback" not in err
        assert not (tmp_path / "init.npz").exists()

    def test_evaluate_line_count_mismatch(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("a b\nc d\n")
        (tmp_path / "r.txt").write_text("a b\n")
        assert_fails_naming(["evaluate", "--hyp", tmp_path / "h.txt",
                             "--ref", tmp_path / "r.txt"],
                            tmp_path / "h.txt", capsys)

    def test_evaluate_blank_reference_line(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("a b\nc d\n")
        (tmp_path / "r.txt").write_text("a b\n\n")
        assert_fails_naming(["evaluate", "--hyp", tmp_path / "h.txt",
                             "--ref", tmp_path / "r.txt"],
                            f"{tmp_path / 'r.txt'}:2: empty reference", capsys)

    def test_init_emb_mapping_narrower_than_spaces(self, tmp_path, capsys):
        """An 8-d mapping against 16-d E_V and E_M."""
        vocab = vocab_of(["toza", "meka"])
        vocab.save(tmp_path / "vocab.src")
        SubwordModel(vocab, SkipgramConfig(dim=16, buckets=10),
                     np.zeros((10 + len(vocab), 16)),
                     np.zeros((len(vocab), 16))).save(tmp_path / "sw.model")
        write_embeddings(EmbeddingMatrix(["toza"], np.ones((1, 16))), tmp_path / "ev.npz")
        save_mapping(MappingModel(np.eye(8), np.eye(8)), tmp_path / "mapping.npz")
        capsys.readouterr()
        assert cli("init-emb", "--strategy", "VecMap", "--vocab", tmp_path / "vocab.src",
                   "--ev", tmp_path / "ev.npz", "--subword-model", tmp_path / "sw.model",
                   "--mapping", tmp_path / "mapping.npz",
                   "--out", tmp_path / "init.npz") == 1
        err = capsys.readouterr().err
        for part in (str(tmp_path / "mapping.npz"), "mapping dim 8", "E_V dim 16",
                     "E_M dim 16"):
            assert part in err
        assert "Traceback" not in err
        assert not (tmp_path / "init.npz").exists()

    def train_mt_on_init(self, tmp_path, capsys, words, dim):
        """Exit code and stderr of `train-mt` at emb_dim 4 with source
        vocabulary w1 w2 and an init table of `words` rows, `dim` wide."""
        vocab_of(["w1", "w2"]).save(tmp_path / "vocab.src")
        vocab_of(["v1"]).save(tmp_path / "vocab.tgt")
        tokens = vocab_of(words).id_to_token
        write_embeddings(EmbeddingMatrix(tokens, np.ones((len(tokens), dim))),
                         tmp_path / "init.npz")
        for part in ("train", "dev"):
            (tmp_path / f"c.{part}.src").write_text("w1 w2\n")
            (tmp_path / f"c.{part}.tgt").write_text("v1\n")
        cfg = write_cfg(tmp_path, "nmt.emb_dim=4\nnmt.hidden=4\n")
        capsys.readouterr()
        rc = cli("train-mt", "--data", tmp_path, "--name", "c",
                 "--src-vocab", tmp_path / "vocab.src", "--tgt-vocab", tmp_path / "vocab.tgt",
                 "--init", tmp_path / "init.npz", "--out", tmp_path / "model.ckpt",
                 "--config", cfg)
        assert not (tmp_path / "model.ckpt").exists()
        return rc, capsys.readouterr().err

    def test_train_mt_init_rows_not_the_source_vocabulary(self, tmp_path, capsys):
        rc, err = self.train_mt_on_init(tmp_path, capsys, ["w1", "w3"], 4)
        assert rc == 1 and "Traceback" not in err
        assert str(tmp_path / "init.npz") in err and str(tmp_path / "vocab.src") in err

    def test_train_mt_init_width_not_emb_dim(self, tmp_path, capsys):
        rc, err = self.train_mt_on_init(tmp_path, capsys, ["w1", "w2"], 6)
        assert rc == 1 and "Traceback" not in err
        assert str(tmp_path / "init.npz") in err and "dim 6" in err


def tiny_translate_args(tmp_path, cfg, params, sv, tv):
    """`translate` arguments for a checkpoint of (cfg, params) and one
    source sentence, written under tmp_path."""
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, cfg, params)
    sv.save(tmp_path / "vocab.src")
    tv.save(tmp_path / "vocab.tgt")
    (tmp_path / "test.src").write_text("w1 w2 w3\n")
    return ["translate", "--checkpoint", str(ckpt), "--src", str(tmp_path / "test.src"),
            "--src-vocab", str(tmp_path / "vocab.src"),
            "--tgt-vocab", str(tmp_path / "vocab.tgt"), "--out", str(tmp_path / "hyp")]


def micro_dataset(tmp_path):
    """Tiny deterministic corpus wired into a config for fast pipeline runs."""
    rng = np.random.default_rng(0)
    words = ["toza", "tozile", "meka", "mekile", "vusa", "vusile"]
    en = {"toza": "go", "tozile": "went", "meka": "see",
          "mekile": "saw", "vusa": "rise", "vusile": "rose"}
    with open(tmp_path / "b.src", "w") as fs, open(tmp_path / "b.tgt", "w") as ft:
        for _ in range(40):
            sent = [words[int(rng.integers(6))] for _ in range(3)]
            fs.write(" ".join(sent) + "\n")
            ft.write(" ".join(en[w] for w in sent) + "\n")
    with open(tmp_path / "c.src", "w") as fs, open(tmp_path / "c.tgt", "w") as ft:
        for _ in range(20):
            sent = [words[int(rng.integers(6))] for _ in range(2)]
            fs.write(" ".join(sent) + "\n")
            ft.write(" ".join(en[w] for w in sent) + "\n")
    with open(tmp_path / "lex.tsv", "w") as f:
        for w, e in en.items():
            f.write(f"{w}\t{e}\n")
    hr_words = sorted(set(en.values()))
    with open(tmp_path / "hr.vec", "w") as f:
        for w in hr_words:
            vec = " ".join("%.4f" % v for v in rng.uniform(-1, 1, 8))
            f.write(f"{w} {vec}\n")
    return (f"data.bible_src={tmp_path}/b.src\n"
            f"data.bible_tgt={tmp_path}/b.tgt\n"
            f"data.corpus2_src={tmp_path}/c.src\n"
            f"data.corpus2_tgt={tmp_path}/c.tgt\n"
            f"data.lexicon={tmp_path}/lex.tsv\n"
            f"data.hr_embeddings={tmp_path}/hr.vec\n"
            "subword.dim=8\nsubword.epochs=1\nsubword.buckets=100\n"
            "subword.subsample=0\n"
            "nmt.emb_dim=8\nnmt.hidden=8\nnmt.dropout=0\nnmt.max_decode_len=6\n"
            "nmt.beam=2\ntrain.epochs=1\ntrain.batch=16\nfinetune.epochs=1\n")


class TestPipeline:
    def test_run_all_smoke(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path))
        out = tmp_path / "out"
        rc = main(["run-all", "--config", str(cfg_path), "--out", str(out),
                   "--strategies", "Random,XhMeta"])
        assert rc == 0
        lines = (out / "results.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "strategy", "bible_corpus_bleu", "bible_mean_sentence_bleu",
            "corpus2_corpus_bleu", "corpus2_mean_sentence_bleu"]
        assert [l.split("\t")[0] for l in lines[1:]] == ["Random", "XhMeta"]
        for name in ("vocab.src", "vocab.tgt", "subword.model", "em.npz",
                     "ev.npz", "manifest.txt", "bible.stats.txt"):
            assert (out / name).exists(), name
        for sub in ("Random", "XhMeta"):
            assert (out / sub / "bible.ckpt").exists()
            assert (out / sub / "corpus2.test.hyp").exists()
            assert (out / sub / "init.provenance.tsv").exists()
            assert (out / sub / "init.npz").exists()

    def test_xhsub_only_needs_no_lexicon(self, tmp_path):
        text = micro_dataset(tmp_path)
        text = "\n".join(l for l in text.splitlines()
                         if not l.startswith(("data.lexicon",
                                              "data.hr_embeddings"))) + "\n"
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out2"
        rc = main(["run-all", "--config", str(cfg_path), "--out", str(out),
                   "--strategies", "XhSub"])
        assert rc == 0
        assert (out / "em.npz").exists()
        assert not (out / "ev.npz").exists()

    def test_subword_dim_must_match_hr_dim(self, tmp_path, capsys):
        """The micro dataset's HR vectors are 8-d; a 6-d subword space cannot
        be mapped onto them."""
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path) + "subword.dim=6\n")
        rc = main(["run-all", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--strategies", "VecMap"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'map'" in err and "dim 8" in err and "dim 6" in err

    @pytest.mark.parametrize("line, named", [
        ("train.batch=0", "batch_size"), ("train.lr=-1", "lr"),
        ("nmt.dropout=1.0", "dropout"), ("nmt.enc_layers=0", "enc_layers"),
        ("split.train=nan", "ratios"), ("subword.dim=0", "dim"),
        ("subword.buckets=0", "buckets"), ("subword.min_count=0", "min_count"),
        ("vocab.min_count=0", "vocab.min_count"), ("nmt.hidden=0", "hidden"),
        ("nmt.emb_dim=6", "emb_dim")])
    def test_bad_config_value_fails_before_any_stage(self, tmp_path, capsys, line,
                                                     named):
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path) + line + "\n")
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


class TestMalformedArtifacts:
    """A damaged checkpoint, subword model or mapping exits 1 naming the file."""

    def artifacts(self, tmp_path):
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path))
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out),
                     "--strategies", "Random,VecMap"]) == 0
        return out

    def test_truncated_files(self, tmp_path, capsys):
        out = self.artifacts(tmp_path)
        ckpt = out / "Random" / "corpus2.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
        assert_fails_naming(
            ["translate", "--checkpoint", str(ckpt),
             "--src", str(out / "corpus2.test.src"),
             "--src-vocab", str(out / "vocab.src"),
             "--tgt-vocab", str(out / "vocab.tgt"),
             "--out", str(tmp_path / "hyp")], ckpt, capsys)

        model = out / "subword.model"
        model.write_bytes(model.read_bytes()[:-100])
        assert_fails_naming(
            ["init-emb", "--strategy", "XhSub", "--vocab", str(out / "vocab.src"),
             "--subword-model", str(model), "--dim", "8",
             "--out", str(tmp_path / "init.npz")], model, capsys)

        em = out / "em.npz"
        em.write_bytes(em.read_bytes()[:em.stat().st_size // 2])
        assert_fails_naming(
            ["map", "--ev", str(out / "ev.npz"), "--em", str(em),
             "--out", str(tmp_path / "mapping.npz")], em, capsys)

    def test_wrong_tensor_names(self, tmp_path, capsys):
        """A checkpoint in the per-gate GRU layout, or one missing a tensor,
        is rejected when loaded instead of failing later in decoding."""
        out = self.artifacts(tmp_path)
        cfg, params, history = load_checkpoint(out / "Random" / "corpus2.ckpt")
        per_gate = {}
        for name, t in params.items():
            if name.startswith(("enc_", "dec_")):
                prefix, kind = name.rsplit("_", 1)
                for gate, block in zip("zrc", np.split(t, 3, axis=-1)):
                    per_gate[f"{prefix}_{kind}{gate}"] = block
            else:
                per_gate[name] = t
        no_att = {k: v for k, v in params.items() if k != "att_W"}
        for name, tensors in (("per_gate.ckpt", per_gate), ("no_att.ckpt", no_att)):
            ckpt = tmp_path / name
            save_checkpoint(ckpt, cfg, tensors, history)
            assert_fails_naming(
                ["translate", "--checkpoint", str(ckpt),
                 "--src", str(out / "corpus2.test.src"),
                 "--src-vocab", str(out / "vocab.src"),
                 "--tgt-vocab", str(out / "vocab.tgt"),
                 "--out", str(tmp_path / "hyp")], ckpt, capsys)

    def test_tensor_shapes_disagree_with_config(self, tmp_path, capsys):
        """hidden-8 tensors under a header config of hidden 16 are rejected
        when loaded instead of failing later in decoding."""
        cfg, params, sv, tv = tiny_model(hidden=8)
        argv = tiny_translate_args(tmp_path, replace(cfg, hidden=16), params, sv, tv)
        assert_fails_naming(argv, tmp_path / "model.ckpt", capsys)

    @pytest.mark.parametrize("name, dtype", [("src_emb", np.int64),
                                             ("att_W", np.int64),
                                             ("att_W", np.float32)])
    def test_tensor_dtypes_not_one_float(self, tmp_path, capsys, name, dtype):
        """An integer tensor, or a float32 tensor among float64 ones, is
        rejected when loaded; the message names the file and the tensor."""
        cfg, params, sv, tv = tiny_model()
        params[name] = params[name].astype(dtype)
        argv = tiny_translate_args(tmp_path, cfg, params, sv, tv)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "model.ckpt") in err and "Traceback" not in err
        assert f"{name!r} has dtype {np.dtype(dtype)}" in err

    def test_garbage_mapping(self, tmp_path, capsys):
        out = self.artifacts(tmp_path)
        mapping = tmp_path / "mapping.txt"
        mapping.write_text("dim 8 objective 0.5\nnot numbers\n")
        assert_fails_naming(
            ["init-emb", "--strategy", "VecMap", "--vocab", str(out / "vocab.src"),
             "--ev", str(out / "ev.npz"), "--subword-model", str(out / "subword.model"),
             "--mapping", str(mapping), "--dim", "8",
             "--out", str(tmp_path / "init.npz")], mapping, capsys)


class TestTranslate:
    @pytest.mark.parametrize("side", ["src", "tgt"])
    def test_vocabulary_larger_than_checkpoint_is_one(self, tmp_path, capsys, side):
        """A 44-type vocabulary against a checkpoint with 20 embedding rows."""
        cfg, params, sv, tv = tiny_model()
        argv = tiny_translate_args(tmp_path, cfg, params, sv, tv)
        assert len(params[f"{side}_emb"]) == 20
        big = vocab_of([f"x{i}" for i in range(40)])
        assert len(big) == 44
        vocab_path = tmp_path / f"vocab.{side}"
        big.save(vocab_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(vocab_path) in err and "Traceback" not in err
        assert not (tmp_path / "hyp").exists()

    @pytest.mark.parametrize("beam", ["-3", "0"])
    def test_beam_below_one_is_one(self, tmp_path, capsys, beam):
        argv = tiny_translate_args(tmp_path, *tiny_model())
        assert main(argv + ["--beam", beam]) == 1
        err = capsys.readouterr().err
        assert "beam must be >= 1" in err and "Traceback" not in err
        assert not (tmp_path / "hyp").exists()


class TestMissingOutputDirectory:
    """A write into a directory that does not exist exits 1 naming `--out`."""

    def test_init_emb(self, tmp_path, capsys):
        vocab_of(["toza", "meka"]).save(tmp_path / "vocab.src")
        out = tmp_path / "missing" / "init.npz"
        assert_fails_naming(["init-emb", "--strategy", "Random", "--dim", "4",
                             "--vocab", tmp_path / "vocab.src", "--out", out],
                            out, capsys)

    def test_translate(self, tmp_path, capsys):
        argv = tiny_translate_args(tmp_path, *tiny_model())
        out = tmp_path / "missing" / "hyp"
        assert_fails_naming(argv[:-1] + [out], out, capsys)


class TestStagewise:
    def test_stages_reproduce_run_all(self, tmp_path, capsys):
        """stats, split, train-subword, init-emb, finetune, translate and
        evaluate, each run on the files of the stage before it, give
        run-all's own files and reports byte for byte."""
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path))
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out),
                     "--strategies", "Random,XhSub"]) == 0
        capsys.readouterr()
        splits = tmp_path / "splits"
        for name, stem in (("bible", "b"), ("corpus2", "c")):
            src, tgt = tmp_path / f"{stem}.src", tmp_path / f"{stem}.tgt"
            assert cli("stats", "--src", src, "--tgt", tgt) == 0
            assert capsys.readouterr().out == (out / f"{name}.stats.txt").read_text()
            assert cli("split", "--src", src, "--tgt", tgt, "--name", name,
                       "--out", splits, "--config", cfg_path) == 0
            capsys.readouterr()
            for part in ("train", "dev", "test"):
                for side in ("src", "tgt"):
                    f = f"{name}.{part}.{side}"
                    assert (splits / f).read_bytes() == (out / f).read_bytes(), f
        model = tmp_path / "subword.model"
        assert cli("train-subword", "--text", splits / "bible.train.src",
                   splits / "corpus2.train.src", "--config", cfg_path, "--out", model) == 0
        assert model.read_bytes() == (out / "subword.model").read_bytes()
        init = tmp_path / "init.npz"
        assert cli("init-emb", "--strategy", "XhSub", "--vocab", out / "vocab.src",
                   "--subword-model", model, "--dim", "8", "--seed", "0",
                   "--out", init) == 0
        assert init.read_bytes() == (out / "XhSub" / "init.npz").read_bytes()

        vocabs = ["--src-vocab", out / "vocab.src", "--tgt-vocab", out / "vocab.tgt"]
        ckpt = tmp_path / "corpus2.ckpt"
        assert cli("finetune", "--checkpoint", out / "Random" / "bible.ckpt",
                   "--data", splits, "--name", "corpus2", *vocabs, "--out", ckpt,
                   "--config", cfg_path) == 0
        assert ckpt.read_bytes() == (out / "Random" / "corpus2.ckpt").read_bytes()
        hyp = tmp_path / "corpus2.test.hyp"
        assert cli("translate", "--checkpoint", ckpt, "--src", splits / "corpus2.test.src",
                   *vocabs, "--out", hyp) == 0
        assert hyp.read_bytes() == (out / "Random" / "corpus2.test.hyp").read_bytes()
        capsys.readouterr()
        assert cli("evaluate", "--hyp", hyp, "--ref", splits / "corpus2.test.tgt") == 0
        assert (capsys.readouterr().out
                == (out / "Random" / "corpus2.bleu.tsv").read_text())

    def test_matrix_stages_reproduce_run_all(self, tmp_path, capsys):
        """build-ev, map, init-emb and train-mt, each run on the files of the
        stage before it, give run-all's E_V and projection report, mapping,
        init tables, provenance files and checkpoints byte for byte."""
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path))
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out),
                     "--strategies", "Random,VecMap,XhMeta"]) == 0
        ev = tmp_path / "ev.npz"
        capsys.readouterr()
        assert cli("build-ev", "--lexicon", tmp_path / "lex.tsv",
                   "--hr-embeddings", tmp_path / "hr.vec", "--out", ev) == 0
        assert capsys.readouterr().out == (out / "ev.report.txt").read_text()
        assert ev.read_bytes() == (out / "ev.npz").read_bytes()
        mapping = tmp_path / "mapping.npz"
        assert main(["map", "--ev", str(ev), "--em", str(out / "em.npz"),
                     "--out", str(mapping)]) == 0
        assert mapping.read_bytes() == (out / "mapping.npz").read_bytes()
        for strat, extra in (("VecMap", ["--mapping", str(mapping)]), ("XhMeta", [])):
            sdir = tmp_path / strat
            sdir.mkdir()
            assert main(["init-emb", "--strategy", strat, "--vocab", str(out / "vocab.src"),
                         "--ev", str(ev),
                         "--subword-model", str(out / "subword.model"), "--dim", "8",
                         "--out", str(sdir / "init.npz")] + extra) == 0
            for name in ("init.npz", "init.provenance.tsv"):
                assert ((sdir / name).read_bytes()
                        == (out / strat / name).read_bytes()), (strat, name)
            assert main(["train-mt", "--data", str(out), "--name", "bible",
                         "--src-vocab", str(out / "vocab.src"),
                         "--tgt-vocab", str(out / "vocab.tgt"),
                         "--init", str(sdir / "init.npz"),
                         "--out", str(sdir / "bible.ckpt"),
                         "--config", str(cfg_path)]) == 0
            assert ((sdir / "bible.ckpt").read_bytes()
                    == (out / strat / "bible.ckpt").read_bytes()), strat
