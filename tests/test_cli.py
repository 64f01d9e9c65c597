from dataclasses import replace

import numpy as np
import pytest

from xhembed.cli import (CONFIG_KEYS, ValidationError, load_config, main,
                         run_pipeline)
from xhembed.combine import InitStrategy
from xhembed.nmt import load_checkpoint, save_checkpoint

from conftest import tiny_model, vocab_of


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


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
                     "--out", str(tmp_path / "ev.vec")]) == 0
        assert "covered\t1" in capsys.readouterr().out
        assert (tmp_path / "ev.vec").read_text().splitlines()[1].startswith("indoda")


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
                   "--deterministic", "--strategies", "Random,XhMeta"])
        assert rc == 0
        lines = (out / "results.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "strategy", "bible_corpus_bleu", "bible_mean_sentence_bleu",
            "corpus2_corpus_bleu", "corpus2_mean_sentence_bleu"]
        assert [l.split("\t")[0] for l in lines[1:]] == ["Random", "XhMeta"]
        for name in ("vocab.src", "vocab.tgt", "subword.model", "em.vec",
                     "ev.vec", "manifest.txt", "bible.stats.txt"):
            assert (out / name).exists(), name
        for sub in ("Random", "XhMeta"):
            assert (out / sub / "bible.ckpt").exists()
            assert (out / sub / "corpus2.test.hyp").exists()
            assert (out / sub / "init.provenance.tsv").exists()

    def test_xhsub_only_needs_no_lexicon(self, tmp_path):
        text = micro_dataset(tmp_path)
        text = "\n".join(l for l in text.splitlines()
                         if not l.startswith("data.lexicon")) + "\n"
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "out2"
        rc = main(["run-all", "--config", str(cfg_path), "--out", str(out),
                   "--strategies", "XhSub"])
        assert rc == 0
        assert not (out / "ev.vec").exists()


class TestMalformedArtifacts:
    """A damaged checkpoint, subword model or mapping exits 1 naming the file."""

    def artifacts(self, tmp_path):
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path))
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out),
                     "--deterministic", "--strategies", "Random,VecMap"]) == 0
        return out

    def assert_fails_naming(self, argv, path, capsys):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_truncated_files(self, tmp_path, capsys):
        out = self.artifacts(tmp_path)
        ckpt = out / "Random" / "corpus2.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:ckpt.stat().st_size // 2])
        self.assert_fails_naming(
            ["translate", "--checkpoint", str(ckpt),
             "--src", str(out / "corpus2.test.src"),
             "--src-vocab", str(out / "vocab.src"),
             "--tgt-vocab", str(out / "vocab.tgt"),
             "--out", str(tmp_path / "hyp")], ckpt, capsys)

        model = out / "subword.model"
        model.write_bytes(model.read_bytes()[:-100])
        self.assert_fails_naming(
            ["init-emb", "--strategy", "XhSub", "--vocab", str(out / "vocab.src"),
             "--subword-model", str(model), "--dim", "8",
             "--out", str(tmp_path / "init.vec")], model, capsys)

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
            self.assert_fails_naming(
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
        self.assert_fails_naming(argv, tmp_path / "model.ckpt", capsys)

    def test_garbage_mapping(self, tmp_path, capsys):
        out = self.artifacts(tmp_path)
        mapping = tmp_path / "mapping.txt"
        mapping.write_text("dim 8 objective 0.5\nnot numbers\n")
        self.assert_fails_naming(
            ["init-emb", "--strategy", "VecMap", "--vocab", str(out / "vocab.src"),
             "--ev", str(out / "ev.vec"), "--subword-model", str(out / "subword.model"),
             "--mapping", str(mapping), "--dim", "8",
             "--out", str(tmp_path / "init.vec")], mapping, capsys)


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


class TestStagewise:
    def test_stages_reproduce_run_all(self, tmp_path, capsys):
        """Decoding a run-all checkpoint and rebuilding an init from the saved
        subword model give run-all's own files byte for byte."""
        cfg_path = write_cfg(tmp_path, micro_dataset(tmp_path))
        out = tmp_path / "out"
        assert main(["run-all", "--config", str(cfg_path), "--out", str(out),
                     "--deterministic", "--strategies", "Random,XhSub"]) == 0
        hyp = tmp_path / "corpus2.test.hyp"
        assert main(["translate", "--checkpoint", str(out / "Random" / "corpus2.ckpt"),
                     "--src", str(out / "corpus2.test.src"),
                     "--src-vocab", str(out / "vocab.src"),
                     "--tgt-vocab", str(out / "vocab.tgt"), "--out", str(hyp)]) == 0
        assert hyp.read_bytes() == (out / "Random" / "corpus2.test.hyp").read_bytes()
        init = tmp_path / "init.vec"
        assert main(["init-emb", "--strategy", "XhSub", "--vocab", str(out / "vocab.src"),
                     "--subword-model", str(out / "subword.model"), "--dim", "8",
                     "--seed", "0", "--out", str(init)]) == 0
        assert init.read_bytes() == (out / "XhSub" / "init.vec").read_bytes()
