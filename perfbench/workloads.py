"""The three workloads.  Each one builds its inputs from a seed once, then
runs one repetition per `run(out_dir)` call through xhembed's public API and
checks what the repetition wrote.  `reports` names the pipeline metrics the
workload exercises; the report line shows those.

xhembed functions are reached through their modules (never imported by
name), so the probes in probes.py see every call made here.
"""

import importlib
import math
from pathlib import Path

import numpy as np

from inputs import (PAPER_EMBED, PAPER_MT, TOY, PaperEmbedInputs,
                    PaperMTInputs, ToyInputs)

cli = importlib.import_module("xhembed.cli")
combine = importlib.import_module("xhembed.combine")
corpus = importlib.import_module("xhembed.corpus")
embedstore = importlib.import_module("xhembed.embedstore")
lexproject = importlib.import_module("xhembed.lexproject")
metrics = importlib.import_module("xhembed.metrics")
subword = importlib.import_module("xhembed.subword")
xmap = importlib.import_module("xhembed.xmap")
nmt_model = importlib.import_module("xhembed.nmt.model")
nmt_train = importlib.import_module("xhembed.nmt.train")
nmt_data = importlib.import_module("xhembed.nmt.data")
nmt_decode = importlib.import_module("xhembed.nmt.decode")
nmt_ckpt = importlib.import_module("xhembed.nmt.checkpoint")

# the make-toy config (toydata.toy_config_text), fixed here
TOY_CONFIG = {
    "subword.dim": 16, "subword.epochs": 2, "subword.buckets": 500,
    "subword.subsample": 0, "nmt.emb_dim": 16, "nmt.hidden": 16,
    "nmt.dropout": 0.1, "nmt.max_decode_len": 16, "train.lr": 0.003,
    "train.batch": 32, "train.epochs": 16, "finetune.epochs": 3,
}

# paper shape: emb 300, hidden 128, 2+2 layers, dropout 0.3, beam 5, len 50
PAPER_NMT = dict(enc_layers=2, dec_layers=2, hidden=128, emb_dim=300,
                 dropout=0.3, max_decode_len=50, beam=5, seed=0)
PAPER_TRAIN = dict(lr=1e-3, batch_size=64, clip=5.0, epochs=1, patience=5, seed=0)
PAPER_FINETUNE = dict(PAPER_TRAIN, lr=1e-4)
PAPER_SGNS = dict(dim=PAPER_EMBED["dim"], window=5, negatives=5, epochs=1,
                  lr=0.05, subsample=1e-4, min_count=1, minn=3, maxn=6,
                  buckets=5000, seed=1, workers=1)


def _finite(xs):
    return all(math.isfinite(x) for x in xs)


class ToyGrid:
    """`cli.run_pipeline` over all five strategies at the make-toy shape."""

    name = "toy-grid"
    sizes = dict(TOY, **TOY_CONFIG)
    reports = ("train_tgt_tokens_per_s", "decode_sents_per_s", "sgns_tokens_per_s",
               "map_s", "dev_ppl", "bleu_sent_mean", "map_objective", "sgns_loss")

    def __init__(self, seed, in_dir):
        self.inputs = ToyInputs(seed)
        paths = self.inputs.write(in_dir)
        self.config_path = Path(in_dir) / "toy.cfg"
        lines = [f"data.bible_src={paths['bible.src']}",
                 f"data.bible_tgt={paths['bible.tgt']}",
                 f"data.corpus2_src={paths['corpus2.src']}",
                 f"data.corpus2_tgt={paths['corpus2.tgt']}",
                 f"data.lexicon={paths['lexicon.tsv']}",
                 f"data.hr_embeddings={paths['hr.vec']}"]
        lines += [f"{k}={v}" for k, v in TOY_CONFIG.items()]
        self.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.first = None

    def run(self, out_dir):
        cfg = cli.load_config(self.config_path)
        path = cli.run_pipeline(cfg, out_dir, combine.STRATEGY_ORDER,
                                deterministic=True, log=lambda msg: None)
        return Path(path).read_bytes()

    def check(self, results):
        rows = [line.split("\t") for line in results.decode().splitlines()[1:]]
        order = [r[0] for r in rows] == [str(s) for s in combine.STRATEGY_ORDER]
        bleu = [float(x) for r in rows for x in r[1:]]
        if self.first is None:
            self.first = results
        return {"results_rows_in_strategy_order": order,
                "bleu_finite_in_0_100": _finite(bleu) and all(0 <= b <= 100 for b in bleu),
                "results_identical_across_reps": results == self.first}


class PaperMT:
    """build_model -> train -> save -> fine_tune -> save -> translate -> score,
    at paper shape on a bounded slice of a Bible-sized corpus."""

    name = "paper-mt"
    sizes = dict(PAPER_MT, **PAPER_NMT)
    reports = ("train_tgt_tokens_per_s", "decode_sents_per_s", "dev_ppl")

    def __init__(self, seed, in_dir):
        self.inputs = inp = PaperMTInputs(seed)
        self.src_vocab = corpus.Vocabulary(inp.src_counts)
        self.tgt_vocab = corpus.Vocabulary(inp.tgt_counts)
        self.sizes = dict(self.sizes, src_vocab=len(self.src_vocab),
                          tgt_vocab=len(self.tgt_vocab))
        self.cfg = nmt_model.Seq2SeqConfig(**PAPER_NMT)
        self.init = combine.build_initial_embeddings(
            combine.InitStrategy.RANDOM, self.src_vocab, dim=PAPER_NMT["emb_dim"],
            seed=PAPER_NMT["seed"])
        self.ids = {name: nmt_data.encode_pairs(pairs, self.src_vocab, self.tgt_vocab)
                    for name, pairs in inp.slices.items() if name != "test"}
        self.test = inp.slices["test"]
        self.first = None

    def run(self, out_dir):
        out, cfg, ids = Path(out_dir), self.cfg, self.ids
        params = nmt_model.build_model(cfg, self.init, self.tgt_vocab,
                                       source_vocab=self.src_vocab)
        params, hist = nmt_train.train(params, cfg, ids["train"], ids["dev"],
                                       nmt_train.TrainConfig(**PAPER_TRAIN))
        nmt_ckpt.save_checkpoint(out / "bible.ckpt", cfg, params, hist)
        params, hist2 = nmt_train.fine_tune(params, cfg, ids["ft"], ids["ft_dev"],
                                            nmt_train.TrainConfig(**PAPER_FINETUNE))
        nmt_ckpt.save_checkpoint(out / "corpus2.ckpt", cfg, params, hist2)
        hyp_path = out / "test.hyp"
        nmt_decode.translate(params, cfg, [s for s, _ in self.test], self.src_vocab,
                             self.tgt_vocab, hyp_path, beam=cfg.beam)
        hyp_text = hyp_path.read_text(encoding="utf-8")
        metrics.score_corpus([line.split() for line in hyp_text.splitlines()],
                             [t for _, t in self.test])
        return hist + hist2, hyp_text

    def check(self, result):
        hist, hyp_text = result
        if self.first is None:
            self.first = hyp_text
        return {"losses_and_dev_ppl_finite":
                    bool(hist) and _finite([r.train_loss for r in hist]
                                           + [r.dev_ppl for r in hist]),
                "one_hypothesis_per_test_sentence":
                    len(hyp_text.splitlines()) == len(self.test),
                "hypotheses_identical_across_reps": hyp_text == self.first}


class PaperEmbed:
    """train_skipgram -> save -> export + write -> read HR .vec ->
    read_lexicon + project -> fit_mapping, at dim 300; no NMT."""

    name = "paper-embed"
    sizes = dict(PAPER_EMBED, sgns=PAPER_SGNS)
    reports = ("sgns_tokens_per_s", "map_s", "map_objective", "sgns_loss")

    def __init__(self, seed, in_dir):
        self.inputs = PaperEmbedInputs(seed)
        self.hr_path, self.lex_path = self.inputs.write(in_dir)
        self.sizes = dict(self.sizes, tokens=self.inputs.tokens)
        self.first = None

    def run(self, out_dir):
        out = Path(out_dir)
        model, reports = subword.train_skipgram(
            self.inputs.sentences, subword.SkipgramConfig(**PAPER_SGNS))
        model.save(out / "subword.model")
        e_m = model.export_matrix(model.vocab.tokens())
        embedstore.write_embeddings(e_m, out / "em.vec")
        e_hr = embedstore.read_embeddings(self.hr_path)
        lex = lexproject.read_lexicon(self.lex_path)
        e_v, report = lexproject.build_projected_matrix(lex, e_hr)
        embedstore.write_embeddings(e_v, out / "ev.vec")
        mapping = xmap.fit_mapping(e_v, e_m)
        xmap.save_mapping(mapping, out / "mapping.txt")
        return reports, report.covered, mapping

    def check(self, result):
        reports, covered, mapping = result
        eye = np.eye(mapping.w_x.shape[0])
        ortho = all(np.abs(w.T @ w - eye).max() < 1e-8
                    for w in (mapping.w_x, mapping.w_z))
        if self.first is None:
            self.first = mapping.objective
        return {"mapping_orthogonal_1e-8": bool(ortho),
                "covered_matches_generator": covered == self.inputs.expected_covered,
                "sgns_loss_finite": _finite([r.mean_loss for r in reports]),
                "objective_identical_across_reps": mapping.objective == self.first}


WORKLOADS = {w.name: w for w in (ToyGrid, PaperMT, PaperEmbed)}
