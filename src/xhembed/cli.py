"""Command-line front end: individual pipeline stages plus a `run-all`
orchestrator that reproduces the strategy-grid experiment from one config."""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, metrics
from .combine import (STRATEGY_INPUTS, STRATEGY_ORDER, InitStrategy,
                      build_initial_embeddings)
from .corpus import (FieldError, SplitSpec, Vocabulary, build_vocabulary,
                     corpus_stats, load_parallel_corpus, read_aligned_lines,
                     read_lines, split_corpus, write_lines, write_splits)
from .embedstore import nearest_neighbors, read_embeddings, write_embeddings
from .lexproject import build_projected_matrix, read_lexicon
from .nmt import (Seq2SeqConfig, TrainConfig, build_model, load_checkpoint,
                  save_checkpoint, train_models, translate)
from .nmt.data import encode_pairs
from .subword import SkipgramConfig, SubwordModel, train_skipgram
from .toydata import toy_config_text, write_toy_dataset
from .xmap import fit_mapping, load_mapping, save_mapping

EXIT_VALIDATION = 1
EXIT_STAGE = 2


class ValidationError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


def _section(cls, section, skip=(), **keys):
    """`cls` and the key that sets each of its fields but `skip`: the field
    under `section` unless `keys` names another."""
    return cls, {f.name: keys.get(f.name, f"{section}.{f.name}")
                 for f in fields(cls) if f.name not in skip}


# each section's config class and the key of each field it reads
SECTIONS = {
    # SkipgramConfig.workers is no key: it accepts only 1 and goes once the
    # benchmark's SGNS workload stops passing it (see CHANGES.md)
    "subword": _section(SkipgramConfig, "subword", skip=("workers",)),
    "nmt": _section(Seq2SeqConfig, "nmt"),
    "train": _section(TrainConfig, "train", batch_size="train.batch"),
    # fine-tuning shares train's batch, clip and seed
    "finetune": _section(TrainConfig, "finetune", batch_size="train.batch",
                         clip="train.clip", seed="train.seed"),
}

# key -> (type, default); None default means required when used.  A section
# key takes its field's type and default; only fine-tuning's own lr and
# epochs state theirs.
CONFIG_KEYS = {
    "data.bible_src": (str, None),
    "data.bible_tgt": (str, None),
    "data.corpus2_src": (str, None),
    "data.corpus2_tgt": (str, None),
    "data.lexicon": (str, None),
    "data.hr_embeddings": (str, None),
    "split.train": (float, 0.7),
    "split.dev": (float, 0.2),
    "split.test": (float, 0.1),
    "split.seed": (int, 13),
    "vocab.min_count": (int, 1),
    **{keys[f.name]: (f.type, f.default)
       for cls, keys in SECTIONS.values() for f in fields(cls) if f.name in keys},
    "finetune.lr": (float, 1e-4),
    "finetune.epochs": (int, 5),
    "run.strategies": (str, "Random,VecMap,XhSub,XhPre,XhMeta"),
    "run.out": (str, "runs/out"),
}


def load_config(path=None):
    """Every key at its default, overridden by the file at `path` if given."""
    cfg = {k: d for k, (_, d) in CONFIG_KEYS.items()}
    if path is None:
        return cfg
    for ln, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{ln}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValidationError(f"{path}:{ln}: unknown config key {key!r}")
        typ = CONFIG_KEYS[key][0]
        try:
            cfg[key] = typ(val.strip())
        except ValueError as e:
            raise ValidationError(f"{path}:{ln}: bad value for {key}: {e}") from e
    return cfg


def _require(cfg, *keys):
    for key in keys:
        if cfg[key] is None:
            raise ValidationError(f"config key {key!r} is required but unset")
        path = Path(cfg[key])
        if key.startswith("data.") and not path.is_file():
            problem = "is not a file" if path.exists() else "does not exist"
            raise ValidationError(f"config key {key!r}: path {cfg[key]!r} {problem}")


def _split_spec(cfg):
    try:
        return SplitSpec((cfg["split.train"], cfg["split.dev"], cfg["split.test"]),
                         cfg["split.seed"])
    except FieldError as e:
        raise ValidationError(f"split.train, split.dev and split.test {e.problem}") from e


def _section_config(cfg, section):
    """The config object of `section` from its keys; a value out of range is
    a ValidationError naming the key that set it."""
    cls, keys = SECTIONS[section]
    try:
        return cls(**{name: cfg[key] for name, key in keys.items()})
    except FieldError as e:
        raise ValidationError(f"{keys.get(e.field, e.field)} {e.problem}") from e


def _read_train_dev(args):
    """The train and dev token pairs of the split `--name` under `--data`."""
    base = Path(args.data) / args.name
    pairs = []
    for part in ("train", "dev"):
        src, tgt = read_aligned_lines(f"{base}.{part}.src", f"{base}.{part}.tgt")
        pairs.append([(s.split(), t.split()) for s, t in zip(src, tgt)])
    return pairs


# --------------------------------------------------------------------------
# stages: each takes loaded inputs, writes the stage's files and returns what
# its caller prints or logs; its subcommand and `run_pipeline` both call it

def stage_split(corp, spec, out_dir):
    parts = split_corpus(corp, spec)
    write_splits(parts, out_dir, corp.name)
    return parts


def stage_train_subword(sents, sg_cfg, out):
    model, reports = train_skipgram(sents, sg_cfg)
    model.save(out)
    return model, reports


def stage_build_ev(lex, e_hr, out):
    e_v, report = build_projected_matrix(lex, e_hr)
    write_embeddings(e_v, out)
    return e_v, report


def stage_map(e_v, e_m, out):
    mapping = fit_mapping(e_v, e_m)
    save_mapping(mapping, out)
    return mapping


def stage_init_emb(strategy, vocab, e_v, e_m, mapping, dim, seed, out):
    """Build and write an init table; `init.npz` gets `init.provenance.tsv`."""
    init = build_initial_embeddings(strategy, vocab, e_v, e_m, mapping, dim, seed)
    write_embeddings(init.matrix, out)
    init.write_provenance(Path(out).with_suffix(".provenance.tsv"))
    return init


def stage_train_mt(models, nmt_cfg, train_dev, src_vocab, tgt_vocab, hyper, outs):
    """Train (or, at the fine-tuning `hyper`, fine-tune) the parameter dicts
    `models` in lockstep on the train and dev token pairs; each model's
    checkpoint goes to its entry of `outs`.  Returns (params, history) per
    model."""
    train_pairs, dev_pairs = (encode_pairs(p, src_vocab, tgt_vocab) for p in train_dev)
    results = train_models(models, nmt_cfg, train_pairs, dev_pairs, hyper)
    for out, (params, hist) in zip(outs, results):
        save_checkpoint(out, nmt_cfg, params, hist)
    return results


def run_pipeline(cfg, out_dir, strategies, deterministic=True, log=print):
    """Full experiment: stats, splits, subword training, projection, mapping,
    then MT training and fine-tuning of every strategy's model in lockstep,
    each followed by per-strategy translation and BLEU evaluation.  Emits
    results.tsv in the fixed strategy-grid row order and a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategies = [s for s in STRATEGY_ORDER if s in strategies]
    needs = {name for s in strategies for name in STRATEGY_INPUTS[s]}
    _require(cfg, "data.bible_src", "data.bible_tgt", "data.corpus2_src",
             "data.corpus2_tgt")
    if "e_v" in needs:
        _require(cfg, "data.lexicon", "data.hr_embeddings")
    # every config is built here, so a bad value fails before any stage runs
    split_spec = _split_spec(cfg)
    sg_cfg = _section_config(cfg, "subword")
    nmt_cfg = _section_config(cfg, "nmt")
    hypers = {section: _section_config(cfg, section) for section in ("train", "finetune")}
    if cfg["vocab.min_count"] < 1:
        raise ValidationError(
            f"vocab.min_count must be >= 1, got {cfg['vocab.min_count']}")
    if "e_m" in needs and nmt_cfg.emb_dim < sg_cfg.dim:
        raise ValidationError(f"nmt.emb_dim {nmt_cfg.emb_dim} is narrower than "
                              f"subword.dim {sg_cfg.dim}, whose vectors it must hold")
    # every outside input is read whole here, so a malformed one fails,
    # naming its file, before any stage runs
    corpora = {name: load_parallel_corpus(cfg[f"data.{name}_src"],
                                          cfg[f"data.{name}_tgt"], name)
               for name in ("bible", "corpus2")}
    if "e_v" in needs:
        lex = read_lexicon(cfg["data.lexicon"])
        hr_path = cfg["data.hr_embeddings"]
        e_hr = read_embeddings(hr_path)
        if nmt_cfg.emb_dim < e_hr.dim:
            raise ValidationError(
                f"nmt.emb_dim {nmt_cfg.emb_dim} is narrower than the {e_hr.dim}-d "
                f"vectors of data.hr_embeddings {hr_path!r}, which it must hold")
        if "mapping" in needs and e_hr.dim != sg_cfg.dim:
            raise ValidationError(
                f"subword.dim {sg_cfg.dim} differs from the {e_hr.dim}-d vectors of "
                f"data.hr_embeddings {hr_path!r}: the mapping needs one dim for both")
    try:
        stage = "stats+split"
        splits = {}
        for name, corp in corpora.items():
            write_lines(out / f"{name}.stats.txt", _stats_lines(corpus_stats(corp)))
            write_lines(out / f"{name}.load.txt", corp.report.lines())
            parts = splits[name] = stage_split(corp, split_spec, out)
            log(f"[{name}] {len(corp)} pairs -> "
                f"{len(parts[0])}/{len(parts[1])}/{len(parts[2])}")

        stage = "vocab"
        src_vocab = build_vocabulary(splits["bible"][0].side("src"),
                                     cfg["vocab.min_count"])
        tgt_vocab = build_vocabulary(splits["bible"][0].side("tgt"),
                                     cfg["vocab.min_count"])
        src_vocab.save(out / "vocab.src")
        tgt_vocab.save(out / "vocab.tgt")

        stage = "train-subword"
        model, reports = stage_train_subword(
            splits["bible"][0].side("src") + splits["corpus2"][0].side("src"),
            sg_cfg, out / "subword.model")
        write_lines(out / "subword.report.txt", (str(r) for r in reports))
        e_m = model.export_matrix(src_vocab.tokens())
        write_embeddings(e_m, out / "em.npz")
        log(f"[subword] trained dim={model.dim} over {len(model.vocab)} words")

        e_v = mapping = None
        if "e_v" in needs:
            stage = "build-ev"
            e_v, report = stage_build_ev(lex, e_hr, out / "ev.npz")
            del e_hr  # not held through NMT training
            write_lines(out / "ev.report.txt", report.lines())
            log(f"[build-ev] covered {report.covered}/{len(lex)} entries")

        if "mapping" in needs:
            stage = "map"
            mapping = stage_map(e_v, e_m, out / "mapping.npz")
            log(f"[map] objective {mapping.objective:.4f}")

        stage = "mt"
        sdirs = [out / str(strat) for strat in strategies]
        models = []
        for strat, sdir in zip(strategies, sdirs):
            sdir.mkdir(exist_ok=True)
            init = stage_init_emb(strat, src_vocab, e_v, e_m, mapping,
                                  nmt_cfg.emb_dim, nmt_cfg.seed, sdir / "init.npz")
            models.append(build_model(nmt_cfg, init, tgt_vocab, source_vocab=src_vocab))
        results = [str(strat) for strat in strategies]
        for name, section in (("bible", "train"), ("corpus2", "finetune")):
            parts = splits[name]
            trained = stage_train_mt(
                models, nmt_cfg, [parts[0].pairs, parts[1].pairs], src_vocab,
                tgt_vocab, hypers[section], [d / f"{name}.ckpt" for d in sdirs])
            models = [params for params, _ in trained]
            for i, params in enumerate(models):
                strat, hyp = strategies[i], sdirs[i] / f"{name}.test.hyp"
                translate(params, nmt_cfg, parts[2].side("src"), src_vocab, tgt_vocab, hyp)
                report = metrics.evaluate_translations(hyp, out / f"{name}.test.tgt")
                write_lines(sdirs[i] / f"{name}.bleu.tsv", report.lines())
                results[i] += f"\t{report.corpus:.4f}\t{report.mean_sentence:.4f}"
                log(f"[{strat}/{name}] corpus BLEU {report.corpus:.2f} "
                    f"mean sentence BLEU {report.mean_sentence:.2f}")

        stage = "report"
        write_lines(out / "results.tsv", [
            "strategy\tbible_corpus_bleu\tbible_mean_sentence_bleu\t"
            "corpus2_corpus_bleu\tcorpus2_mean_sentence_bleu", *results])
        write_lines(out / "manifest.txt", [
            f"xhembed_version={__version__}", f"deterministic={deterministic}",
            "strategies=" + ",".join(str(s) for s in strategies),
            *(f"{k}={cfg[k]}" for k in sorted(cfg))])
        log(f"[done] results at {out / 'results.tsv'}")
        return out / "results.tsv"
    except Exception as e:
        raise StageError(stage, e) from e


def _stats_lines(stats):
    lines = [f"sentences\t{stats.sentences}"]
    for side, st in (("src", stats.src), ("tgt", stats.tgt)):
        lines.append(f"{side}.mean_len\t{st.mean_len:.4f}")
        lines.append(f"{side}.std_len\t{st.std_len:.4f}")
        lines.append(f"{side}.total_tokens\t{st.total_tokens}")
    return lines


# --------------------------------------------------------------------------
# subcommands

def _cmd_make_toy(args):
    paths = write_toy_dataset(args.out)
    write_lines(Path(args.out) / "toy.cfg",
                toy_config_text(paths, Path(args.out) / "run").splitlines())
    print(f"toy dataset and config written under {args.out}")


def _cmd_stats(args):
    corp = load_parallel_corpus(args.src, args.tgt)
    print(*_stats_lines(corpus_stats(corp)), sep="\n")


def _cmd_split(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["split.seed"] = args.seed
    corp = load_parallel_corpus(args.src, args.tgt, args.name)
    parts = stage_split(corp, _split_spec(cfg), args.out)
    print(f"split {len(corp)} -> {len(parts[0])}/{len(parts[1])}/{len(parts[2])}")


def _cmd_train_subword(args):
    cfg = load_config(args.config)
    sents = []
    for path in args.text:
        sents.extend(line.split() for line in read_lines(path) if line)
    _, reports = stage_train_subword(sents, _section_config(cfg, "subword"), args.out)
    for r in reports:
        print(r)


def _cmd_build_ev(args):
    _, report = stage_build_ev(read_lexicon(args.lexicon),
                               read_embeddings(args.hr_embeddings), args.out)
    print(*report.lines(), sep="\n")


def _cmd_map(args):
    mapping = stage_map(read_embeddings(args.ev), read_embeddings(args.em), args.out)
    print(f"mapping objective {mapping.objective:.6f}")


def _cmd_init_emb(args):
    strat = InitStrategy.parse(args.strategy)
    vocab = Vocabulary.load(args.vocab)
    e_v = read_embeddings(args.ev) if args.ev else None
    e_m = (SubwordModel.load(args.subword_model).export_matrix(vocab.tokens())
           if args.subword_model else None)
    mapping = load_mapping(args.mapping) if args.mapping else None
    if mapping is not None and e_v is not None and e_m is not None:
        dim = mapping.w_x.shape[0]
        if (e_v.dim, e_m.dim) != (dim, dim):
            raise ValidationError(
                f"{args.mapping}: mapping dim {dim} does not match E_V dim "
                f"{e_v.dim} ({args.ev}) and E_M dim {e_m.dim} ({args.subword_model})")
    stage_init_emb(strat, vocab, e_v, e_m, mapping, args.dim, args.seed, args.out)


def _checkpoint_vocabularies(args, params):
    """`--src-vocab` and `--tgt-vocab`, each with one type per row of the
    checkpoint's embedding table on its side."""
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)
    # the loaded tensors agree on the sizes: out_W has one column per tgt_emb row
    for path, vocab, table in ((args.src_vocab, src_vocab, "src_emb"),
                               (args.tgt_vocab, tgt_vocab, "tgt_emb")):
        if len(vocab) != len(params[table]):
            raise ValidationError(
                f"{path}: {len(vocab)} types, but {table} of checkpoint "
                f"{args.checkpoint} has {len(params[table])} rows")
    return src_vocab, tgt_vocab


def _train_one(args, cfg, nmt_cfg, params, src_vocab, tgt_vocab, section):
    """Train one model at the `section` hyperparameters and print its history."""
    [(_, hist)] = stage_train_mt([params], nmt_cfg, _read_train_dev(args), src_vocab,
                                 tgt_vocab, _section_config(cfg, section), [args.out])
    for rec in hist:
        print(f"epoch {rec.epoch}\tloss {rec.train_loss:.4f}\tdev_ppl {rec.dev_ppl:.4f}")


def _cmd_train_mt(args):
    cfg = load_config(args.config)
    nmt_cfg = _section_config(cfg, "nmt")
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)
    init = read_embeddings(args.init)
    try:
        params = build_model(nmt_cfg, init, tgt_vocab, source_vocab=src_vocab)
    except ValueError as e:
        raise ValidationError(
            f"{args.init} (source vocabulary {args.src_vocab}): {e}") from e
    _train_one(args, cfg, nmt_cfg, params, src_vocab, tgt_vocab, "train")


def _cmd_finetune(args):
    cfg = load_config(args.config)
    nmt_cfg, params, _ = load_checkpoint(args.checkpoint)
    src_vocab, tgt_vocab = _checkpoint_vocabularies(args, params)
    _train_one(args, cfg, nmt_cfg, params, src_vocab, tgt_vocab, "finetune")


def _cmd_translate(args):
    nmt_cfg, params, _ = load_checkpoint(args.checkpoint)
    src_vocab, tgt_vocab = _checkpoint_vocabularies(args, params)
    sents = [line.split() for line in read_lines(args.src)]
    translate(params, nmt_cfg, sents, src_vocab, tgt_vocab, args.out,
              beam=args.beam)
    print(f"wrote {len(sents)} hypotheses to {args.out}")


def _cmd_evaluate(args):
    report = metrics.evaluate_translations(args.hyp, args.ref)
    print(*report.lines(), sep="\n")


def _cmd_neighbors(args):
    mat = read_embeddings(args.embeddings)
    if args.word not in mat:
        raise ValidationError(f"{args.word!r} not in {args.embeddings}")
    for tok, cos in nearest_neighbors(mat, mat.get(args.word), args.k):
        print(f"{tok}\t{cos:.4f}")


def _cmd_run_all(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["split.seed"] = cfg["subword.seed"] = args.seed
        cfg["nmt.seed"] = cfg["train.seed"] = args.seed
    strategies = [InitStrategy.parse(s) for s in
                  (args.strategies or cfg["run.strategies"]).split(",")]
    out = args.out or cfg["run.out"]
    run_pipeline(cfg, out, strategies)


def build_parser():
    p = argparse.ArgumentParser(prog="xhembed")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("make-toy", help="write the synthetic demo dataset")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_make_toy)

    sp = sub.add_parser("stats", help="corpus statistics")
    sp.add_argument("--src", required=True)
    sp.add_argument("--tgt", required=True)
    sp.set_defaults(func=_cmd_stats)

    sp = sub.add_parser("split", help="deterministic train/dev/test split")
    sp.add_argument("--src", required=True)
    sp.add_argument("--tgt", required=True)
    sp.add_argument("--name", default="corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=_cmd_split)

    sp = sub.add_parser("train-subword", help="train subword embeddings")
    sp.add_argument("--text", nargs="+", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.set_defaults(func=_cmd_train_subword)

    sp = sub.add_parser("build-ev", help="project lexicon into HR space")
    sp.add_argument("--lexicon", required=True)
    sp.add_argument("--hr-embeddings", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_build_ev)

    sp = sub.add_parser("map", help="fit cross-space orthogonal mapping")
    sp.add_argument("--ev", required=True)
    sp.add_argument("--em", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_map)

    sp = sub.add_parser("init-emb", help="build initial embeddings for a strategy")
    sp.add_argument("--strategy", required=True)
    sp.add_argument("--vocab", required=True)
    sp.add_argument("--ev")
    sp.add_argument("--subword-model")
    sp.add_argument("--mapping")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_init_emb)

    sp = sub.add_parser("train-mt", help="train the seq2seq model")
    sp.add_argument("--data", required=True, help="directory with split files")
    sp.add_argument("--name", default="corpus")
    sp.add_argument("--src-vocab", required=True)
    sp.add_argument("--tgt-vocab", required=True)
    sp.add_argument("--init", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.set_defaults(func=_cmd_train_mt)

    sp = sub.add_parser("finetune", help="fine-tune a checkpoint on new data")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--name", default="corpus")
    sp.add_argument("--src-vocab", required=True)
    sp.add_argument("--tgt-vocab", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--config")
    sp.set_defaults(func=_cmd_finetune)

    sp = sub.add_parser("translate", help="decode a source file")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--src", required=True)
    sp.add_argument("--src-vocab", required=True)
    sp.add_argument("--tgt-vocab", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--beam", type=int)
    sp.set_defaults(func=_cmd_translate)

    sp = sub.add_parser("evaluate", help="BLEU-score a hypothesis file")
    sp.add_argument("--hyp", required=True)
    sp.add_argument("--ref", required=True)
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("neighbors", help="nearest neighbors of a word")
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("-k", type=int, default=10)
    sp.set_defaults(func=_cmd_neighbors)

    sp = sub.add_parser("run-all", help="full strategy-grid experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--strategies", help="comma-separated subset")
    sp.set_defaults(func=_cmd_run_all)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValidationError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
