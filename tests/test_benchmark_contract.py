"""What the benchmark under perfbench/ uses of the package: every function
it probes still exists, its fixed settings still build their configs, and
the fields its probes read of arguments and results are still there.  An API
change that breaks any of these fails here rather than in a traced benchmark
run."""

import importlib
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from xhembed.combine import STRATEGY_ORDER
from xhembed.embedstore import EmbeddingMatrix, read_embeddings
from xhembed.nmt.model import Seq2SeqConfig
from xhembed.nmt.train import TrainConfig
from xhembed.subword import SkipgramConfig
from xhembed.xmap import load_mapping

from conftest import micro_dataset, random_pairs, vocab_of

# reached through their modules, as the benchmark's workloads reach them, so
# that the probes bound on those modules see the calls
cli = importlib.import_module("xhembed.cli")
metrics = importlib.import_module("xhembed.metrics")
nmt_ckpt = importlib.import_module("xhembed.nmt.checkpoint")
nmt_data = importlib.import_module("xhembed.nmt.data")
nmt_decode = importlib.import_module("xhembed.nmt.decode")
nmt_model = importlib.import_module("xhembed.nmt.model")
nmt_train = importlib.import_module("xhembed.nmt.train")

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's `probes` and `workloads` modules, imported as its
    runner imports them, with perfbench/ on the path."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("probes"), importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_probe_target_resolves(perfbench):
    probes, _ = perfbench
    missing = []
    for mod_name, attr, _, _ in probes.PROBES:
        mod = importlib.import_module(mod_name)
        if "." in attr:     # a method, looked up as the tracer binds it
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and callable(cls.__dict__.get(meth))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing


def test_paper_settings_build_their_configs(perfbench):
    _, workloads = perfbench
    SkipgramConfig(**workloads.PAPER_SGNS)
    TrainConfig(**workloads.PAPER_TRAIN)
    TrainConfig(**workloads.PAPER_FINETUNE)
    Seq2SeqConfig(**workloads.PAPER_NMT)


def single_model_path(out):
    """build_model -> train -> save -> fine_tune -> save -> translate ->
    score, as the paper-mt workload runs it, with one more forward_loss and
    perplexity call; micro sizes."""
    rng = np.random.default_rng(0)
    sv = vocab_of([f"w{i}" for i in range(12)])
    tv = vocab_of([f"v{i}" for i in range(10)])
    cfg = Seq2SeqConfig(hidden=8, emb_dim=8, dropout=0.1, max_decode_len=6, beam=2)
    init = EmbeddingMatrix(sv.id_to_token, rng.uniform(-0.5, 0.5, (len(sv), 8)))
    pairs = random_pairs(sv, tv, 32, rng)
    ids = nmt_data.encode_pairs(pairs, sv, tv)
    hyper = TrainConfig(batch_size=8, epochs=2)
    params = nmt_model.build_model(cfg, init, tv, source_vocab=sv)
    params, hist = nmt_train.train(params, cfg, ids[:16], ids[16:24], hyper)
    nmt_ckpt.save_checkpoint(out / "bible.ckpt", cfg, params, hist)
    params, hist = nmt_train.fine_tune(params, cfg, ids[24:], ids[16:24], hyper)
    nmt_ckpt.save_checkpoint(out / "corpus2.ckpt", cfg, params, hist)
    nmt_model.forward_loss(params, cfg, nmt_data.make_batch(ids[:8]))
    nmt_train.perplexity(params, cfg, nmt_data.make_batches(ids[16:24], 8))
    nmt_decode.translate(params, cfg, [s for s, _ in pairs[:4]], sv, tv, out / "test.hyp")
    hyps = [line.split() for line in (out / "test.hyp").read_text().splitlines()]
    metrics.score_corpus(hyps, [t for _, t in pairs[:4]])


def test_probe_hooks_on_a_traced_micro_run(perfbench, tmp_path):
    """With every probe installed, kernels included, a micro run_pipeline
    and the single-model path run without a failed span; the return hooks,
    which read batch.tgt_ids and out_W's shape, each history record's
    dev_ppl, report.covered, mapping.objective and the nbytes of the
    Adam.step parameters, count what the run did; and the workload and
    per-layer metrics compute."""
    probes, _ = perfbench
    cfg_path = tmp_path / "micro.cfg"
    cfg_path.write_text(micro_dataset(tmp_path), encoding="utf-8")
    cfg, out = cli.load_config(cfg_path), tmp_path / "out"
    tracer = probes.Tracer()
    tracer.install(kernels=True)
    try:
        tracer.begin(0)
        start = time.perf_counter()
        cli.run_pipeline(cfg, out, STRATEGY_ORDER, log=lambda msg: None)
        single_model_path(tmp_path)
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert tracer.spans and not any(span[5] for span in tracer.spans)
    counters = tracer.counters
    assert counters["nmt.train.batches"] > 0 and counters["logits_bytes_max"] > 0
    assert counters["adam_bytes"] > 0 and counters["dev_ppl_n"] > 0
    assert counters["lexproject.covered"] == len(read_embeddings(out / "ev.npz"))
    workload = tracer.workload_metrics(0)
    assert workload["map_objective"] == load_mapping(out / "mapping.npz").objective
    assert np.isfinite(list(workload.values())).all()
    layers = tracer.layer_metrics(0, wall_s)
    assert layers["nmt.kernel.adam_bytes_per_step"] > 0
    assert layers["nmt.decode.encode_calls"] > 0
