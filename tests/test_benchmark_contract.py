"""What the benchmark under perfbench/ uses of the package: every function
it probes still exists, and its fixed settings still build their configs.
An API change that breaks either fails here rather than in a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from xhembed.nmt.model import Seq2SeqConfig
from xhembed.nmt.train import TrainConfig
from xhembed.subword import SkipgramConfig

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
