"""Benchmark for the xhembed pipeline.

    python3 perfbench/run.py --workload toy-grid --seed 1 --seconds 36 --trace 0

Run from the repository root.  The package is imported from `src/` as it is
checked out; nothing is installed.  One run:

1. times `setup_s`: fresh interpreters importing `xhembed.cli`, median of 7,
   at the reference machine speed (see SpeedSampler);
2. builds the workload's inputs from `--seed` and records their sha256;
3. repeats the workload for `--seconds` (at least 3 repetitions), each one
   in its own directory under `.perfbench/`, which is measured and deleted;
   the first repetition warms caches and lazy set-up and is not timed;
4. checks every repetition's outputs;
5. prints a report line (environment, inputs, every metric with its unit)
   and, last, the result line `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
taken from untraced repetitions.  With `--trace 1` repetitions alternate
between untraced and traced, the result holds the per-layer metrics, and the
spans of the traced repetitions are written to `.perfbench/spans/`.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_REPS = 3
SETUP_SAMPLES = 7


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def measure_setup():
    """Seconds from a fresh interpreter to xhembed imported, per sample, raw
    and at the reference speed sampled just before and after each start."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    speed = SpeedSampler()
    raw, ref = [], []
    for _ in range(SETUP_SAMPLES):
        speed.samples = []
        speed.measure(5)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import xhembed.cli"], env=env,
                       check=True)
        raw.append(time.perf_counter() - t0)
        speed.measure(5)
        ref.append(raw[-1] * speed.scale())
    return raw, ref


def environment():
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    mem_kb = None
    with open("/proc/meminfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "ram_gb": round(mem_kb / 2**20, 2) if mem_kb else None,
            "platform": platform.platform()}


class SpeedSampler:
    """Samples the machine's speed while a repetition runs.

    On shared CPUs a fixed pure-Python loop can run 1.5-2x slower in some
    stretches than in others.  Every PERIOD_S a SIGALRM
    handler times LOOP iterations of such a loop (Python runs it between
    bytecodes of the main thread).  `scale()` is REF_S over the mean sample,
    the factor that turns the repetition's wall time into seconds at the
    reference speed.  The loop is the benchmark's own code, so the factor
    does not depend on the code under test.
    """

    PERIOD_S = 0.2
    LOOP = 20000
    REF_S = 0.0015   # loop time at the reference speed

    def __init__(self):
        self.samples = []

    def measure(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            acc = 0
            for i in range(self.LOOP):
                acc += i * i
            self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, signum, frame):
        self.measure()

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.measure()

    def scale(self):
        return self.REF_S / statistics.mean(self.samples)


def ref_s(rep):
    """A repetition's wall time in seconds at the reference speed."""
    return rep["wall_s"] * rep["speed_scale"]


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def per_op_ms(layers, call_names):
    """Per-op figures from the traced repetitions: time / calls."""
    ops = {"gru_forward": "nmt.model.gru_forward", "gru_backward": "nmt.model.gru_backward",
           "attention": "nmt.model.attention",
           "attention_backward": "nmt.model.attention_backward",
           "softmax_loss_self": "nmt.model.forward_loss",
           "adam_step": "nmt.train.adam", "beam_step": "nmt.decode.decoder_step",
           "csls_induce": "xmap.induce", "procrustes": "xmap.procrustes"}
    out = {}
    for op, span in ops.items():
        key = f"{span}_self_s" if op == "softmax_loss_self" else f"{span}_s"
        calls = layers[call_names.get(span, f"{span}_calls")]
        if calls:
            out[op] = 1e3 * layers[key] / calls
    return out


def run(args, spec):
    sys.path.insert(0, str(SRC))
    setup_raw, setup = measure_setup()
    from probes import CALL_NAMES, Tracer
    from workloads import WORKLOADS

    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work / "inputs")
        digest = wl.inputs.digest()
        other = type(wl.inputs)(args.seed + 1).digest()
        tracer = Tracer()
        reps = []
        checks = {"inputs_change_with_seed": digest != other}
        attempted, failed = 1, int(digest == other)
        t_start = time.perf_counter()
        while True:
            i = len(reps)
            traced = bool(args.trace) and i > 0 and i % 2 == 0
            gc.collect()
            rep_dir = work / f"rep{i}"
            rep_dir.mkdir()
            tracer.install(kernels=traced)
            tracer.begin(i)
            error = None
            with SpeedSampler() as speed:
                t0 = time.perf_counter()
                try:
                    result = wl.run(rep_dir)
                except Exception as e:  # counted as a failed operation, reported below
                    error = f"{type(e).__name__}: {e}"
                wall = time.perf_counter() - t0
            tracer.uninstall()
            disk = dir_bytes(rep_dir)
            shutil.rmtree(rep_dir)
            calls, call_fails = tracer.stage_calls(i)
            attempted += max(calls, 1)
            failed += call_fails or (1 if error else 0)
            rec = {"rep": i, "traced": traced, "wall_s": wall,
                   "speed_scale": speed.scale(), "disk_mb": disk / 1e6,
                   "error": error, "workload": tracer.workload_metrics(i)}
            if traced:
                rec["layers"] = tracer.layer_metrics(i, wall)
            if error is None:
                for name, ok in wl.check(result).items():
                    attempted += 1
                    failed += 0 if ok else 1
                    checks[name] = checks.get(name, True) and bool(ok)
            reps.append(rec)
            if error is not None:
                break
            elapsed = time.perf_counter() - t_start
            if len(reps) >= MIN_REPS and elapsed + wall > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        plain = [r for r in reps[1:] if not r["traced"]] or reps[:1]
        traced_reps = [r for r in reps if r["traced"]]
        e2e = {"setup_s": _median(setup),
               "setup_raw_s": _median(setup_raw),
               "wall_s": _median([r["wall_s"] for r in plain]),
               "wall_ref_s": _median([ref_s(r) for r in plain]),
               "peak_rss_mb": peak_rss_mb,
               "disk_mb": _median([r["disk_mb"] for r in plain])}
        wl_metrics = {k: _median([r["workload"][k] for r in plain])
                      for k in plain[0]["workload"]}
        layers = {}
        spans_path = None
        if traced_reps:
            layers = {k: _median([r["layers"][k] for r in traced_reps])
                      for k in traced_reps[0]["layers"]}
            layers["trace.overhead_s"] = (_median([ref_s(r) for r in traced_reps])
                                          - e2e["wall_ref_s"])
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path, [r["rep"] for r in traced_reps])
        layers.update(wl_metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {"wall_s": "s", "setup_raw_s": "s"}
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    shown = dict(e2e)
    shown.update({k: wl_metrics[k] for k in wl.reports})
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": environment(),
        "inputs": {"sha256": digest, "sha256_seed_plus_1": other, "sizes": wl.sizes},
        "reps": [{k: r[k] for k in ("rep", "traced", "wall_s", "speed_scale", "disk_mb", "error")}
                 for r in reps],
        "setup_samples_s": setup_raw,
        "setup_samples_ref_s": setup,
        "checks": checks,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }
    if args.trace:
        report["per_op_ms"] = per_op_ms(layers, CALL_NAMES)
        report["spans_file"] = spans_path and str(spans_path.relative_to(ROOT))

    source, wanted = (layers, spec["per_layer"]) if args.trace else (e2e, spec["end_to_end"])
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run does not make: {missing}")
    values = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0 and all(checks.values()),
                      "attempted": attempted, "failed": failed, "metrics": values}))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (SRC / "xhembed" / "__init__.py").is_file():
        print(f"error: {SRC / 'xhembed'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
