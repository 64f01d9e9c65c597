"""Spans around calls into xhembed, recorded from outside the package.

A probe replaces a function with a wrapper that records one span (name,
start, end, parent span, run id) per call.  The wrapper is bound wherever the
function is reachable: on the defining module and on every xhembed module
that imported it by name (`cli` imports `train`, `decode` imports
`decoder_step`, ...), or on the class for a method.  Spans stay in memory
until `write_spans`.

Stage probes are cheap (a few dozen calls per repetition) and are always
installed: they give the per-stage throughput and quality numbers and the
operation count.  Kernel probes (GRU, attention, Adam, beam steps, CSLS
induction) are installed only in traced repetitions.  `_gru_step` is never
wrapped: it is called about 250k times per make-toy run and adds no
information beyond `gru_forward`.
"""

import functools
import importlib
import json
import math
import os
import sys
import time

# (module, attribute, span name, kernel-level?)
PROBES = [
    ("xhembed.corpus", "load_parallel_corpus", "corpus.load", False),
    ("xhembed.corpus", "build_vocabulary", "corpus.vocab", False),
    ("xhembed.subword", "train_skipgram", "subword.train", False),
    ("xhembed.subword", "SubwordModel.save", "subword.save", False),
    ("xhembed.subword", "SubwordModel.export_matrix", "subword.export", False),
    ("xhembed.embedstore", "read_embeddings", "embedstore.read", False),
    ("xhembed.embedstore", "write_embeddings", "embedstore.write", False),
    ("xhembed.lexproject", "read_lexicon", "lexproject.read", False),
    ("xhembed.lexproject", "build_projected_matrix", "lexproject.project", False),
    ("xhembed.xmap", "fit_mapping", "xmap.fit", False),
    ("xhembed.xmap", "save_mapping", "xmap.save", False),
    ("xhembed.combine", "build_initial_embeddings", "combine.init", False),
    ("xhembed.nmt.model", "build_model", "nmt.model.build", False),
    ("xhembed.nmt.train", "train", "nmt.train.train", False),
    ("xhembed.nmt.train", "fine_tune", "nmt.train.fine_tune", False),
    ("xhembed.nmt.checkpoint", "save_checkpoint", "nmt.checkpoint.save", False),
    ("xhembed.nmt.decode", "translate", "nmt.decode.translate", False),
    ("xhembed.metrics", "score_corpus", "metrics.score", False),
    ("xhembed.nmt.model", "gru_forward", "nmt.model.gru_forward", True),
    ("xhembed.nmt.model", "gru_backward", "nmt.model.gru_backward", True),
    ("xhembed.nmt.model", "attention_output", "nmt.model.attention", True),
    ("xhembed.nmt.model", "attention_backward", "nmt.model.attention_backward", True),
    ("xhembed.nmt.model", "forward_loss", "nmt.model.forward_loss", True),
    ("xhembed.nmt.train", "perplexity", "nmt.train.perplexity", True),
    ("xhembed.nmt.train", "Adam.step", "nmt.train.adam", True),
    ("xhembed.nmt.decode", "beam_search", "nmt.decode.beam", True),
    ("xhembed.nmt.model", "decoder_step", "nmt.decode.decoder_step", True),
    ("xhembed.nmt.model", "encode_for_decoding", "nmt.decode.encode", True),
    ("xhembed.xmap", "induce_dictionary", "xmap.induce", True),
    ("xhembed.xmap", "fit_orthogonal_mapping", "xmap.procrustes", True),
]

# per-layer metrics whose names differ from `<span>_calls`
CALL_NAMES = {"nmt.train.adam": "nmt.train.adam_steps",
              "xmap.induce": "xmap.iterations"}


def _file_mb(path):
    return os.path.getsize(path) / 1e6


def _tgt_tokens(id_pairs):
    # non-PAD positions of tgt_ids[:, 1:]: the BOS/EOS-framed length minus 1
    return sum(len(t) - 1 for _, t in id_pairs)


def _on_train(c, args, kw, result, parent):
    history = result[1]
    c["nmt.train.epochs_run"] += len(history)
    c["nmt.train.tgt_tokens"] += len(history) * (_tgt_tokens(args[2])
                                                 + _tgt_tokens(args[3]))
    if parent != "nmt.train.fine_tune":
        c["dev_ppl_sum"] += min((r.dev_ppl for r in history), default=math.nan)
        c["dev_ppl_n"] += 1


def _on_skipgram(c, args, kw, result, parent):
    reports = result[1]
    c["subword.pairs"] += sum(r.pairs for r in reports)
    c["sgns_tokens"] += sum(len(s) for s in args[0]) * len(reports)
    c["sgns_loss"] = reports[-1].mean_loss


def _on_forward_loss(c, args, kw, result, parent):
    if not kw.get("compute_grads", True):
        return
    out_w, batch = args[0]["out_W"], args[2]
    b, t = batch.tgt_ids.shape
    h, v = out_w.shape
    c["nmt.train.batches"] += 1
    c["logits_bytes_max"] = max(c["logits_bytes_max"], b * (t - 1) * v * out_w.itemsize)
    c["outproj_flop"] += 6 * b * (t - 1) * h * v  # forward + two backward matmuls


def _on_score(c, args, kw, result, parent):
    c["bleu_sum"] += result.mean_sentence
    c["bleu_n"] += 1


def _on_adam(c, args, kw, result, parent):
    c["adam_bytes"] = 4 * sum(p.nbytes for p in args[1].values())  # p, g, m, v


def _add(key, amount):
    def on_return(c, args, kw, result, parent):
        c[key] += amount(args, result)
    return on_return


def _set(key, value):
    def on_return(c, args, kw, result, parent):
        c[key] = value(args, result)
    return on_return


ON_RETURN = {
    "nmt.train.train": _on_train,
    "subword.train": _on_skipgram,
    "nmt.model.forward_loss": _on_forward_loss,
    "nmt.train.adam": _on_adam,
    "nmt.decode.translate": _add("sentences", lambda a, r: len(a[2])),
    "subword.save": _add("subword.model_mb", lambda a, r: _file_mb(a[1])),
    "embedstore.write": _add("embedstore.write_mb", lambda a, r: _file_mb(a[1])),
    "lexproject.project": _add("lexproject.covered", lambda a, r: r[1].covered),
    "xmap.induce": _add("xmap.dict_pairs", lambda a, r: len(r)),
    "nmt.checkpoint.save": _add("nmt.checkpoint.mb", lambda a, r: _file_mb(a[0])),
    "nmt.decode.beam": _add("nmt.decode.hyp_tokens", lambda a, r: len(r)),
    "metrics.score": _on_score,
    "xmap.fit": _set("map_objective", lambda a, r: r.objective),
    "nmt.decode.decoder_step": _set("out_w_bytes", lambda a, r: a[0]["out_W"].nbytes),
}

COUNTS = ("subword.pairs", "subword.model_mb", "embedstore.write_mb",
          "lexproject.covered", "xmap.dict_pairs", "nmt.train.batches",
          "nmt.train.tgt_tokens", "nmt.train.epochs_run", "nmt.decode.hyp_tokens",
          "nmt.checkpoint.mb")


class Counters(dict):
    def __missing__(self, key):
        return 0


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    """Records spans for one process; `rep` is the current run id."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, run id, failed]
        self.stack = []
        self.rep = -1
        self.counters = Counters()
        self._patched = []

    def _wrap(self, fn, name):
        on_return = ON_RETURN.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.rep, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self.counters, args, kwargs, result,
                          spans[parent][0] if parent >= 0 else None)
            return result
        return probe

    def install(self, kernels):
        """Bind probes: stage probes always, kernel probes when `kernels`."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "xhembed" or n.startswith("xhembed.")]
        for mod_name, attr, name, is_kernel in PROBES:
            if is_kernel and not kernels:
                continue
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name))
                continue
            orig = getattr(mod, attr)
            probe = self._wrap(orig, name)
            for m in loaded:
                if m.__dict__.get(attr) is orig:
                    self._patched.append((m, attr, orig))
                    setattr(m, attr, probe)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def begin(self, rep):
        self.rep = rep
        self.counters = Counters()

    def _top(self, rep, names=None):
        return [s for s in self.spans
                if s[4] == rep and s[3] < 0 and (names is None or s[0] in names)]

    def stage_calls(self, rep):
        """(attempted, failed) over the top-level spans of one repetition."""
        top = self._top(rep)
        return len(top), sum(1 for s in top if s[5])

    def _stage_s(self, rep, *names):
        return sum(s[2] - s[1] for s in self._top(rep, names))

    def workload_metrics(self, rep):
        """Throughput and quality of one repetition, from the stage probes."""
        c = self.counters
        return {
            "train_tgt_tokens_per_s": _ratio(
                c["nmt.train.tgt_tokens"],
                self._stage_s(rep, "nmt.train.train", "nmt.train.fine_tune")),
            "decode_sents_per_s": _ratio(
                c["sentences"], self._stage_s(rep, "nmt.decode.translate")),
            "sgns_tokens_per_s": _ratio(
                c["sgns_tokens"], self._stage_s(rep, "subword.train")),
            "map_s": self._stage_s(rep, "xmap.fit"),
            "dev_ppl": _ratio(c["dev_ppl_sum"], c["dev_ppl_n"]),
            "bleu_sent_mean": _ratio(c["bleu_sum"], c["bleu_n"]),
            "map_objective": c["map_objective"],
            "sgns_loss": c["sgns_loss"],
        }

    def layer_metrics(self, rep, wall_s):
        """Per-layer metrics of one traced repetition: for every probe its
        time, self time and calls, plus counts and computed kernel sizes."""
        out = {}
        for _, _, name, _ in PROBES:
            out.update({f"{name}_s": 0.0, f"{name}_self_s": 0.0,
                        CALL_NAMES.get(name, f"{name}_calls"): 0})
        ids = [i for i, s in enumerate(self.spans) if s[4] == rep]
        child_s = {}
        for i in ids:
            name, t0, t1, parent = self.spans[i][:4]
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        top_s = 0.0
        for i in ids:
            name, t0, t1, parent = self.spans[i][:4]
            out[f"{name}_s"] += t1 - t0
            out[f"{name}_self_s"] += t1 - t0 - child_s.get(i, 0.0)
            out[CALL_NAMES.get(name, f"{name}_calls")] += 1
            if parent < 0:
                top_s += t1 - t0
        c = self.counters
        out.update({k: c[k] for k in COUNTS})
        out.update({
            "trace.stage_coverage": top_s / wall_s,
            "trace.spans": len(ids),
            # computed from array shapes and dtype, not measured
            "nmt.kernel.logits_bytes_per_batch": c["logits_bytes_max"],
            "nmt.kernel.outproj_gflop_per_epoch":
                _ratio(c["outproj_flop"], c["nmt.train.epochs_run"]) / 1e9,
            "nmt.kernel.adam_bytes_per_step": c["adam_bytes"],
            "nmt.kernel.out_w_bytes_per_decoder_step": c["out_w_bytes"],
        })
        return out

    def write_spans(self, path, run_ids):
        """One JSON line per span of the given repetitions."""
        keep = set(run_ids)
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, t0, t1, parent, rep, failed) in enumerate(self.spans):
                if rep in keep:
                    f.write(json.dumps({"id": i, "name": name, "start": t0,
                                        "end": t1, "parent": parent,
                                        "run": rep, "failed": failed}) + "\n")
