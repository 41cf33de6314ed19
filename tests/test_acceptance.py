"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import io
import itertools
import json
import os
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from pairrank.corpus import compute_stats, parse_canonical, write_canonical
from pairrank.harness import TrainConfig, save_checkpoint, train
from pairrank.metrics import average_precision, compute_report, evaluate, rank_candidates
from pairrank.model import ModelConfig, backward, forward, init_params, param_layout
from pairrank.objective import LossConfig, pairwise_loss
from pairrank.sampling import SamplingConfig, generate_triples
from pairrank.textenc import build_vocab, encode_pair

from conftest import make_random_dataset, make_separable_corpus
from test_metrics import make_question, oracle_ap, oracle_rr

DESK_MODEL = ModelConfig(vocab_size=4, hidden_size=64, num_layers=2, num_heads=4,
                         ffn_size=256, max_len=32, seed=0)


def check(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {description} {detail}"


def test_criterion_1_metric_oracle_equivalence():
    rnd = random.Random(20240)
    t0 = time.monotonic()
    questions, rankings, rrs, aps = [], [], [], []
    for i in range(200):
        n = rnd.randint(1, 10)
        labels = [rnd.random() < 0.4 for _ in range(n)]
        scores = [rnd.random() for _ in range(n)]
        q = make_question(labels, f"q{i}")
        questions.append(q)
        rankings.append(rank_candidates(q, scores))
        scored = [(scores[j], j, labels[j]) for j in range(n)]
        rrs.append(oracle_rr(scored))
        aps.append(oracle_ap(scored))
    report = compute_report(questions, rankings, "keep_all", num_skipped=0)
    elapsed = time.monotonic() - t0
    mrr_err = abs(report["mrr"] - sum(rrs) / 200)
    map_err = abs(report["map"] - sum(aps) / 200)
    check(1, "MRR/MAP match brute-force oracle on 200 random questions",
          mrr_err < 1e-12 and map_err < 1e-12 and elapsed < 1.0,
          f"mrr_err={mrr_err:.2e} map_err={map_err:.2e} time={elapsed:.2f}s")


def test_criterion_2_exhaustive_average_precision():
    worst = 0.0
    cases = 0
    for n in range(1, 7):
        scores = [1.0 - 0.1 * i for i in range(n)]
        for labels in itertools.product([False, True], repeat=n):
            ap = average_precision(rank_candidates(make_question(list(labels)), scores))
            ref = oracle_ap([(scores[i], i, labels[i]) for i in range(n)])
            worst = max(worst, abs(ap - ref))
            cases += 1
    for perm in itertools.permutations([0.9, 0.7, 0.5, 0.3]):
        for labels in itertools.product([False, True], repeat=4):
            ap = average_precision(rank_candidates(make_question(list(labels)), list(perm)))
            ref = oracle_ap([(perm[i], i, labels[i]) for i in range(4)])
            worst = max(worst, abs(ap - ref))
            cases += 1
    no_pos = average_precision(rank_candidates(make_question([False] * 3), [0.3, 0.2, 0.1]))
    check(2, "exhaustive AP equals definition, no-positive case is 0",
          worst == 0.0 and no_pos == 0.0, f"{cases} cases, worst_abs_err={worst:.2e}")


def test_criterion_3_loss_values_and_nonnegativity():
    cfg = LossConfig(lambda1=0.5, lambda2=0.5, margin=0.2, epsilon=1e-7)
    v1 = pairwise_loss(0.5, 0.5, cfg)
    v2 = pairwise_loss(0.9, 0.1, cfg)
    rnd = random.Random(77)
    min_loss = min(
        pairwise_loss(rnd.random(), rnd.random(),
                      LossConfig(margin=rnd.uniform(0.01, 0.99)))
        for _ in range(100_000))
    check(3, "hand-computed loss values and L >= 0 over 1e5 samples",
          abs(v1 - 0.7931) < 1e-4 and abs(v2 - 0.10536) < 1e-4 and min_loss >= 0.0,
          f"v1={v1:.5f} v2={v2:.5f} min={min_loss:.2e}")


def test_criterion_4_gradient_verification():
    t0 = time.monotonic()
    vocab = build_vocab(["who wrote the play hamlet shakespeare wrote it in london "
                         "paris is the capital of france and not a play"])
    cfg = replace(DESK_MODEL, vocab_size=len(vocab))
    params = init_params(cfg)
    pair = encode_pair(vocab, "who wrote the play hamlet",
                       "shakespeare wrote it in london", max_len=cfg.max_len)
    _, cache = forward(params, [pair])
    grads = backward(params, cache, [1.0])

    seq_len = int(np.count_nonzero(pair.token_ids))
    used_tokens = sorted(set(pair.token_ids[:seq_len].tolist()))
    offsets = {}
    off = 0
    for name, shape, _ in param_layout(cfg):
        offsets[name] = (off, shape)
        off += int(np.prod(shape)) if shape else 1

    rng = np.random.default_rng(4)
    indices = []
    for name, (off, shape) in offsets.items():
        size = int(np.prod(shape)) if shape else 1
        h = cfg.hidden_size
        for _ in range(7):
            if name == "tok_emb":
                row = used_tokens[rng.integers(len(used_tokens))]
                indices.append(off + row * h + int(rng.integers(h)))
            elif name == "pos_emb":
                indices.append(off + int(rng.integers(seq_len)) * h + int(rng.integers(h)))
            else:
                indices.append(off + int(rng.integers(size)))
    eps = 1e-4
    worst = 0.0
    for j in indices:
        orig = params.flat[j]
        params.flat[j] = orig + eps
        sp, _ = forward(params, [pair])
        params.flat[j] = orig - eps
        sm, _ = forward(params, [pair])
        params.flat[j] = orig
        fd = (sp[0] - sm[0]) / (2 * eps)
        an = grads.flat[j]
        denom = max(abs(fd), abs(an), 1e-9)
        if abs(fd - an) > 1e-9:
            worst = max(worst, abs(fd - an) / denom)
    elapsed = time.monotonic() - t0
    check(4, f"finite-difference gradient check on {len(indices)} params, all tensor classes",
          len(indices) >= 200 and worst < 1e-4 and elapsed < 60.0,
          f"worst_rel_err={worst:.2e} time={elapsed:.1f}s")


def test_criterion_5_mechanism_proof_separable_corpus():
    # Stands in for the paper-scale results tables, which need pre-trained
    # encoder weights and are out of reproducible scope at desk scale.
    t0 = time.monotonic()
    train_set = make_separable_corpus(50, num_neg=4, seed=100)
    held_out = make_separable_corpus(20, num_neg=4, seed=200)
    config = TrainConfig(model=DESK_MODEL, num_epochs=40, base_seed=0)
    assert config.num_epochs <= 200
    params, vocab, _ = train(config, train_set)
    train_mrr = evaluate(params, vocab, train_set)[0]["mrr"]
    held_mrr = evaluate(params, vocab, held_out)[0]["mrr"]
    elapsed = time.monotonic() - t0
    check(5, "training mechanism ranks the separable corpus",
          train_mrr >= 0.95 and held_mrr >= 0.85 and elapsed < 300.0,
          f"train_mrr={train_mrr:.3f} held_mrr={held_mrr:.3f} time={elapsed:.0f}s")


def test_criterion_6_full_run_determinism():
    train_set = make_separable_corpus(10, num_neg=3, seed=9)
    dev_set = make_separable_corpus(5, num_neg=3, seed=10)
    config = TrainConfig(model=DESK_MODEL, num_epochs=4, base_seed=3)

    def one_run():
        params, vocab, _ = train(config, train_set, dev_set)
        buf = io.BytesIO()
        save_checkpoint(params, buf)
        report, _ = evaluate(params, vocab, dev_set, filter_mode=config.filter_mode)
        return buf.getvalue(), json.dumps(report, indent=2, sort_keys=True)

    ckpt1, report1 = one_run()
    ckpt2, report2 = one_run()
    check(6, "two identical train+eval runs are bit-identical",
          ckpt1 == ckpt2 and report1 == report2,
          f"checkpoint_bytes={len(ckpt1)}")


def test_criterion_7_corpus_integrity():
    ds = make_random_dataset(1000, seed=555)
    buf = io.StringIO()
    write_canonical(ds, buf)
    buf.seek(0)
    again = parse_canonical(buf)
    stats = compute_stats(ds)
    triples = generate_triples(ds, SamplingConfig(strategy="cross_product"))
    check(7, "JSONL round-trip identity and cross-product count on 1000 fuzzed questions",
          again == ds and len(triples) == stats["num_train_pairs"],
          f"num_train_pairs={stats['num_train_pairs']}")


def test_criterion_8_wikiqa_table_stats():
    path = os.environ.get("PAIRRANK_WIKIQA_TRAIN")
    if not path:
        pytest.skip("set PAIRRANK_WIKIQA_TRAIN to a converted WikiQA train JSONL to run")
    with open(path, encoding="utf-8") as f:
        ds = parse_canonical(f)
    stats = compute_stats(ds)
    check(8, "WikiQA train split matches published statistics",
          stats["num_questions"] == 873 and stats["num_train_pairs"] == 8995,
          f"questions={stats['num_questions']} pairs={stats['num_train_pairs']}")
