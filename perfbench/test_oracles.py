"""Self-tests of the benchmark's oracles, generator and tracer against
hand-computed cases. Run with ``python3 -m pytest perfbench -q``."""

import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import oracle  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from spans import Tracer  # noqa: E402


def test_chance_rr_hand_values():
    assert gen.chance_rr(1, 1) == 1.0
    assert math.isclose(gen.chance_rr(2, 1), 0.75)
    assert math.isclose(gen.chance_rr(4, 1), 25 / 48)
    # two positives among three: first positive at rank 1 w.p. 2/3, else rank 2
    assert math.isclose(gen.chance_rr(3, 2), 2 / 3 + 1 / 3 * 1 / 2)
    assert gen.chance_rr(5, 0) == 0.0
    assert math.isclose(gen.chance_rr(2, 1, power=2), (1 + 1 / 4) / 2)


def test_chance_and_best_mrr_hand_corpus():
    corpus = gen.Corpus(lines=[], labels=[[True, False], [False, True, False], [False, False]],
                        marked=[True, False, False], texts=[])
    # the third question has no positive and is not evaluated
    assert math.isclose(gen.chance_mrr(corpus), (0.75 + 11 / 18) / 2)
    assert math.isclose(gen.best_mrr(corpus), (1.0 + 11 / 18) / 2)


def test_mrr_ceiling_hand_corpus():
    corpus = gen.Corpus(lines=[], labels=[[True, False], [False, True, False], [False, False]],
                        marked=[True, False, False], texts=[])
    # the unmarked question ranks its positive 1st, 2nd or 3rd with equal odds
    var = (1 + 1 / 4 + 1 / 9) / 3 - (11 / 18) ** 2
    assert math.isclose(var, 13 / 162)
    assert math.isclose(gen.mrr_ceiling(corpus),
                        gen.best_mrr(corpus) + gen.CEILING_SIGMAS * math.sqrt(var) / 2)
    everything_marked = gen.Corpus(lines=[], labels=[[True, False]], marked=[True], texts=[])
    assert gen.mrr_ceiling(everything_marked) == 1.0


def test_generator_counts_match_program_and_ignore_seed():
    from pairrank.corpus import parse_canonical
    from pairrank.sampling import SamplingConfig, generate_triples

    shape = gen.Shape(questions=12, unanswerable=3, candidates=(3, 5), answer_words=(4, 9),
                      long_answer_words=(20, 30))
    a, b = gen.generate(shape, 1), gen.generate(shape, 2)
    assert a.lines != b.lines
    assert (a.num_pairs, a.num_triples) == (b.num_pairs, b.num_triples)
    assert gen.best_mrr(a) == gen.best_mrr(b) and gen.chance_mrr(a) == gen.chance_mrr(b)
    dataset = parse_canonical(io.StringIO(a.text()))
    assert len(generate_triples(dataset, SamplingConfig())) == a.num_triples
    for (_, answers), labels, marked in zip(a.texts, a.labels, a.marked):
        for text, label in zip(answers, labels):
            assert (gen.MARKER in text.split()) == (label and marked)
    assert sum(1 for l, m in zip(a.labels, a.marked) if any(l) and not m) == 2


def test_reciprocal_rank_is_stable_on_ties():
    assert oracle.reciprocal_rank([0.5, 0.5], [False, True]) == 0.5
    assert oracle.reciprocal_rank([0.9, 0.1, 0.5], [False, False, True]) == 0.5
    assert oracle.reciprocal_rank([0.3, 0.2], [False, False]) == 0.0


RUN = """q1 Q0 a1 1 0.900000 t
q1 Q0 a0 2 0.400000 t
q2 Q0 b0 1 0.800000 t
q2 Q0 b2 2 0.800000 t
q2 Q0 b1 3 0.100000 t
"""
LABELS = {"q1": {"a0": True, "a1": False}, "q2": {"b0": False, "b1": False, "b2": True}}


def test_run_file_mrr_and_scores():
    mrr, scores = oracle.read_run_file(RUN, LABELS)
    assert mrr == (1 / 2 + 1 / 2) / 2
    assert scores[("q2", "b1")] == 0.1


@pytest.mark.parametrize("bad", [
    RUN.replace("a0 2", "a0 3"),                 # rank gap
    RUN.replace("0.400000", "0.950000"),         # score rises down the ranking
    RUN.replace("q2 Q0 b1 3 0.100000 t\n", ""),  # candidate missing
])
def test_run_file_rejects_bad_runs(bad):
    with pytest.raises(CheckFailed):
        oracle.read_run_file(bad, LABELS)


def test_rank_output():
    rows = oracle.read_rank_output("1\t0.700000\tx y\n2\t0.200000\tz\n", ["z", "x y"])
    assert rows == [(0.7, "x y"), (0.2, "z")]
    with pytest.raises(CheckFailed):
        oracle.read_rank_output("1\t0.200000\tx y\n2\t0.700000\tz\n", ["z", "x y"])


def test_encode_truncates_answer_first():
    vocab = {w: i + 4 for i, w in enumerate("q1 q2 q3 a1 a2 a3 a4".split())}
    ids, segs = oracle.encode(vocab, "q1 q2 q3", "a1 a2 a3 a4 zz", max_len=8)
    assert ids.tolist() == [2, 4, 5, 6, 3, 7, 8, 3]
    assert segs.tolist() == [0, 0, 0, 0, 0, 1, 1, 1]
    ids, _ = oracle.encode(vocab, "q1", "zz", max_len=8)
    assert ids.tolist() == [2, 4, 3, 1, 3]


def _config(vocab_size):
    return {"vocab_size": vocab_size, "hidden_size": 8, "num_layers": 2, "num_heads": 2,
            "ffn_size": 16, "max_len": 16, "dropout_rate": 0.1, "seed": 3}


def test_reference_zero_model_scores_head_bias():
    # every weight zero: each layer norm outputs its bias (zero), so the
    # score is sigmoid(head.b) = 1 / (1 + 1/3)
    config = _config(10)
    flat = np.zeros(_size(config))
    oracle.unpack(config, flat)["head.b"][...] = math.log(3.0)
    tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(6)]
    assert math.isclose(oracle.reference_scores(config, flat, tokens, [("w1 w2", "w3")])[0], 0.75)


def _size(config):
    """Parameter count, from the documented layout."""
    h, f = config["hidden_size"], config["ffn_size"]
    per_layer = 4 * (h * h + h) + 2 * h + h * f + f + f * h + h + 2 * h
    return (config["vocab_size"] + config["max_len"] + 2) * h + config["num_layers"] * per_layer + h + 1


def test_reference_matches_program_forward():
    from pairrank.model import ModelConfig, forward, init_params
    from pairrank.textenc import build_vocab, encode_pair

    texts = [("w1 w2 w3", "w4 w5"), ("w2", "w6 w7 w8 w9 w1 w2 w3 w4 w5 w6 w7 w8 w9 w1"), ("w9", "w9")]
    vocab = build_vocab(q + " " + a for q, a in texts[:2])
    config = _config(len(vocab))
    params = init_params(ModelConfig(**config))
    params.flat[:] += np.random.default_rng(0).normal(0, 0.5, params.flat.shape)
    scores, _ = forward(params, [encode_pair(vocab, q, a, max_len=16) for q, a in texts])
    ref = oracle.reference_scores(config, params.flat, list(vocab.tokens), texts)
    assert np.allclose(scores, ref, rtol=0, atol=1e-10)


def test_self_time_with_fake_clock():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.self_times("setup") == {"outer": 7.0, "inner": 3.0}
    (inner, outer) = tracer.spans
    assert inner[1] == outer[0] and outer[1] == 0


def test_install_wraps_every_reference_and_uninstall_restores():
    from pairrank import harness, metrics, model, textenc
    from pairrank.textenc import build_vocab

    original = model.forward
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.forward is model.forward is metrics.forward is not original
        tracer.phase = "round"
        vocab = textenc.build_vocab(["a b"])
        textenc.encode_pair(vocab, "a", "b", max_len=8)
        textenc.encode_pair(vocab, "a", "b", max_len=8)
    finally:
        tracer.uninstall()
    assert harness.forward is model.forward is metrics.forward is original
    assert textenc.build_vocab is build_vocab
    metrics_ = tracer.layer_metrics(setups=1, rounds=1, rank50_requests=0, overhead_s=0.0)
    assert metrics_["textenc.pairs_encoded"][0] == 2
    assert metrics_["textenc.encodes_per_distinct_pair"][0] == 2
