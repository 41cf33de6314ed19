import dataclasses
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairrank import harness, metrics
from pairrank.corpus import CorpusError, filter_evaluable
from pairrank.harness import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    NumericalAbort,
    OptimizerState,
    TrainConfig,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train,
)
from pairrank.metrics import evaluate
from pairrank.model import ModelConfig, ModelParams, init_params, num_params
from pairrank.sampling import generate_triples

from conftest import JSON_VALUES, make_random_dataset, make_separable_corpus

TINY_MODEL = ModelConfig(vocab_size=4, hidden_size=16, num_layers=1, num_heads=2,
                         ffn_size=32, max_len=16, dropout_rate=0.0, seed=1)


def tiny_train_config(**overrides) -> TrainConfig:
    base = dict(model=TINY_MODEL, batch_size=4, num_epochs=2, base_seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def test_config_validation():
    for bad in (dict(num_epochs=0), dict(optimizer="rmsprop"),
                dict(eval_every=-1), dict(learning_rate=0.0), dict(learning_rate=math.inf),
                dict(learning_rate=math.nan), dict(adam_beta1=1.0), dict(adam_beta1=-0.1),
                dict(adam_beta2=math.nan), dict(adam_epsilon=0.0),
                dict(adam_epsilon=math.inf), dict(adam_epsilon=math.nan),
                dict(learning_rate=True), dict(adam_beta1=False), dict(adam_beta2=False),
                dict(adam_epsilon=True), dict(learning_rate=10**400), dict(adam_epsilon=10**400)):
        with pytest.raises(ValueError):
            tiny_train_config(**bad)


def test_config_dict_roundtrip():
    cfg = tiny_train_config()
    assert TrainConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def flat_params(values) -> ModelParams:
    cfg = TINY_MODEL
    flat = np.zeros(num_params(cfg))
    flat[:len(values)] = values
    return ModelParams(cfg, flat)


def test_sgd_step():
    cfg = tiny_train_config(optimizer="sgd", learning_rate=0.1)
    params = flat_params([1.0])
    grads = flat_params([0.5])
    optimizer_step(params, grads, OptimizerState(), cfg)
    assert params.flat[0] == pytest.approx(0.95)


def test_sgd_zero_gradient_noop():
    cfg = tiny_train_config(optimizer="sgd")
    params = flat_params([1.0, -2.0])
    before = params.flat.copy()
    optimizer_step(params, flat_params([]), OptimizerState(), cfg)
    assert np.array_equal(params.flat, before)


def test_adam_first_step_magnitude():
    # with constant g, bias correction gives update ~= lr * sign(g)
    cfg = tiny_train_config(optimizer="adam", learning_rate=1e-3)
    params = flat_params([1.0])
    grads = flat_params([0.5])
    optimizer_step(params, grads, OptimizerState(), cfg)
    assert params.flat[0] == pytest.approx(1.0 - 1e-3, abs=1e-7)


def test_adam_state_carries_moments():
    cfg = tiny_train_config(optimizer="adam")
    params = flat_params([1.0])
    state = OptimizerState()
    optimizer_step(params, flat_params([0.5]), state, cfg)
    optimizer_step(params, flat_params([0.5]), state, cfg)
    assert state.step == 2
    assert state.m is not None and state.m[0] > 0


def test_optimizer_rejects_gradient_of_another_size_before_any_update():
    cfg = tiny_train_config(optimizer="adam")
    params, state = flat_params([1.0]), OptimizerState()
    optimizer_step(params, flat_params([0.5]), state, cfg)
    before = params.flat.copy(), state.m.copy(), state.v.copy()
    wider = dataclasses.replace(TINY_MODEL, vocab_size=TINY_MODEL.vocab_size + 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        optimizer_step(params, ModelParams(wider, np.ones(num_params(wider))), state, cfg)
    assert state.step == 1
    for got, want in zip((params.flat, state.m, state.v), before):
        assert np.array_equal(got, want)


def test_adam_matches_textbook_formula_bitwise_in_place():
    cfg = tiny_train_config(optimizer="adam", learning_rate=0.01)
    rs = np.random.default_rng(6)
    params = ModelParams(TINY_MODEL, rs.normal(size=num_params(TINY_MODEL)))
    p, m, v = params.flat.copy(), 0.0, 0.0
    b1, b2, lr, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.learning_rate, cfg.adam_epsilon
    state = OptimizerState()
    for t in (1, 2, 3):
        grads = ModelParams(TINY_MODEL, rs.normal(size=p.size))
        held = grads.flat.copy()
        optimizer_step(params, grads, state, cfg)
        m = b1 * m + (1 - b1) * held
        v = b2 * v + (1 - b2) * held ** 2
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.array_equal(grads.flat.view(np.int64), held.view(np.int64))  # not squared in place
        assert np.array_equal(params.flat.view(np.int64), p.view(np.int64))
        assert np.array_equal(state.m.view(np.int64), m.view(np.int64))
        assert np.array_equal(state.v.view(np.int64), v.view(np.int64))
        if t == 1:
            moments = state.m, state.v
        assert state.m is moments[0] and state.v is moments[1]  # updated in place


def test_checkpoint_roundtrip_bitwise():
    params = init_params(TINY_MODEL)
    buf = io.BytesIO()
    save_checkpoint(params, buf)
    buf.seek(0)
    loaded = load_checkpoint(buf)
    assert loaded.config == TINY_MODEL
    assert loaded.flat.dtype == np.float32  # eval and rank compute in float32
    # float32 storage: loading then saving again is exact
    assert np.array_equal(loaded.flat, params.flat.astype("<f4").astype(np.float64))
    buf2 = io.BytesIO()
    save_checkpoint(loaded, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_checkpoint_bad_magic():
    params = init_params(TINY_MODEL)
    buf = io.BytesIO()
    save_checkpoint(params, buf)
    data = bytearray(buf.getvalue())
    data[0] ^= 0xFF
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(io.BytesIO(bytes(data)))


def test_checkpoint_truncated():
    params = init_params(TINY_MODEL)
    buf = io.BytesIO()
    save_checkpoint(params, buf)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(io.BytesIO(buf.getvalue()[:-10]))


def loads_or_checkpoint_error(data: bytes) -> None:
    try:
        params = load_checkpoint(io.BytesIO(data))
    except CheckpointError:
        return
    assert np.isfinite(params.flat).all()


def with_header(header: bytes, body: bytes = b"") -> bytes:
    return CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header + body


def test_checkpoint_declaring_many_layers_is_rejected_before_any_layer_is_built():
    header = json.dumps({**dataclasses.asdict(TINY_MODEL), "num_layers": 10**5}).encode()
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated checkpoint parameters"):
            load_checkpoint(io.BytesIO(with_header(header)))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert held < 64 << 10  # nothing cached for the rejected config


@settings(max_examples=100, deadline=None)
@given(edits=st.dictionaries(st.sampled_from([*dataclasses.asdict(TINY_MODEL), "bogus"]), JSON_VALUES,
                             max_size=3),
       dropped=st.sets(st.sampled_from(list(dataclasses.asdict(TINY_MODEL))), max_size=2),
       cut=st.none() | st.integers(min_value=0, max_value=num_params(TINY_MODEL) * 4))
@example(edits={"seed": []}, dropped=set(), cut=None)
@example(edits={"max_len": 16.5}, dropped=set(), cut=None)
@example(edits={"hidden_size": 16.0}, dropped=set(), cut=None)
def test_load_checkpoint_fuzz_header_edits(edits, dropped, cut):
    header = {k: v for k, v in {**dataclasses.asdict(TINY_MODEL), **edits}.items() if k not in dropped}
    body = init_params(TINY_MODEL).flat.astype("<f4").tobytes()[:cut]
    loads_or_checkpoint_error(with_header(json.dumps(header).encode(), body))


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=80), st.booleans())
@example(b"[" * 100_000, True)  # deeper than the recursion limit
def test_load_checkpoint_fuzz_raw_bytes(raw, as_header):
    """Arbitrary bytes after the magic, or as a config header of the stated length."""
    loads_or_checkpoint_error(with_header(raw) if as_header else CHECKPOINT_MAGIC + raw)


def test_checkpoint_magic_constant():
    assert CHECKPOINT_MAGIC.startswith(b"PRCKPT")


def test_train_single_step_bookkeeping():
    ds = make_separable_corpus(1, num_neg=1, seed=0)
    cfg = tiny_train_config(batch_size=1, num_epochs=1)
    params, vocab, history = train(cfg, ds)
    assert len(history.steps) == 1
    assert history.steps[0][0] == 1
    assert len(history.epoch_seconds) == 1


def test_train_deterministic():
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    cfg = tiny_train_config(num_epochs=2)
    p1, v1, h1 = train(cfg, ds)
    p2, v2, h2 = train(cfg, ds)
    assert np.array_equal(p1.flat, p2.flat)
    assert h1.steps == h2.steps
    assert v1 == v2


def test_train_records_dev_evals():
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    dev = make_separable_corpus(3, num_neg=2, seed=4)
    cfg = tiny_train_config(num_epochs=2)
    _, _, history = train(cfg, ds, dev_set=dev)
    assert len(history.evals) == 2  # once per epoch with eval_every=0
    for _, mrr, map_ in history.evals:
        assert 0.0 <= mrr <= 1.0 and 0.0 <= map_ <= 1.0
    # 12 triples in batches of 5: three steps per epoch, the last one partial
    for eval_every, steps in ((0, [3, 6]), (2, [2, 4, 6]), (4, [4])):
        cfg = tiny_train_config(num_epochs=2, batch_size=5, eval_every=eval_every)
        _, _, history = train(cfg, ds, dev_set=dev)
        assert len(history.steps) == 6
        assert [s for s, _, _ in history.evals] == steps
    # the last evaluation, at the last step, saw the returned params; random labels keep
    # MRR below 1, and questions without a correct answer are filtered out
    noisy_dev = make_random_dataset(12, seed=5)
    cfg = tiny_train_config(num_epochs=2, batch_size=5, eval_every=2)
    params, vocab, history = train(cfg, ds, dev_set=noisy_dev)
    report, _ = evaluate(params, vocab, noisy_dev, cfg.filter_mode)
    assert report["mrr"] < 1.0 and report["num_questions_skipped"] > 0
    assert history.evals[-1] == (6, report["mrr"], report["map"])


def test_train_encodes_each_dev_pair_once(monkeypatch):
    encoded = []

    def counting(real):
        def encode(vocab, question, answer, max_len):
            encoded.append((question, answer))
            return real(vocab, question, answer, max_len=max_len)
        return encode
    # training pairs are encoded in harness, the dev set through metrics.encode_questions
    monkeypatch.setattr(harness, "encode_pair", counting(harness.encode_pair))
    monkeypatch.setattr(metrics, "encode_pair", counting(metrics.encode_pair))
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    dev = make_separable_corpus(3, num_neg=2, seed=4)
    cfg = tiny_train_config(num_epochs=2, batch_size=5, eval_every=2)
    _, _, history = train(cfg, ds, dev_set=dev)
    assert len(history.evals) == 3
    used = {(t.question_id, a) for t in generate_triples(ds, cfg.sampling)
            for a in (t.positive_id, t.negative_id)}
    dev_pairs = sum(len(q.candidates) for q in filter_evaluable(dev, cfg.filter_mode).questions)
    assert len(encoded) == len(used) + dev_pairs


def test_train_returns_the_model_its_checkpoint_holds():
    # float64 master weights, float32 passes: train returns the float32 values
    model = dataclasses.replace(TINY_MODEL, num_layers=2, dropout_rate=0.1)
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    dev = make_random_dataset(8, seed=5)
    params, vocab, _ = train(tiny_train_config(model=model), ds)
    buf = io.BytesIO()
    save_checkpoint(params, buf)
    buf.seek(0)
    loaded = load_checkpoint(buf)
    assert params.flat.dtype == loaded.flat.dtype == np.float32
    assert np.array_equal(params.flat.view(np.int32), loaded.flat.view(np.int32))
    assert evaluate(loaded, vocab, dev)[0] == evaluate(params, vocab, dev)[0]


@pytest.mark.parametrize("base_seed,expected", [
    (0, [8841707400507832957, 5974825227474435752, 15559990572502793946]),
    (11, [11974666870081405309, 12149811572582368307, 14127284536164110970]),
    (-2, [13097412088287921567, 13040959721820390457, 1335423334400215598]),
])
def test_dropout_seed_golden_values(monkeypatch, base_seed, expected):
    seeds = []
    real_forward = harness.forward

    def record_seed(params, batch, train_mode=False, dropout_seed=0):
        seeds.append(dropout_seed)
        return real_forward(params, batch, train_mode=train_mode, dropout_seed=dropout_seed)
    monkeypatch.setattr(harness, "forward", record_seed)
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    train(tiny_train_config(base_seed=base_seed, num_epochs=1), ds)
    assert seeds[:3] == expected


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_unread_key_bias_stays_zero(optimizer):
    # q . b_k is constant along a softmax row, so b_k gets no gradient
    model = dataclasses.replace(TINY_MODEL, num_layers=2, dropout_rate=0.1)
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    params, _, _ = train(tiny_train_config(model=model, optimizer=optimizer), ds)
    assert all(np.all(params[f"layer{l}.attn.bk"] == 0.0) for l in range(2))
    assert not np.array_equal(params.flat, init_params(params.config).flat)


def test_train_aborts_on_non_finite_parameter(monkeypatch):
    real_step = harness.optimizer_step
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    # a float64 master value beyond float32's range is non-finite in the float32
    # copy, and its cast raises no overflow warning
    for value in (np.nan, 1e39):
        def bad_value_on_third_step(params, grads, state, config):
            real_step(params, grads, state, config)
            if state.step == 3:
                params.flat[5] = value
        monkeypatch.setattr(harness, "optimizer_step", bad_value_on_third_step)
        with pytest.raises(NumericalAbort) as info:
            train(tiny_train_config(num_epochs=2), ds)
        assert info.value.step == 3  # numbered from 1, as in history.json


@pytest.mark.parametrize("logit,aborts", [(710.0, True), (math.nan, True), (709.0, False)])
def test_train_aborts_when_a_logit_leaves_the_bound(monkeypatch, logit, aborts):
    real_forward = harness.forward
    calls = []

    def forward_with_logit(params, batch, train_mode=False, dropout_seed=0):
        scores, cache = real_forward(params, batch, train_mode=train_mode, dropout_seed=dropout_seed)
        calls.append(len(batch))
        if len(calls) == 2:
            cache["logit"][0] = logit
        return scores, cache
    monkeypatch.setattr(harness, "forward", forward_with_logit)
    ds = make_separable_corpus(6, num_neg=2, seed=3)
    if aborts:
        with pytest.raises(NumericalAbort) as info:
            train(tiny_train_config(num_epochs=2), ds)
        assert info.value.step == 2
    else:  # exactly MAX_LOGIT is still inside the bound
        _, _, history = train(tiny_train_config(num_epochs=2), ds)
        assert len(history.steps) == len(calls) > 2


def test_train_rejects_unevaluable_dev_set_before_any_step(monkeypatch):
    def must_not_forward(*args, **kwargs):
        raise AssertionError("a training step ran before the dev set was checked")
    monkeypatch.setattr(harness, "forward", must_not_forward)
    train_set = make_separable_corpus(6, num_neg=2, seed=3)
    dev_set = make_separable_corpus(3, num_neg=0, seed=4)  # no negatives
    with pytest.raises(CorpusError, match="no questions left"):
        train(tiny_train_config(filter_mode="require_both"), train_set, dev_set)


def test_train_rejects_tripleless_dataset(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before the train set was checked")
    monkeypatch.setattr(harness, "build_training_vocab", must_not_run)
    monkeypatch.setattr(harness, "init_params", must_not_run)
    ds = make_separable_corpus(2, num_neg=0, seed=0)  # no negatives, so no triples
    with pytest.raises(CorpusError, match="no training triples"):
        train(tiny_train_config(), ds)


def test_train_learns_separable_corpus():
    ds = make_separable_corpus(12, num_neg=3, seed=5)
    cfg = tiny_train_config(num_epochs=40, batch_size=8, learning_rate=3e-3)
    params, vocab, history = train(cfg, ds)
    report, _ = evaluate(params, vocab, ds, filter_mode="require_positive")
    assert report["mrr"] >= 0.9
    # loss trend: first-10-step mean above last-10-step mean
    losses = [l for _, l in history.steps]
    assert np.mean(losses[:10]) > np.mean(losses[-10:])


def test_eval_report_json_serializable():
    ds = make_separable_corpus(4, num_neg=2, seed=6)
    cfg = tiny_train_config(num_epochs=1)
    params, vocab, _ = train(cfg, ds)
    report, _ = evaluate(params, vocab, ds)
    json.loads(json.dumps(report, indent=2, sort_keys=True))
