"""Training orchestration: pairwise loop, optimizer, checkpoints, history.

Each step forwards the positive and negative arms of a triple batch through
the same parameters as one fused batch of 2 * batch_size pairs, applies the
composite loss to the two score halves, backpropagates both arms jointly,
and takes a single optimizer step. Everything is deterministic given the
config and data.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import IO

import numpy as np

from .corpus import FILTER_MODES, CorpusError, Dataset, filter_evaluable
from .metrics import compute_report, encode_questions, rank_encoded
from .model import ModelConfig, ModelParams, backward, forward, init_params, num_params
from .objective import LossConfig, batch_loss
from .rng import _mix64
from .sampling import SamplingConfig, generate_triples, shuffle_triples
from .textenc import Vocab, build_vocab, encode_pair

OPTIMIZERS = ("adam", "sgd")

CHECKPOINT_MAGIC = b"PRCKPT\n"
CHECKPOINT_VERSION = 1

MAX_LOGIT = 709.0  # training diverged once |logit| exceeds it: exp(-logit) overflows float64


class NumericalAbort(RuntimeError):
    """Raised when |logit| > MAX_LOGIT or a parameter is non-finite; ``step`` counts from 1."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}: |logit| > 709 or a non-finite parameter")
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    loss: LossConfig = LossConfig()
    sampling: SamplingConfig = SamplingConfig()
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    batch_size: int = 16
    num_epochs: int = 3
    eval_every: int = 0  # steps between dev evaluations; 0 = once per epoch end
    base_seed: int = 0
    filter_mode: str = "require_positive"

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if any(type(v) is bool for v in (self.learning_rate, self.adam_beta1,
                                         self.adam_beta2, self.adam_epsilon)):
            raise ValueError("learning_rate and the adam settings must be numbers, not booleans")
        # NaN fails (every comparison with it is false), as does an int too large for a float
        if not all(0 < v <= sys.float_info.max for v in (self.learning_rate, self.adam_epsilon)):
            raise ValueError("learning_rate and adam_epsilon must be finite and > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must be in [0, 1)")
        counts = (self.batch_size, self.num_epochs, self.eval_every, self.base_seed)
        if not all(type(v) is int for v in counts):  # bool is not int here
            raise ValueError("batch_size, num_epochs, eval_every and base_seed must be integers")
        if self.batch_size < 1 or self.num_epochs < 1 or self.eval_every < 0:
            raise ValueError("batch_size and num_epochs must be >= 1, eval_every >= 0")
        if self.filter_mode not in FILTER_MODES:
            raise ValueError(
                f"unknown filter_mode {self.filter_mode!r}, expected one of {FILTER_MODES}")

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        """Build from parsed JSON; an unknown key raises ValueError naming it."""
        if not isinstance(obj, dict):
            raise ValueError("train config must be a JSON object")
        try:
            obj = dict(obj)
            model = ModelConfig(**{"vocab_size": 4, **obj.pop("model", {})})
            loss = LossConfig(**obj.pop("loss", {}))
            sampling = SamplingConfig(**obj.pop("sampling", {}))
            return cls(model=model, loss=loss, sampling=sampling, **obj)
        except TypeError as exc:  # the message names the unexpected keyword argument
            raise ValueError(f"bad train config: {exc}") from exc


@dataclass
class TrainHistory:
    steps: list[tuple[int, float]] = field(default_factory=list)          # (step, mean loss)
    evals: list[tuple[int, float, float]] = field(default_factory=list)   # (step, dev MRR, dev MAP)
    epoch_seconds: list[float] = field(default_factory=list)


@dataclass
class OptimizerState:
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_step(params: ModelParams, grads: ModelParams,
                   state: OptimizerState, config: TrainConfig) -> None:
    """In-place parameter update (adam with bias correction, or plain sgd)."""
    if grads.flat.shape != params.flat.shape:
        raise ValueError("gradient/parameter shape mismatch")
    state.step += 1
    g = grads.flat.astype(params.flat.dtype, copy=False)  # every temporary in the master's dtype
    if config.optimizer == "sgd":
        params.flat -= config.learning_rate * g
        return
    if state.m is None:
        state.m = np.zeros_like(params.flat)
        state.v = np.zeros_like(params.flat)
    # the textbook update, operation for operation, with the moments updated in
    # place: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2, and
    # params -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    b1, b2 = config.adam_beta1, config.adam_beta2
    m, v = state.m, state.v
    tmp = np.multiply(g, 1 - b1)
    m *= b1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1 - b2
    v *= b2
    v += tmp
    np.divide(v, 1 - b2 ** state.step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += config.adam_epsilon
    step = m / (1 - b1 ** state.step)
    step *= config.learning_rate
    step /= tmp
    params.flat -= step


def save_checkpoint(params: ModelParams, stream: IO[bytes]) -> None:
    """magic, version, JSON config header, flat params as little-endian float32."""
    header = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
    stream.write(CHECKPOINT_MAGIC)
    stream.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
    stream.write(header)
    stream.write(params.flat.astype("<f4").tobytes())


class CheckpointError(ValueError):
    """A bad checkpoint or vocabulary file, or a vocabulary of another size than vocab_size."""


def load_checkpoint(stream: IO[bytes]) -> ModelParams:
    magic = stream.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    head = stream.read(8)
    if len(head) != 8:
        raise CheckpointError("truncated checkpoint header")
    version, header_len = struct.unpack("<II", head)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header = stream.read(header_len)
    if len(header) != header_len:
        raise CheckpointError("truncated checkpoint config")
    try:
        config = ModelConfig(**json.loads(header.decode("utf-8")))
    except (ValueError, TypeError, RecursionError) as exc:  # bad UTF-8 or JSON, bad keys
        raise CheckpointError(f"bad checkpoint config: {exc}") from exc
    expected = num_params(config) * 4
    raw = stream.read()  # never more than the stream holds, whatever the header claims
    if len(raw) < expected:
        raise CheckpointError("truncated checkpoint parameters")
    if len(raw) > expected:
        raise CheckpointError("trailing bytes after checkpoint parameters")
    flat = np.frombuffer(raw, dtype="<f4").astype(np.float32)  # native order, writable
    if not np.all(np.isfinite(flat)):
        raise CheckpointError("non-finite checkpoint parameters")
    return ModelParams(config, flat)


def build_training_vocab(train_set: Dataset) -> Vocab:
    def texts():
        for q in train_set.questions:
            yield q.text
            for c in q.candidates:
                yield c.text
    return build_vocab(texts())


def train(config: TrainConfig, train_set: Dataset, dev_set: Dataset | None = None,
          vocab: Vocab | None = None) -> tuple[ModelParams, Vocab, TrainHistory]:
    """Run the full pairwise training loop; returns (float32 params, vocab, history)."""
    triples = generate_triples(train_set, config.sampling)  # bad inputs fail before any work
    if not triples:
        raise CorpusError("no training triples (every question lacks a positive or a negative)")
    if dev_set is not None:
        dev_set = filter_evaluable(dev_set, config.filter_mode)
    if vocab is None:
        vocab = build_training_vocab(train_set)
    model_cfg = replace(config.model, vocab_size=len(vocab))
    # float64 master weights and Adam moments; every pass runs on one float32 copy
    master = init_params(model_cfg)
    params = ModelParams(model_cfg, master.flat.astype(np.float32))

    # encode each (question, candidate) pair that a triple uses, once
    used = {(t.question_id, a) for t in triples for a in (t.positive_id, t.negative_id)}
    encoded = {(q.question_id, c.answer_id): encode_pair(vocab, q.text, c.text,
                                                         max_len=model_cfg.max_len)
               for q in train_set.questions for c in q.candidates
               if (q.question_id, c.answer_id) in used}
    if dev_set is not None:
        dev_pairs = encode_questions(vocab, dev_set.questions, model_cfg.max_len)

    state = OptimizerState()
    history = TrainHistory()
    step = 0
    eval_every = config.eval_every or math.ceil(len(triples) / config.batch_size)  # 0: epoch end
    for epoch in range(config.num_epochs):
        t0 = time.monotonic()
        order = shuffle_triples(triples, config.base_seed + epoch)
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            pos_pairs = [encoded[t.question_id, t.positive_id] for t in batch]
            neg_pairs = [encoded[t.question_id, t.negative_id] for t in batch]
            dropout_seed = _mix64(config.base_seed ^ _mix64(step + 1))
            scores, cache = forward(params, pos_pairs + neg_pairs,
                                    train_mode=True, dropout_seed=dropout_seed)
            if not (np.abs(cache["logit"]) <= MAX_LOGIT).all():  # NaN fails too
                raise NumericalAbort(step + 1)
            n = len(batch)
            loss, d_yp, d_yn = batch_loss(scores[:n], scores[n:], config.loss)
            grads = backward(params, cache, np.concatenate([d_yp, d_yn]))
            optimizer_step(master, grads, state, config)
            with np.errstate(over="ignore"):  # a master value beyond float32's range casts to inf
                np.copyto(params.flat, master.flat)
            if not np.isfinite(params.flat).all():
                raise NumericalAbort(step + 1)
            step += 1
            history.steps.append((step, float(loss)))
            if dev_set is not None and step % eval_every == 0:
                rankings = rank_encoded(params, dev_set.questions, dev_pairs)
                report = compute_report(dev_set.questions, rankings, config.filter_mode, 0)
                history.evals.append((step, report["mrr"], report["map"]))
        history.epoch_seconds.append(time.monotonic() - t0)
    return params, vocab, history
