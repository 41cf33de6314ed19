"""Training-triple generation: expand a dataset into (question, positive, negative) triples."""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Dataset
from .rng import DeterministicRng

STRATEGIES = ("cross_product", "sampled_k")

# stream ids keep sampling and shuffling on disjoint RNG streams
_SAMPLE_STREAM = 101
_SHUFFLE_STREAM = 102


@dataclass(frozen=True)
class TrainingTriple:
    question_id: str
    positive_id: str
    negative_id: str


@dataclass(frozen=True)
class SamplingConfig:
    strategy: str = "cross_product"
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not (type(self.k) is int and type(self.seed) is int):  # bool is not int here
            raise ValueError("k and seed must be integers")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def generate_triples(dataset: Dataset, config: SamplingConfig) -> list[TrainingTriple]:
    """Emit triples per question in (question, positive, negative) order.

    cross_product emits every positive x negative combination. sampled_k
    draws, per positive, k negatives uniformly without replacement (all of
    them when fewer than k exist), deterministically from the config seed.
    Questions lacking a positive or a negative contribute nothing.
    """
    rng = DeterministicRng(config.seed, stream=_SAMPLE_STREAM)
    triples: list[TrainingTriple] = []
    for q in dataset.questions:
        pos = [c.answer_id for c in q.candidates if c.label]
        neg = [c.answer_id for c in q.candidates if not c.label]
        for p in pos:
            if config.strategy == "cross_product":
                chosen = range(len(neg))
            else:
                chosen = sorted(rng.sample_without_replacement(len(neg), config.k))
            for j in chosen:
                triples.append(TrainingTriple(q.question_id, p, neg[j]))
    return triples


def shuffle_triples(triples: list[TrainingTriple], seed: int) -> list[TrainingTriple]:
    """Deterministic permutation of the triples list."""
    rng = DeterministicRng(seed, stream=_SHUFFLE_STREAM)
    return [triples[i] for i in rng.shuffled_indices(len(triples))]
