"""Ranking metrics: reciprocal rank, average precision, and MRR/MAP reports.

Candidates are sorted by score descending with ties broken by original
candidate order (stable sort), ranks are 1-based, and a question with no
positive candidate scores 0 for both metrics. Aggregates are arithmetic
means over the questions that survive filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .corpus import Dataset, Question, filter_evaluable
from .model import ModelParams, forward
from .textenc import EncodedPair, Vocab, encode_pair

BATCH_SIZE = 64  # pairs per eval-mode forward


@dataclass(frozen=True)
class RankedList:
    question_id: str
    entries: tuple[tuple[str, float, bool], ...]  # (answer_id, score, label), rank order


def rank_candidates(question: Question, scores: Sequence[float]) -> RankedList:
    """Stable sort by score descending; ties keep original candidate order."""
    if len(scores) != len(question.candidates):
        raise ValueError(
            f"question {question.question_id}: {len(scores)} scores for "
            f"{len(question.candidates)} candidates")
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    entries = tuple((question.candidates[i].answer_id, float(scores[i]),
                     question.candidates[i].label) for i in order)
    return RankedList(question_id=question.question_id, entries=entries)


def reciprocal_rank(ranked: RankedList) -> float:
    for rank, (_, _, label) in enumerate(ranked.entries, start=1):
        if label:
            return 1.0 / rank
    return 0.0


def average_precision(ranked: RankedList) -> float:
    hits = 0
    precision_sum = 0.0
    for rank, (_, _, label) in enumerate(ranked.entries, start=1):
        if label:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / hits if hits else 0.0


def compute_report(questions: Sequence[Question],
                   rankings: Sequence[RankedList],
                   filter_mode: str,
                   num_skipped: int) -> dict:
    """The report as the ``eval`` JSON prints it: MRR, MAP and one row per question."""
    per_question = [{
        "question_id": q.question_id,
        "reciprocal_rank": reciprocal_rank(ranked),
        "average_precision": average_precision(ranked),
        "num_candidates": len(q.candidates),
        "num_positive": sum(1 for c in q.candidates if c.label),
    } for q, ranked in zip(questions, rankings)]
    n = len(per_question)
    return {
        "mrr": sum(r["reciprocal_rank"] for r in per_question) / n if n else 0.0,
        "map": sum(r["average_precision"] for r in per_question) / n if n else 0.0,
        "num_questions_scored": n,
        "num_questions_skipped": num_skipped,
        "filter_mode": filter_mode,
        "per_question": per_question,
    }


def encode_questions(vocab: Vocab, questions: Sequence[Question],
                     max_len: int) -> list[EncodedPair]:
    """Encode every candidate of every question, in input order."""
    return [encode_pair(vocab, q.text, c.text, max_len=max_len)
            for q in questions for c in q.candidates]


def rank_encoded(params: ModelParams, questions: Sequence[Question],
                 pairs: Sequence[EncodedPair]) -> list[RankedList]:
    """Score pairs from ``encode_questions(..., questions, ...)`` (eval mode) and rank them."""
    # forward in order of packed length, so each batch trims to little padding;
    # the sort is stable, so pairs of equal length keep their input order
    lengths = np.count_nonzero([p.token_ids for p in pairs], axis=-1) if pairs else []
    order = np.argsort(lengths, kind="stable")
    scores = np.zeros(len(pairs))
    for start in range(0, len(order), BATCH_SIZE):
        batch = order[start:start + BATCH_SIZE]
        batch_scores, _ = forward(params, [pairs[i] for i in batch], train_mode=False)
        scores[batch] = batch_scores
    scores = scores.tolist()
    rankings = []
    offset = 0
    for q in questions:
        n = len(q.candidates)
        rankings.append(rank_candidates(q, scores[offset:offset + n]))
        offset += n
    return rankings


def rank_dataset(params: ModelParams, vocab: Vocab, dataset: Dataset) -> list[RankedList]:
    """Score every candidate of every question (eval mode) and rank them."""
    pairs = encode_questions(vocab, dataset.questions, params.config.max_len)
    return rank_encoded(params, dataset.questions, pairs)


def evaluate(params: ModelParams, vocab: Vocab, dataset: Dataset,
             filter_mode: str = "require_positive") -> tuple[dict, list[RankedList]]:
    """Filter, score and rank a dataset; return its MRR/MAP report and the rankings behind it."""
    kept = filter_evaluable(dataset, filter_mode)
    rankings = rank_dataset(params, vocab, kept)
    report = compute_report(kept.questions, rankings, filter_mode,
                            num_skipped=len(dataset.questions) - len(kept.questions))
    return report, rankings


def write_trec_run(rankings: Sequence[RankedList], stream: IO[str]) -> None:
    """TREC run format: question_id Q0 answer_id rank score pairrank."""
    for ranked in rankings:
        for rank, (answer_id, score, _) in enumerate(ranked.entries, start=1):
            stream.write(f"{ranked.question_id} Q0 {answer_id} {rank} {score:.6f} pairrank\n")
