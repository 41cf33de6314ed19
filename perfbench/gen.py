"""Seeded synthetic answer-selection corpora with a known, partial signal.

The positives of most answerable questions carry the marker token; the
positives of one answerable question in ``UNMARKED_EVERY`` do not, and
negatives never do. Apart from the marker, positives and negatives draw
their words and lengths from the same distributions, so a perfect model
ranks a marked positive first and can do no better than chance on an
unmarked question. The generator records which questions are marked, from
which ``best_mrr`` and ``chance_mrr`` follow exactly, without running the
program. On an unmarked question the ranking of any model is as good as a
random one, so ``mrr_ceiling`` also bounds the MRR from above.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb, sqrt

MARKER = "zsignal"
# A marked answer holds one marker per MARKER_EVERY words (at least one),
# all within its first MARKER_WINDOW words. Questions are at most
# MAX_Q_WORDS words, so at max_len=128 every marker survives answer
# truncation (128 - 3 - MAX_Q_WORDS > MARKER_WINDOW).
MARKER_EVERY = 3
MARKER_WINDOW = 100
MAX_Q_WORDS = 10
# every n-th answerable question has two positives / lacks the signal
TWO_POSITIVE_EVERY = 5
UNMARKED_EVERY = 6
# mrr_ceiling lies this many standard deviations of the unmarked questions'
# chance MRR above best_mrr
CEILING_SIGMAS = 5.0
_WORDS = [f"w{i}" for i in range(200)]


@dataclass(frozen=True)
class Shape:
    """Make-up of one corpus: sizes and length ranges, in words."""
    questions: int
    candidates: tuple[int, int]      # inclusive range per question
    answer_words: tuple[int, int]    # inclusive range for every answer
    long_answer_words: tuple[int, int] | None = None  # if set, every other candidate is long
    unanswerable: int = 0            # extra questions with no positive, as in WikiQA


@dataclass(frozen=True)
class Corpus:
    lines: list[str]                 # canonical JSONL, one question per line
    labels: list[list[bool]]         # per question, per candidate
    marked: list[bool]               # per question: its positives carry the marker
    texts: list[tuple[str, list[str]]]  # (question, answers) per question

    @property
    def num_pairs(self) -> int:
        return sum(len(l) for l in self.labels)

    @property
    def num_triples(self) -> int:
        return sum(sum(l) * (len(l) - sum(l)) for l in self.labels)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _words(rnd: random.Random, n: int) -> list[str]:
    # a mildly Zipf-shaped draw so the vocabulary has common and rare words
    return [_WORDS[min(int(rnd.paretovariate(1.2)) - 1, len(_WORDS) - 1)
                   if rnd.random() < 0.5 else rnd.randrange(len(_WORDS))]
            for _ in range(n)]


def question_shapes(shape: Shape) -> list[tuple[int, int, bool]]:
    """(candidates, positives, marked) per question. The multiset is fixed by
    the shape, so pair and triple counts, chance MRR and the share of
    unmarked questions do not depend on the seed."""
    lo, hi = shape.candidates
    out = [(lo + i % (hi - lo + 1),
            2 if i % TWO_POSITIVE_EVERY == TWO_POSITIVE_EVERY - 1 else 1,
            i % UNMARKED_EVERY != 0)
           for i in range(shape.questions)]
    return out + [(lo + i % (hi - lo + 1), 0, False) for i in range(shape.unanswerable)]


def generate(shape: Shape, seed: int, prefix: str = "q") -> Corpus:
    rnd = random.Random(seed)
    shapes = question_shapes(shape)
    rnd.shuffle(shapes)
    lines, labels, marked, texts = [], [], [], []
    for i, (n, m, mark) in enumerate(shapes):
        pos_slots = set(rnd.sample(range(n), m))
        q_text = " ".join(_words(rnd, rnd.randint(4, MAX_Q_WORDS)))
        cands, q_labels, answers = [], [], []
        for j in range(n):
            lo_hi = shape.answer_words
            if shape.long_answer_words is not None and j % 2 == 1:
                lo_hi = shape.long_answer_words
            words = _words(rnd, rnd.randint(*lo_hi))
            label = j in pos_slots
            if label and mark:
                window = min(MARKER_WINDOW, len(words))
                for k in rnd.sample(range(window), max(1, len(words) // MARKER_EVERY)):
                    words[k] = MARKER
            text = " ".join(words)
            cands.append({"answer_id": f"a{j}", "text": text, "label": label})
            q_labels.append(label)
            answers.append(text)
        lines.append(json.dumps({"question_id": f"{prefix}{i}", "question_text": q_text,
                                 "candidates": cands}))
        labels.append(q_labels)
        marked.append(mark)
        texts.append((q_text, answers))
    return Corpus(lines=lines, labels=labels, marked=marked, texts=texts)


def chance_rr(n: int, m: int, power: int = 1) -> float:
    """Expected reciprocal rank, raised to ``power``, of the first of m
    positives among n shuffled candidates."""
    if m == 0:
        return 0.0
    total = comb(n, m)
    return sum(comb(n - r, m - 1) / total / r ** power for r in range(1, n - m + 2))


def chance_mrr(corpus: Corpus) -> float:
    """Expected MRR of a random ranking over the questions that have a positive."""
    rrs = [chance_rr(len(l), sum(l)) for l in corpus.labels if any(l)]
    return sum(rrs) / len(rrs)


def best_mrr(corpus: Corpus) -> float:
    """Expected MRR of a model that finds the marker and knows nothing else."""
    rrs = [1.0 if mk else chance_rr(len(l), sum(l))
           for l, mk in zip(corpus.labels, corpus.marked) if any(l)]
    return sum(rrs) / len(rrs)


def mrr_ceiling(corpus: Corpus) -> float:
    """An upper bound on the MRR of any model: ``best_mrr`` plus
    CEILING_SIGMAS standard deviations of the chance MRR over the unmarked
    questions, whose positives and negatives no model can tell apart."""
    answerable = [(l, mk) for l, mk in zip(corpus.labels, corpus.marked) if any(l)]
    var = sum(chance_rr(len(l), sum(l), 2) - chance_rr(len(l), sum(l)) ** 2
              for l, mk in answerable if not mk)
    return best_mrr(corpus) + CEILING_SIGMAS * sqrt(var) / len(answerable)
