"""Canonical answer-selection corpus: types, JSONL parsing/writing, stats.

The on-disk format is line-delimited JSON, one question per line:

    {"question_id": "...", "question_text": "...",
     "candidates": [{"answer_id": "...", "text": "...", "label": true}, ...]}

Unknown JSON fields are warned about once per field name and dropped: no
command reads them, so a parsed corpus holds only the fields above.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import IO, Iterable

log = logging.getLogger(__name__)

# the labels a question must have among its candidates to be evaluated, per filter mode
_REQUIRED_LABELS = {"keep_all": set(), "require_positive": {True}, "require_both": {True, False}}
FILTER_MODES = tuple(_REQUIRED_LABELS)

_QUESTION_KEYS = {"question_id", "question_text", "candidates"}
_CANDIDATE_KEYS = {"answer_id", "text", "label"}


class CorpusError(ValueError):
    """Malformed or invariant-violating corpus data."""


@dataclass(frozen=True)
class CandidateAnswer:
    answer_id: str
    text: str
    label: bool


@dataclass(frozen=True)
class Question:
    question_id: str
    text: str
    candidates: tuple[CandidateAnswer, ...]


@dataclass(frozen=True)
class Dataset:
    questions: tuple[Question, ...]


def _warn_unknown(obj: dict, known: set[str], where: str, warned: set[str]) -> None:
    for key in obj:  # in line order, not a set's
        if key not in known and key not in warned:
            warned.add(key)
            log.warning("ignoring unknown field %r (%s)", key, where)


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise CorpusError(f"{where}: field {key!r} missing or not a string")
    if value.isascii():  # ASCII holds no lone surrogate
        return value
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, such as the JSON escape "\ud800"
        raise CorpusError(f"{where}: field {key!r} is not valid Unicode") from exc
    return value


def _require_id(obj: dict, key: str, where: str) -> str:
    """A non-empty string without whitespace, so that it stays one TREC run-file column."""
    value = _require_str(obj, key, where)
    if not value:
        raise CorpusError(f"{where}: empty {key}")
    if value.split() != [value]:  # str.split breaks at every character isspace() accepts
        raise CorpusError(f"{where}: field {key!r} contains whitespace")
    return value


def _parse_question(obj: dict, where: str, seen_qids: set[str], warned: set[str]) -> Question:
    """One question object; every error starts with ``where``."""
    qid = _require_id(obj, "question_id", where)
    qtext = _require_str(obj, "question_text", where)
    at = f"{where}: question {qid}"
    if not qtext.strip():
        raise CorpusError(f"{at}: empty question_text")
    if qid in seen_qids:
        raise CorpusError(f"{where}: duplicate question_id {qid!r}")
    seen_qids.add(qid)
    raw_cands = obj.get("candidates")
    if not isinstance(raw_cands, list) or not raw_cands:
        raise CorpusError(f"{at}: candidates missing or empty")
    cands: list[CandidateAnswer] = []
    seen_aids: set[str] = set()
    for cobj in raw_cands:
        if not isinstance(cobj, dict):
            raise CorpusError(f"{at}: candidate is not an object")
        aid = _require_id(cobj, "answer_id", at)
        text = _require_str(cobj, "text", at)
        if aid in seen_aids:
            raise CorpusError(f"{at}: duplicate answer_id {aid!r}")
        seen_aids.add(aid)
        if not text.strip():
            raise CorpusError(f"{at}: answer {aid}: empty text")
        label = cobj.get("label")
        if not isinstance(label, bool):
            raise CorpusError(f"{at}: answer {aid}: label must be boolean")
        _warn_unknown(cobj, _CANDIDATE_KEYS, f"{at}: answer {aid}", warned)
        cands.append(CandidateAnswer(answer_id=aid, text=text, label=label))
    _warn_unknown(obj, _QUESTION_KEYS, at, warned)
    return Question(question_id=qid, text=qtext, candidates=tuple(cands))


# name and split are unread; perfbench/workloads.py passes them
def parse_canonical(stream: IO[str], name: str = "", split: str = "") -> Dataset:
    """Parse canonical JSONL into a Dataset, preserving input order.

    Errors carry the 1-based line number. Duplicate question ids, duplicate
    answer ids within a question, ids that are empty or hold whitespace, and
    empty texts are rejected.
    """
    questions: list[Question] = []
    seen_qids: set[str] = set()
    warned: set[str] = set()
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, huge integers, deep nesting
            raise CorpusError(f"line {lineno}: malformed JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise CorpusError(f"line {lineno}: expected a JSON object")
        questions.append(_parse_question(obj, f"line {lineno}", seen_qids, warned))
    return Dataset(tuple(questions))


def write_canonical(dataset: Dataset, stream: IO[str]) -> None:
    """Write canonical JSONL; parse_canonical(write_canonical(d)) == d."""
    for q in dataset.questions:
        obj = {
            "question_id": q.question_id,
            "question_text": q.text,
            "candidates": [{"answer_id": c.answer_id, "text": c.text, "label": c.label}
                           for c in q.candidates],
        }
        stream.write(json.dumps(obj, ensure_ascii=False) + "\n")


def compute_stats(dataset: Dataset) -> dict[str, int]:
    """The counts ``stats`` prints, in the order it prints them."""
    num_candidates = num_positive = num_answerable = num_train_pairs = 0
    for q in dataset.questions:
        pos = sum(1 for c in q.candidates if c.label)
        neg = len(q.candidates) - pos
        num_candidates += len(q.candidates)
        num_positive += pos
        if pos >= 1 and neg >= 1:
            num_answerable += 1
        num_train_pairs += pos * neg
    return {
        "num_questions": len(dataset.questions),
        "num_candidates": num_candidates,
        "num_positive": num_positive,
        "num_negative": num_candidates - num_positive,
        "num_answerable": num_answerable,
        "num_train_pairs": num_train_pairs,
    }


def filter_evaluable(dataset: Dataset, mode: str) -> Dataset:
    """The questions evaluable under ``mode``; CorpusError when none is left."""
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r}, expected one of {FILTER_MODES}")
    kept = tuple(q for q in dataset.questions
                 if _REQUIRED_LABELS[mode] <= {c.label for c in q.candidates})
    if not kept:
        raise CorpusError("no questions left to evaluate after filtering")
    return Dataset(kept)


def convert_tsv(rows: Iterable[str]) -> Dataset:
    """Convert 4-column TSV (question_id, question_text, answer_text, label).

    Rows must be grouped by question_id and repeat one question_text; answer
    ids are a0, a1, ... in row order. Rows are checked in order as they are
    read, each as a one-answer canonical JSON object would be, so TSV inherits
    every invariant and an error names the first faulty row, 1-based.
    """
    questions: list[Question] = []  # each question as parsed from its first row
    answers: dict[str, list[CandidateAnswer]] = {}  # per question id, its candidates in row order
    for lineno, line in enumerate(rows, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise CorpusError(f"line {lineno}: expected 4 tab-separated columns, got {len(cols)}")
        qid, qtext, atext, label = cols
        if label not in ("0", "1"):
            raise CorpusError(f"line {lineno}: label must be 0 or 1, got {label!r}")
        if questions and questions[-1].question_id == qid:
            if questions[-1].text != qtext:
                raise CorpusError(f"line {lineno}: question {qid}: question_text differs from its first row")
        elif qid in answers:
            raise CorpusError(f"line {lineno}: rows for question {qid!r} are not contiguous")
        cands = answers.setdefault(qid, [])
        obj = {"question_id": qid, "question_text": qtext,
               "candidates": [{"answer_id": f"a{len(cands)}", "text": atext, "label": label == "1"}]}
        row = _parse_question(obj, f"line {lineno}", set(), set())
        if not cands:  # the question's first row
            questions.append(row)
        cands.append(row.candidates[0])
    return Dataset(tuple(
        Question(q.question_id, q.text, tuple(answers[q.question_id])) for q in questions))
