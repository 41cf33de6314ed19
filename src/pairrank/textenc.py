"""Tokenization, vocabulary, and packed (question, answer) pair encoding.

Tokenizing is one ``str.translate`` that pads each punctuation or symbol
character with spaces, then ``str.split``; a character's Unicode category is
looked up once, the first time it is seen.

Sequences follow the sentence-pair convention: position 0 holds the
classification token, the question occupies segment 0 up to and including
the first separator, the answer occupies segment 1 up to and including the
second separator, and the remainder is padding. No text token maps to a
reserved id, so the token ids alone fix the mask and the segments.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")

MIN_MAX_LEN = 8


class _SplitTable(dict):
    """``str.translate`` table: a punctuation or symbol character becomes
    " ch ", so ``str.split`` makes it a token; any other character maps to
    itself (never to None, which would delete it)."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        out = f" {ch} " if unicodedata.category(ch)[0] in "PS" else ch
        self[code] = out
        return out


_TABLE = _SplitTable()


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, split punctuation/symbol chars off as single tokens."""
    return text.lower().translate(_TABLE).split()


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]  # index == id; first four entries are reserved
    ids: dict[str, int] = field(init=False, repr=False, compare=False)  # token -> id

    def __post_init__(self):
        if self.tokens[:4] != RESERVED_TOKENS:
            raise ValueError("first four vocab entries must be the reserved tokens")
        object.__setattr__(self, "ids", {tok: i for i, tok in enumerate(self.tokens)})
        if len(self.ids) != len(self.tokens):
            raise ValueError("a vocab token is listed twice")

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, stream: IO[str]) -> None:
        for tok in self.tokens:
            stream.write(tok + "\n")

    @classmethod
    def load(cls, stream: IO[str]) -> "Vocab":
        tokens = tuple(line.rstrip("\n") for line in stream)
        return cls(tokens=tokens)


def build_vocab(texts: Iterable[str]) -> Vocab:
    """Vocabulary of every token in ``texts``.

    Non-reserved ids are assigned by descending frequency, ties broken
    lexicographically, so the result is fully deterministic.
    """
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenize(text))
    kept = sorted(counts, key=lambda tok: (-counts[tok], tok))
    return Vocab(tokens=RESERVED_TOKENS + tuple(kept))


@dataclass(frozen=True)
class EncodedPair:
    token_ids: np.ndarray  # (max_len,) int64: [CLS] q [SEP] a [SEP] PAD...

    # read by perfbench/spans.py (model.pad_fraction); the program reads token_ids
    @property
    def attention_mask(self) -> np.ndarray:  # (max_len,) int64, 1 on non-PAD positions
        return (self.token_ids != PAD_ID).astype(np.int64)


def segment_ids(token_ids: np.ndarray) -> np.ndarray:
    """1 after the first [SEP] up to and including the second, 0 elsewhere (last axis)."""
    sep = token_ids == SEP_ID
    return (np.cumsum(sep, axis=-1) - sep == 1).astype(np.int64)


def encode_pair(vocab: Vocab, question: str, answer: str, max_len: int) -> EncodedPair:
    """Pack a (question, answer) pair as [CLS] q [SEP] a [SEP] PAD...

    If the packed sequence exceeds max_len, answer tokens are truncated
    first (down to one token), then question tokens.
    """
    if max_len < MIN_MAX_LEN:
        raise ValueError(f"max_len must be >= {MIN_MAX_LEN}, got {max_len}")
    q_tokens = tokenize(question)
    a_tokens = tokenize(answer)
    budget = max_len - 3  # CLS + two SEPs
    if len(q_tokens) + len(a_tokens) > budget:
        keep_a = max(1 if a_tokens else 0, budget - len(q_tokens))
        a_tokens = a_tokens[:keep_a]
        q_tokens = q_tokens[:budget - len(a_tokens)]
    get = vocab.ids.get
    ids = [CLS_ID, *[get(t, UNK_ID) for t in q_tokens], SEP_ID,
           *[get(t, UNK_ID) for t in a_tokens], SEP_ID]
    token_ids = np.zeros(max_len, dtype=np.int64)  # PAD_ID is 0
    token_ids[:len(ids)] = ids
    return EncodedPair(token_ids)
