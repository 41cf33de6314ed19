import io
import random
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank.textenc import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SEP_ID,
    UNK_ID,
    Vocab,
    build_vocab,
    encode_pair,
    segment_ids,
    tokenize,
)


def test_tokenize_basic():
    assert tokenize("Who wrote Hamlet?") == ["who", "wrote", "hamlet", "?"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_tokenize_punctuation_split():
    assert tokenize("state-of-the-art") == ["state", "-", "of", "-", "the", "-", "art"]


def test_build_vocab_order():
    v = build_vocab(["a a b"])
    assert v.tokens == RESERVED_TOKENS + ("a", "b")
    assert v.ids["a"] == 4 and v.ids["b"] == 5


def test_vocab_rejects_duplicate_token():
    with pytest.raises(ValueError, match="twice"):
        Vocab(tokens=RESERVED_TOKENS + ("a", "b", "a"))


def test_build_vocab_empty():
    assert build_vocab([]).tokens == RESERVED_TOKENS


def test_build_vocab_tie_break_lexicographic():
    v = build_vocab(["b a", "a b"])
    assert v.tokens[4:] == ("a", "b")


def test_vocab_save_load_roundtrip():
    v = build_vocab(["alpha beta beta"])
    buf = io.StringIO()
    v.save(buf)
    buf.seek(0)
    assert Vocab.load(buf) == v
    assert buf.getvalue().splitlines()[:4] == list(RESERVED_TOKENS)


def test_encode_pair_layout():
    v = build_vocab(["who wrote hamlet shakespeare"])
    pair = encode_pair(v, "who wrote hamlet", "shakespeare wrote hamlet", max_len=16)
    ids = [CLS_ID, v.ids["who"], v.ids["wrote"], v.ids["hamlet"], SEP_ID,
           v.ids["shakespeare"], v.ids["wrote"], v.ids["hamlet"], SEP_ID] + [PAD_ID] * 7
    assert pair.token_ids.tolist() == ids
    assert segment_ids(pair.token_ids).tolist() == [0] * 5 + [1] * 4 + [0] * 7
    assert pair.attention_mask.tolist() == [1] * 9 + [0] * 7


def test_encode_pair_exact_fit_no_padding():
    v = build_vocab(["who wrote hamlet shakespeare"])
    pair = encode_pair(v, "who wrote hamlet", "shakespeare wrote hamlet", max_len=9)
    assert pair.attention_mask.tolist() == [1] * 9


def test_encode_pair_truncates_answer_first():
    v = build_vocab(["w"])
    q = "q1 q2 q3"
    a = " ".join(f"t{i}" for i in range(20))
    pair = encode_pair(v, q, a, max_len=12)
    mask_len = int(pair.attention_mask.sum())
    assert mask_len == 12
    # CLS + 3 question tokens + SEP + 6 answer tokens + SEP
    assert segment_ids(pair.token_ids).tolist().count(1) == 7
    assert pair.token_ids.tolist().count(SEP_ID) == 2


def test_encode_pair_truncates_question_when_needed():
    v = build_vocab(["w"])
    q = " ".join(f"q{i}" for i in range(30))
    pair = encode_pair(v, q, "a1 a2", max_len=10)
    assert int(pair.attention_mask.sum()) == 10
    assert pair.token_ids.tolist().count(SEP_ID) == 2
    # answer is cut first, down to one token, before the question is touched
    assert segment_ids(pair.token_ids).tolist().count(1) == 2


def test_encode_pair_min_len_rejected():
    v = build_vocab(["w"])
    with pytest.raises(ValueError):
        encode_pair(v, "a", "b", max_len=4)


def test_encode_pair_oov_maps_to_unk():
    v = build_vocab(["hello"])
    pair = encode_pair(v, "hello", "goodbye", max_len=8)
    assert pair.token_ids[3] == UNK_ID


def test_mask_is_prefix_and_segments_zero_on_pad():
    v = build_vocab(["x y z"])
    pair = encode_pair(v, "x y", "z", max_len=10)
    mask = pair.attention_mask.tolist()
    n = sum(mask)
    assert mask == [1] * n + [0] * (10 - n)
    assert all(s == 0 for s, m in zip(segment_ids(pair.token_ids), mask) if m == 0)


def test_mask_sum_counts_tokens():
    v = build_vocab(["a b c d e"])
    pair = encode_pair(v, "a b", "c d e", max_len=16)
    assert int(pair.attention_mask.sum()) == 1 + 2 + 1 + 3 + 1


def test_decode_reencode_roundtrip():
    v = build_vocab(["who wrote hamlet shakespeare it"])
    pair = encode_pair(v, "who wrote hamlet", "shakespeare wrote it", max_len=16)
    non_pad = pair.token_ids[pair.attention_mask == 1]
    toks = [v.tokens[int(i)] for i in non_pad]
    sep1 = toks.index("[SEP]")
    q = " ".join(toks[1:sep1])
    a = " ".join(toks[sep1 + 1:-1])
    again = encode_pair(v, q, a, max_len=16)
    assert np.array_equal(again.token_ids, pair.token_ids)
    assert np.array_equal(segment_ids(again.token_ids), segment_ids(pair.token_ids))
    assert np.array_equal(again.attention_mask, pair.attention_mask)


# -- reference: the character-loop tokenizer and list-built encoder that the
#    str.translate tokenizer and the dict lookup replaced ------------------

def reference_tokenize(text):
    tokens, word = [], []
    for ch in text.lower():
        if ch.isspace():
            if word:
                tokens.append("".join(word))
                word = []
        elif unicodedata.category(ch)[0] in ("P", "S"):
            if word:
                tokens.append("".join(word))
                word = []
            tokens.append(ch)
        else:
            word.append(ch)
    if word:
        tokens.append("".join(word))
    return tokens


def reference_encode_pair(vocab, question, answer, max_len):
    q_tokens = reference_tokenize(question)
    a_tokens = reference_tokenize(answer)
    budget = max_len - 3
    if len(q_tokens) + len(a_tokens) > budget:
        keep_a = max(1 if a_tokens else 0, budget - len(q_tokens))
        a_tokens = a_tokens[:keep_a]
        q_tokens = q_tokens[:budget - len(a_tokens)]
    lookup = {tok: i for i, tok in enumerate(vocab.tokens)}
    ids = [CLS_ID] + [lookup.get(t, UNK_ID) for t in q_tokens] + [SEP_ID] \
        + [lookup.get(t, UNK_ID) for t in a_tokens] + [SEP_ID]
    segs = [0] * (2 + len(q_tokens)) + [1] * (len(a_tokens) + 1)
    n = len(ids)
    token_ids = np.full(max_len, PAD_ID, dtype=np.int64)
    segments = np.zeros(max_len, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.int64)
    token_ids[:n] = ids
    segments[:n] = segs
    mask[:n] = 1
    return token_ids, segments, mask


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_tokenize_matches_reference(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "a\x1cb\x1dc\x1ed\x1ff",            # information separators are whitespace
    "one\x85two\xa0three\u2028four\u2029five\u3000six",
    "price: $5 + 3 \u20ac = \u00a9 2020 \u2192 ok \U0001f600!",
    "cafe\u0301 na\u0308ive \u0915\u094d\u0937",  # combining marks stay in the word
    "\u0130stanbul \u0130",              # lowercase of U+0130 is two code points
    "bell\x07 nul\x00 del\x7f esc\x1b",  # control characters that are not whitespace
    "lone \ud800 surrogate\udfff",
    "\u00bfQu\u00e9? \u00abdit\u00bb \u300c\u5f15\u7528\u300d \u2014 end\u2026",
])
def test_tokenize_matches_reference_on_edge_cases(text):
    assert tokenize(text) == reference_tokenize(text)


@pytest.mark.parametrize("max_len", [8, 12, 16, 128])
def test_encode_pair_matches_reference(max_len):
    rnd = random.Random(max_len)
    words = [f"w{i}" for i in range(40)] + ["?", "(", ")", "-", "\u00e9t\u00e9", "\u0130"]
    vocab = build_vocab([" ".join(words[::2])])  # about half the words are out of vocabulary

    def text(lo, hi):
        return " ".join(rnd.choice(words) for _ in range(rnd.randint(lo, hi)))

    for _ in range(200):
        question, answer = text(0, 30), text(0, 150)
        pair = encode_pair(vocab, question, answer, max_len=max_len)
        expected = reference_encode_pair(vocab, question, answer, max_len)
        got_arrays = (pair.token_ids, segment_ids(pair.token_ids), pair.attention_mask)
        for got, want in zip(got_arrays, expected):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)


def test_segment_ids_on_a_batch_match_each_row():
    rnd = random.Random(3)
    vocab = build_vocab(["a b c d e f"])
    pairs = [encode_pair(vocab, " ".join(rnd.choices("abcxyz", k=rnd.randint(0, 9))),
                         " ".join(rnd.choices("abcxyz", k=rnd.randint(0, 30))), max_len=16)
             for _ in range(50)]
    batch = np.stack([p.token_ids for p in pairs])
    assert np.array_equal(segment_ids(batch), [segment_ids(p.token_ids) for p in pairs])
