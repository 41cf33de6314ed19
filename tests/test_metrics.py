import io
import itertools
import platform
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank import metrics
from pairrank.corpus import CandidateAnswer, Dataset, Question
from pairrank.metrics import (
    BATCH_SIZE,
    RankedList,
    average_precision,
    compute_report,
    rank_candidates,
    rank_dataset,
    reciprocal_rank,
    write_trec_run,
)
from pairrank.model import CheckpointError, ModelConfig, forward, init_params
from pairrank.textenc import Vocab, build_vocab, encode_pair

from conftest import FILLERS, make_random_dataset


def make_question(labels, qid="q"):
    cands = tuple(CandidateAnswer(f"a{i}", f"text {i}", bool(lab))
                  for i, lab in enumerate(labels))
    return Question(question_id=qid, text="question text", candidates=cands)


# -- independent definition-level oracles (kept deliberately separate from
#    the library's code path: ranks found by counting, not by sorting) -----

def oracle_rr(scored):
    """scored: list of (score, original_index, label)."""
    best = 0.0
    for s, i, label in scored:
        if not label:
            continue
        rank = 1 + sum(1 for s2, i2, _ in scored
                       if s2 > s or (s2 == s and i2 < i))
        best = max(best, 1.0 / rank)
    return best


def oracle_ap(scored):
    ranks = sorted(
        1 + sum(1 for s2, i2, _ in scored if s2 > s or (s2 == s and i2 < i))
        for s, i, label in scored if label)
    if not ranks:
        return 0.0
    return sum((k + 1) / r for k, r in enumerate(ranks)) / len(ranks)


def test_rank_candidates_sorts_descending():
    q = make_question([False, True, False])
    ranked = rank_candidates(q, [0.1, 0.9, 0.5])
    assert [e[0] for e in ranked.entries] == ["a1", "a2", "a0"]


def test_rank_candidates_stable_on_ties():
    q = make_question([True, False, True])
    ranked = rank_candidates(q, [0.5, 0.5, 0.5])
    assert [e[0] for e in ranked.entries] == ["a0", "a1", "a2"]


def test_rank_candidates_singleton():
    q = make_question([True])
    assert len(rank_candidates(q, [0.3]).entries) == 1


def test_rank_candidates_length_mismatch():
    with pytest.raises(ValueError):
        rank_candidates(make_question([True]), [0.1, 0.2])


def ranked_from(labels, scores):
    return rank_candidates(make_question(labels), scores)


def test_rr_first_positive():
    assert reciprocal_rank(ranked_from([True, False], [0.9, 0.1])) == 1.0


def test_rr_rank_four():
    labels = [False, False, False, True, True]
    scores = [0.9, 0.8, 0.7, 0.6, 0.5]
    assert reciprocal_rank(ranked_from(labels, scores)) == 0.25


def test_rr_no_positive():
    assert reciprocal_rank(ranked_from([False, False], [0.5, 0.4])) == 0.0


def test_ap_perfect_prefix():
    labels = [True, True, False, False]
    scores = [0.9, 0.8, 0.2, 0.1]
    assert average_precision(ranked_from(labels, scores)) == 1.0


def test_ap_hand_value():
    # positives at ranks 1 and 3 -> (1/1 + 2/3) / 2
    labels = [True, False, True, False, False]
    scores = [0.9, 0.8, 0.7, 0.6, 0.5]
    assert average_precision(ranked_from(labels, scores)) == pytest.approx(5 / 6, abs=1e-9)


def test_ap_no_positive_is_zero():
    assert average_precision(ranked_from([False] * 4, [0.4, 0.3, 0.2, 0.1])) == 0.0


def test_ap_equals_rr_single_positive():
    rnd = random.Random(5)
    for _ in range(100):
        n = rnd.randint(1, 8)
        labels = [False] * n
        labels[rnd.randrange(n)] = True
        scores = [rnd.random() for _ in range(n)]
        ranked = ranked_from(labels, scores)
        assert average_precision(ranked) == pytest.approx(reciprocal_rank(ranked))


def test_exhaustive_ap_against_definition():
    # all label patterns for n <= 6 at fixed scores, plus all score
    # permutations at n = 4
    for n in range(1, 7):
        scores = [1.0 - 0.1 * i for i in range(n)]
        for labels in itertools.product([False, True], repeat=n):
            ranked = ranked_from(list(labels), scores)
            scored = [(scores[i], i, labels[i]) for i in range(n)]
            assert average_precision(ranked) == pytest.approx(oracle_ap(scored), abs=1e-12)
    base = [0.9, 0.7, 0.5, 0.3]
    for perm in itertools.permutations(base):
        for labels in itertools.product([False, True], repeat=4):
            ranked = ranked_from(list(labels), list(perm))
            scored = [(perm[i], i, labels[i]) for i in range(4)]
            assert average_precision(ranked) == pytest.approx(oracle_ap(scored), abs=1e-12)


def test_report_aggregation_hand_value():
    questions = [
        make_question([True, False], "q1"),
        make_question([False, True], "q2"),
        make_question([False, False, False, True], "q3"),
    ]
    scores = [[0.9, 0.1], [0.9, 0.1], [0.9, 0.8, 0.7, 0.6]]
    rankings = [rank_candidates(q, s) for q, s in zip(questions, scores)]
    report = compute_report(questions, rankings, "keep_all", num_skipped=0)
    assert report["mrr"] == pytest.approx((1 + 0.5 + 0.25) / 3, abs=1e-9)


def test_report_random_matches_oracle():
    rnd = random.Random(42)
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
    assert report["mrr"] == pytest.approx(sum(rrs) / len(rrs), abs=1e-12)
    assert report["map"] == pytest.approx(sum(aps) / len(aps), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False), st.booleans()),
                min_size=1, max_size=8))
def test_monotone_transform_invariance(pairs):
    labels = [lab for _, lab in pairs]
    scores = [s for s, _ in pairs]
    ranked = ranked_from(labels, scores)
    # doubling is exact in binary floating point, so it is strictly increasing
    squashed = ranked_from(labels, [2.0 * s for s in scores])
    assert [e[0] for e in squashed.entries] == [e[0] for e in ranked.entries]
    assert reciprocal_rank(squashed) == pytest.approx(reciprocal_rank(ranked))
    assert average_precision(squashed) == pytest.approx(average_precision(ranked))


def test_rr_lower_bound_with_positive():
    rnd = random.Random(8)
    for _ in range(200):
        n = rnd.randint(1, 10)
        labels = [rnd.random() < 0.5 for _ in range(n)]
        ranked = ranked_from(labels, [rnd.random() for _ in range(n)])
        rr = reciprocal_rank(ranked)
        assert 0.0 <= rr <= 1.0
        if any(labels):
            assert rr >= 1.0 / n


def test_trec_run_format():
    ranked = RankedList("q1", (("a2", 0.9, True), ("a1", 0.5, False)))
    buf = io.StringIO()
    write_trec_run([ranked], buf)
    assert buf.getvalue() == "q1 Q0 a2 1 0.900000 pairrank\nq1 Q0 a1 2 0.500000 pairrank\n"


def test_report_json_keys():
    ds = make_random_dataset(5, seed=1, allow_no_positive=False)
    rankings = [rank_candidates(q, [0.5] * len(q.candidates)) for q in ds.questions]
    report = compute_report(ds.questions, rankings, "require_positive", num_skipped=2)
    assert set(report) == {"mrr", "map", "num_questions_scored", "num_questions_skipped",
                           "filter_mode", "per_question"}
    assert report["num_questions_skipped"] == 2
    assert len(report["per_question"]) == 5


# -- length-sorted eval batches ---------------------------------------------

MAX_LEN = 32


def make_mixed_length_dataset(num_questions=20, max_len=MAX_LEN, seed=3) -> Dataset:
    """Short answers mixed with answers that fill or overflow max_len, plus duplicates."""
    rnd = random.Random(seed)
    questions = []
    for i in range(num_questions):
        texts = []
        for _ in range(rnd.randint(3, 9)):
            n = rnd.randint(1, 5) if rnd.random() < 0.5 else rnd.randint(max_len - 8, 2 * max_len)
            texts.append(" ".join(rnd.choice(FILLERS) for _ in range(n)))
        texts.append(rnd.choice(texts))  # a duplicate candidate, so two scores tie
        cands = tuple(CandidateAnswer(f"a{j}", t, rnd.random() < 0.3) for j, t in enumerate(texts))
        qtext = " ".join(rnd.choice(FILLERS) for _ in range(rnd.randint(2, 8)))
        questions.append(Question(f"q{i}", qtext, cands))
    return Dataset(name="mixed", split="test", questions=tuple(questions))


def one_question_dataset(num_answers=64) -> Dataset:
    rnd = random.Random(9)
    cands = tuple(CandidateAnswer(str(j), " ".join(rnd.choice(FILLERS)
                                                   for _ in range(rnd.randint(1, 40))), False)
                  for j in range(num_answers))
    return Dataset(name="rank", split="test", questions=(Question("rank", "word1 word2", cands),))


def scoring_model():
    vocab = build_vocab(FILLERS[::2])  # half the fillers are out of vocabulary
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=16, num_layers=2, num_heads=2,
                      ffn_size=32, max_len=MAX_LEN, dropout_rate=0.1, seed=4)
    return init_params(cfg), vocab


def encode_all(vocab, dataset):
    return [encode_pair(vocab, q.text, c.text, max_len=MAX_LEN)
            for q in dataset.questions for c in q.candidates]


def test_sorted_batches_match_pairs_scored_alone_and_input_order():
    dataset = make_mixed_length_dataset()
    params, vocab = scoring_model()
    pairs = encode_all(vocab, dataset)
    assert len(pairs) > BATCH_SIZE
    lengths = {int(p.attention_mask.sum()) for p in pairs}
    assert min(lengths) < 12 and MAX_LEN in lengths
    # reference: batches of BATCH_SIZE in input order
    unsorted = []
    for start in range(0, len(pairs), BATCH_SIZE):
        unsorted.extend(forward(params, pairs[start:start + BATCH_SIZE])[0].tolist())
    rankings = rank_dataset(params, vocab, dataset)
    offset = 0
    for q, ranked in zip(dataset.questions, rankings):
        index = {c.answer_id: offset + j for j, c in enumerate(q.candidates)}
        for answer_id, score, _ in ranked.entries:
            alone = float(forward(params, [pairs[index[answer_id]]])[0][0])
            assert abs(score - alone) <= 1e-12
        expected = rank_candidates(q, unsorted[offset:offset + len(q.candidates)])
        assert [e[0] for e in ranked.entries] == [e[0] for e in expected.entries]
        assert np.allclose([e[1] for e in ranked.entries], [e[1] for e in expected.entries],
                           rtol=0, atol=1e-12)
        offset += len(q.candidates)


@pytest.mark.parametrize("dataset", [make_mixed_length_dataset(), one_question_dataset()],
                         ids=["mixed-lengths", "rank-64-answers"])
def test_sorted_batches_forward_each_pair_once_in_length_order(dataset, monkeypatch):
    params, vocab = scoring_model()
    batches = []

    def recording_forward(params, batch, *args, **kwargs):
        batches.append(list(batch))
        return forward(params, batch, *args, **kwargs)
    monkeypatch.setattr(metrics, "forward", recording_forward)
    rank_dataset(params, vocab, dataset)
    expected = encode_all(vocab, dataset)
    assert len(batches) == -(-len(expected) // BATCH_SIZE)
    forwarded = [p for batch in batches for p in batch]

    def key(p):
        return p.token_ids.tobytes()
    assert sorted(map(key, forwarded)) == sorted(map(key, expected))
    lengths = [int(p.attention_mask.sum()) for p in forwarded]
    assert lengths == sorted(lengths)


def test_rank_dataset_rejects_vocab_of_another_size():
    params, vocab = scoring_model()
    other = Vocab(vocab.tokens + ("extra",))
    with pytest.raises(CheckpointError, match="!= vocab size"):
        rank_dataset(params, other, one_question_dataset(3))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_repeated_ranking_takes_no_page_faults():
    """Batches of other lengths reuse the freed heap instead of faulting it in."""
    import resource  # POSIX only, and this test runs on glibc alone
    rnd = random.Random(11)

    def words(n):
        return " ".join(rnd.choice(FILLERS) for _ in range(n))
    questions = tuple(
        Question(f"q{i}", words(6), tuple(CandidateAnswer(f"a{j}", words(150 if j % 2 else 20),
                                                          j == 0) for j in range(10)))
        for i in range(20))
    vocab = build_vocab(FILLERS)
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=32, num_layers=1, num_heads=2,
                      ffn_size=64, max_len=128)
    params = init_params(cfg)
    pairs = metrics.encode_questions(vocab, questions, cfg.max_len)
    metrics.rank_encoded(params, questions, pairs)  # the heap grows to its high-water mark
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        metrics.rank_encoded(params, questions, pairs)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
    assert faults < 100
