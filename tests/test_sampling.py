import numpy as np
import pytest

from pairrank import sampling
from pairrank.corpus import CandidateAnswer, Dataset, Question, compute_stats
from pairrank.rng import DeterministicRng, _mix64, _mix64_array
from pairrank.sampling import SamplingConfig, generate_triples, shuffle_triples

from conftest import make_random_dataset


def two_pos_three_neg():
    q = Question("q1", "t", (
        CandidateAnswer("p1", "x", True),
        CandidateAnswer("p2", "x", True),
        CandidateAnswer("n1", "x", False),
        CandidateAnswer("n2", "x", False),
        CandidateAnswer("n3", "x", False),
    ))
    return Dataset((q,))


def test_cross_product_order():
    triples = generate_triples(two_pos_three_neg(), SamplingConfig())
    assert [(t.positive_id, t.negative_id) for t in triples] == [
        ("p1", "n1"), ("p1", "n2"), ("p1", "n3"),
        ("p2", "n1"), ("p2", "n2"), ("p2", "n3"),
    ]


def test_sampled_k_exhausts_when_k_large():
    ds = two_pos_three_neg()
    cross = generate_triples(ds, SamplingConfig())
    sampled = generate_triples(ds, SamplingConfig(strategy="sampled_k", k=3, seed=9))
    assert sorted(map(str, sampled)) == sorted(map(str, cross))


def test_sampled_k_subset_of_cross_product():
    ds = make_random_dataset(30, seed=2)
    cross = set(map(str, generate_triples(ds, SamplingConfig())))
    sampled = generate_triples(ds, SamplingConfig(strategy="sampled_k", k=2, seed=4))
    assert set(map(str, sampled)) <= cross


def test_sampled_k_deterministic():
    ds = make_random_dataset(30, seed=2)
    cfg = SamplingConfig(strategy="sampled_k", k=2, seed=7)
    assert generate_triples(ds, cfg) == generate_triples(ds, cfg)


def test_sampled_k_different_seeds_differ():
    ds = make_random_dataset(50, seed=2)
    a = generate_triples(ds, SamplingConfig(strategy="sampled_k", k=1, seed=1))
    b = generate_triples(ds, SamplingConfig(strategy="sampled_k", k=1, seed=2))
    assert a != b


def test_cross_product_count_matches_stats():
    ds = make_random_dataset(80, seed=13)
    triples = generate_triples(ds, SamplingConfig())
    assert len(triples) == compute_stats(ds)["num_train_pairs"]


def test_triples_valid_against_dataset():
    ds = make_random_dataset(40, seed=21)
    labels = {(q.question_id, c.answer_id): c.label
              for q in ds.questions for c in q.candidates}
    for t in generate_triples(ds, SamplingConfig(strategy="sampled_k", k=2, seed=3)):
        assert labels[(t.question_id, t.positive_id)] is True
        assert labels[(t.question_id, t.negative_id)] is False
        assert t.positive_id != t.negative_id


def test_degenerate_questions_contribute_nothing():
    q = Question("q1", "t", (CandidateAnswer("a", "x", False),))
    ds = Dataset((q,))
    assert generate_triples(ds, SamplingConfig()) == []


def mixed_trainability():
    """q1 has no positive, q3 and q5 no negative; q2, q4 and q6 are trainable."""
    def q(qid, labels):
        return Question(qid, "t", tuple(CandidateAnswer(f"a{i}", "x", l) for i, l in enumerate(labels)))
    return Dataset((
        q("q1", [False, False, False]), q("q2", [True, False, False, False]), q("q3", [True, True]),
        q("q4", [False, True, False, True, False]), q("q5", [True]), q("q6", [False, True, False])))


@pytest.mark.parametrize("config,expected,next_draws", [
    (SamplingConfig(),
     ["q2 a0 a1", "q2 a0 a2", "q2 a0 a3", "q4 a1 a0", "q4 a1 a2", "q4 a1 a4", "q4 a3 a0",
      "q4 a3 a2", "q4 a3 a4", "q6 a1 a0", "q6 a1 a2"],
     [0.3002606470267336, 0.6884792466662293]),
    (SamplingConfig(strategy="sampled_k", k=2, seed=5),
     ["q2 a0 a1", "q2 a0 a2", "q4 a1 a0", "q4 a1 a4", "q4 a3 a0", "q4 a3 a4", "q6 a1 a0",
      "q6 a1 a2"],
     [0.5075512012743356, 0.5295444112276114]),
])
def test_untrainable_questions_golden(monkeypatch, config, expected, next_draws):
    # recorded when untrainable questions were skipped before sampling: they draw nothing
    made = []

    class RecordingRng(DeterministicRng):
        def __init__(self, seed, stream):
            super().__init__(seed, stream)
            made.append(self)
    monkeypatch.setattr(sampling, "DeterministicRng", RecordingRng)
    triples = generate_triples(mixed_trainability(), config)
    assert [f"{t.question_id} {t.positive_id} {t.negative_id}" for t in triples] == expected
    [rng] = made
    assert rng.uniform(2).tolist() == next_draws


def test_shuffle_empty():
    assert shuffle_triples([], seed=1) == []


def test_shuffle_deterministic_permutation():
    triples = generate_triples(two_pos_three_neg(), SamplingConfig())
    a = shuffle_triples(triples, seed=5)
    b = shuffle_triples(triples, seed=5)
    assert a == b
    assert sorted(map(str, a)) == sorted(map(str, triples))
    assert shuffle_triples(triples, seed=6) != a or len(triples) <= 1


def test_bulk_draw_helpers_match_one_draw_per_element():
    # one uniform(1) per element, as the helpers drew before they drew in bulk
    def shuffled_ref(rng, n):
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rng.uniform(1)[0] * (i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def sample_ref(rng, n, k):
        idx = list(range(n))
        for i in range(min(k, n)):
            j = i + int(rng.uniform(1)[0] * (n - i))
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:min(k, n)]

    for n, k in ((0, 1), (1, 1), (2, 5), (37, 4), (37, 37)):
        fast, ref = DeterministicRng(3, stream=9), DeterministicRng(3, stream=9)
        assert fast.shuffled_indices(n) == shuffled_ref(ref, n)
        assert fast.sample_without_replacement(n, k) == sample_ref(ref, n, k)
        assert np.array_equal(fast.uniform(2), ref.uniform(2))  # same number of draws


@pytest.mark.parametrize("seed,stream,expected", [
    (0, 0, [0.8833108082136426, 0.43152799704850997, 0.026433771592597743, 0.9708819781538285]),
    (7, 202, [0.032152277289431264, 0.3737697279558354, 0.5104581297430915, 0.6671169073658715]),
    (-3, 1, [0.8065710930421979, 0.9287745479953557, 0.6023734742608811, 0.6894976039077539]),
    (2 ** 64 + 5, 9, [0.9704738073905679, 0.2378587201682968, 0.18067123412007635,
                      0.6996947071506819]),
])
def test_uniform_golden_values(seed, stream, expected):
    # recorded from the generator as specified; a change here changes every stream
    assert DeterministicRng(seed, stream).uniform(4).tolist() == expected


def test_mix64_matches_array_version():
    values = np.random.default_rng(0).integers(0, 2 ** 64, size=10_000, dtype=np.uint64)
    assert [_mix64(int(v)) for v in values] == _mix64_array(values.copy()).tolist()
    # the scalar version reduces modulo 2**64 first
    for v in (0, 2 ** 64 - 1, -1, 2 ** 70 + 5):
        assert _mix64(v) == int(_mix64_array(np.array([v % 2 ** 64], dtype=np.uint64))[0])


def test_invalid_config():
    with pytest.raises(ValueError):
        SamplingConfig(strategy="nope")
    with pytest.raises(ValueError):
        SamplingConfig(k=0)
