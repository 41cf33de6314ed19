import random

from hypothesis import strategies as st

from pairrank.corpus import CandidateAnswer, Dataset, Question

FILLERS = [f"word{i}" for i in range(30)]
MARKER = "zmarker"

# any JSON value; json writes and reads NaN and the infinities too
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def make_separable_corpus(num_questions: int, num_neg: int = 4, seed: int = 0,
                          split: str = "train", name: str = "synthetic") -> Dataset:
    """Corpus where positives contain a marker token and negatives never do.

    A bag-of-tokens rule ("answer contains the marker") ranks perfectly, so
    any working training loop should drive MRR to 1 on it.
    """
    rnd = random.Random(seed)
    questions = []
    for i in range(num_questions):
        fillers = rnd.sample(FILLERS, 3)
        qtext = "question " + " ".join(fillers)
        cands = [CandidateAnswer(answer_id="a0",
                                 text=" ".join(rnd.sample(FILLERS, 2)) + f" {MARKER}",
                                 label=True)]
        for j in range(num_neg):
            cands.append(CandidateAnswer(answer_id=f"a{j + 1}",
                                         text=" ".join(rnd.sample(FILLERS, 3)),
                                         label=False))
        order = rnd.sample(range(len(cands)), len(cands))
        questions.append(Question(question_id=f"q{i}", text=qtext,
                                  candidates=tuple(cands[k] for k in order)))
    return Dataset(name=name, split=split, questions=tuple(questions))


def make_random_dataset(num_questions: int, max_candidates: int = 10, seed: int = 0,
                        split: str = "test", allow_no_positive: bool = True) -> Dataset:
    """Fuzzed dataset with random texts and labels."""
    rnd = random.Random(seed)
    questions = []
    for i in range(num_questions):
        n = rnd.randint(1, max_candidates)
        cands = []
        for j in range(n):
            text = " ".join(rnd.choice(FILLERS) for _ in range(rnd.randint(1, 6)))
            cands.append(CandidateAnswer(answer_id=f"a{j}", text=text,
                                         label=rnd.random() < 0.35))
        if not allow_no_positive and not any(c.label for c in cands):
            j = rnd.randrange(n)
            cands[j] = CandidateAnswer(answer_id=cands[j].answer_id,
                                       text=cands[j].text, label=True)
        questions.append(Question(
            question_id=f"q{i}",
            text=" ".join(rnd.choice(FILLERS) for _ in range(rnd.randint(2, 8))),
            candidates=tuple(cands)))
    return Dataset(name="fuzz", split=split, questions=tuple(questions))
