import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairrank.corpus import (
    CandidateAnswer,
    CorpusError,
    Dataset,
    _require_id,
    _require_str,
    Question,
    compute_stats,
    convert_tsv,
    filter_evaluable,
    parse_canonical,
    write_canonical,
)

from conftest import JSON_VALUES, make_random_dataset

ONE_LINE = json.dumps({
    "question_id": "q1",
    "question_text": "who wrote hamlet",
    "candidates": [
        {"answer_id": "a1", "text": "shakespeare wrote it", "label": True},
        {"answer_id": "a2", "text": "paris is in france", "label": False},
    ],
})


def roundtrip(ds: Dataset) -> Dataset:
    buf = io.StringIO()
    write_canonical(ds, buf)
    buf.seek(0)
    return parse_canonical(buf)


def test_parse_single_line():
    ds = parse_canonical(io.StringIO(ONE_LINE))
    assert len(ds.questions) == 1
    q = ds.questions[0]
    assert q.question_id == "q1"
    assert [c.answer_id for c in q.candidates] == ["a1", "a2"]
    assert [c.label for c in q.candidates] == [True, False]


def test_parse_empty_stream():
    ds = parse_canonical(io.StringIO(""))
    assert ds.questions == ()


def test_parse_duplicate_answer_id():
    obj = json.loads(ONE_LINE)
    obj["candidates"][1]["answer_id"] = "a1"
    with pytest.raises(CorpusError, match=r"q1.*a1"):
        parse_canonical(io.StringIO(json.dumps(obj)))


def test_parse_duplicate_question_id():
    with pytest.raises(CorpusError, match="duplicate question_id"):
        parse_canonical(io.StringIO(ONE_LINE + "\n" + ONE_LINE))


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(CorpusError, match="line 2"):
        parse_canonical(io.StringIO(ONE_LINE + "\n{not json"))


def test_parse_empty_text_rejected():
    obj = json.loads(ONE_LINE)
    obj["candidates"][0]["text"] = "   "
    with pytest.raises(CorpusError, match="empty text"):
        parse_canonical(io.StringIO(json.dumps(obj)))


def test_unknown_fields_warn_and_roundtrip(caplog):
    obj = json.loads(ONE_LINE)
    obj["source"] = "wiki"
    obj["lang"] = "en"
    obj["candidates"][0]["rank_feature"] = 3
    with caplog.at_level("WARNING"):
        ds = parse_canonical(io.StringIO(json.dumps(obj)))
    # each names its line and question, and a candidate's its answer, as every corpus error does
    assert caplog.messages == [
        "ignoring unknown field 'rank_feature' (line 1: question q1: answer a1)",
        "ignoring unknown field 'source' (line 1: question q1)",
        "ignoring unknown field 'lang' (line 1: question q1)"]
    again = roundtrip(ds)
    assert again == ds == parse_canonical(io.StringIO(ONE_LINE))  # the unknown fields are dropped
    buf = io.StringIO()
    write_canonical(ds, buf)
    assert buf.getvalue() == ONE_LINE + "\n"


def test_roundtrip_identity_small():
    ds = parse_canonical(io.StringIO(ONE_LINE))
    assert roundtrip(ds) == ds


def test_write_one_line_per_question():
    ds = make_random_dataset(3, seed=5)
    buf = io.StringIO()
    write_canonical(ds, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert [json.loads(ln)["question_id"] for ln in lines] == ["q0", "q1", "q2"]


def test_write_empty_dataset():
    buf = io.StringIO()
    write_canonical(Dataset(()), buf)
    assert buf.getvalue() == ""


def test_stats_basic():
    q = Question(question_id="q", text="t", candidates=tuple(
        [CandidateAnswer(f"p{i}", "x", True) for i in range(2)]
        + [CandidateAnswer(f"n{i}", "x", False) for i in range(3)]))
    stats = compute_stats(Dataset((q,)))
    assert stats["num_train_pairs"] == 6
    assert stats["num_positive"] == 2
    assert stats["num_negative"] == 3
    assert stats["num_answerable"] == 1


def test_stats_empty():
    stats = compute_stats(Dataset(()))
    assert stats == dict.fromkeys(stats, 0)


def test_stats_invariants_and_order_invariance():
    ds = make_random_dataset(40, seed=11)
    stats = compute_stats(ds)
    assert stats["num_positive"] + stats["num_negative"] == stats["num_candidates"]
    reversed_ds = Dataset(tuple(reversed(ds.questions)))
    assert compute_stats(reversed_ds) == stats


def _mini_filter_dataset():
    q1 = Question("q1", "t", (CandidateAnswer("a", "x", True),
                              CandidateAnswer("b", "x", False)))
    q2 = Question("q2", "t", (CandidateAnswer("a", "x", False),
                              CandidateAnswer("b", "x", False)))
    return Dataset((q1, q2))


def test_filter_keep_all_is_identity():
    ds = _mini_filter_dataset()
    assert filter_evaluable(ds, "keep_all") == ds


@pytest.mark.parametrize("mode", ["require_positive", "require_both"])
def test_filter_drops_unanswerable(mode):
    ds = _mini_filter_dataset()
    out = filter_evaluable(ds, mode)
    assert [q.question_id for q in out.questions] == ["q1"]


@pytest.mark.parametrize("mode", ["keep_all", "require_positive", "require_both"])
def test_filter_idempotent(mode):
    ds = make_random_dataset(30, seed=3)
    once = filter_evaluable(ds, mode)
    assert filter_evaluable(once, mode) == once


def test_filter_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown filter mode"):
        filter_evaluable(_mini_filter_dataset(), "bogus")


def _one_label_dataset(label: bool) -> Dataset:
    return Dataset(tuple(
        Question(f"q{i}", "t", (CandidateAnswer("a", "x", label),
                                CandidateAnswer("b", "y", label))) for i in range(3)))


@pytest.mark.parametrize("mode, ds", [
    ("keep_all", Dataset(())),
    ("require_positive", Dataset(())),
    ("require_positive", _one_label_dataset(False)),
    ("require_both", _one_label_dataset(False)),
    ("require_both", _one_label_dataset(True)),
])
def test_filter_raises_when_nothing_is_left(mode, ds):
    with pytest.raises(CorpusError, match="no questions left"):
        filter_evaluable(ds, mode)


def test_convert_tsv():
    rows = [
        "q1\twho wrote hamlet\tshakespeare wrote it\t1",
        "q1\twho wrote hamlet\tparis is in france\t0",
        "q2\tcapital of france\tparis\t1",
    ]
    ds = convert_tsv(rows)
    assert [q.question_id for q in ds.questions] == ["q1", "q2"]
    assert [c.answer_id for c in ds.questions[0].candidates] == ["a0", "a1"]
    assert ds.questions[0].candidates[0].label is True


def test_convert_tsv_bad_label():
    with pytest.raises(CorpusError, match="label"):
        convert_tsv(["q1\tt\ta\t2"])


def test_convert_tsv_non_contiguous():
    with pytest.raises(CorpusError, match="contiguous"):
        convert_tsv(["q1\tt\ta\t1", "q2\tt\tb\t1", "q1\tt\tc\t0"])


@pytest.mark.parametrize("rows,message", [
    # a question-level error names the question's first row
    (["q1\tt\ta\t1", "q1\tt\tb\t0", "q2 x\tt\tc\t1"],
     "line 3: field 'question_id' contains whitespace"),
    (["q1\tt\ta\t1", "q1\tt\tb\t0", "q2\t \tc\t1", "q2\tt\td\t0"],
     "line 3: question q2: empty question_text"),
    # an answer-level error names the candidate's own row, blank rows counted
    (["q1\tt\ta\t1", "", "q1\tt\t \t0"], "line 3: question q1: answer a1: empty text"),
    (["q1\tt\ta\t1", "q1\tt\t\t0"], "line 2: question q1: answer a1: empty text"),
    # rows of one question must agree on its text
    (["q1\twho wrote hamlet\ta\t1", "q1\twho wrote macbeth\tb\t0"],
     "line 2: question q1: question_text differs from its first row"),
    # rows are checked in order, so the first faulty row is the one reported
    (["q1\tt\ta\t1", "q 1\tt\tb\t0", "q1\tt\tc\t0"],
     "line 2: field 'question_id' contains whitespace"),
    (["q1\tt\ta\t1", "q1\tt\t\t0", "q1\tt\tc\t0", "q1\tt\td\tx"],
     "line 2: question q1: answer a1: empty text"),
    (["q1\t \ta\t1", "q1\t \tb\t0", "q2\tt"], "line 1: question q1: empty question_text"),
    # a candidate field's error names its row and question with a colon after each
    (["q1\tt\ta\ud800\t1"], "line 1: question q1: field 'text' is not valid Unicode"),
])
def test_convert_tsv_errors_name_the_tsv_row(rows, message):
    with pytest.raises(CorpusError) as exc:
        convert_tsv(rows)
    assert str(exc.value) == message


# TSV rows, mostly well-formed; "q 1", " ", "" and "x" are a bad id, question text,
# answer text and label, and the fixed rows have a blank line and wrong column counts
TSV_ROWS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["q1", "q2", "q3", "q 1"]), st.sampled_from(["t", "u", " "]),
              st.sampled_from(["a", "b", ""]), st.sampled_from(["0", "1", "x"])).map("\t".join),
    st.sampled_from(["", "q1\tt", "q2\tt\ta\t1\t0"])), max_size=8)


@settings(max_examples=200, deadline=None)
@given(TSV_ROWS)
def test_convert_tsv_reports_the_first_faulty_row(rows):
    try:
        dataset = convert_tsv(rows)
    except CorpusError as exc:
        lineno = int(re.match(r"line (\d+): ", str(exc)).group(1))
        convert_tsv(rows[:lineno - 1])  # every row before the reported one converts
        return
    assert roundtrip(dataset) == dataset


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=0, max_value=25))
def test_roundtrip_identity_property(seed, n):
    ds = make_random_dataset(n, seed=seed)
    assert roundtrip(ds) == ds


def with_one_edit(objs, keys):
    """``objs`` with at most one of ``keys`` set to any JSON value or removed."""
    drop = object()
    edits = st.dictionaries(st.sampled_from(keys), JSON_VALUES | st.just(drop), max_size=1)
    return st.builds(lambda obj, edit: {k: v for k, v in {**obj, **edit}.items() if v is not drop},
                     objs, edits)


# canonical objects, some with one field broken; "note" is an unknown field
CANDIDATE_OBJS = with_one_edit(st.fixed_dictionaries({
    "answer_id": st.text(min_size=1, max_size=2),
    "text": st.text(min_size=1, max_size=4),
    "label": st.booleans(),
}), ["answer_id", "text", "label", "note"])
QUESTION_OBJS = with_one_edit(st.fixed_dictionaries({
    "question_id": st.text(min_size=1, max_size=2),
    "question_text": st.text(min_size=1, max_size=4),
    "candidates": st.lists(CANDIDATE_OBJS, min_size=1, max_size=3),
}), ["question_id", "question_text", "candidates", "note"])


# JSON lines of such objects or other values, or any text at all
CORPUS_TEXTS = st.lists(QUESTION_OBJS | JSON_VALUES, max_size=4).map(
    lambda objs: "".join(json.dumps(o) + "\n" for o in objs)) | st.text()


@settings(max_examples=100, deadline=None)
@given(CORPUS_TEXTS)
@example('{"question_id": ' + "1" * 4301 + "}")  # past int's 4,300-digit limit
@example("[" * 100_000)  # deeper than the recursion limit
@example(json.dumps({**json.loads(ONE_LINE), "question_text": "who \ud800"}))  # a lone surrogate
@example(json.dumps({**json.loads(ONE_LINE), "note": "\ud800"}))  # one in an unknown field
def test_parse_canonical_fuzz(text):
    try:
        dataset = parse_canonical(io.StringIO(text))
    except CorpusError:
        return
    assert isinstance(dataset, Dataset)
    out = io.StringIO()
    write_canonical(dataset, out)
    out.getvalue().encode("utf-8")  # what parses also writes back to a UTF-8 file


def accepts(check, value: str) -> bool:
    try:
        check({"field": value}, "field", "here")
    except CorpusError:
        return False
    return True


def accepted_by_full_scan(value: str, is_id: bool) -> bool:
    """The checks as a per-character scan: no lone surrogate, and an id is a
    non-empty string without whitespace."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return not is_id or (value != "" and not any(ch.isspace() for ch in value))


# any code point, surrogates included, with every whitespace character str.isspace accepts
ANY_TEXT = st.text(st.characters(exclude_categories=())
                   | st.sampled_from([chr(c) for c in range(0x110000) if chr(c).isspace()]))


@given(ANY_TEXT)
@example("")
@example("a\u2028b")
@example("\x1f")
@example("a\ud800")
def test_string_checks_match_the_full_scan(value):
    assert accepts(_require_str, value) == accepted_by_full_scan(value, is_id=False)
    assert accepts(_require_id, value) == accepted_by_full_scan(value, is_id=True)
