import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import pairrank
from pairrank import harness, metrics
from pairrank.cli import main
from pairrank.corpus import filter_evaluable, write_canonical
from pairrank.harness import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    build_training_vocab,
    load_checkpoint,
    save_checkpoint,
)
from pairrank.model import ModelConfig, forward, init_params
from pairrank.textenc import encode_pair

from conftest import make_random_dataset, make_separable_corpus

TRAIN_CONFIG = {
    "model": {"hidden_size": 16, "num_layers": 1, "num_heads": 2, "ffn_size": 32,
              "max_len": 16, "dropout_rate": 0.0, "seed": 1},
    "loss": {"lambda1": 0.5, "lambda2": 0.5, "margin": 0.2, "epsilon": 1e-7},
    "sampling": {"strategy": "cross_product", "seed": 1},
    "optimizer": "adam",
    "learning_rate": 0.003,
    "batch_size": 8,
    "num_epochs": 3,
    "base_seed": 1,
}


@pytest.fixture
def workspace(tmp_path):
    train_path = tmp_path / "train.jsonl"
    dev_path = tmp_path / "dev.jsonl"
    with open(train_path, "w") as f:
        write_canonical(make_separable_corpus(8, num_neg=2, seed=1), f)
    with open(dev_path, "w") as f:
        write_canonical(make_separable_corpus(4, num_neg=2, seed=2), f)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(TRAIN_CONFIG))
    return tmp_path


GOLDEN = Path(__file__).parent / "golden"
# Another CPU's BLAS kernels may round float64 sums differently. Reordering
# the attention scale and the LayerNorm reciprocal that way changed no float32
# parameter and the losses by 1.4e-16 relative. A changed dropout mask or
# triple order moves most parameters by more than 1e-6 (the largest by 0.03)
# and the losses by over 5e-5 relative, so these bounds still catch it.
PARAM_ATOL = 1e-6
LOSS_RTOL = 1e-9


def assert_golden(name: str, outputs: dict[str, bytes]) -> None:
    """Compare a run's output files with those recorded in ``golden/<name>/``.

    Text printed at fixed precision compares exactly; checkpoint parameters
    and history losses within the bounds above. ``epoch_seconds`` is wall
    time, so only its length compares. A missing directory is recorded and
    the test fails: delete one to re-record it on purpose.
    """
    golden = GOLDEN / name
    if not golden.exists():
        golden.mkdir(parents=True)
        for file, data in outputs.items():
            (golden / file).write_bytes(data)
        pytest.fail(f"recorded {golden}; check and commit it")
    assert sorted(outputs) == sorted(p.name for p in golden.iterdir())
    for file, got in outputs.items():
        want = (golden / file).read_bytes()
        if file == "model.ckpt":  # magic, version, header length, JSON header, float32 params
            start = len(CHECKPOINT_MAGIC) + 8
            end = start + struct.unpack("<II", want[len(CHECKPOINT_MAGIC):start])[1]
            assert got[:end] == want[:end]
            np.testing.assert_allclose(np.frombuffer(got[end:], "<f4"),
                                       np.frombuffer(want[end:], "<f4"), rtol=0, atol=PARAM_ATOL)
        elif file == "history.json":
            got, want = json.loads(got), json.loads(want)
            assert [s for s, _ in got["steps"]] == [s for s, _ in want["steps"]]
            np.testing.assert_allclose([loss for _, loss in got["steps"]],
                                       [loss for _, loss in want["steps"]], rtol=LOSS_RTOL)
            assert got["evals"] == want["evals"]
            assert len(got["epoch_seconds"]) == len(want["epoch_seconds"])
            assert sorted(got) == sorted(want)
        else:
            assert got == want, f"{name}/{file} differs from the recorded output"


def run_outputs(out_dir: Path, stdout: str) -> dict[str, bytes]:
    """Every file ``train`` wrote, after checking what it printed against them."""
    history = json.loads((out_dir / "history.json").read_text())
    assert json.loads(stdout) == {"out_dir": str(out_dir), "steps": len(history["steps"]),
                                  "final_loss": history["steps"][-1][1]}
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def run_training(workspace, out_name="run"):
    out_dir = workspace / out_name
    code = main(["train", "--train", str(workspace / "train.jsonl"),
                 "--dev", str(workspace / "dev.jsonl"),
                 "--config", str(workspace / "config.json"),
                 "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir


def test_convert_and_stats(tmp_path, capsys):
    tsv = tmp_path / "in.tsv"
    tsv.write_text("q1\twho wrote hamlet\tshakespeare\t1\n"
                   "q1\twho wrote hamlet\tparis\t0\n")
    out = tmp_path / "out.jsonl"
    assert main(["convert", "--from", "tsv", "--in", str(tsv), "--out", str(out)]) == 0
    assert main(["stats", "--in", str(out)]) == 0
    assert capsys.readouterr().out == (  # in this key order, indented by two spaces
        '{\n  "num_questions": 1,\n  "num_candidates": 2,\n  "num_positive": 1,\n'
        '  "num_negative": 1,\n  "num_answerable": 1,\n  "num_train_pairs": 1\n}\n')


def test_stats_skips_blank_lines(tmp_path, capsys):
    lines = [json.dumps({"question_id": qid, "question_text": "who wrote it", "candidates": [
        {"answer_id": "a1", "text": "shakespeare", "label": True}]}) for qid in ("q1", "q2")]
    data = tmp_path / "blank_lines.jsonl"
    data.write_text("\n" + lines[0] + "\n\n \t \n" + lines[1] + "\n  \n")
    assert main(["stats", "--in", str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["num_questions"] == 2


def test_stats_missing_file_is_data_error(tmp_path):
    assert main(["stats", "--in", str(tmp_path / "nope.jsonl")]) == 2


def test_stats_malformed_file_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    assert main(["stats", "--in", str(bad)]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 1


def test_train_eval_rank_end_to_end(workspace, capsys):
    out_dir = run_training(workspace)
    assert (out_dir / "model.ckpt").exists()
    assert (out_dir / "vocab.txt").exists()
    assert (out_dir / "history.json").exists()
    saved = json.loads((out_dir / "config.json").read_text())
    with open(out_dir / "model.ckpt", "rb") as f:
        assert saved["model"] == asdict(load_checkpoint(f).config)  # vocab_size resolved
    outputs = run_outputs(out_dir, capsys.readouterr().out)

    run_file = workspace / "run.trec"
    code = main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--vocab", str(out_dir / "vocab.txt"),
                 "--data", str(workspace / "dev.jsonl"),
                 "--filter", "require_positive",
                 "--run-file", str(run_file)])
    assert code == 0
    outputs["eval.json"] = capsys.readouterr().out.encode()
    report = json.loads(outputs["eval.json"])
    assert 0.0 <= report["mrr"] <= 1.0
    assert report["filter_mode"] == "require_positive"
    lines = run_file.read_text().splitlines()
    assert all(len(line.split()) == 6 and line.split()[1] == "Q0" for line in lines)

    answers = workspace / "answers.txt"
    answers.write_text("word1 word2 zmarker\nword3 word4\n")
    code = main(["rank", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--vocab", str(out_dir / "vocab.txt"),
                 "--question", "question word1 word2",
                 "--answers", str(answers)])
    assert code == 0
    outputs["rank.txt"] = capsys.readouterr().out.encode()
    out_lines = outputs["rank.txt"].decode().splitlines()
    assert len(out_lines) == 2
    assert out_lines[0].startswith("1\t")
    outputs["run.trec"] = run_file.read_bytes()
    assert_golden("train_eval_rank", outputs)


def test_train_epochs_flag_overrides(workspace):
    out_dir = workspace / "short"
    code = main(["train", "--train", str(workspace / "train.jsonl"),
                 "--config", str(workspace / "config.json"),
                 "--epochs", "1", "--out-dir", str(out_dir)])
    assert code == 0
    saved = json.loads((out_dir / "config.json").read_text())
    assert saved["num_epochs"] == 1


def test_train_seed_flag_sets_all_three_seeds(tmp_path):
    """``--seed 3`` trains as a config setting base_seed, model.seed and sampling.seed to 3."""
    with open(tmp_path / "train.jsonl", "w") as f:
        write_canonical(make_separable_corpus(6, num_neg=3, seed=1), f)

    def checkpoint(base_seed, model_seed, sampling_seed, *flags):
        out_dir = tmp_path / "_".join(map(str, (base_seed, model_seed, sampling_seed, *flags)))
        # batches of 2 of the 6 triples, so base_seed's shuffle changes the updates
        config = {**TRAIN_CONFIG, "num_epochs": 2, "batch_size": 2, "base_seed": base_seed,
                  "model": {**TRAIN_CONFIG["model"], "hidden_size": 8, "seed": model_seed},
                  "sampling": {"strategy": "sampled_k", "k": 1, "seed": sampling_seed}}
        (tmp_path / "seed_config.json").write_text(json.dumps(config))
        assert main(["train", "--train", str(tmp_path / "train.jsonl"),
                     "--config", str(tmp_path / "seed_config.json"),
                     "--out-dir", str(out_dir), *flags]) == 0
        return (out_dir / "model.ckpt").read_bytes()

    flagged = checkpoint(0, 0, 0, "--seed", "3")
    assert flagged == checkpoint(3, 3, 3)
    # each seed matters, so the flag must set all three
    for seeds in [(0, 3, 3), (3, 0, 3), (3, 3, 0)]:
        assert checkpoint(*seeds) != flagged, seeds


def test_eval_vocab_mismatch_is_data_error(workspace, tmp_path):
    out_dir = run_training(workspace)
    bad_vocab = tmp_path / "bad_vocab.txt"
    bad_vocab.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\nextra\n")
    code = main(["eval", "--checkpoint", str(out_dir / "model.ckpt"),
                 "--vocab", str(bad_vocab),
                 "--data", str(workspace / "dev.jsonl")])
    assert code == 2


@pytest.fixture
def model_files(workspace):
    """An untrained checkpoint and vocabulary for the workspace corpora."""
    vocab = build_training_vocab(make_separable_corpus(8, num_neg=2, seed=1))
    params = init_params(ModelConfig(vocab_size=len(vocab), **TRAIN_CONFIG["model"]))
    ckpt, vocab_path = workspace / "init.ckpt", workspace / "init_vocab.txt"
    with open(ckpt, "wb") as f:
        save_checkpoint(params, f)
    with open(vocab_path, "w", encoding="utf-8") as f:
        vocab.save(f)
    return ckpt, vocab_path, params, vocab


def count_forwarded_pairs(monkeypatch) -> list[int]:
    """Patch the scoring path's forward to record each call's batch size."""
    sizes: list[int] = []

    def counting_forward(params, batch, *args, **kwargs):
        sizes.append(len(batch))
        return forward(params, batch, *args, **kwargs)
    monkeypatch.setattr(metrics, "forward", counting_forward)
    return sizes


def run_eval(model_files, workspace, capsys):
    ckpt, vocab_path, _, _ = model_files
    data = make_random_dataset(12, seed=2)  # three questions have no positive
    with open(workspace / "rand.jsonl", "w") as f:
        write_canonical(data, f)
    run_file = workspace / "rand.trec"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                 "--data", str(workspace / "rand.jsonl"), "--run-file", str(run_file)]) == 0
    runs: dict[str, list[tuple[str, int, str]]] = {}
    for line in run_file.read_text().splitlines():
        qid, _, aid, rank, score, _ = line.split()
        runs.setdefault(qid, []).append((aid, int(rank), score))
    return data, json.loads(capsys.readouterr().out), runs


def test_eval_run_file_forwards_each_kept_pair_once(model_files, workspace, capsys, monkeypatch):
    sizes = count_forwarded_pairs(monkeypatch)
    data, report, _ = run_eval(model_files, workspace, capsys)
    kept = filter_evaluable(data, "require_positive")
    assert report["num_questions_skipped"] > 0
    assert sum(sizes) == sum(len(q.candidates) for q in kept.questions)


def test_eval_run_file_matches_report(model_files, workspace, capsys):
    _, _, params, vocab = model_files
    data, report, runs = run_eval(model_files, workspace, capsys)
    _, expected = metrics.evaluate(params, vocab, data)
    assert list(runs) == [r.question_id for r in expected] \
        == [r["question_id"] for r in report["per_question"]]
    labels = {(q.question_id, c.answer_id): c.label for q in data.questions for c in q.candidates}
    for ranked, result in zip(expected, report["per_question"]):
        run = runs[ranked.question_id]
        assert run == [(aid, rank, f"{score:.6f}")
                       for rank, (aid, score, _) in enumerate(ranked.entries, start=1)]
        first_hit = next(rank for aid, rank, _ in run if labels[ranked.question_id, aid])
        assert result["reciprocal_rank"] == 1.0 / first_hit


def test_rank_scores_all_answers_in_one_forward(model_files, workspace, capsys, monkeypatch):
    ckpt, vocab_path, params, vocab = model_files
    question = "question word1 word2"
    answers = [f"word{i % 30} word{(i * 7) % 30}" + (" zmarker" * (i % 3)) for i in range(63)]
    answers.append(answers[5])  # a duplicate answer, so two scores tie
    (workspace / "answers.txt").write_text("\n".join(answers) + "\n")
    sizes = count_forwarded_pairs(monkeypatch)
    capsys.readouterr()
    assert main(["rank", "--checkpoint", str(ckpt), "--vocab", str(vocab_path),
                 "--question", question, "--answers", str(workspace / "answers.txt")]) == 0
    assert sizes == [64]
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [int(rank) for rank, _, _ in lines] == list(range(1, 65))
    assert sorted(answer for _, _, answer in lines) == sorted(answers)
    scores = [float(score) for _, score, _ in lines]
    assert scores == sorted(scores, reverse=True)
    for _, score, answer in lines:
        alone, _ = forward(params, [encode_pair(vocab, question, answer,
                                                max_len=params.config.max_len)])
        assert abs(float(score) - float(alone[0])) <= 1e-6


def rewrite_checkpoint(src: Path, dst: Path, edit_header=lambda h: h, edit_params=lambda b: b,
                       trailing=b"") -> None:
    data = src.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    _, header_len = struct.unpack("<II", data[len(CHECKPOINT_MAGIC):start])
    header = json.dumps(edit_header(json.loads(data[start:start + header_len]))).encode()
    dst.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header))
                    + header + edit_params(data[start + header_len:]) + trailing)


@pytest.mark.parametrize("model_overrides", [{}, {"num_layers": 2, "dropout_rate": 0.1}])
def test_checkpoint_independent_of_blas_threads(workspace, model_overrides):
    config = {**TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], **model_overrides}}
    (workspace / "config.json").write_text(json.dumps(config))
    checkpoints = []
    for threads in ("1", "2"):
        out_dir = workspace / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(Path(pairrank.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, PYTHONWARNINGS="error")
        proc = subprocess.run([sys.executable, "-m", "pairrank", "train",
                               "--train", str(workspace / "train.jsonl"),
                               "--config", str(workspace / "config.json"),
                               "--out-dir", str(out_dir)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        checkpoints.append((out_dir / "model.ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]
    assert_golden("_".join(["train", *(f"{k}_{v}" for k, v in model_overrides.items())]),
                  run_outputs(out_dir, proc.stdout))


def train_with_config(ws: Path, config: dict | list | str, *flags: str) -> list[str]:
    """Train with ``config`` written as JSON, or as given when it is already text."""
    (ws / "bad_config.json").write_text(config if isinstance(config, str) else json.dumps(config))
    return ["train", "--train", str(ws / "train.jsonl"), "--config", str(ws / "bad_config.json"),
            "--out-dir", str(ws / "bad_run"), *flags]


def eval_with_checkpoint(ws: Path, **rewrite) -> list[str]:
    rewrite_checkpoint(ws / "init.ckpt", ws / "bad.ckpt", **rewrite)
    return ["eval", "--checkpoint", str(ws / "bad.ckpt"), "--vocab", str(ws / "init_vocab.txt"),
            "--data", str(ws / "dev.jsonl")]


def eval_with_max_len(ws: Path, max_len: int) -> list[str]:
    """A checkpoint whose header claims ``max_len``, with pos_emb cut to match."""
    vocab_size = len((ws / "init_vocab.txt").read_text().splitlines())
    hidden, old_len = TRAIN_CONFIG["model"]["hidden_size"], TRAIN_CONFIG["model"]["max_len"]
    start = (vocab_size + max_len) * hidden * 4  # pos_emb follows tok_emb
    end = (vocab_size + old_len) * hidden * 4
    return eval_with_checkpoint(ws, edit_header=lambda h: {**h, "max_len": max_len},
                                edit_params=lambda b: b[:start] + b[end:])


def eval_with_vocab(ws: Path, text: str) -> list[str]:
    (ws / "bad_vocab.txt").write_text(text)
    return ["eval", "--checkpoint", str(ws / "init.ckpt"), "--vocab", str(ws / "bad_vocab.txt"),
            "--data", str(ws / "dev.jsonl")]


def rank_with_vocab(ws: Path, text: str) -> list[str]:
    (ws / "bad_vocab.txt").write_text(text)
    (ws / "answers.txt").write_text("word1 word2\nword3\n")
    return ["rank", "--checkpoint", str(ws / "init.ckpt"), "--vocab", str(ws / "bad_vocab.txt"),
            "--question", "question word1", "--answers", str(ws / "answers.txt")]


def rank_of(ws: Path, question: str, answers: str) -> list[str]:
    (ws / "odd_answers.txt").write_text(answers)
    return ["rank", "--checkpoint", str(ws / "init.ckpt"), "--vocab", str(ws / "init_vocab.txt"),
            "--question", question, "--answers", str(ws / "odd_answers.txt")]


def vocab_with_duplicate(ws: Path) -> list[str]:
    """The fixture vocabulary with its sixth token replaced by the fifth (same size)."""
    tokens = (ws / "init_vocab.txt").read_text().splitlines()
    tokens[5] = tokens[4]
    return eval_with_vocab(ws, "\n".join(tokens) + "\n")


def eval_of_data(ws: Path, text: str) -> list[str]:
    (ws / "odd_data.jsonl").write_text(text)
    return ["eval", "--checkpoint", str(ws / "init.ckpt"), "--vocab", str(ws / "init_vocab.txt"),
            "--data", str(ws / "odd_data.jsonl")]


UNANSWERABLE = json.dumps({"question_id": "q1", "question_text": "who wrote it", "candidates": [
    {"answer_id": "a1", "text": "nobody", "label": False}]}) + "\n"  # no correct answer
NO_WRONG_ANSWER = json.dumps({"question_id": "q1", "question_text": "who wrote it", "candidates": [
    {"answer_id": "a1", "text": "shakespeare", "label": True}]}) + "\n"  # so no triple
# json.dumps writes the lone surrogate as the escape \ud800, which json.loads accepts
LONE_SURROGATE = json.dumps({"question_id": "q1", "question_text": "who wrote it", "candidates": [
    {"answer_id": "a1", "text": "shakespeare \ud800", "label": True}]})

# an id is one column of a TREC run file: a space splits it, a newline starts a forged line
SPACE_IN_QUESTION_ID = json.dumps({"question_id": "q 1", "question_text": "who wrote it", "candidates": [
    {"answer_id": "a1", "text": "shakespeare", "label": True}]}) + "\n"
NEWLINE_IN_ANSWER_ID = json.dumps({"question_id": "q1", "question_text": "who wrote it", "candidates": [
    {"answer_id": "a1", "text": "shakespeare", "label": True},
    {"answer_id": "a2\nq9 Q0 x 1 9.0 pairrank", "text": "nobody", "label": False}]}) + "\n"


def train_with_dev(ws: Path, text: str) -> list[str]:
    (ws / "odd_dev.jsonl").write_text(text)
    return train_with_config(ws, TRAIN_CONFIG, "--dev", str(ws / "odd_dev.jsonl"))


def train_on(ws: Path, text: str) -> list[str]:
    (ws / "odd_train.jsonl").write_text(text)
    return ["train", "--train", str(ws / "odd_train.jsonl"), "--config", str(ws / "config.json"),
            "--out-dir", str(ws / "bad_run")]


def train_into_file(ws: Path) -> list[str]:
    (ws / "not_a_dir").write_text("")
    return ["train", "--train", str(ws / "train.jsonl"), "--config", str(ws / "config.json"),
            "--out-dir", str(ws / "not_a_dir")]


def eval_into_file(ws: Path) -> list[str]:
    """``eval`` with a --run-file path under a regular file."""
    (ws / "not_a_dir").write_text("")
    return ["eval", "--checkpoint", str(ws / "init.ckpt"), "--vocab", str(ws / "init_vocab.txt"),
            "--data", str(ws / "dev.jsonl"), "--run-file", str(ws / "not_a_dir" / "run.trec")]


def stats_of_line(ws: Path, line: str) -> list[str]:
    (ws / "odd.jsonl").write_text(line + "\n")
    return ["stats", "--in", str(ws / "odd.jsonl")]


def stats_of_question(ws: Path, **fields) -> list[str]:
    """``stats`` on one question line: a valid question with ``fields`` replaced (None drops one)."""
    obj = {"question_id": "q1", "question_text": "who wrote it",
           "candidates": [{"answer_id": "a1", "text": "shakespeare", "label": True}], **fields}
    return stats_of_line(ws, json.dumps({k: v for k, v in obj.items() if v is not None}))


def eval_with_cut_checkpoint(ws: Path, size: int) -> list[str]:
    """The fixture checkpoint cut to its first ``size`` bytes."""
    (ws / "cut.ckpt").write_bytes((ws / "init.ckpt").read_bytes()[:size])
    return ["eval", "--checkpoint", str(ws / "cut.ckpt"), "--vocab", str(ws / "init_vocab.txt"),
            "--data", str(ws / "dev.jsonl")]


def stats_non_utf8(ws: Path) -> list[str]:
    (ws / "latin1.jsonl").write_bytes(
        '{"question_id": "q1", "question_text": "caf\u00e9", "candidates": []}\n'.encode("latin-1"))
    return ["stats", "--in", str(ws / "latin1.jsonl")]


# malformed input -> (argv builder, expected exit code): 1 usage, 2 data, 3 numerical
MALFORMED = {
    "config-unknown-key": (lambda ws: train_with_config(ws, {**TRAIN_CONFIG, "bogus": 1}), 1),
    "config-unknown-model-key": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], "bogus": 1}}), 1),
    "config-unknown-loss-key": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "loss": {"bogus": 1}}), 1),
    # json writes these as Infinity and NaN, which json.load accepts
    "config-infinite-learning-rate": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "learning_rate": float("inf")}), 1),
    "config-nan-learning-rate": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "learning_rate": float("nan")}), 1),
    "config-nan-lambda1": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "loss": {**TRAIN_CONFIG["loss"], "lambda1": float("nan")}}), 1),
    "config-infinite-lambda2": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "loss": {**TRAIN_CONFIG["loss"], "lambda2": float("inf")}}), 1),
    # a bool is not a number, though Python counts True as 1
    "config-bool-learning-rate": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "learning_rate": True}), 1),
    # a 401-digit integer compares below inf but does not convert to a float
    "config-huge-int-learning-rate": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "learning_rate": 10**400}), 1),
    "config-huge-int-lambda1": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "loss": {**TRAIN_CONFIG["loss"], "lambda1": 10**400}}), 1),
    # sizes and counts must be ints: 8.0 and 16.0 are not, though integral
    "config-float-batch-size": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "batch_size": 8.0}), 1),
    "config-float-hidden-size": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], "hidden_size": 16.0}}), 1),
    # 1.36 PiB of parameters, more than the kernel maps for one process, so it fails at once
    "config-model-too-large": (lambda ws: train_with_config(ws, {**TRAIN_CONFIG, "model": {
        **TRAIN_CONFIG["model"], "hidden_size": 4_000_000, "num_heads": 1, "ffn_size": 4_000_000}}), 1),
    # a vector of over 2**63 bytes, which numpy refuses before allocating anything
    "config-too-many-layers": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "model": {**TRAIN_CONFIG["model"], "num_layers": 10**15}}), 1),
    "config-deep-nesting": (lambda ws: train_with_config(ws, "[" * 100_000 + "]" * 100_000), 1),
    "config-float-sampling-k": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "sampling": {"k": 1.5}}), 1),
    "config-bool-sampling-seed": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "sampling": {"seed": True}}), 1),
    "config-unknown-filter-mode": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "filter_mode": "bogus"}), 1),
    "config-not-object": (lambda ws: train_with_config(ws, []), 1),
    # --epochs and --seed apply to the validated config, not to the raw JSON
    "config-not-object-epochs": (lambda ws: train_with_config(ws, [], "--epochs", "1"), 1),
    "config-null-model-seed": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "model": None}, "--seed", "1"), 1),
    # SGD at this rate drives the logits past +/-709 within a few steps
    "config-sgd-diverges": (lambda ws: train_with_config(
        ws, {**TRAIN_CONFIG, "optimizer": "sgd", "learning_rate": 1e6}), 3),
    "checkpoint-unknown-header-key": (lambda ws: eval_with_checkpoint(
        ws, edit_header=lambda h: {**h, "bogus": 1}), 2),
    "checkpoint-missing-header-key": (lambda ws: eval_with_checkpoint(
        ws, edit_header=lambda h: {k: v for k, v in h.items() if k != "vocab_size"}), 2),
    "checkpoint-float-size": (lambda ws: eval_with_checkpoint(
        ws, edit_header=lambda h: {**h, "max_len": 16.5}), 2),
    "checkpoint-integral-float-size": (lambda ws: eval_with_checkpoint(
        ws, edit_header=lambda h: {**h, "hidden_size": 16.0}), 2),
    "checkpoint-max-len-below-min": (lambda ws: eval_with_max_len(ws, 4), 2),
    # the header implies over 10**16 parameters; the file holds far fewer bytes
    "checkpoint-huge-vocab-size": (lambda ws: eval_with_checkpoint(
        ws, edit_header=lambda h: {**h, "vocab_size": 10**15}), 2),
    # truncated checkpoint parameters, found without building anything per layer
    "checkpoint-too-many-layers": (lambda ws: eval_with_checkpoint(
        ws, edit_header=lambda h: {**h, "num_layers": 10**15}, edit_params=lambda b: b""), 2),
    # magic, version and header length intact, then the JSON header stops after 10 bytes
    "checkpoint-cut-in-config": (lambda ws: eval_with_cut_checkpoint(
        ws, len(CHECKPOINT_MAGIC) + 8 + 10), 2),
    "checkpoint-trailing-bytes": (lambda ws: eval_with_checkpoint(ws, trailing=b"\0" * 4), 2),
    # the parameters start with tok_emb, so this puts one NaN into tok_emb[0, 0]
    "checkpoint-nan-parameter": (lambda ws: eval_with_checkpoint(
        ws, edit_params=lambda b: struct.pack("<f", float("nan")) + b[4:]), 2),
    "vocab-missing-reserved": (lambda ws: eval_with_vocab(ws, "[PAD]\n[UNK]\nword\n[SEP]\n"), 2),
    "vocab-empty": (lambda ws: eval_with_vocab(ws, ""), 2),
    "vocab-duplicate-token": (vocab_with_duplicate, 2),
    "rank-vocab-size-mismatch": (lambda ws: rank_with_vocab(
        ws, "[PAD]\n[UNK]\n[CLS]\n[SEP]\nextra\n"), 2),
    "eval-vocab-size-mismatch": (lambda ws: eval_with_vocab(
        ws, "[PAD]\n[UNK]\n[CLS]\n[SEP]\nextra\n"), 2),
    # a blank --question is a data error, as a blank question_text in a corpus is
    "rank-blank-question": (lambda ws: rank_of(ws, "   ", "word1 word2\n"), 2),
    "rank-empty-answers": (lambda ws: rank_of(ws, "question word1", ""), 2),
    # nothing left to evaluate after filtering is bad data, found before training starts
    "eval-empty-data": (lambda ws: eval_of_data(ws, ""), 2),
    "eval-unevaluable-data": (lambda ws: eval_of_data(ws, UNANSWERABLE), 2),
    "train-unevaluable-dev": (lambda ws: train_with_dev(ws, UNANSWERABLE), 2),
    "train-no-trainable-question": (lambda ws: train_on(ws, NO_WRONG_ANSWER), 2),
    "corpus-not-utf8": (stats_non_utf8, 2),
    "corpus-huge-integer": (lambda ws: stats_of_line(ws, '{"question_id": ' + "1" * 4301 + "}"), 2),
    "corpus-deep-nesting": (lambda ws: stats_of_line(ws, "[" * 100_000), 2),
    "corpus-lone-surrogate": (lambda ws: stats_of_line(ws, LONE_SURROGATE), 2),
    "corpus-empty-question-id": (lambda ws: stats_of_question(ws, question_id=""), 2),
    "corpus-empty-answer-id": (lambda ws: stats_of_question(ws, candidates=[
        {"answer_id": "", "text": "shakespeare", "label": True}]), 2),
    "corpus-missing-candidates": (lambda ws: stats_of_question(ws, candidates=None), 2),
    "corpus-empty-candidates": (lambda ws: stats_of_question(ws, candidates=[]), 2),
    "corpus-candidate-not-object": (lambda ws: stats_of_question(ws, candidates=["shakespeare"]), 2),
    # a label is a JSON boolean: not 1, not "true", not left out
    "corpus-int-label": (lambda ws: stats_of_question(ws, candidates=[
        {"answer_id": "a1", "text": "shakespeare", "label": 1}]), 2),
    "corpus-string-label": (lambda ws: stats_of_question(ws, candidates=[
        {"answer_id": "a1", "text": "shakespeare", "label": "true"}]), 2),
    "corpus-missing-label": (lambda ws: stats_of_question(ws, candidates=[
        {"answer_id": "a1", "text": "shakespeare"}]), 2),
    "eval-space-in-question-id": (lambda ws: eval_of_data(ws, SPACE_IN_QUESTION_ID), 2),
    "eval-newline-in-answer-id": (lambda ws: eval_of_data(ws, NEWLINE_IN_ANSWER_ID), 2),
    # paths that cannot be opened or created are data errors
    "corpus-is-directory": (lambda ws: ["stats", "--in", str(ws)], 2),
    "checkpoint-is-directory": (lambda ws: [
        "eval", "--checkpoint", str(ws), "--vocab", str(ws / "init_vocab.txt"),
        "--data", str(ws / "dev.jsonl")], 2),
    "out-dir-is-file": (train_into_file, 2),
    "run-file-under-file": (eval_into_file, 2),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exit_code(case, model_files, workspace, capsys):
    build_argv, expected = MALFORMED[case]
    code = main(build_argv(workspace))  # pytest's filterwarnings turns warnings into errors here
    err = capsys.readouterr().err
    assert code == expected, err
    assert "Traceback" not in err
    assert err.startswith("error: ")


@pytest.mark.parametrize("case, message", [
    # without the length check, json.loads would reject the cut header with exit 2 too
    ("checkpoint-cut-in-config", "error: truncated checkpoint config\n"),
    # a candidate field's error names its line and question as every corpus error does
    ("corpus-empty-answer-id", "error: line 1: question q1: empty answer_id\n"),
    ("corpus-missing-label", "error: line 1: question q1: answer a1: label must be boolean\n"),
])
def test_malformed_input_message(case, message, model_files, workspace, capsys):
    build_argv, _ = MALFORMED[case]
    main(build_argv(workspace))
    assert capsys.readouterr().err == message


# one row per exit code, run as `python -m pairrank` in a child process
@pytest.mark.parametrize("case", ["config-unknown-key", "corpus-not-utf8", "config-sgd-diverges"])
def test_malformed_input_exit_code_as_subprocess(case, model_files, workspace):
    build_argv, expected = MALFORMED[case]
    env = dict(os.environ, PYTHONPATH=str(Path(pairrank.__file__).parents[1]),
               PYTHONWARNINGS="error")  # as pytest's filterwarnings, which a child does not inherit
    proc = subprocess.run([sys.executable, "-m", "pairrank", *build_argv(workspace)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_unusable_out_dir_fails_before_training(workspace, monkeypatch):
    def must_not_train(*args, **kwargs):
        raise AssertionError("training started before --out-dir was created")
    monkeypatch.setattr(harness, "train", must_not_train)
    assert main(train_into_file(workspace)) == 2


def test_unusable_run_file_fails_before_scoring(model_files, workspace, monkeypatch):
    def must_not_score(*args, **kwargs):
        raise AssertionError("scoring started before --run-file was opened")
    monkeypatch.setattr(metrics, "evaluate", must_not_score)
    assert main(eval_into_file(workspace)) == 2


def test_existing_run_file_kept_when_eval_fails_on_data(model_files, workspace):
    run_file = workspace / "old.trec"
    run_file.write_bytes(b"q1 Q0 a1 1 0.500000 pairrank\n")
    assert main([*eval_of_data(workspace, UNANSWERABLE), "--run-file", str(run_file)]) == 2
    assert run_file.read_bytes() == b"q1 Q0 a1 1 0.500000 pairrank\n"


# each text input -> the command that reads it, given ``mark`` to place that input, and the
# files the command writes; ``mark`` copies a file, with or without a leading byte-order mark
BOM_INPUTS = {
    "corpus": lambda ws, mark: (["stats", "--in", mark(ws / "dev.jsonl")], []),
    "tsv": lambda ws, mark: (["convert", "--from", "tsv", "--in", mark(ws / "in.tsv"),
                              "--out", str(ws / "out.jsonl")], [ws / "out.jsonl"]),
    "config": lambda ws, mark: (
        ["train", "--train", str(ws / "train.jsonl"), "--config", mark(ws / "config.json"),
         "--epochs", "1", "--out-dir", str(ws / "run")],
        [ws / "run" / name for name in ("model.ckpt", "vocab.txt", "config.json")]),
    "vocab": lambda ws, mark: (
        ["rank", "--checkpoint", str(ws / "init.ckpt"), "--vocab", mark(ws / "init_vocab.txt"),
         "--question", "question word1 word2", "--answers", str(ws / "answers.txt")], []),
    "answers": lambda ws, mark: (
        ["rank", "--checkpoint", str(ws / "init.ckpt"), "--vocab", str(ws / "init_vocab.txt"),
         "--question", "question word1 word2", "--answers", mark(ws / "answers.txt")], []),
}


@pytest.mark.parametrize("case", list(BOM_INPUTS))
def test_byte_order_mark_is_skipped(case, model_files, workspace, capsys):
    (workspace / "in.tsv").write_text("q1\twho wrote hamlet\tshakespeare\t1\n"
                                      "q1\twho wrote hamlet\tparis\t0\n")
    (workspace / "answers.txt").write_text("word1 word2 zmarker\nword3 word4\n")
    runs = []
    for bom in ("", "\ufeff"):
        def mark(path: Path) -> str:
            marked = path.with_name("marked_" + path.name)
            marked.write_text(bom + path.read_text(encoding="utf-8"), encoding="utf-8")
            return str(marked)
        argv, written = BOM_INPUTS[case](workspace, mark)
        capsys.readouterr()
        assert main(argv) == 0
        runs.append((capsys.readouterr().out, [path.read_bytes() for path in written]))
    assert runs[0] == runs[1]
