"""One traced round: the benchmark's tracer over train, eval and rank.

``perfbench/spans.py`` wraps program functions by name and reads their
arguments (each ``forward`` batch element's ``attention_mask``, for one), so a
program change can break ``perfbench/run.py --trace 1`` while every other
test passes. This runs each traced path once under that tracer.
"""

import sys
from pathlib import Path

from pairrank import harness
from pairrank.cli import main
from pairrank.corpus import parse_canonical
from pairrank.harness import TrainConfig

from test_cli import TRAIN_CONFIG, model_files, workspace  # noqa: F401 (fixtures)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import Tracer  # noqa: E402


def test_traced_round(model_files, workspace):  # noqa: F811
    ckpt, vocab_path, _, _ = model_files
    with open(workspace / "train.jsonl", encoding="utf-8") as f:
        train_set = parse_canonical(f)
    with open(workspace / "dev.jsonl", encoding="utf-8") as f:
        dev_set = parse_canonical(f)
    (workspace / "answers.txt").write_text("word1 word2\nword3\n")
    model_args = ["--checkpoint", str(ckpt), "--vocab", str(vocab_path)]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = "round"
        _, _, history = harness.train(TrainConfig.from_dict({**TRAIN_CONFIG, "num_epochs": 1}),
                                      train_set, dev_set)
        assert main(["eval", *model_args, "--data", str(workspace / "dev.jsonl")]) == 0
        assert main(["rank", *model_args, "--question", "question word1",
                     "--answers", str(workspace / "answers.txt")]) == 0
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(
        setups=1, rounds=1, rank50_requests=0, overhead_s=0.0).items()}
    assert metrics["harness.steps"] == len(history.steps)
    assert metrics["model.forward_calls"] > 0
    assert metrics["textenc.pairs_encoded"] > 0
    assert 0 <= metrics["model.pad_fraction"] < 1
