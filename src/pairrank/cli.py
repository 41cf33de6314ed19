"""Command-line interface.

Subcommands: convert, stats, train, eval, rank. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import corpus, harness, metrics
from .harness import CheckpointError, NumericalAbort, TrainConfig
from .textenc import Vocab

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_dataset(path: str) -> corpus.Dataset:
    with open(path, encoding="utf-8-sig") as f:  # as every text input: skips a byte-order mark
        return corpus.parse_canonical(f)


def _load_model(checkpoint_path: str, vocab_path: str):
    with open(checkpoint_path, "rb") as f:
        params = harness.load_checkpoint(f)
    with open(vocab_path, encoding="utf-8-sig") as f:
        try:
            vocab = Vocab.load(f)
        except ValueError as exc:  # empty, not the reserved tokens first, or a token twice
            raise CheckpointError(f"bad vocab file: {exc}") from exc
    if params.config.vocab_size != len(vocab):
        raise CheckpointError(
            f"checkpoint vocab_size {params.config.vocab_size} != vocab size {len(vocab)}")
    return params, vocab


def cmd_convert(args) -> None:
    with open(args.infile, encoding="utf-8-sig") as f:
        ds = corpus.convert_tsv(f)
    with open(args.outfile, "w", encoding="utf-8") as f:
        corpus.write_canonical(ds, f)


def cmd_stats(args) -> None:
    ds = _load_dataset(args.infile)
    print(json.dumps(corpus.compute_stats(ds), indent=2))


def cmd_train(args) -> None:
    with open(args.config, encoding="utf-8-sig") as f:
        try:
            raw = json.load(f)
        except RecursionError as exc:  # nested deeper than the parser's stack
            raise ValueError(f"bad train config: {exc}") from exc
    config = TrainConfig.from_dict(raw)
    if args.epochs is not None:
        config = replace(config, num_epochs=args.epochs)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed, model=replace(config.model, seed=args.seed),
                         sampling=replace(config.sampling, seed=args.seed))
    train_set = _load_dataset(args.train)
    dev_set = _load_dataset(args.dev) if args.dev else None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out-dir fails before training
    params, vocab, history = harness.train(config, train_set, dev_set)
    with open(out / "model.ckpt", "wb") as f:
        harness.save_checkpoint(params, f)
    with open(out / "vocab.txt", "w", encoding="utf-8") as f:
        vocab.save(f)
    with open(out / "history.json", "w", encoding="utf-8") as f:
        json.dump(asdict(history), f, indent=2)
    with open(out / "config.json", "w", encoding="utf-8") as f:  # with the resolved vocab_size
        json.dump(asdict(replace(config, model=params.config)), f, indent=2, sort_keys=True)
    print(json.dumps({"out_dir": str(out), "steps": len(history.steps),
                      "final_loss": history.steps[-1][1]}))


def cmd_eval(args) -> None:
    params, vocab = _load_model(args.checkpoint, args.vocab)
    if args.run_file:  # an unusable path fails before scoring; appending keeps an existing file
        open(args.run_file, "a", encoding="utf-8").close()
    report, rankings = metrics.evaluate(params, vocab, _load_dataset(args.data),
                                        filter_mode=args.filter)
    if args.run_file:
        with open(args.run_file, "w", encoding="utf-8") as f:
            metrics.write_trec_run(rankings, f)
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_rank(args) -> None:
    if not args.question.strip():
        raise corpus.CorpusError("--question is empty")
    params, vocab = _load_model(args.checkpoint, args.vocab)
    with open(args.answers, encoding="utf-8-sig") as f:
        answers = [line.strip() for line in f if line.strip()]
    if not answers:
        raise corpus.CorpusError("answers file is empty")
    # one unlabeled question whose answer ids are the input line indices
    question = corpus.Question("rank", args.question, tuple(
        corpus.CandidateAnswer(str(i), a, False) for i, a in enumerate(answers)))
    [ranked] = metrics.rank_dataset(params, vocab, corpus.Dataset((question,)))
    for rank, (answer_id, score, _) in enumerate(ranked.entries, start=1):
        print(f"{rank}\t{score:.6f}\t{answers[int(answer_id)]}")


def build_parser() -> _Parser:
    parser = _Parser(prog="pairrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a corpus to canonical JSONL")
    p.add_argument("--from", dest="from_format", required=True, choices=["tsv"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="print dataset statistics as JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--filter", default="require_positive", choices=list(corpus.FILTER_MODES))
    p.add_argument("--run-file", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rank", help="rank ad-hoc candidate answers for a question")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--answers", required=True, help="text file, one candidate per line")
    p.set_defaults(func=cmd_rank)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place where an outcome becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NumericalAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (corpus.CorpusError, CheckpointError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, MemoryError) as exc:  # json.JSONDecodeError, or a model too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
