"""The three workloads: what each runs, times and checks.

Every workload generates its corpora from the seed, times the program's
set-up several times, then repeats whole rounds of its operations while the
next round is predicted to end inside the window (training: at least two
rounds, so that determinism is always checked). Every operation's output
is checked against the oracles in ``oracle.py``; an operation that raises,
exits non-zero or fails a check is counted in ``failed``.

* train-short / train-long: a round is one ``harness.train`` call. After the
  window a small serving probe (three ``eval`` commands and a ``rank`` loop
  on the dev set) supplies the serving metrics.
* serve: set-up trains and saves the served checkpoint. A round is one
  ``eval --run-file`` command on the test corpus followed by ``rank``
  requests with 50 and with 1 candidates.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Program functions are reached through their modules, so that a traced run
# sees the wrappers that Tracer.install puts there.
from pairrank import cli, corpus, harness, metrics, sampling

import gen
import oracle
from gen import Shape
from oracle import CheckFailed, require
from spans import Tracer

MODEL = {"hidden_size": 32, "num_layers": 1, "num_heads": 2, "ffn_size": 64,
         "max_len": 128, "dropout_rate": 0.1}
BATCH_SIZE = 16
LEARNING_RATE = 0.005
# Short answers and question lengths (gen.MAX_Q_WORDS) follow WikiQA's mean
# lengths, candidate counts its triples per answerable question and
# unanswerable questions its share of them (see README). Long answers are
# not WikiQA's: they fill or truncate to max_len.
SHORT, LONG = (10, 40), (120, 200)
CANDIDATES = (8, 12)
# The final MRR must close REACH of the gap from chance to the best MRR the
# signal allows, and must not exceed gen.mrr_ceiling.
REACH = 0.6
REFERENCE_PAIRS = 8
# rank prints scores with 6 decimals; eval and rank batch pairs differently,
# so the same pair may round one step apart
RANK_SCORE_TOL = 2e-6
RANK50_PER_ROUND, RANK1_PER_RANK50 = 4, 5
PROBE_ROUNDS = 2
TRACE_ROUND_SPANS = 20000


@dataclass(frozen=True)
class Spec:
    train: Shape
    held_out: Shape          # dev set (training workloads) or test set (serve)
    epochs: int
    eval_every: int | None   # steps between dev evaluations; None = once, at the end
    # set-ups timed before the first round, after every round, and after the
    # last operation
    setups: tuple[int, int, int]
    serve: bool = False


# Held-out corpora hold answerable questions only, as the filtered WikiQA
# dev and test splits do.
WORKLOADS = {
    "train-short": Spec(
        train=Shape(questions=40, unanswerable=58, candidates=CANDIDATES, answer_words=SHORT),
        held_out=Shape(questions=60, candidates=CANDIDATES, answer_words=SHORT),
        epochs=2, eval_every=18, setups=(4, 4, 4)),
    "train-long": Spec(
        train=Shape(questions=20, unanswerable=29, candidates=CANDIDATES, answer_words=LONG),
        held_out=Shape(questions=60, candidates=CANDIDATES, answer_words=LONG),
        epochs=2, eval_every=None, setups=(4, 4, 4)),
    "serve": Spec(
        train=Shape(questions=20, unanswerable=29, candidates=CANDIDATES, answer_words=SHORT,
                    long_answer_words=LONG),
        held_out=Shape(questions=80, candidates=CANDIDATES, answer_words=SHORT,
                       long_answer_words=LONG),
        epochs=3, eval_every=None, setups=(2, 0, 1), serve=True),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _mid_mean(values):
    """Mean of the middle half of the sorted values. Unlike the median, it
    moves smoothly with the share of samples taken in the machine's slow
    episodes, and unlike the mean it ignores the odd outlier."""
    values = sorted(values)
    quarter = len(values) // 4
    return statistics.fmean(values[quarter:len(values) - quarter]) if values else 0.0


class Bench:
    """One workload run: corpora, files, tracer, timings and operation counts."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.name, self.spec = name, WORKLOADS[name]
        self.seed, self.seconds, self.workdir = seed, seconds, workdir
        self.tracer = Tracer() if trace else None
        self.attempted = self.failed = 0
        self.global_ok = True
        self.train_rates: list[float] = []
        self.eval_s: list[float] = []
        self.rank_ms: dict[int, list[float]] = {1: [], 50: []}
        self.mrr = self.eval_mrr = 0.0
        self.first_history = None
        self.run_scores: dict | None = None

    # -- helpers -----------------------------------------------------------
    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def phase(self, phase: str) -> None:
        if self.tracer:
            self.tracer.phase = phase

    @contextlib.contextmanager
    def checking(self):
        """The benchmark's own checks call program functions too; their spans
        go to a phase that no per-layer metric reads."""
        previous = self.tracer.phase if self.tracer else None
        self.phase("check")
        try:
            yield
        finally:
            self.phase(previous)

    def fail(self, what: str, ops: int) -> None:
        print(f"[{self.name}] operation failed: {what}", file=sys.stderr)
        self.failed += ops

    def check_global(self, ok: bool, what: str) -> None:
        if not ok:
            print(f"[{self.name}] check failed: {what}", file=sys.stderr)
            self.global_ok = False

    def write(self, name: str, text: str) -> Path:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def check_mrr(self, mrr: float) -> None:
        chance, best = gen.chance_mrr(self.held_corpus), gen.best_mrr(self.held_corpus)
        ceiling = gen.mrr_ceiling(self.held_corpus)
        require(mrr > chance, f"MRR {mrr:.4f} is not above chance {chance:.4f}")
        require(chance + REACH * (best - chance) <= mrr,
                f"MRR {mrr:.4f} is out of reach of the best {best:.4f} (chance {chance:.4f})")
        require(mrr <= ceiling, f"MRR {mrr:.4f} is above the ceiling {ceiling:.4f} that the "
                "unmarked questions allow")

    def held_text(self, qid: str, aid: str) -> tuple[str, str]:
        q, answers = self.held_corpus.texts[int(qid[1:])]
        return q, answers[int(aid[1:])]

    def check_reference(self, config: dict, flat, vocab_tokens: list[str], scores: dict) -> None:
        """The program's scores match the reference forward on sampled pairs."""
        rnd = random.Random(self.seed)
        qids = sorted(self.held_labels)
        picks = []
        for _ in range(REFERENCE_PAIRS):
            qid = rnd.choice(qids)
            picks.append((qid, rnd.choice(sorted(self.held_labels[qid]))))
        ref = oracle.reference_scores(config, flat, vocab_tokens,
                                      [self.held_text(q, a) for q, a in picks])
        for (qid, aid), r in zip(picks, ref):
            got = scores[qid][aid]
            require(abs(got - r) <= oracle.SCORE_TOL,
                    f"{qid}/{aid}: program score {got:.6f}, reference {r:.6f}")

    # -- corpora and set-up ------------------------------------------------
    def make_corpora(self) -> None:
        spec = self.spec
        self.train_corpus = gen.generate(spec.train, self.seed * 10 + 1, prefix="t")
        self.held_corpus = gen.generate(spec.held_out, self.seed * 10 + 2, prefix="h")
        self.train_path = self.write("train.jsonl", self.train_corpus.text())
        self.held_path = self.write("held_out.jsonl", self.held_corpus.text())
        self.held_labels = {f"h{i}": {f"a{j}": lab for j, lab in enumerate(labels)}
                            for i, labels in enumerate(self.held_corpus.labels) if any(labels)}
        self.steps_per_epoch = math.ceil(self.train_corpus.num_triples / BATCH_SIZE)
        self.expected_steps = self.steps_per_epoch * spec.epochs
        eval_every = spec.eval_every or self.expected_steps
        self.expected_evals = 0 if spec.serve else self.expected_steps // eval_every
        self.config = harness.TrainConfig.from_dict({
            "model": MODEL, "learning_rate": LEARNING_RATE, "batch_size": BATCH_SIZE,
            "num_epochs": spec.epochs, "eval_every": eval_every})
        self.ckpt_path = self.workdir / "model.ckpt"
        self.vocab_path = self.workdir / "vocab.txt"

    def save_model(self, params, vocab) -> None:
        with open(self.ckpt_path, "wb") as f:
            harness.save_checkpoint(params, f)
        with open(self.vocab_path, "w", encoding="utf-8") as f:
            vocab.save(f)

    def setup_once(self):
        """Parse the corpora and build the vocabulary; serve also trains and
        saves the served checkpoint. Returns (train, dev, vocab, history)."""
        with open(self.train_path, encoding="utf-8") as f:
            train = corpus.parse_canonical(f, name="train", split="train")
        vocab = harness.build_training_vocab(train)
        if not self.spec.serve:
            with open(self.held_path, encoding="utf-8") as f:
                dev = corpus.parse_canonical(f, name="dev", split="dev")
            return train, dev, vocab, None
        t0 = time.perf_counter()
        with self.span("bench.train"):
            params, _, history = harness.train(self.config, train, None, vocab)
        self.train_rates.append(self.train_corpus.num_triples * self.config.num_epochs
                                / (time.perf_counter() - t0))
        self.save_model(params, vocab)
        return train, None, vocab, history

    def run_setups(self, count: int) -> list[float]:
        if count == 0:
            return []
        times, ckpts = [], set()
        for _ in range(count):
            # free the previous set-up's objects outside the timed region
            self.train = self.dev = self.vocab = history = None
            gc.collect()
            t0 = time.perf_counter()
            with self.span("bench.setup"):
                done = self.setup_once()
            times.append(time.perf_counter() - t0)
            self.train, self.dev, self.vocab, history = done
            if self.spec.serve:
                ckpts.add(self.ckpt_path.read_bytes())
        with self.checking():
            got = len(sampling.generate_triples(self.train, self.config.sampling))
        self.check_global(got == self.train_corpus.num_triples,
                          f"program made {got} triples, generator {self.train_corpus.num_triples}")
        if self.spec.serve:
            self.check_global(len(ckpts) == 1, "set-ups saved different checkpoints")
            try:
                self.check_training(history)
            except CheckFailed as exc:
                self.check_global(False, f"served model: {exc}")
        return times

    # -- training rounds ---------------------------------------------------
    def check_training(self, history) -> None:
        losses = [loss for _, loss in history.steps]
        require(len(losses) == self.expected_steps,
                f"{len(losses)} steps, expected {self.expected_steps}")
        require(all(math.isfinite(x) for x in losses), "non-finite loss")
        spe = self.steps_per_epoch
        first, last = statistics.fmean(losses[:spe]), statistics.fmean(losses[-spe:])
        require(last < first, f"last epoch mean loss {last:.4f} >= first {first:.4f}")
        require(len(history.evals) == self.expected_evals,
                f"{len(history.evals)} dev evaluations, expected {self.expected_evals}")
        if history.evals:
            require(history.evals[-1][0] == self.expected_steps,
                    "the last dev evaluation is not at the last step")

    def check_first_training(self, params, history) -> None:
        """Recompute the final dev MRR from the program's dev scores with the
        oracle, and compare sampled scores with the reference forward."""
        mrr = history.evals[-1][1]
        kept = corpus.filter_evaluable(self.dev, self.config.filter_mode)
        scores = {r.question_id: {aid: s for aid, s, _ in r.entries}
                  for r in metrics.rank_dataset(params, self.vocab, kept)}
        rrs = [oracle.reciprocal_rank([scores[qid][a] for a in labels], list(labels.values()))
               for qid, labels in self.held_labels.items()]
        oracle_mrr = sum(rrs) / len(rrs)
        require(abs(oracle_mrr - mrr) < 1e-12, f"oracle MRR {oracle_mrr!r} != dev MRR {mrr!r}")
        self.check_mrr(mrr)
        self.check_reference(params.config.to_dict(), params.flat, list(self.vocab.tokens), scores)
        self.mrr = mrr

    def train_round(self) -> float:
        self.attempted += self.expected_steps
        t0 = time.perf_counter()
        try:
            with self.span("bench.train"):
                params, _, history = harness.train(self.config, self.train, self.dev, self.vocab)
        except Exception:
            traceback.print_exc()
            self.fail("harness.train raised", self.expected_steps)
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            self.check_training(history)
            steps_evals = (history.steps, history.evals)
            if self.first_history is None:
                with self.checking():
                    self.check_first_training(params, history)
                self.first_history = steps_evals
            else:
                require(steps_evals == self.first_history, "training is not deterministic")
            self.train_rates.append(self.train_corpus.num_triples * self.config.num_epochs
                                    / elapsed)
            self.params = params
        except CheckFailed as exc:
            self.fail(str(exc), self.expected_steps)
        return elapsed

    # -- serving: eval and rank commands -------------------------------------
    def cli(self, argv: list[str]) -> tuple[int | None, str, float]:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        return code, out.getvalue(), time.perf_counter() - t0

    def eval_command(self) -> None:
        run_path = self.workdir / "run.trec"
        with self.span("bench.eval"):
            code, out, elapsed = self.cli([
                "eval", "--checkpoint", str(self.ckpt_path), "--vocab", str(self.vocab_path),
                "--data", str(self.held_path), "--run-file", str(run_path)])
        self.attempted += 1
        if code != 0:
            self.fail(f"eval exited {code}", 1)
            return
        try:
            mrr = json.loads(out)["mrr"]
            oracle_mrr, flat_scores = oracle.read_run_file(run_path.read_text(encoding="utf-8"),
                                                           self.held_labels)
            require(abs(oracle_mrr - mrr) < 1e-12, f"oracle MRR {oracle_mrr!r} != eval MRR {mrr!r}")
            if self.run_scores is None:
                self.check_mrr(mrr)
                scores: dict = {}
                for (qid, aid), s in flat_scores.items():
                    scores.setdefault(qid, {})[aid] = s
                config, flat = oracle.read_checkpoint(self.ckpt_path.read_bytes())
                tokens = self.vocab_path.read_text(encoding="utf-8").split("\n")[:-1]
                self.check_reference(config, flat, tokens, scores)
                self.run_scores, self.eval_mrr = scores, mrr
            else:
                require(mrr == self.eval_mrr, "eval MRR changed between commands")
            self.eval_s.append(elapsed)
        except (CheckFailed, ValueError, KeyError) as exc:
            self.fail(f"eval output: {exc!r}", 1)

    def prepare_requests(self) -> None:
        """Rank requests from the held-out corpus: one candidate, or a question's
        own candidates topped up to 50 with the next questions' answers."""
        rnd = random.Random(self.seed * 10 + 3)
        qids = sorted(self.held_labels, key=lambda q: int(q[1:]))
        self.requests: dict[int, list] = {1: [], 50: []}
        for k in range(RANK1_PER_RANK50):
            qid = rnd.choice(qids)
            aid = rnd.choice(sorted(self.held_labels[qid]))
            q, a = self.held_text(qid, aid)
            self.requests[1].append((qid, q, [a], [aid], self.write(f"rank1_{k}.txt", a + "\n")))
        for k in range(RANK50_PER_ROUND):
            i = rnd.randrange(len(qids))
            q, own = self.held_corpus.texts[int(qids[i][1:])]
            answers = list(own)
            j = i + 1
            while len(answers) < 50:
                answers += self.held_corpus.texts[int(qids[j % len(qids)][1:])][1]
                j += 1
            answers = answers[:50]
            own_aids = [f"a{n}" for n in range(len(own))]
            path = self.write(f"rank50_{k}.txt", "".join(a + "\n" for a in answers))
            self.requests[50].append((qids[i], q, answers, own_aids, path))

    def rank_command(self, size: int, request, timed: bool = True) -> None:
        qid, question, answers, own_aids, path = request
        with self.span(f"bench.rank{size}"):
            code, out, elapsed = self.cli([
                "rank", "--checkpoint", str(self.ckpt_path), "--vocab", str(self.vocab_path),
                "--question", question, "--answers", str(path)])
        self.attempted += 1
        if code != 0:
            self.fail(f"rank exited {code}", 1)
            return
        try:
            by_text = {a: s for s, a in oracle.read_rank_output(out, answers)}
            for n, aid in enumerate(own_aids):
                want = self.run_scores[qid][aid]
                require(abs(by_text[answers[n]] - want) <= RANK_SCORE_TOL,
                        f"{qid}/{aid}: rank score {by_text[answers[n]]} != eval score {want}")
            if timed:
                self.rank_ms[size].append(elapsed * 1000.0)
        except (CheckFailed, ValueError, IndexError) as exc:
            self.fail(f"rank output: {exc!r}", 1)

    def warm_up(self) -> bool:
        """One eval (timed; its scores are the reference for rank) and
        untimed rank requests, before the rank loop. False if that eval
        failed, so that rank cannot be checked."""
        self.prepare_requests()
        self.eval_command()
        if self.run_scores is None:
            self.check_global(False, "the first eval failed, so rank cannot be checked")
            return False
        self.rank_command(50, self.requests[50][0], timed=False)
        for request in self.requests[1]:
            self.rank_command(1, request, timed=False)
        return True

    def serve_round(self) -> float:
        t0 = time.perf_counter()
        with self.span("bench.round"):
            self.eval_command()
            for i in range(RANK50_PER_ROUND):
                self.rank_command(50, self.requests[50][i])
                for request in self.requests[1]:
                    self.rank_command(1, request)
        return time.perf_counter() - t0

    # -- the run -----------------------------------------------------------
    def run(self) -> dict:
        spec, tracer = self.spec, self.tracer
        self.make_corpora()
        if tracer:
            tracer.install()
        # The machine's speed drifts in episodes of some seconds, so set-ups
        # are timed before, between and after the rounds.
        early_setups, round_setups, late_setups = (1, 0, 0) if tracer else spec.setups
        setup_times = self.run_setups(early_setups)
        if tracer:
            tracer.uninstall()
        self.phase("untraced")
        round_fn = self.serve_round if spec.serve else self.train_round
        # Training runs at least two rounds, so that determinism is checked.
        min_rounds = 1 if spec.serve else 2
        # A traced run alternates untraced and traced rounds, so that the
        # overhead compares rounds run moments apart.
        times: list[float] = []
        untraced: list[float] = []
        serving = self.warm_up() if spec.serve else True
        start = time.perf_counter()
        while serving:
            gc.collect()
            if tracer:
                untraced.append(round_fn())
                tracer.install()
                self.phase("round")
            times.append(round_fn())
            if tracer:
                tracer.uninstall()
                self.phase("untraced")
            setup_times += self.run_setups(round_setups)
            last = times[-1] + (untraced[-1] if tracer else 0.0)
            if (len(times) + len(untraced) >= min_rounds
                    and time.perf_counter() - start + last > self.seconds):
                break
        if tracer:
            return self.layer_result(len(times), _median(times) - _median(untraced))
        if not spec.serve and self.first_history is not None:
            self.save_model(self.params, self.vocab)
            if self.warm_up():
                for _ in range(PROBE_ROUNDS):
                    self.serve_round()
        if spec.serve:
            self.mrr = self.eval_mrr
        setup_times += self.run_setups(late_setups)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics_ = {
            "train_triples_per_s": (_median(self.train_rates), "triples/s"),
            "eval_pairs_per_s": (self.held_corpus.num_pairs / _median(self.eval_s)
                                 if self.eval_s else 0.0, "pairs/s"),
            "mrr": (self.mrr, "mrr"),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (_mid_mean(setup_times), "s"),
        }
        # rank latencies are recorded but not reported as metrics: their run
        # medians spread more than any bound allows on a machine whose speed
        # drifts (see README)
        self.info = {"rounds": len(times), "setups": setup_times, "eval_s": self.eval_s,
                     "rank1_ms_p50": _median(self.rank_ms[1]),
                     "rank50_ms_p50": _median(self.rank_ms[50]),
                     "rank_samples": {k: len(v) for k, v in self.rank_ms.items()},
                     "chance_mrr": gen.chance_mrr(self.held_corpus),
                     "best_mrr": gen.best_mrr(self.held_corpus),
                     "triples": self.train_corpus.num_triples,
                     "held_out_pairs": self.held_corpus.num_pairs}
        return metrics_

    def layer_result(self, rounds: int, overhead_s: float) -> dict:
        rank50 = sum(1 for s in self.tracer.spans if s[2] == "bench.rank50" and s[3] == "round")
        result = self.tracer.layer_metrics(1, rounds, rank50, overhead_s)
        self.info = {"rounds": rounds, "trace": self.tracer.dump(TRACE_ROUND_SPANS)}
        return result
