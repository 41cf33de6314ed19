"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each traced function in every loaded ``pairrank``
module (and ``DeterministicRng.uniform`` on its class) with a wrapper that
records a span ``(id, parent, name, phase, start, end)`` and adds counts
taken at the same boundary. The benchmark opens its own spans around each
operation with ``Tracer.span``. Nothing is patched unless ``install`` is
called, so untraced runs execute the program unchanged.

A layer's self time is the duration of its spans minus the duration of the
spans directly inside them. Calls are nested and single-threaded, so child
spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> (module, attribute); "Class.method" patches the class
TRACED = {
    "corpus.parse": ("pairrank.corpus", "parse_canonical"),
    "textenc.build_vocab": ("pairrank.textenc", "build_vocab"),
    "textenc.encode": ("pairrank.textenc", "encode_pair"),
    "sampling.generate": ("pairrank.sampling", "generate_triples"),
    "sampling.shuffle": ("pairrank.sampling", "shuffle_triples"),
    "rng.uniform": ("pairrank.rng", "DeterministicRng.uniform"),
    "model.forward": ("pairrank.model", "forward"),
    "model.backward": ("pairrank.model", "backward"),
    "objective.loss": ("pairrank.objective", "batch_loss"),
    "harness.train": ("pairrank.harness", "train"),
    "harness.optimizer": ("pairrank.harness", "optimizer_step"),
    "harness.checkpoint_save": ("pairrank.harness", "save_checkpoint"),
    "harness.checkpoint_load": ("pairrank.harness", "load_checkpoint"),
    "metrics.evaluate": ("pairrank.metrics", "evaluate"),
    "metrics.rank_dataset": ("pairrank.metrics", "rank_dataset"),
    "metrics.report": ("pairrank.metrics", "compute_report"),
    "cli.eval": ("pairrank.cli", "cmd_eval"),
    "cli.rank": ("pairrank.cli", "cmd_rank"),
}

# layers reported per set-up; every other layer is reported per round
SETUP_LAYERS = ("corpus.parse", "textenc.build_vocab", "harness.checkpoint_save")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.stack: list[tuple[int, str]] = [(0, "")]
        self.phase = "setup"
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.distinct_pairs: dict[str, set] = defaultdict(set)
        self._next_id = 1
        self._undo: list = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0]
        self.stack.append((sid, name))
        start = self.clock()
        try:
            yield sid
        finally:
            end = self.clock()
            self.stack.pop()
            self.spans.append((sid, parent, name, self.phase, start, end))

    def inside(self, name: str) -> bool:
        return any(n == name for _, n in self.stack)

    # -- counts taken at the wrapped boundaries ------------------------------
    def _count(self, name: str, args, kwargs, result) -> None:
        c = self.counts[self.phase]
        if name == "textenc.encode":
            c["encodes"] += 1
            key = (_arg(args, kwargs, 1, "question"), _arg(args, kwargs, 2, "answer"),
                   _arg(args, kwargs, 3, "max_len", 128))
            self.distinct_pairs[self.phase].add(key)
        elif name == "sampling.generate":
            c["triples"] += len(result)
        elif name == "rng.uniform":
            c["draws"] += int(_arg(args, kwargs, 1, "n"))
        elif name == "model.forward":
            batch = _arg(args, kwargs, 1, "batch")
            train = bool(_arg(args, kwargs, 2, "train_mode", False))
            c["forward_calls"] += 1
            c["pairs_forwarded"] += len(batch)
            c["positions"] += sum(len(p.attention_mask) for p in batch)
            c["real_positions"] += sum(int(p.attention_mask.sum()) for p in batch)
            if self.inside("bench.rank50"):
                c["rank50_forwards"] += 1
            elif not train and not self.inside("cli.rank"):
                c["eval_pairs_forwarded"] += len(batch)
        elif name == "harness.optimizer":
            c["steps"] += 1
        elif name == "metrics.evaluate":
            dataset = _arg(args, kwargs, 2, "dataset")
            c["evaluated_pairs"] += sum(len(q.candidates) for q in dataset.questions)

    def _wrap(self, name: str, fn):
        if name == "model.forward":
            def span_name(args, kwargs):
                train = _arg(args, kwargs, 2, "train_mode", False)
                return "model.forward_train" if train else "model.forward_eval"
        else:
            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name(args, kwargs)):
                result = fn(*args, **kwargs)
            self._count(name, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever a pairrank module holds it."""
        owners = {m: importlib.import_module(m) for m, _ in TRACED.values()}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pairrank" or n.startswith("pairrank."))]
        for name, (module_name, attr) in TRACED.items():
            owner = owners[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def self_times(self, phase: str) -> dict[str, float]:
        """Total self time per span name within one phase."""
        child = Counter()
        for _, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        out: Counter = Counter()
        for sid, _, name, ph, start, end in self.spans:
            if ph == phase:
                out[name] += (end - start) - child[sid]
        return dict(out)

    def layer_metrics(self, setups: int, rounds: int, rank50_requests: int,
                      overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: set-up layers per set-up, the rest per round."""
        s_self, r_self = self.self_times("setup"), self.self_times("round")
        c = self.counts["round"]

        def per(value, n):
            return value / n if n else 0.0

        def t(name):
            if name in SETUP_LAYERS:
                return per(s_self.get(name, 0.0), setups)
            return per(r_self.get(name, 0.0), rounds)

        distinct = len(self.distinct_pairs["round"])
        return {
            "corpus.parse_s": (t("corpus.parse"), "s"),
            "textenc.build_vocab_s": (t("textenc.build_vocab"), "s"),
            "textenc.encode_s": (t("textenc.encode"), "s"),
            "textenc.pairs_encoded": (per(c["encodes"], rounds), "count"),
            # every round encodes the same pairs, so the distinct set is one round's
            "textenc.encodes_per_distinct_pair": (per(c["encodes"], rounds * distinct), "ratio"),
            "sampling.generate_s": (t("sampling.generate"), "s"),
            "sampling.shuffle_s": (t("sampling.shuffle"), "s"),
            "sampling.triples": (per(c["triples"], rounds), "count"),
            "rng.uniform_s": (t("rng.uniform"), "s"),
            "rng.draws": (per(c["draws"], rounds), "count"),
            "model.forward_train_s": (t("model.forward_train"), "s"),
            "model.forward_eval_s": (t("model.forward_eval"), "s"),
            "model.backward_s": (t("model.backward"), "s"),
            "model.forward_calls": (per(c["forward_calls"], rounds), "count"),
            "model.pairs_forwarded": (per(c["pairs_forwarded"], rounds), "count"),
            "model.pad_fraction": (1.0 - per(c["real_positions"], c["positions"])
                                   if c["positions"] else 0.0, "ratio"),
            "model.forwards_per_rank": (per(c["rank50_forwards"], rank50_requests), "count"),
            "objective.loss_s": (t("objective.loss"), "s"),
            "harness.optimizer_s": (t("harness.optimizer"), "s"),
            "harness.steps": (per(c["steps"], rounds), "count"),
            "harness.checkpoint_save_s": (t("harness.checkpoint_save"), "s"),
            "harness.checkpoint_load_s": (t("harness.checkpoint_load"), "s"),
            "metrics.evaluate_s": (t("metrics.evaluate"), "s"),
            "metrics.rank_dataset_s": (t("metrics.rank_dataset"), "s"),
            "metrics.report_s": (t("metrics.report"), "s"),
            "metrics.score_passes_per_pair": (per(c["eval_pairs_forwarded"],
                                                  c["evaluated_pairs"]), "ratio"),
            "cli.eval_s": (t("cli.eval"), "s"),
            "cli.rank_s": (t("cli.rank"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }

    def dump(self, max_round_spans: int) -> dict:
        """All set-up spans and the first ``max_round_spans`` round spans."""
        setup = [s for s in self.spans if s[3] == "setup"]
        rounds = [s for s in self.spans if s[3] == "round"]
        keys = ("id", "parent", "name", "phase", "start", "end")
        return {
            "spans": [dict(zip(keys, s)) for s in setup + rounds[:max_round_spans]],
            "spans_total": len(self.spans),
            "self_s": {"setup": self.self_times("setup"), "round": self.self_times("round")},
            "counts": {ph: dict(c) for ph, c in self.counts.items()},
        }
