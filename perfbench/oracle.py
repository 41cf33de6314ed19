"""Correctness oracles that share no code with the program.

* ``reciprocal_rank`` and ``read_run_file`` recompute MRR from scores or from
  a TREC run file, with the labels the generator recorded.
* ``read_rank_output`` checks the lines ``pairrank rank`` prints.
* ``read_checkpoint``, ``encode`` and ``reference_scores`` are an eval-mode
  forward pass written from the documented checkpoint format, parameter
  order and pair layout. It runs each pair at its own length, without
  padding, in float64.
"""

from __future__ import annotations

import json
import struct

import numpy as np

PAD, UNK, CLS, SEP = 0, 1, 2, 3
LN_EPS = 1e-12
# A float32 eval path changes scores by about 1e-6 at this model size; this
# tolerance still holds for it, and a wrong layer is off by far more.
SCORE_TOL = 1e-4


class CheckFailed(AssertionError):
    """A program output disagreed with an oracle."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def reciprocal_rank(scores, labels) -> float:
    """1 / rank of the first positive; stable sort by score descending."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    for rank, i in enumerate(order, start=1):
        if labels[i]:
            return 1.0 / rank
    return 0.0


def read_run_file(text: str, labels: dict[str, dict[str, bool]]) -> tuple[float, dict]:
    """MRR of a TREC run file, and its scores by (question_id, answer_id).

    Checks that each question's ranks run 1..n with non-increasing scores
    and that the run covers exactly the candidates in ``labels``.
    """
    runs: dict[str, list[tuple[int, str, float]]] = {}
    for line in text.splitlines():
        qid, q0, aid, rank, score, _tag = line.split()
        require(q0 == "Q0", f"run line {line!r}: second column must be Q0")
        runs.setdefault(qid, []).append((int(rank), aid, float(score)))
    require(runs.keys() == labels.keys(), "run file questions differ from the corpus")
    scores, rr_sum = {}, 0.0
    for qid, rows in runs.items():
        require([r for r, _, _ in rows] == list(range(1, len(rows) + 1)),
                f"{qid}: ranks are not 1..n in order")
        require(all(a[2] >= b[2] for a, b in zip(rows, rows[1:])),
                f"{qid}: scores increase down the ranking")
        require(sorted(aid for _, aid, _ in rows) == sorted(labels[qid]),
                f"{qid}: run candidates differ from the corpus")
        first = next((r for r, aid, _ in rows if labels[qid][aid]), None)
        rr_sum += 1.0 / first if first else 0.0
        scores.update({(qid, aid): s for _, aid, s in rows})
    return rr_sum / len(runs), scores


def read_rank_output(text: str, answers: list[str]) -> list[tuple[float, str]]:
    """(score, answer) in printed order; checks ranks, order and coverage."""
    rows = [line.split("\t") for line in text.splitlines()]
    require([int(r[0]) for r in rows] == list(range(1, len(answers) + 1)),
            "rank output ranks are not 1..n")
    out = [(float(r[1]), r[2]) for r in rows]
    require(all(a[0] >= b[0] for a, b in zip(out, out[1:])),
            "rank output scores increase down the ranking")
    require(sorted(a for _, a in out) == sorted(answers),
            "rank output answers differ from the request")
    return out


def read_checkpoint(raw: bytes) -> tuple[dict, np.ndarray]:
    """(config, float64 parameter vector) from the documented file layout."""
    magic = b"PRCKPT\n"
    require(raw.startswith(magic), "bad checkpoint magic")
    version, header_len = struct.unpack_from("<II", raw, len(magic))
    require(version == 1, f"checkpoint version {version}")
    start = len(magic) + 8
    config = json.loads(raw[start:start + header_len])
    flat = np.frombuffer(raw[start + header_len:], dtype="<f4").astype(np.float64)
    return config, flat


def unpack(config: dict, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named tensors in the documented checkpoint order."""
    h, f, v, t = (config["hidden_size"], config["ffn_size"],
                  config["vocab_size"], config["max_len"])
    shapes = [("tok_emb", (v, h)), ("pos_emb", (t, h)), ("seg_emb", (2, h))]
    for l in range(config["num_layers"]):
        for proj in "qkvo":
            shapes += [(f"{l}.w{proj}", (h, h)), (f"{l}.b{proj}", (h,))]
        shapes += [(f"{l}.ln1.g", (h,)), (f"{l}.ln1.b", (h,)),
                   (f"{l}.w1", (h, f)), (f"{l}.b1", (f,)),
                   (f"{l}.w2", (f, h)), (f"{l}.b2", (h,)),
                   (f"{l}.ln2.g", (h,)), (f"{l}.ln2.b", (h,))]
    shapes += [("head.w", (h,)), ("head.b", ())]
    out, off = {}, 0
    for name, shape in shapes:
        size = int(np.prod(shape)) if shape else 1
        out[name] = flat[off:off + size].reshape(shape)
        off += size
    require(off == flat.size, f"parameter vector has {flat.size} values, layout needs {off}")
    return out


def encode(vocab: dict[str, int], question: str, answer: str, max_len: int):
    """[CLS] q [SEP] a [SEP] for the generator's whitespace-separated words;
    answer words are cut first when the pair is too long."""
    q, a = question.split(), answer.split()
    budget = max_len - 3
    if len(q) + len(a) > budget:
        a = a[:max(1, budget - len(q))]
        q = q[:budget - len(a)]
    ids = [CLS] + [vocab.get(w, UNK) for w in q] + [SEP] + [vocab.get(w, UNK) for w in a] + [SEP]
    segs = [0] * (len(q) + 2) + [1] * (len(a) + 1)
    return np.array(ids), np.array(segs)


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return g * (x - mu) / np.sqrt(var + LN_EPS) + b


def reference_score(config: dict, p: dict[str, np.ndarray], ids, segs) -> float:
    """Eval-mode score of one unpadded pair: post-LN encoder, [CLS] head."""
    heads = config["num_heads"]
    t, h = len(ids), config["hidden_size"]
    dh = h // heads
    x = p["tok_emb"][ids] + p["pos_emb"][:t] + p["seg_emb"][segs]
    for l in range(config["num_layers"]):
        def split(w, b):
            return (x @ p[f"{l}.{w}"] + p[f"{l}.{b}"]).reshape(t, heads, dh).transpose(1, 0, 2)
        q, k, v = split("wq", "bq"), split("wk", "bk"), split("wv", "bv")
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(dh)
        attn = np.exp(logits - logits.max(-1, keepdims=True))
        attn /= attn.sum(-1, keepdims=True)
        ctx = (attn @ v).transpose(1, 0, 2).reshape(t, h)
        x = _layer_norm(x + ctx @ p[f"{l}.wo"] + p[f"{l}.bo"], p[f"{l}.ln1.g"], p[f"{l}.ln1.b"])
        u = x @ p[f"{l}.w1"] + p[f"{l}.b1"]
        gelu = 0.5 * u * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * u * u * u)))
        x = _layer_norm(x + gelu @ p[f"{l}.w2"] + p[f"{l}.b2"], p[f"{l}.ln2.g"], p[f"{l}.ln2.b"])
    logit = float(x[0] @ p["head.w"] + p["head.b"])
    return 1.0 / (1.0 + np.exp(-logit))


def reference_scores(config: dict, flat: np.ndarray, vocab_tokens: list[str],
                     pairs: list[tuple[str, str]]) -> list[float]:
    p = unpack(config, flat)
    vocab = {tok: i for i, tok in enumerate(vocab_tokens)}
    return [reference_score(config, p, *encode(vocab, q, a, config["max_len"]))
            for q, a in pairs]
