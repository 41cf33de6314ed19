"""Small transformer encoder with [CLS] pooling and a sigmoid scoring head.

Pure numpy, float64, with hand-written reverse-mode gradients so that
training needs no framework and gradient checking is exact up to floating
point. Parameters live in a single flat vector; named tensors are numpy
views into it, in the documented order (see ``param_layout``), which is
also the checkpoint order. ``num_params`` sums the layout's sizes in closed
form (a test ties the two), so sizing a vector builds nothing per layer.

Block structure per layer (post-layer-norm, as in the original deep
bidirectional encoder this is modeled after): multi-head self-attention
with padding masked before the softmax, residual, layer norm, then a GELU
feed-forward, residual, layer norm. The score is sigmoid(w . h_cls + b) on
the raw hidden state at position 0.

Only what the score reads is computed. A batch is trimmed after its last
real position: PAD keys are masked and PAD rows never reach [CLS], so their
gradient is zero. Every layer but the last runs all T rows. The last runs
the [CLS] row alone (its cached ``attn`` holds one query row) and projects
no row: with u = W_k q a logit is u . x_t, and W_v applies after the row
sum, ctx = (sum_t a_t x_t) W_v + (sum_t a_t) b_v (sum_t a_t is not 1 under
dropout). No layer reads ``attn.bk``: q . b_k is the same for every key of
a softmax row, so it gets no gradient and keeps its zero init. Each dropout
mask is the next draws of the step's stream over the shape a layer
computes: (B, A, rows, T) for attention and (B, rows, ffn_size) for the FFN.

Backward follows the same rows. The last layer's input gradient is one
product per pair, dx_t = [a_t, dlogit_t] . [dm; u] over the 2A stacked
heads, with dm = W_v dctx. The segment-embedding gradient is the one-hot of
the segments (2, N) times dx (N, H); the token-embedding gradient is one
``bincount`` per (id, column).

Importing this module tells glibc's malloc to keep freed memory in the
process (``_keep_freed_heap``), so batches of changing length reuse it.
"""

from __future__ import annotations

import ctypes
import math
import platform
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import DeterministicRng
from .textenc import MIN_MAX_LEN, PAD_ID, EncodedPair, segment_ids

_INIT_STREAM = 201
_DROPOUT_STREAM = 202

_LN_EPS = 1e-12
_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process where the C library is glibc.

    Batches trim to different lengths, so each step's temporaries change size,
    and glibc would return the freed pages to the OS for the next step to fault
    in again, 4 KiB at a time. Trim threshold 1 GiB; mmap threshold 32 MiB, the
    64-bit maximum in mallopt(3). Cost: the process keeps its high-water mark.
    """
    if platform.libc_ver()[0] == "glibc":
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:  # its 0 on failure leaves malloc's defaults
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


_keep_freed_heap()


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_size: int = 256
    max_len: int = 128
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        sizes = (self.vocab_size, self.hidden_size, self.num_layers,
                 self.num_heads, self.ffn_size, self.max_len)
        if not all(type(v) is int for v in (*sizes, self.seed)):  # bool is not int here
            raise ValueError("model sizes and seed must be integers")
        if min(sizes) < 1:
            raise ValueError("all model sizes must be >= 1")
        if self.max_len < MIN_MAX_LEN:  # the shortest length encode_pair packs
            raise ValueError(f"max_len must be >= {MIN_MAX_LEN}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if self.ffn_size < self.hidden_size:
            raise ValueError("ffn_size must be >= hidden_size")
        if type(self.dropout_rate) is bool or not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be a number in [0, 1)")

    def to_dict(self) -> dict:  # read by perfbench/workloads.py; the program uses asdict
        return dict(self.__dict__)


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Flat parameter ordering: (name, shape, init kind).

    Kinds: "normal" = truncated normal(0, 0.02, +/-2 sigma), "zeros",
    "ones". The flat checkpoint vector concatenates tensors in exactly
    this order, each in C (row-major) order. ``num_params`` restates the
    sizes in closed form, and a test ties the two.
    """
    h, f = config.hidden_size, config.ffn_size
    layout: list[tuple[str, tuple[int, ...], str]] = [
        ("tok_emb", (config.vocab_size, h), "normal"),
        ("pos_emb", (config.max_len, h), "normal"),
        ("seg_emb", (2, h), "normal"),
    ]
    for l in range(config.num_layers):
        for proj in ("q", "k", "v", "o"):
            layout.append((f"layer{l}.attn.w{proj}", (h, h), "normal"))
            layout.append((f"layer{l}.attn.b{proj}", (h,), "zeros"))
        layout.append((f"layer{l}.ln1.gain", (h,), "ones"))
        layout.append((f"layer{l}.ln1.bias", (h,), "zeros"))
        layout.append((f"layer{l}.ffn.w1", (h, f), "normal"))
        layout.append((f"layer{l}.ffn.b1", (f,), "zeros"))
        layout.append((f"layer{l}.ffn.w2", (f, h), "normal"))
        layout.append((f"layer{l}.ffn.b2", (h,), "zeros"))
        layout.append((f"layer{l}.ln2.gain", (h,), "ones"))
        layout.append((f"layer{l}.ln2.bias", (h,), "zeros"))
    layout.append(("head.w", (h,), "normal"))
    layout.append(("head.b", (), "zeros"))
    return layout


class ModelParams:
    """All learnable tensors, backed by one flat float64 vector.

    ``flat`` and the named views in ``tensors`` share memory: in-place
    updates on ``flat`` (the optimizer path) are visible through the views
    used by forward/backward.
    """

    def __init__(self, config: ModelConfig, flat: np.ndarray):
        expected = num_params(config)
        if flat.shape != (expected,):  # checked before any per-layer work
            raise ValueError(f"flat vector has {flat.shape}, expected ({expected},)")
        self.config = config
        self.flat = flat
        self.tensors: dict[str, np.ndarray] = {}
        start = 0
        for name, shape, _ in param_layout(config):
            end = start + math.prod(shape)
            self.tensors[name] = flat[start:end].reshape(shape)
            start = end

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def num_params(config: ModelConfig) -> int:
    """The sum of ``param_layout``'s sizes in closed form, O(1) in num_layers."""
    h, f = config.hidden_size, config.ffn_size
    per_layer = 4 * (h * h + h) + 2 * h + (h * f + f) + (f * h + h) + 2 * h
    return (config.vocab_size + config.max_len + 2) * h + config.num_layers * per_layer + h + 1


def init_params(config: ModelConfig) -> ModelParams:
    """Deterministic initialization from config.seed."""
    rng = DeterministicRng(config.seed, stream=_INIT_STREAM)
    params = ModelParams(config, np.zeros(num_params(config)))
    for name, shape, kind in param_layout(config):
        if kind == "normal":
            params[name][...] = (rng.truncated_normal(math.prod(shape)) * 0.02).reshape(shape)
        elif kind == "ones":
            params[name][...] = 1.0
    return params


def _gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximation GELU; returns (value, derivative)."""
    x2 = x * x
    t = np.tanh(_GELU_C * (x + _GELU_A * x2 * x))
    value = 0.5 * x * (1.0 + t)
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
    deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    return value, deriv


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    xc = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv_std
    return gain * xhat + bias, (xhat, inv_std)


def _layer_norm_backward(dy: np.ndarray, gain: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv_std = cache
    d_gain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    d_bias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = inv_std * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, d_gain, d_bias


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sum over all leading axes of outer(x, dy): the gradient of ``x @ w``."""
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _embedding_grad(ids: np.ndarray, dx: np.ndarray, rows: int) -> np.ndarray:
    """Rows of ``dx`` summed per id into a (rows, H) table (np.add.at, bit for bit)."""
    H = dx.shape[-1]
    flat_index = (ids.reshape(-1, 1) * H + np.arange(H)).ravel()  # id * H + column
    return np.bincount(flat_index, weights=dx.ravel(),
                       minlength=rows * H).reshape(rows, H)


def _dropout(rng: DeterministicRng | None, x: np.ndarray, rate: float):
    """(x * mask, mask) with a scaled keep mask from the next ``x.size`` draws
    of ``rng``, or (x, 1.0) when ``rng`` is None (no dropout; backward multiplies by 1.0)."""
    if rng is None:
        return x, 1.0
    mask = (rng.uniform(x.size).reshape(x.shape) >= rate) / (1.0 - rate)
    return x * mask, mask


def forward(params: ModelParams, batch: Sequence[EncodedPair],
            train_mode: bool = False, dropout_seed: int = 0):
    """Score a batch of encoded pairs; returns (scores, cache).

    Eval mode (train_mode=False) is deterministic and applies no dropout.
    The cache holds every activation backward() needs, and the logits.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    cfg = params.config
    ids = np.stack([p.token_ids for p in batch])
    if ids.shape[1] != cfg.max_len:
        raise ValueError(f"encoded length {ids.shape[1]} != config.max_len {cfg.max_len}")
    real = ids != PAD_ID
    T = cfg.max_len - int(np.argmax(real.any(axis=0)[::-1]))  # trim after the last real position
    ids, real = ids[:, :T], real[:, :T]
    segs = segment_ids(ids)
    B = len(batch)
    H, A = cfg.hidden_size, cfg.num_heads
    dh = H // A
    scale = 1.0 / np.sqrt(dh)

    rate = cfg.dropout_rate
    rng = (DeterministicRng(dropout_seed, stream=_DROPOUT_STREAM)
           if train_mode and rate > 0.0 else None)

    # (tok + pos) + seg, summed in place in that order
    x = params["tok_emb"].take(ids, axis=0)
    x += params["pos_emb"][:T]
    x += params["seg_emb"].take(segs, axis=0)
    # additive key mask: 0 on real tokens, -inf on PAD keys
    add_mask = np.where(real[:, None, None, :], 0.0, -np.inf)

    layers = []
    for l in range(cfg.num_layers):
        p = lambda s: params[f"layer{l}.{s}"]
        # query rows: every position feeds the next layer, only [CLS] feeds the head
        last = l == cfg.num_layers - 1
        Tq = 1 if last else T
        x_in = x
        x_q = x_in[:, :Tq]
        q = (x_q @ p("attn.wq") + p("attn.bq")).reshape(B, Tq, A, dh).transpose(0, 2, 1, 3)
        c = dict(x_in=x_in, q=q)
        if last:
            # one query row: W_k folds into it (u = W_k q) and W_v applies after the
            # row sum. Per-head weights are (A, H, dh); the scaled q and u (A, B, .)
            wk, wv = (p(f"attn.w{n}").reshape(H, A, dh).transpose(1, 0, 2) for n in "kv")
            c["q"] = q_a = q[:, :, 0].transpose(1, 0, 2) * scale
            c["u"] = u = q_a @ wk.transpose(0, 2, 1)
            logits = (u.transpose(1, 0, 2) @ x_in.transpose(0, 2, 1))[:, :, None] + add_mask
        else:
            c["k"] = k = (x_in @ p("attn.wk")).reshape(B, T, A, dh).swapaxes(1, 2)
            c["v"] = v = (x_in @ p("attn.wv") + p("attn.bv")).reshape(B, T, A, dh).swapaxes(1, 2)
            logits = q @ k.transpose(0, 1, 3, 2) * scale + add_mask
        logits -= logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        attn = e / e.sum(axis=-1, keepdims=True)
        attn_used, attn_mask_drop = _dropout(rng, attn, rate)
        if last:
            a = attn_used[:, :, 0]
            c["m"] = m = (a @ x_in).transpose(1, 0, 2)
            c["s"] = s = a.sum(axis=-1).T[:, :, None]  # not 1 under dropout
            ctx = (m @ wv + s * p("attn.bv").reshape(A, 1, dh)).transpose(1, 0, 2).reshape(B, 1, H)
        else:
            ctx = (attn_used @ v).transpose(0, 2, 1, 3).reshape(B, T, H)
        att_out = ctx @ p("attn.wo") + p("attn.bo")
        r1 = x_q + att_out
        y1, ln1_cache = _layer_norm(r1, p("ln1.gain"), p("ln1.bias"))
        pre_act = y1 @ p("ffn.w1") + p("ffn.b1")
        h_act, gelu_deriv = _gelu(pre_act)
        h_used, ffn_mask_drop = _dropout(rng, h_act, rate)
        f_out = h_used @ p("ffn.w2") + p("ffn.b2")
        r2 = y1 + f_out
        x, ln2_cache = _layer_norm(r2, p("ln2.gain"), p("ln2.bias"))
        layers.append(dict(
            c, attn=attn, attn_mask_drop=attn_mask_drop,
            attn_used=attn_used, ctx=ctx, ln1_cache=ln1_cache, y1=y1,
            gelu_deriv=gelu_deriv, h_used=h_used, ffn_mask_drop=ffn_mask_drop,
            ln2_cache=ln2_cache,
        ))

    h_cls = x[:, 0, :]
    logit = h_cls @ params["head.w"] + params["head.b"]
    with np.errstate(over="ignore"):  # a logit below -709 scores exactly 0.0
        scores = 1.0 / (1.0 + np.exp(-logit))
    cache = dict(ids=ids, segs=segs, T=T, layers=layers, h_cls=h_cls, logit=logit,
                 scores=scores, params_flat_id=id(params.flat))
    return scores, cache


def backward(params: ModelParams, cache: dict, score_grads: Sequence[float]) -> ModelParams:
    """Exact gradient of sum_i score_grads[i] * score_i w.r.t. all parameters."""
    if cache.get("params_flat_id") != id(params.flat):
        raise ValueError("cache does not match the given parameters")
    cfg = params.config
    scores = cache["scores"]
    g = np.asarray(score_grads, dtype=np.float64)
    if g.shape != scores.shape:
        raise ValueError("score_grads length must equal batch size")
    grads = ModelParams(cfg, np.zeros(num_params(cfg)))
    B = scores.shape[0]
    T = cache["T"]
    H, A = cfg.hidden_size, cfg.num_heads
    dh = H // A
    scale = 1.0 / np.sqrt(dh)

    d_logit = g * scores * (1.0 - scores)
    grads.tensors["head.w"][...] = cache["h_cls"].T @ d_logit
    grads.tensors["head.b"][...] = d_logit.sum()
    dx = (d_logit[:, None] * params["head.w"])[:, None, :]  # the [CLS] row, (B, 1, H)

    for l in reversed(range(cfg.num_layers)):
        p = lambda s: params[f"layer{l}.{s}"]
        gr = lambda s: grads.tensors[f"layer{l}.{s}"]
        c = cache["layers"][l]
        last = l == cfg.num_layers - 1
        Tq = 1 if last else T

        dr2, dg2, db2 = _layer_norm_backward(dx, p("ln2.gain"), c["ln2_cache"])
        gr("ln2.gain")[...] = dg2
        gr("ln2.bias")[...] = db2
        gr("ffn.w2")[...] = _weight_grad(c["h_used"], dr2)   # FFN branch
        gr("ffn.b2")[...] = dr2.sum(axis=(0, 1))
        dh_used = dr2 @ p("ffn.w2").T
        d_pre = dh_used * c["ffn_mask_drop"] * c["gelu_deriv"]
        gr("ffn.w1")[...] = _weight_grad(c["y1"], d_pre)
        gr("ffn.b1")[...] = d_pre.sum(axis=(0, 1))
        dy1 = dr2 + d_pre @ p("ffn.w1").T   # residual branch + FFN input

        dr1, dg1, db1 = _layer_norm_backward(dy1, p("ln1.gain"), c["ln1_cache"])
        gr("ln1.gain")[...] = dg1
        gr("ln1.bias")[...] = db1
        datt_out = dr1            # attention branch
        gr("attn.wo")[...] = _weight_grad(c["ctx"], datt_out)
        gr("attn.bo")[...] = datt_out.sum(axis=(0, 1))
        dctx = (datt_out @ p("attn.wo").T).reshape(B, Tq, A, dh).transpose(0, 2, 1, 3)

        if last:
            # the folded [CLS] row of forward(), head-major (A, B, .) as there
            wk, wv = (p(f"attn.w{n}").reshape(H, A, dh).transpose(1, 0, 2) for n in "kv")
            dctx = dctx[:, :, 0].transpose(1, 0, 2)
            gr("attn.wv")[...] = (c["m"].transpose(0, 2, 1) @ dctx).transpose(1, 0, 2).reshape(H, H)
            gr("attn.bv")[...] = (c["s"] * dctx).sum(axis=1).reshape(H)
            dm = dctx @ wv.transpose(0, 2, 1)
            d_attn_used = ((dm.transpose(1, 0, 2) @ c["x_in"].transpose(0, 2, 1))
                           + (dctx @ p("attn.bv").reshape(A, dh, 1)).transpose(1, 0, 2))[:, :, None]
        else:
            d_attn_used = dctx @ c["v"].transpose(0, 1, 3, 2)
            dv = c["attn_used"].transpose(0, 1, 3, 2) @ dctx
        d_attn = d_attn_used * c["attn_mask_drop"]
        attn = c["attn"]
        d_logits = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        if last:
            dl = d_logits[:, :, 0]
            # dx_t = sum_h a_t dm + dlogit_t u, as one (B, T, 2A) @ (B, 2A, H) product
            dx_in = (np.concatenate([c["attn_used"][:, :, 0], dl], axis=1).transpose(0, 2, 1)
                     @ np.concatenate([dm, c["u"]]).transpose(1, 0, 2))
            du = (dl @ c["x_in"]).transpose(1, 0, 2)
            gr("attn.wk")[...] = (du.transpose(0, 2, 1) @ c["q"]).transpose(1, 0, 2).reshape(H, H)
            dq = du @ wk * scale
            projected = (("q", dq.transpose(1, 0, 2)[:, :, None]),)
        else:
            dx_in = np.zeros((B, T, H))
            dq = d_logits @ c["k"] * scale
            dk = d_logits.transpose(0, 1, 3, 2) @ c["q"] * scale
            projected = (("q", dq), ("k", dk), ("v", dv))
        dx_in[:, :Tq] += dr1      # residual branch (query rows only)

        # the projected inputs share the same backward shape; Q reads the
        # query rows, K and V read every row. K has no bias: b_k is unread
        for name, dhead in projected:
            rows = dhead.shape[2]
            d_proj = dhead.transpose(0, 2, 1, 3).reshape(B, rows, H)
            gr(f"attn.w{name}")[...] = _weight_grad(c["x_in"][:, :rows], d_proj)
            if name != "k":
                gr(f"attn.b{name}")[...] = d_proj.sum(axis=(0, 1))
            dx_in[:, :rows] += d_proj @ p(f"attn.w{name}").T
        dx = dx_in

    ids, segs = cache["ids"], cache["segs"]
    grads.tensors["tok_emb"][...] = _embedding_grad(ids, dx, cfg.vocab_size)
    grads.tensors["pos_emb"][:T] += dx.sum(axis=0)
    # segments are 0 or 1: one (2, N) @ (N, H) product over their one-hot
    one_hot = (segs.reshape(1, -1) == np.arange(2)[:, None]).astype(np.float64)
    grads.tensors["seg_emb"][...] = one_hot @ dx.reshape(-1, H)
    return grads
