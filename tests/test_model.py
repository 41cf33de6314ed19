import ctypes
import itertools
import math
import platform
import types
from dataclasses import replace

import numpy as np
import pytest

from pairrank import model
from pairrank.model import (
    _DROPOUT_STREAM,
    _embedding_grad,
    _layer_norm,
    ModelConfig,
    ModelParams,
    backward,
    forward,
    init_params,
    num_params,
    param_layout,
)
from pairrank.rng import DeterministicRng
from pairrank.textenc import SEP_ID, build_vocab, encode_pair

TINY = ModelConfig(vocab_size=20, hidden_size=16, num_layers=2, num_heads=2,
                   ffn_size=32, max_len=16, seed=7)


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(["who wrote hamlet shakespeare it paris is in france the play"])


@pytest.fixture(scope="module")
def tiny_setup(vocab):
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=16, num_layers=2,
                      num_heads=2, ffn_size=32, max_len=16, seed=7)
    return cfg, init_params(cfg), vocab


def make_pairs(vocab, max_len=16):
    texts = [
        ("who wrote hamlet", "shakespeare wrote it"),
        ("who wrote hamlet", "paris is in france"),
        ("the play", "hamlet is the play"),
    ]
    return [encode_pair(vocab, q, a, max_len=max_len) for q, a in texts]


def test_init_deterministic():
    a = init_params(TINY)
    b = init_params(TINY)
    assert np.array_equal(a.flat, b.flat)


def test_init_seed_changes_embeddings():
    a = init_params(TINY)
    b = init_params(replace(TINY, seed=8))
    assert not np.array_equal(a["tok_emb"], b["tok_emb"])


def test_init_constants():
    p = init_params(TINY)
    assert np.all(p["layer0.ln1.gain"] == 1.0)
    assert np.all(p["layer0.ln1.bias"] == 0.0)
    assert np.all(p["layer1.attn.bq"] == 0.0)
    assert p["head.b"] == 0.0


def test_init_truncated_range():
    p = init_params(TINY)
    assert np.abs(p["tok_emb"]).max() <= 0.04 + 1e-12  # 2 sigma * 0.02


def test_flat_views_share_memory():
    p = init_params(TINY)
    p.flat[:] += 1.0
    assert p["tok_emb"][0, 0] == pytest.approx(p.flat[0])


def random_configs(n: int, seed: int):
    """Valid configs with 1-6 layers and odd sizes (hidden 6, 3 heads, FFN 7 among them)."""
    rng = np.random.default_rng(seed)
    yield ModelConfig(vocab_size=11, hidden_size=6, num_layers=3, num_heads=3, ffn_size=7, max_len=9)
    for _ in range(n):
        heads = int(rng.integers(1, 5))
        hidden = heads * int(rng.integers(1, 6))
        yield ModelConfig(vocab_size=int(rng.integers(5, 40)), hidden_size=hidden,
                          num_layers=int(rng.integers(1, 7)), num_heads=heads,
                          ffn_size=hidden + int(rng.integers(0, 12)),
                          max_len=int(rng.integers(8, 30)), seed=int(rng.integers(100)))


def test_param_layout_covers_flat():
    # num_params restates param_layout's sizes in closed form
    for cfg in [TINY, ModelConfig(vocab_size=30), *random_configs(60, seed=3)]:
        total = sum(math.prod(s) for _, s, _ in param_layout(cfg))
        assert total == num_params(cfg) == init_params(cfg).flat.size, cfg


def test_params_reject_vector_of_another_length():
    with pytest.raises(ValueError, match="flat vector"):
        ModelParams(TINY, np.zeros(num_params(TINY) + 1))


def test_config_validation():
    with pytest.raises(ValueError, match="must be >= 1"):
        ModelConfig(vocab_size=10, num_layers=0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, hidden_size=10, num_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, hidden_size=64, ffn_size=32)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, dropout_rate=1.0)
    with pytest.raises(ValueError):  # shorter than encode_pair packs
        ModelConfig(vocab_size=10, max_len=4)
    with pytest.raises(ValueError):  # a bool is not a rate
        ModelConfig(vocab_size=10, dropout_rate=False)


def test_forward_scores_in_open_interval(tiny_setup):
    cfg, params, vocab = tiny_setup
    scores, _ = forward(params, make_pairs(vocab))
    assert scores.shape == (3,)
    assert np.all((scores > 0) & (scores < 1))


def test_forward_rejects_empty_and_wrong_length(tiny_setup):
    cfg, params, vocab = tiny_setup
    with pytest.raises(ValueError):
        forward(params, [])
    with pytest.raises(ValueError):
        forward(params, [encode_pair(vocab, "a", "b", max_len=8)])


def test_forward_eval_deterministic(tiny_setup):
    cfg, params, vocab = tiny_setup
    pairs = make_pairs(vocab)
    s1, _ = forward(params, pairs)
    s2, _ = forward(params, pairs)
    assert np.array_equal(s1, s2)


def test_forward_train_mode_dropout_seed(tiny_setup):
    cfg, params, vocab = tiny_setup
    pairs = make_pairs(vocab)
    a, _ = forward(params, pairs, train_mode=True, dropout_seed=1)
    b, _ = forward(params, pairs, train_mode=True, dropout_seed=1)
    c, _ = forward(params, pairs, train_mode=True, dropout_seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batch_invariance(tiny_setup):
    cfg, params, vocab = tiny_setup
    pairs = make_pairs(vocab)
    single, _ = forward(params, [pairs[0]])
    batched, _ = forward(params, pairs * 11)  # batch of 33
    assert batched[0] == pytest.approx(single[0], abs=1e-9)


def test_backward_zero_grads(tiny_setup):
    cfg, params, vocab = tiny_setup
    _, cache = forward(params, make_pairs(vocab))
    grads = backward(params, cache, [0.0, 0.0, 0.0])
    assert np.all(grads.flat == 0.0)


def test_backward_linearity(tiny_setup):
    cfg, params, vocab = tiny_setup
    pairs = make_pairs(vocab)
    _, cache = forward(params, pairs)
    g1 = backward(params, cache, [1.0, 0.0, 0.5])
    _, cache = forward(params, pairs)
    g2 = backward(params, cache, [0.0, 2.0, -0.5])
    _, cache = forward(params, pairs)
    g12 = backward(params, cache, [1.0, 2.0, 0.0])
    assert np.allclose(g1.flat + g2.flat, g12.flat, atol=1e-10)


def test_backward_stale_cache_rejected(tiny_setup):
    cfg, params, vocab = tiny_setup
    _, cache = forward(params, make_pairs(vocab))
    other = ModelParams(params.config, params.flat.copy())
    with pytest.raises(ValueError):
        backward(other, cache, [1.0, 0.0, 0.0])


def test_backward_wrong_grad_length(tiny_setup):
    cfg, params, vocab = tiny_setup
    _, cache = forward(params, make_pairs(vocab))
    with pytest.raises(ValueError):
        backward(params, cache, [1.0])


def check_gradient_entries(params, pairs, g, indices, train_mode=False):
    """Central differences of sum_i g[i] * score_i against backward() at ``indices``."""
    params = ModelParams(params.config, params.flat.copy())
    _, cache = forward(params, pairs, train_mode=train_mode, dropout_seed=4)
    grads = backward(params, cache, g)
    eps = 1e-4
    for j in indices:
        orig = params.flat[j]
        params.flat[j] = orig + eps
        sp, _ = forward(params, pairs, train_mode=train_mode, dropout_seed=4)
        params.flat[j] = orig - eps
        sm, _ = forward(params, pairs, train_mode=train_mode, dropout_seed=4)
        params.flat[j] = orig
        fd = (sp - sm) @ g / (2 * eps)
        an = grads.flat[j]
        assert abs(fd - an) <= 1e-4 * max(abs(fd), abs(an)) + 1e-9, j


def test_gradient_check_tiny(tiny_setup):
    cfg, params, vocab = tiny_setup
    rng = np.random.default_rng(0)
    check_gradient_entries(params, [make_pairs(vocab)[0]], np.ones(1),
                           rng.choice(params.flat.size, 80, replace=False))


def test_gradient_check_one_layer(vocab):
    # the only layer is the last, so the folded [CLS] attention reads the
    # embeddings directly; dropout makes the attention row sum differ from 1
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=16, num_layers=1, num_heads=2,
                      ffn_size=32, max_len=16, dropout_rate=0.2, seed=5)
    init = init_params(cfg)
    params = ModelParams(cfg, init.flat + np.random.default_rng(3).normal(0, 0.05, init.flat.size))
    pairs = mixed_length_pairs(vocab)
    g = np.random.default_rng(4).normal(size=len(pairs))
    kind = ModelParams(cfg, np.zeros(params.flat.size))  # 1 attention, 2 embedding
    for name, tensor in kind.tensors.items():
        tensor[...] = 1 if ".attn." in name else 2 if name.endswith("_emb") else 0
    embeddings = np.random.default_rng(5).choice(np.flatnonzero(kind.flat == 2), 60, replace=False)
    check_gradient_entries(params, pairs, g, [*np.flatnonzero(kind.flat == 1), *embeddings],
                           train_mode=True)


def test_gradient_check_two_layers_train_mode(vocab):
    # dropout on, a full-row first layer under the folded [CLS] layer, and one
    # pair filling max_len so that the batch is not trimmed
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=16, num_layers=2, num_heads=2,
                      ffn_size=32, max_len=16, dropout_rate=0.2, seed=6)
    init = init_params(cfg)
    params = ModelParams(cfg, init.flat + np.random.default_rng(7).normal(0, 0.05, init.flat.size))
    pairs = [*mixed_length_pairs(vocab),
             encode_pair(vocab, "who wrote hamlet", "the play " * 20, max_len=cfg.max_len)]
    g = np.random.default_rng(8).normal(size=len(pairs))
    rng = np.random.default_rng(9)
    ends = np.cumsum([math.prod(shape) for _, shape, _ in param_layout(cfg)])
    indices = [j for start, end in zip([0, *ends[:-1]], ends)  # a few entries of every tensor
               for j in rng.choice(np.arange(start, end), min(6, end - start), replace=False)]
    check_gradient_entries(params, pairs, g, indices, train_mode=True)


def test_attention_rows_normalized(tiny_setup):
    cfg, params, vocab = tiny_setup
    _, cache = forward(params, make_pairs(vocab))
    # attention weights are cached; every row over non-masked keys sums to 1
    for layer in cache["layers"]:
        sums = layer["attn"].sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-6)


# --- reference: every layer over all max_len rows, untrimmed ----------------

def _ref_gelu(x):
    u = 0.7978845608028654 * (x + 0.044715 * x ** 3)
    t = np.tanh(u)
    du = 0.7978845608028654 * (1.0 + 3.0 * 0.044715 * x ** 2)
    return 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du


def _ref_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-12)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, (xhat, inv_std)


@pytest.mark.parametrize("shape", [(3, 16), (2, 5, 16), (4, 1, 64), (2, 7, 33), (1, 1, 2)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e8])
def test_layer_norm_matches_var_formula_bitwise(shape, scale):
    rs = np.random.default_rng(sum(shape))
    x = (rs.standard_normal(shape) + 3.0 * rs.standard_normal(shape[-1])) * scale
    gain, bias = rs.standard_normal(shape[-1]), rs.standard_normal(shape[-1])
    (y, (xhat, inv_std)), (ry, (rxhat, rinv_std)) = (
        _layer_norm(x, gain, bias), _ref_layer_norm(x, gain, bias))
    assert np.array_equal(y, ry) and np.array_equal(xhat, rxhat)
    assert np.array_equal(inv_std, rinv_std)


def _ref_layer_norm_backward(dy, gain, cache):
    xhat, inv_std = cache
    dxhat = dy * gain
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, (dy * xhat).sum(axis=(0, 1)), dy.sum(axis=(0, 1))


def _ref_dropout_mask(rng, shape, used, rate):
    """The next prod(used) draws in the leading ``used`` corner, 1 elsewhere.

    Entries outside the corner multiply zero attention weights or rows that
    never reach [CLS], so any value there gives the same scores.
    """
    mask = np.ones(shape)
    keep = rng.uniform(int(np.prod(used))).reshape(used) >= rate
    mask[tuple(map(slice, used))] = keep.astype(np.float64) / (1.0 - rate)
    return mask


def ref_forward(params, batch, train_mode=False, dropout_seed=0):
    cfg = params.config
    ids = np.stack([p.token_ids for p in batch])
    mask = (ids != 0).astype(np.int64)
    segs = np.zeros_like(ids)
    for row, tokens in zip(segs, ids):  # 1 from after the first [SEP] to the second
        first, second = np.flatnonzero(tokens == SEP_ID)
        row[first + 1:second + 1] = 1
    B, T = ids.shape
    used_T = int(mask.sum(axis=1).max())  # the length a trimmed batch computes
    H, A = cfg.hidden_size, cfg.num_heads
    dh = H // A
    scale = 1.0 / np.sqrt(dh)
    rng = DeterministicRng(dropout_seed, stream=_DROPOUT_STREAM)
    use_dropout = train_mode and cfg.dropout_rate > 0.0
    x = params["tok_emb"][ids] + params["pos_emb"][:T] + params["seg_emb"][segs]
    add_mask = np.where(mask[:, None, None, :] == 1, 0.0, -np.inf)
    layers = []
    for l in range(cfg.num_layers):
        p = lambda s: params[f"layer{l}.{s}"]
        rows = 1 if l == cfg.num_layers - 1 else used_T  # the last layer computes [CLS] alone
        x_in = x
        q, k, v = ((x_in @ p(f"attn.w{n}") + p(f"attn.b{n}")).reshape(B, T, A, dh)
                   .transpose(0, 2, 1, 3) for n in "qkv")
        logits = q @ k.transpose(0, 1, 3, 2) * scale + add_mask
        logits -= logits.max(axis=-1, keepdims=True)
        e = np.exp(logits)
        attn = e / e.sum(axis=-1, keepdims=True)
        attn_drop = (_ref_dropout_mask(rng, attn.shape, (B, A, rows, used_T), cfg.dropout_rate)
                     if use_dropout else None)
        attn_used = attn * attn_drop if use_dropout else attn
        ctx = (attn_used @ v).transpose(0, 2, 1, 3).reshape(B, T, H)
        y1, ln1 = _ref_layer_norm(x_in + ctx @ p("attn.wo") + p("attn.bo"),
                                  p("ln1.gain"), p("ln1.bias"))
        h_act, gelu_deriv = _ref_gelu(y1 @ p("ffn.w1") + p("ffn.b1"))
        ffn_drop = (_ref_dropout_mask(rng, h_act.shape, (B, rows, cfg.ffn_size), cfg.dropout_rate)
                    if use_dropout else None)
        h_used = h_act * ffn_drop if use_dropout else h_act
        x, ln2 = _ref_layer_norm(y1 + h_used @ p("ffn.w2") + p("ffn.b2"),
                                 p("ln2.gain"), p("ln2.bias"))
        layers.append(dict(x_in=x_in, q=q, k=k, v=v, attn=attn, attn_drop=attn_drop,
                           attn_used=attn_used, ctx=ctx, ln1=ln1, y1=y1,
                           gelu_deriv=gelu_deriv, h_used=h_used, ffn_drop=ffn_drop, ln2=ln2))
    h_cls = x[:, 0, :]
    scores = 1.0 / (1.0 + np.exp(-(h_cls @ params["head.w"] + params["head.b"])))
    return scores, dict(ids=ids, segs=segs, layers=layers, h_cls=h_cls, scores=scores)


def ref_backward(params, cache, score_grads):
    cfg = params.config
    scores = cache["scores"]
    grads = ModelParams(cfg, np.zeros(num_params(cfg)))
    B, T = cache["ids"].shape
    H, A = cfg.hidden_size, cfg.num_heads
    dh = H // A
    scale = 1.0 / np.sqrt(dh)
    d_logit = np.asarray(score_grads) * scores * (1.0 - scores)
    grads["head.w"][...] = cache["h_cls"].T @ d_logit
    grads["head.b"][...] = d_logit.sum()
    dx = np.zeros((B, T, H))
    dx[:, 0, :] = d_logit[:, None] * params["head.w"]
    for l in reversed(range(cfg.num_layers)):
        p = lambda s: params[f"layer{l}.{s}"]
        gr = lambda s: grads[f"layer{l}.{s}"]
        c = cache["layers"][l]
        dr2, gr("ln2.gain")[...], gr("ln2.bias")[...] = _ref_layer_norm_backward(
            dx, p("ln2.gain"), c["ln2"])
        gr("ffn.w2")[...] = np.einsum("btf,bth->fh", c["h_used"], dr2)
        gr("ffn.b2")[...] = dr2.sum(axis=(0, 1))
        dh_act = dr2 @ p("ffn.w2").T
        if c["ffn_drop"] is not None:
            dh_act = dh_act * c["ffn_drop"]
        d_pre = dh_act * c["gelu_deriv"]
        gr("ffn.w1")[...] = np.einsum("bth,btf->hf", c["y1"], d_pre)
        gr("ffn.b1")[...] = d_pre.sum(axis=(0, 1))
        dr1, gr("ln1.gain")[...], gr("ln1.bias")[...] = _ref_layer_norm_backward(
            dr2 + d_pre @ p("ffn.w1").T, p("ln1.gain"), c["ln1"])
        gr("attn.wo")[...] = np.einsum("bth,btg->hg", c["ctx"], dr1)
        gr("attn.bo")[...] = dr1.sum(axis=(0, 1))
        dctx = (dr1 @ p("attn.wo").T).reshape(B, T, A, dh).transpose(0, 2, 1, 3)
        d_attn = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["attn_used"].transpose(0, 1, 3, 2) @ dctx
        if c["attn_drop"] is not None:
            d_attn = d_attn * c["attn_drop"]
        attn = c["attn"]
        d_logits = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
        dq = d_logits @ c["k"] * scale
        dk = d_logits.transpose(0, 1, 3, 2) @ c["q"] * scale
        dx = dr1.copy()
        for name, dhead in (("q", dq), ("k", dk), ("v", dv)):
            d_proj = dhead.transpose(0, 2, 1, 3).reshape(B, T, H)
            gr(f"attn.w{name}")[...] = np.einsum("bth,btg->hg", c["x_in"], d_proj)
            gr(f"attn.b{name}")[...] = d_proj.sum(axis=(0, 1))
            dx += d_proj @ p(f"attn.w{name}").T
    np.add.at(grads["tok_emb"], cache["ids"], dx)
    grads["pos_emb"][:T] += dx.sum(axis=0)
    np.add.at(grads["seg_emb"], cache["segs"], dx)
    return grads


def mixed_length_pairs(vocab, max_len=16):
    texts = [
        ("who wrote hamlet", "shakespeare wrote it"),
        ("the play", "hamlet is the play who wrote it"),
        ("the play", "paris"),
        ("who wrote hamlet", "paris is in france"),
    ]
    return [encode_pair(vocab, q, a, max_len=max_len) for q, a in texts]


def _reference_case_id(train_mode, num_layers, num_heads, fills_max_len):
    return "-".join([str(train_mode), str(num_layers)]
                    + [f"heads{num_heads}"] * (num_heads != 2) + ["full"] * fills_max_len)


@pytest.mark.parametrize("train_mode,num_layers,num_heads,fills_max_len", [
    pytest.param(*case, id=_reference_case_id(*case))
    for case in itertools.product([False, True], [1, 2], [2, 1, 4], [False, True])])
def test_matches_full_row_reference(vocab, train_mode, num_layers, num_heads, fills_max_len):
    # the folded last layer depends on the (H, A, dh) column layout of W_k and W_v
    cfg = ModelConfig(vocab_size=len(vocab), hidden_size=16, num_layers=num_layers,
                      num_heads=num_heads, ffn_size=32, max_len=16, dropout_rate=0.2, seed=3)
    init = init_params(cfg)
    # non-trivial biases and gains, so every parameter class carries gradient
    params = ModelParams(cfg, init.flat + np.random.default_rng(1).normal(0, 0.05, init.flat.size))
    pairs = mixed_length_pairs(vocab)
    if fills_max_len:  # the batch is not trimmed
        pairs.append(encode_pair(vocab, "who wrote hamlet", "the play " * 20, max_len=cfg.max_len))
    lengths = [int(np.count_nonzero(p.token_ids)) for p in pairs]
    assert len(set(lengths)) > 1 and (max(lengths) == cfg.max_len) == fills_max_len
    g = np.random.default_rng(2).normal(size=len(pairs))
    scores, cache = forward(params, pairs, train_mode=train_mode, dropout_seed=5)
    ref_scores, ref_cache = ref_forward(params, pairs, train_mode=train_mode, dropout_seed=5)
    assert np.abs(scores - ref_scores).max() <= 1e-10
    grads = backward(params, cache, g)
    ref_grads = ref_backward(params, ref_cache, g)
    for name, _, _ in param_layout(cfg):
        assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-10, name
    assert np.abs(ref_grads.flat).max() > 1e-3


@pytest.mark.parametrize("rows", [2, 50])
def test_embedding_grad_matches_add_at_bitwise(rows):
    rng = np.random.default_rng(rows)
    ids = rng.integers(0, rows, size=(6, 11))
    dx = rng.normal(size=(6, 11, 8))
    expected = np.zeros((rows, 8))
    np.add.at(expected, ids, dx)
    assert np.array_equal(_embedding_grad(ids, dx, rows).view(np.int64), expected.view(np.int64))


def test_eval_score_independent_of_batch_mate_lengths(tiny_setup):
    cfg, params, vocab = tiny_setup
    pair = mixed_length_pairs(vocab)[2]
    filler = encode_pair(vocab, "who wrote hamlet", "the play " * 20, max_len=cfg.max_len)
    assert np.count_nonzero(filler.token_ids) == cfg.max_len
    alone, _ = forward(params, [pair])
    for mates in (mixed_length_pairs(vocab), [filler, filler]):
        batched, _ = forward(params, [*mates, pair])
        assert abs(batched[-1] - alone[0]) <= 1e-12


def test_heap_policy_is_harmless_off_glibc(monkeypatch):
    model._keep_freed_heap()  # the import made the first call; this one must not raise
    loads = []

    def record_load(name):
        loads.append(name)
        return object()  # a C library without mallopt
    monkeypatch.setattr(ctypes, "CDLL", record_load)
    monkeypatch.setattr(platform, "libc_ver", lambda: ("", ""))
    model._keep_freed_heap()
    assert loads == []  # another C library: nothing is loaded
    monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.35"))
    model._keep_freed_heap()  # glibc without mallopt: returns without raising
    assert loads == [None]

    settings = {}

    def failing_mallopt(param, value):
        settings[param] = value
        return 0  # mallopt's failure value
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=failing_mallopt))
    model._keep_freed_heap()
    first = dict(settings)
    model._keep_freed_heap()  # a second call sets the same values
    assert settings == first == {-1: 1 << 30, -3: 32 << 20}
