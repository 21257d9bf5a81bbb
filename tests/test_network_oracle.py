"""Whole-network oracle: an independent reference forward over random tiny
configs, bitwise against `model.forward`.

The reference uses only the tests' kernel oracles: the float32 triple-loop
product (`naive_matmul`), the float32 tap-by-tap convolution
(`f32_tap_conv`, the float32 form of `loopnest_conv`), the left-fold
softmax, and the per-pixel colour conversions. Attention runs window by
window and head by head, as `naive_full_attention` does, but in float32
through `naive_matmul`. The architecture follows the module docstrings and
the weight-file names, not `plan.layer_plan`:

- each branch converts the RGB image to its colour space and scales bytes
  to [0, 1];
- each backbone block runs a depthwise 3x3 conv (padding 1), a stride-s
  average pool, norm, relu, a pointwise conv, norm, relu;
- a 1x1 bottleneck with bias maps the features to (H, W, d) tokens;
- window attention, when enabled, projects QKV, adds the relative position
  bias to the scaled logits and mixes the concatenated heads;
- fusion sums the branch tokens per element in ascending order of value,
  then mixes channels with a 1x1 conv;
- the nested residual block, when enabled, runs conv1, norm, relu, pool,
  upsample, merge, conv2 and norm;
- the classifier pools by an ascending float64 mean, maps to 2 logits and
  takes the softmax.

Under dynamic quantization each int8 weight reconstructs through
``dequantize(...).astype(np.float32)``.
"""

import functools
import math
import operator
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chromapad.tensor_ops as T
import test_tensor_ops
from chromapad.colorspace import ColorImage, ColorSpace
from chromapad.model import (BackboneBlockSpec, Model, ModelConfig,
                             build_model, forward)
from chromapad.quant import QuantizedTensor, dequantize
from test_colorspace import ref_hsv, ref_ycbcr
from test_tensor_ops import f32_tap_conv, naive_matmul

left_fold_softmax = test_tensor_ops.TestSoftmax.left_fold_softmax

MAX_INPUT = 12  # largest image side drawn, which bounds the oracle's loops
EPSILON = np.float32(1e-5)  # the batch norm's


def softmax(x):
    return left_fold_softmax(x)[0]


def conv(x, weight, bias=None, padding=0, groups=1):
    out = f32_tap_conv(x, weight, 1, padding, groups)
    return out if bias is None else out + bias[:, None, None]


def batch_norm(x, w, prefix):
    """(x - mean) * (gamma / sqrt(var + eps)) + beta, per channel."""
    gamma, beta, mean, var = (w[f"{prefix}.{f}"][:, None, None] for f in
                              ("gamma", "beta", "running_mean", "running_var"))
    return (x - mean) * (gamma / np.sqrt(var + EPSILON)) + beta


def relu(x):
    return np.maximum(x, np.float32(0))


def avg_pool(x, k):
    c, h, w = x.shape
    out = np.empty((c, h // k, w // k), np.float32)
    for ch, i, j in np.ndindex(out.shape):
        acc = 0.0
        for di in range(k):
            for dj in range(k):
                acc += float(x[ch, i * k + di, j * k + dj])
        out[ch, i, j] = acc / (k * k)
    return out


def branch_input(pixels, space):
    """(3, H, W) float32 bytes / 255 of the RGB pixels in ``space``."""
    if space is not ColorSpace.RGB:
        ref = ref_hsv if space is ColorSpace.HSV else ref_ycbcr
        pixels = np.array([[ref(*map(int, px)) for px in row]
                           for row in pixels], np.uint8)
    return pixels.transpose(2, 0, 1).astype(np.float32) / np.float32(255)


def relative_bias(table, window):
    """(heads, N, N) entries of the (heads, (2w-1)^2) table, indexed by
    the (row, col) offset of token i from token j."""
    n = window * window
    out = np.empty((table.shape[0], n, n), np.float32)
    for i, j in np.ndindex(n, n):
        (ri, ci), (rj, cj) = divmod(i, window), divmod(j, window)
        out[:, i, j] = table[:, (ri - rj + window - 1) * (2 * window - 1)
                             + ci - cj + window - 1]
    return out


def window_attention(tokens, w, at, heads, window):
    h, width, d = tokens.shape
    d_h = d // heads
    bias = relative_bias(w[f"{at}.rel_bias_table"], window)
    out = np.empty_like(tokens)
    for r, c in np.ndindex(h // window, width // window):
        rows = slice(r * window, (r + 1) * window)
        cols = slice(c * window, (c + 1) * window)
        x = tokens[rows, cols].reshape(window * window, d)
        proj = naive_matmul(x, w[f"{at}.qkv_weight"].T) + w[f"{at}.qkv_bias"]
        attended = []
        for head in range(heads):
            q, k, v = (proj[:, part * d + head * d_h:
                            part * d + (head + 1) * d_h] for part in range(3))
            logits = naive_matmul(q, k.T) / np.float32(math.sqrt(d_h)) \
                + bias[head]
            attended.append(naive_matmul(softmax(logits), v))
        mixed = naive_matmul(np.concatenate(attended, axis=1),
                             w[f"{at}.out_weight"].T) + w[f"{at}.out_bias"]
        out[rows, cols] = mixed.reshape(window, window, d)
    return out


def reference_forward(cfg, w, pixels):
    """(probabilities, debug) as `forward` states them, from the float32
    weights ``w`` by name."""
    debug = {"branches": {}}
    branch_tokens = []
    for space in cfg.branches:
        base = f"branch.{space.value}"
        x = branch_input(pixels, space)
        for i, blk in enumerate(cfg.backbone):
            at = f"{base}.backbone.{i}"
            x = conv(x, w[f"{at}.depthwise_weight"], padding=1,
                     groups=x.shape[0])
            if blk.stride > 1:
                x = avg_pool(x, blk.stride)
            x = relu(batch_norm(x, w, f"{at}.bn_depthwise"))
            x = relu(batch_norm(conv(x, w[f"{at}.pointwise_weight"]), w,
                                f"{at}.bn_pointwise"))
        tokens = conv(x, w[f"{base}.bottleneck.weight"],
                      w[f"{base}.bottleneck.bias"]).transpose(1, 2, 0)
        if cfg.attention_enabled:
            tokens = window_attention(tokens, w, f"{base}.attention",
                                      cfg.num_heads, cfg.window)
        branch_tokens.append(tokens)
        debug["branches"][space.value] = {"features": x, "tokens": tokens}

    ordered = np.sort(np.stack(branch_tokens), axis=0)
    total = ordered[0]
    for addend in ordered[1:]:
        total = total + addend
    d = cfg.embed_dim
    fused = conv(total.transpose(2, 0, 1),
                 w["fusion.mix_weight"].reshape(d, d, 1, 1),
                 w["fusion.mix_bias"])
    debug["fused"] = fused

    if cfg.residual_enabled:
        k = cfg.pool_factor
        activated = relu(batch_norm(conv(fused, w["residual.conv1_weight"],
                                         padding=1), w, "residual.bn1"))
        pooled = avg_pool(activated, k)
        upsampled = pooled.repeat(k, axis=1).repeat(k, axis=2)
        merged = activated + upsampled
        fused = batch_norm(conv(merged, w["residual.conv2_weight"], padding=1),
                           w, "residual.bn2")
        debug["residual_trace"] = {
            "activated": activated, "pooled": pooled, "upsampled": upsampled,
            "merged": merged, "output": fused}

    channels = fused.reshape(d, -1)
    pooled = np.array([functools.reduce(operator.add, map(float, row))
                       / channels.shape[1] for row in channels], np.float32)
    logits = naive_matmul(pooled[None], w["classifier.weight"].T)[0] \
        + w["classifier.bias"]
    probs = softmax(logits)
    debug["probabilities"] = probs
    return probs, debug


@st.composite
def tiny_configs(draw):
    """Valid tiny configs: any branch subset and order, every toggle, 0-3
    backbone blocks of stride 1 or 2, and window, pool and heads that fit."""
    spaces = draw(st.permutations(list(ColorSpace)))
    strides = draw(st.lists(st.sampled_from([1, 2]), max_size=3))
    most = MAX_INPUT // math.prod(strides)  # largest feature extent
    window = draw(st.integers(1, min(3, most)))
    size = window * draw(st.integers(1, most // window))
    heads = draw(st.integers(1, 3))
    return ModelConfig(
        branches=tuple(spaces[:draw(st.integers(1, 3))]),
        attention_enabled=draw(st.booleans()),
        residual_enabled=draw(st.booleans()),
        dq_enabled=draw(st.booleans()),
        input_size=size * math.prod(strides),
        embed_dim=heads * draw(st.integers(1, 3)),
        num_heads=heads,
        window=window,
        pool_factor=draw(st.sampled_from(
            [k for k in range(1, size + 1) if size % k == 0])),
        backbone=tuple(BackboneBlockSpec(draw(st.integers(1, 4)), s)
                       for s in strides),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# logits a with e^a / (1 + e^a) near a float32 rounding midpoint, as in
# test_tensor_ops' crafted softmax rows: 64 midpoints, 17 float32 apiece
_MID = 0.5 - (2 * np.arange(64) + 1) * 2.0 ** -26
EDGE_LOGITS = (np.log(_MID / (1 - _MID)).astype(np.float32).view(np.int32)
               [:, None] + np.arange(-8, 9, dtype=np.int32)).reshape(-1) \
    .view(np.float32)


def fold(e, order):
    """Row sums of ``e`` added in ``order`` of the last axis."""
    total = e[..., order[0]]
    for j in order[1:]:
        total = total + e[..., j]
    return total


def edge_table(window, rng):
    """A (2w-1)^2 bias table whose rows, with zero queries and keys, are
    softmax rows [0, a, values below -37...]: 0 at offset (0, 0), a from
    `EDGE_LOGITS` at offset (0, 1). Of the candidates, a is the one for
    which most rows round to other float32 probabilities when the row sums
    fold from the right, so the network's bits show the fold order."""
    size = (2 * window - 1) ** 2
    tables = np.repeat((-37 - rng.random((1, size))).astype(np.float32),
                       len(EDGE_LOGITS), axis=0)
    tables[:, size // 2] = 0.0
    tables[:, size // 2 + 1] = EDGE_LOGITS
    rows = relative_bias(tables, window).astype(np.float64)
    e = np.exp(rows - rows.max(axis=-1, keepdims=True))
    n = window * window
    left, right = ((e / fold(e, order)[..., None]).astype(np.float32)
                   for order in (range(n), range(n - 1, -1, -1)))
    return tables[np.argmax((left != right).any(axis=-1).sum(axis=-1))]


def drawn_model(cfg, seed, weights):
    """The model of ``cfg`` from its seeded weights. Under ``"drawn"`` its
    biases, norms and bias tables, which start at zero or identity, are
    drawn from ``seed``. ``"softmax_edge"`` also zeroes the query and key
    projections of a window of 3 or more and gives each head an
    `edge_table`."""
    tensors = dict(build_model(replace(cfg, dq_enabled=False)).weights)
    rng = np.random.default_rng(seed)
    if weights != "seeded":
        for name, value in tensors.items():
            if name.endswith(("bias", "beta", "running_mean", "table")):
                tensors[name] = rng.normal(0.0, 0.25, value.shape)
            elif name.endswith(("gamma", "running_var")):
                tensors[name] = rng.uniform(0.5, 1.5, value.shape)
    if weights == "softmax_edge" and cfg.window >= 3:
        d = cfg.embed_dim
        for space in cfg.branches if cfg.attention_enabled else ():
            at = f"branch.{space.value}.attention"
            for name in (f"{at}.qkv_weight", f"{at}.qkv_bias"):
                tensors[name] = np.array(tensors[name])
                tensors[name][:2 * d] = 0.0
            tensors[f"{at}.rel_bias_table"] = np.stack([
                edge_table(cfg.window, rng) for _ in range(cfg.num_heads)])
    return Model(config=cfg, weights=tensors)


def assert_same_bits(got, want, where):
    assert got.dtype == want.dtype == np.float32, where
    assert got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), where


@pytest.mark.parametrize("split_min", [T._SPLIT_MIN, 4],
                         ids=("default_split", "split_min_4"))
@settings(max_examples=150, deadline=None)
@given(cfg=tiny_configs(), seed=st.integers(0, 2**32 - 1),
       weights=st.sampled_from(["seeded", "drawn", "softmax_edge"]))
# one example that always runs the softmax edge rows
@example(cfg=ModelConfig(
    branches=("HSV",), input_size=6, embed_dim=6, num_heads=2, window=3,
    pool_factor=3, backbone=(BackboneBlockSpec(2, 1),), seed=7),
    seed=11, weights="softmax_edge")
def test_forward_matches_reference_bitwise(split_min, cfg, seed, weights):
    model = drawn_model(cfg, seed, weights)
    rng = np.random.default_rng(seed)
    size = cfg.input_size
    pixels = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
    # the model's own weights: int8 codes where it quantized
    w = {name: dequantize(v).astype(np.float32)
         if isinstance(v, QuantizedTensor) else np.asarray(v, np.float32)
         for name, v in model.weights.items()}
    assert any(isinstance(v, QuantizedTensor)
               for v in model.weights.values()) == cfg.dq_enabled
    want_probs, want = reference_forward(cfg, w, pixels)
    with mock.patch.object(T, "_SPLIT_MIN", split_min):
        score, got = forward(model, ColorImage(size, size, ColorSpace.RGB,
                                               pixels), want_debug=True)
    assert score == float(want_probs[0])
    assert_same_bits(got["probabilities"], want_probs, "probabilities")
    assert list(got["branches"]) == [s.value for s in cfg.branches]
    for space, parts in want["branches"].items():
        for part, value in parts.items():
            assert_same_bits(got["branches"][space][part], value,
                             f"{space} {part}")
    assert_same_bits(got["fused"], want["fused"], "fused")
    assert ("residual_trace" in got) == cfg.residual_enabled
    for part, value in want.get("residual_trace", {}).items():
        assert_same_bits(getattr(got["residual_trace"], part), value, part)
