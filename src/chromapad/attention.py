"""Multi-head self-attention over non-overlapping square windows.

Each window of ``window x window`` tokens is attended independently with the
same parameters. Per head, the attention logits get an additive relative
position bias that depends only on the (row, col) offset between tokens; the
per-head bias matrices expand from a shared table of (2w-1)^2 entries.
Attention is applied bare: no residual wrapper, no layer normalization, no
shifted windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor_ops import batched_matmul, matmul, softmax_last_axis


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Projection weights and relative position bias of one window attention
    stage; their shapes are its dimensions, checked once, when it is made.

    ``qkv_weight`` is (3d, d) and ``qkv_bias`` (3d,): one affine map whose
    output splits into [Q | K | V]. ``out_weight`` (d, d) and ``out_bias``
    (d,) mix the concatenated heads. ``rel_bias`` (heads, N, N) is the
    `expand_relative_bias` of a (heads, (2w-1)^2) table, for w x w windows
    of N = w^2 tokens.
    """

    qkv_weight: np.ndarray
    qkv_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray
    rel_bias: np.ndarray

    def __post_init__(self):
        qkv, bias = np.shape(self.qkv_weight), np.shape(self.rel_bias)
        if len(qkv) != 2 or qkv[1] < 1:
            raise ShapeError(f"qkv_weight has shape {qkv}, expected (3d, d) "
                             f"with d >= 1")
        if len(bias) != 3 or min(bias[0], bias[2]) < 1:
            raise ShapeError(f"rel_bias has shape {bias}, expected "
                             f"(heads, N, N) with heads, N >= 1")
        d, heads, n = qkv[1], bias[0], bias[2]
        if d % heads:
            raise ConfigError(f"rel_bias has {heads} heads, which do not "
                              f"divide embed_dim {d}")
        if math.isqrt(n) ** 2 != n:
            raise ShapeError(f"rel_bias has {n} tokens per window, which is "
                             f"not a square")
        expected = {
            "qkv_weight": (3 * d, d),
            "qkv_bias": (3 * d,),
            "out_weight": (d, d),
            "out_bias": (d,),
            "rel_bias": (heads, n, n),
        }
        for name, shape in expected.items():
            actual = np.shape(getattr(self, name))
            if actual != shape:
                raise ShapeError(f"{name} has shape {actual}, expected {shape}")
        if not np.isfinite(self.rel_bias).all():
            raise ConfigError("rel_bias contains non-finite values")

    @property
    def embed_dim(self) -> int:
        return np.shape(self.qkv_weight)[1]

    @property
    def num_heads(self) -> int:
        return np.shape(self.rel_bias)[0]

    @property
    def window(self) -> int:
        return math.isqrt(np.shape(self.rel_bias)[2])


def relative_index_map(window: int) -> np.ndarray:
    """N x N table of flattened (row offset, col offset) indices.

    ``idx[i, j] = (dr + w - 1) * (2w - 1) + (dc + w - 1)`` where (dr, dc) is
    the coordinate of token i minus the coordinate of token j. Values lie in
    [0, (2w-1)^2 - 1] and depend only on the offset.
    """
    if window < 1:
        raise ConfigError(f"window must be positive, got {window}")
    # rows and columns share the offsets; token i is (row, col) = divmod(i, w)
    offset = np.subtract.outer(np.arange(window), np.arange(window)) + window - 1
    return ((offset * (2 * window - 1))[:, None, :, None]
            + offset[None, :, None, :]).reshape(window ** 2, window ** 2)


def expand_relative_bias(table, window: int) -> np.ndarray:
    """Expand a (heads, (2w-1)^2) table into per-head (N, N) bias matrices."""
    table = np.asarray(table, np.float32)
    if table.ndim != 2 or table.shape[1] != (2 * window - 1) ** 2:
        raise ShapeError(
            f"bias table shape {table.shape} does not match window {window}"
        )
    idx = relative_index_map(window)
    return table[:, idx]


def window_partition(x, window: int) -> np.ndarray:
    """Split (H, W, d) into (num_windows, N, d) non-overlapping windows.

    Windows enumerate row-major over the window grid and tokens row-major
    within each window. Extents that are not multiples of ``window`` are
    rejected; there is no implicit padding.
    """
    x = np.asarray(x, np.float32)
    if x.ndim != 3:
        raise ShapeError(f"window_partition expects (H, W, d), got {x.shape}")
    h, w, d = x.shape
    if h % window or w % window:
        raise ShapeError(
            f"spatial extents {h}x{w} not divisible by window {window}"
        )
    grid = x.reshape(h // window, window, w // window, window, d)
    grid = grid.transpose(0, 2, 1, 3, 4)
    return grid.reshape(-1, window * window, d)


def window_reverse(windows, h: int, w: int, window: int) -> np.ndarray:
    """Exact inverse of :func:`window_partition`."""
    windows = np.asarray(windows, np.float32)
    if windows.ndim != 3:
        raise ShapeError(f"window_reverse expects (nW, N, d), got {windows.shape}")
    n_windows, n_tokens, d = windows.shape
    if (n_windows * n_tokens != h * w or n_tokens != window * window
            or h % window or w % window):
        raise ShapeError(
            f"{n_windows} windows of {n_tokens} tokens do not tile {h}x{w} "
            f"with window {window}"
        )
    grid = windows.reshape(h // window, w // window, window, window, d)
    grid = grid.transpose(0, 2, 1, 3, 4)
    return grid.reshape(h, w, d)


def qkv_project(tokens, params: AttentionParams):
    """Project tokens to per-head query/key/value stacks.

    One affine map of width 3d applies to every row of ``tokens`` (T, d);
    the output splits in order [Q | K | V] and each part splits head-major
    into contiguous runs of d / heads columns. Returns three views of the
    projection, each (heads, T, d / heads).
    """
    tokens = np.asarray(tokens, np.float32)
    d, heads = params.embed_dim, params.num_heads
    if tokens.ndim != 2 or tokens.shape[1] != d:
        raise ShapeError(f"tokens shape {tokens.shape}, expected (T, {d})")
    proj = matmul(tokens, params.qkv_weight.T)
    proj = proj + params.qkv_bias
    parts = proj.reshape(-1, 3, heads, d // heads)
    return tuple(parts.transpose(1, 2, 0, 3))


def window_attention_head(q, k, v, bias) -> np.ndarray:
    """Attention softmax(q @ k.T / sqrt(d_h) + bias) @ v on the last two axes.

    Leading axes of q, k (..., N, d_h) and v (..., N, d_v) index independent
    instances, such as (head, window) pairs, run by one `batched_matmul` per
    product with each element's accumulation order unchanged; ``bias``
    (..., N, N) broadcasts over them.
    """
    q, k, v, bias = (np.asarray(t, np.float32) for t in (q, k, v, bias))
    if q.ndim < 2 or q.shape != k.shape or q.shape[:-1] != v.shape[:-1]:
        raise ShapeError(
            f"inconsistent attention operands: q {q.shape}, k {k.shape}, "
            f"v {v.shape}"
        )
    *lead, n, d_h = q.shape
    bias_lead = bias.shape[:-2]
    if bias.shape[-2:] != (n, n) or len(bias_lead) > len(lead) or any(
            b not in (1, c) for b, c in zip(bias_lead[::-1], lead[::-1])):
        raise ShapeError(f"bias shape {bias.shape} does not broadcast to "
                         f"{(*lead, n, n)}")
    k_t = k.reshape(-1, n, d_h).transpose(0, 2, 1)
    logits = batched_matmul(q.reshape(-1, n, d_h), k_t).reshape(*lead, n, n)
    weights = softmax_last_axis(logits / np.float32(math.sqrt(d_h)) + bias)
    return batched_matmul(weights.reshape(-1, n, n),
                          v.reshape(-1, n, v.shape[-1])).reshape(v.shape)


def multi_head_window_attention(x, params: AttentionParams) -> np.ndarray:
    """Windowed multi-head attention over a (H, W, d) feature map.

    Every window runs the same parameters: QKV projection, per-head biased
    attention, head concatenation, and the output mix, then windows fold
    back into the map.
    """
    x = np.asarray(x, np.float32)
    d, heads, window = params.embed_dim, params.num_heads, params.window
    if x.ndim != 3 or x.shape[2] != d:
        raise ShapeError(f"feature map shape {x.shape}, expected (H, W, {d})")
    h, w, _ = x.shape
    windows = window_partition(x, window)
    n_windows, n_tokens, _ = windows.shape
    q, k, v = qkv_project(windows.reshape(n_windows * n_tokens, d), params)
    per_head = (heads, n_windows, n_tokens, d // heads)
    # one call for every (head, window); each head's bias spans its windows
    attended = window_attention_head(q.reshape(per_head), k.reshape(per_head),
                                     v.reshape(per_head),
                                     params.rel_bias[:, None])
    # concatenate heads along channels: (heads, nW, N, d_h) -> (nW * N, d)
    out = attended.transpose(1, 2, 0, 3).reshape(n_windows * n_tokens, d)
    mixed = matmul(out, params.out_weight.T)
    mixed = mixed + params.out_bias
    return window_reverse(mixed.reshape(n_windows, n_tokens, d), h, w, window)
