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


@dataclass(frozen=True)
class WindowAttentionConfig:
    """Dimensions of the window attention stage."""

    embed_dim: int
    num_heads: int
    window: int

    def __post_init__(self):
        problems = []
        if self.embed_dim < 1:
            problems.append(f"embed_dim must be positive, got {self.embed_dim}")
        if self.num_heads < 1:
            problems.append(f"num_heads must be positive, got {self.num_heads}")
        if self.window < 1:
            problems.append(f"window must be positive, got {self.window}")
        if self.num_heads >= 1 and self.embed_dim % self.num_heads:
            problems.append(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def tokens_per_window(self) -> int:
        return self.window * self.window

    @property
    def bias_table_size(self) -> int:
        return (2 * self.window - 1) ** 2


PUBLISHED_ATTENTION = WindowAttentionConfig(embed_dim=768, num_heads=24, window=7)


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Projection weights and the shared relative position bias table.

    ``qkv_weight`` is (3d, d) and ``qkv_bias`` (3d,): one affine map whose
    output splits into [Q | K | V]. ``out_weight`` (d, d) and ``out_bias``
    (d,) mix the concatenated heads. ``rel_bias_table`` is
    (heads, (2w-1)^2), one bias value per head and token offset.
    ``rel_bias`` is that table's (heads, N, N) `expand_relative_bias`, which
    a model makes once when it is built; left None, each call expands it.
    """

    qkv_weight: np.ndarray
    qkv_bias: np.ndarray
    out_weight: np.ndarray
    out_bias: np.ndarray
    rel_bias_table: np.ndarray
    rel_bias: np.ndarray = None

    def validate(self, cfg: WindowAttentionConfig):
        d = cfg.embed_dim
        expected = {
            "qkv_weight": (3 * d, d),
            "qkv_bias": (3 * d,),
            "out_weight": (d, d),
            "out_bias": (d,),
            "rel_bias_table": (cfg.num_heads, cfg.bias_table_size),
        }
        if self.rel_bias is not None:
            expected["rel_bias"] = (cfg.num_heads, *[cfg.tokens_per_window] * 2)
        for name, shape in expected.items():
            actual = np.asarray(getattr(self, name)).shape
            if actual != shape:
                raise ShapeError(f"{name} has shape {actual}, expected {shape}")
        if not np.isfinite(self.rel_bias_table).all():
            raise ConfigError("rel_bias_table contains non-finite values")


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


def qkv_project(tokens, params: AttentionParams, cfg: WindowAttentionConfig):
    """Project tokens to per-head query/key/value stacks.

    One affine map of width 3d applies to every row of ``tokens`` (T, d);
    the output splits in order [Q | K | V] and each part splits head-major
    into contiguous runs of ``head_dim`` columns. Returns three views of the
    projection, each (heads, T, head_dim).
    """
    tokens = np.asarray(tokens, np.float32)
    d = cfg.embed_dim
    if tokens.ndim != 2 or tokens.shape[1] != d:
        raise ShapeError(f"tokens shape {tokens.shape}, expected (T, {d})")
    params.validate(cfg)
    proj = matmul(tokens, params.qkv_weight.T)
    proj = proj + params.qkv_bias
    parts = proj.reshape(-1, 3, cfg.num_heads, cfg.head_dim)
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


def multi_head_window_attention(x, params: AttentionParams,
                                cfg: WindowAttentionConfig) -> np.ndarray:
    """Windowed multi-head attention over a (H, W, d) feature map.

    Every window runs the same parameters: QKV projection, per-head biased
    attention, head concatenation, and the output mix, then windows fold
    back into the map.
    """
    x = np.asarray(x, np.float32)
    if x.ndim != 3 or x.shape[2] != cfg.embed_dim:
        raise ShapeError(
            f"feature map shape {x.shape}, expected (H, W, {cfg.embed_dim})"
        )
    h, w, d = x.shape
    windows = window_partition(x, cfg.window)
    n_windows, n_tokens, _ = windows.shape
    # the projection checks every parameter, the bias table included,
    # before the table expands
    q, k, v = qkv_project(windows.reshape(n_windows * n_tokens, d), params, cfg)
    bias = params.rel_bias
    if bias is None:
        bias = expand_relative_bias(params.rel_bias_table, cfg.window)
    per_head = (cfg.num_heads, n_windows, n_tokens, cfg.head_dim)
    # one call for every (head, window); each head's bias spans its windows
    attended = window_attention_head(q.reshape(per_head), k.reshape(per_head),
                                     v.reshape(per_head), bias[:, None])
    # concatenate heads along channels: (heads, nW, N, d_h) -> (nW * N, d)
    out = attended.transpose(1, 2, 0, 3).reshape(n_windows * n_tokens, d)
    mixed = matmul(out, params.out_weight.T)
    mixed = mixed + params.out_bias
    return window_reverse(mixed.reshape(n_windows, n_tokens, d), h, w, cfg.window)
