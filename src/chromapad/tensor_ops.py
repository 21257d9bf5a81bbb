"""Dense float32 tensor kernels with a fixed, reproducible accumulation order.

Every reduction in this module accumulates in ascending index order, so each
kernel is bit-reproducible across runs and `matmul` is bit-for-bit equal to a
naive triple loop. Tensors are numpy float32 arrays of rank 1..4; kernels are
pure functions and never mutate their inputs.

`batched_matmul` is the one contraction kernel: `matmul` is its batch of one
and `conv2d` runs every group as one batch entry; batching never changes the
order of one output element's sum. Operands may be any strided views: the
kernel reads the left one in place, and the right one is copied only when it
is not C-contiguous, so no caller lays out an operand. A large product is
split into contiguous shares of batch entries or output rows, one per CPU
the calling thread may run on (read per call), each run by the calling
thread or by a thread joined before the call returns, so every output
element is still one thread's ascending-k sum.

Without numba, each product (or share) is one ``np.einsum("ski,skj->sij")``
sweep into the fresh output. The right operand and the output are
contiguous along j, and the left operand is broadcast along it, so numpy's
inner loop is always its scalar-times-vector multiply-add over j, run for
ascending k: each product rounds to float32 and is then added, which are
the triple loop's operations. A one-column product would lose its j axis,
and einsum would then sum over k in unrolled partial sums, so it runs on
the ufunc loop, a sweep of multiply and add ufunc calls over k. A numpy
build whose multiply-add is fused, or that orders k differently, would
change bits: on the first wider product in a process a probe compares
einsum with the ufunc loop on a few seeded shapes, and if any byte differs
every product runs on the ufunc loop instead.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

try:
    import numba
except ImportError:  # pure-numpy fallback path stays bit-identical
    numba = None

from .errors import ConfigError, ShapeError

MAX_RANK = 4


def tensor(data) -> np.ndarray:
    """Coerce ``data`` to a float32 array of rank 1..4."""
    arr = np.asarray(data, dtype=np.float32)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ShapeError(f"tensor rank must be 1..{MAX_RANK}, got rank {arr.ndim}")
    return arr


def _as_f32(x, rank, name):
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != rank:
        raise ShapeError(f"{name} must have rank {rank}, got shape {arr.shape}")
    return arr


# accumulator elements per output-row block of the ufunc loop (384 KiB of
# float32): with its product buffer it stays L2-resident through the k sweep
_BLOCK_BUDGET = 98304
# accumulator elements per thread below which a product stays serial
_SPLIT_MIN = 49152


def _matmul_ufuncs(a_t, b, out):
    # the fallback kernel. Full output rows accumulate in place in `out`,
    # so every ufunc call sweeps one contiguous n-long inner axis; each
    # product is formed by spreading the a column over the block and
    # scaling it by the b row, which numpy runs faster than the broadcast
    # outer product. The k views come from iterating over transposed views,
    # and the ufuncs take `out` positionally: the loop holds the GIL as
    # briefly as it can between ufunc calls, so the shares of a split
    # product rarely wait on it
    batch, inner, m = a_t.shape
    n = b.shape[2]
    rows = max(1, min(m, _BLOCK_BUDGET // max(batch * n, 1)))
    buf = np.empty((batch, rows, n), np.float32)
    b_rows = b[:, :, None, :].transpose(1, 0, 2, 3)
    multiply, add = np.multiply, np.add
    for i0 in range(0, m, rows):
        acc = out[:, i0:i0 + rows]
        prod = buf[:, :acc.shape[1]]
        acc[...] = 0.0
        a_cols = a_t[:, :, i0:i0 + rows, None].transpose(1, 0, 2, 3)
        for a_col, b_row in zip(a_cols, b_rows):
            prod[...] = a_col
            multiply(prod, b_row, prod)
            add(acc, prod, acc)


def _matmul_einsum(a_t, b, out):
    # b and out contiguous along j, so the inner loop is out[j] += a * b[j]
    # for ascending k; einsum releases the GIL while it runs
    np.einsum("ski,skj->sij", a_t, b, out=out)


# right-operand widths the probe tries: the vector body, its tails, and
# the scalar loop of numpy's multiply-add
_PROBE_WIDTHS = (2, 3, 8, 9, 33, 67)


@functools.cache
def _einsum_keeps_bits():
    """Whether `_matmul_einsum` gives the ufunc loop's bytes on this numpy
    build, checked once per process on seeded operands whose exponents
    spread widely, so a fused multiply-add or another k order shows."""
    rng = np.random.default_rng(0)
    for n in _PROBE_WIDTHS:
        a_t, b = (np.ldexp(rng.standard_normal(shape),
                           rng.integers(-12, 13, shape)).astype(np.float32)
                  for shape in ((2, 64, 4), (2, 64, n)))
        want, got = np.empty((2, 2, 4, n), np.float32)
        _matmul_ufuncs(a_t, b, want)
        _matmul_einsum(a_t, b, got)
        if want.tobytes() != got.tobytes():
            return False
    return True


def _matmul_numpy(a_t, b, out):
    # a one-column product has no j axis for einsum's multiply-add loop
    if b.shape[2] == 1 or not _einsum_keeps_bits():
        _matmul_ufuncs(a_t, b, out)
    else:
        _matmul_einsum(a_t, b, out)


def _matmul_loops(a_t, b, out):
    # strict IEEE (no fastmath when compiled): each product rounds to
    # float32 and each add rounds to float32, exactly like `_matmul_numpy`;
    # row blocking changes only the traversal across output elements
    batch, inner, m = a_t.shape
    n = b.shape[2]
    for s in range(batch):
        for i0 in range(0, m, 16):
            i1 = min(i0 + 16, m)
            for i in range(i0, i1):
                for j in range(n):
                    out[s, i, j] = np.float32(0.0)
            for k in range(inner):
                for i in range(i0, i1):
                    aik = a_t[s, k, i]
                    for j in range(n):
                        out[s, i, j] = out[s, i, j] + aik * b[s, k, j]


# nogil lets the shares of one split product run in parallel
_matmul_compiled = (numba.njit(cache=True, nogil=True)(_matmul_loops)
                    if numba else None)


def _contraction_path():
    """The kernel that runs products in this process: "compiled", "einsum"
    or "ufunc loop" (runs the probe if it has not run yet)."""
    if _matmul_compiled is not None:
        return "compiled"
    return "einsum" if _einsum_keeps_bits() else "ufunc loop"


def _usable_cpus():
    # CPUs the calling thread may run on, read per call, so a thread pinned
    # to one CPU runs every product serially
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _matmul_split(kernel, a_t, b, out, threads):
    # contiguous shares of batch entries, or of output rows when there are
    # fewer entries than threads; the caller runs the first share and a
    # thread of its own runs each other one. Every started thread is joined
    # before this returns or raises, so none outlives the call
    batch, _, m = a_t.shape
    if batch >= threads:
        step = -(-batch // threads)
        shares = [(a_t[s:s + step], b[s:s + step], out[s:s + step])
                  for s in range(0, batch, step)]
    else:
        step = -(-m // threads)
        shares = [(a_t[:, :, i:i + step], b, out[:, i:i + step])
                  for i in range(0, m, step)]
    errors = []

    def run(*share):
        try:
            kernel(*share)
        except Exception as exc:
            errors.append(exc)

    started = []
    try:
        for share in shares[1:]:
            thread = threading.Thread(target=run, args=share,
                                      name="chromapad-matmul")
            thread.start()
            started.append(thread)
        kernel(*shares[0])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def batched_matmul(a, b) -> np.ndarray:
    """Independent products ``c[s] = a[s] @ b[s]`` of (B, m, k) and (B, k, n).

    Each output element accumulates in float32 in ascending-k order, so
    ``c[s]`` is bit-for-bit ``matmul(a[s], b[s])`` and the naive triple
    loop. The compiled and pure-numpy paths produce identical bytes, and so
    do the serial and the split runs of a large product.
    """
    a = _as_f32(a, 3, "batched_matmul left operand")
    b = _as_f32(b, 3, "batched_matmul right operand")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"batched_matmul needs (B, m, k) and (B, k, n) "
                         f"operands, got {a.shape} and {b.shape}")
    a_t = a.transpose(0, 2, 1)
    b = np.ascontiguousarray(b)
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.float32)
    kernel = _matmul_compiled or _matmul_numpy
    # split only at _SPLIT_MIN accumulator elements per thread, so small
    # products, whose thread start-up would outweigh their work, stay serial
    threads = _usable_cpus()
    if threads > 1 and out.size >= threads * _SPLIT_MIN:
        _matmul_split(kernel, a_t, b, out, threads)
    else:
        kernel(a_t, b, out)
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product ``c[i, j] = sum_k a[i, k] * b[k, j]`` of 2-D operands.

    Accumulates in float32 in ascending-k order, which makes the result
    bit-for-bit equal to the naive triple loop evaluated left to right.
    This is the batch-of-one case of `batched_matmul`; stacks of products
    go there instead.
    """
    a = _as_f32(a, 2, "matmul left operand")
    b = _as_f32(b, 2, "matmul right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    return batched_matmul(a[None], b[None])[0]


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1) -> np.ndarray:
    """2-D cross-correlation with zero padding.

    ``x`` is (C_in, H, W) and ``weight`` is (C_out, C_in/groups, K_h, K_w).
    ``groups == C_in == C_out`` gives a depthwise convolution; a 1x1 kernel
    with stride 1 and no padding is a pointwise channel mix. Output extents
    must come out as exact positive integers; nothing is silently truncated.
    Taps accumulate in ascending (channel, kernel row, kernel col) order.
    All groups run as one `batched_matmul`, one batch entry per group.
    """
    x = _as_f32(x, 3, "conv2d input")
    weight = _as_f32(weight, 4, "conv2d weight")
    if stride < 1:
        raise ConfigError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise ConfigError(f"padding must be non-negative, got {padding}")
    c_in, h, w = x.shape
    c_out, c_in_g, k_h, k_w = weight.shape
    if groups < 1 or c_in % groups or c_out % groups:
        raise ConfigError(
            f"groups={groups} must divide C_in={c_in} and C_out={c_out}"
        )
    if c_in_g != c_in // groups:
        raise ShapeError(
            f"weight expects {c_in_g} channels per group, input provides "
            f"{c_in // groups} ({c_in} channels / {groups} groups)"
        )
    span_h = h + 2 * padding - k_h
    span_w = w + 2 * padding - k_w
    if span_h < 0 or span_h % stride or span_w < 0 or span_w % stride:
        raise ShapeError(
            f"conv2d output extent is not a positive integer for input "
            f"{x.shape}, kernel {k_h}x{k_w}, stride {stride}, padding {padding}"
        )

    padded = np.pad(x, [(0, 0)] + [(padding, padding)] * 2) if padding else x
    # one (groups, taps, pixels) patch tensor, taps row-major over (channel,
    # kernel row, kernel col); the batched matmul's ascending-k sweep IS
    # the ascending tap order per output element
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (k_h, k_w), axis=(1, 2))[:, ::stride, ::stride]
    _, out_h, out_w = windows.shape[:3]
    taps = c_in_g * k_h * k_w
    patches = windows.transpose(0, 3, 4, 1, 2).reshape(groups, taps, -1)
    flat = weight.reshape(groups, c_out // groups, taps)
    out = batched_matmul(flat, patches).reshape(c_out, out_h, out_w)
    if bias is not None:
        bias = _as_f32(bias, 1, "conv2d bias")
        if bias.shape[0] != c_out:
            raise ShapeError(
                f"bias has {bias.shape[0]} entries for {c_out} output channels"
            )
        np.add(out, bias[:, None, None], out=out)
    return out


@dataclass(frozen=True)
class BatchNormParams:
    """Per-channel inference-mode normalization parameters."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "running_mean", "running_var"):
            object.__setattr__(self, name, _as_f32(getattr(self, name), 1, name))
        n = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape[0] != n:
                raise ShapeError(
                    f"batch norm {name} has {getattr(self, name).shape[0]} "
                    f"entries, gamma has {n}"
                )
        if np.any(self.running_var < 0):
            raise ConfigError("running_var must be non-negative")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def identity(cls, channels: int, epsilon: float = 1e-5) -> "BatchNormParams":
        return cls(
            gamma=np.ones(channels, np.float32),
            beta=np.zeros(channels, np.float32),
            running_mean=np.zeros(channels, np.float32),
            running_var=np.ones(channels, np.float32),
            epsilon=epsilon,
        )


def batch_norm(x, p: BatchNormParams) -> np.ndarray:
    """Inference-mode normalization using the stored running statistics."""
    x = _as_f32(x, 3, "batch_norm input")
    if x.shape[0] != p.channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, params have {p.channels}"
        )
    scale = p.gamma / np.sqrt(p.running_var + np.float32(p.epsilon))
    return (x - p.running_mean[:, None, None]) * scale[:, None, None] \
        + p.beta[:, None, None]


def relu(x) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, np.float32), np.float32(0))


def softmax_last_axis(x) -> np.ndarray:
    """Stable softmax along the last axis.

    Subtracts the row maximum before exponentiating and runs the internal
    arithmetic in double precision so each output slice sums to 1 well
    within 1e-6.
    """
    x64 = np.asarray(x, np.float64)
    shifted = x64 - np.max(x64, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.cumsum(e, axis=-1)[..., -1:]  # ascending-order sum
    return np.asarray(e / total, np.float32)


def elementwise_add(a, b) -> np.ndarray:
    a = np.asarray(a, np.float32)
    b = np.asarray(b, np.float32)
    if a.shape != b.shape:
        raise ShapeError(f"elementwise_add shapes differ: {a.shape} vs {b.shape}")
    return a + b


def avg_pool2d(x, k: int) -> np.ndarray:
    """Mean over non-overlapping k x k tiles.

    Taps accumulate in ascending order in double precision, so a map that is
    constant over each tile pools to exactly that constant.
    """
    x = _as_f32(x, 3, "avg_pool2d input")
    if k < 1:
        raise ConfigError(f"pool factor must be positive, got {k}")
    c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"extents {h}x{w} not divisible by pool factor {k}")
    acc = np.zeros((c, h // k, w // k), np.float64)
    for di in range(k):
        for dj in range(k):
            acc += x[:, di::k, dj::k]
    return np.asarray(acc / (k * k), np.float32)


def upsample_nearest(x, k: int) -> np.ndarray:
    """Replicate each cell into a k x k tile."""
    x = _as_f32(x, 3, "upsample_nearest input")
    if k < 1:
        raise ConfigError(f"upsample factor must be positive, got {k}")
    return np.repeat(np.repeat(x, k, axis=1), k, axis=2)
