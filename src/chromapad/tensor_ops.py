"""Dense float32 tensor kernels with a fixed, reproducible accumulation order.

Every reduction in this module accumulates in ascending index order, so each
kernel is bit-reproducible across runs and `matmul` is bit-for-bit equal to a
naive triple loop. Tensors are numpy float32 arrays of rank 1..4; kernels are
pure functions and never mutate their inputs, save `relu` into its ``out``.

`batched_matmul` is the one contraction kernel: `matmul` is its batch of one
and `conv2d` runs every group as one batch entry; batching never changes the
order of one output element's sum. A stride-1 depthwise `conv2d` instead
runs its taps in ascending order as shifted multiply-then-add ufunc calls,
the triple loop's operations. Operands may be any strided views: the kernel
reads one operand in place and broadcasts it, and copies the other only
when it is not C-contiguous. Which is which follows the output: a
product with at least `_SPLIT_MIN` outputs per batch entry and more rows
than columns runs as ``c.T = b.T @ a.T`` along its longer output axis, with
the same products (IEEE multiplication commutes) summed in the same
ascending-k order, and returns the transposed view of that result. A large
product is split into contiguous shares of batch entries or output rows,
one per CPU the calling thread may run on (read per split), each run by the
calling thread or by a thread the call starts and joins before it
returns, so every output element is still one thread's ascending-k sum.

The layout rule: a weight of shape (outputs, inputs...) is held
input-major, meaning its (inputs, outputs) transpose is the contiguous
array (`input_major` allocates one). Then ``x @ w.T`` and a convolution
whose swapped product reads ``w.T`` find their copied operand already
contiguous, so no weight is copied per call; a weight held in C order
still works and is copied per call. `c_order_pieces` walks an array of
either layout in bounded pieces, so files, seeded draws and quantization
move between C order and this layout without a second whole copy.

Every product (or share) runs on one kernel, `_matmul_numpy`: one
``np.einsum("ski,skj->sij")`` sweep into the fresh output. The right operand
and the output are contiguous along j, and the left operand is broadcast
along it, so numpy's inner loop is always its scalar-times-vector
multiply-add over j, run for ascending k: each product rounds to float32
and is then added, which are the triple loop's operations. A one-column
product would lose its j axis, and einsum would then sum over k in unrolled
partial sums, so it runs on the ufunc loop, a sweep of multiply and add
ufunc calls over k. A numpy build whose multiply-add is fused, or that
orders k differently, would change bits: on the first wider product in a
process a probe compares einsum with the ufunc loop on a few seeded shapes,
and if any byte differs every product runs on the ufunc loop instead.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError

MAX_RANK = 4

# numpy keeps ~45 KiB of thread-local state per thread, which glibc
# allocates on its first use and frees only when the thread ends. In
# chromapad that first use is the first arithmetic on a temporary of 256
# KiB or more (numpy's temporary-elision check). Left to `infer`, it would
# come after the weights are loaded into the heap, sit above them and keep
# the heap from shrinking once they are freed (~13 MB more peak RSS at
# paper size). Taking it at import, while the heap is small, keeps it low.
np.ones(1 << 15) + 0.0
# Freeing a 1.36 MB block raises glibc's mmap threshold to its size and the
# trim threshold to twice that, so a forward's temporaries recycle heap
# pages: ~1 minor fault per desk forward, where 1 MB left ~450 and none ~2200.
np.empty(340_000, np.float32)


def tensor(data) -> np.ndarray:
    """Coerce ``data`` to a float32 array of rank 1..4."""
    arr = np.asarray(data, dtype=np.float32)
    if not 1 <= arr.ndim <= MAX_RANK:
        raise ShapeError(f"tensor rank must be 1..{MAX_RANK}, got rank {arr.ndim}")
    return arr


def input_major(shape, dtype=np.float32) -> np.ndarray:
    """A new array of ``shape`` whose first axis varies fastest in memory:
    the C-ordered array of its later axes then its first, seen through an
    axis move, so a weight of shape (outputs, inputs...) is input-major."""
    return np.moveaxis(np.empty((*shape[1:], shape[0]), dtype), -1, 0)


# bytes per piece of a buffer that a whole tensor passes through piece by
# piece: draws, (de)quantization and file relays (65 536 float64 values)
PIECE_BYTES = 1 << 19


def c_order_pieces(shape, limit):
    """Index tuples that select successive pieces of at most ``limit``
    elements of an array of ``shape``, in C order: whole runs of rows along
    the first axis where a row fits, otherwise the pieces of each row."""
    if math.prod(shape) <= limit:
        yield ()
        return
    rows = limit // math.prod(shape[1:])
    if rows:
        for r in range(0, shape[0], rows):
            yield (slice(r, r + rows),)
    else:
        for r in range(shape[0]):
            for index in c_order_pieces(shape[1:], limit):
                yield (r, *index)


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


def _contraction_path():
    """The kernel that runs products in this process: "einsum" or "ufunc
    loop" (runs the probe if it has not run yet)."""
    return "einsum" if _einsum_keeps_bits() else "ufunc loop"


def _usable_cpus():
    # CPUs the calling thread may run on, read per call, so a thread pinned
    # to one CPU runs every product serially
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _matmul_split(a_t, b, out, threads):
    # contiguous shares of batch entries, or of output rows when there are
    # fewer entries than threads. The caller runs the first share and a
    # thread each the rest, all joined before it returns. The caller's error
    # wins, then the lowest failing share's. No pool: importing its module
    # at the first split would put long-lived objects above loaded weights
    batch, _, m = a_t.shape
    if batch >= threads:
        step = -(-batch // threads)
        shares = [(a_t[s:s + step], b[s:s + step], out[s:s + step])
                  for s in range(0, batch, step)]
    else:
        step = -(-m // threads)
        shares = [(a_t[:, :, i:i + step], b, out[:, i:i + step])
                  for i in range(0, m, step)]
    errors = [None] * len(shares)

    def run(i):
        try:
            _matmul_numpy(*shares[i])
        except BaseException as exc:  # raised in the caller below
            errors[i] = exc

    workers = [threading.Thread(target=run, args=(i,), name=f"chromapad-matmul_{i}")
               for i in range(1, len(shares))]
    for worker in workers:
        worker.start()
    try:
        _matmul_numpy(*shares[0])
    finally:
        for worker in workers:
            worker.join()
    for exc in filter(None, errors):
        raise exc


def batched_matmul(a, b) -> np.ndarray:
    """Independent products ``c[s] = a[s] @ b[s]`` of (B, m, k) and (B, k, n).

    Each output element accumulates in float32 in ascending-k order, so
    ``c[s]`` is bit-for-bit ``matmul(a[s], b[s])`` and the naive triple
    loop, whichever kernel the probe picked (einsum or the ufunc loop), and
    so do the serial and the split runs of a large product. A product of at
    least `_SPLIT_MIN` outputs per entry with m > n runs as ``c.T = b.T @
    a.T`` and returns a transposed view, whose bytes are the same.
    """
    a = _as_f32(a, 3, "batched_matmul left operand")
    b = _as_f32(b, 3, "batched_matmul right operand")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"batched_matmul needs (B, m, k) and (B, k, n) "
                         f"operands, got {a.shape} and {b.shape}")
    batch, m, _ = a.shape
    n = b.shape[2]
    # the kernel sweeps output rows, so a large product puts its longer
    # output axis along them; small ones keep the caller's orientation,
    # since the attention value sums (49x49 by 49x32) ran ~2x slower swapped
    if m > n and m * n >= _SPLIT_MIN:
        out_t = np.empty((batch, n, m), np.float32)
        return _contract(b, a.transpose(0, 2, 1), out_t).transpose(0, 2, 1)
    return _contract(a.transpose(0, 2, 1), b,
                     np.empty((batch, m, n), np.float32))


def _contract(a_t, b, out):
    # out[s] = a_t[s].T @ b[s] on the kernel, b made C-contiguous; returns out
    b = np.ascontiguousarray(b)
    # split only at _SPLIT_MIN accumulator elements per thread, so smaller
    # products run serially without reading the CPU affinity
    threads = _usable_cpus() if out.size >= 2 * _SPLIT_MIN else 1
    if threads > 1 and out.size >= threads * _SPLIT_MIN:
        _matmul_split(a_t, b, out, threads)
    else:
        _matmul_numpy(a_t, b, out)
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
    All groups run as one `batched_matmul`, one batch entry per group, but
    a stride-1 depthwise convolution runs tap by tap, with the same bits.
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

    if stride == 1 and groups == c_in == c_out:
        # with the input padded once (plus a spare row) and flat per channel,
        # tap (i, j) of every output sits at offset i * row + j: one multiply
        # of a slice, one add into the zeroed sum, the triple loop's rounding.
        # Outputs past the last column wrap into the next row, cut off unwarned
        row = w + 2 * padding
        padded = np.zeros((c_in, h + 2 * padding + 1, row), np.float32)
        padded[:, padding:padding + h, padding:padding + w] = x
        flat = padded.reshape(c_in, -1)
        size = (span_h + 1) * row
        out = np.zeros((c_in, size), np.float32)
        prod = np.empty_like(out)
        with np.errstate(all="ignore"):
            for t, tap in enumerate(weight.reshape(c_in, -1).T):
                at = t // k_w * row + t % k_w
                np.multiply(flat[:, at:at + size], tap[:, None], prod)
                np.add(out, prod, out)
        out = out.reshape(c_in, span_h + 1, row)[:, :, :span_w + 1]
    else:
        # one (groups, taps, pixels) patch tensor, taps row-major over
        # (channel, kernel row, kernel col), one strided slice of the padded
        # input per tap, or an unpadded stride-1 1x1 conv's input itself; the
        # batched matmul's ascending-k sweep IS the ascending tap order
        out_h, out_w = span_h // stride + 1, span_w // stride + 1
        if k_h == k_w == stride == 1 and not padding:
            patches = x
        else:
            padded = np.zeros((c_in, h + 2 * padding, w + 2 * padding),
                              np.float32)
            padded[:, padding:padding + h, padding:padding + w] = x
            patches = np.empty((c_in, k_h, k_w, out_h, out_w), np.float32)
            for i, j in np.ndindex(k_h, k_w):
                patches[:, i, j] = padded[:, i:i + span_h + 1:stride,
                                          j:j + span_w + 1:stride]
        taps = c_in_g * k_h * k_w
        flat = weight.reshape(groups, c_out // groups, taps)
        out = batched_matmul(flat, patches.reshape(groups, taps, -1)).reshape(
            c_out, out_h, out_w)
    if bias is not None:
        bias = _as_f32(bias, 1, "conv2d bias")
        if bias.shape[0] != c_out:
            raise ShapeError(
                f"bias has {bias.shape[0]} entries for {c_out} output channels"
            )
        np.add(out, bias[:, None, None], out=out)
    return out


@dataclass(frozen=True, eq=False)
class BatchNormParams:
    """Per-channel inference-mode normalization parameters."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    scale: np.ndarray = field(init=False, repr=False)  # derived once, below

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
        object.__setattr__(self, "scale", self.gamma / np.sqrt(
            self.running_var + np.float32(self.epsilon)))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @classmethod
    def identity(cls, channels: int) -> "BatchNormParams":
        return cls(
            gamma=np.ones(channels, np.float32),
            beta=np.zeros(channels, np.float32),
            running_mean=np.zeros(channels, np.float32),
            running_var=np.ones(channels, np.float32),
        )


def batch_norm(x, p: BatchNormParams) -> np.ndarray:
    """Inference-mode normalization using the stored running statistics."""
    x = _as_f32(x, 3, "batch_norm input")
    if x.shape[0] != p.channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, params have {p.channels}"
        )
    out = x - p.running_mean[:, None, None]
    np.multiply(out, p.scale[:, None, None], out)
    return np.add(out, p.beta[:, None, None], out)


def relu(x, out=None) -> np.ndarray:
    """Elementwise max(0, x), into ``out`` when given (which may be ``x``)."""
    return np.maximum(np.asarray(x, np.float32), np.float32(0), out=out)


def softmax_last_axis(x) -> np.ndarray:
    """Stable softmax along the last axis.

    Subtracts the row maximum before exponentiating and runs the internal
    arithmetic in double precision so each output slice sums to 1 well
    within 1e-6.
    """
    e = np.array(x, np.float64)  # every pass runs in this one buffer
    # a row holding inf turns to NaN here, which `model.forward` rejects
    with np.errstate(invalid="ignore"):
        np.subtract(e, np.max(e, axis=-1, keepdims=True), out=e)
    np.exp(e, out=e)
    # left-fold row sums: numpy reduces a contiguous leading axis in order
    total = np.add.reduce(np.moveaxis(e, -1, 0).copy(), axis=0)
    np.divide(e, total[..., None], out=e)
    return e.astype(np.float32)


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
