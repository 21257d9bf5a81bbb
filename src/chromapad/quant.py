"""Per-tensor 8-bit dynamic weight quantization.

A tensor's range [f_min, f_max] maps onto signed 8-bit integers in
[-128, 127] through scale S = (f_max - f_min) / 255 and zero point
Z = round(-f_min / S) - 128. Quantization is q = round((f - f_min) / S) - 128
and reconstruction is f' = (q + 128) * S + f_min; rounding is half away from
zero throughout, with a post-round clamp to [-128, 127]. Z is stored and its
defining relation holds, but reconstruction uses f_min and S directly.

Zero-range (constant) tensors get S = 1 so nothing divides by zero; they
quantize to all -128 and reconstruct exactly. Scale and range endpoints are
held at float32 precision from the moment they are computed, so in-memory
reconstruction and reconstruction after a serialization round trip are
bit-identical.

Both formulas are elementwise, so `quantize` and `dequantize_f32` evaluate
them in double precision over fixed-size pieces of the flattened tensor and
write each piece straight into the int8 or float32 result: no float64 copy
of the whole tensor is made, and the bits equal one whole-tensor evaluation.
"""

from __future__ import annotations

import fnmatch
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import QuantizationError

# elements per float64 piece in `quantize` and `dequantize_f32`
_CHUNK = 1 << 16

# serialized per-tensor overhead: f_min, f_max, S as float32 plus Z as int32
PARAM_OVERHEAD_BYTES = 16

# weight tensors quantized when no explicit policy is given: affine and
# attention projections plus 1x1 (pointwise) convolution weight matrices
DEFAULT_POLICY = (
    "*.qkv_weight",
    "*.out_weight",
    "*.pointwise_weight",
    "*.bottleneck.weight",
    "fusion.mix_weight",
    "classifier.weight",
)


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    """Range, scale, and zero point of one quantized tensor."""

    f_min: float
    f_max: float
    scale: float
    zero_point: int

    def __post_init__(self):
        if self.f_min > self.f_max:
            raise QuantizationError(
                f"f_min {self.f_min} exceeds f_max {self.f_max}"
            )
        if not self.scale > 0:
            raise QuantizationError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class QuantizedTensor:
    """Signed 8-bit payload plus the parameters that produced it."""

    qdata: np.ndarray
    params: QuantParams

    def __post_init__(self):
        q = np.asarray(self.qdata, np.int8)
        object.__setattr__(self, "qdata", q)

    @property
    def shape(self):
        return self.qdata.shape


def compute_quant_params(f) -> QuantParams:
    """Range scan plus scale and zero-point computation for one tensor."""
    arr = np.asarray(f, np.float32)
    if arr.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    if not np.isfinite(arr).all():
        raise QuantizationError("cannot quantize a tensor with non-finite values")
    f_min = float(arr.min())
    f_max = float(arr.max())
    # a constant tensor, or a span too small for a nonzero float32 scale
    # (a few subnormals wide), takes scale 1
    scale = float(np.float32((f_max - f_min) / 255.0)) or 1.0
    zero_point = int(_round_half_away(-f_min / scale)) - 128
    return QuantParams(f_min=f_min, f_max=f_max, scale=scale,
                       zero_point=zero_point)


def _pieces(src, dst):
    """(source, destination) views of successive `_CHUNK`-element pieces of
    the flattened ``src`` and the contiguous ``dst`` of the same size."""
    src, dst = src.reshape(-1), dst.reshape(-1)
    for start in range(0, src.size, _CHUNK):
        yield src[start:start + _CHUNK], dst[start:start + _CHUNK]


def quantize(f, params: QuantParams) -> QuantizedTensor:
    """Map values to int8 via round((f - f_min) / S) - 128, clamped."""
    arr = np.asarray(f, np.float32)
    q = np.empty(arr.shape, np.int8)
    for piece, out in _pieces(arr, q):
        x = piece.astype(np.float64)
        x -= params.f_min
        x /= params.scale
        x = _round_half_away(x)
        x -= 128.0
        out[...] = np.clip(x, -128, 127, out=x)
    return QuantizedTensor(qdata=q, params=params)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct f' = (q + 128) * S + f_min, each step in place in one
    new float64 array.

    Double precision meets the reconstruction error bound S/2 exactly as
    stated; the kernels take `dequantize_f32`, which rounds the same values
    to float32 piece by piece.
    """
    out = qt.qdata.astype(np.float64)
    out += 128.0
    out *= qt.params.scale
    out += qt.params.f_min
    return out


def dequantize_f32(qt: QuantizedTensor) -> np.ndarray:
    """`dequantize` rounded to the float32 tensor type used by the kernels,
    evaluated a piece at a time into the float32 result."""
    out = np.empty(qt.qdata.shape, np.float32)
    for piece, dst in _pieces(qt.qdata, out):
        x = piece.astype(np.float64)
        x += 128.0
        x *= qt.params.scale
        x += qt.params.f_min
        dst[...] = x
    return out


@dataclass(frozen=True)
class TensorQuantReport:
    """Round-trip accounting for one tensor."""

    name: str
    quantized: bool
    elements: int
    bytes_before: int
    bytes_after: int
    scale: float = None
    zero_point: int = None
    max_abs_error: float = None
    mean_abs_error: float = None

    def to_json_dict(self):
        d = {
            "name": self.name,
            "quantized": self.quantized,
            "elements": self.elements,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
        }
        if self.quantized:
            d.update(
                scale=self.scale,
                zero_point=self.zero_point,
                max_abs_error=self.max_abs_error,
                mean_abs_error=self.mean_abs_error,
            )
        return d


@dataclass(frozen=True)
class QuantizationReport:
    """Per-tensor rows plus whole-model byte totals."""

    tensors: tuple
    notes: tuple = field(default=())

    @property
    def total_bytes_before(self) -> int:
        return sum(t.bytes_before for t in self.tensors)

    @property
    def total_bytes_after(self) -> int:
        return sum(t.bytes_after for t in self.tensors)

    def to_json_dict(self):
        return {
            "tensors": [t.to_json_dict() for t in self.tensors],
            "total_bytes_before": self.total_bytes_before,
            "total_bytes_after": self.total_bytes_after,
            "notes": list(self.notes),
        }


def _as_predicate(policy):
    if policy is None:
        policy = DEFAULT_POLICY
    if callable(policy):
        return policy
    patterns = tuple(policy)
    return lambda name: any(fnmatch.fnmatchcase(name, p) for p in patterns)


def quantize_model(weights, policy=None):
    """Quantize every policy-matched tensor in a named weight set.

    ``weights`` maps names to float32 arrays (already-quantized entries pass
    through untouched). ``policy`` is a sequence of fnmatch patterns or a
    predicate on names; ``None`` selects `DEFAULT_POLICY`. Returns the new
    mapping and a `QuantizationReport`. A policy matching nothing is a
    warning, not an error.
    """
    match = _as_predicate(policy)
    out = {}
    rows = []
    matched_any = False
    for name in sorted(weights):
        value = weights[name]
        if isinstance(value, QuantizedTensor):
            n = value.qdata.size
            out[name] = value
            rows.append(TensorQuantReport(
                name=name, quantized=True, elements=n,
                bytes_before=n + PARAM_OVERHEAD_BYTES,
                bytes_after=n + PARAM_OVERHEAD_BYTES,
                scale=value.params.scale, zero_point=value.params.zero_point,
                max_abs_error=0.0, mean_abs_error=0.0,
            ))
            matched_any = True
            continue
        arr = np.asarray(value, np.float32)
        n = arr.size
        if match(name):
            matched_any = True
            try:
                params = compute_quant_params(arr)
            except QuantizationError as exc:
                raise QuantizationError(f"tensor {name!r}: {exc}") from None
            qt = quantize(arr, params)
            # one float64 buffer: the reconstruction, then its error
            err = dequantize(qt)
            np.subtract(err, arr, out=err)
            np.abs(err, out=err)
            rows.append(TensorQuantReport(
                name=name, quantized=True, elements=n,
                bytes_before=4 * n,
                bytes_after=n + PARAM_OVERHEAD_BYTES,
                scale=params.scale, zero_point=params.zero_point,
                max_abs_error=float(err.max()),
                mean_abs_error=float(err.mean()),
            ))
            out[name] = qt
        else:
            rows.append(TensorQuantReport(
                name=name, quantized=False, elements=n,
                bytes_before=4 * n, bytes_after=4 * n,
            ))
            out[name] = arr
    notes = []
    if not matched_any:
        warnings.warn("quantization policy matched no tensors", stacklevel=2)
        notes.append("policy matched no tensors")
    return out, QuantizationReport(tensors=tuple(rows), notes=tuple(notes))
