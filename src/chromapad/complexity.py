"""Exact MAC and parameter accounting for the configured architecture.

One MAC is one multiply plus one accumulate. Bias additions, the branch
sum, pooling, softmax, normalization, and activations contribute no MACs.
All counts are exact integers; the GMAC figure is formatted to three
decimals only at display time. Parameter counts follow the per-layer
formulas (convolution and affine weights plus a bias per output channel),
so they describe the counting convention rather than the exact tensor
inventory of a built model.

``param_bytes`` is 4 bytes per convention parameter. With dynamic
quantization, each weight tensor that `quant.DEFAULT_POLICY` matches costs
1 byte per element plus a `PARAM_OVERHEAD_BYTES` (16-byte) parameter block
instead; each layer names its weight tensors, and their sizes come from
`model.tensor_layout`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .model import ModelConfig, tensor_layout
from .quant import DEFAULT_POLICY, PARAM_OVERHEAD_BYTES, _as_predicate


@dataclass(frozen=True)
class LayerCost:
    """Exact multiply-accumulate and parameter counts for one layer."""

    name: str
    macs: int
    params: int

    def to_json_dict(self):
        return {"name": self.name, "macs": self.macs, "params": self.params}


@dataclass(frozen=True)
class ComplexityReport:
    layers: tuple
    param_bytes: int
    notes: tuple

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def gmacs(self) -> str:
        return format_gmacs(self.total_macs)

    def to_json_dict(self):
        return {
            "layers": [layer.to_json_dict() for layer in self.layers],
            "total_macs": self.total_macs,
            "total_params": self.total_params,
            "gmacs": self.gmacs,
            "param_bytes": self.param_bytes,
            "notes": list(self.notes),
        }


def format_gmacs(total_macs: int) -> str:
    """Render a MAC count in billions, three decimals: 1790000000 -> '1.790'."""
    return f"{total_macs / 1e9:.3f}"


def _check_positive(**dims):
    bad = [f"{k}={v}" for k, v in dims.items() if v < 1]
    if bad:
        raise ConfigError(f"dimensions must be positive: {', '.join(bad)}")


def macs_conv2d(c_in, c_out, k_h, k_w, h_out, w_out, groups=1):
    """(macs, params) of a 2-D convolution layer.

    macs = h_out * w_out * c_out * (k_h * k_w * c_in / groups);
    params = c_out * (k_h * k_w * c_in / groups) + c_out for the bias.
    """
    _check_positive(c_in=c_in, c_out=c_out, k_h=k_h, k_w=k_w, groups=groups)
    if h_out < 0 or w_out < 0:
        raise ConfigError(f"output extents must be non-negative, got "
                          f"{h_out}x{w_out}")
    if c_in % groups or c_out % groups:
        raise ConfigError(
            f"groups={groups} must divide c_in={c_in} and c_out={c_out}"
        )
    per_output = k_h * k_w * (c_in // groups)
    macs = h_out * w_out * c_out * per_output
    params = c_out * per_output + c_out
    return macs, params


def macs_linear(d_in, d_out, tokens):
    """(macs, params) of an affine map applied to ``tokens`` rows."""
    _check_positive(d_in=d_in, d_out=d_out)
    if tokens < 0:
        raise ConfigError(f"tokens must be non-negative, got {tokens}")
    return tokens * d_in * d_out, d_in * d_out + d_out


def macs_window_attention(cfg, n_windows):
    """(macs, params) of the multi-head window attention stage.

    Per window: 3*N*d^2 for the QKV projection, 2*N^2*d for the logits and
    the weighted value sum across all heads, and N*d^2 for the output mix.
    Parameters are the QKV and output affines plus the per-head bias table.
    """
    if n_windows < 0:
        raise ConfigError(f"n_windows must be non-negative, got {n_windows}")
    n = cfg.tokens_per_window
    d = cfg.embed_dim
    per_window = 3 * n * d * d + 2 * n * n * d + n * d * d
    params = (3 * d * d + 3 * d) + (d * d + d) \
        + cfg.num_heads * cfg.bias_table_size
    return per_window * n_windows, params


def model_complexity(cfg: ModelConfig) -> ComplexityReport:
    """Walk the configured architecture and sum exact per-layer costs."""
    attn_cfg = cfg.attention_config
    d = cfg.embed_dim
    fs = cfg.feature_size
    sizes = {spec.name: math.prod(spec.shape) for spec in tensor_layout(cfg)}
    layers = []
    weight_sizes = {}

    def add(name, macs, params, *weights):
        layers.append(LayerCost(name=name, macs=macs, params=params))
        weight_sizes.update((w, sizes[w]) for w in weights)

    for space in cfg.branches:
        size = cfg.input_size
        c_in = 3
        for i, blk in enumerate(cfg.backbone):
            base = f"branch.{space.value}.backbone.{i}"
            macs, params = macs_conv2d(c_in, c_in, 3, 3, size, size,
                                       groups=c_in)
            add(f"{base}.depthwise", macs, params, f"{base}.depthwise_weight")
            size //= blk.stride
            macs, params = macs_conv2d(c_in, blk.out_channels, 1, 1,
                                       size, size)
            add(f"{base}.pointwise", macs, params, f"{base}.pointwise_weight")
            c_in = blk.out_channels
        macs, params = macs_conv2d(c_in, d, 1, 1, fs, fs)
        base = f"branch.{space.value}"
        add(f"{base}.bottleneck", macs, params, f"{base}.bottleneck.weight")
        if cfg.attention_enabled:
            n_windows = (fs // cfg.window) ** 2
            macs, params = macs_window_attention(attn_cfg, n_windows)
            add(f"{base}.attention", macs, params,
                f"{base}.attention.qkv_weight", f"{base}.attention.out_weight")

    macs, params = macs_conv2d(d, d, 1, 1, fs, fs)
    add("fusion.mix", macs, params, "fusion.mix_weight")
    if cfg.residual_enabled:
        for stage in ("conv1", "conv2"):
            macs, params = macs_conv2d(d, d, 3, 3, fs, fs)
            add(f"residual.{stage}", macs, params, f"residual.{stage}_weight")
    macs, params = macs_linear(d, 2, tokens=1)
    add("classifier", macs, params, "classifier.weight")

    notes = [
        "one MAC is one multiply plus one accumulate; bias additions, the "
        "branch sum, pooling, softmax, normalization, and activations are "
        "excluded",
        "totals describe this package's simplified depthwise-separable "
        "backbone, not any externally published variant of the architecture",
    ]
    param_bytes = 4 * sum(layer.params for layer in layers)
    if cfg.dq_enabled:
        quantized = _as_predicate(DEFAULT_POLICY)
        param_bytes -= sum(3 * n - PARAM_OVERHEAD_BYTES
                           for w, n in weight_sizes.items() if quantized(w))
        notes.append(
            "dynamic quantization shrinks parameter bytes (4 -> 1 per "
            "quantized weight element plus a 16-byte parameter block per "
            "tensor) while MAC counts are unchanged: weights reconstruct "
            "to float32 before any kernel runs"
        )
    return ComplexityReport(layers=tuple(layers), param_bytes=param_bytes,
                            notes=tuple(notes))
