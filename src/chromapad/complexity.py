"""Exact MAC and parameter accounting for the configured architecture,
read from `plan.layer_plan`: the one statement of the layout and of the
counting convention below.

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
instead; each layer of the plan names its weight tensors and their shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelConfig
from .plan import (layer_plan, macs_conv2d, macs_linear,  # noqa: F401
                   macs_window_attention)
from .quant import DEFAULT_POLICY, PARAM_OVERHEAD_BYTES, _as_predicate


@dataclass(frozen=True)
class ComplexityReport:
    layers: tuple  # the `plan.Layer` rows, in plan order
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
            "layers": [{"name": layer.name, "macs": layer.macs,
                        "params": layer.params} for layer in self.layers],
            "total_macs": self.total_macs,
            "total_params": self.total_params,
            "gmacs": self.gmacs,
            "param_bytes": self.param_bytes,
            "notes": list(self.notes),
        }


def format_gmacs(total_macs: int) -> str:
    """Render a MAC count in billions, three decimals: 1790000000 -> '1.790'."""
    return f"{total_macs / 1e9:.3f}"


def model_complexity(cfg: ModelConfig) -> ComplexityReport:
    """The plan's layers as rows, plus parameter bytes."""
    layers = tuple(layer_plan(cfg).layers)
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
        param_bytes -= sum(3 * math.prod(s.shape) - PARAM_OVERHEAD_BYTES
                           for layer in layers for s in layer.specs
                           if quantized(s.name))
        notes.append(
            f"dynamic quantization shrinks parameter bytes (4 -> 1 per "
            f"quantized weight element plus a {PARAM_OVERHEAD_BYTES}-byte "
            f"parameter block per tensor) while MAC counts are unchanged: "
            f"weights reconstruct to float32 before any kernel runs"
        )
    return ComplexityReport(layers=layers, param_bytes=param_bytes,
                            notes=tuple(notes))
