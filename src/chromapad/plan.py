"""The network stated once: an ordered layer plan derived from a config.

Each layer is one row of the complexity report: its name, its weight
tensors in draw order, and its exact MAC and parameter counts. The weight
layout, the complexity report and the run-ready model all read the plan.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConfigError

# init is "uniform", "zeros" or "ones"
_TensorSpec = namedtuple("_TensorSpec", "name shape init")

# one complexity row and its tensors in draw order; with ``norm`` they are a
# convolution weight and its batch norm's four tensors
Layer = namedtuple("Layer", "name specs macs params norm", defaults=(False,))

# one color-space branch: a (depthwise, pointwise) layer pair per backbone
# block, the bottleneck, and the attention layer when enabled (0 or 1)
Branch = namedtuple("Branch", "space backbone bottleneck attention")


class LayerPlan(namedtuple("LayerPlan",
                           "branches fusion residual classifier")):
    """The branches, then the fusion mix, the residual convs (none when
    disabled) and the classifier."""

    @property
    def layers(self):
        """Every layer, in row and draw order."""
        for b in self.branches:
            yield from (layer for pair in b.backbone for layer in pair)
            yield from (b.bottleneck, *b.attention)
        yield from (self.fusion, *self.residual, self.classifier)


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


def macs_window_attention(d, heads, window, n_windows):
    """(macs, params) of the multi-head window attention stage.

    Per window of N = window^2 tokens: 3*N*d^2 for the QKV projection,
    2*N^2*d for the logits and the weighted value sum across all heads, and
    N*d^2 for the output mix. Parameters are the QKV and output affines
    plus the per-head bias table of (2*window - 1)^2 entries.
    """
    _check_positive(d=d, heads=heads, window=window)
    if n_windows < 0:
        raise ConfigError(f"n_windows must be non-negative, got {n_windows}")
    n = window * window
    per_window = 3 * n * d * d + 2 * n * n * d + n * d * d
    params = (3 * d * d + 3 * d) + (d * d + d) \
        + heads * (2 * window - 1) ** 2
    return per_window * n_windows, params


_NORM = (("gamma", "ones"), ("beta", "zeros"), ("running_mean", "zeros"),
         ("running_var", "ones"))


def _conv(name, norm, cost, *shape):
    """A convolution layer: its weight ``{name}_weight``, then its batch
    norm's four tensors, which start at identity."""
    return Layer(name, (_TensorSpec(f"{name}_weight", shape, "uniform"), *(
        _TensorSpec(f"{norm}.{field}", shape[:1], init)
        for field, init in _NORM)), *cost, norm=True)


def _affine(weight, *shape):
    """A weight and its zero bias, named alike, one per output channel."""
    return (_TensorSpec(weight, shape, "uniform"), _TensorSpec(
        weight.removesuffix("weight") + "bias", shape[:1], "zeros"))


def layer_plan(cfg) -> LayerPlan:
    """The ordered layers of the network a `model.ModelConfig` describes."""
    d, fs, heads, window = (cfg.embed_dim, cfg.feature_size, cfg.num_heads,
                            cfg.window)
    branches = []
    for space in cfg.branches:
        base = f"branch.{space.value}"
        size, c_in, blocks = cfg.input_size, 3, []
        for i, blk in enumerate(cfg.backbone):
            at, c_out = f"{base}.backbone.{i}", blk.out_channels
            depthwise = _conv(
                f"{at}.depthwise", f"{at}.bn_depthwise",
                macs_conv2d(c_in, c_in, 3, 3, size, size, groups=c_in),
                c_in, 1, 3, 3)
            size //= blk.stride
            blocks.append((depthwise, _conv(
                f"{at}.pointwise", f"{at}.bn_pointwise",
                macs_conv2d(c_in, c_out, 1, 1, size, size),
                c_out, c_in, 1, 1)))
            c_in = c_out
        bottleneck = Layer(f"{base}.bottleneck",
                           _affine(f"{base}.bottleneck.weight", d, c_in, 1, 1),
                           *macs_conv2d(c_in, d, 1, 1, fs, fs))
        attention = ()
        if cfg.attention_enabled:
            at = f"{base}.attention"
            attention = (Layer(at, (
                *_affine(f"{at}.qkv_weight", 3 * d, d),
                *_affine(f"{at}.out_weight", d, d),
                _TensorSpec(f"{at}.rel_bias_table",
                            (heads, (2 * window - 1) ** 2), "zeros"),
            ), *macs_window_attention(d, heads, window, (fs // window) ** 2)),)
        branches.append(Branch(space, tuple(blocks), bottleneck, attention))
    residual = tuple(
        _conv(f"residual.conv{i}", f"residual.bn{i}",
              macs_conv2d(d, d, 3, 3, fs, fs), d, d, 3, 3)
        for i in (1, 2)) if cfg.residual_enabled else ()
    return LayerPlan(
        tuple(branches),
        Layer("fusion.mix", _affine("fusion.mix_weight", d, d),
              *macs_conv2d(d, d, 1, 1, fs, fs)),
        residual,
        Layer("classifier", _affine("classifier.weight", 2, d),
              *macs_linear(d, 2, tokens=1)))
