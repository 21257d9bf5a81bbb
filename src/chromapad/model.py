"""Model assembly, end-to-end inference, and bit-exact weight serialization.

A model is a configuration plus a flat named weight set. Weights initialize
deterministically from the config seed: weight matrices draw from a PCG64
stream with fan-in scaled uniform ranges U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
biases and the attention bias table start at zero, and normalization starts
at identity. Draws happen in the documented layout order (branches in config
order, then fusion, residual, classifier), so one (config, seed) pair always
produces bit-identical weights.

The weight file format: magic "CFPA", then little-endian u32 version (= 1)
and u32 tensor count; per tensor a u32 name length, the UTF-8 name, a u8
dtype code (0 = float32, 1 = quantized int8), a u8 rank, rank u64 extents,
and the payload. Float payloads are row-major little-endian float32; a
quantized payload is the int8 data followed by f_min, f_max, and scale as
little-endian float32 and the zero point as little-endian int32. Tensors are
written sorted by name, so saving is byte-deterministic.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .attention import (
    AttentionParams,
    WindowAttentionConfig,
    multi_head_window_attention,
)
from .blocks import (
    BackboneBlockParams,
    BackboneParams,
    NestedResidualParams,
    backbone_forward,
    bottleneck_project,
    classifier_head,
    fuse_branches,
    nested_residual_forward,
)
from .colorspace import ColorImage, ColorSpace, convert, image_to_tensor, load_ppm
from .errors import ConfigError, ShapeError, SpaceError, WeightFileError
from .metrics import ScoreSet, _operating_point, _sweep
from .quant import (
    DEFAULT_POLICY,
    QuantParams,
    QuantizedTensor,
    dequantize_f32,
    quantize_model,
)
from .tensor_ops import BatchNormParams

WEIGHT_MAGIC = b"CFPA"
WEIGHT_VERSION = 1
BN_EPSILON = 1e-5
INPUT_NORMALIZATION = "divide_by_255"  # plain [0, 1] scaling, no channel stats


@dataclass(frozen=True)
class BackboneBlockSpec:
    """Channel width and downsampling factor of one backbone block."""

    out_channels: int
    stride: int = 1


def _backbone_block(i, entry) -> BackboneBlockSpec:
    """Backbone entry ``i`` of a config, as given or from a JSON object."""
    if isinstance(entry, BackboneBlockSpec):
        return entry
    if not isinstance(entry, dict):
        raise ConfigError(f"backbone entry {i} must be a JSON object, "
                          f"got {type(entry).__name__}")
    unknown = set(entry) - {f.name for f in fields(BackboneBlockSpec)}
    if unknown:
        raise ConfigError(
            f"unknown fields in backbone entry {i}: {sorted(unknown)}")
    if "out_channels" not in entry:
        raise ConfigError(f"backbone entry {i} has no out_channels")
    return BackboneBlockSpec(**entry)


@dataclass(frozen=True)
class ModelConfig:
    """Every architectural toggle and dimension of the network."""

    branches: tuple = (ColorSpace.RGB, ColorSpace.HSV, ColorSpace.YCBCR)
    attention_enabled: bool = True
    residual_enabled: bool = True
    dq_enabled: bool = False
    preset: str = "custom"
    input_size: int = 112
    embed_dim: int = 64
    num_heads: int = 4
    window: int = 7
    pool_factor: int = 2
    backbone: tuple = (
        BackboneBlockSpec(16, 2),
        BackboneBlockSpec(32, 2),
        BackboneBlockSpec(64, 2),
    )
    seed: int = 0

    def __post_init__(self):
        branches = []
        for b in self.branches:
            if not isinstance(b, ColorSpace):
                try:
                    b = ColorSpace(b)
                except ValueError:
                    pass  # validate() reports it
            branches.append(b)
        object.__setattr__(self, "branches", tuple(branches))
        blocks = tuple(_backbone_block(i, b)
                       for i, b in enumerate(self.backbone))
        object.__setattr__(self, "backbone", blocks)
        self.validate()

    @classmethod
    def desk(cls, **overrides) -> "ModelConfig":
        """Small dimensions that run the whole suite in seconds."""
        return cls(preset="desk", **overrides)

    @classmethod
    def paper(cls, **overrides) -> "ModelConfig":
        """Published attention dimensions: d=768, 24 heads, 7x7 windows."""
        defaults = dict(
            preset="paper",
            embed_dim=768,
            num_heads=24,
            window=7,
            backbone=(
                BackboneBlockSpec(32, 2),
                BackboneBlockSpec(64, 2),
                BackboneBlockSpec(128, 2),
            ),
        )
        defaults.update(overrides)
        return cls(**defaults)

    def validate(self):
        problems = []
        if not self.branches:
            problems.append("branches must not be empty")
        seen = set()
        for b in self.branches:
            if not isinstance(b, ColorSpace):
                problems.append(f"branch {b!r} is not a color space")
            elif b in seen:
                problems.append(f"branch {b.value} listed twice")
            else:
                seen.add(b)
        if self.input_size < 1:
            problems.append(f"input_size must be positive, got {self.input_size}")
        if self.embed_dim < 1 or self.num_heads < 1:
            problems.append("embed_dim and num_heads must be positive")
        elif self.embed_dim % self.num_heads:
            problems.append(
                f"embed_dim {self.embed_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.window < 1:
            problems.append(f"window must be positive, got {self.window}")
        if self.pool_factor < 1:
            problems.append(
                f"pool_factor must be positive, got {self.pool_factor}"
            )
        for i, blk in enumerate(self.backbone):
            if blk.out_channels < 1:
                problems.append(f"backbone block {i} has no output channels")
            if blk.stride < 1:
                problems.append(f"backbone block {i} stride must be positive")
        size = self.input_size
        for i, blk in enumerate(self.backbone):
            if blk.stride > 1 and size % blk.stride:
                problems.append(
                    f"backbone block {i} stride {blk.stride} does not divide "
                    f"extent {size}"
                )
                size = 0
                break
            size //= blk.stride
        if size:
            if self.window >= 1 and size % self.window:
                problems.append(
                    f"backbone output extent {size} not divisible by "
                    f"window {self.window}"
                )
            if self.pool_factor >= 1 and size % self.pool_factor:
                problems.append(
                    f"backbone output extent {size} not divisible by "
                    f"pool_factor {self.pool_factor}"
                )
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def feature_size(self) -> int:
        size = self.input_size
        for blk in self.backbone:
            size //= blk.stride
        return size

    @property
    def attention_config(self) -> WindowAttentionConfig:
        return WindowAttentionConfig(
            embed_dim=self.embed_dim, num_heads=self.num_heads,
            window=self.window,
        )

    def to_json_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["branches"] = [b.value for b in self.branches]
        out["backbone"] = [asdict(b) for b in self.backbone]
        out["input_normalization"] = INPUT_NORMALIZATION
        return out

    @classmethod
    def from_json_dict(cls, data) -> "ModelConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(data).__name__}"
            )
        kwargs = dict(data)
        norm = kwargs.pop("input_normalization", INPUT_NORMALIZATION)
        unknown = set(kwargs) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if norm != INPUT_NORMALIZATION:
            raise ConfigError(
                f"unsupported input_normalization {norm!r}; this build uses "
                f"{INPUT_NORMALIZATION!r}"
            )
        return cls(**kwargs)


def load_config(path) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ModelConfig.from_json_dict(json.load(fh))


def save_config(cfg: ModelConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class _TensorSpec:
    name: str
    shape: tuple
    init: str  # "uniform" | "zeros" | "ones"


def _bn_specs(prefix, channels):
    return [
        _TensorSpec(f"{prefix}.gamma", (channels,), "ones"),
        _TensorSpec(f"{prefix}.beta", (channels,), "zeros"),
        _TensorSpec(f"{prefix}.running_mean", (channels,), "zeros"),
        _TensorSpec(f"{prefix}.running_var", (channels,), "ones"),
    ]


def tensor_layout(cfg: ModelConfig):
    """Ordered tensor specs; also the documented weight-draw order."""
    specs = []
    d = cfg.embed_dim
    for space in cfg.branches:
        c_in = 3
        for i, blk in enumerate(cfg.backbone):
            base = f"branch.{space.value}.backbone.{i}"
            specs.append(_TensorSpec(f"{base}.depthwise_weight",
                                     (c_in, 1, 3, 3), "uniform"))
            specs.extend(_bn_specs(f"{base}.bn_depthwise", c_in))
            specs.append(_TensorSpec(f"{base}.pointwise_weight",
                                     (blk.out_channels, c_in, 1, 1), "uniform"))
            specs.extend(_bn_specs(f"{base}.bn_pointwise", blk.out_channels))
            c_in = blk.out_channels
        base = f"branch.{space.value}"
        specs.append(_TensorSpec(f"{base}.bottleneck.weight",
                                 (d, c_in, 1, 1), "uniform"))
        specs.append(_TensorSpec(f"{base}.bottleneck.bias", (d,), "zeros"))
        if cfg.attention_enabled:
            table = (2 * cfg.window - 1) ** 2
            specs.append(_TensorSpec(f"{base}.attention.qkv_weight",
                                     (3 * d, d), "uniform"))
            specs.append(_TensorSpec(f"{base}.attention.qkv_bias",
                                     (3 * d,), "zeros"))
            specs.append(_TensorSpec(f"{base}.attention.out_weight",
                                     (d, d), "uniform"))
            specs.append(_TensorSpec(f"{base}.attention.out_bias",
                                     (d,), "zeros"))
            specs.append(_TensorSpec(f"{base}.attention.rel_bias_table",
                                     (cfg.num_heads, table), "zeros"))
    specs.append(_TensorSpec("fusion.mix_weight", (d, d), "uniform"))
    specs.append(_TensorSpec("fusion.mix_bias", (d,), "zeros"))
    if cfg.residual_enabled:
        specs.append(_TensorSpec("residual.conv1_weight", (d, d, 3, 3),
                                 "uniform"))
        specs.extend(_bn_specs("residual.bn1", d))
        specs.append(_TensorSpec("residual.conv2_weight", (d, d, 3, 3),
                                 "uniform"))
        specs.extend(_bn_specs("residual.bn2", d))
    specs.append(_TensorSpec("classifier.weight", (2, d), "uniform"))
    specs.append(_TensorSpec("classifier.bias", (2,), "zeros"))
    return specs


@dataclass(frozen=True)
class Model:
    """Immutable configuration plus named weights (float or quantized)."""

    config: ModelConfig
    weights: dict = field(repr=False)


def build_model(cfg: ModelConfig) -> Model:
    """Deterministically initialize a model from the config seed.

    With dynamic quantization enabled, the default-policy weight matrices
    are quantized immediately after initialization.
    """
    cfg.validate()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    weights = {}
    for spec in tensor_layout(cfg):
        if spec.init == "uniform":
            fan_in = 1
            for extent in spec.shape[1:]:
                fan_in *= extent
            bound = 1.0 / math.sqrt(fan_in)
            weights[spec.name] = rng.uniform(
                -bound, bound, spec.shape).astype(np.float32)
        elif spec.init == "ones":
            weights[spec.name] = np.ones(spec.shape, np.float32)
        else:
            weights[spec.name] = np.zeros(spec.shape, np.float32)
    if cfg.dq_enabled:
        weights, _ = quantize_model(weights, DEFAULT_POLICY)
    return Model(config=cfg, weights=weights)


def _materialize(weights):
    """Float32 view of the weight set, reconstructing quantized entries."""
    out = {}
    for name, value in weights.items():
        if isinstance(value, QuantizedTensor):
            out[name] = dequantize_f32(value)
        else:
            out[name] = np.asarray(value, np.float32)
    return out


def _bn_params(w, prefix):
    return BatchNormParams(
        gamma=w[f"{prefix}.gamma"],
        beta=w[f"{prefix}.beta"],
        running_mean=w[f"{prefix}.running_mean"],
        running_var=w[f"{prefix}.running_var"],
        epsilon=BN_EPSILON,
    )


def _branch_backbone(cfg, w, space):
    blocks = []
    for i, blk in enumerate(cfg.backbone):
        base = f"branch.{space.value}.backbone.{i}"
        blocks.append(BackboneBlockParams(
            depthwise_weight=w[f"{base}.depthwise_weight"],
            bn_depthwise=_bn_params(w, f"{base}.bn_depthwise"),
            pointwise_weight=w[f"{base}.pointwise_weight"],
            bn_pointwise=_bn_params(w, f"{base}.bn_pointwise"),
            stride=blk.stride,
        ))
    return BackboneParams(blocks=tuple(blocks))


def _branch_attention(cfg, w, space):
    base = f"branch.{space.value}.attention"
    return AttentionParams(
        qkv_weight=w[f"{base}.qkv_weight"],
        qkv_bias=w[f"{base}.qkv_bias"],
        out_weight=w[f"{base}.out_weight"],
        out_bias=w[f"{base}.out_bias"],
        rel_bias_table=w[f"{base}.rel_bias_table"],
    )


def forward(model: Model, img: ColorImage, want_debug: bool = False):
    """Score one RGB image; returns (bona fide probability, debug or None)."""
    cfg = model.config
    if img.space is not ColorSpace.RGB:
        raise SpaceError(f"forward expects an RGB image, got {img.space.value}")
    if (img.height, img.width) != (cfg.input_size, cfg.input_size):
        raise ShapeError(
            f"image is {img.height}x{img.width}, config wants "
            f"{cfg.input_size}x{cfg.input_size}"
        )
    w = _materialize(model.weights)
    attn_cfg = cfg.attention_config
    debug = {"branches": {}} if want_debug else None

    branch_tokens = []
    for space in cfg.branches:
        x = image_to_tensor(convert(img, space))
        feats = backbone_forward(x, _branch_backbone(cfg, w, space))
        base = f"branch.{space.value}"
        tokens = bottleneck_project(
            feats, w[f"{base}.bottleneck.weight"], w[f"{base}.bottleneck.bias"]
        )
        if cfg.attention_enabled:
            tokens = multi_head_window_attention(
                tokens, _branch_attention(cfg, w, space), attn_cfg
            )
        branch_tokens.append(tokens)
        if want_debug:
            debug["branches"][space.value] = {
                "features": feats, "tokens": tokens,
            }

    fused = fuse_branches(branch_tokens, w["fusion.mix_weight"],
                          w["fusion.mix_bias"])
    if want_debug:
        debug["fused"] = fused

    if cfg.residual_enabled:
        chw = np.ascontiguousarray(np.transpose(fused, (2, 0, 1)))
        params = NestedResidualParams(
            conv1_weight=w["residual.conv1_weight"],
            bn1=_bn_params(w, "residual.bn1"),
            conv2_weight=w["residual.conv2_weight"],
            bn2=_bn_params(w, "residual.bn2"),
            pool_factor=cfg.pool_factor,
        )
        out, trace = nested_residual_forward(chw, params)
        if want_debug:
            debug["residual_trace"] = trace
        probs = classifier_head(out, w["classifier.weight"],
                                w["classifier.bias"], layout="chw")
    else:
        probs = classifier_head(fused, w["classifier.weight"],
                                w["classifier.bias"], layout="hwc")
    if want_debug:
        debug["probabilities"] = probs
    return float(probs[0]), debug


def forward_ppm(model: Model, ppm_bytes: bytes) -> float:
    score, _ = forward(model, load_ppm(ppm_bytes))
    return score


# --- weight file serialization -------------------------------------------

_DTYPE_F32 = 0
_DTYPE_QINT8 = 1


def write_tensor_file(tensors, path):
    """Write a named tensor set in the CFPA format, sorted by name."""
    chunks = [WEIGHT_MAGIC, struct.pack("<II", WEIGHT_VERSION, len(tensors))]
    for name in sorted(tensors):
        value = tensors[name]
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        if isinstance(value, QuantizedTensor):
            q = value.qdata
            p = value.params
            if not -2**31 <= p.zero_point < 2**31:
                raise WeightFileError(
                    f"zero point {p.zero_point} of tensor {name!r} does not "
                    f"fit in int32"
                )
            chunks.append(struct.pack("<BB", _DTYPE_QINT8, q.ndim))
            chunks.append(struct.pack(f"<{q.ndim}Q", *q.shape))
            chunks.append(q.astype("<i1").tobytes())
            chunks.append(struct.pack("<fffi", p.f_min, p.f_max, p.scale,
                                      p.zero_point))
        else:
            arr = np.asarray(value, np.float32)
            chunks.append(struct.pack("<BB", _DTYPE_F32, arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.astype("<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise WeightFileError(
                f"truncated while reading {what} at byte offset {self.pos}"
            )
        piece = self.data[self.pos:self.pos + n]
        self.pos += n
        return piece

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_tensor_file(path):
    """Read a CFPA tensor file into an ordered name -> value mapping."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data)
    magic = r.take(4, "magic")
    if magic != WEIGHT_MAGIC:
        raise WeightFileError(
            f"bad magic {magic!r}, expected {WEIGHT_MAGIC!r}"
        )
    version, count = r.unpack("<II", "header")
    if version != WEIGHT_VERSION:
        raise WeightFileError(
            f"unsupported version {version}, expected {WEIGHT_VERSION}"
        )
    tensors = {}
    for _ in range(count):
        (name_len,) = r.unpack("<I", "name length")
        raw_name = r.take(name_len, "tensor name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFileError(
                f"tensor name is not UTF-8 at byte offset "
                f"{r.pos - name_len + exc.start}"
            ) from None
        dtype, rank = r.unpack("<BB", f"descriptor of {name!r}")
        if not 1 <= rank <= 4:
            raise WeightFileError(f"tensor {name!r} has invalid rank {rank}")
        shape = r.unpack(f"<{rank}Q", f"extents of {name!r}")
        n = 1
        for extent in shape:
            n *= extent
        if dtype == _DTYPE_F32:
            raw = r.take(4 * n, f"payload of {name!r}")
            tensors[name] = np.frombuffer(raw, "<f4").reshape(shape).astype(
                np.float32)
        elif dtype == _DTYPE_QINT8:
            raw = r.take(n, f"payload of {name!r}")
            f_min, f_max, scale, zero = r.unpack(
                "<fffi", f"quant params of {name!r}")
            tensors[name] = QuantizedTensor(
                qdata=np.frombuffer(raw, "<i1").reshape(shape).copy(),
                params=QuantParams(f_min=float(f_min), f_max=float(f_max),
                                   scale=float(scale), zero_point=int(zero)),
            )
        else:
            raise WeightFileError(
                f"tensor {name!r} has unknown dtype code {dtype}"
            )
    return tensors


def save_weights(model: Model, path):
    write_tensor_file(model.weights, path)


def load_weights(path, cfg: ModelConfig) -> Model:
    """Load and validate weights against the config's expected layout.

    With dynamic quantization enabled in the config, float default-policy
    tensors quantize at load time; already-quantized tensors load as-is.
    """
    tensors = read_tensor_file(path)
    expected = {spec.name: spec.shape for spec in tensor_layout(cfg)}
    for name in expected:
        if name not in tensors:
            raise WeightFileError(f"missing tensor {name!r} for this config")
    for name in tensors:
        if name not in expected:
            raise WeightFileError(f"unexpected tensor {name!r} for this config")
        shape = tensors[name].shape
        if shape != expected[name]:
            raise WeightFileError(
                f"tensor {name!r} has shape {shape}, config expects "
                f"{expected[name]}"
            )
    if cfg.dq_enabled:
        tensors, _ = quantize_model(tensors, DEFAULT_POLICY)
    return Model(config=cfg, weights=tensors)


# --- ablation table --------------------------------------------------------

CHECK_MARK = "✓"
NO_MARK = "x"


@dataclass(frozen=True)
class AblationRow:
    config: ModelConfig
    bpcer: dict  # alpha -> rate


def ablate(entries, alphas=(0.05, 0.10)):
    """One row per (config, score set) pair, metrics from the score set."""
    entries = list(entries)
    if not entries:
        raise ConfigError("ablation grid is empty")
    rows = []
    for cfg, scores in entries:
        cfg.validate()
        sweep = _sweep(scores)
        bpcer = {alpha: _operating_point(sweep, alpha)[0] for alpha in alphas}
        rows.append(AblationRow(config=cfg, bpcer=bpcer))
    return rows


def ablation_csv(rows, alphas=(0.05, 0.10)) -> str:
    """Render ablation rows as CSV.

    Toggle cells use the check mark / "x" convention; metric cells are
    BPCER percentages with two decimals.
    """
    header = ["rgb", "hsv", "ycbcr", "bottleneck_attention", "residual_block",
              "dq"]
    header += [f"bpcer_at_apcer_{round(alpha * 100):d}pct" for alpha in alphas]
    lines = [",".join(header)]
    for row in rows:
        cfg = row.config
        cells = [
            CHECK_MARK if ColorSpace.RGB in cfg.branches else NO_MARK,
            CHECK_MARK if ColorSpace.HSV in cfg.branches else NO_MARK,
            CHECK_MARK if ColorSpace.YCBCR in cfg.branches else NO_MARK,
            CHECK_MARK if cfg.attention_enabled else NO_MARK,
            CHECK_MARK if cfg.residual_enabled else NO_MARK,
            CHECK_MARK if cfg.dq_enabled else NO_MARK,
        ]
        cells += [f"{100.0 * row.bpcer[alpha]:.2f}" for alpha in alphas]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def standard_ablation_grid(base: ModelConfig = None):
    """The seven-configuration toggle grid over branches/attention/residual/DQ."""
    if base is None:
        base = ModelConfig.desk()
    rgb = (ColorSpace.RGB,)
    rgb_hsv = (ColorSpace.RGB, ColorSpace.HSV)
    rgb_ycbcr = (ColorSpace.RGB, ColorSpace.YCBCR)
    all_three = (ColorSpace.RGB, ColorSpace.HSV, ColorSpace.YCBCR)
    rows = [
        (rgb, True, True, False),
        (rgb_hsv, True, True, False),
        (rgb_ycbcr, True, True, False),
        (all_three, True, False, False),
        (all_three, False, True, False),
        (all_three, True, True, False),
        (all_three, True, True, True),
    ]
    return tuple(
        replace(base, branches=branches, attention_enabled=attn,
                residual_enabled=res, dq_enabled=dq)
        for branches, attn, res, dq in rows
    )


def scores_from_images(cfg: ModelConfig, bonafide_ppms, attack_ppms) -> ScoreSet:
    """Score PPM files with a freshly built (seeded) model.

    ``bonafide_ppms`` and ``attack_ppms`` are sequences of file paths; both
    must be non-empty. Scores come from untrained seeded weights, which is
    enough to exercise a configuration end to end.
    """
    model = build_model(cfg)
    def run(paths):
        scores = []
        for p in paths:
            with open(p, "rb") as fh:
                scores.append(forward_ppm(model, fh.read()))
        return scores

    return ScoreSet(bonafide=run(list(bonafide_ppms)),
                    attack=run(list(attack_ppms)))
