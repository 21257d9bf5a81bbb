"""Model assembly, end-to-end inference, and bit-exact weight serialization.

A model is a configuration plus a flat named weight set. Weights initialize
deterministically from the config seed: weight matrices draw from a PCG64
stream with fan-in scaled uniform ranges U(-1/sqrt(fan_in), 1/sqrt(fan_in)),
biases and the attention bias table start at zero, and normalization starts
at identity. Draws follow `plan.layer_plan`, the one statement of the layout
(branches in config order, then fusion, residual, classifier), so one
(config, seed) pair always produces bit-identical weights.

The weight file format: magic "CFPA", then little-endian u32 version (= 1)
and u32 tensor count; per tensor a u32 name length, the UTF-8 name, a u8
dtype code (0 = float32, 1 = quantized int8), a u8 rank, rank u64 extents,
and the payload. Float payloads are row-major little-endian float32; a
quantized payload is the int8 data followed by f_min, f_max, and scale as
little-endian float32 and the zero point as little-endian int32. Tensors are
written sorted by name, so saving is byte-deterministic.

Weights stream between file and arrays, one tensor at a time. Reading
makes a header pass that checks the whole file and notes where each payload
lies, then reads each payload straight into a new array, in name order.
Writing checks each tensor as it arrives and writes it from its array's own
buffer into a new file beside the target, which replaces the target once
every tensor is in. So ``chromapad quantize`` holds one tensor at a time,
and a bad tensor leaves the target as it was.

A model under dynamic quantization keeps its default-policy tensors as int8
codes. `forward` hands each stage its parameters through `_ready`, which
dequantizes those codes to float32 for that stage call alone.
"""

from __future__ import annotations

import io
import json
import math
import os
import signal
import stat
import struct
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from functools import partial
from types import MappingProxyType

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
from .errors import (ChromapadError, ConfigError, PpmParseError,
                     QuantizationError, ShapeError, SpaceError,
                     WeightFileError)
from .metrics import _APCER_CAPS, ScoreSet, _operating_point, _sweep
from .plan import layer_plan
from .quant import (
    DEFAULT_POLICY,
    QuantParams,
    QuantizedTensor,
    _as_predicate,
    dequantize_f32,
    dequantized_range,
    quantize_model,
)
from .tensor_ops import BatchNormParams

WEIGHT_MAGIC = b"CFPA"
WEIGHT_VERSION = 1
BN_EPSILON = 1e-5
_DRAW_CHUNK = 1 << 16  # float64 values per uniform draw in build_model
INPUT_NORMALIZATION = "divide_by_255"  # plain [0, 1] scaling, no channel stats


@dataclass(frozen=True)
class BackboneBlockSpec:
    """Channel width and downsampling factor of one backbone block."""

    out_channels: int
    stride: int = 1


_SPACES = {space.value: space for space in ColorSpace}

# declared field type -> (the one Python type accepted, its JSON name); exact
# types, so True and 112.0 are no int and every accepted value saves back
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
    "tuple": (tuple, "an array"),
}


def _field_problems(obj, where=""):
    """(field, problem) pairs of ``obj``'s fields against their declared
    types; an int field must also be >= 1 (``seed`` >= 0), and each
    dataclass entry of an array field is checked in turn."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        want, kind = _FIELD_TYPES[f.type]
        low = 0 if f.name == "seed" else 1
        if type(value) is not want:
            yield f.name, (f"{where}{f.name} must be {kind}, "
                           f"got {type(value).__name__}")
        elif want is int and value < low:
            yield f.name, f"{where}{f.name} must be >= {low}, got {value}"
        elif want is tuple:
            for i, item in enumerate(value):
                if is_dataclass(item):
                    for _, problem in _field_problems(
                            item, f"{f.name} entry {i} "):
                        yield f.name, problem


def _from_json(cls, data, what):
    """``cls`` built from the JSON object ``data``, called ``what`` in errors."""
    if not isinstance(data, dict):
        raise ConfigError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown fields in {what}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in data]
    if missing:
        raise ConfigError(f"{what} has no {', '.join(missing)}")
    return cls(**data)


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
        if isinstance(self.branches, (list, tuple)):
            object.__setattr__(self, "branches", tuple(
                _SPACES.get(b, b) if isinstance(b, str) else b
                for b in self.branches))
        if isinstance(self.backbone, (list, tuple)):
            object.__setattr__(self, "backbone", tuple(
                b if isinstance(b, BackboneBlockSpec)
                else _from_json(BackboneBlockSpec, b, f"backbone entry {i}")
                for i, b in enumerate(self.backbone)))
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
        """Raise one ConfigError listing every problem of this config; a
        check that reads a field the field rule rejected is skipped."""
        found = list(_field_problems(self))
        bad = {name for name, _ in found}
        problems = [problem for _, problem in found]
        if "branches" not in bad:
            if not self.branches:
                problems.append("branches must not be empty")
            for i, b in enumerate(self.branches):
                if not isinstance(b, ColorSpace):
                    problems.append(f"branch {b!r} is not a color space")
                elif b in self.branches[:i]:
                    problems.append(f"branch {b.value} listed twice")
        if not bad & {"embed_dim", "num_heads"} \
                and self.embed_dim % self.num_heads:
            problems.append(f"embed_dim {self.embed_dim} not divisible by "
                            f"num_heads {self.num_heads}")
        if not bad & {"input_size", "backbone"}:
            # every stride divides the extent it meets iff their product
            # divides input_size
            stride = math.prod(blk.stride for blk in self.backbone)
            if self.input_size % stride:
                problems.append(
                    f"input_size {self.input_size} not divisible by the "
                    f"backbone's total stride {stride}")
            else:
                for name in ("window", "pool_factor"):
                    step = getattr(self, name)
                    if name not in bad and self.feature_size % step:
                        problems.append(
                            f"backbone output extent {self.feature_size} "
                            f"not divisible by {name} {step}")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def feature_size(self) -> int:
        """Backbone output extent: input_size over the product of strides."""
        return self.input_size // math.prod(
            blk.stride for blk in self.backbone)

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
        if isinstance(data, dict):
            data = dict(data)
            norm = data.pop("input_normalization", INPUT_NORMALIZATION)
            if norm != INPUT_NORMALIZATION:
                raise ConfigError(
                    f"unsupported input_normalization {norm!r}; this build "
                    f"uses {INPUT_NORMALIZATION!r}"
                )
        return _from_json(cls, data, "config")


def read_text(path, what):
    """The text of the UTF-8 file ``path``, newlines translated as a
    text-mode read does; a byte that is not UTF-8 raises `ChromapadError`
    naming the file, called ``what``, and the byte's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ChromapadError(f"{what} {path} is not UTF-8 at byte offset "
                             f"{exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_json(path, what):
    """The JSON value held in the UTF-8 file ``path``, called ``what``."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except RecursionError:
        raise ChromapadError(f"{what} {path} nests too deeply to parse") \
            from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past Python's digit limit
        raise ChromapadError(f"{what} {path} cannot be parsed: {exc}") \
            from None


def load_config(path) -> ModelConfig:
    return ModelConfig.from_json_dict(read_json(path, "config"))


def save_config(cfg: ModelConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, indent=2)
        fh.write("\n")


def tensor_layout(cfg: ModelConfig):
    """Ordered tensor specs of the layer plan; also the weight-draw order."""
    return [spec for layer in layer_plan(cfg).layers for spec in layer.specs]


@dataclass(frozen=True)
class Model:
    """Configuration plus named weights, checked against the layer plan and
    made run-ready once, when built: under dynamic quantization float
    default-policy tensors quantize. Quantized default-policy tensors stay
    int8 codes, which `forward` dequantizes per stage call; any other
    quantized tensor dequantizes here, and float ones are shared. The
    mapping and every array are then read-only, so `forward` runs what
    `save_weights` saves."""

    config: ModelConfig
    weights: dict = field(repr=False)  # read-only after construction
    _stages: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        plan = layer_plan(self.config)
        shapes = {s.name: s.shape for layer in plan.layers
                  for s in layer.specs}
        for name in shapes:
            if name not in self.weights:
                raise WeightFileError(
                    f"missing tensor {name!r} for this config")
        given = self.weights
        if self.config.dq_enabled:
            given, _ = quantize_model(given, DEFAULT_POLICY)
        in_policy = _as_predicate(DEFAULT_POLICY)
        weights, ready = {}, {}
        for name, value in given.items():
            if not isinstance(value, QuantizedTensor):
                value = np.asarray(value, np.float32)
            weights[name] = value
            if name not in shapes:
                raise WeightFileError(
                    f"unexpected tensor {name!r} for this config")
            if value.shape != shapes[name]:
                raise WeightFileError(
                    f"tensor {name!r} has shape {value.shape}, config "
                    f"expects {shapes[name]}")
            if isinstance(value, QuantizedTensor):
                p = value.params
                if not all(map(math.isfinite, (p.f_min, p.f_max, p.scale))):
                    raise WeightFileError(f"tensor {name!r} has non-finite "
                                          f"quantization parameters")
                value.qdata.flags.writeable = False
                low, high = dequantized_range(value)
            else:
                # min and max propagate NaN, and neither copies the tensor
                low, high = value.min(), value.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                raise WeightFileError(f"tensor {name!r} holds non-finite "
                                      f"values")
            if isinstance(value, QuantizedTensor) and not in_policy(name):
                # only a custom policy quantizes these, and the batch-norm
                # and residual parameters check their float values at build
                value = dequantize_f32(value)
            if not isinstance(value, QuantizedTensor):
                value.flags.writeable = False
            ready[name] = value
        object.__setattr__(self, "weights", MappingProxyType(weights))
        object.__setattr__(self, "_stages",
                           _stage_params(self.config, plan, ready))


def _stage_params(cfg, plan, arrays):
    """(branches, fusion, residual, classifier) run-ready parameters; each
    is built positionally from its layers' tensors in spec order."""
    def args(*layers):
        out = []
        for layer in layers:
            a = [arrays[spec.name] for spec in layer.specs]
            if layer.norm:
                # shapes already match the plan, so only a negative
                # running_var (the last spec) can fail the check
                try:
                    a = [a[0], BatchNormParams(*a[1:], BN_EPSILON)]
                except ConfigError as exc:
                    raise WeightFileError(
                        f"tensor {layer.specs[-1].name!r}: {exc}") from None
            out += a
        return out

    branches = tuple((
        b.space,
        BackboneParams(tuple(BackboneBlockParams(*args(*pair), blk.stride)
                             for pair, blk in zip(b.backbone, cfg.backbone))),
        args(b.bottleneck),
        AttentionParams(*args(*b.attention)) if b.attention else None,
    ) for b in plan.branches)
    residual = NestedResidualParams(*args(*plan.residual), cfg.pool_factor) \
        if plan.residual else None
    return branches, args(plan.fusion), residual, args(plan.classifier)


def _ready(params):
    """``params`` as the kernels take them: each `QuantizedTensor` in it, at
    any depth of lists, tuples and dataclasses, dequantized to a new float32
    array that lives only as long as the stage call it is passed to. What
    holds no quantized tensor is returned as it is."""
    if isinstance(params, (np.ndarray, BatchNormParams)):  # float32 always
        return params
    if isinstance(params, QuantizedTensor):
        return dequantize_f32(params)
    if isinstance(params, (list, tuple)):
        ready = [_ready(p) for p in params]
        if all(r is p for r, p in zip(ready, params)):
            return params
        return type(params)(ready)
    if is_dataclass(params):
        changed = {}
        for f in fields(params):
            value = getattr(params, f.name)
            if (new := _ready(value)) is not value:
                changed[f.name] = new
        return replace(params, **changed) if changed else params
    return params


def _physical_memory():
    """Bytes of physical memory on this host, or None where unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def build_model(cfg: ModelConfig) -> Model:
    """Deterministically initialize a model from the config seed.

    A config whose float32 weights would not fit in the host's physical
    memory raises `ConfigError` before anything is allocated. A uniform
    tensor is drawn `_DRAW_CHUNK` values at a time into its float32 array;
    a PCG64 stream drawn in pieces equals one draw."""
    specs = tensor_layout(cfg)
    need = 4 * sum(math.prod(spec.shape) for spec in specs)
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigError(f"config needs {need} bytes of float32 weights, "
                          f"more than the host's {have} bytes of physical "
                          f"memory")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    weights = {}
    for spec in specs:
        if spec.init == "uniform":
            bound = 1.0 / math.sqrt(math.prod(spec.shape[1:]))
            weights[spec.name] = arr = np.empty(spec.shape, np.float32)
            flat = arr.reshape(-1)
            for start in range(0, flat.size, _DRAW_CHUNK):
                piece = flat[start:start + _DRAW_CHUNK]
                piece[...] = rng.uniform(-bound, bound, piece.size)
        elif spec.init == "ones":
            weights[spec.name] = np.ones(spec.shape, np.float32)
        else:
            weights[spec.name] = np.zeros(spec.shape, np.float32)
    return Model(config=cfg, weights=weights)


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
    branches, fusion, residual, classifier = model._stages
    debug = {"branches": {}} if want_debug else None

    branch_tokens = []
    for space, backbone, bottleneck, attention in branches:
        x = image_to_tensor(convert(img, space))
        feats = backbone_forward(x, _ready(backbone))
        tokens = bottleneck_project(feats, *_ready(bottleneck))
        if attention is not None:
            tokens = multi_head_window_attention(tokens, _ready(attention),
                                                 cfg.attention_config)
        branch_tokens.append(tokens)
        if want_debug:
            debug["branches"][space.value] = {
                "features": feats, "tokens": tokens,
            }

    fused = fuse_branches(branch_tokens, *_ready(fusion))
    if want_debug:
        debug["fused"] = fused

    if residual is not None:
        fused, trace = nested_residual_forward(fused, _ready(residual))
        if want_debug:
            debug["residual_trace"] = trace
    probs = classifier_head(fused, *_ready(classifier))
    if want_debug:
        debug["probabilities"] = probs
    return float(probs[0]), debug


def forward_ppm(model: Model, ppm_bytes: bytes) -> float:
    score, _ = forward(model, load_ppm(ppm_bytes))
    return score


def score_ppm_file(model: Model, path, forward=forward_ppm) -> float:
    """``forward(model, bytes)`` of the PPM file at ``path``; a
    `PpmParseError` is raised again with ``path`` in its message."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return forward(model, data)
    except PpmParseError as exc:
        raise PpmParseError(f"{path}: {exc.reason}", exc.offset) from None


# --- scoring many images ---------------------------------------------------

def _share_cpus():
    """The CPUs that shares are pinned to: those the calling thread may run
    on, or none where a process cannot fork or pin itself."""
    if not all(hasattr(os, f) for f in
               ("fork", "sched_getaffinity", "sched_setaffinity")):
        return []
    return sorted(os.sched_getaffinity(0))


def _score_share(score, paths, share, cpu, write_fd):
    """Body of a forked child: score ``share`` pinned to ``cpu``, writing
    each score to ``write_fd`` as 8 float64 bytes. Never returns, so the
    child never runs its caller's code or flushes its caller's buffers."""
    code = 1
    try:
        os.sched_setaffinity(0, {cpu})
        for i in share:
            os.write(write_fd, struct.pack("d", score(paths[i])))
        code = 0
    finally:  # whatever was raised, BaseException included
        os._exit(code)


def _read_to_eof(fd):
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def score_in_shares(score, paths):
    """``[score(p) for p in paths]``, with contiguous shares of ``paths``
    scored side by side, one per CPU, as forked processes.

    With at least two paths and two CPUs the calling thread forks one child
    per share after the first; each child pins itself to its own CPU, so
    its products run serially, and sends back each score's exact float64
    bytes. The caller pins itself to the first CPU for the first share and
    restores its mask afterwards. It then reads every child's scores to
    EOF and reaps every child, and scores in argument order whatever a
    child did not hand back. Scoring is deterministic, so a failing path
    raises exactly what the serial loop raises, and no exception crosses a
    process boundary. If the caller's own share raises, every child is
    killed and reaped before the exception propagates. Without ``os.fork``
    or CPU affinity, or with one CPU or one path, this is the serial loop.
    """
    paths = list(paths)
    cpus = _share_cpus()
    width = min(len(cpus), len(paths))
    if width < 2:
        return [score(p) for p in paths]
    step = -(-len(paths) // width)
    shares = [range(i, min(i + step, len(paths)))
              for i in range(0, len(paths), step)]
    got = [None] * len(paths)
    children = []  # (pid, read fd, share)
    try:
        for cpu, share in zip(cpus[1:], shares[1:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # the caller scores this share itself
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _score_share(score, paths, share, cpu, write_fd)
            children.append((pid, read_fd, share))
            os.close(write_fd)
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[0]})
        try:
            for i in shares[0]:
                got[i] = score(paths[i])
        finally:
            os.sched_setaffinity(0, mask)
        for _, read_fd, share in children:
            # a pipe write of 8 bytes is atomic, so a child that died
            # mid-share leaves whole scores only
            scores = struct.iter_unpack("d", _read_to_eof(read_fd))
            for i, (value,) in zip(share, scores):
                got[i] = value
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd, _ in children:
            os.close(read_fd)
            os.waitpid(pid, 0)
    return [score(p) if value is None else value
            for p, value in zip(paths, got)]


# --- weight file serialization -------------------------------------------

_DTYPE_F32 = 0
_DTYPE_QINT8 = 1


def write_tensor_file(tensors, path):
    """Write a named tensor set in the CFPA format, sorted by name."""
    write_tensors(((name, tensors[name]) for name in sorted(tensors)), path)


def write_tensors(tensors, path):
    """Write (name, value) pairs as a CFPA file at ``path``, in the order
    given.

    Each tensor is checked and written as it arrives, from the array's own
    buffer, into a new file beside ``path`` that replaces ``path`` once the
    last one is in. A tensor that fails leaves ``path`` as it was and no
    other file behind, and the pairs may be read from ``path`` itself."""
    fh, tmp = _create_beside(path)
    try:
        with fh:
            fh.write(WEIGHT_MAGIC + struct.pack("<II", WEIGHT_VERSION, 0))
            count = 0
            for name, value in tensors:
                _write_tensor(fh, name, value)
                count += 1
                del value  # dropped before the next pair is made
            fh.seek(len(WEIGHT_MAGIC) + 4)  # the tensor count, now known
            fh.write(struct.pack("<I", count))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _create_beside(path):
    """A new file in the directory of ``path``, opened for writing and
    created as `open` creates one (mode 0o666 less the umask), and its
    path."""
    head, tail = os.path.split(os.fspath(path))
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        try:
            return open(tmp, "xb"), tmp
        except FileExistsError:
            continue


def _write_tensor(fh, name, value):
    encoded = name.encode("utf-8")
    trailer = b""
    if isinstance(value, QuantizedTensor):
        p = value.params
        if not -2**31 <= p.zero_point < 2**31:
            raise WeightFileError(
                f"zero point {p.zero_point} of tensor {name!r} does not "
                f"fit in int32"
            )
        code, payload = _DTYPE_QINT8, np.asarray(value.qdata, order="C")
        trailer = struct.pack("<fffi", p.f_min, p.f_max, p.scale,
                              p.zero_point)
    else:
        code, payload = _DTYPE_F32, np.asarray(value, "<f4", order="C")
    fh.write(struct.pack(f"<I{len(encoded)}sBB{payload.ndim}Q",
                         len(encoded), encoded, code, payload.ndim,
                         *payload.shape))
    fh.write(payload)
    fh.write(trailer)


def _new_array(dtype, shape, name):
    try:
        return np.empty(shape, dtype)
    except ValueError:  # a zero extent beside extents too large to span
        raise WeightFileError(f"tensor {name!r} has extents {shape} that "
                              f"no array can hold") from None


class _Reader:
    """Position-tracked reads from a seekable binary stream of ``size``
    bytes; each read is checked against the bytes left before anything is
    read or allocated for it."""

    def __init__(self, fh, size):
        self.fh = fh
        self.size = size
        self.pos = 0

    def _check(self, n, what):
        if n > self.size - self.pos:
            raise self._truncated(what)

    def _truncated(self, what):
        return WeightFileError(
            f"truncated while reading {what} at byte offset {self.pos}")

    def take(self, n, what):
        self._check(n, what)
        piece = self.fh.read(n)
        if len(piece) != n:  # the file shrank after its size was taken
            raise self._truncated(what)
        self.pos += n
        return piece

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def skip_array(self, dtype, shape, name):
        """Check the payload of tensor ``name`` and step past it unread;
        returns its byte offset."""
        n = math.prod(shape) * np.dtype(dtype).itemsize
        self._check(n, f"payload of {name!r}")
        if n == 0:
            _new_array(dtype, shape, name)  # allocates nothing
        offset = self.pos
        self.fh.seek(n, io.SEEK_CUR)
        self.pos += n
        return offset

    def read_array(self, dtype, shape, name, offset):
        """The payload of tensor ``name`` at ``offset``, read straight into
        its array."""
        self.fh.seek(offset)
        self.pos = offset
        arr = _new_array(dtype, shape, name)
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise self._truncated(f"payload of {name!r}")
        self.pos += arr.nbytes
        return arr


def read_tensor_file(path):
    """Read a CFPA tensor file into a name -> value mapping, in name
    order."""
    return dict(iter_tensor_file(path))


def iter_tensor_file(path):
    """Yield the tensors of CFPA file ``path`` as (name, value) pairs in
    name order, reading one payload at a time straight into its array.

    A header pass first runs every check over the whole file without
    reading a payload, so a bad file raises before the first pair. Where a
    name repeats, its last tensor counts. A path that is not a regular
    file, such as a pipe, is read whole first."""
    with open(path, "rb") as fh:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            yield from _iter_tensors(_Reader(fh, st.st_size))
            return
        data = fh.read()
    yield from _iter_tensors(_Reader(io.BytesIO(data), len(data)))


def _iter_tensors(r):
    entries = _header_pass(r)
    for name in sorted(entries):
        shape, offset, params = entries[name]
        if params is None:
            # native order for the kernels: no copy on a little-endian host
            yield name, r.read_array("<f4", shape, name, offset).astype(
                np.float32, copy=False)
        else:
            yield name, QuantizedTensor(
                qdata=r.read_array(np.int8, shape, name, offset),
                params=params)


def _header_pass(r):
    """name -> (shape, payload offset, quantization params or None for a
    float tensor) of every tensor, each checked as the file is read."""
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
    entries = {}
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
        if dtype == _DTYPE_F32:
            entries[name] = (shape, r.skip_array("<f4", shape, name), None)
        elif dtype == _DTYPE_QINT8:
            offset = r.skip_array(np.int8, shape, name)
            f_min, f_max, scale, zero = r.unpack(
                "<fffi", f"quant params of {name!r}")
            try:
                params = QuantParams(f_min=float(f_min), f_max=float(f_max),
                                     scale=float(scale), zero_point=int(zero))
            except QuantizationError as exc:
                raise WeightFileError(f"tensor {name!r}: {exc}") from None
            entries[name] = (shape, offset, params)
        else:
            raise WeightFileError(
                f"tensor {name!r} has unknown dtype code {dtype}"
            )
    return entries


def save_weights(model: Model, path):
    write_tensor_file(model.weights, path)


def load_weights(path, cfg: ModelConfig) -> Model:
    """Load weights and build the model of ``cfg`` from them."""
    return Model(config=cfg, weights=read_tensor_file(path))


# --- ablation table --------------------------------------------------------

CHECK_MARK = "✓"
NO_MARK = "x"


@dataclass(frozen=True)
class AblationRow:
    config: ModelConfig
    bpcer: dict  # alpha -> rate


def ablate(entries):
    """One row per (config, score set) pair, metrics from the score set."""
    entries = list(entries)
    if not entries:
        raise ConfigError("ablation grid is empty")
    rows = []
    for cfg, scores in entries:
        sweep = _sweep(scores)
        bpcer = {alpha: _operating_point(sweep, alpha)[0]
                 for alpha in _APCER_CAPS}
        rows.append(AblationRow(config=cfg, bpcer=bpcer))
    return rows


def ablation_csv(rows) -> str:
    """Render ablation rows as CSV.

    Toggle cells use the check mark / "x" convention; metric cells are
    BPCER percentages with two decimals, one column per APCER cap of the
    first row's ``bpcer``.
    """
    alphas = list(rows[0].bpcer) if rows else []
    columns = {}
    for alpha in alphas:
        name = f"bpcer_at_apcer_{round(alpha * 100):d}pct"
        if name in columns:
            raise ConfigError(f"APCER caps {columns[name]} and {alpha} both "
                              f"render as column {name}")
        columns[name] = alpha
    header = ["rgb", "hsv", "ycbcr", "bottleneck_attention", "residual_block",
              "dq", *columns]
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
    bonafide = list(bonafide_ppms)
    scores = score_in_shares(partial(score_ppm_file, model),
                             [*bonafide, *attack_ppms])
    return ScoreSet(bonafide=scores[:len(bonafide)],
                    attack=scores[len(bonafide):])
