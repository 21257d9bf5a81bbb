"""Deterministic inference engine for a color-space window-attention
presentation attack detector, with int8 weight quantization, MAC profiling,
and ISO-style PAD metrics."""

from .attention import (
    AttentionParams,
    expand_relative_bias,
    multi_head_window_attention,
    qkv_project,
    relative_index_map,
    window_attention_head,
    window_partition,
    window_reverse,
)
from .blocks import (
    BackboneBlockParams,
    BackboneParams,
    NestedResidualParams,
    NestedResidualTrace,
    backbone_forward,
    bottleneck_project,
    classifier_head,
    fuse_branches,
    nested_residual_forward,
)
from .colorspace import (
    ColorImage,
    ColorSpace,
    convert,
    image_to_tensor,
    load_ppm,
    rgb_to_hsv,
    rgb_to_ycbcr,
    to_ppm_bytes,
)
from .complexity import (
    ComplexityReport,
    format_gmacs,
    macs_conv2d,
    macs_linear,
    macs_window_attention,
    model_complexity,
)
from .errors import (
    ChromapadError,
    ConfigError,
    PpmParseError,
    QuantizationError,
    ScoreCsvError,
    ShapeError,
    SpaceError,
    WeightFileError,
)
from .metrics import (
    DetPoint,
    ScoreSet,
    apcer_at,
    bpcer_at,
    bpcer_at_apcer,
    det_csv,
    det_curve,
    eer,
    evaluate_scores,
    read_scores_csv,
    synth_scores,
    write_det_csv,
    write_scores_csv,
)
from .model import (
    BackboneBlockSpec,
    Model,
    ModelConfig,
    ablate,
    ablation_csv,
    build_model,
    forward,
    forward_ppm,
    iter_tensor_file,
    load_config,
    load_weights,
    read_tensor_file,
    save_config,
    save_weights,
    scores_from_images,
    standard_ablation_grid,
    write_tensor_file,
    write_tensors,
)
from .quant import (
    DEFAULT_POLICY,
    QuantParams,
    QuantizationReport,
    QuantizedTensor,
    compute_quant_params,
    dequantize,
    dequantize_f32,
    dequantized_range,
    quantization_report,
    quantize,
    quantize_model,
    quantize_tensor,
)
from .tensor_ops import (
    BatchNormParams,
    avg_pool2d,
    batch_norm,
    batched_matmul,
    conv2d,
    elementwise_add,
    matmul,
    relu,
    softmax_last_axis,
    tensor,
    upsample_nearest,
)

__version__ = "0.1.0"
