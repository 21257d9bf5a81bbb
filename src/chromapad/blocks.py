"""Composite pieces of the network.

A branch backbone is a stack of depthwise-separable blocks (a pluggable,
simplified feature extractor), followed by a 1x1 bottleneck projection into
(H, W, d) token layout. Branch token maps fuse by elementwise addition plus
a 1x1 convolution into a (d, H, W) channel map, the layout of every later
block. The nested residual block transforms, downsamples, upsamples, and
merges back through a residual connection; its forward pass returns a
trace of every intermediate so the merge identity is directly testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor_ops import (
    BatchNormParams,
    avg_pool2d,
    batch_norm,
    conv2d,
    elementwise_add,
    matmul,
    relu,
    softmax_last_axis,
    upsample_nearest,
)


@dataclass(frozen=True, eq=False)
class BackboneBlockParams:
    """One depthwise-separable block: depthwise 3x3 then pointwise 1x1."""

    depthwise_weight: np.ndarray   # (C_in, 1, 3, 3)
    bn_depthwise: BatchNormParams
    pointwise_weight: np.ndarray   # (C_out, C_in, 1, 1)
    bn_pointwise: BatchNormParams
    stride: int = 1

    @property
    def in_channels(self) -> int:
        return self.depthwise_weight.shape[0]

    @property
    def out_channels(self) -> int:
        return self.pointwise_weight.shape[0]


@dataclass(frozen=True, eq=False)
class BackboneParams:
    """An ordered stack of depthwise-separable blocks."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        prev = None
        for i, blk in enumerate(self.blocks):
            if blk.stride < 1:
                raise ConfigError(f"block {i} stride must be positive")
            if prev is not None and blk.in_channels != prev:
                raise ShapeError(
                    f"block {i} expects {blk.in_channels} input channels, "
                    f"previous block emits {prev}"
                )
            prev = blk.out_channels


def backbone_forward(x, params: BackboneParams) -> np.ndarray:
    """Run the block stack; an empty stack is the identity.

    Each block is depthwise 3x3 conv (padding 1) -> norm -> relu ->
    pointwise conv -> norm -> relu. A block with stride s downsamples by
    average-pooling right after its depthwise convolution, so extents
    shrink by exactly s while the 3x3 convolutions keep their padding-1
    geometry; the output extent is the input divided by the product of
    the strides.
    """
    x = np.asarray(x, np.float32)
    for blk in params.blocks:
        x = conv2d(x, blk.depthwise_weight, padding=1, groups=blk.in_channels)
        if blk.stride > 1:
            x = avg_pool2d(x, blk.stride)
        x = batch_norm(x, blk.bn_depthwise)
        relu(x, out=x)  # the norm's output is fresh
        x = batch_norm(conv2d(x, blk.pointwise_weight), blk.bn_pointwise)
        relu(x, out=x)
    return x


def bottleneck_project(features, weight, bias=None) -> np.ndarray:
    """1x1-convolve (C, H, W) features to d channels, in token layout.

    Returns (H, W, d): the channel axis moves last so the map is ready for
    window attention.
    """
    projected = conv2d(features, weight, bias=bias)
    return np.transpose(projected, (1, 2, 0))


def fuse_branches(branches, mix_weight, mix_bias=None) -> np.ndarray:
    """Elementwise-sum (H, W, d) branch token maps, then mix channels.

    The per-element addends are summed in ascending order of value (a sort
    beyond three branches), so the result is bit-identical under any
    permutation of the branches.
    The mix is a 1x1 convolution with the (d, d) weight; the result is the
    (d, H, W) channel map.
    """
    branches = [np.asarray(b, np.float32) for b in branches]
    if not branches:
        raise ShapeError("fuse_branches needs at least one branch")
    shape = branches[0].shape
    if len(shape) != 3:
        raise ShapeError(f"branch token maps must be (H, W, d), got {shape}")
    for i, b in enumerate(branches[1:], start=1):
        if b.shape != shape:
            raise ShapeError(
                f"branch 0 has shape {shape} but branch {i} has {b.shape}"
            )
    d = shape[2]
    mix_weight = np.asarray(mix_weight, np.float32)
    if mix_weight.shape != (d, d):
        raise ShapeError(
            f"mix weight shape {mix_weight.shape}, expected ({d}, {d})")
    if len(branches) == 1:
        total = branches[0]
    elif len(branches) == 2:  # IEEE addition commutes
        total = branches[0] + branches[1]
    elif len(branches) == 3:
        # a min/max network: the two smaller addends (in either order), then
        # the largest. A -0.0/+0.0 tie may leave an all-zero total either
        # sign, which the mix, starting every sum at +0.0, never shows
        a, b, c = branches
        hi = np.maximum(a, b)
        total = (np.minimum(a, b) + np.minimum(hi, c)) + np.maximum(hi, c)
    else:
        stacked = np.sort(np.stack(branches, axis=0), axis=0)
        total = stacked[0]
        for i in range(1, len(branches)):
            total = total + stacked[i]
    return conv2d(np.transpose(total, (2, 0, 1)),
                  mix_weight.reshape(d, d, 1, 1), bias=mix_bias)


@dataclass(frozen=True, eq=False)
class NestedResidualParams:
    """Channel-preserving 3x3 convolutions around a pool/upsample detour."""

    conv1_weight: np.ndarray
    bn1: BatchNormParams
    conv2_weight: np.ndarray
    bn2: BatchNormParams
    pool_factor: int = 2

    def __post_init__(self):
        for name in ("conv1_weight", "conv2_weight"):
            w = np.asarray(getattr(self, name))
            if w.ndim != 4 or w.shape[0] != w.shape[1]:
                raise ShapeError(
                    f"{name} must be channel-preserving (C, C, k, k), "
                    f"got {w.shape}"
                )
        if self.pool_factor < 1:
            raise ConfigError(
                f"pool factor must be >= 1, got {self.pool_factor}"
            )


@dataclass(frozen=True, eq=False)
class NestedResidualTrace:
    """Every intermediate of one nested-residual forward pass."""

    activated: np.ndarray   # after conv1 + norm + relu
    pooled: np.ndarray      # downsampled activation
    upsampled: np.ndarray   # pooled map re-expanded to the activation shape
    merged: np.ndarray      # activated + upsampled (the residual connection)
    output: np.ndarray      # after conv2 + norm


def nested_residual_forward(x, params: NestedResidualParams):
    """Forward pass of the nested residual block, with its trace.

    conv1 -> norm -> relu gives the initial transformation; average pooling
    extracts a coarser map which nearest-neighbor upsampling re-expands; the
    residual merge adds it back to the initial transformation, and conv2 +
    norm produce the output. Spatial shape is preserved throughout.
    """
    x = np.asarray(x, np.float32)
    k = params.pool_factor
    if x.ndim != 3:
        raise ShapeError(f"input must be (C, H, W), got {x.shape}")
    if x.shape[1] % k or x.shape[2] % k:
        raise ShapeError(
            f"spatial extents {x.shape[1]}x{x.shape[2]} not divisible by "
            f"pool factor {k}"
        )
    activated = batch_norm(conv2d(x, params.conv1_weight, stride=1,
                                  padding=1), params.bn1)
    relu(activated, out=activated)
    pooled = avg_pool2d(activated, k)
    upsampled = upsample_nearest(pooled, k)
    merged = elementwise_add(activated, upsampled)
    output = batch_norm(conv2d(merged, params.conv2_weight, stride=1,
                               padding=1), params.bn2)
    trace = NestedResidualTrace(activated=activated, pooled=pooled,
                                upsampled=upsampled, merged=merged,
                                output=output)
    return output, trace


def classifier_head(features, weight, bias=None) -> np.ndarray:
    """Global average pool of a (C, H, W) map, affine map to 2 logits, softmax.

    Index 0 of the result is the bona fide probability and index 1 the
    attack probability.
    """
    features = np.asarray(features, np.float32)
    if features.ndim != 3:
        raise ShapeError(f"features must be (C, H, W), got {features.shape}")
    flat = features.reshape(features.shape[0], -1).T
    # ascending-order mean per channel, in double precision
    pooled = np.cumsum(flat.astype(np.float64), axis=0)[-1] / flat.shape[0]
    pooled = pooled.astype(np.float32)
    weight = np.asarray(weight, np.float32)
    if weight.ndim != 2 or weight.shape != (2, pooled.shape[0]):
        raise ShapeError(
            f"classifier weight shape {weight.shape}, expected "
            f"(2, {pooled.shape[0]})"
        )
    logits = matmul(pooled[None, :], weight.T)[0]
    if bias is not None:
        logits = logits + np.asarray(bias, np.float32)
    return softmax_last_axis(logits)
