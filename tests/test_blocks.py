"""Tests for the backbone, fusion, nested residual block, and classifier."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from chromapad.blocks import (
    BackboneBlockParams,
    BackboneParams,
    NestedResidualParams,
    backbone_forward,
    bottleneck_project,
    classifier_head,
    fuse_branches,
    nested_residual_forward,
)
from chromapad.errors import ShapeError
from chromapad.tensor_ops import (
    BatchNormParams,
    avg_pool2d,
    batch_norm,
    conv2d,
    elementwise_add,
    matmul,
    relu,
    upsample_nearest,
)


def make_block(rng, c_in, c_out, stride=1):
    return BackboneBlockParams(
        depthwise_weight=rng.standard_normal((c_in, 1, 3, 3))
        .astype(np.float32) / 3.0,
        bn_depthwise=BatchNormParams.identity(c_in),
        pointwise_weight=rng.standard_normal((c_out, c_in, 1, 1))
        .astype(np.float32) / math.sqrt(c_in),
        bn_pointwise=BatchNormParams.identity(c_out),
        stride=stride,
    )


def make_residual(rng, channels, k=2):
    return NestedResidualParams(
        conv1_weight=rng.standard_normal((channels, channels, 3, 3))
        .astype(np.float32) / (3.0 * math.sqrt(channels)),
        bn1=BatchNormParams.identity(channels),
        conv2_weight=rng.standard_normal((channels, channels, 3, 3))
        .astype(np.float32) / (3.0 * math.sqrt(channels)),
        bn2=BatchNormParams.identity(channels),
        pool_factor=k,
    )


class TestBackbone:
    def test_empty_stack_is_identity(self):
        x = np.random.default_rng(0).standard_normal((3, 4, 4)).astype(np.float32)
        assert np.array_equal(backbone_forward(x, BackboneParams(blocks=())), x)

    def test_zero_weights_zero_output_of_pooled_shape(self):
        rng = np.random.default_rng(1)
        blk = make_block(rng, 3, 5, stride=2)
        blk = BackboneBlockParams(
            depthwise_weight=np.zeros_like(blk.depthwise_weight),
            bn_depthwise=blk.bn_depthwise,
            pointwise_weight=np.zeros_like(blk.pointwise_weight),
            bn_pointwise=blk.bn_pointwise,
            stride=2,
        )
        out = backbone_forward(np.ones((3, 8, 8), np.float32),
                               BackboneParams(blocks=(blk,)))
        assert out.shape == (5, 4, 4)
        assert np.all(out == 0.0)

    def test_one_block_matches_kernel_composition(self):
        rng = np.random.default_rng(2)
        blk = make_block(rng, 3, 6, stride=2)
        x = rng.standard_normal((3, 4, 4)).astype(np.float32)
        got = backbone_forward(x, BackboneParams(blocks=(blk,)))
        step = conv2d(x, blk.depthwise_weight, padding=1, groups=3)
        step = avg_pool2d(step, 2)
        step = relu(batch_norm(step, blk.bn_depthwise))
        step = conv2d(step, blk.pointwise_weight)
        want = relu(batch_norm(step, blk.bn_pointwise))
        assert got.tobytes() == want.tobytes()

    def test_stride_product_shrinks_extents(self):
        rng = np.random.default_rng(3)
        blocks = (make_block(rng, 3, 4, 2), make_block(rng, 4, 8, 2))
        out = backbone_forward(np.ones((3, 12, 12), np.float32),
                               BackboneParams(blocks=blocks))
        assert out.shape == (8, 3, 3)

    def test_channel_chain_validated(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            BackboneParams(blocks=(make_block(rng, 3, 4),
                                   make_block(rng, 5, 6)))


class TestBottleneck:
    def test_identity_projection_is_layout_change(self):
        x = np.random.default_rng(5).standard_normal((3, 2, 2)).astype(np.float32)
        eye = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        tokens = bottleneck_project(x, eye)
        assert tokens.shape == (2, 2, 3)
        assert np.array_equal(tokens, np.transpose(x, (1, 2, 0)))

    def test_zero_weights(self):
        x = np.ones((2, 3, 3), np.float32)
        tokens = bottleneck_project(x, np.zeros((4, 2, 1, 1), np.float32))
        assert tokens.shape == (3, 3, 4)
        assert np.all(tokens == 0.0)

    def test_matches_per_pixel_matmul(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 3)).astype(np.float32)
        w = rng.standard_normal((5, 2, 1, 1)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        tokens = bottleneck_project(x, w, b)
        for i in range(3):
            for j in range(3):
                want = w[:, :, 0, 0].astype(np.float64) @ \
                    x[:, i, j].astype(np.float64) + b
                assert np.allclose(tokens[i, j], want, atol=1e-5)


class TestFusion:
    def test_single_branch_identity_mix(self):
        t = np.random.default_rng(7).standard_normal((2, 2, 3)).astype(np.float32)
        eye = np.eye(3, dtype=np.float32)
        assert np.allclose(fuse_branches([t], eye), np.transpose(t, (2, 0, 1)),
                           atol=1e-6)

    def test_opposite_branches_cancel(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((2, 2, 3)).astype(np.float32)
        mix = rng.standard_normal((3, 3)).astype(np.float32)
        out = fuse_branches([t, -t], mix)
        assert np.all(out == 0.0)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(9)
        branches = [rng.standard_normal((3, 3, 4)).astype(np.float32) * 10 ** e
                    for e in (-2, 0, 3)]
        mix = rng.standard_normal((4, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        reference = fuse_branches(branches, mix, bias)
        for perm in itertools.permutations(range(3)):
            out = fuse_branches([branches[i] for i in perm], mix, bias)
            assert out.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_sum_matches_sorted_fold(self, count):
        # every ordered tuple over values with ties, signed zeros,
        # infinities and sums that overflow, one per token of a d=1 map so
        # the unit mix passes each total through: the bytes are those of
        # the sort-then-fold sum, and NaN falls in the same places
        values = [-0.0, 0.0, 1.5, -1.5, 1.5, 2.0 ** -149, 3e38, -3e38,
                  np.inf, -np.inf]
        grid = np.array(list(itertools.product(values, repeat=count)),
                        np.float32)
        branches = [grid[:, i].reshape(-1, 1, 1) for i in range(count)]
        mix = np.ones((1, 1), np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            got = fuse_branches(branches, mix)
            addends = np.sort(np.stack(branches), axis=0)
            total = addends[0]
            for addend in addends[1:]:
                total = total + addend
            want = conv2d(np.transpose(total, (2, 0, 1)),
                          mix.reshape(1, 1, 1, 1))
        nan = np.isnan(want)
        assert nan.any() == (count > 1)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_tied_maps_match_sorted_fold(self, count):
        # small-integer draws tie often; a dense mix and bias. There are
        # three color spaces, so four branches are rejected
        rng = np.random.default_rng(count)
        branches = [(rng.integers(-2, 3, (5, 6, 4)) * 0.75).astype(np.float32)
                    for _ in range(count)]
        mix = rng.standard_normal((4, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        if count > 3:
            with pytest.raises(ShapeError, match="got 4"):
                fuse_branches(branches, mix, bias)
            return
        addends = np.sort(np.stack(branches), axis=0)
        total = addends[0]
        for addend in addends[1:]:
            total = total + addend
        want = conv2d(np.transpose(total, (2, 0, 1)), mix.reshape(4, 4, 1, 1),
                      bias=bias)
        assert fuse_branches(branches, mix, bias).tobytes() == want.tobytes()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fuse_branches([np.zeros((2, 2, 3), np.float32),
                           np.zeros((2, 3, 3), np.float32)],
                          np.eye(3, dtype=np.float32))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            fuse_branches([], np.eye(3, dtype=np.float32))

    def test_mix_matches_pointwise_conv(self):
        # the channel-major map is the transposed per-token affine map
        rng = np.random.default_rng(10)
        branches = [rng.standard_normal((4, 4, 3)).astype(np.float32)
                    for _ in range(2)]
        w = rng.standard_normal((3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        got = fuse_branches(branches, w, b)
        total = np.sort(np.stack(branches), axis=0)
        total = total[0] + total[1]
        want = matmul(total.reshape(-1, 3), np.ascontiguousarray(w.T)) + b
        assert got.shape == (3, 4, 4)
        assert got.tobytes() == np.ascontiguousarray(
            want.reshape(4, 4, 3).transpose(2, 0, 1)).tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,), (3, 3, 1, 1)])
    def test_mix_weight_shape_validated(self, shape):
        with pytest.raises(ShapeError, match="mix weight"):
            fuse_branches([np.zeros((2, 2, 3), np.float32)],
                          np.zeros(shape, np.float32))

    def test_branch_rank_validated(self):
        with pytest.raises(ShapeError):
            fuse_branches([np.zeros((2, 2), np.float32)],
                          np.eye(2, dtype=np.float32))


class TestNestedResidual:
    def test_trace_merge_identity_exact(self):
        rng = np.random.default_rng(11)
        params = make_residual(rng, 3)
        x = rng.standard_normal((3, 4, 4)).astype(np.float32)
        out, trace = nested_residual_forward(x, params)
        recomputed = elementwise_add(trace.activated, trace.upsampled)
        assert trace.merged.tobytes() == recomputed.tobytes()
        assert out.shape == x.shape
        assert trace.output.tobytes() == out.tobytes()

    def test_degenerate_pool_doubles_activation(self):
        rng = np.random.default_rng(12)
        params = make_residual(rng, 2, k=1)
        x = rng.standard_normal((2, 3, 3)).astype(np.float32)
        _, trace = nested_residual_forward(x, params)
        assert trace.pooled.tobytes() == trace.activated.tobytes()
        assert trace.upsampled.tobytes() == trace.activated.tobytes()
        doubled = np.float32(2.0) * trace.activated
        assert trace.merged.tobytes() == doubled.tobytes()

    def test_zero_input_zero_trace(self):
        rng = np.random.default_rng(13)
        params = make_residual(rng, 2)
        _, trace = nested_residual_forward(np.zeros((2, 4, 4), np.float32),
                                           params)
        for field in ("activated", "pooled", "upsampled", "merged", "output"):
            assert np.all(getattr(trace, field) == 0.0)

    def test_matches_kernel_composition(self):
        rng = np.random.default_rng(14)
        params = make_residual(rng, 1)
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        out, trace = nested_residual_forward(x, params)
        a = relu(batch_norm(conv2d(x, params.conv1_weight, padding=1),
                            params.bn1))
        pooled = avg_pool2d(a, 2)
        up = upsample_nearest(pooled, 2)
        merged = elementwise_add(a, up)
        want = batch_norm(conv2d(merged, params.conv2_weight, padding=1),
                          params.bn2)
        assert out.tobytes() == want.tobytes()
        assert trace.activated.tobytes() == a.tobytes()

    def test_divisibility_enforced(self):
        rng = np.random.default_rng(15)
        params = make_residual(rng, 1, k=2)
        with pytest.raises(ShapeError):
            nested_residual_forward(np.zeros((1, 5, 4), np.float32), params)

    def test_channel_preservation_validated(self):
        with pytest.raises(ShapeError):
            NestedResidualParams(
                conv1_weight=np.zeros((2, 3, 3, 3), np.float32),
                bn1=BatchNormParams.identity(2),
                conv2_weight=np.zeros((2, 2, 3, 3), np.float32),
                bn2=BatchNormParams.identity(2),
            )


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False


def test_in_place_relu_touches_only_fresh_norm_outputs():
    # the ReLU after each norm writes into that norm's fresh output: with
    # every input and parameter read-only, the stages give the bytes of
    # the out-of-place kernel composition and share no memory with inputs
    def bn(c):  # shifted down, so each ReLU zeroes some values
        p = BatchNormParams(np.ones(c), np.full(c, -0.25), np.zeros(c),
                            np.ones(c))
        _frozen(p.gamma, p.beta, p.running_mean, p.running_var, p.scale)
        return p

    rng = np.random.default_rng(16)
    blocks = tuple(replace(make_block(rng, c_in, 4, stride), bn_depthwise=bn(
        c_in), bn_pointwise=bn(4)) for c_in, stride in ((3, 2), (4, 1)))
    res = replace(make_residual(rng, 4), bn1=bn(4), bn2=bn(4))
    _frozen(*(w for b in blocks
              for w in (b.depthwise_weight, b.pointwise_weight)),
            res.conv1_weight, res.conv2_weight)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    _frozen(x)
    feats = backbone_forward(x, BackboneParams(blocks))
    want = x
    for blk in blocks:
        want = conv2d(want, blk.depthwise_weight, padding=1,
                      groups=blk.in_channels)
        if blk.stride > 1:
            want = avg_pool2d(want, blk.stride)
        want = relu(batch_norm(want, blk.bn_depthwise))
        want = relu(batch_norm(conv2d(want, blk.pointwise_weight),
                               blk.bn_pointwise))
    assert np.any(want == 0) and feats.tobytes() == want.tobytes()
    _frozen(feats)
    out, trace = nested_residual_forward(feats, res)
    activated = relu(batch_norm(conv2d(feats, res.conv1_weight, padding=1),
                                res.bn1))
    assert np.any(activated == 0)
    assert trace.activated.tobytes() == activated.tobytes()
    for arr in (out, *vars(trace).values()):
        assert not np.shares_memory(arr, feats)


class TestClassifier:
    def test_zero_weights_give_even_split(self):
        feats = np.random.default_rng(16).standard_normal((4, 3, 3)) \
            .astype(np.float32)
        probs = classifier_head(feats, np.zeros((2, 4), np.float32))
        assert probs[0] == np.float32(0.5) and probs[1] == np.float32(0.5)

    def test_log3_logits(self):
        # single spatial cell lets the weights place the logits directly
        feats = np.ones((2, 1, 1), np.float32)
        weight = np.array([[math.log(3.0), 0.0], [0.0, 0.0]], np.float32)
        probs = classifier_head(feats, weight)
        assert abs(float(probs[0]) - 0.75) < 1e-6
        assert abs(float(probs[1]) - 0.25) < 1e-6

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            feats = rng.standard_normal((6, 4, 4)).astype(np.float32) * 10
            w = rng.standard_normal((2, 6)).astype(np.float32)
            b = rng.standard_normal(2).astype(np.float32)
            probs = classifier_head(feats, w, b)
            assert probs.min() >= 0.0
            assert abs(float(probs.astype(np.float64).sum()) - 1.0) < 1e-6

    def test_weight_shape_validated(self):
        with pytest.raises(ShapeError):
            classifier_head(np.zeros((3, 1, 1), np.float32),
                            np.zeros((2, 4), np.float32))
