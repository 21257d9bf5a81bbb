"""Tensor kernel tests against independent reference implementations."""

import functools
import itertools
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromapad.errors import ConfigError, ShapeError
from chromapad.tensor_ops import (
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


def naive_matmul(a, b):
    """Triple loop, float32 accumulation in ascending-k order."""
    m, inner = a.shape
    n = b.shape[1]
    out = np.zeros((m, n), np.float32)
    for i in range(m):
        for j in range(n):
            acc = np.float32(0.0)
            for k in range(inner):
                acc = np.float32(acc + a[i, k] * b[k, j])
            out[i, j] = acc
    return out


def loopnest_conv(x, weight, bias, stride, padding, groups):
    """Direct six-loop convolution in float64, no shared code."""
    c_in, h, w = x.shape
    c_out, c_in_g, k_h, k_w = weight.shape
    out_h = (h + 2 * padding - k_h) // stride + 1
    out_w = (w + 2 * padding - k_w) // stride + 1
    c_out_g = c_out // groups
    out = np.zeros((c_out, out_h, out_w), np.float64)
    for co in range(c_out):
        g = co // c_out_g
        for oi in range(out_h):
            for oj in range(out_w):
                acc = 0.0
                for ci in range(c_in_g):
                    for ki in range(k_h):
                        for kj in range(k_w):
                            ii = oi * stride + ki - padding
                            jj = oj * stride + kj - padding
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += float(weight[co, ci, ki, kj]) * \
                                    float(x[g * c_in_g + ci, ii, jj])
                out[co, oi, oj] = acc + (float(bias[co]) if bias is not None
                                         else 0.0)
    return out


def f32_tap_conv(x, weight, stride, padding, groups):
    """Per-output float32 sum over (channel, row, col) taps in ascending
    order, padded taps included: the kernel's exact arithmetic."""
    c_out, c_in_g, k_h, k_w = weight.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    out_h = (xp.shape[1] - k_h) // stride + 1
    out_w = (xp.shape[2] - k_w) // stride + 1
    c_out_g = c_out // groups
    out = np.zeros((c_out, out_h, out_w), np.float32)
    for co in range(c_out):
        base = co // c_out_g * c_in_g
        for oi in range(out_h):
            for oj in range(out_w):
                acc = np.float32(0.0)
                for ci in range(c_in_g):
                    for ki in range(k_h):
                        for kj in range(k_w):
                            tap = xp[base + ci, oi * stride + ki,
                                     oj * stride + kj]
                            acc = np.float32(acc + weight[co, ci, ki, kj] * tap)
                out[co, oi, oj] = acc
    return out


def wide_values(rng, shape, specials=(0.0, -0.0, np.inf, -np.inf)):
    """float32 values whose exponents spread over 2**-70..2**70, so products
    can underflow or overflow, with about one in eight replaced by one of
    ``specials``."""
    x = np.ldexp(rng.standard_normal(shape), rng.integers(-70, 71, shape))
    if specials:
        pick = rng.random(shape) < 0.125
        x[pick] = rng.choice(specials, int(pick.sum()))
    return x.astype(np.float32)


def assert_same_bits(got, want):
    """Equal bytes outside NaN, and NaN in the same places."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestMatmul:
    def test_hand_example(self):
        c = matmul(tensor([[1, 2], [3, 4]]), tensor([[5, 6], [7, 8]]))
        assert np.array_equal(c, np.array([[19, 22], [43, 50]], np.float32))

    def test_identity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5)).astype(np.float32)
        assert np.array_equal(matmul(a, np.eye(5, dtype=np.float32)), a)

    def test_zero(self):
        a = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
        z = np.zeros((4, 2), np.float32)
        assert np.array_equal(matmul(a, z), np.zeros((3, 2), np.float32))

    def test_matches_triple_loop_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m, k, n = rng.integers(1, 9, size=3)
            a = (rng.standard_normal((m, k)) * 100).astype(np.float32)
            b = (rng.standard_normal((k, n)) * 100).astype(np.float32)
            assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()

    def test_large_shapes_match_triple_loop(self):
        # past the internal blocking boundaries
        rng = np.random.default_rng(8)
        a = rng.standard_normal((33, 70)).astype(np.float32)
        b = rng.standard_normal((70, 41)).astype(np.float32)
        assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(np.zeros((2, 3), np.float32), np.zeros((4, 2), np.float32))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)
        with pytest.raises(ShapeError) as err:
            batched_matmul(np.zeros((2, 3, 4), np.float32),
                           np.zeros((3, 4, 5), np.float32))
        assert "(2, 3, 4)" in str(err.value) and "(3, 4, 5)" in str(err.value)
        with pytest.raises(ShapeError):
            batched_matmul(np.zeros((3, 4), np.float32),
                           np.zeros((4, 5), np.float32))


class TestConv2d:
    def test_pointwise_identity(self):
        x = np.random.default_rng(2).standard_normal((1, 4, 4)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), np.float32)
        assert np.array_equal(conv2d(x, w), x)

    def test_zero_weights_all_bias(self):
        x = np.random.default_rng(3).standard_normal((2, 4, 4)).astype(np.float32)
        w = np.zeros((3, 2, 1, 1), np.float32)
        bias = np.array([1.5, -2.0, 0.25], np.float32)
        out = conv2d(x, w, bias=bias)
        for c in range(3):
            assert np.all(out[c] == bias[c])

    def test_box_kernel_hand_counts(self):
        x = np.ones((1, 3, 3), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = conv2d(x, w, padding=1)[0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
        assert np.array_equal(out, expected)

    def test_matches_im2col_matmul_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            h, w_ = rng.integers(3, 9, size=2)
            k = int(rng.integers(1, 4))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            if (h + 2 * padding - k) % stride or (w_ + 2 * padding - k) % stride:
                continue
            x = rng.standard_normal((c_in, h, w_)).astype(np.float32)
            weight = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
            got = conv2d(x, weight, stride=stride, padding=padding)
            # independent path: explicit patch matrix times flat weights in f64
            out_h = (h + 2 * padding - k) // stride + 1
            out_w = (w_ + 2 * padding - k) // stride + 1
            xp = np.zeros((c_in, h + 2 * padding, w_ + 2 * padding))
            xp[:, padding:padding + h, padding:padding + w_] = x
            cols = np.zeros((c_in * k * k, out_h * out_w))
            for oi in range(out_h):
                for oj in range(out_w):
                    patch = xp[:, oi * stride:oi * stride + k,
                               oj * stride:oj * stride + k]
                    cols[:, oi * out_w + oj] = patch.reshape(-1)
            want = (weight.reshape(c_out, -1).astype(np.float64) @ cols)
            want = want.reshape(c_out, out_h, out_w)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_depthwise_matches_loopnest(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6, 6)).astype(np.float32)
        weight = rng.standard_normal((4, 1, 3, 3)).astype(np.float32)
        got = conv2d(x, weight, padding=1, groups=4)
        want = loopnest_conv(x, weight, None, 1, 1, 4)
        assert np.max(np.abs(got - want)) < 1e-5
        assert got.tobytes() == f32_tap_conv(x, weight, 1, 1, 4).tobytes()
        odd = x[:, :5, :5]
        strided = conv2d(odd, weight, stride=2, padding=1, groups=4)
        assert strided.tobytes() == f32_tap_conv(odd, weight, 2, 1, 4).tobytes()

    def test_grouped_matches_loopnest(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        weight = rng.standard_normal((6, 2, 2, 2)).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        got = conv2d(x, weight, bias=bias, stride=1, padding=0, groups=2)
        want = loopnest_conv(x, weight, bias, 1, 0, 2)
        assert np.max(np.abs(got - want)) < 1e-5
        unbiased = conv2d(x, weight, padding=1, groups=2)
        assert unbiased.tobytes() == \
            f32_tap_conv(x, weight, 1, 1, 2).tobytes()

    def test_depthwise_taps_match_tap_loop_bitwise(self, monkeypatch):
        # stride-1 depthwise convs run tap by tap; over kernels 1..3 (square
        # or not), padding 0..2, odd and non-square extents and 1..32
        # channels, with signed zeros, infinities and exponents wide enough
        # to overflow, the bytes are the tap loop's on einsum builds and on
        # the ufunc-loop build, and no call warns
        import chromapad.tensor_ops as T

        rng = np.random.default_rng(21)
        cases = itertools.product(range(1, 4), range(1, 4), range(3))
        for case, (k_h, k_w, padding) in enumerate(cases):
            c = (1, 32)[case] if case < 2 else int(rng.integers(1, 33))
            h = int(rng.integers(max(1, k_h - 2 * padding), 10))
            w = int(rng.integers(max(1, k_w - 2 * padding), 10))
            x = wide_values(rng, (c, h, w))
            weight = wide_values(rng, (c, 1, k_h, k_w), specials=(0.0, -0.0))
            bias = wide_values(rng, (c,), specials=())
            with np.errstate(all="ignore"):
                want = f32_tap_conv(x, weight, 1, padding, c)
                want_bias = want + bias[:, None, None]
            for einsum in (True, False):
                with monkeypatch.context() as patch:
                    if not einsum:
                        patch.setattr(T, "_einsum_keeps_bits", lambda: False)
                    got = conv2d(x, weight, padding=padding, groups=c)
                    biased = conv2d(x, weight, bias, padding=padding, groups=c)
                assert got.shape == want.shape and got.dtype == np.float32
                assert_same_bits(got, want)
                assert_same_bits(biased, want_bias)

    def test_strided_depthwise_matches_tap_loop_bitwise(self, monkeypatch):
        # a strided depthwise conv stays on the contraction kernel
        import chromapad.tensor_ops as T

        rng = np.random.default_rng(22)
        x = wide_values(rng, (5, 7, 9))
        weight = wide_values(rng, (5, 1, 3, 3), specials=(0.0, -0.0))
        with np.errstate(all="ignore"):
            want = f32_tap_conv(x, weight, 2, 1, 5)
            for einsum in (True, False):
                with monkeypatch.context() as patch:
                    if not einsum:
                        patch.setattr(T, "_einsum_keeps_bits", lambda: False)
                    got = conv2d(x, weight, stride=2, padding=1, groups=5)
                assert_same_bits(got, want)

    @staticmethod
    def window_view_conv(x, weight, stride, padding, groups):
        """The im2col oracle: a (groups, taps, pixels) patch tensor from
        np.pad and sliding_window_view, through `batched_matmul`."""
        c_out, c_in_g, k_h, k_w = weight.shape
        padded = np.pad(x, [(0, 0)] + [(padding, padding)] * 2)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (k_h, k_w), axis=(1, 2))[:, ::stride, ::stride]
        out_h, out_w = windows.shape[1:3]
        taps = c_in_g * k_h * k_w
        patches = windows.transpose(0, 3, 4, 1, 2).reshape(groups, taps, -1)
        flat = weight.reshape(groups, c_out // groups, taps)
        return batched_matmul(flat, patches).reshape(c_out, out_h, out_w)

    def test_patches_match_window_view_im2col_bitwise(self, monkeypatch):
        # every conv off the tap path: the 1x1 path reads its input as the
        # patches, any other builds them from strided slices. Over kernels
        # 1..3 (square or not), stride 1..2, padding 0..2, groups 1, 2 and
        # C_in, odd and non-square extents, with signed zeros, infinities
        # and wide exponents, on einsum and the ufunc loop, the bytes are
        # the window-view im2col's, and no input is written
        import chromapad.tensor_ops as T

        rng = np.random.default_rng(23)
        cases = itertools.product(range(1, 4), range(1, 4), (1, 2),
                                  range(3), ("1", "2", "C_in"))
        for case, (k_h, k_w, stride, padding, kind) in enumerate(cases):
            c_in = 1 if case % 7 == 0 else 2 * int(rng.integers(1, 3))
            groups = {"1": 1, "2": min(2, c_in), "C_in": c_in}[kind]
            # a depthwise stride-1 conv would take the tap path
            c_out = groups * int(rng.integers(1, 3)) * (
                2 if stride == 1 and groups == c_in else 1)
            h, w = (stride * int(rng.integers(1, 4)) + k - 2 * padding
                    + stride * (padding + 1) for k in (k_h, k_w))
            x = wide_values(rng, (c_in, h, w))
            weight = wide_values(rng, (c_out, c_in // groups, k_h, k_w),
                                 specials=(0.0, -0.0))
            with np.errstate(all="ignore"):
                want = self.window_view_conv(x, weight, stride, padding,
                                             groups)
            x.flags.writeable = weight.flags.writeable = False
            for einsum in (True, False):
                with monkeypatch.context() as patch:
                    if not einsum:
                        patch.setattr(T, "_einsum_keeps_bits", lambda: False)
                    with np.errstate(all="ignore"):
                        got = conv2d(x, weight, stride=stride,
                                     padding=padding, groups=groups)
                assert got.shape == want.shape and got.dtype == np.float32
                assert_same_bits(got, want)

    def test_kernels_never_write_their_inputs(self):
        # read-only operands, so a kernel that wrote one would raise
        rng = np.random.default_rng(24)
        x = wide_values(rng, (4, 6, 6), specials=())
        dw, pw, full, bias = (rng.standard_normal(shape).astype(np.float32)
                              for shape in ((4, 1, 3, 3), (4, 4, 1, 1),
                                            (4, 4, 3, 3), (4,)))
        bn = BatchNormParams(*np.abs(rng.standard_normal((4, 4))))
        for arr in (x, dw, pw, full, bias, bn.gamma, bn.beta,
                    bn.running_mean, bn.running_var, bn.scale):
            arr.flags.writeable = False
        before = x.copy()
        with np.errstate(all="ignore"):
            conv2d(x, dw, bias, padding=1, groups=4)
            conv2d(x[:, 1:, 1:], dw, bias, stride=2, padding=1, groups=4)
            conv2d(x, pw, bias)
            conv2d(x, full, bias, padding=1)
            batch_norm(x, bn)
            relu(x)
            softmax_last_axis(x)
            avg_pool2d(x, 2)
            upsample_nearest(x, 2)
            batched_matmul(x, x)
        assert x.tobytes() == before.tobytes()

    def test_non_integer_output_extent_rejected(self):
        x = np.zeros((1, 4, 4), np.float32)
        w = np.zeros((1, 1, 3, 3), np.float32)
        with pytest.raises(ShapeError):
            conv2d(x, w, stride=2, padding=1)

    def test_divisibility_violation_rejected(self):
        x = np.zeros((3, 4, 4), np.float32)
        w = np.zeros((4, 1, 1, 1), np.float32)
        with pytest.raises(ConfigError):
            conv2d(x, w, groups=2)


class TestBatchNorm:
    def test_identity_params(self):
        x = np.random.default_rng(9).standard_normal((2, 3, 3)).astype(np.float32)
        p = BatchNormParams(gamma=[1, 1], beta=[0, 0], running_mean=[0, 0],
                            running_var=[1, 1], epsilon=1e-12)
        assert np.allclose(batch_norm(x, p), x, atol=1e-5)

    def test_zero_gamma_gives_beta(self):
        x = np.random.default_rng(10).standard_normal((2, 2, 2)).astype(np.float32)
        p = BatchNormParams(gamma=[0, 0], beta=[3.5, -1.0],
                            running_mean=[0, 0], running_var=[1, 1])
        out = batch_norm(x, p)
        assert np.all(out[0] == np.float32(3.5))
        assert np.all(out[1] == np.float32(-1.0))

    def test_scalar_hand_case(self):
        # 2 * (2 - 1) / sqrt(3 + 1) + 1 = 2
        x = np.array([[[2.0]]], np.float32)
        p = BatchNormParams(gamma=[2.0], beta=[1.0], running_mean=[1.0],
                            running_var=[3.0], epsilon=1.0)
        assert abs(float(batch_norm(x, p)[0, 0, 0]) - 2.0) < 1e-6

    def test_channel_mismatch(self):
        p = BatchNormParams(gamma=[1], beta=[0], running_mean=[0],
                            running_var=[1])
        with pytest.raises(ShapeError):
            batch_norm(np.zeros((2, 2, 2), np.float32), p)

    def test_invalid_params(self):
        with pytest.raises(ShapeError):
            BatchNormParams(gamma=[1, 2], beta=[0], running_mean=[0],
                            running_var=[1])
        with pytest.raises(ConfigError):
            BatchNormParams(gamma=[1], beta=[0], running_mean=[0],
                            running_var=[-1])
        with pytest.raises(ConfigError):
            BatchNormParams(gamma=[1], beta=[0], running_mean=[0],
                            running_var=[1], epsilon=0.0)


class TestActivations:
    def test_relu_definition(self):
        out = relu(np.array([-1.0, 0.0, 2.5], np.float32))
        assert np.array_equal(out, np.array([0.0, 0.0, 2.5], np.float32))

    def test_relu_non_negative_unchanged(self):
        x = np.abs(np.random.default_rng(0).standard_normal(10)).astype(np.float32)
        assert np.array_equal(relu(x), x)

    def test_relu_all_negative_zeros(self):
        x = -np.abs(np.random.default_rng(1).standard_normal(10)).astype(np.float32) - 0.1
        assert np.all(relu(x) == 0.0)

    @given(st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=40))
    def test_relu_idempotent(self, values):
        x = np.array(values, np.float32)
        once = relu(x)
        assert np.array_equal(relu(once), once)

    @given(
        st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=20),
        st.integers(0, 2**31),
    )
    def test_add_commutative(self, values, seed):
        a = np.array(values, np.float32)
        b = np.random.default_rng(seed).standard_normal(len(values)).astype(np.float32)
        assert np.array_equal(elementwise_add(a, b), elementwise_add(b, a))

    def test_add_hand_cases(self):
        a = np.array([1.0, 2.0], np.float32)
        assert np.array_equal(elementwise_add(a, np.zeros(2, np.float32)), a)
        assert np.all(elementwise_add(a, -a) == 0.0)
        assert np.array_equal(
            elementwise_add(a, np.array([3.0, 4.0], np.float32)),
            np.array([4.0, 6.0], np.float32),
        )

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise_add(np.zeros(2, np.float32), np.zeros(3, np.float32))


class TestSoftmax:
    def test_constant_row(self):
        out = softmax_last_axis(np.full((4,), 2.5, np.float32))
        assert np.allclose(out, 0.25, atol=1e-7)

    def test_single_element_axis(self):
        assert softmax_last_axis(np.array([[7.0]], np.float32))[0, 0] == 1.0

    def test_closed_form(self):
        out = softmax_last_axis(np.array([0.0, np.log(3.0)], np.float32))
        assert np.allclose(out, [0.25, 0.75], atol=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        x = (rng.standard_normal((6, 49)) * 30).astype(np.float32)
        sums = softmax_last_axis(x).astype(np.float64).sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        x = (rng.standard_normal((3, 9)) * 5).astype(np.float32)
        shifted = x + np.float32(17.0)
        assert np.max(np.abs(softmax_last_axis(x) -
                             softmax_last_axis(shifted))) < 1e-6

    @staticmethod
    def left_fold_softmax(x):
        """softmax's float64 passes, each row summed by a Python left fold;
        also returns the row sums."""
        x64 = x.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
        total = np.array([functools.reduce(operator.add, row)
                          for row in e.reshape(-1, x.shape[-1]).tolist()])
        total = total.reshape(*x.shape[:-1], 1)
        return (e / total).astype(np.float32), e, total

    def test_row_sums_are_left_folds_bitwise(self):
        # rows of widely spread exponents, the paper head shape among them,
        # and rows where a row sum one ulp off changes an output byte:
        # [0, a, 47 values below -37], with e^a / (1 + e^a) just either side
        # of a float32 midpoint. A left fold drops the e^-37-sized terms,
        # each under half an ulp of its running sum; a pairwise sum or a
        # fold from the right adds them first, and they add up to ulps
        rng = np.random.default_rng(14)
        for shape in ((49,), (16, 49, 49), (7, 1), (24, 4, 49, 49)):
            x = (rng.random(shape) * -700).astype(np.float32)
            want, _, _ = self.left_fold_softmax(x)
            assert softmax_last_axis(x).tobytes() == want.tobytes()
        mid = 0.5 - (2 * np.arange(64) + 1) * 2.0 ** -26
        a = np.log(mid / (1 - mid)).astype(np.float32).view(np.int32)
        x = np.zeros((64 * 17, 49), np.float32)
        x[:, 1] = (a[:, None] + np.arange(-8, 9, dtype=np.int32)).reshape(
            -1).view(np.float32)
        x[:, 2:] = -37 - rng.random((len(x), 47))
        want, e, total = self.left_fold_softmax(x)
        flips = [np.any(want != (e / np.nextafter(total, to)).astype(
            np.float32), axis=-1) for to in (np.inf, 0)]
        assert min(flip.sum() for flip in flips) >= 8
        got = softmax_last_axis(x)
        assert got.tobytes() == want.tobytes()

    def test_extreme_values_stay_finite(self):
        out = softmax_last_axis(np.array([1e4, -1e4, 0.0], np.float32))
        assert np.isfinite(out).all()


class TestPooling:
    def test_avg_pool_hand_mean(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], np.float32)
        assert avg_pool2d(x, 2)[0, 0, 0] == np.float32(2.5)

    def test_avg_pool_k1_identity(self):
        x = np.random.default_rng(14).standard_normal((2, 3, 3)).astype(np.float32)
        assert np.array_equal(avg_pool2d(x, 1), x)

    def test_avg_pool_constant_map(self):
        x = np.full((1, 6, 6), 3.7, np.float32)
        assert np.all(avg_pool2d(x, 3) == np.float32(3.7))

    def test_avg_pool_divisibility(self):
        with pytest.raises(ShapeError):
            avg_pool2d(np.zeros((1, 5, 4), np.float32), 2)

    def test_upsample_definition(self):
        x = np.array([[[1.0, 2.0]]], np.float32)
        out = upsample_nearest(x, 2)
        assert np.array_equal(
            out, np.array([[[1, 1, 2, 2], [1, 1, 2, 2]]], np.float32)
        )

    def test_upsample_k1_identity(self):
        x = np.random.default_rng(15).standard_normal((2, 2, 2)).astype(np.float32)
        assert np.array_equal(upsample_nearest(x, 1), x)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_pool_then_upsample_identity_on_tile_constant(self, k):
        rng = np.random.default_rng(16 + k)
        coarse = rng.standard_normal((2, 3, 2)).astype(np.float32)
        x = upsample_nearest(coarse, k)
        roundtrip = upsample_nearest(avg_pool2d(x, k), k)
        assert roundtrip.tobytes() == x.tobytes()


class TestTensorValidation:
    def test_rank_bounds(self):
        with pytest.raises(ShapeError):
            tensor(3.0)
        with pytest.raises(ShapeError):
            tensor(np.zeros((1, 1, 1, 1, 1)))
        assert tensor([1.0]).dtype == np.float32


@settings(max_examples=25)
@given(st.integers(0, 2**31), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 6), st.integers(1, 6))
def test_matmul_property_vs_oracle(seed, batch, m, k, n):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((batch, m, k)) * 10).astype(np.float32)
    b = (rng.standard_normal((batch, k, n)) * 10).astype(np.float32)
    assert matmul(a[0], b[0]).tobytes() == naive_matmul(a[0], b[0]).tobytes()
    got = batched_matmul(a, b)
    for s in range(batch):
        assert got[s].tobytes() == naive_matmul(a[s], b[s]).tobytes()


def test_numpy_and_ufunc_kernels_match_triple_loop():
    # both kernel bodies are compared with the oracle on every install,
    # whichever one the probe picked; each also takes a_t as the transposed
    # view that `batched_matmul` passes
    import chromapad.tensor_ops as T

    rng = np.random.default_rng(21)
    # (2, 9, 2, 7000) spans two output-row blocks of the ufunc loop
    shapes = [(1, 1, 1, 1), (3, 17, 4, 5), (2, 33, 3, 2), (2, 9, 2, 7000)]
    shapes += [tuple(rng.integers(1, 20, size=4)) for _ in range(8)]
    for batch, m, k, n in shapes:
        a_t = (rng.standard_normal((batch, k, m)) * 100).astype(np.float32)
        b = (rng.standard_normal((batch, k, n)) * 100).astype(np.float32)
        a_view = np.ascontiguousarray(a_t.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert min(m, k) == 1 or not a_view.flags.c_contiguous
        expected = oracle_product(a_t.transpose(0, 2, 1), b).tobytes()
        for kernel, operand in itertools.product(
                (T._matmul_numpy, T._matmul_ufuncs), (a_t, a_view)):
            out = np.empty((batch, m, n), np.float32)
            kernel(operand, b, out)
            assert out.tobytes() == expected


@pytest.fixture(params=[2, 3], ids=("2_threads", "3_threads"))
def split_threads(request, monkeypatch):
    """Splitting across 2 or 3 threads in place of the host's CPU count, so
    it is exercised on any host; the value is a list that records each
    split's shape."""
    import chromapad.tensor_ops as T

    splits = []
    real_split = T._matmul_split

    def recording_split(a_t, b, out, threads):
        splits.append(out.shape)
        real_split(a_t, b, out, threads)

    monkeypatch.setattr(T, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(T, "_matmul_split", recording_split)
    return splits


def serial_kernel_product(a, b):
    import chromapad.tensor_ops as T

    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), np.float32)
    T._matmul_numpy(np.ascontiguousarray(a.transpose(0, 2, 1)), b, out)
    return out


def matmul_threads():
    """The live threads a split product started."""
    import threading

    return [t for t in threading.enumerate()
            if t.name.startswith("chromapad-matmul")]


def random_operands(seed, batch, m, k, n):
    rng = np.random.default_rng(seed)
    return ((rng.standard_normal((batch, m, k)) * 100).astype(np.float32),
            (rng.standard_normal((batch, k, n)) * 100).astype(np.float32))


class TestSplitProducts:
    # (B, m, k, n) over the gate for 2 and 3 threads: B >= threads splits
    # by batch entry (5 = 3 + 2 or 2 + 2 + 1), B < threads by rows
    # (301 = 151 + 150 or 101 + 101 + 99)
    @pytest.mark.parametrize("shape", [(5, 40, 4, 800), (1, 301, 5, 500),
                                       (2, 97, 3, 800)])
    def test_split_is_bit_identical_to_serial_kernel(self, split_threads,
                                                     shape):
        a, b = random_operands(31, *shape)
        got = batched_matmul(a, b)
        assert split_threads == [got.shape]
        assert got.tobytes() == serial_kernel_product(a, b).tobytes()

    def test_gate_is_accumulator_size(self, split_threads):
        import chromapad.tensor_ops as T

        # m * n equals the gate exactly at m = 48 * threads, n = 1024
        gate_rows = T._usable_cpus() * T._SPLIT_MIN // 1024
        for m, splits in ((gate_rows - 1, 0), (gate_rows, 1)):
            a, b = random_operands(m, 1, m, 3, 1024)
            del split_threads[:]
            got = batched_matmul(a, b)
            assert len(split_threads) == splits
            assert got.tobytes() == serial_kernel_product(a, b).tobytes()

    def test_only_products_that_can_split_read_the_affinity(self,
                                                            monkeypatch):
        # under two threads' gate a product runs serially without reading
        # the CPU affinity, as every product of a desk forward does
        import chromapad.tensor_ops as T

        reads = []
        monkeypatch.setattr(T, "_usable_cpus", lambda: reads.append(1) or 1)
        rows = 2 * T._SPLIT_MIN // 512
        for m, want in ((rows - 1, 0), (rows, 1)):
            del reads[:]
            batched_matmul(*random_operands(m, 1, m, 3, 512))
            assert len(reads) == want

    def test_paper_residual_shape(self, split_threads):
        a, b = random_operands(768, 1, 768, 6912, 196)
        got = batched_matmul(a, b)
        # m > n past the gate: the product runs as c.T = b.T @ a.T
        assert split_threads == [(1, 196, 768)]
        assert got.tobytes() == serial_kernel_product(a, b).tobytes()

    def test_single_cpu_starts_no_thread(self, monkeypatch):
        import threading
        import chromapad.tensor_ops as T

        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread))
        a, b = random_operands(1, 1, 768, 8, 196)
        got = batched_matmul(a, b)
        assert started == []
        assert got.tobytes() == serial_kernel_product(a, b).tobytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_thread_pinned_to_one_cpu_starts_no_thread(self, monkeypatch):
        import threading
        import chromapad.tensor_ops as T

        cpus = os.sched_getaffinity(0)
        # an accumulator at the split gate for every CPU of this host
        rows = len(cpus) * T._SPLIT_MIN // 512
        a, b = random_operands(12, 1, rows, 3, 512)
        expected = serial_kernel_product(a, b).tobytes()
        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            if thread.name.startswith("chromapad-matmul"):
                started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        got = {}

        def pinned():
            os.sched_setaffinity(0, {min(cpus)})
            got["out"] = batched_matmul(a, b).tobytes()

        thread = threading.Thread(target=pinned)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert started == []
        assert got["out"] == expected
        # the same product splits in a thread that may use every CPU
        assert batched_matmul(a, b).tobytes() == expected
        assert len(started) == len(cpus) - 1

    def test_split_leaves_no_thread_running(self, split_threads):
        import threading

        a, b = random_operands(4, 1, 301, 5, 500)
        before = threading.active_count()
        got = batched_matmul(a, b)
        assert split_threads == [got.shape]
        assert threading.active_count() == before
        assert not matmul_threads()

    def test_one_row_split_starts_no_thread(self, split_threads,
                                            monkeypatch):
        import threading
        import chromapad.tensor_ops as T

        # one output row past the gate: its only share runs in the caller
        n = T._usable_cpus() * T._SPLIT_MIN
        a, b = random_operands(8, 1, 1, 3, n)
        started = []
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread))
        got = batched_matmul(a, b)
        assert split_threads == [(1, 1, n)]
        assert started == []
        assert got.tobytes() == serial_kernel_product(a, b).tobytes()

    def test_failing_share_raises_after_every_thread_ends(
            self, split_threads, monkeypatch):
        import threading
        import chromapad.tensor_ops as T

        class ShareFailure(Exception):
            pass

        real_kernel = T._matmul_numpy
        ran_on = []

        def kernel(a_t, b, out):
            ran_on.append(threading.current_thread())
            # first output row of this share within the whole product
            start = (out.ctypes.data - out.base.ctypes.data) // out.strides[1]
            if start == -(-out.base.shape[1] // T._usable_cpus()):
                raise ShareFailure(start)
            real_kernel(a_t, b, out)

        monkeypatch.setattr(T, "_matmul_numpy", kernel)
        a, b = random_operands(6, 1, 301, 5, 500)
        with pytest.raises(ShareFailure):
            batched_matmul(a, b)
        assert len(ran_on) == T._usable_cpus()
        assert not any(t.is_alive() for t in ran_on
                       if t is not threading.current_thread())
        assert not matmul_threads()

    @pytest.mark.parametrize("caller_fails", [False, True])
    def test_lowest_failing_share_raises(self, monkeypatch, caller_fails):
        # share 2 fails first, and share 1 fails only after share 2's
        # thread has had time to end; still share 1's error is raised, or
        # the caller's (share 0) when it fails too
        import threading
        import chromapad.tensor_ops as T

        class ShareFailure(Exception):
            pass

        failed = threading.Event()
        second = []

        def kernel(a_t, b, out):
            # 301 rows over 3 threads: shares start at rows 0, 101 and 202
            start = (out.ctypes.data - out.base.ctypes.data) // out.strides[1]
            share = start // 101
            if share == 2:
                second.append(threading.current_thread())
                failed.set()
            elif share == 1:
                assert failed.wait(timeout=30)
                second[0].join(timeout=0.5)
            elif not caller_fails:
                return
            raise ShareFailure(share)

        monkeypatch.setattr(T, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(T, "_matmul_numpy", kernel)
        a, b = random_operands(7, 1, 301, 5, 500)
        with pytest.raises(ShareFailure) as info:
            batched_matmul(a, b)
        assert info.value.args == (0 if caller_fails else 1,)
        assert not matmul_threads()

    def test_concurrent_splits_match_serial_kernel(self, split_threads):
        import sys
        import threading

        operands = [random_operands(40 + i, 1, 301, 5, 500) for i in range(8)]
        expected = [serial_kernel_product(a, b).tobytes()
                    for a, b in operands]
        barrier = threading.Barrier(8)
        got = [None] * 8

        def split(i):
            barrier.wait(timeout=30)
            got[i] = batched_matmul(*operands[i]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=split, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(split_threads) == 8
        assert got == expected

    def test_concurrent_forwards_match_serial_scores(self, split_threads,
                                                     monkeypatch):
        import threading
        import chromapad.tensor_ops as T
        from chromapad.colorspace import ColorImage, ColorSpace
        from chromapad.model import ModelConfig, build_model, forward

        # a 224-pixel desk model has products above the gate
        model = build_model(ModelConfig.desk(input_size=224, seed=5))
        rng = np.random.default_rng(5)
        images = [ColorImage(width=224, height=224, space=ColorSpace.RGB,
                             pixels=rng.integers(0, 256, (224, 224, 3),
                                                 dtype=np.uint8))
                  for _ in range(2)]
        with monkeypatch.context() as serial:
            serial.setattr(T, "_usable_cpus", lambda: 1)
            expected = [np.float64(forward(model, img)[0]).tobytes()
                        for img in images]
        assert not split_threads
        got = [[], []]

        def score(i):
            for _ in range(2):
                got[i].append(np.float64(forward(model, images[i])[0])
                              .tobytes())

        threads = [threading.Thread(target=score, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert split_threads
        assert got == [[expected[0]] * 2, [expected[1]] * 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_can_split(self, split_threads):
        import time

        a, b = random_operands(9, 1, 301, 5, 500)
        expected = serial_kernel_product(a, b).tobytes()
        assert batched_matmul(a, b).tobytes() == expected
        assert split_threads
        pid = os.fork()
        if pid == 0:  # child: a split must not wait on the parent's threads
            ok = False
            try:
                ok = batched_matmul(a, b).tobytes() == expected
            finally:
                os._exit(0 if ok else 1)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung on a split product")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def wide_operands(rng, batch, m, k, n):
    """(B, m, k) and (B, k, n) float32 operands whose exponents spread over
    2**-12..2**12, so a changed rounding or summation order shows."""
    return tuple(np.ldexp(rng.standard_normal(shape),
                          rng.integers(-12, 13, shape)).astype(np.float32)
                 for shape in ((batch, m, k), (batch, k, n)))


def left_layouts(a):
    """``a`` as the transposed view `batched_matmul` makes of a contiguous
    operand, as a contiguous (B, k, m) operand, and as a view reading every
    other column of a wider array; each returned in the (B, k, m) form the
    kernels take."""
    batch, m, k = a.shape
    wide = np.zeros((batch, m, 2 * k), np.float32)
    wide[:, :, ::2] = a
    return (a.transpose(0, 2, 1), np.ascontiguousarray(a.transpose(0, 2, 1)),
            wide[:, :, ::2].transpose(0, 2, 1))


def kernel_product(kernel, a_t, b):
    """``kernel``'s product of (B, k, m) and (B, k, n) operands."""
    out = np.empty((b.shape[0], a_t.shape[2], b.shape[2]), np.float32)
    kernel(a_t, b, out)
    return out


def operand_layouts(x):
    """``x`` (B, r, c) as a C-order array, held input-major (its (B, c, r)
    transpose contiguous, as a model holds its weights) and as a view of
    every other column of a wider array."""
    wide = np.zeros((*x.shape[:2], 2 * x.shape[2]), np.float32)
    wide[:, :, ::2] = x
    return (np.ascontiguousarray(x),
            np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1),
            wide[:, :, ::2])


def oracle_product(a, b):
    return np.stack([naive_matmul(a[s], b[s]) for s in range(a.shape[0])])


class TestOrientation:
    """A product of at least `_SPLIT_MIN` outputs per entry with m > n runs
    as c.T = b.T @ a.T; every orientation, layout, split and kernel gives
    the triple loop's bytes."""

    # (B, m, k, n): m > n, m < n and m == n, below a gate of 48 outputs per
    # entry (36) and at or past it (52, 49); B = 3 splits the latter over
    # 2 or 3 threads
    SHAPES = [(3, 9, 6, 4), (3, 4, 6, 9), (3, 6, 6, 6),
              (3, 13, 6, 4), (3, 4, 6, 13), (3, 7, 6, 7)]

    @pytest.mark.parametrize("kernel", ["installed", "ufunc loop"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_every_layout_matches_triple_loop(self, monkeypatch, threads,
                                              kernel):
        import chromapad.tensor_ops as T

        monkeypatch.setattr(T, "_SPLIT_MIN", 48)
        monkeypatch.setattr(T, "_usable_cpus", lambda: threads)
        if kernel == "ufunc loop":
            monkeypatch.setattr(T, "_einsum_keeps_bits", lambda: False)
        splits = []
        real_split = T._matmul_split
        monkeypatch.setattr(T, "_matmul_split", lambda *args: (
            splits.append(args[2].shape), real_split(*args)))
        rng = np.random.default_rng(threads)
        for batch, m, k, n in self.SHAPES:
            a, b = wide_operands(rng, batch, m, k, n)
            want = oracle_product(a, b).tobytes()
            swapped = m > n and m * n >= 48
            for a_view, b_view in itertools.product(operand_layouts(a),
                                                    operand_layouts(b)):
                del splits[:]
                got = batched_matmul(a_view, b_view)
                assert got.tobytes() == want, (batch, m, k, n)
                assert got.flags.c_contiguous is not swapped
                split = threads > 1 and batch * m * n >= threads * 48
                assert splits == ([(batch, n, m) if swapped else
                                   (batch, m, n)] if split else [])

    @pytest.mark.parametrize("shape", [(1, 250, 3, 200), (1, 200, 3, 250),
                                       (1, 224, 3, 224)])
    def test_products_at_the_real_gate_match_triple_loop(self, shape):
        # 50 000 or 50 176 outputs: past the gate, split on this host's CPUs
        a, b = wide_operands(np.random.default_rng(5), *shape)
        want = oracle_product(a, b).tobytes()
        for a_view in operand_layouts(a):
            got = batched_matmul(a_view, b)
            assert got.tobytes() == want
            assert got.flags.c_contiguous is not (shape[1] > shape[3])


class TestNumpyPath:
    """The pure-numpy kernel against the ufunc loop, its fallback and the
    reference for its bits."""

    def test_one_column_products_match_ufunc_loop(self):
        import chromapad.tensor_ops as T

        # einsum alone sums a one-column product over k in unrolled
        # partial sums, which differs here on 91 of these 162 shapes
        rng = np.random.default_rng(1)
        for batch, m, k in itertools.product((1, 3), range(1, 10),
                                             range(1, 10)):
            a, b = wide_operands(rng, batch, m, k, 1)
            want = kernel_product(T._matmul_ufuncs, a.transpose(0, 2, 1),
                                  b).tobytes()
            for a_t in left_layouts(a):
                got = kernel_product(T._matmul_numpy, a_t, b)
                assert got.tobytes() == want, (batch, m, k)
            assert batched_matmul(a, b).tobytes() == want

    def test_random_products_match_ufunc_loop(self):
        import chromapad.tensor_ops as T

        rng = np.random.default_rng(2)
        for _ in range(60):
            batch = int(rng.integers(1, 4))
            m = int(rng.integers(1, 40))
            k = int(rng.integers(1, 600))
            n = int(rng.integers(2, 90))
            a, b = wide_operands(rng, batch, m, k, n)
            want = kernel_product(T._matmul_ufuncs, a.transpose(0, 2, 1),
                                  b).tobytes()
            for a_t in left_layouts(a):
                got = kernel_product(T._matmul_numpy, a_t, b)
                assert got.tobytes() == want, (batch, m, k, n)
            assert batched_matmul(a, b).tobytes() == want


def fused_einsum(a_t, b, out):
    """The einsum step as a build that fuses multiply-add would run it:
    each ``a * b + acc`` is formed in float64, where the product is exact,
    and then rounded to float32."""
    acc = np.zeros(out.shape, np.float32)
    for k in range(a_t.shape[1]):
        acc = (a_t[:, k, :, None].astype(np.float64) * b[:, k, None, :]
               + acc).astype(np.float32)
    out[...] = acc


def descending_einsum(a_t, b, out):
    """The einsum step summing k in descending order."""
    np.einsum("ski,skj->sij", np.ascontiguousarray(a_t[:, ::-1]),
              np.ascontiguousarray(b[:, ::-1]), out=out)


@pytest.fixture
def fresh_probe():
    """The probe's cached verdict dropped before and after the test, so it
    runs again on the next product."""
    import chromapad.tensor_ops as T

    T._einsum_keeps_bits.cache_clear()
    yield T._einsum_keeps_bits
    T._einsum_keeps_bits.cache_clear()


def test_probe_verdict_matches_a_wider_sweep(fresh_probe):
    # True on x86-64 numpy (CI asserts the einsum path there); False where
    # einsum fuses multiply-add, which a wider sweep then shows too
    import chromapad.tensor_ops as T

    rng = np.random.default_rng(4)
    same = True
    for _ in range(40):
        a, b = wide_operands(rng, int(rng.integers(1, 4)),
                             int(rng.integers(1, 20)),
                             int(rng.integers(1, 300)),
                             int(rng.integers(2, 90)))
        a_t = a.transpose(0, 2, 1)
        same &= (kernel_product(T._matmul_einsum, a_t, b).tobytes() ==
                 kernel_product(T._matmul_ufuncs, a_t, b).tobytes())
    assert fresh_probe() is same
    assert fresh_probe.cache_info().misses == 1


@pytest.mark.parametrize("fault", [fused_einsum, descending_einsum])
def test_probe_rejects_changed_einsum(monkeypatch, fresh_probe, fault):
    import chromapad.tensor_ops as T

    calls = []

    def recording(a_t, b, out):
        calls.append(b.shape)
        fault(a_t, b, out)

    monkeypatch.setattr(T, "_matmul_einsum", recording)
    assert T._contraction_path() == "ufunc loop"
    probed = len(calls)
    assert probed >= 1
    rng = np.random.default_rng(3)
    # one column, several batch entries, and a product over the split gate
    for shape in ((1, 5, 7, 1), (3, 9, 40, 33), (1, 301, 5, 500)):
        a, b = wide_operands(rng, *shape)
        want = kernel_product(T._matmul_ufuncs, a.transpose(0, 2, 1), b)
        assert batched_matmul(a, b).tobytes() == want.tobytes()
    assert len(calls) == probed  # every product took the fallback


_FUSED_PINS_SCRIPT = """
import sys

import pytest

import chromapad.tensor_ops as T

tests_dir, pins = sys.argv[1:]
sys.path.insert(0, tests_dir)
from test_tensor_ops import fused_einsum

calls = []


def recording(a_t, b, out):
    calls.append(b.shape)
    fused_einsum(a_t, b, out)


T._matmul_einsum = recording
code = pytest.main(["-q", "-p", "no:cacheprovider", pins])
print(T._contraction_path(), len(calls))
sys.exit(code)
"""


def _run_script(script, *args):
    import subprocess
    import sys

    import chromapad

    src = os.path.dirname(os.path.dirname(os.path.abspath(chromapad.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          cwd=os.path.dirname(src), timeout=600)


def test_pins_hold_when_probe_rejects_einsum():
    # a fused multiply-add build: the probe's first shape fails, every
    # product runs on the ufunc loop, and every pin still holds
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    proc = _run_script(_FUSED_PINS_SCRIPT, tests_dir,
                       os.path.join(tests_dir, "test_pins.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "ufunc loop 1"


_NO_PROBE_SCRIPT = """
import sys

import numpy as np

import chromapad
import chromapad.tensor_ops as T
from chromapad.cli import main

probe = T._einsum_keeps_bits
after_import = probe.cache_info().misses
scores, det, report = sys.argv[1:]
rc = main(["eval", "--scores", scores, "--det", det, "--out", report])
after_eval = probe.cache_info().misses
ones = np.ones((1, 3, 2), np.float32)
T._matmul_numpy(ones, ones, np.empty((1, 2, 2), np.float32))
print(rc, after_import, after_eval, probe.cache_info().misses)
"""


def test_import_and_eval_never_probe(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("label,score\nbonafide,0.9\nbonafide,0.7\n"
                      "attack,0.2\nattack,0.8\n", encoding="utf-8")
    proc = _run_script(_NO_PROBE_SCRIPT, str(scores),
                       str(tmp_path / "det.csv"), str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    # the product afterwards is the first, and runs the probe once
    assert proc.stdout.split() == ["0", "0", "0", "1"]


def test_import_leaves_thread_pool_unloaded():
    # split products run on plain threads, so neither `import chromapad`
    # nor a split imports concurrent.futures (and with it logging)
    proc = _run_script(
        "import sys, numpy as np, chromapad, chromapad.cli\n"
        "import chromapad.tensor_ops as T\n"
        "print('concurrent.futures' in sys.modules)\n"
        "T._usable_cpus = lambda: 2\n"
        "T.batched_matmul(np.ones((1, 301, 5), np.float32),\n"
        "                 np.ones((1, 5, 500), np.float32))\n"
        "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


_THREAD_STATE_SCRIPT = """
import ctypes

import numpy as np

import chromapad.tensor_ops


class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


libc = ctypes.CDLL(None)
try:
    libc.mallinfo2.argtypes, libc.mallinfo2.restype = [], Mallinfo2
except AttributeError:  # not glibc 2.33 or later
    raise SystemExit(3)
np.ones(4) + 0.0  # whatever a first small ufunc call sets up
before = libc.mallinfo2().uordblks
np.ones(1 << 15) + 0.0  # arithmetic on a 256 KiB temporary
print(libc.mallinfo2().uordblks - before)
"""


def test_import_takes_numpy_thread_state():
    # numpy's per-thread state, allocated on its first use and freed only
    # when the thread ends, is taken at import; left to the first forward,
    # it lands above the loaded weights and keeps the heap from shrinking
    # once they are freed
    proc = _run_script(_THREAD_STATE_SCRIPT)
    if proc.returncode == 3:
        pytest.skip("needs glibc's mallinfo2")
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4096


_FAULTS_SCRIPT = """
import platform
import resource
import sys

if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
    raise SystemExit(3)

import numpy as np

from chromapad.colorspace import ColorImage, ColorSpace, to_ppm_bytes
from chromapad.model import ModelConfig, build_model, forward_ppm

model = build_model(ModelConfig.desk())
rng = np.random.default_rng(0)
images = [to_ppm_bytes(ColorImage(112, 112, ColorSpace.RGB, rng.integers(
    0, 256, (112, 112, 3), dtype=np.uint8))) for _ in range(25)]
for image in images[:5]:
    forward_ppm(model, image)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for image in images[5:]:
    forward_ppm(model, image)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_desk_forward_recycles_heap_pages():
    # once warm, a desk forward's temporaries reuse heap pages (~1 minor
    # page fault per forward). Without the block freed at import, glibc
    # maps and unmaps the larger ones on every call: ~2200 faults each
    proc = _run_script(_FAULTS_SCRIPT)
    if proc.returncode == 3:
        pytest.skip("needs Linux with glibc")
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 10
