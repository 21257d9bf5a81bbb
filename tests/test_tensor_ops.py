"""Tensor kernel tests against independent reference implementations."""

import itertools
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


def test_compiled_and_numpy_matmul_paths_identical():
    # the loop nest runs as plain Python here and is what gets compiled when
    # numba is present, so both kernel bodies are compared on every install;
    # each also takes a_t as the transposed view that `batched_matmul`
    # passes, which numba compiles as a separate (strided) specialization
    import chromapad.tensor_ops as T

    rng = np.random.default_rng(21)
    # (2, 9, 2, 7000) spans two output-row blocks of the ufunc loop
    shapes = [(1, 1, 1, 1), (3, 17, 4, 5), (2, 33, 3, 2), (2, 9, 2, 7000)]
    shapes += [tuple(rng.integers(1, 20, size=4)) for _ in range(8)]
    kernels = [T._matmul_numpy, T._matmul_ufuncs, T._matmul_loops]
    if T._matmul_compiled is not None:
        kernels.append(T._matmul_compiled)
    for batch, m, k, n in shapes:
        a_t = (rng.standard_normal((batch, k, m)) * 100).astype(np.float32)
        b = (rng.standard_normal((batch, k, n)) * 100).astype(np.float32)
        a_view = np.ascontiguousarray(a_t.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert min(m, k) == 1 or not a_view.flags.c_contiguous
        expected = np.empty((batch, m, n), np.float32)
        T._matmul_numpy(a_t, b, expected)
        for kernel, operand in itertools.product(kernels, (a_t, a_view)):
            out = np.empty((batch, m, n), np.float32)
            kernel(operand, b, out)
            assert out.tobytes() == expected.tobytes()


@pytest.fixture(params=[2, 3], ids=("2_threads", "3_threads"))
def split_threads(request, monkeypatch):
    """Splitting across 2 or 3 threads in place of the host's CPU count, so
    it is exercised on any host; the value is a list that records each
    split's shape."""
    import chromapad.tensor_ops as T

    splits = []
    real_split = T._matmul_split

    def recording_split(kernel, a_t, b, out, threads):
        splits.append(out.shape)
        real_split(kernel, a_t, b, out, threads)

    monkeypatch.setattr(T, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(T, "_matmul_split", recording_split)
    return splits


def serial_kernel_product(a, b):
    import chromapad.tensor_ops as T

    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), np.float32)
    (T._matmul_compiled or T._matmul_numpy)(
        np.ascontiguousarray(a.transpose(0, 2, 1)), b, out)
    return out


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

    def test_paper_residual_shape(self, split_threads):
        a, b = random_operands(768, 1, 768, 6912, 196)
        got = batched_matmul(a, b)
        assert split_threads == [(1, 768, 196)]
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
            if thread.name == "chromapad-matmul":
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

    def test_failing_share_raises_after_every_thread_ends(
            self, split_threads, monkeypatch):
        import threading
        import chromapad.tensor_ops as T

        class ShareFailure(Exception):
            pass

        real_kernel = T._matmul_compiled or T._matmul_numpy
        ran_on = []

        def kernel(a_t, b, out):
            ran_on.append(threading.current_thread())
            # first output row of this share within the whole product
            start = (out.ctypes.data - out.base.ctypes.data) // out.strides[1]
            if start == -(-out.base.shape[1] // T._usable_cpus()):
                raise ShareFailure(start)
            real_kernel(a_t, b, out)

        monkeypatch.setattr(T, "_matmul_compiled", None)
        monkeypatch.setattr(T, "_matmul_numpy", kernel)
        a, b = random_operands(6, 1, 301, 5, 500)
        with pytest.raises(ShareFailure):
            batched_matmul(a, b)
        assert len(ran_on) == T._usable_cpus()
        assert not any(t.is_alive() for t in ran_on
                       if t is not threading.current_thread())

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
    monkeypatch.setattr(T, "_matmul_compiled", None)
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
T._matmul_compiled = None
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
