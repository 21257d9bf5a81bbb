"""Dynamic quantization round-trip and policy tests."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromapad.errors import QuantizationError
from chromapad.quant import (
    DEFAULT_POLICY,
    PARAM_OVERHEAD_BYTES,
    QuantParams,
    QuantizedTensor,
    compute_quant_params,
    dequantize,
    dequantize_f32,
    dequantized_range,
    quantize,
    quantize_model,
)
from chromapad.tensor_ops import PIECE_BYTES


def round_half_away(x):
    return math.floor(abs(x) + 0.5) * (1 if x >= 0 else -1)


class TestParams:
    def test_unit_scale_endpoints(self):
        p = compute_quant_params(np.array([0.0, 255.0], np.float32))
        assert p.scale == 1.0
        assert p.zero_point == -128
        assert (p.f_min, p.f_max) == (0.0, 255.0)

    def test_constant_tensor_unit_scale(self):
        p = compute_quant_params(np.full(7, 3.25, np.float32))
        assert p.f_min == p.f_max == 3.25
        assert p.scale == 1.0

    def test_direct_formula(self):
        p = compute_quant_params(np.array([-1.0, 0.5, 1.0], np.float32))
        assert abs(p.scale - 2.0 / 255.0) < 1e-9
        assert p.zero_point == round_half_away(1.0 / p.scale) - 128

    def test_zero_point_relation_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            arr = (rng.standard_normal(rng.integers(1, 50)) * 50) \
                .astype(np.float32)
            p = compute_quant_params(arr)
            assert p.zero_point == round_half_away(-p.f_min / p.scale) - 128

    def test_empty_rejected(self):
        with pytest.raises(QuantizationError):
            compute_quant_params(np.zeros(0, np.float32))

    def test_non_finite_rejected(self):
        with pytest.raises(QuantizationError):
            compute_quant_params(np.array([1.0, np.nan], np.float32))
        with pytest.raises(QuantizationError):
            compute_quant_params(np.array([1.0, np.inf], np.float32))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.floats(-2.0**100, 2.0**100, width=32),
           st.floats(2.0**-100, 2.0**123, width=32))
    def test_dequantized_range_is_that_of_every_value(self, seed, f_min,
                                                      scale):
        rng = np.random.default_rng(seed)
        qt = QuantizedTensor(
            rng.integers(-128, 128, rng.integers(1, 300), dtype=np.int8),
            QuantParams(f_min=f_min, f_max=f_min + 255 * scale, scale=scale,
                        zero_point=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes
            low, high = dequantized_range(qt)
        with np.errstate(over="ignore"):
            values = dequantize_f32(qt)
        assert low.dtype == high.dtype == np.float32
        assert (low, high) == (values.min(), values.max())

    def test_endpoint_codes(self):
        f = np.array([0.0, 255.0], np.float32)
        qt = quantize(f, compute_quant_params(f))
        assert qt.qdata.tolist() == [-128, 127]
        assert np.array_equal(dequantize(qt), [0.0, 255.0])

    def test_constant_tensor_all_low_code_exact(self):
        f = np.full(5, -17.5, np.float32)
        qt = quantize(f, compute_quant_params(f))
        assert np.all(qt.qdata == -128)
        assert np.array_equal(dequantize(qt), f.astype(np.float64))

    def test_hand_values(self):
        f = np.array([-1.0, 0.5, 1.0], np.float32)
        p = compute_quant_params(f)
        qt = quantize(f, p)
        expected = [
            min(127, round_half_away((v - p.f_min) / p.scale) - 128)
            for v in (-1.0, 0.5, 1.0)
        ]
        assert qt.qdata.tolist() == expected

    def test_codes_stay_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            f = (rng.uniform(-1e3, 1e3, rng.integers(1, 64))).astype(np.float32)
            qt = quantize(f, compute_quant_params(f))
            assert qt.qdata.min() >= -128 and qt.qdata.max() <= 127

    def test_extremes_map_to_extreme_codes(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = (rng.uniform(-1e3, 1e3, rng.integers(2, 64))).astype(np.float32)
            if f.max() == f.min():
                continue
            qt = quantize(f, compute_quant_params(f))
            assert qt.qdata[f.argmin()] == -128
            assert qt.qdata[f.argmax()] == 127

    def test_error_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            f = (rng.uniform(-1e3, 1e3, 1000)).astype(np.float32)
            p = compute_quant_params(f)
            err = np.abs(dequantize(quantize(f, p)) - f.astype(np.float64))
            assert err.max() <= p.scale / 2 + 1e-6

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        f = rng.uniform(-5, 5, 100).astype(np.float32)
        base = compute_quant_params(f)
        for c in (2.0, 16.0, 0.5):
            scaled = compute_quant_params((f * np.float32(c)))
            assert abs(scaled.scale - c * base.scale) <= 1e-6 * scaled.scale \
                + 1e-12

    def test_f32_view_matches_f64_reconstruction(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(-10, 10, 64).astype(np.float32)
        qt = quantize(f, compute_quant_params(f))
        assert dequantize_f32(qt).tobytes() == \
            dequantize(qt).astype(np.float32).tobytes()

    def test_dequantize_fills_one_float64_buffer(self):
        f = np.random.default_rng(6).uniform(-1, 1, 1 << 18).astype(np.float32)
        p = compute_quant_params(f)
        qt = quantize(f, p)
        tracemalloc.start()
        try:
            out = dequantize(qt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + (64 << 10)
        expected = (qt.qdata.astype(np.float64) + 128.0) * p.scale + p.f_min
        assert out.tobytes() == expected.tobytes()


def input_major_copy(x):
    """``x`` with its first axis moved last in memory, in the plan shape."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)


class TestLayout:
    """Quantization walks a tensor in memory order and keeps its layout, so
    an input-major weight dequantizes straight into the layout its product
    reads."""

    # a (out, in, kh, kw) weight spanning several float64 pieces
    SHAPE = (256, 128, 3, 3)

    def codes(self):
        f = np.random.default_rng(8).uniform(-1, 1, self.SHAPE).astype(
            np.float32)
        return f, quantize(f, compute_quant_params(f))

    def test_quantize_keeps_layout_and_codes(self):
        f, qt = self.codes()
        moved = quantize(input_major_copy(f), qt.params)
        assert np.moveaxis(moved.qdata, 0, -1).flags.c_contiguous
        assert moved.qdata.tobytes() == qt.qdata.tobytes()

    def test_dequantize_f32_keeps_layout_and_bits(self):
        _, qt = self.codes()
        moved = QuantizedTensor(input_major_copy(qt.qdata), qt.params)
        got = dequantize_f32(moved)
        assert np.moveaxis(got, 0, -1).flags.c_contiguous
        assert got.tobytes() == dequantize_f32(qt).tobytes()
        # any other strided layout dequantizes to the same values too
        strided = QuantizedTensor(qt.qdata[:, ::2], qt.params)
        assert dequantize_f32(strided).tobytes() == \
            dequantize_f32(qt)[:, ::2].tobytes()

    def test_dequantize_f32_allocates_result_plus_one_piece(self):
        _, qt = self.codes()
        moved = QuantizedTensor(input_major_copy(qt.qdata), qt.params)
        assert moved.qdata.size > 4 * (PIECE_BYTES // 8)
        dequantize_f32(moved)  # one-time allocations of a first call
        tracemalloc.start()
        try:
            out = dequantize_f32(moved)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 result and one float64 piece, plus 64 KiB
        assert peak <= out.nbytes + PIECE_BYTES + (64 << 10)


def test_subnormal_span_round_trips():
    # (1e-45 - 0) / 255 rounds to a zero float32 scale
    f = np.array([0.0, 1e-45], np.float32)
    p = compute_quant_params(f)
    assert p.scale == 1.0
    assert np.abs(dequantize(quantize(f, p)) - f).max() <= p.f_max - p.f_min


@pytest.mark.parametrize("codes", [
    np.array([300, -129, 1.7]),
    np.array([200], np.int16),
    np.array([np.nan]),
], ids=("float64", "int16", "nan"))
def test_codes_int8_cannot_hold_raise(codes):
    with pytest.raises(QuantizationError, match="codes must be integers"):
        QuantizedTensor(codes, QuantParams(0.0, 1.0, 1.0, 0))


def test_codes_int8_holds_are_cast_and_int8_codes_kept():
    p = QuantParams(0.0, 1.0, 1.0, 0)
    wide = QuantizedTensor(np.array([-128, 0, 127], np.int16), p)
    assert wide.qdata.dtype == np.int8
    assert wide.qdata.tolist() == [-128, 0, 127]
    codes = np.zeros(3, np.int8)
    assert QuantizedTensor(codes, p).qdata is codes


@settings(max_examples=60)
@given(st.lists(st.floats(-1e3, 1e3, width=32), min_size=1, max_size=128),
       st.floats(0.25, 4.0))
def test_round_trip_property(values, _scale_unused):
    f = np.array(values, np.float32)
    p = compute_quant_params(f)
    qt = quantize(f, p)
    recon = dequantize(qt)
    assert qt.qdata.min() >= -128 and qt.qdata.max() <= 127
    if p.f_max > p.f_min:
        assert np.abs(recon - f.astype(np.float64)).max() <= p.scale / 2 + 1e-6
    else:
        assert np.array_equal(recon, f.astype(np.float64))


class TestQuantizeModel:
    def weights(self):
        rng = np.random.default_rng(6)
        return {
            "branch.RGB.attention.qkv_weight":
                rng.standard_normal((6, 2)).astype(np.float32),
            "branch.RGB.attention.qkv_bias":
                rng.standard_normal(6).astype(np.float32),
            "residual.conv1_weight":
                rng.standard_normal((2, 2, 3, 3)).astype(np.float32),
        }

    def test_default_policy_targets_projections(self):
        quantized, report = quantize_model(self.weights())
        assert type(quantized["branch.RGB.attention.qkv_weight"]).__name__ \
            == "QuantizedTensor"
        assert isinstance(quantized["branch.RGB.attention.qkv_bias"],
                          np.ndarray)
        assert isinstance(quantized["residual.conv1_weight"], np.ndarray)
        rows = {t.name: t for t in report.tensors}
        assert rows["branch.RGB.attention.qkv_weight"].quantized
        assert not rows["residual.conv1_weight"].quantized

    def test_byte_accounting(self):
        _, report = quantize_model(self.weights())
        rows = {t.name: t for t in report.tensors}
        qkv = rows["branch.RGB.attention.qkv_weight"]
        assert qkv.bytes_before == 4 * 12
        assert qkv.bytes_after == 12 + PARAM_OVERHEAD_BYTES
        conv = rows["residual.conv1_weight"]
        assert conv.bytes_before == conv.bytes_after == 4 * 36
        assert report.total_bytes_before == \
            sum(t.bytes_before for t in report.tensors)

    def test_empty_policy_warns_and_passes_through(self):
        w = self.weights()
        with pytest.warns(UserWarning):
            quantized, report = quantize_model(w, policy=["nope.*"])
        for name, val in quantized.items():
            assert isinstance(val, np.ndarray)
            assert np.array_equal(val, w[name])
        assert report.total_bytes_before == report.total_bytes_after

    def test_single_tensor_report_matches_oracle(self):
        f = np.array([0.0, 1.0, 2.0, 3.0], np.float32)
        _, report = quantize_model({"classifier.weight": f})
        row = report.tensors[0]
        p = compute_quant_params(f)
        err = np.abs(dequantize(quantize(f, p)) - f.astype(np.float64))
        assert row.scale == p.scale
        assert row.zero_point == p.zero_point
        assert row.max_abs_error == err.max()
        assert row.mean_abs_error == err.mean()

    def test_callable_policy(self):
        quantized, _ = quantize_model(self.weights(),
                                      policy=lambda name: "conv" in name)
        assert type(quantized["residual.conv1_weight"]).__name__ \
            == "QuantizedTensor"

    def test_report_serializes(self):
        import json

        _, report = quantize_model(self.weights())
        parsed = json.loads(json.dumps(report.to_json_dict()))
        assert parsed["total_bytes_after"] < parsed["total_bytes_before"]
        assert {t["name"] for t in parsed["tensors"]} == set(self.weights())


def test_default_policy_patterns_documented():
    assert "*.qkv_weight" in DEFAULT_POLICY
    assert "*.pointwise_weight" in DEFAULT_POLICY


def test_quant_params_validation():
    with pytest.raises(QuantizationError):
        QuantParams(f_min=2.0, f_max=1.0, scale=1.0, zero_point=0)
    with pytest.raises(QuantizationError):
        QuantParams(f_min=0.0, f_max=1.0, scale=0.0, zero_point=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["f_min", "f_max", "scale"])
def test_quant_params_refuse_non_finite(field, value):
    params = dict(f_min=0.0, f_max=1.0, scale=1.0, zero_point=0)
    params[field] = value
    with pytest.raises(QuantizationError,
                       match=f"^{field} must be finite, got {value}$"):
        QuantParams(**params)
