"""MAC counter tests against literal loop-nest enumeration and against the
products a forward pass runs."""

import json
import math

import numpy as np
import pytest

from chromapad.complexity import (
    format_gmacs,
    macs_conv2d,
    macs_linear,
    macs_window_attention,
    model_complexity,
)
from chromapad import attention, blocks
from chromapad import model as M
from chromapad.colorspace import ColorImage, ColorSpace
from chromapad.errors import ConfigError
from chromapad.model import (ModelConfig, build_model, forward,
                             standard_ablation_grid)


def count_conv_multiplies(c_in, c_out, k_h, k_w, h_out, w_out, groups):
    """Count one per multiply by running the literal loop nest."""
    count = 0
    c_in_g = c_in // groups
    c_out_g = c_out // groups
    for g in range(groups):
        for _co in range(c_out_g):
            for _oi in range(h_out):
                for _oj in range(w_out):
                    for _ci in range(c_in_g):
                        for _ki in range(k_h):
                            for _kj in range(k_w):
                                count += 1
    return count


def count_linear_multiplies(d_in, d_out, tokens):
    count = 0
    for _t in range(tokens):
        for _o in range(d_out):
            for _i in range(d_in):
                count += 1
    return count


def count_attention_multiplies(d, heads, window, n_windows):
    n, d_h = window * window, d // heads
    count = 0
    for _w in range(n_windows):
        count += count_linear_multiplies(d, 3 * d, n)     # QKV projection
        for _h in range(heads):
            count += count_linear_multiplies(d_h, n, n)   # logits QK^T
            count += count_linear_multiplies(n, d_h, n)   # weighted values
        count += count_linear_multiplies(d, d, n)         # output mix
    return count


class TestConvCounter:
    def test_unit_case(self):
        assert macs_conv2d(1, 1, 1, 1, 1, 1) == (1, 2)

    def test_three_by_three(self):
        macs, _ = macs_conv2d(1, 1, 3, 3, 4, 4)
        assert macs == 144

    def test_depthwise(self):
        macs, _ = macs_conv2d(8, 8, 3, 3, 2, 2, groups=8)
        assert macs == 288

    def test_matches_loop_nest(self):
        rng = np.random.default_rng(0)
        for _ in range(80):
            groups = int(rng.integers(1, 4))
            c_in = groups * int(rng.integers(1, 4))
            c_out = groups * int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            h_out, w_out = (int(v) for v in rng.integers(1, 5, 2))
            macs, params = macs_conv2d(c_in, c_out, k, k, h_out, w_out,
                                       groups=groups)
            assert macs == count_conv_multiplies(c_in, c_out, k, k, h_out,
                                                 w_out, groups)
            assert params == c_out * (k * k * c_in // groups) + c_out

    def test_divisibility_checked(self):
        with pytest.raises(ConfigError):
            macs_conv2d(3, 4, 1, 1, 2, 2, groups=2)


class TestLinearCounter:
    def test_unit_case(self):
        assert macs_linear(1, 1, 1) == (1, 2)

    def test_published_dims_arithmetic(self):
        macs, params = macs_linear(768, 768, 49)
        assert macs == 49 * 768 * 768
        assert params == 768 * 768 + 768

    def test_zero_tokens(self):
        assert macs_linear(5, 7, 0)[0] == 0

    def test_matches_loop_nest(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            d_in, d_out, tokens = (int(v) for v in rng.integers(1, 9, 3))
            macs, _ = macs_linear(d_in, d_out, tokens)
            assert macs == count_linear_multiplies(d_in, d_out, tokens)


class TestAttentionCounter:
    def test_scalar_case(self):
        macs, _ = macs_window_attention(1, 1, 1, 1)
        assert macs == 6  # 3 (qkv) + 2 (logit + value) + 1 (mix)

    def test_linearity_in_windows(self):
        one, params1 = macs_window_attention(8, 2, 2, 1)
        two, params2 = macs_window_attention(8, 2, 2, 2)
        assert two == 2 * one
        assert params1 == params2

    def test_published_preset_closed_form(self):
        macs, params = macs_window_attention(768, 24, 7, 4)
        n, d = 49, 768
        assert macs == 4 * (3 * n * d * d + 2 * n * n * d + n * d * d)
        assert params == 3 * d * d + 3 * d + d * d + d + 24 * 169

    def test_matches_loop_nest(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            heads = int(rng.integers(1, 4))
            d = heads * int(rng.integers(1, 4))
            w = int(rng.integers(1, 4))
            n_windows = int(rng.integers(0, 4))
            macs, _ = macs_window_attention(d, heads, w, n_windows)
            assert macs == count_attention_multiplies(d, heads, w, n_windows)

    def test_non_positive_dimensions_rejected(self):
        for dims in (0, 1, 1), (1, 0, 1), (1, 1, 0):
            with pytest.raises(ConfigError, match="dimensions must be "
                                                  "positive"):
                macs_window_attention(*dims, 1)
        with pytest.raises(ConfigError, match="n_windows"):
            macs_window_attention(1, 1, 1, -1)


class TestGmacsDisplay:
    def test_published_figure_formatting(self):
        assert format_gmacs(1_790_000_000) == "1.790"

    def test_rounding(self):
        assert format_gmacs(1_234_499_999) == "1.234"
        assert format_gmacs(0) == "0.000"


class TestModelComplexity:
    def test_totals_are_exact_sums(self):
        report = model_complexity(ModelConfig.desk())
        assert report.total_macs == sum(l.macs for l in report.layers)
        assert report.total_params == sum(l.params for l in report.layers)

    def test_disabling_a_branch_strictly_decreases_macs(self):
        from chromapad.colorspace import ColorSpace

        full = model_complexity(ModelConfig.desk())
        rgb_only = model_complexity(
            ModelConfig.desk(branches=(ColorSpace.RGB,)))
        assert rgb_only.total_macs < full.total_macs

    def test_disabling_attention_and_residual_decreases_macs(self):
        base = model_complexity(ModelConfig.desk())
        no_attn = model_complexity(ModelConfig.desk(attention_enabled=False))
        no_res = model_complexity(ModelConfig.desk(residual_enabled=False))
        assert no_attn.total_macs < base.total_macs
        assert no_res.total_macs < base.total_macs

    def test_zero_branch_config_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.desk(branches=())

    def test_desk_preset_matches_hand_summed_table(self):
        # independent spreadsheet-style summation of the desk architecture:
        # three branches, blocks 3->16->32->64 (stride 2 each from 112),
        # bottleneck to d=64 at 14x14, attention over four 7x7 windows,
        # fusion, two 3x3 residual convs, classifier to 2 logits
        d = 64
        per_branch = 0
        per_branch += 112 * 112 * 3 * 9 + 56 * 56 * 16 * 3        # block 0
        per_branch += 56 * 56 * 16 * 9 + 28 * 28 * 32 * 16        # block 1
        per_branch += 28 * 28 * 32 * 9 + 14 * 14 * 64 * 32        # block 2
        per_branch += 14 * 14 * d * 64                            # bottleneck
        n, windows = 49, 4
        per_branch += windows * (3 * n * d * d + 2 * n * n * d + n * d * d)
        expected = 3 * per_branch
        expected += 14 * 14 * d * d                               # fusion mix
        expected += 2 * (14 * 14 * d * d * 9)                     # residual
        expected += 2 * d                                         # classifier
        report = model_complexity(ModelConfig.desk())
        assert report.total_macs == expected

    def test_dq_toggles_bytes_not_macs(self):
        plain = model_complexity(ModelConfig.desk())
        dq = model_complexity(ModelConfig.desk(dq_enabled=True))
        assert dq.total_macs == plain.total_macs
        assert dq.total_params == plain.total_params
        assert dq.param_bytes < plain.param_bytes

    def test_param_bytes_pinned(self):
        # 4 bytes per convention parameter; under DQ each default-policy
        # weight tensor costs 1 byte per element plus a 16-byte block
        assert model_complexity(ModelConfig.desk()).param_bytes == 609056
        assert model_complexity(
            ModelConfig.desk(dq_enabled=True)).param_bytes == 388912
        assert model_complexity(ModelConfig.paper()).param_bytes == 74566544

    def test_json_round_trip(self):
        report = model_complexity(ModelConfig.desk())
        parsed = json.loads(json.dumps(report.to_json_dict()))
        assert parsed["total_macs"] == report.total_macs
        assert parsed["total_params"] == report.total_params
        assert parsed["gmacs"] == f"{report.total_macs / 1e9:.3f}"
        assert all(set(l) == {"name", "macs", "params"}
                   for l in parsed["layers"])


# the stages `forward` calls; a backbone or residual stage runs one plan row
# per convolution, any other stage one row in all
_STAGES = ("backbone_forward", "bottleneck_project",
           "multi_head_window_attention", "fuse_branches",
           "nested_residual_forward", "classifier_head")
_ROW_PER_CONV = {"backbone_forward", "nested_residual_forward"}

_EXECUTED_CONFIGS = (*standard_ablation_grid(ModelConfig.desk()),
                     ModelConfig.paper(dq_enabled=True))


@pytest.mark.parametrize(
    "cfg", _EXECUTED_CONFIGS,
    ids=[f"desk-grid-{i}" for i in range(7)] + ["paper-dq"])
def test_executed_macs_match_every_plan_row(monkeypatch, cfg):
    rows, per_conv = [], False

    def stage(name, fn):
        def wrapped(*args, **kwargs):
            nonlocal per_conv
            per_conv = name in _ROW_PER_CONV
            if not per_conv:
                rows.append(0)
            return fn(*args, **kwargs)
        return wrapped

    def kernel(module, name):
        fn = getattr(module, name)

        def counted(a, b, *args, **kwargs):
            out = fn(a, b, *args, **kwargs)
            # a convolution's weight b is (C_out, C_in/groups, k_h, k_w); a
            # product's operand a ends in its contracted extent k
            k = math.prod(b.shape[1:]) if name == "conv2d" else a.shape[-1]
            if per_conv:
                rows.append(out.size * k)
            else:
                rows[-1] += out.size * k
            return out
        monkeypatch.setattr(module, name, counted)

    for name in _STAGES:
        monkeypatch.setattr(M, name, stage(name, getattr(M, name)))
    kernel(blocks, "conv2d")
    kernel(blocks, "matmul")
    kernel(attention, "matmul")
    kernel(attention, "batched_matmul")
    pixels = np.random.default_rng(0).integers(
        0, 256, (cfg.input_size, cfg.input_size, 3), dtype=np.uint8)
    forward(build_model(cfg), ColorImage(cfg.input_size, cfg.input_size,
                                         ColorSpace.RGB, pixels))
    assert rows == [layer.macs for layer in model_complexity(cfg).layers]
