"""Window attention tests, including the naive full-attention oracle."""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from chromapad.attention import (
    AttentionParams,
    expand_relative_bias,
    multi_head_window_attention,
    qkv_project,
    relative_index_map,
    window_attention_head,
    window_partition,
    window_reverse,
)
from chromapad.errors import ConfigError, ShapeError
from chromapad.model import ModelConfig
from chromapad.tensor_ops import matmul


def random_params(d, heads, window, rng, zero_bias_table=False):
    table_shape = (heads, (2 * window - 1) ** 2)
    table = (np.zeros(table_shape, np.float32) if zero_bias_table else
             rng.standard_normal(table_shape).astype(np.float32))
    return AttentionParams(
        qkv_weight=(rng.standard_normal((3 * d, d)) / math.sqrt(d))
        .astype(np.float32),
        qkv_bias=rng.standard_normal(3 * d).astype(np.float32) * 0.1,
        out_weight=(rng.standard_normal((d, d)) / math.sqrt(d))
        .astype(np.float32),
        out_bias=rng.standard_normal(d).astype(np.float32) * 0.1,
        rel_bias=expand_relative_bias(table, window),
    )


def zero_params(d, heads, window):
    return AttentionParams(
        qkv_weight=np.zeros((3 * d, d), np.float32),
        qkv_bias=np.zeros(3 * d, np.float32),
        out_weight=np.zeros((d, d), np.float32),
        out_bias=np.zeros(d, np.float32),
        rel_bias=np.zeros((heads, window ** 2, window ** 2), np.float32),
    )


def naive_full_attention(x_tokens, params):
    """Direct float64 evaluation over all N tokens of one window."""
    d, heads = params.embed_dim, params.num_heads
    d_h = d // heads
    t = x_tokens.astype(np.float64)
    proj = t @ params.qkv_weight.T.astype(np.float64) \
        + params.qkv_bias.astype(np.float64)
    bias = params.rel_bias.astype(np.float64)
    outputs = []
    for head in range(heads):
        cols = slice(head * d_h, (head + 1) * d_h)
        q = proj[:, 0 * d:1 * d][:, cols]
        k = proj[:, 1 * d:2 * d][:, cols]
        v = proj[:, 2 * d:3 * d][:, cols]
        logits = q @ k.T / math.sqrt(d_h) + bias[head]
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)
        outputs.append(weights @ v)
    merged = np.concatenate(outputs, axis=1)
    return merged @ params.out_weight.T.astype(np.float64) \
        + params.out_bias.astype(np.float64)


def per_window_head_attention(x, params):
    """One 2-D attention call per (window, head), heads concatenated."""
    h, w, d = x.shape
    heads, window = params.num_heads, params.window
    d_h = d // heads
    wins = window_partition(x, window)
    n_windows, n_tokens, _ = wins.shape
    q, k, v = qkv_project(wins.reshape(-1, d), params)
    shape = (heads, n_windows, n_tokens, d_h)
    q, k, v = q.reshape(shape), k.reshape(shape), v.reshape(shape)
    out = np.empty((n_windows, n_tokens, d), np.float32)
    for wi in range(n_windows):
        for head in range(heads):
            cols = slice(head * d_h, (head + 1) * d_h)
            out[wi, :, cols] = window_attention_head(
                q[head, wi], k[head, wi], v[head, wi], params.rel_bias[head])
    mixed = matmul(out.reshape(-1, d), np.ascontiguousarray(params.out_weight.T))
    mixed = mixed + params.out_bias
    return window_reverse(mixed.reshape(n_windows, n_tokens, d), h, w, window)


class TestConfig:
    def test_paper_preset_dimensions(self):
        cfg = ModelConfig.paper()
        assert (cfg.embed_dim, cfg.num_heads, cfg.window) == (768, 24, 7)
        params = zero_params(cfg.embed_dim, cfg.num_heads, cfg.window)
        assert (params.embed_dim, params.num_heads, params.window) == \
            (768, 24, 7)
        assert params.embed_dim // params.num_heads == 32

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="^rel_bias has 3 heads, which "
                                              "do not divide embed_dim 10$"):
            zero_params(10, 3, 2)

    def test_positivity(self):
        for d, heads, window in (0, 1, 1), (2, 0, 1), (2, 1, 0):
            with pytest.raises(ShapeError, match="with d >= 1$|N >= 1$"):
                zero_params(d, heads, window)


class TestRelativeIndexMap:
    def test_values_in_range_and_offset_shared(self):
        for w in (1, 2, 3, 7):
            idx = relative_index_map(w)
            n = w * w
            assert idx.shape == (n, n)
            assert idx.min() >= 0 and idx.max() <= (2 * w - 1) ** 2 - 1
            # same (dr, dc) offsets index the same table slot
            coords = [(i // w, i % w) for i in range(n)]
            seen = {}
            for i in range(n):
                for j in range(n):
                    off = (coords[i][0] - coords[j][0],
                           coords[i][1] - coords[j][1])
                    if off in seen:
                        assert seen[off] == idx[i, j]
                    seen[off] = idx[i, j]

    def test_matches_definition(self):
        for w in (1, 2, 3, 7):
            idx = relative_index_map(w)
            assert idx.dtype == np.arange(1).dtype
            for i, j in itertools.product(range(w * w), repeat=2):
                dr, dc = i // w - j // w, i % w - j % w
                assert idx[i, j] == (dr + w - 1) * (2 * w - 1) + dc + w - 1

    def test_center_index_on_diagonal(self):
        w = 3
        idx = relative_index_map(w)
        center = (w - 1) * (2 * w - 1) + (w - 1)
        assert np.all(np.diag(idx) == center)


class TestPartition:
    def test_single_window_is_flattened_map(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3, 4)).astype(np.float32)
        wins = window_partition(x, 3)
        assert wins.shape == (1, 9, 4)
        assert np.array_equal(wins[0], x.reshape(9, 4))

    def test_constant_map_gives_identical_windows(self):
        x = np.full((4, 4, 2), 1.5, np.float32)
        wins = window_partition(x, 2)
        assert wins.shape == (4, 4, 2)
        for w in wins[1:]:
            assert np.array_equal(w, wins[0])

    def test_unit_window_row_major_order(self):
        x = np.arange(4, dtype=np.float32).reshape(2, 2, 1)
        wins = window_partition(x, 1)
        assert np.array_equal(wins.reshape(-1), np.array([0, 1, 2, 3],
                                                         np.float32))

    def test_rejects_non_divisible(self):
        with pytest.raises(ShapeError):
            window_partition(np.zeros((5, 4, 2), np.float32), 2)

    @pytest.mark.parametrize("h,w,win", [(2, 2, 1), (4, 4, 2), (6, 9, 3),
                                         (7, 7, 7)])
    def test_reverse_round_trip_bit_exact(self, h, w, win):
        rng = np.random.default_rng(h * 100 + w)
        x = rng.standard_normal((h, w, 5)).astype(np.float32)
        wins = window_partition(x, win)
        assert window_reverse(wins, h, w, win).tobytes() == x.tobytes()

    def test_reverse_count_mismatch(self):
        with pytest.raises(ShapeError):
            window_reverse(np.zeros((2, 4, 3), np.float32), 4, 4, 2)


class TestQkvProject:
    def test_zero_weights(self):
        params = zero_params(4, 2, 2)
        q, k, v = qkv_project(np.ones((4, 4), np.float32), params)
        assert np.all(q == 0) and np.all(k == 0) and np.all(v == 0)

    def test_stacked_identities(self):
        eye = np.eye(3, dtype=np.float32)
        params = AttentionParams(
            qkv_weight=np.concatenate([eye, eye, eye], axis=0),
            qkv_bias=np.zeros(9, np.float32),
            out_weight=eye,
            out_bias=np.zeros(3, np.float32),
            rel_bias=np.zeros((1, 4, 4), np.float32),
        )
        x = np.random.default_rng(1).standard_normal((4, 3)).astype(np.float32)
        q, k, v = qkv_project(x, params)
        for part in (q, k, v):
            assert np.allclose(part[0], x, atol=1e-6)

    def test_random_instance_matches_direct_matmul(self):
        rng = np.random.default_rng(2)
        params = random_params(2, 1, 2, rng)
        x = rng.standard_normal((2, 2)).astype(np.float32)
        q, k, v = qkv_project(x, params)
        direct = x.astype(np.float64) @ params.qkv_weight.T.astype(np.float64) \
            + params.qkv_bias
        assert np.allclose(q[0], direct[:, 0:2], atol=1e-5)
        assert np.allclose(k[0], direct[:, 2:4], atol=1e-5)
        assert np.allclose(v[0], direct[:, 4:6], atol=1e-5)

    def test_head_split_is_contiguous(self):
        rng = np.random.default_rng(3)
        params = random_params(4, 2, 1, rng)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        q, _, _ = qkv_project(x, params)
        full = x.astype(np.float64) @ params.qkv_weight.T.astype(np.float64) \
            + params.qkv_bias
        assert np.allclose(q[0], full[:, 0:2], atol=1e-5)
        assert np.allclose(q[1], full[:, 2:4], atol=1e-5)


def _extra_row(t):
    return np.concatenate([t, t[:1]])


def _wider(t):
    return np.concatenate([t, t[:, :1]], axis=1)


def _first_set_to(value):
    def corrupt(t):
        t = t.copy()
        t.flat[0] = value
        return t
    return corrupt


_ENTRY_POINTS = {
    "qkv_project": lambda params: qkv_project(
        np.zeros((4, 4), np.float32), params),
    "window_attention": lambda params: multi_head_window_attention(
        np.zeros((2, 2, 4), np.float32), params),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize("name, corrupt, error, message", [
    *(pytest.param(name, _extra_row, ShapeError, f"^{name} has shape",
                   id=f"{name}-shape")
      for name in ("qkv_weight", "qkv_bias", "out_weight", "out_bias")),
    # a bad (heads, (2w-1)^2) table, expanded as a model expands it
    pytest.param("rel_bias_table", _extra_row, ConfigError,
                 "^rel_bias has 3 heads, which do not divide embed_dim 4$",
                 id="rel_bias_table-shape"),
    pytest.param("rel_bias_table", _wider, ShapeError,
                 r"^bias table shape \(2, 10\) does not match window 2$",
                 id="rel_bias_table-width"),
    pytest.param("rel_bias_table", _first_set_to(np.nan), ConfigError,
                 "^rel_bias contains non-finite values$",
                 id="rel_bias_table-nan"),
    # a bad expansion given directly
    pytest.param("rel_bias", lambda t: t[:, 1:], ShapeError,
                 r"^rel_bias has shape \(2, 3, 4\), expected \(2, 4, 4\)$",
                 id="rel_bias-shape"),
    pytest.param("rel_bias", lambda t: np.zeros((2, 9), np.float32),
                 ShapeError, r"^rel_bias has shape \(2, 9\), expected "
                 r"\(heads, N, N\)", id="rel_bias-table"),
    pytest.param("rel_bias", _extra_row, ConfigError,
                 "^rel_bias has 3 heads, which do not divide embed_dim 4$",
                 id="rel_bias-heads"),
    pytest.param("rel_bias", lambda t: t[:, :3, :3], ShapeError,
                 "^rel_bias has 3 tokens per window, which is not a square$",
                 id="rel_bias-not_square"),
    *(pytest.param("rel_bias", _first_set_to(value), ConfigError,
                   "^rel_bias contains non-finite values$", id=f"rel_bias-{tag}")
      for tag, value in (("inf", np.inf), ("neg_inf", -np.inf))),
])
def test_invalid_params_rejected(entry, name, corrupt, error, message):
    # every field is checked once, when the object is made: the entry point
    # runs the object as drawn, and no object with a bad field exists
    params = random_params(4, 2, 2, np.random.default_rng(8))
    _ENTRY_POINTS[entry](params)
    given = {f.name: getattr(params, f.name)
             for f in dataclasses.fields(params)}
    with pytest.raises(error, match=message):
        if name == "rel_bias_table":
            table = np.arange(18, dtype=np.float32).reshape(2, 9)
            given["rel_bias"] = expand_relative_bias(corrupt(table), 2)
        else:
            given[name] = corrupt(given[name])
        AttentionParams(**given)


def test_expanded_bias_given_is_checked_and_used():
    # a model passes each table's expansion, made once; the given bias is
    # what the call adds, and its shape is checked when the object is made
    params = random_params(8, 2, 3, np.random.default_rng(9))
    x = np.random.default_rng(10).standard_normal((6, 3, 8)).astype(
        np.float32)
    want = multi_head_window_attention(x, params)
    assert want.tobytes() == per_window_head_attention(x, params).tobytes()
    other = dataclasses.replace(params, rel_bias=params.rel_bias * 2)
    assert multi_head_window_attention(x, other).tobytes() != \
        want.tobytes()
    with pytest.raises(ShapeError, match=r"^rel_bias has shape \(2, 8, 9\), "
                                         r"expected \(2, 9, 9\)$"):
        dataclasses.replace(params, rel_bias=params.rel_bias[:, :-1])


class TestAttentionHead:
    def test_single_token_returns_value(self):
        q = np.array([[3.0]], np.float32)
        v = np.array([[7.5]], np.float32)
        out = window_attention_head(q, q, v, np.zeros((1, 1), np.float32))
        assert np.array_equal(out, v)

    def test_zero_query_averages_values(self):
        rng = np.random.default_rng(4)
        k = rng.standard_normal((5, 3)).astype(np.float32)
        v = rng.standard_normal((5, 3)).astype(np.float32)
        out = window_attention_head(np.zeros((5, 3), np.float32), k, v,
                                    np.zeros((5, 5), np.float32))
        mean = v.astype(np.float64).mean(axis=0)
        assert np.allclose(out, np.tile(mean, (5, 1)), atol=1e-6)

    def test_two_token_closed_form(self):
        q = np.array([[1.0], [0.0]], np.float32)
        k = np.array([[1.0], [0.0]], np.float32)
        v = np.array([[2.0], [4.0]], np.float32)
        out = window_attention_head(q, k, v, np.zeros((2, 2), np.float32))
        e = math.e
        assert abs(float(out[0, 0]) - (2 * e + 4) / (e + 1)) < 1e-5
        assert abs(float(out[1, 0]) - 3.0) < 1e-5

    def test_misshapen_operands_rejected(self):
        q = np.zeros((4, 2), np.float32)
        with pytest.raises(ShapeError):
            window_attention_head(q, q, q, np.zeros((4, 5), np.float32))
        with pytest.raises(ShapeError):
            window_attention_head(q, np.zeros((4, 3), np.float32), q,
                                  np.zeros((4, 4), np.float32))
        with pytest.raises(ShapeError):
            window_attention_head(q, q, np.zeros((3, 2), np.float32),
                                  np.zeros((4, 4), np.float32))
        with pytest.raises(ShapeError):
            window_attention_head(q[0], q[0], q[0], np.zeros((4, 4), np.float32))
        with pytest.raises(ShapeError):
            window_attention_head(q, q, q, np.zeros((2, 4, 4), np.float32))


class TestMultiHead:
    def test_zero_everything_gives_zero(self):
        x = np.zeros((4, 4, 4), np.float32)
        assert np.all(multi_head_window_attention(x, zero_params(4, 2, 2))
                      == 0.0)

    def test_window_locality_bit_exact(self):
        rng = np.random.default_rng(5)
        params = random_params(6, 3, 2, rng)
        x = rng.standard_normal((4, 4, 6)).astype(np.float32)
        base = multi_head_window_attention(x, params)
        perturbed = x.copy()
        perturbed[:2, :2, :] += rng.standard_normal((2, 2, 6)).astype(np.float32)
        out = multi_head_window_attention(perturbed, params)
        # window (0, 0) changed...
        assert not np.array_equal(out[:2, :2], base[:2, :2])
        # ...every other window is bit-identical
        assert out[:2, 2:].tobytes() == base[:2, 2:].tobytes()
        assert out[2:, :].tobytes() == base[2:, :].tobytes()

    def test_single_window_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = int(rng.integers(1, 4))
            heads = int(rng.integers(1, 4))
            d = heads * int(rng.integers(1, 5))
            params = random_params(d, heads, w, rng)
            x = rng.standard_normal((w, w, d)).astype(np.float32)
            got = multi_head_window_attention(x, params)
            want = naive_full_attention(x.reshape(w * w, d), params)
            assert np.max(np.abs(got.reshape(w * w, d) - want)) < 1e-5
        # a 14x14 map of four 7x7 windows, 3 heads, non-zero bias table:
        # each window against the oracle, the whole map bit-for-bit against
        # one attention call per (window, head)
        params = random_params(12, 3, 7, rng)
        assert np.any(params.rel_bias != 0)
        x = rng.standard_normal((14, 14, 12)).astype(np.float32)
        got = multi_head_window_attention(x, params)
        assert got.tobytes() == per_window_head_attention(x, params).tobytes()
        for r in (0, 7):
            for c in (0, 7):
                tile = x[r:r + 7, c:c + 7].reshape(49, 12)
                want = naive_full_attention(tile, params)
                assert np.max(np.abs(
                    got[r:r + 7, c:c + 7].reshape(49, 12) - want)) < 1e-5

    def test_token_permutation_equivariance_with_zero_bias(self):
        rng = np.random.default_rng(7)
        params = random_params(4, 2, 2, rng, zero_bias_table=True)
        x = rng.standard_normal((2, 2, 4)).astype(np.float32)
        tokens = x.reshape(4, 4)
        perm = np.array([2, 0, 3, 1])
        base = multi_head_window_attention(x, params).reshape(4, 4)
        permuted = multi_head_window_attention(
            tokens[perm].reshape(2, 2, 4), params).reshape(4, 4)
        assert np.allclose(permuted, base[perm], atol=1e-6)

    def test_bias_depends_only_on_offset(self):
        rng = np.random.default_rng(8)
        table = rng.standard_normal((2, 25)).astype(np.float32)
        bias = expand_relative_bias(table, 3)
        idx = relative_index_map(3)
        coords = [(i // 3, i % 3) for i in range(9)]
        for head in range(2):
            for i in range(9):
                for j in range(9):
                    for i2 in range(9):
                        for j2 in range(9):
                            same_offset = (
                                coords[i][0] - coords[j][0],
                                coords[i][1] - coords[j][1],
                            ) == (
                                coords[i2][0] - coords[j2][0],
                                coords[i2][1] - coords[j2][1],
                            )
                            if same_offset:
                                assert bias[head, i, j] == bias[head, i2, j2]
        assert idx.max() < table.shape[1]

    def test_rejects_non_divisible_extents(self):
        params = random_params(2, 1, 3, np.random.default_rng(10))
        with pytest.raises(ShapeError):
            multi_head_window_attention(np.zeros((4, 6, 2), np.float32),
                                        params)

    def test_attention_rows_sum_to_one_across_windows_and_heads(self):
        from chromapad.tensor_ops import matmul, softmax_last_axis

        rng = np.random.default_rng(11)
        params = random_params(6, 2, 2, rng)
        x = rng.standard_normal((4, 4, 6)).astype(np.float32)
        wins = window_partition(x, 2)
        bias = params.rel_bias
        q, k, v = qkv_project(wins.reshape(-1, 6), params)
        q = q.reshape(2, 4, 4, 3)
        k = k.reshape(2, 4, 4, 3)
        scale = np.float32(math.sqrt(3))
        for head in range(2):
            for wi in range(4):
                logits = matmul(q[head, wi],
                                np.ascontiguousarray(k[head, wi].T)) / scale
                weights = softmax_last_axis(logits + bias[head])
                sums = weights.astype(np.float64).sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_paper_preset_single_pass_under_five_seconds(self):
        rng = np.random.default_rng(12)
        cfg = ModelConfig.paper()
        params = random_params(cfg.embed_dim, cfg.num_heads, cfg.window, rng)
        x = rng.standard_normal((7, 7, 768)).astype(np.float32)
        start = time.monotonic()
        out = multi_head_window_attention(x, params)
        elapsed = time.monotonic() - start
        assert out.shape == (7, 7, 768)
        assert np.isfinite(out).all()
        assert elapsed < 5.0
