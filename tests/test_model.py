"""End-to-end model tests: build, forward, serialization, ablation."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from chromapad.attention import (
    AttentionParams,
    expand_relative_bias,
    multi_head_window_attention,
)
from chromapad.blocks import (
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
from chromapad.colorspace import ColorImage, ColorSpace, image_to_tensor
from chromapad.errors import ConfigError, ShapeError, SpaceError, WeightFileError
from chromapad.model import (
    AblationRow,
    BackboneBlockSpec,
    Model,
    ModelConfig,
    ablate,
    ablation_csv,
    build_model,
    forward,
    iter_tensor_file,
    load_weights,
    read_tensor_file,
    save_config,
    save_weights,
    scores_from_images,
    standard_ablation_grid,
    tensor_layout,
    write_tensor_file,
)
from chromapad.metrics import ScoreSet, synth_scores
from chromapad.cli import main as cli_main
from chromapad.quant import (QuantizedTensor, QuantParams,
                             compute_quant_params, dequantize_f32, quantize,
                             quantize_model)
from chromapad.colorspace import to_ppm_bytes
from chromapad.tensor_ops import PIECE_BYTES, BatchNormParams


def small_config(**overrides):
    """A tiny configuration that keeps every test fast."""
    defaults = dict(
        input_size=16,
        embed_dim=8,
        num_heads=2,
        window=2,
        pool_factor=2,
        backbone=(BackboneBlockSpec(4, 2), BackboneBlockSpec(8, 2)),
        seed=123,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def hand_bn(w, prefix):
    return BatchNormParams(gamma=w[f"{prefix}.gamma"], beta=w[f"{prefix}.beta"],
                           running_mean=w[f"{prefix}.running_mean"],
                           running_var=w[f"{prefix}.running_var"],
                           epsilon=1e-5)


def hand_backbone(cfg, w, space):
    """The branch backbone assembled by name, independently of the plan."""
    blocks = []
    for i, blk in enumerate(cfg.backbone):
        base = f"branch.{space.value}.backbone.{i}"
        blocks.append(BackboneBlockParams(
            depthwise_weight=w[f"{base}.depthwise_weight"],
            bn_depthwise=hand_bn(w, f"{base}.bn_depthwise"),
            pointwise_weight=w[f"{base}.pointwise_weight"],
            bn_pointwise=hand_bn(w, f"{base}.bn_pointwise"),
            stride=blk.stride,
        ))
    return BackboneParams(blocks=tuple(blocks))


def random_image(size, seed=0):
    rng = np.random.default_rng(seed)
    return ColorImage(width=size, height=size, space=ColorSpace.RGB,
                      pixels=rng.integers(0, 256, (size, size, 3),
                                          dtype=np.uint8))


class TestConfig:
    def test_embed_head_divisibility(self):
        with pytest.raises(ConfigError) as err:
            small_config(embed_dim=65, num_heads=4)
        assert "65" in str(err.value)

    def test_all_violations_listed(self):
        with pytest.raises(ConfigError) as err:
            ModelConfig(branches=(), embed_dim=65, num_heads=4, window=0)
        text = str(err.value)
        assert "branches" in text
        assert "65" in text
        assert "window" in text

    def test_duplicate_branch_rejected(self):
        with pytest.raises(ConfigError):
            small_config(branches=(ColorSpace.RGB, ColorSpace.RGB))

    def test_window_divisibility_of_feature_map(self):
        with pytest.raises(ConfigError):
            small_config(window=3)

    def test_json_round_trip(self):
        cfg = small_config(dq_enabled=True,
                           branches=(ColorSpace.RGB, ColorSpace.YCBCR))
        again = ModelConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg

    def test_json_echoes_input_normalization(self):
        assert small_config().to_json_dict()["input_normalization"] == \
            "divide_by_255"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json_dict({"bogus": 1})

    def test_non_object_rejected(self):
        for data in ([], "desk", 3, None):
            with pytest.raises(ConfigError):
                ModelConfig.from_json_dict(data)

    @pytest.mark.parametrize("entry, message", [
        ([16, 2], "backbone entry 1 must be a JSON object, got list"),
        (16, "backbone entry 1 must be a JSON object, got int"),
        ({"out_channels": 16, "stride": 2, "extra": 1},
         "unknown fields in backbone entry 1: ['extra']"),
        ({"stride": 2}, "backbone entry 1 has no out_channels"),
    ], ids=("list", "int", "unknown_key", "no_out_channels"))
    def test_malformed_backbone_entry_rejected(self, entry, message):
        data = ModelConfig.desk().to_json_dict()
        data["backbone"][1] = entry
        with pytest.raises(ConfigError) as err:
            ModelConfig.from_json_dict(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("path, value", [
        (("input_size",), "112"),
        (("input_size",), 112.0),
        (("embed_dim",), "64"),
        (("window",), True),
        (("attention_enabled",), "false"),
        (("dq_enabled",), 1),
        (("preset",), 3),
        (("seed",), "x"),
        (("seed",), -1),
        (("backbone", 1, "out_channels"), 16.0),
        (("branches",), "RGB"),
        (("backbone",), {"out_channels": 16, "stride": 2}),
    ], ids=lambda v: repr(v))
    def test_wrong_json_value_names_field(self, path, value):
        data = ModelConfig.desk().to_json_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            ModelConfig.from_json_dict(data)
        assert path[-1] in str(err.value)

    def test_seed_zero_and_saved_configs_load_equal(self):
        for cfg in (ModelConfig.desk(seed=0), ModelConfig.paper(seed=7),
                    small_config(residual_enabled=False, preset="x")):
            assert ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_stride_product_must_divide_input(self):
        with pytest.raises(ConfigError) as err:
            small_config(backbone=(BackboneBlockSpec(4, 3),), window=1,
                         pool_factor=1)
        assert "stride 3" in str(err.value)
        cfg = small_config(backbone=(BackboneBlockSpec(4, 1),
                                     BackboneBlockSpec(8, 4)))
        assert cfg.feature_size == 4

    def test_save_config_text_pinned(self, tmp_path):
        path = tmp_path / "desk.json"
        save_config(ModelConfig.desk(), path)
        blocks = ",\n".join(
            f'    {{\n      "out_channels": {c},\n      "stride": 2\n    }}'
            for c in (16, 32, 64))
        assert path.read_text(encoding="utf-8") == (
            '{\n'
            '  "branches": [\n    "RGB",\n    "HSV",\n    "YCbCr"\n  ],\n'
            '  "attention_enabled": true,\n'
            '  "residual_enabled": true,\n'
            '  "dq_enabled": false,\n'
            '  "preset": "desk",\n'
            '  "input_size": 112,\n'
            '  "embed_dim": 64,\n'
            '  "num_heads": 4,\n'
            '  "window": 7,\n'
            '  "pool_factor": 2,\n'
            f'  "backbone": [\n{blocks}\n  ],\n'
            '  "seed": 0,\n'
            '  "input_normalization": "divide_by_255"\n'
            '}\n'
        )

    def test_presets(self):
        desk = ModelConfig.desk()
        paper = ModelConfig.paper()
        assert desk.feature_size == 14 and desk.embed_dim == 64
        assert paper.embed_dim == 768 and paper.num_heads == 24
        assert paper.embed_dim // paper.num_heads == 32
        assert paper.window == 7


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build_model(small_config())
        b = build_model(small_config())
        assert set(a.weights) == set(b.weights)
        for name in a.weights:
            assert a.weights[name].tobytes() == b.weights[name].tobytes()

    def test_different_seed_differs(self):
        a = build_model(small_config(seed=1))
        b = build_model(small_config(seed=2))
        assert any(
            not np.array_equal(a.weights[n], b.weights[n])
            for n in a.weights if n.endswith("weight")
        )

    def test_norm_initialized_to_identity(self):
        m = build_model(small_config())
        assert np.all(m.weights["residual.bn1.gamma"] == 1.0)
        assert np.all(m.weights["residual.bn1.beta"] == 0.0)
        assert np.all(m.weights["residual.bn1.running_mean"] == 0.0)
        assert np.all(m.weights["residual.bn1.running_var"] == 1.0)

    def test_fan_in_bounds(self):
        m = build_model(small_config())
        qkv = m.weights["branch.RGB.attention.qkv_weight"]
        bound = 1.0 / np.sqrt(qkv.shape[1])
        assert np.abs(qkv).max() <= bound

    def test_layout_matches_toggles(self):
        names = {s.name for s in tensor_layout(small_config(
            attention_enabled=False, residual_enabled=False))}
        assert not any("attention" in n for n in names)
        assert not any("residual" in n for n in names)

    def test_dq_build_quantizes_default_policy(self):
        m = build_model(small_config(dq_enabled=True))
        assert isinstance(m.weights["branch.RGB.attention.qkv_weight"],
                          QuantizedTensor)
        assert isinstance(m.weights["residual.conv1_weight"], np.ndarray)


class TestForward:
    def test_zero_classifier_scores_half(self):
        m = build_model(small_config())
        weights = dict(m.weights)
        weights["classifier.weight"] = np.zeros((2, 8), np.float32)
        weights["classifier.bias"] = np.zeros(2, np.float32)
        score, _ = forward(Model(m.config, weights), random_image(16))
        assert score == 0.5

    def test_built_model_is_read_only(self):
        cfg = small_config(dq_enabled=True)
        m = build_model(cfg)
        with pytest.raises(ValueError):
            m.weights["residual.bn1.running_var"][0] = 2.0
        with pytest.raises(ValueError):
            m.weights["fusion.mix_weight"].qdata[0, 0] = 1
        with pytest.raises(TypeError):
            m.weights["classifier.bias"] = np.ones(2, np.float32)
        with pytest.raises(TypeError):
            del m.weights["classifier.bias"]
        # float arrays are shared with the caller, not copied
        weights = dict(m.weights)
        assert Model(cfg, weights).weights["classifier.bias"] is \
            weights["classifier.bias"]

    def test_forward_dequantizes_each_policy_tensor_once(self, monkeypatch):
        import chromapad.model as M

        calls = []

        def counted(qt):
            calls.append(qt)
            return dequantize_f32(qt)

        monkeypatch.setattr(M, "dequantize_f32", counted)
        m = build_model(small_config(dq_enabled=True))
        quantized = [v for v in m.weights.values()
                     if isinstance(v, QuantizedTensor)]
        # built int8, dequantized by no one until a stage runs
        assert len(quantized) > 0 and calls == []
        for seed in range(2):
            forward(m, random_image(16, seed=seed))
            assert sorted(map(id, calls)) == sorted(map(id, quantized))
            calls.clear()

    def test_dequantized_arrays_die_with_their_stage_call(self, monkeypatch):
        import chromapad.model as M

        results, live_at_entry = [], []

        def tracked(qt):
            out = dequantize_f32(qt)
            results.append(weakref.ref(out))
            return out

        def held(value):
            """Ids of the arrays in ``value``, at any depth."""
            if isinstance(value, np.ndarray):
                return {id(value)}
            if dataclasses.is_dataclass(value):
                value = [getattr(value, f.name)
                         for f in dataclasses.fields(value)]
            if isinstance(value, (list, tuple)):
                return set().union(*map(held, value))
            return set()

        def stage(fn):
            def wrapped(*args, **kwargs):
                live = {id(a) for a in (r() for r in results)
                        if a is not None}
                assert live <= held([args, list(kwargs.values())])
                live_at_entry.append(len(live))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(M, "dequantize_f32", tracked)
        for name in ("backbone_forward", "bottleneck_project",
                     "multi_head_window_attention", "fuse_branches",
                     "nested_residual_forward", "classifier_head"):
            monkeypatch.setattr(M, name, stage(getattr(M, name)))
        m = build_model(ModelConfig.desk(dq_enabled=True))
        forward(m, random_image(112))
        # per branch: three pointwise weights, the bottleneck weight, the
        # QKV and output weights; then the fusion, no residual tensor, and
        # the classifier
        assert live_at_entry == [3, 1, 2] * 3 + [1, 0, 1]
        assert len(results) == 20
        assert all(r() is None for r in results)

    def test_score_in_unit_interval_and_deterministic(self):
        m = build_model(small_config())
        img = random_image(16, seed=5)
        s1, _ = forward(m, img)
        s2, _ = forward(m, img)
        assert 0.0 <= s1 <= 1.0
        assert s1 == s2

    def test_probabilities_sum_to_one(self):
        m = build_model(small_config())
        _, debug = forward(m, random_image(16, seed=6), want_debug=True)
        total = float(debug["probabilities"].astype(np.float64).sum())
        assert abs(total - 1.0) < 1e-6

    def test_wrong_size_rejected(self):
        m = build_model(small_config())
        with pytest.raises(ShapeError):
            forward(m, random_image(8))

    def test_wrong_space_rejected(self):
        from chromapad.colorspace import rgb_to_hsv

        m = build_model(small_config())
        with pytest.raises(SpaceError):
            forward(m, rgb_to_hsv(random_image(16)))

    def test_single_branch_matches_hand_assembly(self):
        cfg = small_config(branches=(ColorSpace.RGB,),
                           attention_enabled=False, residual_enabled=False)
        m = build_model(cfg)
        img = random_image(16, seed=7)
        score, _ = forward(m, img)
        # hand-composed pipeline over the same weights
        w = m.weights
        x = image_to_tensor(img)
        feats = backbone_forward(x, hand_backbone(cfg, w, ColorSpace.RGB))
        tokens = bottleneck_project(feats, w["branch.RGB.bottleneck.weight"],
                                    w["branch.RGB.bottleneck.bias"])
        fused = fuse_branches([tokens], w["fusion.mix_weight"],
                              w["fusion.mix_bias"])
        probs = classifier_head(fused, w["classifier.weight"],
                                w["classifier.bias"])
        assert score == float(probs[0])

    def test_single_branch_full_path_matches_hand_assembly(self):
        cfg = small_config(branches=(ColorSpace.RGB,))
        m = build_model(cfg)
        img = random_image(16, seed=17)
        score, _ = forward(m, img)

        w = m.weights
        x = image_to_tensor(img)
        feats = backbone_forward(x, hand_backbone(cfg, w, ColorSpace.RGB))
        tokens = bottleneck_project(feats, w["branch.RGB.bottleneck.weight"],
                                    w["branch.RGB.bottleneck.bias"])
        base = "branch.RGB.attention"
        tokens = multi_head_window_attention(tokens, AttentionParams(
            qkv_weight=w[f"{base}.qkv_weight"],
            qkv_bias=w[f"{base}.qkv_bias"],
            out_weight=w[f"{base}.out_weight"],
            out_bias=w[f"{base}.out_bias"],
            rel_bias=expand_relative_bias(w[f"{base}.rel_bias_table"],
                                          cfg.window),
        ))
        fused = fuse_branches([tokens], w["fusion.mix_weight"],
                              w["fusion.mix_bias"])
        out, _ = nested_residual_forward(fused, NestedResidualParams(
            conv1_weight=w["residual.conv1_weight"],
            bn1=hand_bn(w, "residual.bn1"),
            conv2_weight=w["residual.conv2_weight"],
            bn2=hand_bn(w, "residual.bn2"),
            pool_factor=cfg.pool_factor,
        ))
        probs = classifier_head(out, w["classifier.weight"],
                                w["classifier.bias"])
        assert score == float(probs[0])

    def test_toggles_change_the_path(self):
        img = random_image(16, seed=8)
        base, _ = forward(build_model(small_config()), img)
        no_attn, _ = forward(build_model(small_config(
            attention_enabled=False)), img)
        no_res, _ = forward(build_model(small_config(
            residual_enabled=False)), img)
        assert base != no_attn
        assert base != no_res

    def test_dq_forward_equals_float_forward_with_reconstructed_weights(self):
        cfg_q = small_config(dq_enabled=True)
        quantized = build_model(cfg_q)
        img = random_image(16, seed=9)
        score_q, _ = forward(quantized, img)

        plain = build_model(small_config())
        weights = dict(plain.weights)
        for name, value in quantized.weights.items():
            if isinstance(value, QuantizedTensor):
                weights[name] = dequantize_f32(value)
        score_f, _ = forward(Model(plain.config, weights), img)
        assert score_q == score_f

    def test_debug_traces_present(self):
        m = build_model(small_config())
        _, debug = forward(m, random_image(16), want_debug=True)
        assert set(debug["branches"]) == {"RGB", "HSV", "YCbCr"}
        assert debug["residual_trace"].merged.shape == (8, 4, 4)


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        again = load_weights(path, m.config)
        assert set(again.weights) == set(m.weights)
        for name in m.weights:
            assert again.weights[name].tobytes() == m.weights[name].tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        m = build_model(small_config())
        p1, p2 = tmp_path / "a.cfpa", tmp_path / "b.cfpa"
        save_weights(m, p1)
        save_weights(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_quantized_round_trip(self, tmp_path):
        m = build_model(small_config(dq_enabled=True))
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        again = load_weights(path, m.config)
        name = "branch.RGB.attention.qkv_weight"
        assert isinstance(again.weights[name], QuantizedTensor)
        assert again.weights[name].qdata.tobytes() == \
            m.weights[name].qdata.tobytes()
        assert again.weights[name].params == m.weights[name].params
        img = random_image(16, seed=10)
        assert forward(again, img)[0] == forward(m, img)[0]

    def test_corrupt_magic_rejected(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFileError) as err:
            load_weights(path, m.config)
        assert "magic" in str(err.value)

    def test_truncation_reports_offset(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(WeightFileError) as err:
            read_tensor_file(path)
        assert "offset" in str(err.value)

    def test_cross_config_load_names_offending_tensor(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        wrong = small_config(embed_dim=4, num_heads=2)
        with pytest.raises(WeightFileError) as err:
            load_weights(path, wrong)
        assert "branch" in str(err.value) or "fusion" in str(err.value)

    def test_missing_tensor_named(self, tmp_path):
        m = build_model(small_config(attention_enabled=False))
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        with pytest.raises(WeightFileError) as err:
            load_weights(path, small_config())  # wants attention weights
        assert "attention" in str(err.value)

    def test_non_utf8_name_reports_offset(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        data = bytearray(path.read_bytes())
        data[17] = 0xFF  # second byte of the first tensor name
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFileError) as err:
            read_tensor_file(path)
        assert "UTF-8" in str(err.value)
        assert "byte offset 17" in str(err.value)

    def test_version_field_checked(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        data = bytearray(path.read_bytes())
        data[4] = 9  # version little-endian low byte
        path.write_bytes(bytes(data))
        with pytest.raises(WeightFileError) as err:
            read_tensor_file(path)
        assert "version" in str(err.value)

    def test_float_file_quantizes_under_dq_config(self, tmp_path):
        m = build_model(small_config())
        path = tmp_path / "model.cfpa"
        save_weights(m, path)
        loaded = load_weights(path, small_config(dq_enabled=True))
        assert isinstance(loaded.weights["fusion.mix_weight"], QuantizedTensor)

    def test_every_cut_reports_truncation_offset(self, tmp_path):
        # a float and a quantized tensor: every section of the format
        f = np.arange(6, dtype=np.float32).reshape(2, 3)
        tensors = {"a": f, "b": quantize(f, compute_quant_params(f))}
        path = tmp_path / "full.cfpa"
        write_tensor_file(tensors, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.cfpa"
        for length in range(len(data)):
            cut.write_bytes(data[:length])
            with pytest.raises(WeightFileError, match="truncated while "
                               r"reading .* at byte offset \d+$"):
                read_tensor_file(cut)

    # SHA-256 of the reader's messages below, one a line, in order
    READER_MESSAGES_SHA256 = \
        "eadc4f022988ecf6186f9fdb9d185314ea40298ad26455c0a25fa9252f4bfb91"

    def test_every_reader_message_pinned(self, tmp_path):
        # one float and one quantized tensor: a (2, 3) float32 'a' whose
        # name sits at byte 16, dtype code at 17 and rank at 18, then 'b'
        # with its 16-byte quantization trailer last
        f = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "full.cfpa"
        write_tensor_file({"a": f, "b": quantize(f, compute_quant_params(f))},
                          path)
        data = path.read_bytes()
        files = [data[:length] for length in range(len(data))]
        for at, byte in ((0, b"N"), (4, b"\x09"), (16, b"\xff"),
                         (17, b"\x07"), (18, b"\x00"), (18, b"\x05")):
            files.append(data[:at] + byte + data[at + 1:])
        good = struct.unpack("<fffi", data[-16:])
        for trailer in ((np.nan, *good[1:]), (good[0], np.inf, *good[2:]),
                        (*good[:2], -np.inf, good[3]),
                        (good[1], good[0], *good[2:]), (*good[:2], 0.0, 0)):
            files.append(data[:-16] + struct.pack("<fffi", *trailer))
        head = b"CFPA" + struct.pack("<III", 1, 1, 1) + b"a"
        files += [head + struct.pack("<BBQ", 0, 1, 2**40),
                  head + struct.pack("<BBQ", 1, 1, 2**40),
                  head + struct.pack("<BBQQ", 0, 2, 0, 2**62),
                  head + struct.pack("<BBQQ", 1, 2, 0, 2**63)]
        messages = []
        for content in files:
            path.write_bytes(content)
            with pytest.raises(WeightFileError) as err:
                read_tensor_file(path)
            messages.append(str(err.value))
        digest = hashlib.sha256("\n".join(messages).encode()).hexdigest()
        assert digest == self.READER_MESSAGES_SHA256, "\n".join(messages)

    def test_file_shrunk_while_read_reports_truncation(self, tmp_path):
        path = tmp_path / "shrinks.cfpa"
        write_tensor_file({"a": np.ones(6, np.float32),
                           "b": np.ones((300, 500), np.float32)}, path)
        pairs = iter_tensor_file(path)
        assert next(pairs)[0] == "a"  # the header pass saw the whole file
        os.truncate(path, path.stat().st_size - 1000)
        with pytest.raises(WeightFileError) as err:
            next(pairs)
        assert str(err.value) == \
            "truncated while reading payload of 'b' at byte offset 74"

    def test_huge_claimed_payload_fails_before_allocating(self, tmp_path):
        path = tmp_path / "huge.cfpa"
        path.write_bytes(b"CFPA" + struct.pack("<III", 1, 1, 1) + b"a"
                         + struct.pack("<BBQ", 0, 1, 2**40))
        with pytest.raises(WeightFileError) as err:
            read_tensor_file(path)
        assert str(err.value) == \
            "truncated while reading payload of 'a' at byte offset 27"

    def test_unallocatable_extents_named(self, tmp_path):
        # a zero extent makes the payload 0 bytes, so it passes the size
        # check, but no array spans the other extent
        path = tmp_path / "wide.cfpa"
        path.write_bytes(b"CFPA" + struct.pack("<III", 1, 1, 1) + b"a"
                         + struct.pack("<BBQQ", 0, 2, 0, 2**62))
        with pytest.raises(WeightFileError, match="tensor 'a' has extents"):
            read_tensor_file(path)

    @pytest.mark.parametrize("bad_name, bad_value, error", [
        ("z", QuantizedTensor(np.zeros(3, np.int8),
                              QuantParams(0.0, 1.0, 1.0, 2**31)),
         WeightFileError),
        ("z\ud800", np.zeros(3, np.float32), UnicodeEncodeError),
    ], ids=("zero_point", "name"))
    def test_bad_tensor_leaves_no_file(self, tmp_path, bad_name, bad_value,
                                       error):
        # sorted last, so a writer that checked as it went would have
        # written the good tensor already
        path = tmp_path / "bad.cfpa"
        with pytest.raises(error):
            write_tensor_file({"a": np.ones(4, np.float32),
                               bad_name: bad_value}, path)
        assert not path.exists()

    @pytest.mark.parametrize("value", [
        np.float32(1.0),
        np.zeros((1,) * 5, np.float32),
        QuantizedTensor(np.int8(0), QuantParams(0.0, 1.0, 1.0, 0)),
    ], ids=("float_rank_0", "float_rank_5", "quantized_rank_0"))
    def test_writer_refuses_a_rank_the_reader_refuses(self, tmp_path, value):
        path = tmp_path / "model.cfpa"
        path.write_bytes(b"old")
        rank = np.ndim(getattr(value, "qdata", value))
        with pytest.raises(WeightFileError, match=f"^tensor 'x' has invalid "
                                                  f"rank {rank}$"):
            write_tensor_file({"x": value}, path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["model.cfpa"]

    @pytest.mark.parametrize("field, params", [
        ("f_min", QuantParams(-1e300, 0.0, 1.0, 0)),
        ("f_max", QuantParams(0.0, 1e300, 1e300, 0)),
        ("scale", QuantParams(0.0, 1.0, 1e300, 0)),
        ("zero_point", QuantParams(0.0, 1.0, 1.0, -2**31 - 1)),
    ])
    def test_writer_refuses_params_the_trailer_cannot_hold(
            self, tmp_path, field, params):
        path = tmp_path / "model.cfpa"
        path.write_bytes(b"old")
        kind = "int32" if field == "zero_point" else "float32"
        with pytest.raises(WeightFileError, match=f"^{field} .* of tensor "
                                                  f"'x' does not fit in {kind}$"):
            write_tensor_file({"x": QuantizedTensor(np.zeros(2, np.int8),
                                                    params)}, path)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["model.cfpa"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["f_min", "f_max", "scale"])
    def test_non_finite_quant_params_named(self, tmp_path, field, value):
        cfg = small_config(dq_enabled=True)
        path = tmp_path / "model.cfpa"
        save_weights(build_model(cfg), path)
        name = "fusion.mix_weight"
        p = read_tensor_file(path)[name].params
        trailer = dataclasses.astuple(p)
        data = path.read_bytes()
        packed = struct.pack("<fffi", *trailer)
        assert data.count(packed) == 1
        at = ("f_min", "f_max", "scale").index(field)
        path.write_bytes(data.replace(packed, struct.pack(
            "<fffi", *trailer[:at], value, *trailer[at + 1:])))
        with pytest.raises(WeightFileError,
                           match=f"^tensor '{name}': {field} must be finite, "
                                 f"got {value}$"):
            load_weights(path, cfg)

    @staticmethod
    def entry(tmp_path, name, value):
        """The bytes of one tensor's entry in a CFPA file."""
        path = tmp_path / "one.cfpa"
        write_tensor_file({name: value}, path)
        return path.read_bytes()[12:]

    def test_repeated_name_keeps_last_tensor(self, tmp_path, capsys):
        first = np.arange(6, dtype=np.float32).reshape(2, 3)
        last = -first
        other = quantize(first, compute_quant_params(first))
        path = tmp_path / "repeated.cfpa"
        path.write_bytes(b"CFPA" + struct.pack("<II", 1, 3)
                         + self.entry(tmp_path, "b", first)
                         + self.entry(tmp_path, "a", other)
                         + self.entry(tmp_path, "b", last))
        tensors = read_tensor_file(path)
        assert list(tensors) == ["a", "b"]
        assert tensors["b"].tobytes() == last.tobytes()
        assert tensors["a"].qdata.tobytes() == other.qdata.tobytes()
        # chromapad quantize gives the bytes of the mapping it read
        out, want = tmp_path / "out.cfpa", tmp_path / "want.cfpa"
        assert cli_main(["quantize", "--weights", str(path), "--out",
                         str(out), "--policy", "*"]) == 0
        quantized, report = quantize_model(tensors, "*")
        write_tensor_file(quantized, want)
        assert out.read_bytes() == want.read_bytes()
        assert capsys.readouterr().out == \
            json.dumps(report.to_json_dict()) + "\n"

    def test_repeated_name_checks_every_entry(self, tmp_path):
        f = np.ones(3, np.float32)
        bad = bytearray(self.entry(tmp_path, "b", f))
        bad[4 + 1] = 7  # the dtype code after the 4-byte length and "b"
        path = tmp_path / "repeated.cfpa"
        path.write_bytes(b"CFPA" + struct.pack("<II", 1, 2) + bytes(bad)
                         + self.entry(tmp_path, "b", f))
        with pytest.raises(WeightFileError,
                           match="tensor 'b' has unknown dtype code 7"):
            read_tensor_file(path)

    def test_writer_leaves_only_the_target(self, tmp_path):
        good = {"a": np.ones(4, np.float32)}
        path = tmp_path / "model.cfpa"
        write_tensor_file(good, path)
        assert os.listdir(tmp_path) == ["model.cfpa"]
        assert read_tensor_file(path)["a"].tobytes() == good["a"].tobytes()

    def test_fifo_loads_as_file(self, tmp_path):
        cfg = small_config(dq_enabled=True)
        path = tmp_path / "model.cfpa"
        save_weights(build_model(cfg), path)
        fifo = tmp_path / "model.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        piped = load_weights(fifo, cfg)
        writer.join(timeout=10)
        assert not writer.is_alive()
        again = load_weights(path, cfg)
        assert list(piped.weights) == list(again.weights)
        for name, value in again.weights.items():
            if isinstance(value, QuantizedTensor):
                assert piped.weights[name].params == value.params
                value = value.qdata
                assert piped.weights[name].qdata.tobytes() == value.tobytes()
            else:
                assert piped.weights[name].tobytes() == value.tobytes()


class TestWeightMemory:
    """Weights move between file and arrays without whole-model copies."""

    # its residual weights span several draw pieces
    CONFIG = ModelConfig.desk(embed_dim=192, num_heads=4)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_allocates_model_plus_one_piece(self):
        build_model(self.CONFIG)  # one-time allocations of a first draw
        model, peak = self.traced_peak(lambda: build_model(self.CONFIG))
        assert max(w.size for w in model.weights.values()) > \
            4 * (PIECE_BYTES // 8)
        model_bytes = sum(w.nbytes for w in model.weights.values())
        # one float64 piece, plus 64 KiB for the layer plan and dicts
        assert peak <= model_bytes + PIECE_BYTES + (64 << 10)

    def test_finiteness_check_copies_no_tensor(self):
        built = build_model(self.CONFIG)
        _, peak = self.traced_peak(
            lambda: Model(config=self.CONFIG, weights=dict(built.weights)))
        # less than a bool copy of the largest tensor
        assert peak < max(w.size for w in built.weights.values())

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_value_names_tensor(self, bad):
        weights = dict(build_model(self.CONFIG).weights)
        name = "residual.conv1_weight"
        weights[name] = arr = weights[name].copy()
        arr.flat[arr.size // 2] = bad
        with pytest.raises(WeightFileError,
                           match=f"tensor '{name}' holds non-finite"):
            Model(config=self.CONFIG, weights=weights)

    def test_write_allocates_under_one_mib(self, tmp_path):
        model = build_model(self.CONFIG)
        _, peak = self.traced_peak(
            lambda: save_weights(model, tmp_path / "model.cfpa"))
        assert peak < 1 << 20

    def test_quantize_holds_one_tensor_at_a_time(self, tmp_path):
        src, out = tmp_path / "model.cfpa", tmp_path / "int8.cfpa"
        save_weights(build_model(self.CONFIG), src)
        argv = ["quantize", "--weights", str(src), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()) as report:
            rc, peak = self.traced_peak(lambda: cli_main(argv))
        assert rc == 0
        # one tensor's float32 values, plus its int8 codes and float64
        # error buffer where it quantizes
        one = max((4 + 1 + 8) * row["elements"] if row["quantized"]
                  else 4 * row["elements"]
                  for row in json.loads(report.getvalue())["tensors"])
        assert 4 * sum(int(np.prod(s.shape)) for s in
                       tensor_layout(self.CONFIG)) > one + (1 << 20)
        assert peak <= one + (1 << 20)

    def test_dq_model_holds_int8_codes(self, tmp_path):
        cfg = replace(self.CONFIG, dq_enabled=True)
        path = tmp_path / "int8.cfpa"
        save_weights(build_model(cfg), path)
        tracemalloc.start()
        try:
            model = load_weights(path, cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        codes = [v for v in model.weights.values()
                 if isinstance(v, QuantizedTensor)]
        floats = [v for v in model.weights.values()
                  if not isinstance(v, QuantizedTensor)]
        assert sum(4 * q.qdata.size for q in codes) > 1 << 20
        assert held <= sum(q.qdata.nbytes for q in codes) \
            + sum(f.nbytes for f in floats) + (1 << 20)

    def test_oversized_config_refused_before_allocating(self, monkeypatch):
        import chromapad.model as M

        need = 4 * sum(int(np.prod(s.shape))
                       for s in tensor_layout(self.CONFIG))
        monkeypatch.setattr(M, "_physical_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"needs {need} bytes .* "
                               f"host's {need - 1} bytes of physical memory"):
                build_model(self.CONFIG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16  # the layer plan, no tensor
        monkeypatch.setattr(M, "_physical_memory", lambda: need)
        build_model(self.CONFIG)

    def test_physical_memory_known_here(self):
        import chromapad.model as M

        have = M._physical_memory()
        assert have is None or have > 0

    def test_load_allocates_model_plus_one_mib(self, tmp_path):
        path = tmp_path / "model.cfpa"
        save_weights(build_model(self.CONFIG), path)
        model, peak = self.traced_peak(lambda: load_weights(path, self.CONFIG))
        assert max(w.nbytes for w in model.weights.values()) > 1 << 20
        assert peak <= sum(w.nbytes for w in model.weights.values()) \
            + (1 << 20)

    @pytest.mark.parametrize("dq", (False, True))
    def test_weights_held_input_major(self, tmp_path, dq):
        cfg = replace(self.CONFIG, dq_enabled=dq)
        path = tmp_path / "model.cfpa"
        built = build_model(cfg)
        save_weights(built, path)
        for model in (built, load_weights(path, cfg)):
            for name, w in model.weights.items():
                codes = w.qdata if isinstance(w, QuantizedTensor) else w
                # the (inputs, outputs) transpose is the contiguous array
                assert np.moveaxis(codes, 0, -1).flags.c_contiguous, name
                assert codes.shape == w.shape

    @pytest.mark.parametrize("dq", (False, True))
    def test_load_then_save_is_byte_identical(self, tmp_path, dq):
        cfg = replace(self.CONFIG, dq_enabled=dq)
        src, again = tmp_path / "model.cfpa", tmp_path / "again.cfpa"
        save_weights(build_model(cfg), src)
        save_weights(load_weights(src, cfg), again)
        assert again.read_bytes() == src.read_bytes()
        # the same values in C order write the same bytes
        c_order = tmp_path / "c_order.cfpa"
        write_tensor_file({
            name: QuantizedTensor(np.ascontiguousarray(w.qdata), w.params)
            if isinstance(w, QuantizedTensor) else np.ascontiguousarray(w)
            for name, w in read_tensor_file(src).items()}, c_order)
        assert c_order.read_bytes() == src.read_bytes()

    def test_any_layout_writes_row_major_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        # rows longer than one write piece are split within the row
        values = {"conv": rng.standard_normal((40, 24, 3, 3)),
                  "long_rows": rng.standard_normal((3, PIECE_BYTES // 2 + 5)),
                  "matrix": rng.standard_normal((70, 50))}
        values = {k: v.astype(np.float32) for k, v in values.items()}
        write_tensor_file(values, tmp_path / "c_order.cfpa")
        want = (tmp_path / "c_order.cfpa").read_bytes()
        wide = {k: np.zeros((v.shape[0], 2 * v[0].size), np.float32)
                for k, v in values.items()}
        for k, v in values.items():
            wide[k][:, ::2] = v.reshape(v.shape[0], -1)
        layouts = {
            "input_major": {k: np.moveaxis(np.ascontiguousarray(
                np.moveaxis(v, 0, -1)), -1, 0) for k, v in values.items()},
            "fortran": {k: np.asfortranarray(v) for k, v in values.items()},
            "every_other": {k: wide[k][:, ::2].reshape(v.shape)
                            if v.ndim == 2 else v for k, v in values.items()},
        }
        for name, tensors in layouts.items():
            path = tmp_path / f"{name}.cfpa"
            write_tensor_file(tensors, path)
            assert path.read_bytes() == want, name
        for k, v in read_tensor_file(tmp_path / "c_order.cfpa").items():
            assert v.tobytes() == values[k].tobytes()

    def test_read_allocates_payload_plus_one_mib(self, tmp_path):
        path = tmp_path / "model.cfpa"
        save_weights(build_model(self.CONFIG), path)
        tensors, peak = self.traced_peak(lambda: read_tensor_file(path))
        assert peak <= sum(t.nbytes for t in tensors.values()) + (1 << 20)


class TestAblation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            ablate([])

    def test_single_row(self):
        scores = synth_scores(1.0, 0.0, 0.5, 50, seed=1)
        rows = ablate([(small_config(), scores)])
        assert len(rows) == 1
        assert set(rows[0].bpcer) == {0.05, 0.10}

    def test_standard_grid_structure(self):
        grid = standard_ablation_grid(small_config())
        assert len(grid) == 7
        scores = [synth_scores(1.0, 0.0, 0.5, 40, seed=i)
                  for i in range(7)]
        rows = ablate(list(zip(grid, scores)))
        text = ablation_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ("rgb,hsv,ycbcr,bottleneck_attention,"
                            "residual_block,dq,bpcer_at_apcer_5pct,"
                            "bpcer_at_apcer_10pct")
        toggles = [",".join(line.split(",")[:6]) for line in lines[1:]]
        assert toggles == [
            "✓,x,x,✓,✓,x",
            "✓,✓,x,✓,✓,x",
            "✓,x,✓,✓,✓,x",
            "✓,✓,✓,✓,x,x",
            "✓,✓,✓,x,✓,x",
            "✓,✓,✓,✓,✓,x",
            "✓,✓,✓,✓,✓,✓",
        ]

    def test_metric_cells_are_percentages(self):
        scores = ScoreSet(bonafide=[0.9, 0.8, 0.7], attack=[0.1, 0.2, 0.3])
        rows = ablate([(small_config(), scores)])
        line = ablation_csv(rows).strip().split("\n")[1]
        assert line.endswith("0.00,0.00")  # perfectly separated

    def test_caps_sharing_a_column_rejected(self):
        rows = [AblationRow(config=small_config(),
                            bpcer={0.05: 0.1, 0.051: 0.2})]
        with pytest.raises(ConfigError, match=r"0\.05 and 0\.051.*5pct"):
            ablation_csv(rows)


def test_paper_dq_forward_copies_no_large_operand(tmp_path, monkeypatch):
    # weights are held input-major and large products with m > n swap, so
    # every operand that `batched_matmul` would copy (one not C-contiguous)
    # is a small activation; a model holding weights in C order copies the
    # transposed QKV and output projections, 28.3 MB per paper image
    import chromapad.tensor_ops as T

    cfg = ModelConfig.paper(dq_enabled=True)
    path = tmp_path / "paper_int8.cfpa"
    save_weights(build_model(cfg), path)
    model = load_weights(path, cfg)
    copied = []
    real_contract = T._contract

    def contract(a_t, b, out):
        if not b.flags.c_contiguous:
            copied.append(b.nbytes)
        return real_contract(a_t, b, out)

    monkeypatch.setattr(T, "_contract", contract)
    forward(model, random_image(cfg.input_size, seed=31))
    assert copied and max(copied) <= 1 << 20


@pytest.mark.parametrize("dq", (False, True), ids=("float", "dq"))
def test_forward_uses_constants_made_when_built(tmp_path, monkeypatch, dq):
    # each attention layer's expanded bias and each batch norm's scale (the
    # forward's only square root) are made when a model is built or loaded;
    # a forward makes neither
    import chromapad.attention as A
    import chromapad.model as M
    from chromapad.plan import layer_plan

    calls = []

    def counted(what, fn):
        def run(*args, **kwargs):
            calls.append(what)
            return fn(*args, **kwargs)
        return run

    cfg = ModelConfig.desk(dq_enabled=dq)
    build_model(cfg)  # a first build imports modules that take square roots
    expand = counted("expand", A.expand_relative_bias)
    monkeypatch.setattr(A, "expand_relative_bias", expand)
    monkeypatch.setattr(M, "expand_relative_bias", expand)
    monkeypatch.setattr(np, "sqrt", counted("sqrt", np.sqrt))
    plan = layer_plan(cfg)
    made = sorted(["expand"] * sum(len(b.attention) for b in plan.branches)
                  + ["sqrt"] * sum(layer.norm for layer in plan.layers))
    path = tmp_path / "model.cfpa"
    models = [build_model(cfg)]
    save_weights(models[0], path)
    assert sorted(calls) == made
    calls.clear()
    models.append(load_weights(path, cfg))
    assert sorted(calls) == made
    scores = []
    for model in models:
        calls.clear()
        scores.append(forward(model, random_image(cfg.input_size, 33))[0])
        assert calls == []
    assert scores[0] == scores[1]
    # a table the file holds is still checked before it expands
    weights = dict(models[0].weights)
    name = plan.branches[0].attention[0].specs[-1].name
    weights[name] = np.full(weights[name].shape, np.nan, np.float32)
    write_tensor_file(weights, path)
    with pytest.raises(WeightFileError,
                       match=f"^tensor '{name}' holds non-finite values$"):
        load_weights(path, cfg)


class TestScoresFromImages:
    def test_runs_and_is_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            img = random_image(16, seed=20 + i)
            p = tmp_path / f"img{i}.ppm"
            p.write_bytes(to_ppm_bytes(img))
            paths.append(p)
        s1 = scores_from_images(small_config(), paths[:1], paths[1:])
        s2 = scores_from_images(small_config(), paths[:1], paths[1:])
        assert np.array_equal(s1.bonafide, s2.bonafide)
        assert np.array_equal(s1.attack, s2.attack)


def _bn():
    return BatchNormParams.identity(2)


def _block():
    return BackboneBlockParams(np.ones((2, 1, 3, 3), np.float32), _bn(),
                               np.ones((2, 2, 1, 1), np.float32), _bn())


_ARRAY_HOLDERS = {
    "Model": lambda: build_model(small_config()),
    "AttentionParams": lambda: AttentionParams(*(
        np.zeros(shape, np.float32)
        for shape in ((6, 2), (6,), (2, 2), (2,), (1, 4, 4)))),
    "BackboneBlockParams": _block,
    "BackboneParams": lambda: BackboneParams((_block(),)),
    "NestedResidualParams": lambda: NestedResidualParams(
        np.ones((2, 2, 3, 3), np.float32), _bn(),
        np.ones((2, 2, 3, 3), np.float32), _bn()),
    "NestedResidualTrace": lambda: NestedResidualTrace(
        *(np.zeros(2, np.float32) for _ in range(5))),
    "BatchNormParams": _bn,
    "QuantizedTensor": lambda: QuantizedTensor(
        np.zeros(3, np.int8), compute_quant_params(np.arange(3.0))),
    "ColorImage": lambda: random_image(4),
    "ScoreSet": lambda: ScoreSet([0.9, 0.8], [0.1]),
}


@pytest.mark.parametrize("make", _ARRAY_HOLDERS.values(),
                         ids=_ARRAY_HOLDERS.keys())
def test_array_holders_compare_by_identity(make):
    # equal contents, yet each is only equal to itself and hashes
    a, b = make(), make()
    assert (a == b) is False
    assert a == a
    assert len({a, b}) == 2
