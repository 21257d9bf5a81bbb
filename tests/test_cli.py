"""CLI contract tests: thin-wrapper equality, exit codes, determinism."""

import json
import math
import os
import struct
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from chromapad import metrics
from chromapad.cli import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from chromapad.colorspace import ColorImage, ColorSpace, to_ppm_bytes
from chromapad.complexity import model_complexity
from chromapad.metrics import (
    det_curve,
    evaluate_scores,
    read_scores_csv,
    synth_scores,
    write_det_csv,
    write_scores_csv,
)
from chromapad.model import (
    ModelConfig,
    build_model,
    read_tensor_file,
    save_config,
    save_weights,
    write_tensor_file,
)
from chromapad.quant import QuantizedTensor, QuantParams, quantize_model


@pytest.fixture
def workspace(tmp_path):
    cfg = ModelConfig(
        input_size=16, embed_dim=8, num_heads=2, window=2, pool_factor=2,
        backbone=[{"out_channels": 4, "stride": 2},
                  {"out_channels": 8, "stride": 2}], seed=5,
    )
    cfg_path = tmp_path / "config.json"
    save_config(cfg, cfg_path)
    weights_path = tmp_path / "model.cfpa"
    save_weights(build_model(cfg), weights_path)
    rng = np.random.default_rng(3)
    images = []
    for i in range(3):
        img = ColorImage(width=16, height=16, space=ColorSpace.RGB,
                         pixels=rng.integers(0, 256, (16, 16, 3),
                                             dtype=np.uint8))
        p = tmp_path / f"img{i}.ppm"
        p.write_bytes(to_ppm_bytes(img))
        images.append(p)
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text(
        write_scores_csv(synth_scores(1.0, 0.0, 0.5, 200, seed=11)),
        encoding="utf-8",
    )
    return {
        "dir": tmp_path, "config": cfg_path, "weights": weights_path,
        "images": images, "scores": scores_path, "cfg": cfg,
    }


class TestInfer:
    def test_single_image_single_row(self, workspace, capsys):
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(workspace["weights"]),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        rows = out.strip().split("\n")
        assert len(rows) == 1
        path, score = rows[0].rsplit(",", 1)
        assert path == str(workspace["images"][0])
        assert 0.0 <= float(score) <= 1.0
        # thin wrapper: byte-equal to the library call's serialization
        from chromapad.model import forward_ppm, load_weights

        model = load_weights(workspace["weights"], workspace["cfg"])
        want = forward_ppm(model, workspace["images"][0].read_bytes())
        assert out == f"{workspace['images'][0]},{want:.10g}\n"

    def test_missing_image_exits_3(self, workspace, capsys):
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(workspace["weights"]),
                   "--image", str(workspace["dir"] / "ghost.ppm")])
        assert rc == EXIT_IO

    def test_rows_follow_argument_order(self, workspace, capsys):
        images = [str(p) for p in workspace["images"]]
        args = ["infer", "--config", str(workspace["config"]),
                "--weights", str(workspace["weights"])]
        for p in reversed(images):
            args += ["--image", p]
        assert main(args) == EXIT_OK
        out = capsys.readouterr().out.strip().split("\n")
        assert [r.rsplit(",", 1)[0] for r in out] == list(reversed(images))

    def test_missing_weights_exits_3(self, workspace, capsys):
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(workspace["dir"] / "nope.cfpa"),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_IO
        assert capsys.readouterr().err != ""

    def test_corrupt_weights_exits_2(self, workspace, capsys):
        bad = workspace["dir"] / "bad.cfpa"
        bad.write_bytes(b"JUNKJUNKJUNK")
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(bad),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_DATA

    def test_non_utf8_tensor_name_exits_2(self, workspace, capsys):
        bad = workspace["dir"] / "bad_name.cfpa"
        data = bytearray(workspace["weights"].read_bytes())
        data[16] = 0xFF  # first byte of the first tensor name
        bad.write_bytes(bytes(data))
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(bad),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_DATA
        assert "byte offset 16" in capsys.readouterr().err
        rc = main(["quantize", "--weights", str(bad),
                   "--out", str(workspace["dir"] / "out.cfpa")])
        assert rc == EXIT_DATA
        assert "byte offset 16" in capsys.readouterr().err

    @pytest.mark.parametrize("dq, name, value", [
        (False, "residual.bn1.running_var", np.nan),
        (True, "fusion.mix_weight", np.inf),
    ], ids=("float_payload", "float_payload_quantized_at_load"))
    def test_non_finite_float_weight_exits_2(self, workspace, capsys, dq,
                                             name, value):
        tensors = read_tensor_file(workspace["weights"])
        tensors[name][0] = value
        bad = workspace["dir"] / "bad.cfpa"
        write_tensor_file(tensors, bad)
        config = workspace["dir"] / "run.json"
        save_config(replace(workspace["cfg"], dq_enabled=dq), config)
        rc = main(["infer", "--config", str(config), "--weights", str(bad),
                   "--image", str(workspace["images"][0])])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert repr(name) in captured.err and captured.out == ""

    @pytest.mark.parametrize("param, value", [
        ("f_min", float("nan")), ("f_max", float("nan")),
        ("scale", float("inf")),
    ])
    def test_non_finite_quant_params_exit_2(self, workspace, capsys, param,
                                            value):
        tensors, _ = quantize_model(read_tensor_file(workspace["weights"]))
        name = "fusion.mix_weight"
        qt = tensors[name]
        tensors[name] = QuantizedTensor(
            qdata=qt.qdata, params=replace(qt.params, **{param: value}))
        bad = workspace["dir"] / "bad.cfpa"
        write_tensor_file(tensors, bad)
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(bad),
                   "--image", str(workspace["images"][0])])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert repr(name) in captured.err and captured.out == ""

    def test_dequantized_overflow_exits_2_with_one_message(self, workspace,
                                                           capsys):
        # finite codes and parameters whose float32 values overflow:
        # (127 + 128) * 3e36 exceeds the largest float32
        tensors, _ = quantize_model(read_tensor_file(workspace["weights"]))
        name = "fusion.mix_weight"
        tensors[name] = QuantizedTensor(
            qdata=np.full(tensors[name].shape, 127, np.int8),
            params=QuantParams(f_min=0.0, f_max=1.0, scale=3e36,
                               zero_point=0))
        bad = workspace["dir"] / "bad.cfpa"
        write_tensor_file(tensors, bad)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["infer", "--config", str(workspace["config"]),
                       "--weights", str(bad),
                       "--image", str(workspace["images"][0])])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert [str(w.message) for w in caught] == []
        assert captured.err == (f"chromapad infer: tensor {name!r} holds "
                                f"non-finite values\n")
        assert captured.out == ""

    def infer_rejects(self, workspace, capsys, weights, what):
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(weights),
                   "--image", str(workspace["images"][0])])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert what in captured.err and captured.out == ""

    def test_negative_running_var_exits_2(self, workspace, capsys):
        name = "residual.bn1.running_var"
        tensors = read_tensor_file(workspace["weights"])
        tensors[name][0] = -1.0
        bad = workspace["dir"] / "bad.cfpa"
        write_tensor_file(tensors, bad)
        self.infer_rejects(workspace, capsys, bad, repr(name))

    def test_inverted_quant_range_exits_2(self, workspace, capsys):
        name = "fusion.mix_weight"
        tensors, _ = quantize_model(read_tensor_file(workspace["weights"]))
        p = tensors[name].params
        good = workspace["dir"] / "good.cfpa"
        write_tensor_file(tensors, good)
        packed = struct.pack("<fffi", p.f_min, p.f_max, p.scale, p.zero_point)
        data = good.read_bytes()
        assert data.count(packed) == 1
        bad = workspace["dir"] / "bad.cfpa"
        bad.write_bytes(data.replace(packed, struct.pack(
            "<fffi", p.f_max + 1, p.f_max, p.scale, p.zero_point)))
        self.infer_rejects(workspace, capsys, bad, repr(name))
        rc = main(["quantize", "--weights", str(bad),
                   "--out", str(workspace["dir"] / "out.cfpa")])
        assert rc == EXIT_DATA
        assert repr(name) in capsys.readouterr().err

    def test_oversized_ppm_header_integer_exits_2(self, workspace, capsys):
        image = workspace["dir"] / "wide.ppm"
        image.write_bytes(b"P6 " + b"9" * 5000 + b" 16 255\n")
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(workspace["weights"]),
                   "--image", str(image)])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert "width" in captured.err and "byte offset 3" in captured.err

    @pytest.mark.parametrize("count", [1, 2], ids=("one_image", "two_images"))
    def test_overflowing_forward_exits_2_without_a_nan_row(self, workspace,
                                                           capsys, count):
        # finite weights whose products overflow float32: the attention
        # logits reach inf and the softmax NaN, so the image has no score;
        # with two images and two CPUs the second is scored in a forked share
        tensors = read_tensor_file(workspace["weights"])
        tensors["branch.RGB.attention.qkv_weight"][...] = 3e38
        bad = workspace["dir"] / "bad.cfpa"
        write_tensor_file(tensors, bad)
        image = str(workspace["images"][0])
        out = workspace["dir"] / "out.csv"
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(bad), "--out", str(out),
                   *["--image", image] * count])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert captured.err == (f"chromapad infer: {image}: bona fide "
                                f"probability is nan: the forward pass "
                                f"overflowed float32\n")
        assert captured.out == "" and not out.exists()

    def test_image_error_names_the_image(self, workspace, capsys):
        from chromapad.errors import ShapeError
        from chromapad.model import load_weights, score_ppm_file

        small = workspace["dir"] / "small.ppm"
        small.write_bytes(to_ppm_bytes(ColorImage(
            width=8, height=8, space=ColorSpace.RGB,
            pixels=np.zeros((8, 8, 3), np.uint8))))
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(workspace["weights"]),
                   "--image", str(workspace["images"][0]),
                   "--image", str(small)])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert captured.err == (f"chromapad infer: {small}: image is 8x8, "
                                f"config wants 16x16\n")
        assert captured.out == ""
        # the error keeps its class
        model = load_weights(workspace["weights"], workspace["cfg"])
        with pytest.raises(ShapeError, match=f"^{small}: image is 8x8"):
            score_ppm_file(model, small)

    def test_repeated_run_byte_identical(self, workspace):
        out1 = workspace["dir"] / "a.csv"
        out2 = workspace["dir"] / "b.csv"
        base = ["infer", "--config", str(workspace["config"]),
                "--weights", str(workspace["weights"]),
                "--image", str(workspace["images"][0]),
                "--image", str(workspace["images"][1])]
        assert main(base + ["--out", str(out1)]) == EXIT_OK
        assert main(base + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestEval:
    def test_matches_library_serialization(self, workspace, capsys):
        rc = main(["eval", "--scores", str(workspace["scores"])])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        scores = read_scores_csv(workspace["scores"].read_text("utf-8"))
        want = json.dumps(evaluate_scores(scores, (0.05, 0.10))) + "\n"
        assert out == want

    def test_custom_alphas(self, workspace, capsys):
        rc = main(["eval", "--scores", str(workspace["scores"]),
                   "--apcer", "0.2"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["bpcer_at"]) == {"0.2"}

    def test_det_export(self, workspace, capsys):
        det_path = workspace["dir"] / "det.csv"
        rc = main(["eval", "--scores", str(workspace["scores"]),
                   "--det", str(det_path)])
        assert rc == EXIT_OK
        lines = det_path.read_text("utf-8").strip().split("\n")
        scores = read_scores_csv(workspace["scores"].read_text("utf-8"))
        assert lines[0] == "threshold,apcer,bpcer"
        assert len(lines) == 1 + len(det_curve(scores))
        assert det_path.read_text("utf-8") == write_det_csv(det_curve(scores))

    def test_report_and_det_export_share_one_sweep(self, workspace,
                                                   monkeypatch):
        calls = []
        sweep = metrics._sweep
        monkeypatch.setattr(metrics, "_sweep",
                            lambda s: calls.append(s) or sweep(s))
        rc = main(["eval", "--scores", str(workspace["scores"]),
                   "--apcer", "0.05", "--apcer", "0.2",
                   "--det", str(workspace["dir"] / "det.csv"),
                   "--out", str(workspace["dir"] / "report.json")])
        assert rc == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("rows, n_unique", [
        ("bonafide,0\nattack,1e20\n", 2),
        ("bonafide,-1e17\nbonafide,0.7\nattack,0.2\n", 3),
        ("bonafide,0.9\nattack,0.1\nbonafide,8.988465674311579e307\n", 3),
    ], ids=("attack_1e20", "bonafide_minus_1e17", "bonafide_below_2_1023"))
    def test_huge_scores_keep_sentinels_distinct(self, workspace, capsys,
                                                 rows, n_unique):
        # a sentinel 1.0 beyond a score of magnitude >= 2**53 rounds back
        # onto it; the sweep must still span (1, 0) to (0, 1), and every
        # printed threshold must read back finite
        path = workspace["dir"] / "huge.csv"
        path.write_text("label,score\n" + rows, encoding="utf-8")
        det_path = workspace["dir"] / "huge_det.csv"
        assert main(["eval", "--scores", str(path), "--det",
                     str(det_path)]) == EXIT_OK
        table = [[float(v) for v in line.split(",")]
                 for line in det_path.read_text("utf-8").split("\n")[1:-1]]
        assert len(table) == n_unique + 2
        thresholds = [row[0] for row in table]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert all(map(math.isfinite, thresholds))
        assert table[0][1:] == [1.0, 0.0] and table[-1][1:] == [0.0, 1.0]

    def test_score_of_magnitude_2_1023_exits_2_naming_line(self, workspace,
                                                            capsys):
        # its DET sentinel would overflow to -inf, and the report would
        # print a threshold of -Infinity, which is not JSON
        path = workspace["dir"] / "overflow.csv"
        path.write_text("label,score\nbonafide,0.5\nbonafide,-1.7e308\n"
                        "attack,-1.7e308\n", encoding="utf-8")
        det_path = workspace["dir"] / "overflow_det.csv"
        rc = main(["eval", "--scores", str(path), "--det", str(det_path)])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert captured.err == ("chromapad eval: score magnitude reaches "
                                "2**1023: '-1.7e308' (line 3)\n")
        assert captured.out == "" and not det_path.exists()

    def test_apcer_caps_that_print_alike_exit_2(self, workspace, capsys):
        rc = main(["eval", "--scores", str(workspace["scores"]),
                   "--apcer", "0.1", "--apcer", "0.1000001"])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert captured.err == ("chromapad eval: APCER caps 0.1 and "
                                "0.1000001 both render as key 0.1\n")
        assert captured.out == ""

    def test_perfectly_separated_eer_zero(self, workspace, capsys):
        path = workspace["dir"] / "sep.csv"
        path.write_text("label,score\nbonafide,0.9\nbonafide,0.8\n"
                        "attack,0.1\nattack,0.2\n", encoding="utf-8")
        assert main(["eval", "--scores", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["eer"] == 0.0

    def test_malformed_csv_exits_2_with_line(self, workspace, capsys):
        path = workspace["dir"] / "bad.csv"
        path.write_text("label,score\nbonafide,zzz\n", encoding="utf-8")
        assert main(["eval", "--scores", str(path)]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_empty_attack_column_exits_2(self, workspace, capsys):
        path = workspace["dir"] / "noattack.csv"
        path.write_text("label,score\nbonafide,0.5\n", encoding="utf-8")
        assert main(["eval", "--scores", str(path)]) == EXIT_DATA


class TestQuantize:
    def test_round_trip_load_and_report(self, workspace, capsys):
        out_path = workspace["dir"] / "quant.cfpa"
        rc = main(["quantize", "--weights", str(workspace["weights"]),
                   "--out", str(out_path)])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["total_bytes_after"] < report["total_bytes_before"]
        rc = main(["infer", "--config", str(workspace["config"]),
                   "--weights", str(out_path),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_OK

    def test_constant_tensor_reported_with_zero_error(self, workspace, capsys):
        from chromapad.model import write_tensor_file

        path = workspace["dir"] / "const.cfpa"
        write_tensor_file(
            {"classifier.weight": np.full((2, 4), 1.5, np.float32)}, path)
        out_path = workspace["dir"] / "const_quant.cfpa"
        assert main(["quantize", "--weights", str(path),
                     "--out", str(out_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        row = report["tensors"][0]
        assert row["quantized"]
        assert row["max_abs_error"] == 0.0
        assert row["mean_abs_error"] == 0.0

    def test_byte_savings_accounting(self, workspace, capsys):
        out_path = workspace["dir"] / "quant.cfpa"
        assert main(["quantize", "--weights", str(workspace["weights"]),
                     "--out", str(out_path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        for row in report["tensors"]:
            if row["quantized"]:
                assert row["bytes_before"] == 4 * row["elements"]
                assert row["bytes_after"] == row["elements"] + 16

    def test_unallocatable_extents_exit_2(self, workspace, capsys):
        # extents (0, 2**62): a 0-byte payload no array can span
        bad = workspace["dir"] / "wide.cfpa"
        bad.write_bytes(b"CFPA" + struct.pack("<III", 1, 1, 1) + b"a"
                        + struct.pack("<BBQQ", 0, 2, 0, 2**62))
        rc = main(["quantize", "--weights", str(bad),
                   "--out", str(workspace["dir"] / "out.cfpa")])
        assert rc == EXIT_DATA
        assert "tensor 'a' has extents" in capsys.readouterr().err
        assert not (workspace["dir"] / "out.cfpa").exists()

    def quantize(self, src, out, capsys):
        rc = main(["quantize", "--weights", str(src), "--out", str(out)])
        return rc, capsys.readouterr()

    def test_output_matches_library_quantization(self, workspace, capsys):
        out = workspace["dir"] / "quant.cfpa"
        rc, captured = self.quantize(workspace["weights"], out, capsys)
        assert rc == EXIT_OK
        quantized, report = quantize_model(
            read_tensor_file(workspace["weights"]))
        want = workspace["dir"] / "want.cfpa"
        write_tensor_file(quantized, want)
        assert out.read_bytes() == want.read_bytes()
        assert captured.out == json.dumps(report.to_json_dict()) + "\n"

    def test_out_may_be_the_input(self, workspace, capsys):
        want = workspace["dir"] / "want.cfpa"
        assert self.quantize(workspace["weights"], want, capsys)[0] == EXIT_OK
        rc, _ = self.quantize(workspace["weights"], workspace["weights"],
                              capsys)
        assert rc == EXIT_OK
        assert workspace["weights"].read_bytes() == want.read_bytes()
        assert not [n for n in os.listdir(workspace["dir"])
                    if n.endswith(".tmp")]

    def bad_tensor(self, workspace, monkeypatch, kind):
        """A weight file, or a quantizer, that fails on
        ``fusion.mix_weight``, sorted after tensors already written."""
        name = "fusion.mix_weight"
        if kind == "non_finite":
            tensors = read_tensor_file(workspace["weights"])
            tensors[name][0, 0] = np.nan
            bad = workspace["dir"] / "nan.cfpa"
            write_tensor_file(tensors, bad)
            return bad, "cannot quantize a tensor with non-finite values"
        import chromapad.cli as cli

        real = cli.quantize_tensor

        def wide(tensor, value, policy):
            value, row = real(tensor, value, policy)
            if tensor == name:
                value = replace(value, params=replace(value.params,
                                                      zero_point=2**31))
            return value, row

        monkeypatch.setattr(cli, "quantize_tensor", wide)
        return workspace["weights"], "does not fit in int32"

    @pytest.mark.parametrize("kind", ["non_finite", "zero_point"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_tensor_leaves_out_as_it_was(self, workspace, capsys,
                                                 monkeypatch, kind, existing):
        bad, message = self.bad_tensor(workspace, monkeypatch, kind)
        out = workspace["dir"] / "out.cfpa"
        if existing:
            out.write_bytes(b"an earlier output")
        before = sorted(os.listdir(workspace["dir"]))
        rc, captured = self.quantize(bad, out, capsys)
        assert rc == EXIT_DATA
        assert "'fusion.mix_weight'" in captured.err
        assert message in captured.err and captured.out == ""
        assert sorted(os.listdir(workspace["dir"])) == before
        if existing:
            assert out.read_bytes() == b"an earlier output"

    def test_fifo_input(self, workspace, capsys):
        want = workspace["dir"] / "want.cfpa"
        assert self.quantize(workspace["weights"], want, capsys)[0] == EXIT_OK
        fifo = workspace["dir"] / "model.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(workspace["weights"].read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        out = workspace["dir"] / "piped.cfpa"
        rc, _ = self.quantize(fifo, out, capsys)
        writer.join(timeout=10)
        assert rc == EXIT_OK and not writer.is_alive()
        assert out.read_bytes() == want.read_bytes()

    def test_policy_flag(self, workspace, capsys):
        out_path = workspace["dir"] / "quant.cfpa"
        rc = main(["quantize", "--weights", str(workspace["weights"]),
                   "--out", str(out_path), "--policy", "classifier.weight"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        quantized = [r["name"] for r in report["tensors"] if r["quantized"]]
        assert quantized == ["classifier.weight"]


class TestGmacs:
    def test_matches_library_serialization(self, workspace, capsys):
        rc = main(["gmacs", "--config", str(workspace["config"])])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        want = json.dumps(
            model_complexity(workspace["cfg"]).to_json_dict()) + "\n"
        assert out == want
        assert json.loads(out)["total_macs"] > 0

    def test_branch_toggle_reduces_totals(self, workspace, capsys):
        cfg_small = workspace["dir"] / "rgb_only.json"
        data = workspace["cfg"].to_json_dict()
        data["branches"] = ["RGB"]
        cfg_small.write_text(json.dumps(data), encoding="utf-8")
        assert main(["gmacs", "--config", str(cfg_small)]) == EXIT_OK
        small = json.loads(capsys.readouterr().out)
        assert main(["gmacs", "--config", str(workspace["config"])]) == EXIT_OK
        full = json.loads(capsys.readouterr().out)
        assert small["total_macs"] < full["total_macs"]

    def test_invalid_config_exits_2(self, workspace, capsys):
        bad = workspace["dir"] / "bad.json"
        data = workspace["cfg"].to_json_dict()
        data["embed_dim"] = 7
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["gmacs", "--config", str(bad)]) == EXIT_DATA

    def test_non_object_config_exits_2(self, workspace, capsys):
        bad = workspace["dir"] / "list.json"
        bad.write_text("[]\n", encoding="utf-8")
        assert main(["gmacs", "--config", str(bad)]) == EXIT_DATA
        assert "JSON object" in capsys.readouterr().err
        rc = main(["infer", "--config", str(bad),
                   "--weights", str(workspace["weights"]),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_DATA
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ([16, 2], "backbone entry 0 must be a JSON object"),
        ({"out_channels": 16, "stride": 2, "extra": 1},
         "unknown fields in backbone entry 0: ['extra']"),
    ], ids=("list", "unknown_key"))
    def test_malformed_backbone_entry_exits_2(self, workspace, capsys,
                                              entry, message):
        bad = workspace["dir"] / "backbone.json"
        data = workspace["cfg"].to_json_dict()
        data["backbone"][0] = entry
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["gmacs", "--config", str(bad)]) == EXIT_DATA
        assert message in capsys.readouterr().err
        rc = main(["infer", "--config", str(bad),
                   "--weights", str(workspace["weights"]),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["input_size", "embed_dim", "seed"])
    def test_integer_past_int64_exits_2(self, workspace, capsys, field):
        # 10**400 would overflow the float behind the report's "gmacs"
        for value in (2**63, 10**400):
            bad = workspace["dir"] / "huge.json"
            data = workspace["cfg"].to_json_dict()
            data[field] = value
            bad.write_text(json.dumps(data), encoding="utf-8")
            assert main(["gmacs", "--config", str(bad)]) == EXIT_DATA
            assert f"{field} must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("attention_enabled", "false"), ("input_size", 16.0),
    ])
    def test_wrong_json_type_exits_2(self, workspace, capsys, field, value):
        bad = workspace["dir"] / "typed.json"
        data = workspace["cfg"].to_json_dict()
        data[field] = value
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert main(["gmacs", "--config", str(bad)]) == EXIT_DATA
        assert field in capsys.readouterr().err
        rc = main(["infer", "--config", str(bad),
                   "--weights", str(workspace["weights"]),
                   "--image", str(workspace["images"][0])])
        assert rc == EXIT_DATA
        assert field in capsys.readouterr().err


class TestAblate:
    def make_grid(self, workspace, n_rows=2):
        entries = []
        for i in range(n_rows):
            scores = synth_scores(1.0, 0.0, 0.5, 60, seed=40 + i)
            path = workspace["dir"] / f"row{i}.csv"
            path.write_text(write_scores_csv(scores), encoding="utf-8")
            entries.append({"config": workspace["cfg"].to_json_dict(),
                            "scores": f"row{i}.csv"})
        grid_path = workspace["dir"] / "grid.json"
        grid_path.write_text(json.dumps(entries), encoding="utf-8")
        return grid_path

    def test_emits_csv_with_toggle_columns(self, workspace, capsys):
        grid = self.make_grid(workspace)
        rc = main(["ablate", "--grid", str(grid),
                   "--scores-dir", str(workspace["dir"])])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("rgb,hsv,ycbcr,")
        assert len(lines) == 3

    def test_empty_grid_exits_2(self, workspace, capsys):
        grid = workspace["dir"] / "grid.json"
        grid.write_text("[]", encoding="utf-8")
        assert main(["ablate", "--grid", str(grid)]) == EXIT_DATA

    def test_missing_scores_file_exits_3(self, workspace, capsys):
        grid = workspace["dir"] / "grid.json"
        grid.write_text(json.dumps(
            [{"config": workspace["cfg"].to_json_dict(),
              "scores": "absent.csv"}]), encoding="utf-8")
        assert main(["ablate", "--grid", str(grid),
                     "--scores-dir", str(workspace["dir"])]) == EXIT_IO

    @pytest.mark.parametrize("entry, message", [
        ("row0.csv", "grid entry 1 must be a JSON object, got str"),
        ({"scores": 7}, "grid entry 1: 'scores' must be a JSON string"),
        ({"scores": None}, "grid entry 1: 'scores' must be a JSON string"),
        ({"bonafide_images": ["bona"], "attack_images": "atk"},
         "grid entry 1: 'bonafide_images' must be a JSON string"),
        ({"bonafide_images": "bona", "attack_images": 7},
         "grid entry 1: 'attack_images' must be a JSON string"),
    ], ids=("string_entry", "int_scores", "null_scores", "list_bonafide",
            "int_attack"))
    def test_malformed_grid_entry_exits_2(self, workspace, capsys, entry,
                                          message):
        grid = self.make_grid(workspace)
        entries = json.loads(grid.read_text(encoding="utf-8"))
        if isinstance(entry, dict):
            entry = {"config": workspace["cfg"].to_json_dict(), **entry}
        grid.write_text(json.dumps([entries[0], entry]), encoding="utf-8")
        rc = main(["ablate", "--grid", str(grid),
                   "--scores-dir", str(workspace["dir"])])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["scores", "bonafide_images",
                                     "attack_images"])
    def test_nul_in_path_exits_2(self, workspace, capsys, key):
        grid = workspace["dir"] / "grid.json"
        grid.write_text(json.dumps(
            [{"config": workspace["cfg"].to_json_dict(), "scores": "a.csv",
              key: "a\0b"}]), encoding="utf-8")
        assert main(["ablate", "--grid", str(grid)]) == EXIT_DATA
        assert (f"grid entry 0: {key!r} holds a NUL character"
                in capsys.readouterr().err)

    def test_scores_fd_zero_never_reads_stdin(self, workspace, capsys):
        grid = workspace["dir"] / "grid.json"
        grid.write_text(json.dumps(
            [{"config": workspace["cfg"].to_json_dict(), "scores": 0}]),
            encoding="utf-8")
        text = workspace["scores"].read_bytes()
        read_end, write_end = os.pipe()
        os.write(write_end, text)
        os.close(write_end)
        saved = os.dup(0)
        os.dup2(read_end, 0)
        try:
            rc = main(["ablate", "--grid", str(grid)])
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert rc == EXIT_DATA
        assert "grid entry 0: 'scores'" in capsys.readouterr().err
        assert os.read(read_end, len(text) + 1) == text  # stdin untouched
        os.close(read_end)

    def run_image_dirs(self, workspace, bona, atk):
        """Run an image-directory grid entry over one image in each of the
        directories ``bona`` and ``atk``; returns the exit code."""
        rng = np.random.default_rng(9)
        for d, name in ((bona, "a"), (atk, "b")):
            (workspace["dir"] / d).mkdir()
            img = ColorImage(width=16, height=16, space=ColorSpace.RGB,
                             pixels=rng.integers(0, 256, (16, 16, 3),
                                                 dtype=np.uint8))
            (workspace["dir"] / d / f"{name}.ppm").write_bytes(
                to_ppm_bytes(img))
        grid = workspace["dir"] / "grid.json"
        grid.write_text(json.dumps(
            [{"config": workspace["cfg"].to_json_dict(),
              "bonafide_images": bona, "attack_images": atk}]),
            encoding="utf-8")
        return main(["ablate", "--grid", str(grid),
                     "--scores-dir", str(workspace["dir"])])

    def test_image_directory_mode(self, workspace, capsys):
        assert self.run_image_dirs(workspace, "bona", "atk") == EXIT_OK
        assert len(capsys.readouterr().out.strip().split("\n")) == 2

    def test_image_directory_names_are_not_patterns(self, workspace, capsys):
        # "bona[1]" as a pattern would match only a directory "bona1"
        assert self.run_image_dirs(workspace, "bona[1]", "atk[*]") == EXIT_OK
        assert len(capsys.readouterr().out.strip().split("\n")) == 2

    def test_image_error_names_the_image(self, workspace, capsys):
        for d, size in (("bona", 16), ("atk", 8)):
            (workspace["dir"] / d).mkdir()
            (workspace["dir"] / d / "x.ppm").write_bytes(to_ppm_bytes(
                ColorImage(width=size, height=size, space=ColorSpace.RGB,
                           pixels=np.zeros((size, size, 3), np.uint8))))
        grid = workspace["dir"] / "grid.json"
        grid.write_text(json.dumps(
            [{"config": workspace["cfg"].to_json_dict(),
              "bonafide_images": "bona", "attack_images": "atk"}]),
            encoding="utf-8")
        rc = main(["ablate", "--grid", str(grid),
                   "--scores-dir", str(workspace["dir"])])
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        small = workspace["dir"] / "atk" / "x.ppm"
        assert captured.err == (f"chromapad ablate: {small}: image is 8x8, "
                                f"config wants 16x16\n")
        assert captured.out == ""

    def test_model_larger_than_memory_exits_2(self, workspace, capsys,
                                              monkeypatch):
        import chromapad.model as M

        need = 4 * sum(int(np.prod(s.shape))
                       for s in M.tensor_layout(workspace["cfg"]))
        monkeypatch.setattr(M, "_physical_memory", lambda: need - 1)
        assert self.run_image_dirs(workspace, "bona", "atk") == EXIT_DATA
        captured = capsys.readouterr()
        assert f"{need} bytes" in captured.err
        assert f"{need - 1} bytes" in captured.err and captured.out == ""


class TestTextInputs:
    """A config, grid or score CSV that cannot be read as text exits 2
    naming the file."""

    def run(self, workspace, kind, data):
        path = workspace["dir"] / f"input.{kind}"
        path.write_bytes(data)
        flag = {"config": ["gmacs", "--config"], "grid": ["ablate", "--grid"],
                "scores": ["eval", "--scores"]}[kind]
        return path, main(flag + [str(path)])

    def valid_bytes(self, workspace, kind):
        if kind == "grid":
            return json.dumps([{"config": workspace["cfg"].to_json_dict(),
                                "scores": str(workspace["scores"])}]).encode()
        return workspace[kind].read_bytes()

    @pytest.mark.parametrize("kind", ["config", "grid", "scores"])
    def test_non_utf8_byte_exits_2_with_offset(self, workspace, capsys, kind):
        data = self.valid_bytes(workspace, kind)
        path, rc = self.run(workspace, kind, data[:5] + b"\xff" + data[5:])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert str(path) in err and "byte offset 5" in err

    @pytest.mark.parametrize("kind", ["config", "grid"])
    def test_deep_nesting_exits_2(self, workspace, capsys, kind):
        path, rc = self.run(workspace, kind, b"[" * 100_000)
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert str(path) in err and "nests too deeply" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    @pytest.mark.parametrize("kind", ["config", "grid"])
    def test_integer_past_digit_limit_exits_2(self, workspace, capsys, kind):
        digits = sys.get_int_max_str_digits() + 700
        path, rc = self.run(workspace, kind,
                            b'{"seed": ' + b"1" * digits + b"}")
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert str(path) in err and "cannot be parsed" in err

    @pytest.mark.parametrize("kind", ["config", "grid"])
    def test_malformed_json_exits_2_with_line(self, workspace, capsys, kind):
        path, rc = self.run(workspace, kind, b'{"seed": 1,\n  oops}')
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert f"{path} cannot be parsed: " in err and "line 2 column 3" in err

    def test_score_csv_nul_byte_exits_2_with_line(self, workspace, capsys):
        # before Python 3.11 the csv module itself rejects a NUL byte
        lines = self.valid_bytes(workspace, "scores").split(b"\n")
        lines[1] += b"\x00"
        _, rc = self.run(workspace, "scores", b"\n".join(lines))
        assert rc == EXIT_DATA
        assert "(line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=("crlf", "cr"))
    def test_score_csv_newlines_read_as_text_mode(self, workspace, capsys,
                                                  newline):
        assert main(["eval", "--scores", str(workspace["scores"])]) == EXIT_OK
        want = capsys.readouterr().out
        text = workspace["scores"].read_text(encoding="utf-8")
        _, rc = self.run(workspace, "scores",
                         text.replace("\n", newline).encode())
        assert rc == EXIT_OK
        assert capsys.readouterr().out == want


class TestUsage:
    @pytest.mark.parametrize("error", [KeyError, TypeError])
    def test_bug_in_subcommand_propagates(self, workspace, monkeypatch,
                                          error):
        # only ChromapadError and OSError are input faults; anything else
        # is a bug and must not read as "invalid input"
        def broken(cfg):
            raise error("bug")

        monkeypatch.setattr("chromapad.cli.model_complexity", broken)
        with pytest.raises(error):
            main(["gmacs", "--config", str(workspace["config"])])

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--weights", "w"])
        assert exc.value.code == EXIT_USAGE
