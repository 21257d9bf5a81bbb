"""CLI contract tests: thin-wrapper equality, exit codes, determinism."""

import json

import numpy as np
import pytest

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
from chromapad.model import ModelConfig, build_model, save_config, save_weights


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

    @pytest.mark.parametrize("rows, n_unique", [
        ("bonafide,0\nattack,1e20\n", 2),
        ("bonafide,-1e17\nbonafide,0.7\nattack,0.2\n", 3),
    ], ids=("attack_1e20", "bonafide_minus_1e17"))
    def test_huge_scores_keep_sentinels_distinct(self, workspace, capsys,
                                                 rows, n_unique):
        # a sentinel 1.0 beyond a score of magnitude >= 2**53 rounds back
        # onto it; the sweep must still span (1, 0) to (0, 1)
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
        assert table[0][1:] == [1.0, 0.0] and table[-1][1:] == [0.0, 1.0]

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

    def test_image_directory_mode(self, workspace, capsys):
        bona_dir = workspace["dir"] / "bona"
        atk_dir = workspace["dir"] / "atk"
        bona_dir.mkdir()
        atk_dir.mkdir()
        rng = np.random.default_rng(9)
        for d, name in ((bona_dir, "a"), (atk_dir, "b")):
            img = ColorImage(width=16, height=16, space=ColorSpace.RGB,
                             pixels=rng.integers(0, 256, (16, 16, 3),
                                                 dtype=np.uint8))
            (d / f"{name}.ppm").write_bytes(to_ppm_bytes(img))
        grid = workspace["dir"] / "grid.json"
        grid.write_text(json.dumps(
            [{"config": workspace["cfg"].to_json_dict(),
              "bonafide_images": "bona", "attack_images": "atk"}]),
            encoding="utf-8")
        rc = main(["ablate", "--grid", str(grid),
                   "--scores-dir", str(workspace["dir"])])
        assert rc == EXIT_OK
        assert len(capsys.readouterr().out.strip().split("\n")) == 2


class TestUsage:
    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--weights", "w"])
        assert exc.value.code == EXIT_USAGE
