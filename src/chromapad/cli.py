"""Command-line front door.

Subcommands are thin wrappers over the library: ``infer`` scores images,
``eval`` computes PAD metrics from a score CSV, ``quantize`` rewrites a
weight file through the dynamic quantizer, ``gmacs`` prints the complexity
report, and ``ablate`` renders the configuration-toggle table. Results go
to stdout (or --out); diagnostics go to stderr. Exit codes: 0 success,
1 usage error, 2 data or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import json
import os
import sys
from functools import partial
from types import SimpleNamespace

from .complexity import model_complexity
from .errors import ChromapadError
from .metrics import _APCER_CAPS, det_csv, evaluate_scores, read_scores_csv
# not called here, but perfbench/tracing.py wraps these at this module's
# names, so they stay importable from it
from .metrics import det_curve, write_det_csv  # noqa: F401
from .model import read_tensor_file, write_tensor_file  # noqa: F401
from .model import (
    ModelConfig,
    ablate,
    ablation_csv,
    forward_ppm,
    iter_tensor_file,
    load_config,
    load_weights,
    read_json,
    read_text,
    score_in_shares,
    score_ppm_file,
    scores_from_images,
    write_tensors,
)
from .quant import quantize_model  # noqa: F401
from .quant import quantization_report, quantize_tensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
# the options that name a file; `open` fails on a NUL with a ValueError
_PATH_OPTIONS = ("config", "weights", "image", "out", "scores", "det",
                 "grid", "scores_dir")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="chromapad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="score PPM images with a weight file")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--weights", required=True, help="CFPA weight file")
    p.add_argument("--image", action="append", required=True,
                   help="PPM image path (repeatable)")
    p.add_argument("--out", help="output CSV path (default stdout)")

    p = sub.add_parser("eval", help="PAD metrics over a label,score CSV")
    p.add_argument("--scores", required=True, help="score CSV path")
    p.add_argument("--apcer", action="append", type=float,
                   help="APCER operating point (repeatable; default "
                        f"{' '.join(map(str, _APCER_CAPS))})")
    p.add_argument("--det", help="write the DET sweep to this CSV path")
    p.add_argument("--out", help="output JSON path (default stdout)")

    p = sub.add_parser("quantize", help="dynamically quantize a weight file")
    p.add_argument("--weights", required=True, help="input CFPA weight file")
    p.add_argument("--out", required=True, help="output CFPA weight file")
    p.add_argument("--policy", action="append",
                   help="fnmatch pattern for tensors to quantize "
                        "(repeatable; default: projection and pointwise "
                        "weight matrices)")

    p = sub.add_parser("gmacs", help="MAC/parameter complexity report")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--out", help="output JSON path (default stdout)")

    p = sub.add_parser("ablate", help="configuration-toggle ablation table")
    p.add_argument("--grid", required=True,
                   help="JSON list of {config, scores | bonafide_images + "
                        "attack_images} entries")
    p.add_argument("--scores-dir",
                   help="directory that relative score/image paths resolve "
                        "against")
    p.add_argument("--out", help="output CSV path (default stdout)")
    return parser


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_infer(args):
    cfg = load_config(args.config)
    model = load_weights(args.weights, cfg)
    # through this module's name, which perfbench/tracing.py wraps
    scores = score_in_shares(
        partial(score_ppm_file, model, forward=forward_ppm), args.image)
    # a "\r\n" terminator makes the writer quote a path holding "\r" as
    # well as "\n"; each row, written in one call, then ends in "\n" alone
    rows = []
    csv.writer(SimpleNamespace(write=rows.append),
               lineterminator="\r\n").writerows(
        (path, f"{value:.10g}") for path, value in zip(args.image, scores))
    _emit("".join(row[:-2] + "\n" for row in rows), args.out)
    return EXIT_OK


def _cmd_eval(args):
    scores = read_scores_csv(read_text(args.scores, "score CSV"))
    alphas = tuple(args.apcer) if args.apcer else _APCER_CAPS
    report = evaluate_scores(scores, alphas)
    if args.det:
        _emit(det_csv(scores), args.det)
    _emit(json.dumps(report) + "\n", args.out)
    return EXIT_OK


def _cmd_quantize(args):
    # one tensor at a time: read, quantize, write, drop
    policy = tuple(args.policy) if args.policy else None
    rows = []

    def quantized(tensors):
        for name, value in tensors:
            value, row = quantize_tensor(name, value, policy)
            rows.append(row)
            yield name, value
            del value  # dropped before the next tensor is read

    with contextlib.closing(iter_tensor_file(args.weights)) as tensors:
        write_tensors(quantized(tensors), args.out)
    report = quantization_report(rows)
    sys.stdout.write(json.dumps(report.to_json_dict()) + "\n")
    return EXIT_OK


def _cmd_gmacs(args):
    cfg = load_config(args.config)
    report = model_complexity(cfg)
    _emit(json.dumps(report.to_json_dict()) + "\n", args.out)
    return EXIT_OK


def _resolve(path, base):
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _cmd_ablate(args):
    grid = read_json(args.grid, "grid")
    if not isinstance(grid, list):
        raise ChromapadError("grid file must hold a JSON list of entries")
    entries = []
    for i, entry in enumerate(grid):
        if not isinstance(entry, dict):
            raise ChromapadError(f"grid entry {i} must be a JSON object, "
                                 f"got {type(entry).__name__}")
        if "config" not in entry:
            raise ChromapadError(f"grid entry {i} has no 'config' object")
        for key in ("scores", "bonafide_images", "attack_images"):
            if key in entry and not isinstance(entry[key], str):
                raise ChromapadError(
                    f"grid entry {i}: {key!r} must be a JSON string, "
                    f"got {type(entry[key]).__name__}")
            if "\0" in entry.get(key, ""):
                raise ChromapadError(
                    f"grid entry {i}: {key!r} holds a NUL character")
        cfg = ModelConfig.from_json_dict(entry["config"])
        if "scores" in entry:
            path = _resolve(entry["scores"], args.scores_dir)
            scores = read_scores_csv(read_text(path, "score CSV"))
        elif "bonafide_images" in entry and "attack_images" in entry:
            bona_dir = _resolve(entry["bonafide_images"], args.scores_dir)
            atk_dir = _resolve(entry["attack_images"], args.scores_dir)
            bona = sorted(glob.glob(f"{glob.escape(bona_dir)}/*.ppm"))
            atk = sorted(glob.glob(f"{glob.escape(atk_dir)}/*.ppm"))
            if not bona or not atk:
                raise ChromapadError(
                    f"grid entry {i}: image directories must contain .ppm files"
                )
            scores = scores_from_images(cfg, bona, atk)
        else:
            raise ChromapadError(
                f"grid entry {i} needs either 'scores' or both "
                f"'bonafide_images' and 'attack_images'"
            )
        entries.append((cfg, scores))
    rows = ablate(entries)
    _emit(ablation_csv(rows), args.out)
    return EXIT_OK


_HANDLERS = {
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "quantize": _cmd_quantize,
    "gmacs": _cmd_gmacs,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for name in _PATH_OPTIONS:  # a str, or a list for --image
            if "\0" in "".join(getattr(args, name, None) or ""):
                raise ChromapadError(f"--{name.replace('_', '-')} path "
                                     f"holds a NUL character")
        return _HANDLERS[args.command](args)
    except ChromapadError as exc:
        print(f"chromapad {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"chromapad {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
