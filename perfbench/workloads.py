"""The benchmark's workloads, each a closed loop with one client.

A workload builds its inputs from the seed when it is constructed, then
the runner calls ``setup`` (what a user pays once before the first op,
first warm-up op included) and ``op`` (one timed unit of work). ``check``
validates one op's output outside the timed region and raises
`checks.CheckError` when it is wrong; ``finish`` runs the end-of-run
checks and returns the digest of the outputs the stored digest covers.

Why these workloads:

* desk_stream - the small model, one ``forward_ppm`` per distinct image.
  Per-call fixed costs dominate (271 matmul and 48 attention-head calls
  per image), so fusing or batching calls shows here.
* paper_dq_infer - the published attention size (768 dims, 24 heads) with
  dynamic int8 quantization, one in-process ``chromapad infer`` over a
  fixed batch of distinct images. Kernel throughput, weight-file IO,
  load-time quantization and per-forward dequantization dominate.
* eval_bulk - no model, one in-process ``chromapad eval`` over a large
  score CSV. Only ``metrics`` and ``cli`` run, so a model-side change is
  predicted to leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import replace

import numpy as np

from chromapad.cli import main as cli_main
from chromapad.complexity import model_complexity
from chromapad.model import (
    ModelConfig,
    build_model,
    forward_ppm,
    save_config,
    save_weights,
)

import checks

IMAGE_SIZE = 112
DIGEST_DESK_IMAGES = 16


def ppm_bytes(rng, size=IMAGE_SIZE):
    """A binary PPM of uniform random pixels."""
    pixels = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
    return f"P6\n{size} {size}\n255\n".encode("ascii") + pixels.tobytes()


def _rng(seed, *stream):
    return np.random.Generator(np.random.PCG64([seed, *stream]))


def _quiet_cli(argv):
    """Run the CLI in-process, discarding what it prints to stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


class DeskStream:
    name = "desk_stream"
    unit = "images"
    min_ops = 20
    warmup_ops = 10
    setup_reps = 5
    digest_ops = DIGEST_DESK_IMAGES

    def __init__(self, workdir, seed, tiny):
        self.seed = seed
        self.cfg = ModelConfig.desk(seed=seed)
        self.items_per_op = 1
        self.macs_per_image = model_complexity(self.cfg).total_macs
        self.model = None
        self.next_image = None
        self.scores = []

    def image(self, i):
        return ppm_bytes(_rng(self.seed, 0, i))

    def setup(self, rep):
        self.model = build_model(self.cfg)
        checks.check_score(forward_ppm(self.model, ppm_bytes(
            _rng(self.seed, 1, rep))))

    def prepare(self, i):
        self.next_image = self.image(i)

    def op(self, i):
        return forward_ppm(self.model, self.next_image)

    def check(self, i, score):
        checks.check_score(score)
        if i < DIGEST_DESK_IMAGES:
            self.scores.append(score)

    def finish(self):
        again = forward_ppm(self.model, self.image(0))
        if self.scores and again != self.scores[0]:
            raise checks.CheckError(
                f"rescoring image 0 gave {again!r}, first gave "
                f"{self.scores[0]!r}")
        if len(self.scores) < DIGEST_DESK_IMAGES:
            return None
        return checks.float_bits_digest(self.scores)


class PaperDqInfer:
    name = "paper_dq_infer"
    unit = "images"
    min_ops = 3
    warmup_ops = 0
    setup_reps = 3  # each pays a paper-size forward
    digest_ops = None  # every op must repeat the first op's output
    batch = 2

    def __init__(self, workdir, seed, tiny):
        if tiny:
            cfg = ModelConfig.paper(
                seed=seed, embed_dim=48, num_heads=3,
                backbone=({"out_channels": 8, "stride": 2},
                          {"out_channels": 8, "stride": 2},
                          {"out_channels": 16, "stride": 2}))
        else:
            cfg = ModelConfig.paper(seed=seed)
        self.cfg = cfg
        self.items_per_op = self.batch
        self.macs_per_image = model_complexity(cfg).total_macs
        self.float_path = os.path.join(workdir, "paper_f32.cfpa")
        self.weights_path = os.path.join(workdir, "paper_int8.cfpa")
        self.config_path = os.path.join(workdir, "paper_dq.json")
        self.out_path = os.path.join(workdir, "scores.csv")
        self.warm_path = os.path.join(workdir, "warm.csv")
        self.images = []
        for i in range(self.batch):
            path = os.path.join(workdir, f"image{i}.ppm")
            with open(path, "wb") as fh:
                fh.write(ppm_bytes(_rng(seed, 0, i)))
            self.images.append(path)
        self.warm_scores = None
        self.first_scores = None

    def _infer(self, images, out):
        argv = ["infer", "--config", self.config_path,
                "--weights", self.weights_path, "--out", out]
        for path in images:
            argv += ["--image", path]
        return cli_main(argv)

    def setup(self, rep):
        save_weights(build_model(self.cfg), self.float_path)
        save_config(replace(self.cfg, dq_enabled=True), self.config_path)
        rc = _quiet_cli(["quantize", "--weights", self.float_path,
                         "--out", self.weights_path])
        if rc != 0:
            raise checks.CheckError(f"chromapad quantize exited {rc}")
        rc = self._infer(self.images[:1], self.warm_path)
        if rc != 0:
            raise checks.CheckError(f"warm-up chromapad infer exited {rc}")
        with open(self.warm_path, "r", encoding="utf-8") as fh:
            warm = checks.parse_infer_csv(fh.read(), self.images[:1])
        if self.warm_scores not in (None, warm):
            raise checks.CheckError(
                f"setup {rep} warm-up scored {warm}, setup 0 scored "
                f"{self.warm_scores}")
        self.warm_scores = warm

    def prepare(self, i):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def op(self, i):
        return self._infer(self.images, self.out_path)

    def check(self, i, rc):
        if rc != 0:
            raise checks.CheckError(f"chromapad infer exited {rc}")
        with open(self.out_path, "r", encoding="utf-8") as fh:
            scores = checks.parse_infer_csv(fh.read(), self.images)
        if scores[0] != self.warm_scores[0]:
            raise checks.CheckError(
                f"image 0 scored {scores[0]}, warm-up scored "
                f"{self.warm_scores[0]}")
        if self.first_scores is None:
            self.first_scores = scores
        elif scores != self.first_scores:
            raise checks.CheckError(
                f"op {i} scored {scores}, first op {self.first_scores}")

    def finish(self):
        if self.first_scores is None:
            return None
        return checks.text_digest(self.first_scores)


class EvalBulk:
    name = "eval_bulk"
    unit = "score_rows"
    min_ops = 10
    warmup_ops = 0
    setup_reps = 5
    digest_ops = None  # every op must repeat the brute-force output
    alphas = (0.01, 0.05, 0.1)

    def __init__(self, workdir, seed, tiny):
        n = 300 if tiny else 20000
        rng = _rng(seed, 2)
        # six decimals, as a score file exported from a detector would
        # carry, so thresholds tie across and within labels
        bonafide = np.round(rng.beta(5.0, 2.0, n), 6)
        attack = np.round(rng.beta(2.0, 5.0, n), 6)
        rows = [f"bonafide,{v:.6f}" for v in bonafide]
        rows += [f"attack,{v:.6f}" for v in attack]
        rows = [rows[j] for j in rng.permutation(len(rows))]
        self.scores_path = os.path.join(workdir, "scores.csv")
        with open(self.scores_path, "w", encoding="utf-8") as fh:
            fh.write("label,score\n" + "\n".join(rows) + "\n")
        self.items_per_op = 2 * n
        self.macs_per_image = 0
        self.report_path = os.path.join(workdir, "report.json")
        self.det_path = os.path.join(workdir, "det.csv")
        self.expected = checks.brute_force_pad(bonafide, attack, self.alphas)
        self.first_output = None

    def setup(self, rep):
        self.prepare(-1)
        self.check(-1, self.op(-1))

    def prepare(self, i):
        for path in (self.report_path, self.det_path):
            if os.path.exists(path):
                os.remove(path)

    def op(self, i):
        argv = ["eval", "--scores", self.scores_path,
                "--det", self.det_path, "--out", self.report_path]
        for alpha in self.alphas:
            argv += ["--apcer", str(alpha)]
        return cli_main(argv)

    def check(self, i, rc):
        if rc != 0:
            raise checks.CheckError(f"chromapad eval exited {rc}")
        with open(self.report_path, "r", encoding="utf-8") as fh:
            report = fh.read()
        with open(self.det_path, "r", encoding="utf-8") as fh:
            det = fh.read()
        checks.check_eval_output(report, det, *self.expected)
        if i >= 0 and self.first_output is None:
            self.first_output = [report, det]

    def finish(self):
        if self.first_output is None:
            return None
        return checks.text_digest(self.first_output)


WORKLOADS = {w.name: w for w in (DeskStream, PaperDqInfer, EvalBulk)}
