"""Byte pins of the network's structure: the complexity report over a grid
of configs, the weight-draw order, saved weight files, and forward scores.

Each pin is a SHA-256 over a canonical rendering, so any change to a layer
name, shape, init kind, draw order, MAC or parameter count, saved byte or
score bit shows up here.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from chromapad.colorspace import ColorImage, ColorSpace
from chromapad.complexity import model_complexity
from chromapad.model import (
    ModelConfig,
    build_model,
    forward,
    save_weights,
    standard_ablation_grid,
    tensor_layout,
)

_BRANCH_SUBSETS = (
    (ColorSpace.RGB,),
    (ColorSpace.RGB, ColorSpace.HSV),
    (ColorSpace.RGB, ColorSpace.HSV, ColorSpace.YCBCR),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_complexity_json_pinned_over_48_configs():
    # desk/paper x DQ x attention x residual x 3 branch subsets
    reports = []
    for preset, dq, attn, res, branches in itertools.product(
            (ModelConfig.desk, ModelConfig.paper), (False, True),
            (False, True), (False, True), _BRANCH_SUBSETS):
        cfg = preset(dq_enabled=dq, attention_enabled=attn,
                     residual_enabled=res, branches=branches)
        reports.append(json.dumps(model_complexity(cfg).to_json_dict()))
    assert len(reports) == 48
    assert _sha("\n".join(reports).encode()) == (
        "c854cb4f7fc14cdfe0d5fe620f2e675e8b80d436a9bf8641ff91d12af4189116")


@pytest.mark.parametrize("preset, digest", [
    (ModelConfig.desk,
     "cea56a78301f6870c062e7ffc40f0afb4c8c64c70ed77ae38a507a4068a31c2f"),
    (ModelConfig.paper,
     "5314ac2185c29888797fe72d0168c37e4b3325b9ea76aed9d8d4417b9a54a618"),
], ids=("desk", "paper"))
def test_tensor_layout_pinned(preset, digest):
    layout = [(s.name, s.shape, s.init) for s in tensor_layout(preset())]
    assert _sha(repr(layout).encode()) == digest


@pytest.mark.parametrize("dq, digest", [
    (False,
     "33c3ebb6da180053403649d9a12361a371dc695300c30108dfdd6d2efa9b2783"),
    (True,
     "d43aca6f60eab52ec9d07d1992e82d14c2627c25403a1b8e6491648ad3b9f702"),
], ids=("float", "dq"))
def test_saved_weight_bytes_pinned(tmp_path, dq, digest):
    path = tmp_path / "desk.cfpa"
    save_weights(build_model(ModelConfig.desk(seed=7, dq_enabled=dq)), path)
    assert _sha(path.read_bytes()) == digest


def test_forward_scores_pinned_over_ablation_grid():
    # every toggle path: one branch, two branches, attention off, residual
    # off, all on, and DQ; two fixed images each. Scores of untrained
    # weights sit within a few float32 steps of 0.5, so the residual
    # block's output map (the same (C, H, W) layout on every path) is
    # pinned too: it carries every bit of the fused map
    images = []
    for seed in (0, 1):
        rng = np.random.Generator(np.random.PCG64(seed))
        images.append(ColorImage(
            width=112, height=112, space=ColorSpace.RGB,
            pixels=rng.integers(0, 256, (112, 112, 3), dtype=np.uint8)))
    scores, maps = [], hashlib.sha256()
    for cfg in standard_ablation_grid(ModelConfig.desk(seed=7)):
        model = build_model(cfg)
        for img in images:
            score, debug = forward(model, img, want_debug=True)
            scores.append(score)
            if cfg.residual_enabled:
                maps.update(debug["residual_trace"].output.tobytes())
    assert len(scores) == 14
    assert _sha(np.array(scores, np.float64).tobytes()) == (
        "06c7761310bde375f8f1c7ba78c50c977b8de6f82d2ca25b09f6a57ca6cdff9a")
    assert maps.hexdigest() == (
        "ab62f3d640ed205e701caeca72d9ee2f560f9da39cb8880d11d7d04ad78ea4dd")
