"""Byte pins of the network's structure: the complexity report over a grid
of configs, the weight-draw order, and saved weight files.

Each pin is a SHA-256 over a canonical rendering, so any change to a layer
name, shape, init kind, draw order, MAC or parameter count, or saved byte
shows up here.
"""

import hashlib
import itertools
import json

import pytest

from chromapad.colorspace import ColorSpace
from chromapad.complexity import model_complexity
from chromapad.model import (
    ModelConfig,
    build_model,
    save_weights,
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
