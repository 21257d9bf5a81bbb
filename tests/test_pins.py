"""Byte pins of the network's structure: the complexity report over a grid
of configs, the weight-draw order, saved weight files, quantization and
forward scores.

Each pin is a SHA-256 over a canonical rendering, so any change to a layer
name, shape, init kind, draw order, MAC or parameter count, saved byte or
score bit shows up here.
"""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from chromapad import blocks
from chromapad.colorspace import ColorImage, ColorSpace
from chromapad.complexity import model_complexity
from chromapad.model import (
    ModelConfig,
    build_model,
    forward,
    read_tensor_file,
    save_weights,
    standard_ablation_grid,
    tensor_layout,
    write_tensor_file,
)
from chromapad.quant import QuantizedTensor, dequantize_f32, quantize_model
from chromapad.tensor_ops import matmul

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


def _file_sha(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def paper_float_file(tmp_path_factory):
    # desk tensors each fit in one draw or (de)quantization piece; paper
    # tensors span many, so these pins cover the seams between pieces
    path = tmp_path_factory.mktemp("paper") / "paper.cfpa"
    save_weights(build_model(ModelConfig.paper(seed=7)), path)
    return path


def test_paper_saved_weight_bytes_pinned(paper_float_file):
    assert _file_sha(paper_float_file) == (
        "3093e99c64d0dc8b83bdc22570c2b26de1d9b02f9b84ca76cd502a56a855a957")


def test_paper_quantization_pinned(paper_float_file, tmp_path):
    quantized, report = quantize_model(read_tensor_file(paper_float_file))
    assert _sha(json.dumps(report.to_json_dict()).encode()) == (
        "75d94ed849a74e6845d9d010058200b62db939610b70c3989dfa62600c5b8e29")
    path = tmp_path / "paper_int8.cfpa"
    write_tensor_file(quantized, path)
    assert _file_sha(path) == (
        "3442e20179d2772ad1d337c76fe19e0b75ed2116bcac6832dbac5666e508da6e")
    digest = hashlib.sha256()
    for name in sorted(quantized):
        if isinstance(quantized[name], QuantizedTensor):
            digest.update(dequantize_f32(quantized[name]).tobytes())
    assert digest.hexdigest() == (
        "ccffa7d61c3278fc6127fb29792ef58ead4eaf0c1ba674b4b98a90871b7000c4")


def _image(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return ColorImage(
        width=112, height=112, space=ColorSpace.RGB,
        pixels=rng.integers(0, 256, (112, 112, 3), dtype=np.uint8))


def test_forward_scores_pinned_over_ablation_grid():
    # every toggle path: one branch, two branches, attention off, residual
    # off, all on, and DQ; two fixed images each. Scores of untrained
    # weights sit within a few float32 steps of 0.5, so the residual
    # block's output map (the same (C, H, W) layout on every path) is
    # pinned too: it carries every bit of the fused map
    images = [_image(seed) for seed in (0, 1)]
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


def _stage_digests(monkeypatch, runs):
    """SHA-256 per forward stage over ``runs``, (model, image) pairs.

    Each stage hashes the dtype, shape and bytes of its arrays in run
    order: every branch's backbone features and tokens, the fused map,
    each residual-trace field, the pooled features and logits going into
    the classifier's product (caught at `blocks.matmul`, whose only caller
    is `classifier_head`), and the probabilities. Scores sit within a few
    float32 steps of 0.5, so a last-bit change before the softmax shows
    only here.
    """
    hashers = {}

    def update(stage, arr):
        h = hashers.setdefault(stage, hashlib.sha256())
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())

    def spy(a, b):
        out = matmul(a, b)
        update("pooled_features", a)
        update("logits", out)
        return out

    monkeypatch.setattr(blocks, "matmul", spy)
    for model, img in runs:
        _, debug = forward(model, img, want_debug=True)
        for branch in debug["branches"].values():
            update("features", branch["features"])
            update("tokens", branch["tokens"])
        update("fused", debug["fused"])
        trace = debug.get("residual_trace")
        if trace is not None:
            for f in dataclasses.fields(trace):
                update(f"residual.{f.name}", getattr(trace, f.name))
        update("probabilities", debug["probabilities"])
    return {stage: h.hexdigest() for stage, h in hashers.items()}


def test_forward_stages_pinned_over_ablation_grid(monkeypatch):
    images = [_image(seed) for seed in (0, 1)]
    runs = [(model, img)
            for model in map(build_model,
                             standard_ablation_grid(ModelConfig.desk(seed=7)))
            for img in images]
    assert _stage_digests(monkeypatch, runs) == {
        "features":
            "3ab858e16c54adfcadfbc1de95f5fc4301a8b14b44c3256983c5abfbf5c04362",
        "fused":
            "328d94fbf905d44d3ea3847f2fa0406ac46c23cdc16d841d7e8ed108cefbdaa8",
        "logits":
            "6de198e7b8f0b538edfd363ff5d08359b8f6b63dc96c101d130c882a25f0907e",
        "pooled_features":
            "dc7685c041f9c6c3244cbef645f44497fa3e15b3768e6e8877008f3a25c9c4f4",
        "probabilities":
            "9e5bedaf17c8282cf0acf1ebbf4b88bac528e9dfba933a210f1b727b566e41fe",
        "residual.activated":
            "fd3e00d3c9359bfa172fa2662bf4d2beb18e71bb848c7f5bdf1ff3135374b28c",
        "residual.merged":
            "45e99c28f2d7ee8499aea342b789542af98c70f6197e63d1f73f197d3451fe97",
        "residual.output":
            "c21ba5124929905b22b9116e9a845d6311bab92b786a8cd663f7f0f8cfd9c5a9",
        "residual.pooled":
            "34ed9468dc098a4f156faf666a863fc9a0e57bbdbb86ea1f3c0339e3f30ae7d4",
        "residual.upsampled":
            "337e5123db909030bb4989fd72551a8976b4f8f13e20e1ba761dd4abb7499016",
        "tokens":
            "f780cba98bb6430640e249bea980856309ef5bce243de4d864dab83b26500c9d",
    }


_PAPER_STAGE_DIGESTS = {
    False: {
        "features":
            "8abb2cfffe5b33d18a570b32b56cc7574c20b1d3c599eaca91b906f58e2d3b35",
        "fused":
            "7b218474bf42c7a554919a160bb685905a5f551247690475a1ce38161b186bcd",
        "logits":
            "6a3afe98bccbc697f8606583786b94a9c8127e7f8ddad3e780ba416ad25566a8",
        "pooled_features":
            "417f1d48dca2fcc645757b542bc28365ad4c946ca311095ec895be5b4f940b6d",
        "probabilities":
            "8124dc56c7dcfe6e6ddc9f18cb13ebccd8e583427bd79c76e4541b0cd57a964c",
        "residual.activated":
            "0e811164ee1d60a993efe64a56db30de0b02bc151fbbf46f8f30a7d4f05d73d5",
        "residual.merged":
            "4ce22e0e2c0fc831c09eb0c21d41fabd404682eb22bc11ed8be9f2148ad40a98",
        "residual.output":
            "16f4203e5577c62760f2838146fe09511a7fafb84fd91dd2762a19febd63edfb",
        "residual.pooled":
            "7509403712847b2bc4ef51998797f8193a3a8aa0c7132af4bdfd5fe0b78b2456",
        "residual.upsampled":
            "4f74a6a8f0b27a538efbfff3d1720fc3a67e5739dec741d6377f70b89727dd6a",
        "tokens":
            "100b7150a688f7f75eefba437608293ce7999e0c10e2c425e04e91161d38f584",
    },
    True: {
        "features":
            "2a15c5844fe890bb168b8438b45e96f8316746b64e4c310cb50624f0c70a8425",
        "fused":
            "a377c458002004ce56d609af5f14f554ecc14ee54b41145520f5672f4d34beac",
        "logits":
            "e8888fdc586f3af3335c7f6c33d369a1d844d09703bf24bf2350a277b39e42b0",
        "pooled_features":
            "2faed914c23cec306baa902ac64a4a6f1b8427d78080a2c76b8387eb31f16504",
        "probabilities":
            "44d7889f7bcb3698f6b9eb5acef5df51660a48385847827a749fd79a78336d26",
        "residual.activated":
            "439a26b5b6bfc704d14da98db19c8fb621a3f84c13f3fb384295454c72b36ffd",
        "residual.merged":
            "3ff6c22b701cdca77ed44e3cdcc1f9df10e4f89e06a5d06edf1ea55a8aada389",
        "residual.output":
            "ec3dc550bb8c9468e6aa2c99bf91139bea80d5ba79d894beff68fc6a8d64766b",
        "residual.pooled":
            "1d6f12cb4e3e486c80cd08903f4ffbf73722acff834367c7dd969753f88e4895",
        "residual.upsampled":
            "63edbf8d6dbc1972ca82a29be3e735cf3dc3a513c4be56a2c87d73d3d899843a",
        "tokens":
            "79cbd5b706751bd7a218efa7e9d612575c321ab56812cbd92c9db10bc6abb7ea",
    },
}


@pytest.mark.parametrize("dq", (False, True), ids=("float", "dq"))
def test_paper_forward_stages_pinned(monkeypatch, dq):
    # the 768-dim, 24-head path, float and dynamically quantized
    model = build_model(ModelConfig.paper(seed=7, dq_enabled=dq))
    assert (_stage_digests(monkeypatch, [(model, _image(0))])
            == _PAPER_STAGE_DIGESTS[dq])
