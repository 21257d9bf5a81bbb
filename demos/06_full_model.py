"""Build the full network, run inference, profile it, and ablate it.

The pipeline per enabled branch: color conversion -> depthwise-separable
backbone -> 1x1 bottleneck into token layout -> window attention; branches
fuse by elementwise addition plus a pointwise mix (a 1x1 convolution into a
channel-major map), pass through the nested residual block, and a softmax
head yields the bona fide probability.
"""

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from chromapad import (
    ColorImage,
    ColorSpace,
    ModelConfig,
    build_model,
    forward,
    load_weights,
    model_complexity,
    save_weights,
    standard_ablation_grid,
    synth_scores,
)
from chromapad.model import ablate, ablation_csv

# the desk preset keeps everything fast: 112x112 input, three stride-2
# blocks down to a 14x14 map, 64 embedding dims, four 7x7 windows
cfg = ModelConfig.desk(seed=2024)
model = build_model(cfg)
print(f"desk model: {len(model.weights)} tensors, branches "
      f"{[b.value for b in cfg.branches]}")

rng = np.random.default_rng(7)
img = ColorImage(width=112, height=112, space=ColorSpace.RGB,
                 pixels=rng.integers(0, 256, (112, 112, 3), dtype=np.uint8))

start = time.monotonic()
score, debug = forward(model, img, want_debug=True)
print(f"bona fide probability: {score:.6f} "
      f"({time.monotonic() - start:.3f}s)")
print("probabilities sum:", float(debug["probabilities"].sum()))

# weight files round-trip bit-exactly (magic CFPA, little-endian, sorted)
with tempfile.TemporaryDirectory() as tmp:
    save_weights(model, Path(tmp) / "demo_model.cfpa")
    again = load_weights(Path(tmp) / "demo_model.cfpa", cfg)
print("save -> load bit-identical:",
      all(again.weights[n].tobytes() == model.weights[n].tobytes()
          for n in model.weights))

# rerunning the same image on the reloaded model reproduces the score bit
# for bit
score2, _ = forward(again, img)
print("score reproduced:", score == score2)

# complexity: exact integer MAC and parameter counts per layer
report = model_complexity(cfg)
print(f"\ndesk preset: {report.gmacs} GMACs, "
      f"{report.total_params:,} params, {report.param_bytes:,} bytes")
dq_report = model_complexity(ModelConfig.desk(seed=2024, dq_enabled=True))
print(f"with dynamic quantization: {dq_report.gmacs} GMACs (unchanged), "
      f"{dq_report.param_bytes:,} bytes")

# the published dimensions also build and run
paper = ModelConfig.paper(seed=2024)
paper_report = model_complexity(paper)
print(f"published-dimension preset: {paper_report.gmacs} GMACs, "
      f"{paper_report.total_params:,} params")

# the seven-row toggle grid, scored here from synthetic score sets
entries = []
for i, grid_cfg in enumerate(standard_ablation_grid(cfg)):
    entries.append((grid_cfg, synth_scores(0.8, 0.2, 0.3, 500, seed=i)))
print("\nablation table:")
print(ablation_csv(ablate(entries)))

print("complexity JSON head:",
      json.dumps(report.to_json_dict())[:80], "...")
