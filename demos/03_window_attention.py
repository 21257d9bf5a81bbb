"""Window attention on a small feature map, step by step.

A feature map splits into non-overlapping square windows; each window runs
multi-head self-attention with a relative position bias shared across
windows, and the outputs fold back into the map. Tokens never attend across
window boundaries.
"""

import numpy as np

from chromapad import (
    AttentionParams,
    ModelConfig,
    expand_relative_bias,
    multi_head_window_attention,
    relative_index_map,
    window_partition,
    window_reverse,
)

window = 2
rng = np.random.default_rng(0)
x = rng.standard_normal((4, 4, 8)).astype(np.float32)

# partition: row-major windows, row-major tokens inside each window
windows = window_partition(x, window)
print("partitioned", x.shape, "->", windows.shape)
print("round trip is bit-exact:",
      window_reverse(windows, 4, 4, window).tobytes() == x.tobytes())

# the relative index map ties bias entries to token offsets: every pair of
# tokens with the same (row, col) offset shares one table slot per head
idx = relative_index_map(window)
print("\nrelative index map for a 2x2 window:\n", idx)

# the parameters carry the dimensions: d from the QKV weight, heads and the
# window from the bias, a (heads, (2w-1)^2) table expanded once
qkv_weight = (rng.standard_normal((24, 8)) / np.sqrt(8)).astype(np.float32)
out_weight = (rng.standard_normal((8, 8)) / np.sqrt(8)).astype(np.float32)
table = rng.standard_normal((2, 9)).astype(np.float32) * 0.1
params = AttentionParams(
    qkv_weight=qkv_weight,
    qkv_bias=np.zeros(24, np.float32),
    out_weight=out_weight,
    out_bias=np.zeros(8, np.float32),
    rel_bias=expand_relative_bias(table, window),
)
print(f"\nparams: d={params.embed_dim}, heads={params.num_heads}, "
      f"window={params.window}, tokens/window={params.window ** 2}, "
      f"head_dim={params.embed_dim // params.num_heads}")
print("per-head bias matrices:", params.rel_bias.shape)

out = multi_head_window_attention(x, params)
print("\nattention output:", out.shape)

# locality: perturbing one window leaves every other window bit-identical
bumped = x.copy()
bumped[:2, :2, :] += 1.0
out_bumped = multi_head_window_attention(bumped, params)
same = out_bumped[2:, :, :].tobytes() == out[2:, :, :].tobytes()
print("other windows untouched by a window-0 perturbation:", same)

# the published dimensions are the paper preset's
paper = ModelConfig.paper()
print("\npublished preset:", paper.embed_dim, "dims,", paper.num_heads,
      "heads,", paper.window ** 2, "tokens per window, head_dim",
      paper.embed_dim // paper.num_heads)
