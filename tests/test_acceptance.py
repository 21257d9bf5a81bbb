"""Acceptance criteria, one test per criterion.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible
with ``pytest -s``) and asserts the criterion at its stated tolerance.
"""

import json
import math
import time

import numpy as np

from chromapad.attention import (
    AttentionParams,
    expand_relative_bias,
    multi_head_window_attention,
    qkv_project,
    relative_index_map,
    window_partition,
)
from chromapad.blocks import NestedResidualParams, nested_residual_forward
from chromapad.cli import main
from chromapad.colorspace import ColorImage, ColorSpace, to_ppm_bytes
from chromapad.complexity import (
    macs_conv2d,
    macs_linear,
    macs_window_attention,
    model_complexity,
)
from chromapad.metrics import (
    ScoreSet,
    bpcer_at_apcer,
    eer,
    synth_scores,
    write_scores_csv,
)
from chromapad.model import (
    ModelConfig,
    build_model,
    forward,
    save_config,
    save_weights,
    standard_ablation_grid,
)
from chromapad.quant import compute_quant_params, dequantize, quantize
from chromapad.tensor_ops import BatchNormParams


def _verdict(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed {suffix}"


def test_criterion_1_quantization_round_trip():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    checked = 0
    ok = True
    for i in range(1000):
        size = int(rng.integers(1, 4097))
        if i % 50 == 0:
            f = np.full(size, float(rng.uniform(-1e3, 1e3)), np.float32)
        else:
            f = rng.uniform(-1e3, 1e3, size).astype(np.float32)
        params = compute_quant_params(f)
        qt = quantize(f, params)
        recon = dequantize(qt)
        if qt.qdata.min() < -128 or qt.qdata.max() > 127:
            ok = False
            break
        if params.f_max > params.f_min:
            if qt.qdata[f.argmin()] != -128 or qt.qdata[f.argmax()] != 127:
                ok = False
                break
            err = np.abs(recon - f.astype(np.float64)).max()
            if err > params.scale / 2 + 1e-6:
                ok = False
                break
        else:
            if not np.array_equal(recon, f.astype(np.float64)):
                ok = False
                break
        checked += 1
    elapsed = time.monotonic() - start
    _verdict(1, ok and checked == 1000 and elapsed < 5.0,
             f"{checked} tensors in {elapsed:.2f}s")


def _random_attention_instance(rng):
    window = int(rng.integers(1, 5))            # N = window^2 <= 16
    heads = int(rng.integers(1, 5))
    head_dim = int(rng.integers(1, 32 // heads + 1))
    return _make_params_for(heads * head_dim, heads, window, rng)  # d <= 32


def _naive_full_attention(tokens, params, table):
    """Float64 attention of one window, the bias read from ``table``
    through `relative_index_map`."""
    d, heads = params.embed_dim, params.num_heads
    d_h = d // heads
    t = tokens.astype(np.float64)
    proj = t @ params.qkv_weight.T.astype(np.float64) + params.qkv_bias
    idx = relative_index_map(params.window)
    parts = []
    for head in range(heads):
        cols = slice(head * d_h, (head + 1) * d_h)
        q = proj[:, 0 * d:1 * d][:, cols]
        k = proj[:, 1 * d:2 * d][:, cols]
        v = proj[:, 2 * d:3 * d][:, cols]
        logits = q @ k.T / math.sqrt(d_h) \
            + table.astype(np.float64)[head][idx]
        logits -= logits.max(axis=1, keepdims=True)
        w = np.exp(logits)
        w /= w.sum(axis=1, keepdims=True)
        parts.append(w @ v)
    merged = np.concatenate(parts, axis=1)
    return merged @ params.out_weight.T.astype(np.float64) + params.out_bias


def test_criterion_2_attention_oracle():
    rng = np.random.default_rng(2002)
    start = time.monotonic()
    ok = True
    for _ in range(100):
        params, table = _random_attention_instance(rng)
        w, d, heads = params.window, params.embed_dim, params.num_heads
        x = rng.standard_normal((w, w, d)).astype(np.float32)
        got = multi_head_window_attention(x, params)
        want = _naive_full_attention(x.reshape(w * w, d), params, table)
        if np.max(np.abs(got.reshape(w * w, d) - want)) >= 1e-5:
            ok = False
            break
        # softmax rows of the real path sum to one
        from chromapad.tensor_ops import matmul, softmax_last_axis

        q, k, _ = qkv_project(window_partition(x, w).reshape(-1, d), params)
        bias = params.rel_bias
        scale = np.float32(math.sqrt(d // heads))
        for head in range(heads):
            logits = matmul(q[head], np.ascontiguousarray(k[head].T)) / scale
            rows = softmax_last_axis(logits + bias[head])
            if np.max(np.abs(rows.astype(np.float64).sum(axis=1) - 1.0)) \
                    >= 1e-6:
                ok = False
                break
        if not ok:
            break

    # window locality, bit-exact, on two-window maps
    for trial in range(5):
        heads = trial % 2 + 1
        params, _ = _make_params_for(4 * heads, heads, 2,
                                     np.random.default_rng(60 + trial))
        x = np.random.default_rng(70 + trial).standard_normal(
            (2, 4, 4 * heads)).astype(np.float32)
        base = multi_head_window_attention(x, params)
        bumped = x.copy()
        bumped[:, :2, :] += 1.0
        out = multi_head_window_attention(bumped, params)
        if out[:, 2:].tobytes() != base[:, 2:].tobytes():
            ok = False
            break
    elapsed = time.monotonic() - start
    _verdict(2, ok and elapsed < 10.0, f"{elapsed:.2f}s")


def _make_params_for(d, heads, window, rng):
    """Random `AttentionParams` and the bias table they expand."""
    qkv_weight = (rng.standard_normal((3 * d, d)) / math.sqrt(d)) \
        .astype(np.float32)
    qkv_bias = (rng.standard_normal(3 * d) * 0.1).astype(np.float32)
    out_weight = (rng.standard_normal((d, d)) / math.sqrt(d)) \
        .astype(np.float32)
    out_bias = (rng.standard_normal(d) * 0.1).astype(np.float32)
    table = rng.standard_normal(
        (heads, (2 * window - 1) ** 2)).astype(np.float32)
    return AttentionParams(qkv_weight, qkv_bias, out_weight, out_bias,
                           expand_relative_bias(table, window)), table


def test_criterion_3_nested_residual_trace():
    rng = np.random.default_rng(3003)
    ok = True
    for i in range(100):
        channels = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        hw = k * int(rng.integers(1, 5))
        params = NestedResidualParams(
            conv1_weight=rng.standard_normal((channels, channels, 3, 3))
            .astype(np.float32),
            bn1=BatchNormParams.identity(channels),
            conv2_weight=rng.standard_normal((channels, channels, 3, 3))
            .astype(np.float32),
            bn2=BatchNormParams.identity(channels),
            pool_factor=k,
        )
        x = rng.standard_normal((channels, hw, hw)).astype(np.float32)
        out, trace = nested_residual_forward(x, params)
        if out.shape != x.shape:
            ok = False
            break
        merged = trace.activated + trace.upsampled
        if trace.merged.tobytes() != merged.tobytes():
            ok = False
            break
        if k == 1:
            doubled = np.float32(2.0) * trace.activated
            if trace.merged.tobytes() != doubled.tobytes():
                ok = False
                break
    # explicit degenerate case
    params = NestedResidualParams(
        conv1_weight=rng.standard_normal((2, 2, 3, 3)).astype(np.float32),
        bn1=BatchNormParams.identity(2),
        conv2_weight=rng.standard_normal((2, 2, 3, 3)).astype(np.float32),
        bn2=BatchNormParams.identity(2),
        pool_factor=1,
    )
    x = rng.standard_normal((2, 5, 5)).astype(np.float32)
    _, trace = nested_residual_forward(x, params)
    doubled = np.float32(2.0) * trace.activated
    ok = ok and trace.merged.tobytes() == doubled.tobytes()
    _verdict(3, ok)


def _sweep_oracle(bona, attack):
    uniq = sorted(set(bona) | set(attack))
    taus = [uniq[0] - 1.0] + uniq + [uniq[-1] + 1.0]
    out = []
    for tau in taus:
        apcer = sum(1 for a in attack if a >= tau) / len(attack)
        bpcer = sum(1 for b in bona if b < tau) / len(bona)
        out.append((tau, apcer, bpcer))
    return out


def test_criterion_4_metrics_oracle():
    rng = np.random.default_rng(4004)
    ok = True
    for _ in range(500):
        bona = list(rng.random(int(rng.integers(1, 101))))
        attack = list(rng.random(int(rng.integers(1, 101))))
        s = ScoreSet(bonafide=bona, attack=attack)
        sweep = _sweep_oracle(bona, attack)
        # monotonicity across the full sweep
        for (t1, a1, b1), (t2, a2, b2) in zip(sweep, sweep[1:]):
            if a2 > a1 or b2 < b1:
                ok = False
        # exact EER agreement
        best = min(sweep, key=lambda p: (abs(p[1] - p[2]), p[0]))
        if eer(s) != ((best[1] + best[2]) / 2.0, best[0]):
            ok = False
        # exact BPCER @ APCER agreement
        for alpha in (0.05, 0.10):
            qualifying = [(b, t) for t, a, b in sweep if a <= alpha]
            if bpcer_at_apcer(s, alpha) != min(qualifying):
                ok = False
        if not ok:
            break
    gauss = synth_scores(1.0, 0.0, 0.5, 10_000, seed=4242)
    rate, _ = eer(gauss)
    analytic = 0.5 * math.erfc(1.0 / math.sqrt(2.0))  # standard normal at -1
    gauss_ok = abs(rate - analytic) <= 0.02
    _verdict(4, ok and gauss_ok,
             f"gaussian eer {rate:.4f} vs {analytic:.4f}")


def test_criterion_5_complexity_oracle():
    rng = np.random.default_rng(5005)
    ok = True
    for _ in range(200):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            groups = int(rng.integers(1, 4))
            c_in = groups * int(rng.integers(1, 4))
            c_out = groups * int(rng.integers(1, 4))
            k_h, k_w = (int(v) for v in rng.integers(1, 4, 2))
            h_out, w_out = (int(v) for v in rng.integers(1, 5, 2))
            macs, _ = macs_conv2d(c_in, c_out, k_h, k_w, h_out, w_out, groups)
            count = 0
            for _g in range(groups):
                for _co in range(c_out // groups):
                    for _p in range(h_out * w_out):
                        for _ci in range(c_in // groups):
                            for _t in range(k_h * k_w):
                                count += 1
            ok = ok and macs == count
        elif kind == 1:
            d_in, d_out, tokens = (int(v) for v in rng.integers(1, 9, 3))
            macs, _ = macs_linear(d_in, d_out, tokens)
            count = 0
            for _t in range(tokens):
                for _o in range(d_out):
                    for _i in range(d_in):
                        count += 1
            ok = ok and macs == count
        else:
            heads = int(rng.integers(1, 4))
            d = heads * int(rng.integers(1, 4))
            window = int(rng.integers(1, 4))
            n_windows = int(rng.integers(0, 4))
            macs, _ = macs_window_attention(d, heads, window, n_windows)
            n = window * window
            count = 0
            for _w in range(n_windows):
                for _t in range(n):
                    for _o in range(3 * d):
                        for _i in range(d):
                            count += 1
                for _h in range(heads):
                    for _q in range(n):
                        for _k in range(n):
                            for _c in range(d // heads):
                                count += 2  # logit and weighted-value
                for _t in range(n):
                    for _o in range(d):
                        for _i in range(d):
                            count += 1
            ok = ok and macs == count
        if not ok:
            break

    report = model_complexity(ModelConfig.desk())
    ok = ok and report.total_macs == sum(l.macs for l in report.layers)
    ok = ok and report.total_params == sum(l.params for l in report.layers)
    parsed = json.loads(json.dumps(report.to_json_dict()))
    ok = ok and {"layers", "total_macs", "total_params", "gmacs"} <= set(parsed)
    ok = ok and all({"name", "macs", "params"} == set(l)
                    for l in parsed["layers"])
    _verdict(5, ok)


def test_criterion_6_paper_preset_smoke(tmp_path):
    rng = np.random.default_rng(6006)
    img = ColorImage(width=112, height=112, space=ColorSpace.RGB,
                     pixels=rng.integers(0, 256, (112, 112, 3),
                                         dtype=np.uint8))
    ppm = to_ppm_bytes(img)
    from chromapad.colorspace import load_ppm

    start = time.monotonic()
    model = build_model(ModelConfig.paper(seed=99))
    score, _ = forward(model, load_ppm(ppm))
    elapsed = time.monotonic() - start
    cfg = model.config
    in_range = 0.0 <= score <= 1.0
    dims_ok = (cfg.embed_dim, cfg.num_heads, cfg.window) == (768, 24, 7) \
        and cfg.embed_dim // cfg.num_heads == 32 \
        and cfg.window ** 2 == 49

    plain_report = model_complexity(ModelConfig.paper(seed=99))
    dq_report = model_complexity(ModelConfig.paper(seed=99, dq_enabled=True))
    macs_unchanged = plain_report.total_macs == dq_report.total_macs
    bytes_shrink = dq_report.param_bytes < plain_report.param_bytes

    # 4 -> 1 bytes per weight element on the quantized tensors
    from chromapad.quant import quantize_model

    _, qreport = quantize_model(model.weights)
    per_tensor_ok = all(
        row.bytes_before == 4 * row.elements
        and row.bytes_after == row.elements + 16
        for row in qreport.tensors if row.quantized
    )
    _verdict(6, in_range and dims_ok and elapsed < 5.0 and macs_unchanged
             and bytes_shrink and per_tensor_ok,
             f"score {score:.4f} in {elapsed:.2f}s")


EXPECTED_TOGGLE_ROWS = [
    "✓,x,x,✓,✓,x",
    "✓,✓,x,✓,✓,x",
    "✓,x,✓,✓,✓,x",
    "✓,✓,✓,✓,x,x",
    "✓,✓,✓,x,✓,x",
    "✓,✓,✓,✓,✓,x",
    "✓,✓,✓,✓,✓,✓",
]


def test_criterion_7_ablation_structure(tmp_path, capsys):
    grid = standard_ablation_grid(ModelConfig.desk(seed=1))
    entries = []
    for i, cfg in enumerate(grid):
        scores = synth_scores(0.8, 0.2, 0.3, 200, seed=700 + i)
        path = tmp_path / f"row{i}.csv"
        path.write_text(write_scores_csv(scores), encoding="utf-8")
        entries.append({"config": cfg.to_json_dict(), "scores": path.name})
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(entries), encoding="utf-8")
    out_path = tmp_path / "table.csv"
    rc = main(["ablate", "--grid", str(grid_path),
               "--scores-dir", str(tmp_path), "--out", str(out_path)])
    text = out_path.read_text("utf-8")
    lines = text.strip().split("\n")
    toggles = [",".join(line.split(",")[:6]) for line in lines[1:]]
    header_ok = lines[0] == ("rgb,hsv,ycbcr,bottleneck_attention,"
                             "residual_block,dq,bpcer_at_apcer_5pct,"
                             "bpcer_at_apcer_10pct")
    cells_numeric = all(
        float(line.split(",")[6]) >= 0 and float(line.split(",")[7]) >= 0
        for line in lines[1:]
    )
    _verdict(7, rc == 0 and header_ok and toggles == EXPECTED_TOGGLE_ROWS
             and cells_numeric and len(lines) == 8)


def _make_pipeline_inputs(shared, seed):
    """Images and config are pipeline inputs, created once and shared."""
    shared.mkdir(parents=True, exist_ok=True)
    cfg = ModelConfig(
        input_size=16, embed_dim=8, num_heads=2, window=2, pool_factor=2,
        backbone=(dict(out_channels=4, stride=2),
                  dict(out_channels=8, stride=2)),
        seed=seed,
    )
    cfg_path = shared / "config.json"
    save_config(cfg, cfg_path)
    rng = np.random.default_rng(808)
    image_paths = []
    for i in range(4):
        img = ColorImage(width=16, height=16, space=ColorSpace.RGB,
                         pixels=rng.integers(0, 256, (16, 16, 3),
                                             dtype=np.uint8))
        p = shared / f"img{i}.ppm"
        p.write_bytes(to_ppm_bytes(img))
        image_paths.append(p)
    return cfg, cfg_path, image_paths


def _run_pipeline(root, cfg, cfg_path, image_paths):
    """infer -> quantize -> infer -> eval -> gmacs, returning artifact bytes."""
    root.mkdir(parents=True, exist_ok=True)
    weights = root / "model.cfpa"
    save_weights(build_model(cfg), weights)

    infer1 = root / "scores_float.csv"
    rc = main(["infer", "--config", str(cfg_path), "--weights", str(weights),
               "--image", str(image_paths[0]), "--image", str(image_paths[1]),
               "--image", str(image_paths[2]), "--image", str(image_paths[3]),
               "--out", str(infer1)])
    assert rc == 0

    quantized = root / "model_quant.cfpa"
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["quantize", "--weights", str(weights),
                   "--out", str(quantized)])
    assert rc == 0
    (root / "quant_report.json").write_text(buf.getvalue(), encoding="utf-8")

    infer2 = root / "scores_quant.csv"
    rc = main(["infer", "--config", str(cfg_path),
               "--weights", str(quantized),
               "--image", str(image_paths[0]), "--image", str(image_paths[1]),
               "--image", str(image_paths[2]), "--image", str(image_paths[3]),
               "--out", str(infer2)])
    assert rc == 0

    # label the float-weight scores as bona fide and the quantized-weight
    # scores as attack: a deterministic, purely mechanical pairing
    labeled = root / "labeled.csv"
    rows = ["label,score"]
    for line in infer1.read_text("utf-8").strip().split("\n"):
        rows.append("bonafide," + line.rsplit(",", 1)[1])
    for line in infer2.read_text("utf-8").strip().split("\n"):
        rows.append("attack," + line.rsplit(",", 1)[1])
    labeled.write_text("\n".join(rows) + "\n", encoding="utf-8")

    eval_out = root / "eval.json"
    det_out = root / "det.csv"
    rc = main(["eval", "--scores", str(labeled), "--det", str(det_out),
               "--out", str(eval_out)])
    assert rc == 0

    gmacs_out = root / "gmacs.json"
    rc = main(["gmacs", "--config", str(cfg_path), "--out", str(gmacs_out)])
    assert rc == 0

    artifacts = [weights, infer1, quantized, root / "quant_report.json",
                 infer2, labeled, eval_out, det_out, gmacs_out]
    return b"".join(p.read_bytes() for p in artifacts)


def test_criterion_8_pipeline_determinism(tmp_path):
    cfg, cfg_path, images = _make_pipeline_inputs(tmp_path / "in", seed=31337)
    run1 = _run_pipeline(tmp_path / "run1", cfg, cfg_path, images)
    run2 = _run_pipeline(tmp_path / "run2", cfg, cfg_path, images)
    _verdict(8, run1 == run2, f"{len(run1)} artifact bytes compared")
