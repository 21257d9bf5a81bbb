"""chromapad benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_stream --seed 0 --seconds 30 --trace 0

Workloads are desk_stream, paper_dq_infer and eval_bulk (see
``workloads.py`` for what each op is and why it was chosen). The package
is imported from the checkout's ``src/``; without it the run exits 2 and
prints no result. ``python3 perfbench/selftest.py`` checks the benchmark.

``--trace 0`` times ops untraced and reports the end-to-end metrics:

* op_p50_ms - median op latency;
* items_per_s - images scored per second of timed wall time on the scoring
  workloads, score-CSV rows evaluated per second on eval_bulk;
* setup_s - the median time of ``import chromapad`` in a fresh interpreter
  plus the median of the workload's ``setup_reps`` repetitions of the
  model and weight preparation a user pays once before the first op, first
  warm-up op included;
* peak_rss_mb - peak resident memory of this process.

``--trace 1`` runs every second op traced and reports per-layer self
times, inclusive block times and counts per traced op, derived from spans
recorded around calls into each module (``tracing.py``), plus the tracing
overhead (traced minus untraced op_p50_ms). The spans are written to
``.perfbench_out/trace_<workload>_seed<seed>_{setup,ops}.csv``.

Every op's output is checked (``checks.py``); an op that raises or fails
its check counts as failed. Lines before the last describe the run and its
environment; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
NPROC = len(os.sched_getaffinity(0))


def cap_threads():
    """Cap every thread pool at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


THREAD_CAPS = cap_threads()

DEFAULT_SEED = 0
IMPORT_REPS = 3
WARMUP_INDEX = 10 ** 6  # op indices of untimed warm-up ops
# stop starting ops after this long, so a run ends within 180 s even on a
# machine several times slower than expected
HARD_DEADLINE_S = 130.0
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_stream", "paper_dq_infer", "eval_bulk"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    return p.parse_args(argv)


def import_package():
    """Import chromapad from this checkout.

    Returns the median seconds ``import chromapad`` takes in a fresh
    interpreter, over IMPORT_REPS child processes.
    """
    if not os.path.isfile(os.path.join(SRC, "chromapad", "__init__.py")):
        print(f"perfbench: no chromapad package under {SRC}", file=sys.stderr)
        sys.exit(2)
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import chromapad; "
             "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPS):
        child = subprocess.run([sys.executable, "-c", probe, SRC],
                               capture_output=True, text=True, check=True,
                               timeout=60)
        times.append(float(child.stdout))
    sys.path.insert(0, SRC)
    import chromapad  # noqa: F401
    return statistics.median(times)


def measure(wl, seconds, min_ops, first_index, started, tracer=None):
    """Closed loop of timed ops; returns (latencies in s, ok, traced) lists.

    With a tracer every second op runs traced, so traced and untraced ops
    see the same machine conditions and the difference of their medians
    is the tracing overhead.
    """
    latencies, ok, traced = [], [], []
    begin = time.perf_counter()
    i = first_index
    while True:
        now = time.perf_counter()
        done = len(latencies)
        # stop once the next op, as long as the last, would overrun
        if done >= min_ops and (not done
                                or now - begin + latencies[-1] > seconds):
            break
        if done and now - started >= HARD_DEADLINE_S:
            print(f"hard deadline: stopped after {done} ops", file=sys.stderr)
            break
        trace_op = tracer is not None and done % 2 == 1
        error = None
        with tracer.installed() if trace_op else contextlib.nullcontext():
            wl.prepare(i)
            t0 = time.perf_counter()
            try:
                if trace_op:
                    with tracer.span("op"):
                        out = wl.op(i)
                else:
                    out = wl.op(i)
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                wl.check(i, out)
            except Exception as exc:  # so does one whose output is wrong
                error = exc
        if error is not None:
            print(f"op {i} failed: {error!r}", file=sys.stderr)
        ok.append(error is None)
        traced.append(trace_op)
        i += 1
    return latencies, ok, traced


def environment():
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    import numpy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "kernel_path": "numba" if has_numba else "pure numpy",
        "nproc": NPROC,
        "thread_caps": THREAD_CAPS,
    }


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_units():
    """Units of every metric, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def layer_metrics(spans, setup_spans, wl, untraced, traced):
    """Per-layer metrics per op from the traced phase's spans."""
    import tracing

    n_ops, t = tracing.summarize(spans, "op")
    n_setup, s = tracing.summarize(setup_spans, "setup")

    def get(totals, name, key):
        return totals.get(name, {}).get(key, 0)

    def ms(name, totals=t, n=n_ops):
        return get(totals, name, "self_ns") / n / 1e6

    def total_ms(name):
        return get(t, name, "incl_ns") / n_ops / 1e6

    def per_op(name, key):
        return get(t, name, key) / n_ops

    def rate(macs, ns):
        return macs / ns if ns else 0.0  # MACs per ns is GMAC/s

    images = n_ops * wl.items_per_op if wl.macs_per_image else 0
    m = {
        "blocks.backbone_ms": ms("blocks.backbone"),
        "blocks.bottleneck_ms": ms("blocks.bottleneck"),
        "blocks.fuse_ms": ms("blocks.fuse"),
        "blocks.residual_ms": ms("blocks.residual"),
        "blocks.classifier_ms": ms("blocks.classifier"),
        "blocks.backbone_total_ms": total_ms("blocks.backbone"),
        "blocks.bottleneck_total_ms": total_ms("blocks.bottleneck"),
        "blocks.fuse_total_ms": total_ms("blocks.fuse"),
        "blocks.residual_total_ms": total_ms("blocks.residual"),
        "blocks.classifier_total_ms": total_ms("blocks.classifier"),
        "attention.window_attention_ms": ms("attention.window_attention"),
        "attention.window_attention_total_ms":
            total_ms("attention.window_attention"),
        "attention.head_ms": ms("attention.head"),
        "attention.head_calls": per_op("attention.head", "calls"),
        "colorspace.convert_ms": ms("colorspace.convert"),
        "colorspace.load_ppm_ms": ms("colorspace.load_ppm"),
        "tensor_ops.conv2d_ms": ms("tensor_ops.conv2d"),
        "tensor_ops.conv2d_calls": per_op("tensor_ops.conv2d", "calls"),
        "tensor_ops.conv2d_bytes_computed":
            per_op("tensor_ops.conv2d", "bytes"),
        "tensor_ops.matmul_ms": ms("tensor_ops.matmul"),
        "tensor_ops.matmul_calls": per_op("tensor_ops.matmul", "calls"),
        "tensor_ops.matmul_macs": per_op("tensor_ops.matmul", "macs"),
        "tensor_ops.matmul_gmacs_per_s":
            rate(get(t, "tensor_ops.matmul", "macs"),
                 get(t, "tensor_ops.matmul", "self_ns")),
        "tensor_ops.matmul_bytes_computed":
            per_op("tensor_ops.matmul", "bytes"),
        "quant.dequantize_ms": ms("quant.dequantize"),
        "quant.dequantize_calls": per_op("quant.dequantize", "calls"),
        "quant.dequantize_bytes_computed":
            per_op("quant.dequantize", "bytes"),
        "quant.quantize_model_ms": ms("quant.quantize_model"),
        "model.read_tensor_file_ms": ms("model.read_tensor_file"),
        "model.load_weights_ms": ms("model.load_weights"),
        "model.write_tensor_file_ms": ms("model.write_tensor_file"),
        "model.forward_ms": total_ms("model.forward"),
        "model.forward_self_ms": ms("model.forward"),
        "model.gmacs_per_s": rate(wl.macs_per_image * images,
                                  get(t, "model.forward", "incl_ns")),
        "complexity.macs_per_image": wl.macs_per_image,
        "metrics.read_scores_csv_ms": ms("metrics.read_scores_csv"),
        "metrics.det_curve_ms": ms("metrics.det_curve"),
        "metrics.det_curve_calls_per_op": per_op("metrics.det_curve", "calls"),
        "metrics.evaluate_scores_ms": ms("metrics.evaluate_scores"),
        "metrics.write_det_csv_ms": ms("metrics.write_det_csv"),
        "cli.main_self_ms": ms("cli.main"),
        "setup.model.build_model_ms": ms("model.build_model", s, n_setup),
        "setup.model.write_tensor_file_ms":
            ms("model.write_tensor_file", s, n_setup),
        "setup.model.read_tensor_file_ms":
            ms("model.read_tensor_file", s, n_setup),
        "setup.quant.quantize_model_ms":
            ms("quant.quantize_model", s, n_setup),
        "trace.overhead_ms": (statistics.median(traced)
                              - statistics.median(untraced)) * 1e3,
        "trace.spans_per_op": sum(v["calls"] for v in t.values()) / n_ops,
    }

    n_fw, f = tracing.summarize(spans, "model.forward")
    if n_fw:
        child_ms = sum(v["self_ns"] for k, v in f.items()
                       if k != "model.forward") / n_ops / 1e6
        print(f"accounting per traced op: model.forward "
              f"{m['model.forward_ms']:.4f} ms = "
              f"{m['model.forward_self_ms']:.4f} ms self + {child_ms:.4f} ms "
              f"child self times; op p50 traced "
              f"{statistics.median(traced) * 1e3:.4f} ms, untraced "
              f"{statistics.median(untraced) * 1e3:.4f} ms, overhead "
              f"{m['trace.overhead_ms']:.4f} ms")
    return m


def main(argv=None):
    started = time.perf_counter()
    args = parse_args(argv)
    import_s = import_package()

    import checks
    import tracing
    from workloads import WORKLOADS

    tiny = args.size == "tiny"
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl = WORKLOADS[args.workload](workdir, args.seed, tiny)
        min_ops = 2 if tiny else wl.min_ops
        tracer = tracing.Tracer() if args.trace else None
        setup_tracer = tracing.Tracer() if args.trace else None

        setup_times = []
        for rep in range(wl.setup_reps):
            t0 = time.perf_counter()
            if tracer is None:
                wl.setup(rep)
            else:
                with setup_tracer.installed(), setup_tracer.span("setup"):
                    wl.setup(rep)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        measure(wl, 0.0, wl.warmup_ops, WARMUP_INDEX, started)
        if tracer is not None:
            min_ops = max(min_ops, 4)  # at least two traced, two untraced
        latencies, ok, traced = measure(wl, args.seconds, min_ops, 0,
                                        started, tracer)

        try:
            digest = wl.finish()
        except checks.CheckError as exc:
            print(f"end-of-run check failed: {exc}", file=sys.stderr)
            ok[0] = False
            digest = None
        if args.seed == DEFAULT_SEED and not tiny:
            try:
                checks.verify_digest(wl.name, digest)
            except checks.CheckError as exc:
                print(exc, file=sys.stderr)
                covered = min(wl.digest_ops or len(ok), len(ok))
                ok[:covered] = [False] * covered
        failed = ok.count(False)
        correct = failed == 0

        n = len(latencies)
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {wl.name} seed {args.seed} size {args.size} "
              f"trace {args.trace}: {n} ops of {wl.items_per_op} "
              f"{wl.unit}, setup reps {wl.setup_reps}")
        print(f"output digest {digest} (stored for seed {DEFAULT_SEED}: "
              f"{checks.stored_digest(wl.name)})")
        print(f"failed_share {failed / n:.6g} ({failed} of {n} ops)")

        units = metric_units()
        if tracer is None:
            timed_s = sum(latencies)
            values = {
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "items_per_s": wl.items_per_op * n / timed_s,
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            print(f"{wl.unit}_per_s {values['items_per_s']:.6g} "
                  f"over {timed_s:.3f} s of timed wall time")
            if n >= P90_MIN_SAMPLES:
                p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
                print(f"op_p90_ms {p90:.6g} (n={n})")
            else:
                print(f"op_p90_ms not reported: n={n} < {P90_MIN_SAMPLES}")
            print(f"setup_s parts: import {import_s:.4f} s, reps "
                  + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
        else:
            values = layer_metrics(
                tracer.spans, setup_tracer.spans, wl,
                [t for t, f in zip(latencies, traced) if not f],
                [t for t, f in zip(latencies, traced) if f])
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            for phase, t in (("setup", setup_tracer), ("ops", tracer)):
                path = os.path.join(
                    out_dir, f"trace_{wl.name}_seed{args.seed}_{phase}.csv")
                t.write_csv(path)
                print(f"trace: {len(t.spans)} {phase} spans written to "
                      f"{path}")
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
