"""Fast self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks that
the last line names every metric of BENCHMARK.json with its unit. Then it
checks that the output checks trip on one flipped score bit, that the self
times along ``model.forward`` add up to its traced duration, and that the
benchmark refuses to run, printing no result, without the package source.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
TIMEOUT_S = 170


def run_bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_metric_lines(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace),
                             "--size", "tiny")
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, \
                (workload, trace, result, proc.stderr)
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) \
                    and math.isfinite(m["value"]), (workload, name, m)
            print(f"ok   {workload} --trace {trace}: "
                  f"{len(got)} metrics, {result['attempted']} ops")


def flip_low_bit(x):
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    (y,) = struct.unpack("<d", struct.pack("<Q", bits ^ 1))
    return y


def expect_check_error(fn, what):
    try:
        fn()
    except checks.CheckError as exc:
        print(f"ok   {what} trips the check: {exc}")
    else:
        raise AssertionError(f"{what} passed the output check")


def check_flipped_bits(workdir):
    desk = workloads.DeskStream(workdir, 0, tiny=False)
    desk.setup(0)
    for i in range(workloads.DIGEST_DESK_IMAGES):
        desk.prepare(i)
        score = desk.op(i)
        desk.check(i, flip_low_bit(score) if i == 5 else score)
    expect_check_error(
        lambda: checks.verify_digest(desk.name, desk.finish()),
        "desk_stream score with one flipped bit")
    desk.scores[5] = flip_low_bit(desk.scores[5])
    checks.verify_digest(desk.name, desk.finish())
    expect_check_error(lambda: checks.check_score(math.nextafter(1.0, 2.0)),
                       "score just above 1")

    paper = workloads.PaperDqInfer(workdir, 0, tiny=True)
    paper.setup(0)
    paper.prepare(0)
    paper.check(0, paper.op(0))
    with open(paper.out_path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    path, _, raw = rows[1].rpartition(",")
    flipped = repr(flip_low_bit(float(raw)))
    rows[1] = f"{path},{flipped}"
    with open(paper.out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    expect_check_error(lambda: paper.check(1, 0),
                       "paper_dq_infer score with one flipped bit")

    ev = workloads.EvalBulk(workdir, 0, tiny=True)
    ev.setup(0)
    with open(ev.report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    report["eer"] = flip_low_bit(report["eer"])
    with open(ev.report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    expect_check_error(lambda: ev.check(0, 0),
                       "eval_bulk EER with one flipped bit")


def check_accounting(workdir):
    desk = workloads.DeskStream(workdir, 0, tiny=True)
    desk.setup(0)
    desk.prepare(0)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("op"):
        desk.op(0)
    n, totals = tracing.summarize(tracer.spans, "model.forward")
    self_ns = sum(t["self_ns"] for t in totals.values())
    assert n == 1 and self_ns == totals["model.forward"]["incl_ns"], totals
    print(f"ok   self times along model.forward add up to "
          f"{self_ns / 1e6:.3f} ms over {len(totals)} layers")


def check_refuses_without_source(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("--workload", "desk_stream", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok   without src/ the benchmark exits {proc.returncode} "
          f"and prints no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metric_lines(spec)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
    try:
        check_flipped_bits(workdir)
        check_accounting(workdir)
        check_refuses_without_source(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import tracing
    import workloads
    sys.exit(main())
