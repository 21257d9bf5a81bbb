"""Output checks, computed without the package under test.

Scores must be finite bona fide probabilities in [0, 1]. At the default
seed a SHA-256 over the output bits must match the digest stored in
``digests.json``, since chromapad promises bit-identical results. PAD
metrics are recomputed by brute force: every candidate threshold is
compared against every score, following the definitions in the
``chromapad.metrics`` docstring (accept iff score >= threshold, thresholds
are the unique scores plus one sentinel 1.0 below the minimum and one 1.0
above the maximum, EER is the rate midpoint at the smallest threshold
minimizing |APCER - BPCER|).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "digests.json")
DET_HEADER = "threshold,apcer,bpcer"


class CheckError(Exception):
    """An op's output is wrong."""


def check_score(score):
    if not isinstance(score, float) or not math.isfinite(score) \
            or not 0.0 <= score <= 1.0:
        raise CheckError(f"score {score!r} is not a finite value in [0, 1]")


def float_bits_digest(scores):
    """SHA-256 over the little-endian float64 bits of ``scores``."""
    return hashlib.sha256(
        b"".join(struct.pack("<d", s) for s in scores)).hexdigest()


def text_digest(parts):
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def stored_digest(workload):
    with open(DIGEST_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def verify_digest(workload, digest):
    """Raise unless ``digest`` matches the one stored for the default seed."""
    expected = stored_digest(workload)
    if digest is None or digest != expected:
        raise CheckError(f"{workload} output digest {digest} differs from "
                         f"the stored {expected}")


def parse_infer_csv(text, image_paths):
    """Score strings of a ``chromapad infer`` CSV, one row per image."""
    rows = text.splitlines()
    if len(rows) != len(image_paths):
        raise CheckError(f"infer wrote {len(rows)} rows for "
                         f"{len(image_paths)} images")
    scores = []
    for row, path in zip(rows, image_paths):
        got_path, sep, raw = row.rpartition(",")
        if not sep or got_path != path:
            raise CheckError(f"infer row {row!r} does not belong to {path!r}")
        try:
            value = float(raw)
        except ValueError:
            raise CheckError(f"infer score {raw!r} is not a number") from None
        check_score(value)
        scores.append(raw)
    return scores


def brute_force_pad(bonafide, attack, alphas, chunk=1024):
    """Expected ``chromapad eval`` report and DET CSV text."""
    bonafide = np.asarray(bonafide, np.float64)
    attack = np.asarray(attack, np.float64)
    uniq = np.unique(np.concatenate([bonafide, attack]))
    taus = np.concatenate([[uniq[0] - 1.0], uniq, [uniq[-1] + 1.0]])
    accepted = np.empty(taus.size, np.int64)
    rejected = np.empty(taus.size, np.int64)
    for i in range(0, taus.size, chunk):
        t = taus[i:i + chunk, None]
        accepted[i:i + chunk] = np.count_nonzero(attack[None, :] >= t, axis=1)
        rejected[i:i + chunk] = np.count_nonzero(bonafide[None, :] < t, axis=1)
    apcer = [int(a) / attack.size for a in accepted]
    bpcer = [int(r) / bonafide.size for r in rejected]
    taus = [float(t) for t in taus]

    best = min(range(len(taus)),
               key=lambda i: (abs(apcer[i] - bpcer[i]), taus[i]))
    report = {"eer": (apcer[best] + bpcer[best]) / 2.0,
              "threshold": taus[best], "bpcer_at": {}}
    for alpha in alphas:
        ok = [i for i in range(len(taus)) if apcer[i] <= alpha]
        i = min(ok, key=lambda i: (bpcer[i], taus[i]))
        report["bpcer_at"][f"{alpha:g}"] = bpcer[i]
    det = [DET_HEADER] + [f"{t:.10g},{a:.10g},{b:.10g}"
                          for t, a, b in zip(taus, apcer, bpcer)]
    return report, "\n".join(det) + "\n", uniq.size


def check_eval_output(report_text, det_text, expected_report, expected_det,
                      unique_scores):
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"eval report is not JSON: {exc}") from None
    for key in ("eer", "threshold"):
        if report.get(key) != expected_report[key]:
            raise CheckError(f"eval {key} {report.get(key)!r}, brute force "
                             f"gives {expected_report[key]!r}")
    if report.get("bpcer_at") != expected_report["bpcer_at"]:
        raise CheckError(f"eval bpcer_at {report.get('bpcer_at')!r}, brute "
                         f"force gives {expected_report['bpcer_at']!r}")
    rows = det_text.count("\n") - 1
    if rows != unique_scores + 2:
        raise CheckError(f"DET CSV has {rows} rows for {unique_scores} "
                         f"unique scores; expected {unique_scores + 2}")
    if det_text != expected_det:
        raise CheckError("DET CSV differs from the brute-force sweep")
