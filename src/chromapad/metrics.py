"""ISO-style presentation-attack-detection metrics over labeled score sets.

Scores are bona fide confidences and the decision rule is "bona fide iff
score >= threshold" (ties accepted as bona fide). APCER at a threshold is
the fraction of attack scores accepted; BPCER is the fraction of bona fide
scores rejected. The DET curve sweeps every unique score plus one sentinel
below the minimum and one above the maximum. EER on discrete data is the
midpoint of the two rates at the threshold minimizing their gap. A score's
magnitude stays below 2**1023, so every sentinel is finite, and so is its
ten-digit rendering in a DET CSV.

Every operating point is read by index from one array sweep: thresholds
ascend, APCER never rises and BPCER never falls along it, so the EER is the
first argmin of |APCER - BPCER| (the smallest threshold on ties) and the
BPCER at an APCER cap is the one at the first index with APCER <= cap.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ScoreCsvError

SCORE_CSV_HEADER = ("label", "score")
DET_CSV_HEADER = ("threshold", "apcer", "bpcer")
_APCER_CAPS = (0.05, 0.10)  # default operating points of every report
# scores of this magnitude or more are rejected: a sentinel would overflow
_SCORE_BOUND = 2.0 ** 1023
_DET_ROW = "%.10g,%.10g,%.10g\n"
_DET_CHUNK_ROWS = 8192  # rows per format call: bounds the temporaries
# a plain score row's first bytes as little-endian words, and a 7-byte mask
_BONAFIDE = np.uint64(int.from_bytes(b"bonafide", "little"))
_ATTACK = np.uint64(int.from_bytes(b"attack,", "little"))
_BYTES7 = np.uint64(2 ** 56 - 1)
_POW10 = np.array([10 ** k for k in range(16)], np.float64)  # all exact


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Labeled score lists; both non-empty, every magnitude below 2**1023.

    The set holds read-only float64 copies of its lists, so its DET sweep,
    computed on first use, never goes stale.
    """

    bonafide: np.ndarray
    attack: np.ndarray

    def __post_init__(self):
        for name in ("bonafide", "attack"):
            arr = np.array(getattr(self, name), np.float64).reshape(-1)
            if arr.size == 0:
                raise ConfigError(f"score set has no {name} scores")
            if not (np.abs(arr) < _SCORE_BOUND).all():  # NaN compares False
                raise ConfigError(f"{name} scores contain non-finite values "
                                  f"or magnitudes of 2**1023 or more")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def sweep(self):
        """Read-only (taus, apcer, bpcer) float64 arrays of the DET sweep,
        computed once per set; see `det_curve`."""
        arrays = _sweep(self)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays


@dataclass(frozen=True)
class DetPoint:
    threshold: float
    apcer: float
    bpcer: float


def apcer_at(s: ScoreSet, tau: float) -> float:
    """Fraction of attack scores accepted as bona fide at ``tau``."""
    return int(np.count_nonzero(s.attack >= tau)) / s.attack.size


def bpcer_at(s: ScoreSet, tau: float) -> float:
    """Fraction of bona fide scores rejected as attacks at ``tau``."""
    return int(np.count_nonzero(s.bonafide < tau)) / s.bonafide.size


def _sweep(s: ScoreSet):
    """(taus, apcer, bpcer) float64 arrays of the DET sweep; read it through
    the cached `ScoreSet.sweep`."""
    uniq = np.unique(np.concatenate([s.bonafide, s.attack]))
    lo, hi = uniq[0], uniq[-1]
    taus = np.concatenate([[lo - 1.0 if lo - 1.0 < lo else lo - abs(lo) / 2],
                           uniq,
                           [hi + 1.0 if hi + 1.0 > hi else hi + abs(hi) / 2]])
    below_attack = np.searchsorted(np.sort(s.attack), taus, side="left")
    below_bona = np.searchsorted(np.sort(s.bonafide), taus, side="left")
    apcer = (s.attack.size - below_attack) / s.attack.size
    return taus, apcer, below_bona / s.bonafide.size


def det_curve(s: ScoreSet):
    """One `DetPoint` per candidate threshold, ascending.

    Thresholds are the sorted unique scores of both lists plus a sentinel
    below the minimum and one above the maximum, so the curve always spans
    from (apcer, bpcer) = (1, 0) to (0, 1). The sentinels sit 1.0 beyond
    the extremes, or |extreme| / 2 beyond where a step of 1.0 would round
    away (a whole |extreme| may print as 1.797693135e+308, an infinity).
    APCER is non-increasing and BPCER non-decreasing along the sweep.
    """
    return [DetPoint(threshold=t, apcer=a, bpcer=b)
            for t, a, b in zip(*(arr.tolist() for arr in s.sweep))]


def _operating_point(sweep, alpha=None):
    """(rate, threshold) of the EER (``alpha`` None) or of the minimum BPCER
    with APCER <= ``alpha`` over a `ScoreSet.sweep`, ties to the smaller
    threshold.

    Read by index (see the module docstring): the points with APCER <= alpha
    form a suffix of the sweep, and BPCER is smallest at its first index.
    """
    taus, apcer, bpcer = sweep
    if alpha is None:
        i = int(np.argmin(np.abs(apcer - bpcer)))
        return (float(apcer[i]) + float(bpcer[i])) / 2.0, float(taus[i])
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    i = int(np.argmax(apcer <= alpha))
    return float(bpcer[i]), float(taus[i])


def eer(s: ScoreSet):
    """(equal error rate, threshold) over the DET sweep.

    Picks the threshold minimizing |APCER - BPCER| (smallest threshold on
    ties) and reports the midpoint of the two rates there.
    """
    return _operating_point(s.sweep)


def bpcer_at_apcer(s: ScoreSet, alpha: float):
    """(minimum BPCER among points with APCER <= alpha, its threshold).

    The above-maximum sentinel guarantees a point with APCER = 0, so the
    minimum always exists; the smallest qualifying threshold achieving it
    is reported.
    """
    return _operating_point(s.sweep, alpha)


def synth_scores(mu_bonafide: float, mu_attack: float, sigma: float,
                 n: int, seed: int) -> ScoreSet:
    """Two labeled Gaussian samples from a seeded PCG64 generator.

    Draws ``n`` bona fide scores from N(mu_bonafide, sigma^2) and then
    ``n`` attack scores from N(mu_attack, sigma^2), in that order, from a
    single numpy PCG64 stream; equal arguments give identical sets.
    """
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    bona = rng.normal(mu_bonafide, sigma, n)
    attack = rng.normal(mu_attack, sigma, n)
    return ScoreSet(bonafide=bona, attack=attack)


def evaluate_scores(s: ScoreSet, alphas=_APCER_CAPS):
    """EER, its threshold, and BPCER at each APCER cap, from the set's DET
    sweep; two caps that render as one key are a ConfigError."""
    sweep = s.sweep
    rate, tau = _operating_point(sweep)
    bpcer_block, caps = {}, {}
    for alpha in alphas:
        key = f"{alpha:g}"
        if key in caps:
            raise ConfigError(f"APCER caps {caps[key]} and {alpha} both "
                              f"render as key {key}")
        caps[key] = alpha
        bpcer_block[key] = _operating_point(sweep, alpha)[0]
    return {"eer": rate, "threshold": tau, "bpcer_at": bpcer_block}


def read_scores_csv(text: str) -> ScoreSet:
    """Parse a ``label,score`` CSV with labels bonafide/attack; a plain file
    (`_read_plain_scores`) skips the `csv` loop, with the same result."""
    plain = _read_plain_scores(text)
    if plain is not None:
        return plain
    reader = csv.reader(io.StringIO(text))
    try:
        return _read_score_rows(reader)
    except csv.Error as exc:
        raise ScoreCsvError(str(exc), reader.line_num) from None


def _read_plain_scores(text):
    """The `ScoreSet` of a plain score file, or None for any other text.

    Plain: ASCII, a first line ``label,score``, then ``bonafide,<s>`` or
    ``attack,<s>`` lines (no blank line, final newline optional, both labels
    present), each ``<s>`` an optional sign and 1-15 digits with at most one
    ``.``: an integer m < 2**53 with k digits after the point, so m / 10.0**k
    is one correctly rounded division of exact doubles, the bits `float`
    returns (Clinger's fast path).
    """
    if not (text.isascii() and text.startswith("label,score\n")):
        return None
    # a final newline, and zero bytes so every window below stays in bounds
    buf = np.frombuffer(text.encode("ascii") + b"\n"[text.endswith("\n"):]
                        + bytes(8), np.uint8)
    lines = np.flatnonzero(buf == 10)
    starts, ends = lines[:-1] + 1, lines[1:]
    # the first eight bytes of each line, as one little-endian word
    label = np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))[starts]
    bona = label == _BONAFIDE
    commas = starts + np.where(bona, 8, 6)
    width = ends - commas - 1  # of each score field
    if not (bona.any() and not bona.all() and (buf[commas] == 44).all()
            and (bona | ((label & _BYTES7) == _ATTACK)).all()
            and width.max() <= 17):
        return None
    cols = int(width.max())
    field = sliding_window_view(buf, cols)[ends - cols]  # right-aligned
    sign = buf[commas + 1]
    first = cols - width + ((sign == 43) | (sign == 45))  # after any sign
    m, k, dots = (np.zeros(ends.size, np.int64) for _ in range(3))
    for col in range(cols):  # Horner, left to right
        live = first <= col
        digit = field[:, col] - np.uint8(48)
        is_digit = live & (digit < 10)
        is_dot = live & (field[:, col] == 46)
        if not (is_digit | is_dot | ~live).all():
            return None
        m = np.where(is_digit, m * 10 + digit, m)
        k += is_digit & (dots > 0)
        dots += is_dot
    digits = cols - first - dots
    if not ((dots <= 1).all() and 1 <= digits.min() <= digits.max() <= 15):
        return None
    scores = m / _POW10[k]
    np.negative(scores, out=scores, where=sign == 45)
    return ScoreSet(bonafide=scores[bona], attack=scores[~bona])


def _read_score_rows(reader) -> ScoreSet:
    try:
        header = next(reader)
    except StopIteration:
        raise ScoreCsvError("empty score file", 1) from None
    if tuple(h.strip() for h in header) != SCORE_CSV_HEADER:
        raise ScoreCsvError(
            f"header must be {','.join(SCORE_CSV_HEADER)!r}, "
            f"got {','.join(header)!r}", 1
        )
    bona, attack = [], []
    # reader.line_num, not a row count: a quoted field may span lines
    for row in reader:
        if not row:
            continue
        if len(row) != 2:
            raise ScoreCsvError(f"expected 2 fields, got {len(row)}",
                                reader.line_num)
        label, raw = row[0].strip(), row[1].strip()
        try:
            score = float(raw)
        except ValueError:
            raise ScoreCsvError(f"score is not a number: {raw!r}",
                                reader.line_num) from None
        if not math.isfinite(score):
            raise ScoreCsvError(f"score is not finite: {raw!r}",
                                reader.line_num)
        if abs(score) >= _SCORE_BOUND:
            raise ScoreCsvError(f"score magnitude reaches 2**1023: {raw!r}",
                                reader.line_num)
        if label == "bonafide":
            bona.append(score)
        elif label == "attack":
            attack.append(score)
        else:
            raise ScoreCsvError(
                f"label must be 'bonafide' or 'attack', got {label!r}",
                reader.line_num)
    if not bona:
        raise ScoreCsvError("no bonafide rows", reader.line_num)
    if not attack:
        raise ScoreCsvError("no attack rows", reader.line_num)
    return ScoreSet(bonafide=bona, attack=attack)


def write_scores_csv(s: ScoreSet) -> str:
    lines = [",".join(SCORE_CSV_HEADER)]
    lines += [f"bonafide,{v:.10g}" for v in s.bonafide]
    lines += [f"attack,{v:.10g}" for v in s.attack]
    return "\n".join(lines) + "\n"


def _det_csv_text(taus, apcer, bpcer) -> str:
    """The DET CSV of three equal-length columns: each chunk of rows is one
    ``%`` over a repeated row format, so no Python call runs per row."""
    parts = [",".join(DET_CSV_HEADER) + "\n"]
    for i in range(0, len(taus), _DET_CHUNK_ROWS):
        chunk = slice(i, i + _DET_CHUNK_ROWS)
        rows = np.stack((taus[chunk], apcer[chunk], bpcer[chunk]), axis=1)
        parts.append(_DET_ROW * len(rows) % tuple(rows.ravel().tolist()))
    return "".join(parts)


def write_det_csv(points) -> str:
    """``threshold,apcer,bpcer`` CSV text of `DetPoint`s, one row each."""
    rows = np.array([(p.threshold, p.apcer, p.bpcer) for p in points],
                    np.float64).reshape(-1, 3)
    return _det_csv_text(*rows.T)


def det_csv(s: ScoreSet) -> str:
    """The DET sweep of ``s`` as CSV text, byte-for-byte
    ``write_det_csv(det_curve(s))`` without building the points."""
    return _det_csv_text(*s.sweep)
