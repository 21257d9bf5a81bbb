"""PAD metric tests against a brute-force threshold enumeration oracle."""

import math

import numpy as np
import pytest

from chromapad.errors import ConfigError, ScoreCsvError
from chromapad.metrics import (
    ScoreSet,
    apcer_at,
    bpcer_at,
    bpcer_at_apcer,
    det_csv,
    det_curve,
    eer,
    evaluate_scores,
    read_scores_csv,
    synth_scores,
    write_det_csv,
    write_scores_csv,
)


def brute_force_sweep(bonafide, attack):
    """Pure-Python threshold sweep sharing no code with the module."""
    uniq = sorted(set(list(bonafide) + list(attack)))
    taus = [uniq[0] - 1.0] + uniq + [uniq[-1] + 1.0]
    points = []
    for tau in taus:
        apcer = sum(1 for a in attack if a >= tau) / len(attack)
        bpcer = sum(1 for b in bonafide if b < tau) / len(bonafide)
        points.append((tau, apcer, bpcer))
    return points


def brute_force_eer(bonafide, attack):
    best = None
    for tau, apcer, bpcer in brute_force_sweep(bonafide, attack):
        key = (abs(apcer - bpcer), tau)
        if best is None or key < best[0]:
            best = (key, (apcer + bpcer) / 2.0, tau)
    return best[1], best[2]


def brute_force_bpcer_at(bonafide, attack, alpha):
    best = None
    for tau, apcer, bpcer in brute_force_sweep(bonafide, attack):
        if apcer <= alpha:
            key = (bpcer, tau)
            if best is None or key < best[0]:
                best = (key, bpcer, tau)
    return best[1], best[2]


def score_lists(rng, n_max, ties):
    """Two random score lists; with ``ties`` every score is rounded to one
    decimal, so values recur within and across labels and the sweep has
    equal |APCER - BPCER| gaps and BPCER plateaus."""
    bona = rng.random(rng.integers(1, n_max))
    attack = rng.random(rng.integers(1, n_max))
    if ties:
        bona, attack = np.round(bona, 1), np.round(attack, 1)
    return list(bona), list(attack)


def phi(x):
    """Standard normal CDF via the error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class TestPointwiseRates:
    def test_apcer_extremes(self):
        s = ScoreSet(bonafide=[0.9], attack=[0.1, 0.4, 0.9])
        assert apcer_at(s, float("inf")) == 0.0
        assert apcer_at(s, float("-inf")) == 1.0

    def test_apcer_hand_count(self):
        s = ScoreSet(bonafide=[0.9], attack=[0.1, 0.4, 0.9])
        assert apcer_at(s, 0.5) == pytest.approx(1 / 3)

    def test_bpcer_extremes_and_hand_count(self):
        s = ScoreSet(bonafide=[0.2, 0.8], attack=[0.1])
        assert bpcer_at(s, float("-inf")) == 0.0
        assert bpcer_at(s, float("inf")) == 1.0
        assert bpcer_at(s, 0.5) == 0.5

    def test_tie_accepted_as_bonafide(self):
        s = ScoreSet(bonafide=[0.5], attack=[0.5])
        assert apcer_at(s, 0.5) == 1.0
        assert bpcer_at(s, 0.5) == 0.0


class TestDetCurve:
    def test_perfect_separation_has_zero_zero_point(self):
        s = ScoreSet(bonafide=[0.8], attack=[0.2])
        assert any(p.apcer == 0.0 and p.bpcer == 0.0 for p in det_curve(s))

    def test_identical_lists_balance(self):
        scores = [0.1, 0.4, 0.7]
        s = ScoreSet(bonafide=scores, attack=scores)
        for p in det_curve(s):
            if p.threshold in scores:
                assert p.apcer == pytest.approx(1.0 - p.bpcer)

    def test_endpoints(self):
        rng = np.random.default_rng(0)
        s = ScoreSet(bonafide=rng.random(20), attack=rng.random(20))
        pts = det_curve(s)
        assert (pts[0].apcer, pts[0].bpcer) == (1.0, 0.0)
        assert (pts[-1].apcer, pts[-1].bpcer) == (0.0, 1.0)

    def test_monotonicity_and_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = ScoreSet(bonafide=rng.random(rng.integers(1, 40)),
                         attack=rng.random(rng.integers(1, 40)))
            pts = det_curve(s)
            for prev, cur in zip(pts, pts[1:]):
                assert cur.threshold > prev.threshold
                assert cur.apcer <= prev.apcer
                assert cur.bpcer >= prev.bpcer
            for p in pts:
                assert 0.0 <= p.apcer <= 1.0
                assert 0.0 <= p.bpcer <= 1.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            bona = list(rng.random(rng.integers(1, 30)))
            attack = list(rng.random(rng.integers(1, 30)))
            got = det_curve(ScoreSet(bonafide=bona, attack=attack))
            want = brute_force_sweep(bona, attack)
            assert [(p.threshold, p.apcer, p.bpcer) for p in got] == want

    def test_label_sign_duality(self):
        # swapping labels and negating scores swaps the two error rates;
        # the below-minimum sentinel of each curve duplicates the opposite
        # edge pair, so the multiset identity holds over the remaining points
        rng = np.random.default_rng(3)
        for _ in range(25):
            bona = rng.random(rng.integers(1, 25))
            attack = rng.random(rng.integers(1, 25))
            orig = det_curve(ScoreSet(bonafide=bona, attack=attack))
            flipped = det_curve(ScoreSet(bonafide=-attack, attack=-bona))
            orig_swapped = sorted((p.bpcer, p.apcer) for p in orig[1:])
            flipped_pairs = sorted((p.apcer, p.bpcer) for p in flipped[1:])
            assert orig_swapped == flipped_pairs


class TestEer:
    def test_perfect_separation(self):
        rate, _ = eer(ScoreSet(bonafide=[0.9, 0.8], attack=[0.1, 0.2]))
        assert rate == 0.0

    def test_indistinguishable_lists(self):
        scores = list(np.random.default_rng(4).random(100))
        rate, _ = eer(ScoreSet(bonafide=scores, attack=scores))
        assert abs(rate - 0.5) <= 0.01

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(5)
        for ties in (False, True):
            for _ in range(100):
                bona, attack = score_lists(rng, 100, ties)
                got = eer(ScoreSet(bonafide=bona, attack=attack))
                assert got == brute_force_eer(bona, attack)

    def test_gaussian_two_sigma_gap(self):
        s = synth_scores(1.0, 0.0, 0.5, 10_000, seed=42)
        rate, _ = eer(s)
        assert abs(rate - phi(-1.0)) < 0.02


class TestBpcerAtApcer:
    def test_perfect_separation_zero_everywhere(self):
        s = ScoreSet(bonafide=[0.9, 0.8], attack=[0.1, 0.2])
        for alpha in (0.01, 0.05, 0.5, 0.99):
            value, _ = bpcer_at_apcer(s, alpha)
            assert value == 0.0

    def test_alpha_validated(self):
        s = ScoreSet(bonafide=[1.0], attack=[0.0])
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                bpcer_at_apcer(s, alpha)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(6)
        for ties in (False, True):
            for _ in range(100):
                bona, attack = score_lists(rng, 100, ties)
                s = ScoreSet(bonafide=bona, attack=attack)
                for alpha in (0.05, 0.10, 0.37):
                    assert bpcer_at_apcer(s, alpha) == \
                        brute_force_bpcer_at(bona, attack, alpha)

    def test_large_alpha_hits_first_qualifying_point(self):
        bona = [0.3, 0.6]
        attack = [0.1, 0.2, 0.9]
        s = ScoreSet(bonafide=bona, attack=attack)
        got = bpcer_at_apcer(s, 0.5)
        assert got == brute_force_bpcer_at(bona, attack, 0.5)


class TestSynthScores:
    def test_seed_stability(self):
        a = synth_scores(1.0, 0.0, 0.5, 100, seed=7)
        b = synth_scores(1.0, 0.0, 0.5, 100, seed=7)
        assert np.array_equal(a.bonafide, b.bonafide)
        assert np.array_equal(a.attack, b.attack)

    def test_different_seed_differs(self):
        a = synth_scores(1.0, 0.0, 0.5, 100, seed=7)
        b = synth_scores(1.0, 0.0, 0.5, 100, seed=8)
        assert not np.array_equal(a.bonafide, b.bonafide)

    def test_equal_means_give_half_eer(self):
        s = synth_scores(0.5, 0.5, 1.0, 10_000, seed=11)
        rate, _ = eer(s)
        assert abs(rate - 0.5) < 0.02

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            synth_scores(1.0, 0.0, 0.0, 10, seed=0)
        with pytest.raises(ConfigError):
            synth_scores(1.0, 0.0, 1.0, 0, seed=0)


class TestScoreSetValidation:
    def test_empty_sides_rejected(self):
        with pytest.raises(ConfigError):
            ScoreSet(bonafide=[], attack=[1.0])
        with pytest.raises(ConfigError):
            ScoreSet(bonafide=[1.0], attack=[])

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            ScoreSet(bonafide=[np.nan], attack=[1.0])

    def test_magnitude_bound(self):
        # below 2**1023 both sentinels are finite; at it one would overflow
        below = np.nextafter(2.0 ** 1023, 0)
        s = ScoreSet(bonafide=[below], attack=[-below])
        assert all(math.isfinite(p.threshold) for p in det_curve(s))
        for score in (2.0 ** 1023, -2.0 ** 1023):
            with pytest.raises(ConfigError, match="2\\*\\*1023"):
                ScoreSet(bonafide=[score], attack=[0.0])


class TestCsv:
    def test_round_trip(self):
        s = synth_scores(1.0, 0.0, 0.5, 25, seed=3)
        again = read_scores_csv(write_scores_csv(s))
        assert np.allclose(again.bonafide, s.bonafide)
        assert np.allclose(again.attack, s.attack)

    def test_bad_header_line_number(self):
        with pytest.raises(ScoreCsvError) as err:
            read_scores_csv("id,value\n")
        assert err.value.line == 1

    def test_bad_label_line_number(self):
        with pytest.raises(ScoreCsvError) as err:
            read_scores_csv("label,score\nbonafide,0.5\ngenuine,0.4\n")
        assert err.value.line == 3

    def test_bad_score_line_number(self):
        with pytest.raises(ScoreCsvError) as err:
            read_scores_csv("label,score\nbonafide,abc\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_score_line_number(self, raw):
        with pytest.raises(ScoreCsvError) as err:
            read_scores_csv(f"label,score\nbonafide,0.5\nattack,{raw}\n")
        assert err.value.line == 3
        assert "not finite" in str(err.value)

    def test_line_number_counts_lines_of_quoted_fields(self):
        # the quoted score spans lines 3 and 4, so "foo" is on line 5
        with pytest.raises(ScoreCsvError) as err:
            read_scores_csv('label,score\nbonafide,0.5\nattack,"0.1\n"\n'
                            'foo,0.3\n')
        assert err.value.line == 5

    @pytest.mark.parametrize("text, line", [
        ("label,score\nbonafide,0.9\rx\nattack,0.1\n", 2),
        ("label,score\nbonafide,0.9\nattack,0.1\x00\n", 3),
        ("label,score\nbonafide,0.9\nattack,\"" + "1" * 200_000 + "\"\n", 3),
    ], ids=("bare-cr", "nul", "oversized-field"))
    def test_reader_error_names_line(self, text, line):
        # the csv module's own errors (and, before Python 3.11, a NUL byte)
        # surface as ScoreCsvError with the line the reader stopped on
        with pytest.raises(ScoreCsvError) as err:
            read_scores_csv(text)
        assert err.value.line == line

    def test_missing_attack_rows(self):
        with pytest.raises(ScoreCsvError):
            read_scores_csv("label,score\nbonafide,0.5\n")

    def test_det_export_format(self):
        s = ScoreSet(bonafide=[0.8], attack=[0.2])
        text = write_det_csv(det_curve(s))
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,apcer,bpcer"
        assert len(lines) == 1 + len(det_curve(s))

    def test_det_csv_bytes_match_point_export(self):
        # the f-string rows are the original point formatter
        rng = np.random.default_rng(17)
        for scale in (1e-300, 1e-3, 1.0, 1e17, 1e300):
            s = ScoreSet(bonafide=rng.standard_normal(300) * scale,
                         attack=np.round(rng.standard_normal(300), 1) * scale)
            oracle = "threshold,apcer,bpcer\n" + "".join(
                f"{p.threshold:.10g},{p.apcer:.10g},{p.bpcer:.10g}\n"
                for p in det_curve(s))
            assert write_det_csv(det_curve(s)) == oracle
            assert det_csv(s) == oracle


def test_evaluate_scores_block():
    s = synth_scores(1.0, 0.0, 0.5, 500, seed=9)
    report = evaluate_scores(s, alphas=(0.05, 0.10))
    assert set(report) == {"eer", "threshold", "bpcer_at"}
    assert set(report["bpcer_at"]) == {"0.05", "0.1"}
    for caps in ((0.1, 0.1000001), (0.05, 0.05)):
        with pytest.raises(ConfigError, match="both render as key"):
            evaluate_scores(s, alphas=caps)
    rate, tau = eer(s)
    assert report["eer"] == rate and report["threshold"] == tau
