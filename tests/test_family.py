import math

import numpy as np
import pytest
from mpmath import mp

import arcbounds as ab
from arcbounds.errors import DomainError
from conftest import accuracy_sample, brute_force_extrema, worst_ulp

mp.dps = 30

PI = math.pi


class TestArccosStable:
    def test_trivial_values(self):
        assert ab.arccos_stable(0.0) == pytest.approx(PI / 2, abs=2 * np.spacing(PI / 2))
        assert ab.arccos_stable(1.0) == 0.0
        assert ab.arccos_stable(-1.0) == pytest.approx(PI, abs=2 * np.spacing(PI))
        assert ab.arccos_stable(0.5) == pytest.approx(1.0471975511965979, rel=1e-15)

    def test_two_ulp_accuracy(self):
        xs = np.concatenate(
            [
                np.linspace(-1.0, 1.0, 4001),
                1.0 - np.geomspace(1e-15, 1e-2, 200),
                -1.0 + np.geomspace(1e-15, 1e-2, 200),
            ]
        )
        got = ab.arccos_stable(xs)
        for x, g in zip(xs, got):
            exact = float(mp.acos(mp.mpf(x)))
            assert abs(g - exact) <= 2.0 * np.spacing(abs(exact)) + 5e-324

    def test_domain_errors(self):
        for bad in (1.0000000001, -1.1, math.nan):
            with pytest.raises(DomainError):
                ab.arccos_stable(bad)
        with pytest.raises(DomainError):
            ab.arccos_stable(np.array([0.0, 2.0]))

    def test_vector_matches_scalar(self):
        xs = np.array([-0.9, -0.1, 0.0, 0.3, 0.999999])
        vec = ab.arccos_stable(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == ab.arccos_stable(float(x))


def _exact_ratio(x):
    return mp.sqrt(2) if x == 1 else mp.acos(x) / mp.sqrt(1 - x)


@pytest.mark.parametrize(
    "fn, exact_fn, max_ulp",
    [(ab.arccos_stable, mp.acos, 1.0), (ab.arccos_ratio, _exact_ratio, 3.0)],
    ids=["arccos_stable", "arccos_ratio"],
)
def test_ulp_error_against_mpmath(fn, exact_fn, max_ulp):
    xs = accuracy_sample()
    worst = worst_ulp(fn(xs), exact_fn, xs)
    assert worst <= max_ulp, f"{fn.__name__}: {float(worst):.3f} ulp"


class TestArccosRatio:
    def test_cancellation_guard(self):
        # arccos(1-z)/sqrt(z) = sqrt(2)*(1 + z/12 + ...); at z = 2**-50 the
        # correction is below binary64 resolution.
        z = 2.0**-50
        x = 1.0 - z
        series = math.sqrt(2.0) * (1.0 + z / 12.0)
        assert ab.arccos_ratio(x) == pytest.approx(series, rel=1e-8)
        assert ab.arccos_ratio(x) == pytest.approx(series, rel=1e-14)

    def test_matches_naive_away_from_one(self):
        xs = np.linspace(0.01, 0.9, 57)
        naive = np.arccos(xs) / np.sqrt(1.0 - xs)
        assert np.allclose(ab.arccos_ratio(xs), naive, rtol=1e-14)


class TestBoundRatio:
    def test_left_endpoint_constant(self):
        a = ab.TWO_SQRT2
        assert abs(ab.bound_ratio(a, 1e-12) - PI * (1.0 + a) / 2.0) < 1e-6

    def test_right_endpoint_constant(self):
        assert abs(ab.bound_ratio(ab.TWO_SQRT2, 1.0 - 1e-12) - 6.0) < 1e-6

    def test_closed_form_value(self):
        # sqrt(1.5)*(pi/3)/sqrt(0.5), frozen from a 30-digit evaluation
        assert ab.bound_ratio(0.0, 0.5) == pytest.approx(1.8137993642342179, rel=1e-14)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                ab.bound_ratio(1.0, bad)


class TestClassifyRegime:
    def test_thresholds(self):
        assert ab.A_STAR == pytest.approx(2.6597923663254877, rel=1e-15)
        assert ab.classify_regime(0.0) is ab.Regime.INCREASING
        assert ab.classify_regime(-3.0) is ab.Regime.INCREASING
        assert ab.classify_regime(ab.A_STAR) is ab.Regime.INCREASING
        assert ab.classify_regime(ab.TWO_SQRT2) is ab.Regime.DECREASING
        assert ab.classify_regime(4.0) is ab.Regime.DECREASING
        assert ab.classify_regime(2.7) is ab.Regime.INTERIOR_MINIMUM
        # 2.5 sits below the threshold 2*(pi-2)/(4-pi) = 2.6598
        assert ab.classify_regime(2.5) is ab.Regime.INCREASING

    def test_open_boundaries(self):
        up = math.nextafter(ab.A_STAR, 4.0)
        down = math.nextafter(ab.TWO_SQRT2, 0.0)
        assert ab.classify_regime(up) is ab.Regime.INTERIOR_MINIMUM
        assert ab.classify_regime(down) is ab.Regime.INTERIOR_MINIMUM

    def test_nonfinite_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                ab.classify_regime(bad)


class TestConstants:
    def test_increasing_regime(self):
        assert ab.lower_constant(0.0) == pytest.approx(PI / 2, abs=0)
        assert ab.upper_constant(0.0) == 2.0
        assert ab.lower_constant(2.5) == pytest.approx(5.497787143782138, rel=1e-15)
        assert ab.upper_constant(2.5) == pytest.approx(5.535533905932738, rel=1e-15)

    def test_threshold_instance(self):
        # at a = A_STAR the lower constant clears to pi**2/(2*(4-pi))
        assert ab.lower_constant(ab.A_STAR) == pytest.approx(PI * PI / (2.0 * (4.0 - PI)), rel=1e-15)
        assert ab.lower_constant(ab.A_STAR) == pytest.approx(5.748788405856079, rel=1e-14)
        assert ab.upper_constant(ab.A_STAR) == pytest.approx(5.761514437553932, rel=1e-14)

    def test_classical_instance(self):
        assert ab.lower_constant(ab.TWO_SQRT2) == pytest.approx(6.0, rel=1e-15)
        assert ab.upper_constant(ab.TWO_SQRT2) == pytest.approx(6.013679264953263, rel=1e-14)

    def test_interior_minimum_regime(self):
        assert ab.lower_constant(2.7) == pytest.approx(5.805212620027435, rel=1e-14)
        assert ab.upper_constant(2.7) == pytest.approx(5.818376618407357, rel=1e-14)

    def test_decreasing_regime(self):
        assert ab.lower_constant(3.0) == pytest.approx(6.242640687119285, rel=1e-14)
        assert ab.upper_constant(3.0) == pytest.approx(2.0 * PI, rel=1e-15)

    def test_domain(self):
        for bad in (-1.0, -2.0, math.inf):
            with pytest.raises(DomainError):
                ab.lower_constant(bad)
            with pytest.raises(DomainError):
                ab.upper_constant(bad)

    def test_threshold_constants_are_grid_extrema(self):
        vmin, vmax = brute_force_extrema(ab.A_STAR, 1_000_000)
        assert abs(vmin - ab.lower_constant(ab.A_STAR)) < 1e-4
        assert abs(vmax - ab.upper_constant(ab.A_STAR)) < 1e-4

    def test_midregime_floor_below_grid_min(self):
        vmin, _ = brute_force_extrema(2.7, 1_000_000)
        assert ab.lower_constant(2.7) <= vmin


class TestBoundPair:
    def test_frozen_bracket(self):
        bp = ab.bound_pair(0.0, 0.5)
        assert bp.lower == pytest.approx(0.9068996821171089, rel=1e-14)
        assert bp.upper == pytest.approx(1.1547005383792515, rel=1e-14)
        assert bp.lower < 1.0471975511965979 < bp.upper
        assert bp.c_lower == pytest.approx(PI / 2)
        assert bp.c_upper == 2.0

    def test_reversed_regime_upper_collapses_at_zero(self):
        bp = ab.bound_pair(ab.TWO_SQRT2, 1e-12)
        acx = ab.arccos_stable(1e-12)
        assert bp.lower < acx < bp.upper
        assert bp.upper == pytest.approx(PI / 2, abs=1e-11)

    def test_right_endpoint_upper_ratio_tends_to_one(self):
        # at a = 0 the upper constant 2 is the sharp one at x -> 1-; the
        # lower ratio tends to (pi/2)/2 instead
        x = 1.0 - 1e-8
        bp = ab.bound_pair(0.0, x)
        acx = ab.arccos_stable(x)
        assert 1.0 < bp.upper / acx < 1.0 + 1e-3
        assert bp.lower / acx == pytest.approx(PI / 4, rel=1e-4)
        assert bp.upper < 1e-3 and bp.lower < 1e-3

    def test_bracketing_across_regimes(self):
        x = ab.GridSpec(1e-9, 1.0 - 1e-9, 10_000, "refined").points()
        acx = ab.arccos_stable(x)
        tol = 4.0 * np.spacing(acx)
        for a in (-0.5, 0.0, 1.0, ab.A_STAR, 2.5, ab.TWO_SQRT2, 4.0):
            lower, upper = ab.bound_arrays(a, x)
            assert np.all(acx - lower >= -tol), f"lower bound broken at a={a}"
            assert np.all(upper - acx >= -tol), f"upper bound broken at a={a}"

    def test_lower_never_exceeds_upper(self):
        for a in (-0.9, -0.5, 0.0, 2.5, 2.7, ab.TWO_SQRT2, 10.0):
            bp = ab.bound_pair(a, 0.25)
            assert bp.lower <= bp.upper

    def test_domain(self):
        with pytest.raises(DomainError):
            ab.bound_pair(-1.0, 0.5)
        with pytest.raises(DomainError):
            ab.bound_pair(0.0, 1.0)

    def test_overflowing_endpoint_limit_rejected(self):
        # pi*(1+a)/2 overflows above a ~ 5.72e307; the upper bound was inf
        with pytest.raises(DomainError, match="overflows"):
            ab.bound_pair(6e307, 0.5)
        bp = ab.bound_pair(5e307, 0.5)
        assert math.isfinite(bp.c_upper) and bp.lower < ab.arccos_stable(0.5) < bp.upper


def test_endpoint_limits():
    at0, at1 = ab.endpoint_limits(ab.TWO_SQRT2)
    assert at0 == pytest.approx(6.013679264953263, rel=1e-14)
    assert at1 == pytest.approx(6.0, rel=1e-15)


def test_endpoint_limits_overflow_is_a_domain_error():
    for a in (6e307, -6e307, 1.7e308):
        for fn in (ab.endpoint_limits, lambda a: ab.bound_ratio(a, 0.5)):
            with pytest.raises(DomainError, match="overflows"):
                fn(a)
    with pytest.raises(DomainError, match="shape parameter must be finite"):
        ab.endpoint_limits(math.inf)
    assert ab.classify_regime(1.7e308) is ab.Regime.DECREASING
