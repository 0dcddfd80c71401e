import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

import arcbounds as ab
from arcbounds import analysis
from arcbounds.analysis import _q, bisect_sign_change
from arcbounds.errors import ConvergenceError, DomainError, RegimeError
from arcbounds.family import _floor
from arcbounds.verify import QUADRATIC_NEGATIVE_A_VALUES, QUADRATIC_POSITIVE_A_VALUES
from conftest import accuracy_sample, brute_force_argmin, count_significant_sign_changes, worst_ulp

PI = math.pi
SQRT2 = math.sqrt(2.0)


class TestSlopeFactor:
    def test_limit_at_zero(self):
        # ((pi-4)*a + 2*(pi-2)) / (2*(a+2))
        frozen = {0.0: 0.5707963267948966, 1.0: 0.23746299346156329, 3.0: -0.029203673205103381}
        for a, lim in frozen.items():
            assert ab.slope_factor_limit0(a) == pytest.approx(lim, rel=1e-14)
            assert abs(ab.slope_factor(a, 1e-10) - lim) < 1e-5

    def test_limit_vanishes_at_threshold(self):
        assert ab.slope_factor_limit0(ab.A_STAR) == pytest.approx(0.0, abs=1e-16)

    def test_sign_matches_ratio_differences(self):
        x = np.linspace(0.01, 0.98, 2_000)
        h = 1e-7
        for a in (0.0, 2.7, 4.0):
            g = ab.slope_factor(a, x)
            fd = ab.bound_ratio(a, x + h) - ab.bound_ratio(a, x)
            big = np.abs(fd) > 1e-12
            assert np.all(np.sign(g[big]) == np.sign(fd[big]))

    def test_sign_flips_when_prefactor_negative(self):
        # for a <= -2 the derivative prefactor a*sqrt(1+x) + 2 is negative
        x = np.linspace(0.01, 0.98, 500)
        g = ab.slope_factor(-3.0, x)
        fd = ab.bound_ratio(-3.0, x + 1e-7) - ab.bound_ratio(-3.0, x)
        assert np.all(np.sign(g) == -np.sign(fd))

    def test_excluded_parameter_band(self):
        for a in (-1.7, -1.5, -1.9999):
            with pytest.raises(DomainError):
                ab.slope_factor(a, 0.5)
        ab.slope_factor(-2.0, 0.5)
        ab.slope_factor(-SQRT2, 0.5)


class TestSlopeQuadratic:
    def test_root_limits(self):
        lo, hi = ab.slope_quadratic_roots(1e-10)
        assert abs(lo - (1.0 - math.sqrt(17.0)) / 2.0) < 1e-6
        assert abs(hi - (1.0 + math.sqrt(17.0)) / 2.0) < 1e-6
        lo, hi = ab.slope_quadratic_roots(1.0 - 1e-10)
        assert abs(lo + SQRT2) < 1e-6
        assert abs(hi - ab.TWO_SQRT2) < 1e-6

    def test_roots_annihilate(self):
        for x in np.linspace(0.005, 0.995, 100):
            lo, hi = ab.slope_quadratic_roots(float(x))
            assert abs(ab.slope_quadratic(lo, float(x))) < 1e-10
            assert abs(ab.slope_quadratic(hi, float(x))) < 1e-10

    def test_roots_against_quadratic_formula(self):
        # the quadratic in a is sqrt(1+x)*a**2 - (1+x)*a - 4*sqrt(1+x)
        x = 0.5
        s = math.sqrt(1.5)
        roots = sorted(np.roots([s, -1.5, -4.0 * s]).real)
        lo, hi = ab.slope_quadratic_roots(x)
        assert lo == pytest.approx(roots[0], rel=1e-12)
        assert hi == pytest.approx(roots[1], rel=1e-12)

    def test_roots_strictly_increasing(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        lo, hi = ab.slope_quadratic_roots(x)
        assert np.all(np.diff(lo) > 0.0)
        assert np.all(np.diff(hi) > 0.0)

    def test_roots_ulp_error_against_mpmath(self):
        x = accuracy_sample()
        x = x[(x > 0.0) & (x < 1.0)]
        lo, hi = ab.slope_quadratic_roots(x)
        root = lambda sign: lambda t: (mp.sqrt(1 + t) + sign * mp.sqrt(t + 17)) / 2
        assert worst_ulp(lo, root(-1), x) <= 2.0
        assert worst_ulp(hi, root(1), x) <= 2.0

    def test_sign_regimes(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        for a in (ab.TWO_SQRT2, 3.0):
            assert np.min(ab.slope_quadratic(a, x)) > 0.0
        for a in (-SQRT2, 0.0, 2.56):
            assert np.max(ab.slope_quadratic(a, x)) < 0.0


class TestSlopeTermAndThreshold:
    def test_term_sign_regimes(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        for a in (0.0, 2.0, 8.0 / PI):
            assert np.min(ab.slope_term(a, x)) > 0.0
        for a in (ab.TWO_SQRT2, 4.0):
            assert np.max(ab.slope_term(a, x)) < 0.0

    def test_threshold_endpoints(self):
        assert abs(ab.slope_threshold(1e-10) - 8.0 / PI) < 1e-5
        assert abs(ab.slope_threshold(1.0 - 1e-10) - ab.TWO_SQRT2) < 1e-5

    def test_threshold_shape(self):
        x = np.linspace(1e-9, 1.0 - 1e-9, 50_000)
        p = ab.slope_threshold(x)
        assert np.all(np.diff(p) > 0.0)
        assert np.min(p) > 8.0 / PI - 1e-9
        assert np.max(p) < ab.TWO_SQRT2

    def test_gap_shape(self):
        x = np.linspace(1e-9, 1.0 - 1e-9, 50_000)
        r = ab.threshold_gap(x)
        assert np.all(r > 0.0)
        assert np.all(np.diff(r) < 0.0)
        assert abs(ab.threshold_gap(1.0 - 1e-10)) < 1e-5


class TestBisection:
    def test_finds_cos_root(self):
        root, iters = bisect_sign_change(math.cos, 1.0, 2.0, xtol=1e-13)
        assert root == pytest.approx(PI / 2.0, abs=1e-12)
        assert iters > 30

    def test_rejects_one_signed_interval(self):
        with pytest.raises(ConvergenceError):
            bisect_sign_change(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_rejects_zero_endpoint(self):
        # a value that rounds to 0 at an end is no evidence of a root there
        with pytest.raises(ConvergenceError):
            bisect_sign_change(lambda t: t, 0.0, 1.0)


class TestFindMinimum:
    # frozen from 40-digit root finding on the slope factor
    ORACLE = {
        2.7: (0.20427529990046087, 5.8111247945954164),
        2.75: (0.48771174943669325, 5.8864401428646986),
        2.8: (0.80459113622800841, 5.9594573460618984),
    }

    @pytest.mark.parametrize("a", sorted(ORACLE))
    def test_matches_high_precision_oracle(self, a):
        res = ab.find_minimum(a)
        x0, f_min = self.ORACLE[a]
        assert res.x0 == pytest.approx(x0, abs=1e-9)
        assert res.f_min == pytest.approx(f_min, rel=1e-12)
        assert res.residual < 1e-12
        assert res.iterations > 0

    @pytest.mark.parametrize("a", sorted(ORACLE))
    def test_floor_and_ceiling(self, a):
        res = ab.find_minimum(a)
        floor = 8.0 * (1.0 - 2.0 / (a * a))
        at0, at1 = ab.endpoint_limits(a)
        assert res.f_min >= floor - 4.0 * np.spacing(floor)
        assert res.f_min <= min(at0, at1)

    @pytest.mark.parametrize("a", sorted(ORACLE))
    def test_agrees_with_brute_force(self, a):
        res = ab.find_minimum(a)
        bx, bval = brute_force_argmin(a, 1_000_001)
        assert abs(bx - res.x0) < 1e-6
        assert abs(bval - res.f_min) < 1e-10

    def test_approaching_decreasing_boundary(self):
        res = ab.find_minimum(ab.TWO_SQRT2 - 1e-4)
        assert res.x0 == pytest.approx(0.99929296286051613, abs=1e-6)
        assert res.f_min < 6.0
        assert 6.0 - res.f_min < 1e-3

    def test_approaching_increasing_boundary(self):
        a = ab.A_STAR + 1e-4
        res = ab.find_minimum(a)
        assert res.x0 == pytest.approx(4.8233640125181399e-4, abs=1e-8)
        left_limit = ab.endpoint_limits(a)[0]
        assert res.f_min < left_limit
        assert left_limit - res.f_min < 1e-6

    def test_regime_errors(self):
        for a in (2.5, ab.A_STAR, ab.TWO_SQRT2, 2.9, -1.0):
            with pytest.raises(RegimeError):
                ab.find_minimum(a)

    def test_resolves_minimum_next_to_the_decreasing_boundary(self):
        # 1e-6 below 2*sqrt(2) the slope factor is rounding noise within about
        # 1e-8 of x = 1, while its sign change lies at 1 - 7.07e-6 (40-digit root)
        res = ab.find_minimum(2.82842612474619)
        assert res.x0 == pytest.approx(0.99999292893915280, abs=1e-8)
        assert res.f_min == pytest.approx(5.9999985857860210, rel=1e-14)

    @pytest.mark.parametrize("gap", [5e-8, 1e-8, 1e-10])
    def test_x0_next_to_the_decreasing_boundary_against_mpmath(self, gap):
        # Within about 6e-8 of 2*sqrt(2) the slope factor is rounding noise
        # near the minimum: the residual reads 0 while x0 may be off by
        # up to about 2.4e-7.  The minimum lies near 1 - 7.07*gap.
        a = ab.TWO_SQRT2 - gap
        res = ab.find_minimum(a)
        am = mp.mpf(a)

        def slope(t):  # slope factor at x = 1 - t, written without cancellation in t
            s = mp.sqrt(2 - t)
            return 2 * mp.asin(mp.sqrt(t / 2)) - 2 * mp.sqrt(t) * (am + s) / (am * s + 2)

        with mp.workdps(50):
            lo, hi = mp.mpf("1e-20"), mp.mpf("1e-3")  # slope > 0 right of the minimum, < 0 left
            assert slope(lo) > 0 > slope(hi)
            for _ in range(200):
                mid = mp.sqrt(lo * hi)
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
            root = 1 - lo
            assert abs(mp.mpf(res.x0) - root) <= 5e-7

    def test_one_ulp_above_a_star(self):
        # the true minimum lies near x = 2e-15, where binary64 cannot resolve
        # the sign of the slope factor
        a = math.nextafter(ab.A_STAR, 3.0)
        try:
            res = ab.find_minimum(a)
        except RegimeError as exc:
            assert "too close to A_STAR" in str(exc)
        else:
            assert res.x0 < 1e-8
            assert res.f_min <= ab.endpoint_limits(a)[0]


class TestMinValueLower:
    def test_values(self):
        assert ab.min_value_lower(ab.TWO_SQRT2) == pytest.approx(6.0, rel=1e-15)
        assert ab.min_value_lower(2.7) == pytest.approx(5.805212620027435, rel=1e-14)

    def test_regime_errors(self):
        for a in (2.5, ab.A_STAR, 2.9, -3.0):
            with pytest.raises(RegimeError):
                ab.min_value_lower(a)

    def test_floor_gap_identity(self):
        u = np.linspace(1.0, SQRT2, 100_001)
        for a in (2.5, 2.7, ab.TWO_SQRT2):
            assert np.min(ab.min_floor_gap(a, u)) >= -1e-12

    def test_pinched_value_at_two_and_half(self):
        # min over u in (1, sqrt(2)) of 2*(a+u)**2/(a*u+2) at a = 2.5 is
        # attained at u = 1 and still clears the floor 5.44
        u = np.linspace(1.0, SQRT2, 100_001)
        a = 2.5
        vals = 2.0 * (a + u) ** 2 / (a * u + 2.0)
        assert float(np.min(vals)) == pytest.approx(5.444444444444445, rel=1e-12)
        assert float(np.min(vals)) >= 8.0 * (1.0 - 2.0 / (a * a))


def test_factor_identities_hold_exactly():
    """The identities behind q(a, s) = a**2 - a*s - 4, in exact rational arithmetic.

    Floor gap: P(a, u) = 2*a**2*(a+u)**2 - 8*(a**2-2)*(a*u+2) - 2*q(a, u)**2 has
    degree <= 4 in a and <= 2 in u, so vanishing on a 5 x 3 grid proves P = 0.
    Slope quadratic: s*q(a, s) - (a**2*s - a*(1+x) - 4*s) with x = s**2 - 1 has
    degree <= 2 in a and <= 3 in s, so a 3 x 4 grid proves it is 0.  The float
    functions are held to the exact values at the same points.
    """
    for a in map(Fraction, (-3, 1, 2, 5, 7)):
        for u in (Fraction(1), Fraction(5, 4), Fraction(4, 3)):
            gap = 2 * (a + u) ** 2 / (a * u + 2) - _floor(a)
            assert a * a * (a * u + 2) * gap - 2 * _q(a, u) ** 2 == 0
            assert ab.min_floor_gap(float(a), float(u)) == pytest.approx(float(gap), rel=1e-14)
    for a in map(Fraction, (-1, 2, 3)):
        for s in (Fraction(7, 6), Fraction(5, 4), Fraction(13, 10), Fraction(4, 3)):
            x = s * s - 1
            value = a * a * s - a * (1 + x) - 4 * s
            assert s * _q(a, s) == value
            assert ab.slope_quadratic(float(a), float(x)) == pytest.approx(float(value), rel=1e-13)
    # Roots: with r**2 = s**2 + 16, lo = -8/(s + r) and hi = (s + r)/2 satisfy
    # Vieta's formulas for q(., s); rational s and r come from s = (16 - k**2)/(2k).
    for k in (Fraction(29, 10), Fraction(3), Fraction(31, 10)):
        s, r = (16 - k * k) / (2 * k), (16 + k * k) / (2 * k)
        assert r * r == s * s + 16
        lo, hi = -8 / (s + r), (s + r) / 2
        assert (lo + hi, lo * hi) == (s, -4)
        assert _q(lo, s) == _q(hi, s) == 0


@dataclass(frozen=True)
class QSqrt2:
    """p + r*sqrt(2) with rational p and r: exact arithmetic in Q(sqrt(2))."""

    p: Fraction
    r: Fraction = Fraction(0)

    @staticmethod
    def of(v) -> "QSqrt2":
        return v if isinstance(v, QSqrt2) else QSqrt2(Fraction(v))

    def __sub__(self, other):
        o = QSqrt2.of(other)
        return QSqrt2(self.p - o.p, self.r - o.r)

    def __mul__(self, other):
        o = QSqrt2.of(other)
        return QSqrt2(self.p * o.p + 2 * self.r * o.r, self.p * o.r + self.r * o.p)

    __rmul__ = __mul__

    def __neg__(self):
        return QSqrt2(-self.p, -self.r)

    def sign(self) -> int:
        """Exact sign: compare p**2 with 2*r**2 when p and r differ in sign (sqrt(2) is irrational)."""
        sp, sr = (self.p > 0) - (self.p < 0), (self.r > 0) - (self.r < 0)
        if sp * sr >= 0:  # one sign, or a zero part
            return sp or sr
        return sp if self.p * self.p > 2 * self.r * self.r else sr


def test_quadratic_sign_regimes_hold_exactly():
    """The quadratic half of aux-sign-regimes, proved for the six claimed a.

    q(a, s) is linear in s, so its sign on s in (1, sqrt(2)) follows from its
    two ends: a q that is >= 0 at both ends and > 0 at one is > 0 inside
    (and mirrored for < 0).  The ends are evaluated in Q(sqrt(2)) with the
    package's own ``_q``.
    """
    root2 = QSqrt2(Fraction(0), Fraction(1))
    one = QSqrt2(Fraction(1))
    assert [(one - root2).sign(), (QSqrt2(Fraction(3)) - 2 * root2).sign()] == [-1, 1]
    for sign, values in ((1, (2 * root2, QSqrt2(Fraction(3)))), (-1, (-root2, QSqrt2(Fraction(0)), one, QSqrt2(Fraction(2.56))))):
        for a in values:
            ends = [sign * _q(a, s).sign() for s in (one, root2)]
            assert min(ends) >= 0 and max(ends) == 1, (a, ends)
    # q vanishes at s = sqrt(2) for a = 2*sqrt(2) and a = -sqrt(2).  The binary64
    # TWO_SQRT2 lies above 2*sqrt(2) and keeps q positive there, but -math.sqrt(2)
    # lies below -sqrt(2) and makes q positive at s = sqrt(2), against the
    # claimed negative sign; the sampled claim stops at x = 1 - 1e-9.
    assert _q(2 * root2, root2).sign() == _q(-root2, root2).sign() == 0
    assert _q(QSqrt2(Fraction(ab.TWO_SQRT2)), root2).sign() == 1
    assert _q(QSqrt2(Fraction(-SQRT2)), root2).sign() == 1
    assert _q(QSqrt2(Fraction(-SQRT2)), one).sign() == -1


def test_sampled_quadratic_sign_parameters_hold_exactly():
    """Every binary64 a that aux-sign-regimes samples makes q strictly one-signed on s in [1, sqrt(2)].

    q(a, s) is linear in s, so a strict sign at both ends is a strict sign on
    the closed interval, x = 1 included.
    """
    root2 = QSqrt2(Fraction(0), Fraction(1))
    for sign, values in ((1, QUADRATIC_POSITIVE_A_VALUES), (-1, QUADRATIC_NEGATIVE_A_VALUES)):
        for a in values:
            assert [sign * analysis._q(QSqrt2(Fraction(a)), s).sign() for s in (QSqrt2(Fraction(1)), root2)] == [1, 1], a


class TestGridArgmin:
    def test_chunking_invariant(self, monkeypatch):
        a = 2.7
        ref = ab.grid_argmin(a, 100_001)
        monkeypatch.setattr(analysis, "_ARGMIN_CHUNK", 7_777)
        alt = ab.grid_argmin(a, 100_001)
        assert ref == alt

    def test_matches_direct_numpy(self):
        a = 2.75
        bx, bval = ab.grid_argmin(a, 50_001)
        x = np.linspace(1e-9, 1.0 - 1e-9, 50_001)
        vals = ab.bound_ratio(a, x)
        i = int(np.argmin(vals))
        assert bx == float(x[i])
        assert bval == float(vals[i])


def test_interior_minimum_has_one_difference_sign_change():
    x = np.linspace(1e-9, 1.0 - 1e-9, 100_000)
    for a in (2.7, 2.75, 2.8):
        changes, runs = count_significant_sign_changes(ab.bound_ratio(a, x))
        assert changes == 1
        assert runs == [-1, 1]
