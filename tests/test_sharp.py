import math

import numpy as np
import pytest
from mpmath import mp

import arcbounds as ab
from arcbounds.analysis import bisect_sign_change
from arcbounds.errors import DomainError, RegimeError
from conftest import accuracy_sample, worst_ulp

PI = math.pi
PI_THIRD = 1.0471975511965979


class TestLambdaLower:
    def test_left_endpoint_value(self):
        got = ab.lambda_lower(1e-12)
        assert got == pytest.approx(1.5692193816520602, rel=1e-12)
        assert got < PI / 2.0

    def test_midpoint_below_arccos(self):
        got = ab.lambda_lower(0.5)
        assert got == pytest.approx(1.0469974479506170, rel=1e-13)
        assert got < PI_THIRD

    def test_right_endpoint_asymptotically_sharp(self):
        # at 1 - 1e-8 the true gap (~6e-20 relative) sits below binary64
        # resolution, so only closeness is assertable there; strictness is
        # checked where it is resolvable
        x = 1.0 - 1e-8
        ratio = ab.lambda_lower(x) / ab.arccos_stable(x)
        assert ratio <= 1.0
        assert abs(ratio - 1.0) < 1e-4
        assert ab.lambda_lower(0.999) < ab.arccos_stable(0.999)


class TestBestUpper:
    def test_collapses_to_pi_half(self):
        assert ab.best_upper(1e-12) == pytest.approx(PI / 2.0, abs=1e-11)

    def test_midpoint_above_arccos(self):
        got = ab.best_upper(0.5)
        assert got == pytest.approx(1.0477755250519717, rel=1e-13)
        assert got > PI_THIRD

    def test_right_endpoint_ratio(self):
        x = 1.0 - 1e-8
        ratio = ab.best_upper(x) / ab.arccos_stable(x)
        assert ratio > 1.0
        assert abs(ratio - 1.0) < 1e-4


class TestInstancePairs:
    def test_a_star_pair_left_sharpness(self):
        lower, upper = ab.a_star_pair(1e-12)
        assert lower == pytest.approx(PI / 2.0, abs=1e-11)
        assert upper > lower

    def test_a_star_pair_frozen(self):
        lower, upper = ab.a_star_pair(0.5)
        assert lower == pytest.approx(1.0464585654934847, rel=1e-13)
        assert upper == pytest.approx(1.0487750996803047, rel=1e-13)
        assert lower < PI_THIRD < upper

    def test_carlson_pair_right_sharpness(self):
        x = 1.0 - 1e-8
        lower, _ = ab.carlson_pair(x)
        scaled = lower / (math.sqrt(2.0) * math.sqrt(1.0 - x))
        assert abs(scaled - 1.0) < 1e-4

    def test_carlson_pair_frozen(self):
        lower, upper = ab.carlson_pair(0.5)
        assert lower == pytest.approx(1.0467457811220566, rel=1e-13)
        assert upper == pytest.approx(1.0491322332685031, rel=1e-13)
        assert lower < PI_THIRD < upper

    def test_sqrt3_lower_frozen(self):
        got = ab.sqrt3_lower(0.5)
        assert got == pytest.approx(1.0465803790829775, rel=1e-13)
        assert got < PI_THIRD

    def test_pairs_bracket_arccos_on_grid(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 10_001)
        acx = ab.arccos_stable(x)
        for pair in (ab.a_star_pair, ab.carlson_pair):
            lower, upper = pair(x)
            assert np.all(lower < acx)
            assert np.all(upper > acx)


class TestGainMaximizer:
    def test_argmax_limits(self):
        # 2*sqrt(2)*lambda(x), and lambda(0+) = cos(pi/12) because lambda(x) = cos(arccos(x)/6) and arccos(0) = pi/2
        assert ab.lower_gain_argmax(1e-12) == pytest.approx(ab.ONE_PLUS_SQRT3, rel=1e-12)
        assert abs(ab.lower_gain_argmax(1.0 - 1e-12) - ab.TWO_SQRT2) < 1e-6
        assert ab.lower_gain_argmax(0.5) == pytest.approx(2.7854569612800758, rel=1e-14)

    def test_argmax_stays_inside_regime(self):
        # 2*sqrt(2)*(cos(pi/12) - 1e-15) is 1+sqrt(3) - 2.83e-15; 4e-15 adds one rounding step
        x = np.linspace(1e-9, 1.0 - 1e-9, 20_000)
        am = ab.lower_gain_argmax(x)
        assert np.all(am > ab.ONE_PLUS_SQRT3 - 4e-15)
        assert np.all(am < ab.TWO_SQRT2)

    def test_argmax_increases_strictly(self):
        x = np.linspace(1e-9, 1.0 - 1e-9, 20_000)
        assert np.all(np.diff(ab.lower_gain_argmax(x)) > 0.0)

    def test_argmax_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                ab.lower_gain_argmax(bad)

    def test_closed_form_matches_composition(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 2_001)
        att = ab.lower_gain(ab.lower_gain_argmax(x), x)
        closed = ab.lower_gain_max(x)
        assert np.allclose(att, closed, rtol=1e-13, atol=0.0)

    def test_beats_brute_force_grid(self):
        avals = np.linspace(ab.A_STAR, ab.TWO_SQRT2, 10_001)[1:-1]
        for x in (0.01, 0.25, 0.5, 0.9, 0.999):
            grid_best = float(np.max(ab.lower_gain(avals, x)))
            attained = ab.lower_gain(ab.lower_gain_argmax(x), x)
            assert attained >= grid_best - 1e-15

    def test_gain_frozen_value(self):
        assert ab.lower_gain(ab.lower_gain_argmax(0.5), 0.5) == pytest.approx(0.18508474883272265, rel=1e-13)

    def test_domain(self):
        with pytest.raises(RegimeError):
            ab.lower_gain(ab.A_STAR, 0.5)
        with pytest.raises(RegimeError):
            ab.lower_gain(ab.TWO_SQRT2, 0.5)
        with pytest.raises(RegimeError):
            ab.lower_gain(3.0, 0.5)


class TestBestPair:
    def test_lambda_bound_dominates_instances(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 10_001)
        lam = ab.lambda_lower(x)
        assert np.all(lam >= ab.carlson_pair(x)[0])
        assert np.all(lam >= ab.sqrt3_lower(x))

    def test_best_upper_dominates_instances(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 10_001)
        bu = ab.best_upper(x)
        assert np.all(bu <= ab.a_star_pair(x)[1])
        assert np.all(bu <= ab.carlson_pair(x)[1])

    def test_noninclusion_and_crossover(self):
        # the pi**2 bound wins near 0, the lambda bound wins from the
        # crossover on; located here independently by bisection
        d = lambda t: ab.lambda_lower(t) - ab.a_star_pair(t)[0]
        assert d(1e-6) < 0.0
        assert d(0.9) > 0.0
        root, _ = bisect_sign_change(d, 1e-6, 0.9, xtol=1e-12)
        assert root == pytest.approx(0.34090601619136765, abs=1e-9)

    def test_lambda_dominates_at_nine_tenths(self):
        assert ab.lambda_lower(0.9) == pytest.approx(0.45102391594027159, rel=1e-12)
        assert ab.a_star_pair(0.9)[0] == pytest.approx(0.45018269444326524, rel=1e-12)
        assert ab.lambda_lower(0.9) > ab.a_star_pair(0.9)[0]

    def test_assembly(self):
        sb = ab.best_pair(0.5)
        assert sb.lower_best == max(sb.lower_lambda, sb.lower_pi2)
        assert sb.lower_best < PI_THIRD < sb.upper_best
        assert sb.lower_lambda == pytest.approx(ab.lambda_lower(0.5), rel=0)
        assert sb.upper_best == pytest.approx(ab.best_upper(0.5), rel=0)

    def test_best_lower_array_matches_scalar(self):
        x = np.array([0.1, 0.34, 0.35, 0.9])
        vec = ab.best_lower(x)
        for xi, vi in zip(x, vec):
            assert vi == ab.best_lower(float(xi))

    def test_containment_on_grid(self):
        x = np.linspace(1e-6, 1.0 - 1e-6, 50_001)
        acx = ab.arccos_stable(x)
        assert np.all(ab.best_lower(x) < acx)
        assert np.all(ab.best_upper(x) > acx)


# The paper's closed forms, with the exact A*, A_CROSS, 2*sqrt(2) and 1+sqrt(3).
def _mp_a_star(side):
    def exact(x):
        den = 2 * (mp.pi - 2) + (4 - mp.pi) * mp.sqrt(1 + x)
        if side == 0:
            return mp.pi**2 * mp.sqrt(1 - x) / (2 * den)
        r2 = mp.sqrt(2)
        return 2 * (2 * (2 - r2) + (r2 - 1) * mp.pi) * mp.sqrt(1 - x) / den

    return exact


def _mp_carlson(side):
    def exact(x):
        c = 6 if side == 0 else mp.pi * (1 + 2 * mp.sqrt(2)) / 2
        return c * mp.sqrt(1 - x) / (2 * mp.sqrt(2) + mp.sqrt(1 + x))

    return exact


def _mp_sqrt3_lower(x):
    a = 1 + mp.sqrt(3)
    return 8 * (1 - 2 / a**2) * mp.sqrt(1 - x) / (a + mp.sqrt(1 + x))


def _mp_best_upper(x):
    return mp.pi * (2 - mp.sqrt(2)) * mp.sqrt(1 - x) / ((4 - mp.pi) + (mp.pi - 2 * mp.sqrt(2)) * mp.sqrt(1 + x))


def _mp_lambda(x):
    # the paper's arctan form, the independent oracle of sharp._lambda's cos(arccos(x)/6)
    return mp.cos(mp.atan(mp.sqrt((1 - x) / (1 + x))) / 3)


def _mp_lambda_lower(x):
    lam = _mp_lambda(x)
    return 2 * (4 * lam**2 - 1) * mp.sqrt(1 - x) / ((2 * mp.sqrt(2) * lam + mp.sqrt(1 + x)) * lam**2)


def _mp_family(a, constants):
    # constants(a, left, right) picks (lower, upper) from the endpoint limits and the floor
    def pair(x):
        am = mp.mpf(a)
        consts = constants(am, mp.pi * (1 + am) / 2, 2 + mp.sqrt(2) * am)
        return [c * mp.sqrt(1 - x) / (am + mp.sqrt(1 + x)) for c in consts]

    return pair


_FAMILY_CASES = [
    (0.5, lambda a, left, right: (left, right)),
    (2.7, lambda a, left, right: (8 * (1 - 2 / a**2), max(left, right))),
    (4.0, lambda a, left, right: (right, left)),
]
NAMED_BOUNDS = [
    ("a_star_pair-lower", lambda x: ab.a_star_pair(x)[0], _mp_a_star(0)),
    ("a_star_pair-upper", lambda x: ab.a_star_pair(x)[1], _mp_a_star(1)),
    ("carlson_pair-lower", lambda x: ab.carlson_pair(x)[0], _mp_carlson(0)),
    ("carlson_pair-upper", lambda x: ab.carlson_pair(x)[1], _mp_carlson(1)),
    ("sqrt3_lower", ab.sqrt3_lower, _mp_sqrt3_lower),
    ("best_upper", ab.best_upper, _mp_best_upper),
    ("lambda_lower", ab.lambda_lower, _mp_lambda_lower),
    *(
        (f"bound_arrays-{side}[a={a:g}]", lambda x, a=a, k=k: ab.bound_arrays(a, x)[k], lambda x, p=_mp_family(a, c), k=k: p(x)[k])
        for a, c in _FAMILY_CASES
        for k, side in enumerate(("lower", "upper"))
    ),
]


@pytest.mark.parametrize("fn, exact_fn", [case[1:] for case in NAMED_BOUNDS], ids=[case[0] for case in NAMED_BOUNDS])
def test_named_bound_ulp_error_against_mpmath(fn, exact_fn):
    xs = accuracy_sample()
    xs = xs[(xs > 0.0) & (xs < 1.0)]
    worst = worst_ulp(fn(xs), exact_fn, xs)
    assert worst <= 4.0, f"{float(worst):.3f} ulp"


def _lambda_sample() -> np.ndarray:
    """The accuracy sample's points in (0, 1) plus points spaced geometrically toward 0."""
    xs = accuracy_sample()
    return np.concatenate([xs[(xs > 0.0) & (xs < 1.0)], np.geomspace(1e-300, 1e-2, 200)])


def test_lambda_identities_at_50_digits():
    # The arctan is arccos(x)/2, so lambda = cos(arccos(x)/6); by cos(3t) = 4*cos(t)**3 - 3*cos(t),
    # 4*lam**3 - 3*lam = sqrt((1+x)/2), that is 2*sqrt(2)*lam + sqrt(1+x) = sqrt(2)*lam*(4*lam**2 - 1).
    with mp.workdps(50):
        for x in map(mp.mpf, _lambda_sample().tolist()):
            lam = _mp_lambda(x)
            assert abs(mp.cos(mp.acos(x) / 6) - lam) < mp.mpf(10) ** -48
            r2 = mp.sqrt(2)
            assert abs(2 * r2 * lam + mp.sqrt(1 + x) - r2 * lam * (4 * lam**2 - 1)) < mp.mpf(10) ** -47


@pytest.mark.parametrize(
    "fn, exact_fn, bound",
    [
        (ab.lower_gain_argmax, lambda x: 2 * mp.sqrt(2) * _mp_lambda(x), 2.0),
        (ab.lower_gain_max, lambda x: _mp_lambda_lower(x) / (8 * mp.sqrt(1 - x)), 3.0),
    ],
    ids=["lower_gain_argmax", "lower_gain_max"],
)
def test_lambda_kernel_ulp_error_against_the_arctan_form(fn, exact_fn, bound):
    xs = _lambda_sample()
    worst = worst_ulp(fn(xs), exact_fn, xs, dps=50)
    assert worst <= bound, f"{float(worst):.3f} ulp"
