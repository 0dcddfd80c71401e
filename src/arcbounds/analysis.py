"""Derivative-sign apparatus for the bound family and its interior minimum.

The x-derivative of the family ratio factors as a positive (or, for
a <= -2, negative) prefactor times ``slope_factor``:

    slope_factor(a, x) = arccos(x) + 2*(x-1)*(a*s + x + 1) / (sqrt(1-x**2)*(a*s + 2))

with s = sqrt(1+x).  Because a*s + x + 1 = s*(a + s), the second term
collapses to -2*sqrt(1-x)*(a+s)/(a*s + 2), which is how it is evaluated;
the sqrt(1-x**2) form loses half the digits near x = 1.  The derivative
of slope_factor is in turn driven by a quadratic in a.  One factor,
q(a, s) = a**2 - a*s - 4, carries it, its roots and the minimum's floor:

    slope_quadratic(a, x) = a**2*s - a*(1+x) - 4*s = s*q(a, s)
    roots in a: (s + sqrt(s**2 + 16))/2 and -8/(s + sqrt(s**2 + 16))
    2*(a+s)**2/(a*s+2) - 8*(1 - 2/a**2) = 2*q(a, s)**2/(a**2*(a*s+2))

Both roots increase strictly in x; the low one is written without
cancellation.  The floor gap is a perfect square, so 8*(1 - 2/a**2) is a
floor wherever a*s + 2 > 0; a test proves the identities exactly.  A second
rearrangement gives ``slope_term`` (the cleared-denominator variant) and
the threshold function ``slope_threshold`` = 4*sqrt(1-x)/arccos(x), which
increases from 8/pi to 2*sqrt(2) and separates the parameter ranges where
slope_term is one-signed.  ``slope_quadratic``, ``slope_quadratic_roots``,
``slope_term``, ``slope_threshold`` and ``threshold_gap`` check their input
and call their kernel, ``_slope_term`` and so on, on a ``grids._GridTerms``,
as the aux claims do on each block; ``slope_factor`` is a scalar path.

``find_minimum`` brackets the unique zero of slope_factor in the
interior-minimum regime by bisection, which is guaranteed to converge
once a sign change is in hand; speed is immaterial at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError
from .family import (
    PI,
    SQRT2,
    TWO_SQRT2,
    Regime,
    _check_finite_parameter,
    _check_open_unit,
    _floor,
    _scalar_like,
    arccos_stable,
    bound_ratio,
    classify_regime,
)
from .grids import _GridTerms

__all__ = [
    "MinimumResult",
    "slope_factor",
    "slope_factor_limit0",
    "slope_quadratic",
    "slope_quadratic_roots",
    "slope_term",
    "slope_threshold",
    "threshold_gap",
    "bisect_sign_change",
    "find_minimum",
    "min_value_lower",
    "min_floor_gap",
]


@dataclass(frozen=True)
class MinimumResult:
    """Located interior minimum of the family ratio for one parameter.

    ``residual`` is |slope_factor(a, x0)|, the defect of the implicit
    first-order condition arccos(x0) = 2*sqrt(1-x0)*(a+u)/(a*u+2), u = sqrt(1+x0).
    It is not an accuracy measure within about 6e-8 of a = 2*sqrt(2): there
    the slope factor near the minimum is rounding noise, the bisection
    settles on a noise sign change, and the residual reads 0 while x0 lies
    up to about 2.4e-7 from the true root (the tests hold it to 5e-7).
    """

    a: float
    x0: float
    f_min: float
    residual: float
    iterations: int


def _check_slope_parameter(a: float) -> None:
    _check_finite_parameter(a)
    if -2.0 < a < -SQRT2:
        raise DomainError("a in (-2, -sqrt(2)) makes the slope-factor denominator vanish on (0, 1)")


def _representable(name: str, a: float, x, out):
    """``out`` for ``x``; DomainError, not the numpy warning its caller ignores, where a value is not finite."""
    if not np.isfinite(out).all():
        raise DomainError(f"{name} is infinite or overflows binary64 for a={a:.17g}")
    return _scalar_like(x, out)


@np.errstate(all="ignore")
def slope_factor(a: float, x):
    """Sign carrier of the ratio's x-derivative; requires a outside (-2, -sqrt(2)) and a finite value."""
    _check_slope_parameter(a)
    arr = _check_open_unit(x)
    s = np.sqrt(1.0 + arr)
    out = arccos_stable(arr) - 2.0 * np.sqrt(1.0 - arr) * (a + s) / (a * s + 2.0)
    return _representable("slope factor", a, x, out)


def slope_factor_limit0(a: float) -> float:
    """Limit of slope_factor at x -> 0+: ((pi-4)*a + 2*(pi-2)) / (2*(a+2)).

    Zero exactly at a = A_STAR, which is where the interior minimum enters
    through the left endpoint.  Infinite at a = -2, which raises DomainError.
    """
    _check_slope_parameter(a)
    if a == -2.0:
        raise DomainError("the slope-factor limit at x -> 0+ is infinite at a = -2")
    # the halved numerator over a + 2: the same bits, and no overflow of 2*(a + 2) for |a| above 9e307
    return (0.5 * (PI - 4.0) * a + (PI - 2.0)) / (a + 2.0)


def _q(a, s):
    """a**2 - a*s - 4; integer constants keep it exact on fractions.Fraction arguments."""
    return a * a - a * s - 4


def _slope_quadratic(a, terms: _GridTerms):
    return terms.sqrt_1px * _q(a, terms.sqrt_1px)


@np.errstate(all="ignore")
def slope_quadratic(a: float, x):
    """Quadratic in a controlling the slope factor's monotonicity: s*q(a, s), s = sqrt(1+x)."""
    _check_finite_parameter(a)
    return _representable("slope quadratic", a, x, _slope_quadratic(a, _GridTerms(_check_open_unit(x))))


def _slope_quadratic_roots(terms: _GridTerms) -> tuple[np.ndarray, np.ndarray]:
    t = terms.sqrt_1px + np.sqrt(terms.sqrt_1px * terms.sqrt_1px + 16.0)
    return -8.0 / t, 0.5 * t


def slope_quadratic_roots(x):
    """The two roots in a of slope_quadratic, both strictly increasing in x.

    root_lo spans ((1-sqrt(17))/2, -sqrt(2)) and root_hi spans
    ((1+sqrt(17))/2, 2*sqrt(2)) as x runs over (0, 1).
    """
    return tuple(_scalar_like(x, root) for root in _slope_quadratic_roots(_GridTerms(_check_open_unit(x))))


def _slope_term(a: float, terms: _GridTerms):
    return (a * terms.sqrt_1px + 2.0) * terms.arccos - 2.0 * terms.sqrt_1mx * (a + terms.sqrt_1px)


@np.errstate(all="ignore")
def slope_term(a: float, x):
    """Cleared-denominator variant of the slope sign carrier.

    (a*s + 2)*arccos(x) - 2*sqrt(1-x)*(a+s); one-signed on (0, 1) for
    a <= 8/pi (positive) and for a >= 2*sqrt(2) (negative).
    """
    _check_slope_parameter(a)
    return _representable("slope term", a, x, _slope_term(a, _GridTerms(_check_open_unit(x))))


def _slope_threshold(terms: _GridTerms):
    return 4.0 / terms.ratio


def slope_threshold(x):
    """4*sqrt(1-x)/arccos(x); strictly increasing from 8/pi to 2*sqrt(2)."""
    return _scalar_like(x, _slope_threshold(_GridTerms(_check_open_unit(x))))


def _threshold_gap(terms: _GridTerms):
    return 2.0 * terms.sqrt_1mx / terms.sqrt_1px - terms.arccos


def threshold_gap(x):
    """2*sqrt(1-x**2)/(1+x) - arccos(x); positive and strictly decreasing to 0."""
    return _scalar_like(x, _threshold_gap(_GridTerms(_check_open_unit(x))))


# Cap on bisection steps, far above the ~43 an interval in (0, 1) needs to reach 1e-13.
_BISECT_MAX_ITER = 200


def bisect_sign_change(fn: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-13) -> tuple[float, int]:
    """Bisect fn on [lo, hi] down to an interval of width xtol, in at most 200 steps.

    fn(lo) and fn(hi) must be nonzero and of opposite signs: an end where fn
    rounds to 0 is no evidence of a root there.  Returns the midpoint of the
    final interval and the iteration count.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise ConvergenceError("no strict sign change on the supplied interval")
    negative_left = flo < 0.0
    iterations = 0
    while hi - lo > xtol and iterations < _BISECT_MAX_ITER:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = fn(mid)
        if fmid == 0.0:
            return mid, iterations + 1
        if (fmid < 0.0) == negative_left:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return 0.5 * (lo + hi), iterations


def find_minimum(a: float) -> MinimumResult:
    """Locate the unique interior minimum of the ratio for A_STAR < a < 2*sqrt(2).

    slope_factor is negative left of the minimum and positive right of it.
    Each bracket end is the first point at a distance in ``offsets`` from its
    endpoint where that sign is strict: first toward the endpoint, where the
    minimum migrates near a regime boundary, then away from it, because near
    2*sqrt(2) the slope factor is rounding noise within ~1e-8 of x = 1.  The
    bracket is bisected to below 1e-13.  Raises RegimeError, naming the
    nearby boundary, if binary64 resolves no strict sign at one end.
    """
    if classify_regime(a) is not Regime.INTERIOR_MINIMUM:
        raise RegimeError(f"a = {a!r} is outside the open interior-minimum interval (A_STAR, 2*sqrt(2))")
    fn = lambda x: slope_factor(a, x)
    offsets = (1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
    lo = next((t for t in offsets if fn(t) < 0.0), None)
    hi = next((1.0 - t for t in offsets if fn(1.0 - t) > 0.0), None)
    if lo is None or hi is None:
        boundary = "A_STAR" if lo is None else "2*sqrt(2)"
        raise RegimeError(f"a = {a!r} is too close to {boundary} for binary64 to bracket the interior minimum")
    x0, iterations = bisect_sign_change(fn, lo, hi, xtol=1e-13)
    return MinimumResult(a=float(a), x0=x0, f_min=float(bound_ratio(a, x0)), residual=abs(fn(x0)), iterations=iterations)


@np.errstate(all="ignore")
def min_floor_gap(a: float, u):
    """2*(a+u)**2/(a*u+2) - 8*(1 - 2/a**2) as the square 2*(q(a, u)/a)**2/(a*u+2).

    Nonnegative where a*u + 2 > 0; q/a stays finite for large a.  Raises
    DomainError where the floor does, for a non-finite u, and where the gap
    is infinite (a*u + 2 = 0) or overflows.
    """
    _floor(a)
    u_arr = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u_arr).all():
        raise DomainError("floor gap argument u must be finite")
    return _representable("floor gap", a, u, 2.0 * (_q(a, u_arr) / a) ** 2 / (a * u_arr + 2.0))


def min_value_lower(a: float) -> float:
    """Floor 8*(1 - 2/a**2) for the interior minimum value.

    Accepts the closed right endpoint a = 2*sqrt(2), where the floor
    equals the classical constant 6.  It is a floor because the gap above
    it, ``min_floor_gap``, is a perfect square.
    """
    if a != TWO_SQRT2 and classify_regime(a) is not Regime.INTERIOR_MINIMUM:
        raise RegimeError(f"a = {a!r} is outside (A_STAR, 2*sqrt(2)]")
    return _floor(a)

