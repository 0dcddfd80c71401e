"""Derivative-sign apparatus for the bound family and its interior minimum.

The x-derivative of the family ratio factors as a positive (or, for
a <= -2, negative) prefactor times ``slope_factor``:

    slope_factor(a, x) = arccos(x) + 2*(x-1)*(a*s + x + 1) / (sqrt(1-x**2)*(a*s + 2))

with s = sqrt(1+x).  Because a*s + x + 1 = s*(a + s), the second term
collapses to -2*sqrt(1-x)*(a+s)/(a*s + 2), which is how it is evaluated;
the sqrt(1-x**2) form loses half the digits near x = 1.  The derivative
of slope_factor is in turn driven by a quadratic in a,

    slope_quadratic(a, x) = a**2 * s - a*(1+x) - 4*s,

whose two roots in a are strictly increasing functions of x.  A second
rearrangement gives ``slope_term`` (the cleared-denominator variant) and
the threshold function ``slope_threshold`` = 4*sqrt(1-x)/arccos(x), which
increases from 8/pi to 2*sqrt(2) and separates the parameter ranges where
slope_term is one-signed.

``find_minimum`` brackets the unique zero of slope_factor in the
interior-minimum regime by bisection, which is guaranteed to converge
once a sign change is in hand; speed is immaterial at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError
from .family import (
    A_STAR,
    PI,
    SQRT2,
    TWO_SQRT2,
    _check_finite_parameter,
    _check_open_unit,
    _floor,
    _scalar_like,
    arccos_ratio,
    arccos_stable,
    bound_ratio,
)

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
    "grid_argmin",
]


@dataclass(frozen=True)
class MinimumResult:
    """Located interior minimum of the family ratio for one parameter.

    ``residual`` is |slope_factor(a, x0)|, the defect of the implicit
    first-order condition arccos(x0) = 2*sqrt(1-x0)*(a+u)/(a*u+2), u = sqrt(1+x0).
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


def slope_factor(a: float, x):
    """Sign carrier of the ratio's x-derivative (requires a outside (-2, -sqrt(2)))."""
    _check_slope_parameter(a)
    arr = _check_open_unit(x)
    s = np.sqrt(1.0 + arr)
    out = arccos_stable(arr) - 2.0 * np.sqrt(1.0 - arr) * (a + s) / (a * s + 2.0)
    return _scalar_like(x, out)


def slope_factor_limit0(a: float) -> float:
    """Limit of slope_factor at x -> 0+: ((pi-4)*a + 2*(pi-2)) / (2*(a+2)).

    Zero exactly at a = A_STAR, which is where the interior minimum enters
    through the left endpoint.
    """
    _check_slope_parameter(a)
    return ((PI - 4.0) * a + 2.0 * (PI - 2.0)) / (2.0 * (a + 2.0))


def slope_quadratic(a: float, x):
    """Quadratic in a controlling the slope factor's monotonicity."""
    _check_finite_parameter(a)
    arr = _check_open_unit(x)
    s = np.sqrt(1.0 + arr)
    out = a * a * s - a * (1.0 + arr) - 4.0 * s
    return _scalar_like(x, out)


def slope_quadratic_roots(x):
    """The two roots in a of slope_quadratic, both strictly increasing in x.

    root_lo spans ((1-sqrt(17))/2, -sqrt(2)) and root_hi spans
    ((1+sqrt(17))/2, 2*sqrt(2)) as x runs over (0, 1).
    """
    arr = _check_open_unit(x)
    disc = np.sqrt(arr * arr + 18.0 * arr + 17.0)
    den = 2.0 * np.sqrt(1.0 + arr)
    lo = (arr + 1.0 - disc) / den
    hi = (arr + 1.0 + disc) / den
    return _scalar_like(x, lo), _scalar_like(x, hi)


def slope_term(a: float, x):
    """Cleared-denominator variant of the slope sign carrier.

    (a*s + 2)*arccos(x) - 2*sqrt(1-x)*(a+s); one-signed on (0, 1) for
    a <= 8/pi (positive) and for a >= 2*sqrt(2) (negative).
    """
    _check_slope_parameter(a)
    arr = _check_open_unit(x)
    s = np.sqrt(1.0 + arr)
    out = (a * s + 2.0) * arccos_stable(arr) - 2.0 * np.sqrt(1.0 - arr) * (a + s)
    return _scalar_like(x, out)


def slope_threshold(x):
    """4*sqrt(1-x)/arccos(x); strictly increasing from 8/pi to 2*sqrt(2)."""
    arr = _check_open_unit(x)
    out = 4.0 / arccos_ratio(arr)
    return _scalar_like(x, out)


def threshold_gap(x):
    """2*sqrt(1-x**2)/(1+x) - arccos(x); positive and strictly decreasing to 0."""
    arr = _check_open_unit(x)
    out = 2.0 * np.sqrt(1.0 - arr) / np.sqrt(1.0 + arr) - arccos_stable(arr)
    return _scalar_like(x, out)


def bisect_sign_change(fn: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-13, max_iter: int = 200) -> tuple[float, int]:
    """Bisect fn on [lo, hi] down to an interval of width xtol.

    fn(lo) and fn(hi) must have opposite signs.  Returns the midpoint of
    the final interval and the iteration count.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if (flo > 0.0) == (fhi > 0.0):
        raise ConvergenceError("no sign change on the supplied interval")
    negative_left = flo < 0.0
    iterations = 0
    while hi - lo > xtol and iterations < max_iter:
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


def _check_interior_regime(a: float) -> None:
    if not math.isfinite(a) or a <= A_STAR or a >= TWO_SQRT2:
        raise RegimeError(f"a = {a!r} is outside the open interior-minimum interval (A_STAR, 2*sqrt(2))")


def find_minimum(a: float) -> MinimumResult:
    """Locate the unique interior minimum of the ratio for A_STAR < a < 2*sqrt(2).

    Brackets the sign change of slope_factor starting from
    (1e-9, 1 - 1e-9), widening toward the endpoints in powers of 10 if
    needed (the minimum migrates to an endpoint as a approaches a regime
    boundary), then bisects to an interval below 1e-13.
    """
    _check_interior_regime(a)
    fn = lambda x: slope_factor(a, x)
    lo, hi = 1e-9, 1.0 - 1e-9
    widen = 1e-9
    while (fn(lo) > 0.0) == (fn(hi) > 0.0):
        widen *= 0.1
        if widen < 1e-14:
            raise ConvergenceError(f"slope factor shows no sign change on (0, 1) for a = {a!r}")
        lo, hi = widen, 1.0 - widen
    x0, iterations = bisect_sign_change(fn, lo, hi, xtol=1e-13)
    return MinimumResult(a=float(a), x0=x0, f_min=float(bound_ratio(a, x0)), residual=abs(fn(x0)), iterations=iterations)


def min_floor_gap(a: float, u):
    """2*(a+u)**2/(a*u+2) - 8*(1 - 2/a**2); nonnegative whenever a*u + 2 > 0."""
    u_arr = np.asarray(u, dtype=np.float64)
    out = 2.0 * (a + u_arr) ** 2 / (a * u_arr + 2.0) - _floor(a)
    return _scalar_like(u, out)


def min_value_lower(a: float) -> float:
    """Floor 8*(1 - 2/a**2) for the interior minimum value.

    Accepts the closed right endpoint a = 2*sqrt(2), where the floor
    equals the classical constant 6.  The algebraic step behind the floor,
    2*(a+u)**2/(a*u+2) >= 8*(1 - 2/a**2) for u in (1, sqrt(2)), is
    re-checked on a coarse u-grid at every call.
    """
    if not math.isfinite(a) or a <= A_STAR or a > TWO_SQRT2:
        raise RegimeError(f"a = {a!r} is outside (A_STAR, 2*sqrt(2)]")
    u = np.linspace(1.0, SQRT2, 4097)
    gaps = min_floor_gap(a, u)
    if np.min(gaps) < -64.0 * np.spacing(8.0):
        raise AssertionError("floor identity violated; implementation fault")
    return _floor(a)


def grid_argmin(a: float, n: int, lo: float = 1e-9, hi: float = 1.0 - 1e-9, chunk: int = 2_000_000) -> tuple[float, float]:
    """Brute-force argmin of the ratio on a uniform n-point grid.

    Evaluates in chunks to bound memory; ties resolve to the smallest
    abscissa, so the result is independent of the chunking.
    """
    if n < 2:
        raise ValueError("grid needs at least two points")
    best_val = math.inf
    best_x = math.nan
    step = (hi - lo) / (n - 1)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        x = lo + step * np.arange(start, stop, dtype=np.float64)
        vals = bound_ratio(a, x)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = float(x[i])
    return best_x, best_val
