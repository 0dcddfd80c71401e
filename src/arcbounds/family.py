"""The parametric bound family for arccos and its monotonicity regimes.

For a real shape parameter ``a`` the ratio

    R(a, x) = (a + sqrt(1 + x)) * arccos(x) / sqrt(1 - x),    0 < x < 1,

interpolates between pi*(1+a)/2 as x -> 0+ and 2 + sqrt(2)*a as x -> 1-.
Its monotonicity in x decides which endpoint limit bounds it, which turns
the ratio into a two-sided elementary bound for arccos:

* a <= A_STAR          : strictly increasing, so
                         pi*(1+a)/2 < R < 2 + sqrt(2)*a.
* a >= 2*sqrt(2)       : strictly decreasing, bracket reversed.
* A_STAR < a < 2*sqrt(2): unique interior minimum; the minimum value is
                         bounded below by 8*(1 - 2/a**2).

Here A_STAR = 2*(pi - 2)/(4 - pi).  Both endpoint constants are attained
as limits, so they are the best possible for this bound shape.  The
classical double inequality with constants 6 and (1/2 + sqrt(2))*pi is
the special case a = 2*sqrt(2).

All functions are pure, accept scalars or numpy arrays, and do all
arithmetic in binary64.  arccos comes straight from libm: the quotient
arccos(x)/sqrt(1-x) needs no rewrite near x = 1, because 1 - x is exact
for x >= 1/2 (Sterbenz's lemma).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "A_STAR",
    "TWO_SQRT2",
    "SQRT2",
    "Regime",
    "BoundPair",
    "arccos_stable",
    "arccos_ratio",
    "bound_ratio",
    "endpoint_limits",
    "classify_regime",
    "lower_constant",
    "upper_constant",
    "bound_pair",
    "bound_arrays",
]

PI = math.pi
SQRT2 = math.sqrt(2.0)
TWO_SQRT2 = 2.0 * math.sqrt(2.0)
# Threshold between the increasing and interior-minimum regimes.  Kept as an
# expression so it is consistent with the pi used everywhere else.
A_STAR = 2.0 * (PI - 2.0) / (4.0 - PI)


class Regime(enum.Enum):
    """Monotonicity regime of the bound ratio as a function of x."""

    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    INTERIOR_MINIMUM = "InteriorMinimum"


@dataclass(frozen=True)
class BoundPair:
    """A two-sided bound for arccos(x) produced by the family at one point.

    ``lower`` and ``upper`` are c * sqrt(1-x) / (a + sqrt(1+x)) with the
    regime's best constants ``c_lower`` and ``c_upper``.
    """

    x: float
    lower: float
    upper: float
    c_lower: float
    c_upper: float
    a: float


def _as_float_array(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    return arr


def _check_open_unit(x) -> np.ndarray:
    arr = _as_float_array(x)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("x must lie in the open interval (0, 1)")
    return arr


def _scalar_like(x, value: np.ndarray):
    return float(value) if np.ndim(x) == 0 else value


def arccos_stable(x):
    """arccos(x) on [-1, 1]: np.arccos behind a domain check.

    The accuracy is the platform libm's; the tests hold it to 1 ulp.
    Raises DomainError if |x| > 1.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(arr)) or np.any(np.abs(arr) > 1.0):
        raise DomainError("arccos argument must lie in [-1, 1]")
    return _scalar_like(x, np.arccos(arr))


def arccos_ratio(x):
    """arccos(x) / sqrt(1 - x) for x in [-1, 1], with the limit sqrt(2) at x = 1.

    A plain quotient: 1 - x is exact for x >= 1/2, so near x = 1 only the
    roundings of arccos, sqrt and the division remain (3 ulp in the tests).
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(arr)) or np.any(np.abs(arr) > 1.0):
        raise DomainError("argument must lie in [-1, 1]")
    out = np.divide(np.arccos(arr), np.sqrt(1.0 - arr), out=np.full(arr.shape, SQRT2), where=arr < 1.0)
    return _scalar_like(x, out)


def _check_finite_parameter(a: float) -> None:
    if not math.isfinite(a):
        raise DomainError("shape parameter must be finite")


def _shape(a: float, arr: np.ndarray) -> np.ndarray:
    return np.sqrt(1.0 - arr) / (a + np.sqrt(1.0 + arr))


def _floor(a: float) -> float:
    if a * a == 0.0:
        raise DomainError(f"floor constant 8*(1-2/a^2) is undefined at a = 0 and where a^2 underflows (a={a:.17g})")
    floor = 8 * (1 - 2 / (a * a))  # integer constants: exact on fractions.Fraction arguments
    if not math.isfinite(floor):
        raise DomainError(f"floor constant 8*(1-2/a^2) overflows for a this close to 0 (a={a:.17g})")
    return floor


def bound_ratio(a: float, x):
    """Evaluate the family ratio (a + sqrt(1+x)) * arccos(x) / sqrt(1-x).

    x must lie in (0, 1), and a where ``endpoint_limits`` is finite, which keeps the ratio finite.
    """
    endpoint_limits(a)
    arr = _check_open_unit(x)
    out = (a + np.sqrt(1.0 + arr)) * arccos_ratio(arr)
    return _scalar_like(x, out)


def endpoint_limits(a: float) -> tuple[float, float]:
    """Limits of the ratio at the two endpoints: (pi*(1+a)/2, 2 + sqrt(2)*a).

    Raises DomainError for a non-finite a and where a limit overflows (|a| above about 5.72e307).
    """
    _check_finite_parameter(a)
    at0, at1 = PI * (1.0 + a) / 2.0, 2.0 + SQRT2 * a
    if not (math.isfinite(at0) and math.isfinite(at1)):
        raise DomainError(f"endpoint limit pi*(1+a)/2 overflows for a this far from 0 (a={a:.17g})")
    return at0, at1


def classify_regime(a: float) -> Regime:
    """Classify the monotonicity regime of the ratio for a finite a.

    Boundary values belong to the monotone regimes: a = A_STAR is
    increasing and a = 2*sqrt(2) is decreasing.
    """
    _check_finite_parameter(a)
    if a <= A_STAR:
        return Regime.INCREASING
    if a >= TWO_SQRT2:
        return Regime.DECREASING
    return Regime.INTERIOR_MINIMUM


def _check_bound_parameter(a: float) -> None:
    _check_finite_parameter(a)
    if a <= -1.0:
        raise DomainError("bound evaluation requires a > -1 so the denominator stays positive")


def _constants(a: float) -> tuple[float, float]:
    """The regime's best (lower, upper) constants for ``a`` (requires a > -1)."""
    _check_bound_parameter(a)
    at0, at1 = endpoint_limits(a)
    regime = classify_regime(a)
    if regime is Regime.INCREASING:
        return at0, at1
    if regime is Regime.DECREASING:
        return at1, at0
    return _floor(a), max(at0, at1)


def lower_constant(a: float) -> float:
    """Best lower bound constant for the regime of ``a`` (requires a > -1).

    Increasing regime: pi*(1+a)/2 (the x -> 0+ limit).  Decreasing regime:
    2 + sqrt(2)*a (the x -> 1- limit).  Interior minimum: the floor
    8*(1 - 2/a**2) for the minimum value.
    """
    return _constants(a)[0]


def upper_constant(a: float) -> float:
    """Best upper bound constant for the regime of ``a`` (requires a > -1)."""
    return _constants(a)[1]


def bound_arrays(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (lower, upper) bound values at the points ``x``."""
    template = _shape(a, _check_open_unit(x))
    c_lower, c_upper = _constants(a)
    return c_lower * template, c_upper * template


def bound_pair(a: float, x: float) -> BoundPair:
    """Two-sided bound for arccos(x) with the best constants for ``a``.

    Guarantees lower < arccos(x) < upper in exact arithmetic; in binary64
    the containment holds up to 4 ulp of arccos(x).
    """
    template = _shape(a, _check_open_unit(x))
    c_lower, c_upper = _constants(a)
    lower, upper = float(c_lower * template), float(c_upper * template)
    return BoundPair(x=float(x), lower=lower, upper=upper, c_lower=c_lower, c_upper=c_upper, a=float(a))
