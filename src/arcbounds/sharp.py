"""Sharpened arccos bounds extracted from the family's optimal instances.

Each named bound is the family shape c*sqrt(1-x)/(a + sqrt(1+x)) at a
distinguished shape parameter, evaluated through ``family.bound_arrays``
(``carlson_pair`` keeps its literal constants); the paper's closed forms:

* ``a_star_pair``   -- the increasing/minimum threshold a = A_STAR; its
  lower constant clears to pi**2 / (2*[2*(pi-2) + (4-pi)*sqrt(1+x)]).
* ``carlson_pair``  -- a = 2*sqrt(2), the classical constants 6 and
  (1/2 + sqrt(2))*pi.
* ``sqrt3_lower``   -- a = 1 + sqrt(3), the handoff point of the
  middle-regime gain below.
* ``best_upper``    -- the upper bound at the parameter where the two
  endpoint constants coincide, a = (4-pi)/(pi - 2*sqrt(2)); it is sharp
  at both endpoints and dominates every other upper bound here.
* ``lambda_lower``  -- the pointwise-optimized middle-regime lower bound.
  For fixed x the gain (1 - 2/a**2)/(a + sqrt(1+x)) is maximized over a at
  a = 2*sqrt(2)*lambda(x) with lambda(x) = cos(arctan(sqrt((1-x)/(1+x)))/3),
  giving 2*(4*lambda**2 - 1)*sqrt(1-x) / ((2*sqrt(2)*lambda + sqrt(1+x)) * lambda**2),
  which is 8*sqrt(1-x) times the attained gain ``lower_gain_max``.

``best_lower`` takes the pointwise max of the lambda bound and the A_STAR
lower bound; the two cross once inside (0, 1), so neither dominates.

``_block_lower_bounds`` and ``_block_upper_bounds`` are the one table of every
named bound on a grid block's ``grids._GridTerms``, in two halves, so that
``compare_bounds`` can reduce and drop one half before it evaluates the other;
``bounds`` reads both.  The public functions keep their own kernels: a scalar
request would pay for lazy caching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .family import A_STAR, PI, TWO_SQRT2, _check_open_unit, _constants, _scalar_like, _shape, bound_arrays
from .grids import _GridTerms

__all__ = [
    "ONE_PLUS_SQRT3",
    "A_CROSS",
    "SharpBounds",
    "lambda_lower",
    "best_upper",
    "a_star_pair",
    "carlson_pair",
    "sqrt3_lower",
    "lower_gain",
    "lower_gain_argmax",
    "lower_gain_max",
    "best_lower",
    "best_pair",
]

ONE_PLUS_SQRT3 = 1.0 + math.sqrt(3.0)
# Parameter where the two endpoint constants agree: 2 + sqrt(2)*a = pi*(1+a)/2.
A_CROSS = (4.0 - PI) / (PI - TWO_SQRT2)
# The classical constants at a = 2*sqrt(2) as literals: lower_constant(2*sqrt(2)) rounds to 6.000000000000001.
_CARLSON_CONSTANTS = (6.0, PI * (1.0 + TWO_SQRT2) / 2.0)


@dataclass(frozen=True)
class SharpBounds:
    """Sharp lower candidates and the best upper bound at one abscissa.

    ``lower_best`` is max(lower_lambda, lower_pi2) where ``lower_pi2`` is
    the pi**2-numerator lower bound (the A_STAR instance).
    """

    x: float
    lower_lambda: float
    lower_pi2: float
    lower_best: float
    upper_best: float


def _lambda(arr: np.ndarray) -> np.ndarray:
    # One square root of the quotient keeps relative accuracy at both ends.
    return np.cos(np.arctan(np.sqrt((1.0 - arr) / (1.0 + arr))) / 3.0)


def lambda_lower(x):
    """Lower bound 2*(4*lam**2 - 1)*sqrt(1-x) / ((2*sqrt(2)*lam + sqrt(1+x))*lam**2)."""
    # lower_gain_max validates x before the square root sees it
    return _scalar_like(x, lower_gain_max(x) * 8.0 * np.sqrt(1.0 - np.asarray(x, dtype=np.float64)))


def best_upper(x):
    """Upper bound pi*(2 - sqrt(2))*sqrt(1-x) / ((4-pi) + (pi - 2*sqrt(2))*sqrt(1+x)).

    Collapses to pi/2 at x -> 0+ and has ratio -> 1 against arccos at
    x -> 1-, so it is asymptotically sharp at both endpoints.
    """
    return _scalar_like(x, bound_arrays(A_CROSS, x)[1])


def a_star_pair(x):
    """(lower, upper) at a = A_STAR after clearing the factor 4 - pi.

    lower = pi**2*sqrt(1-x) / (2*[2*(pi-2) + (4-pi)*sqrt(1+x)])
    upper = 2*[2*(2-sqrt(2)) + (sqrt(2)-1)*pi]*sqrt(1-x) / (2*(pi-2) + (4-pi)*sqrt(1+x))
    """
    lower, upper = bound_arrays(A_STAR, x)
    return _scalar_like(x, lower), _scalar_like(x, upper)


def carlson_pair(x):
    """(lower, upper) at a = 2*sqrt(2): constants 6 and pi*(1 + 2*sqrt(2))/2."""
    c_lower, c_upper = _CARLSON_CONSTANTS
    template = _shape(TWO_SQRT2, _check_open_unit(x))
    return _scalar_like(x, c_lower * template), _scalar_like(x, c_upper * template)


def sqrt3_lower(x):
    """Lower bound 8*[1 - 2/(1+sqrt(3))**2]*sqrt(1-x) / (1 + sqrt(3) + sqrt(1+x))."""
    return _scalar_like(x, bound_arrays(ONE_PLUS_SQRT3, x)[0])


def _check_gain_parameter(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not ((arr > A_STAR) & (arr < TWO_SQRT2)).all():  # False for NaN and +-inf too
        raise RegimeError("gain parameter must lie in the open interior-minimum interval")
    return arr


def lower_gain(a, x):
    """Middle-regime gain (1 - 2/a**2) / (a + sqrt(1+x)).

    Scaling this by 8*sqrt(1-x) yields the middle-regime lower bound, so
    maximizing over a in (A_STAR, 2*sqrt(2)) sharpens that bound pointwise.
    """
    a_arr = _check_gain_parameter(a)
    x_arr = _check_open_unit(x)
    out = (1.0 - 2.0 / (a_arr * a_arr)) / (a_arr + np.sqrt(1.0 + x_arr))
    return float(out) if np.ndim(out) == 0 else out


def lower_gain_argmax(x):
    """Maximizer of the gain over a: 2*sqrt(2)*lambda(x), strictly increasing in x from 1+sqrt(3) to 2*sqrt(2)."""
    return _scalar_like(x, TWO_SQRT2 * _lambda(_check_open_unit(x)))


def lower_gain_max(x):
    """Attained maximum of the gain, as an independent closed form.

    (4*lam**2 - 1) / (4*lam**2 * (2*sqrt(2)*lam + sqrt(1+x))); must agree
    with lower_gain(lower_gain_argmax(x), x) via 1 - 2/a**2 =
    (4*lam**2 - 1)/(4*lam**2) at a = 2*sqrt(2)*lam.
    """
    arr = _check_open_unit(x)
    return _scalar_like(x, _gain_max(arr, np.sqrt(1.0 + arr)))


def _gain_max(arr: np.ndarray, sqrt_1px: np.ndarray) -> np.ndarray:
    """``lower_gain_max`` of checked points ``arr``, given sqrt(1 + arr)."""
    lam = _lambda(arr)
    lam2 = lam * lam
    return (4.0 * lam2 - 1.0) / (4.0 * lam2 * (TWO_SQRT2 * lam + sqrt_1px))


def _block_lower_bounds(terms: _GridTerms) -> tuple[np.ndarray, ...]:
    """(a-star lower, carlson lower, 1+sqrt(3) lower, lambda lower) on one block's terms: the bits of
    ``a_star_pair``, ``carlson_pair``, ``sqrt3_lower`` and ``lambda_lower``, in ``family._shape``'s operation order.
    """
    lam = _gain_max(terms.x, terms.sqrt_1px) * 8.0 * terms.sqrt_1mx  # first: its temporaries outnumber the others'
    return (
        _constants(A_STAR)[0] * terms.shape(A_STAR),
        _CARLSON_CONSTANTS[0] * terms.shape(TWO_SQRT2),
        _constants(ONE_PLUS_SQRT3)[0] * terms.shape(ONE_PLUS_SQRT3),
        lam,
    )


def _block_upper_bounds(terms: _GridTerms) -> tuple[np.ndarray, ...]:
    """(a-star upper, carlson upper, best upper) on one block's terms: the bits of ``a_star_pair``,
    ``carlson_pair`` and ``best_upper``, in ``family._shape``'s operation order.
    """
    return (
        _constants(A_STAR)[1] * terms.shape(A_STAR),
        _CARLSON_CONSTANTS[1] * terms.shape(TWO_SQRT2),
        _constants(A_CROSS)[1] * terms.shape(A_CROSS),
    )


def best_lower(x):
    """Pointwise max of the lambda lower bound and the A_STAR lower bound."""
    return _scalar_like(x, np.maximum(lambda_lower(x), a_star_pair(x)[0]))


def best_pair(x: float) -> SharpBounds:
    """Assemble the combined sharp bracket for arccos at one abscissa."""
    lam = float(lambda_lower(x))
    pi2 = float(a_star_pair(x)[0])
    return SharpBounds(
        x=float(x),
        lower_lambda=lam,
        lower_pi2=pi2,
        lower_best=max(lam, pi2),
        upper_best=float(best_upper(x)),
    )
