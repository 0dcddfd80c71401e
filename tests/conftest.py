"""Shared independent oracles for the test suite.

Everything here recomputes expected values from scratch (plain numpy or
mpmath), independent of the package's own evaluation paths.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp


def brute_force_argmin(a: float, n: int, lo: float = 1e-9, hi: float = 1.0 - 1e-9) -> tuple[float, float]:
    """Chunked argmin of (a + sqrt(1+x))*arccos(x)/sqrt(1-x) on a uniform grid."""
    best_val = np.inf
    best_x = np.nan
    step = (hi - lo) / (n - 1)
    for start in range(0, n, 2_000_000):
        stop = min(start + 2_000_000, n)
        x = lo + step * np.arange(start, stop, dtype=np.float64)
        t = np.sqrt(0.5 * (1.0 - x))
        vals = (a + np.sqrt(1.0 + x)) * 2.0 * np.arcsin(t) / (np.sqrt(2.0) * t)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = float(x[i])
    return best_x, best_val


def brute_force_extrema(a: float, n: int, lo: float = 1e-9, hi: float = 1.0 - 1e-9) -> tuple[float, float]:
    """Min and max of the ratio on a uniform grid, straight numpy."""
    x = np.linspace(lo, hi, n)
    t = np.sqrt(0.5 * (1.0 - x))
    vals = (a + np.sqrt(1.0 + x)) * 2.0 * np.arcsin(t) / (np.sqrt(2.0) * t)
    return float(np.min(vals)), float(np.max(vals))


def count_significant_sign_changes(values: np.ndarray) -> tuple[int, list[int]]:
    """Sign transitions of forward differences, ignoring sub-4ulp noise."""
    d = np.diff(values)
    tol = 4.0 * np.spacing(np.maximum(np.abs(values[:-1]), np.abs(values[1:])))
    idx = np.nonzero(np.abs(d) > tol)[0]
    signs = np.sign(d[idx])
    runs = [int(signs[0])] if signs.size else []
    for s in signs[1:]:
        if int(s) != runs[-1]:
            runs.append(int(s))
    return max(len(runs) - 1, 0), runs


def ratio_slope_mp(a: float, x: float, dps: int = 30):
    """Closed-form dR/dx of R = (a + s)*c/r, s = sqrt(1+x), r = sqrt(1-x), c = arccos(x), in mpmath.

    dR/dx = c/(2*s*r) + (a + s)*(c/(2*r**3) - 1/(s*r**2)).
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        s = mp.sqrt(1 + xm)
        r = mp.sqrt(1 - xm)
        c = mp.acos(xm)
        return c / (2 * s * r) + (mp.mpf(a) + s) * (c / (2 * r**3) - 1 / (s * r**2))


def accuracy_sample() -> np.ndarray:
    """A uniform grid on [-1, 1] plus points spaced geometrically toward both ends (4401 points)."""
    return np.concatenate(
        [
            np.linspace(-1.0, 1.0, 4001),
            1.0 - np.geomspace(1e-15, 1e-2, 200),
            -1.0 + np.geomspace(1e-15, 1e-2, 200),
        ]
    )


def worst_ulp(got, exact_fn, xs, dps: int = 40):
    """Largest |got - exact| / ulp(exact) over the points xs, all in mpmath.

    ulp(v) = 2**(e - 53) for v = m * 2**e with 1/2 <= |m| < 1.  Where the
    exact value is 0 the computed one must be 0 as well.
    """
    worst = mp.mpf(0)
    with mp.workdps(dps):
        for x, g in zip(xs, got):
            exact = exact_fn(mp.mpf(float(x)))
            if exact == 0:
                assert g == 0.0
                continue
            ulp = mp.ldexp(1, mp.frexp(exact)[1] - 53)
            worst = max(worst, abs(mp.mpf(float(g)) - exact) / ulp)
    return worst
