"""Grid and limit certification engine for every bound claim in the package.

Each claim in the registry turns one mathematical statement (containment,
monotonicity, sharpness of a constant, dominance between bound families)
into a pass/fail report carrying the worst signed margin and where it
occurred.  Strict inequalities are accepted up to 4 ulp of the compared
quantity; the margins of these bounds vanish only toward the interval
endpoints, so a fixed absolute tolerance would mask genuine endpoint
behavior while the ulp rule does not.

Grid evaluation is vectorized and single-threaded; reductions tie-break
by abscissa (first index on a sorted grid), so reports are bit-identical
across runs.  A sweep over shape parameters evaluates the terms of its grid
that depend on x alone once (``grids._GridTerms``); each ``a`` then costs
only arithmetic on those arrays and its reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import explore
from .analysis import (
    MinimumResult,
    _grid_argmins,
    bisect_sign_change,
    find_minimum,
    grid_argmin,
    slope_factor,
    slope_factor_limit0,
    slope_quadratic,
    slope_quadratic_roots,
    slope_term,
    slope_threshold,
    threshold_gap,
)
from .errors import DomainError, RegimeError
from .family import (
    A_STAR,
    PI,
    SQRT2,
    TWO_SQRT2,
    Regime,
    _check_bound_parameter,
    _constants,
    _floor,
    bound_ratio,
    classify_regime,
    endpoint_limits,
)
from .grids import DEFAULT_GRID, SCAN_GRID, GridSpec, _GridTerms
from .sharp import (
    a_star_pair,
    best_upper,
    carlson_pair,
    lambda_lower,
    lower_gain,
    lower_gain_argmax,
    lower_gain_max,
    sqrt3_lower,
)

__all__ = [
    "VerificationReport",
    "ComparisonResult",
    "Claim",
    "CLAIMS",
    "verify_bounds",
    "verify_floor",
    "verify_monotonicity",
    "verify_limits_and_sharpness",
    "compare_bounds",
    "run_claims",
    "claim_ids",
    "REPORT_HEADER",
]

DEFAULT_EPS_LIST = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)

BRACKET_A_VALUES = (-0.5, 0.0, 1.0, A_STAR, TWO_SQRT2, 3.0, 5.0)
FLOOR_A_VALUES = (2.3, 2.5, 2.7, 2.75, 2.8)
INCREASING_A_VALUES = (-3.0, 0.0, 2.0, A_STAR)
DECREASING_A_VALUES = (TWO_SQRT2, 4.0)
INTERIOR_A_VALUES = (2.7, 2.75, 2.8)
MINIMUM_A_VALUES = tuple(float(v) for v in np.linspace(A_STAR, TWO_SQRT2, 22)[1:-1])
# aux-sign-regimes' one-signed slope quadratic.  The binary64 -SQRT2 lies below -sqrt(2), where the
# quadratic turns positive next to x = 1, so the claim takes the next double toward 0.
QUADRATIC_POSITIVE_A_VALUES = (TWO_SQRT2, 3.0)
QUADRATIC_NEGATIVE_A_VALUES = (math.nextafter(-SQRT2, 0.0), 0.0, 1.0, 2.56)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verified claim.

    ``worst_margin`` is signed slack: positive means the claim held with
    room to spare at its tightest sample, and ``worst_x`` is where that
    tightest sample sits (for parameter-sweep claims it is the parameter
    axis; the notes say which).
    """

    claim_id: str
    passed: bool
    samples: int
    worst_margin: float
    worst_x: float
    notes: str = ""


REPORT_HEADER = tuple(f.name for f in fields(VerificationReport))


@dataclass(frozen=True)
class ComparisonResult:
    """Dominance table for the sharp lower/upper bound candidates."""

    samples: int
    reports: tuple[VerificationReport, ...]
    crossovers: tuple[float, ...]
    lower_argmax_counts: dict[str, int]
    upper_argmin_counts: dict[str, int]


def _pair_tol(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tolerance for comparing two independently rounded quantities.

    Each side carries a few ulp of its own evaluation error, so a strict
    inequality between them is only resolvable outside the sum of their
    spacings (4 ulp each side).
    """
    tol = np.spacing(np.abs(a))
    b_ulp = np.abs(b)
    tol += np.spacing(b_ulp, out=b_ulp)
    tol *= 4.0  # in place: the bits of 4.0 * (...) with fewer full-size temporaries
    return tol


def _pointwise_report(claim_id: str, x: np.ndarray, margins: np.ndarray, tol: np.ndarray, notes: str = "") -> VerificationReport:
    tol = np.broadcast_to(np.asarray(tol, dtype=np.float64), margins.shape)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    # a NaN or infinite margin is a violation: it says nothing about the bound
    violations = int(np.count_nonzero(~(np.isfinite(margins) & (margins >= -tol))))
    passed = violations == 0
    if violations:
        notes = (notes + "; " if notes else "") + f"{violations} samples beyond tolerance"
    return VerificationReport(
        claim_id=claim_id,
        passed=passed,
        samples=int(margins.size),
        worst_margin=worst,
        worst_x=float(x[i]),
        notes=notes,
    )


def _composite_report(claim_id: str, checks: list[tuple[float, float, str]], samples: int, notes: str = "") -> VerificationReport:
    """Combine (slack, location, label) sub-checks; worst slack decides."""
    slacks = [c[0] for c in checks]
    i = min(range(len(checks)), key=lambda k: slacks[k])
    worst, worst_x, label = checks[i]
    passed = all(s > 0.0 for s in slacks)
    note = f"tightest: {label}"
    if notes:
        note = notes + "; " + note
    return VerificationReport(claim_id, passed, samples, float(worst), float(worst_x), note)


def verify_bounds(a: float, grid: GridSpec = DEFAULT_GRID) -> VerificationReport:
    """Check the two-sided family bound at every grid point.

    The constants come from the regime of ``a``, so for a >= 2*sqrt(2)
    this is the reversed orientation of the generic bracket.
    """
    return _bounds_report(a, _GridTerms(grid))


def _bounds_report(a: float, terms: _GridTerms) -> VerificationReport:
    acx = terms.arccos
    template = terms.shape(a)
    c_lower, c_upper = _constants(a)
    margins = np.minimum(acx - c_lower * template, c_upper * template - acx)
    regime = classify_regime(a).value
    return _pointwise_report(
        f"family-bracket[a={a:.17g}]", terms.x, margins, terms.arccos_tol,
        notes=f"regime={regime}; constants=({c_lower:.9g}, {c_upper:.9g})",
    )


def verify_floor(a: float, grid: GridSpec = DEFAULT_GRID) -> VerificationReport:
    """Check the floor-constant lower bound 8*(1 - 2/a**2) pointwise (a**2 > 0)."""
    return _floor_report(a, _GridTerms(grid))


def _floor_report(a: float, terms: _GridTerms) -> VerificationReport:
    _check_bound_parameter(a)
    margins = terms.arccos - _floor(a) * terms.shape(a)
    return _pointwise_report(f"midregime-floor[a={a:.17g}]", terms.x, margins, terms.arccos_tol)


def verify_monotonicity(a: float, grid: GridSpec = DEFAULT_GRID) -> VerificationReport:
    """Check the regime's monotonicity pattern of forward differences.

    Monotone regimes require every difference on the regime's side of
    minus the pair tolerance (4 ulp of each of its two values); the
    interior-minimum regime requires exactly one sign change beyond that
    tolerance, from negative to positive.
    """
    return _monotonicity_report(a, _GridTerms(grid))


def _monotonicity_report(a: float, terms: _GridTerms) -> VerificationReport:
    regime = classify_regime(a)
    x = terms.x
    v = terms.ratio_at(a)
    d = np.diff(v)
    tol = _pair_tol(v[:-1], v[1:])
    claim_id = f"regime-{regime.value}[a={a:.17g}]"
    if regime is Regime.INCREASING:
        return _pointwise_report(claim_id, x[:-1], d, tol, notes="all forward differences nonnegative")
    if regime is Regime.DECREASING:
        return _pointwise_report(claim_id, x[:-1], -d, tol, notes="all forward differences nonpositive")

    significant = np.abs(d) > tol
    idx = np.nonzero(significant)[0]
    if idx.size == 0:
        return VerificationReport(claim_id, False, int(d.size), 0.0, float(x[0]), "no significant differences")
    signs = np.sign(d[idx])
    run_starts = np.concatenate(([0], np.nonzero(signs[1:] != signs[:-1])[0] + 1))
    pattern = signs[run_starts]
    ok = pattern.tolist() == [-1.0, 1.0]
    down = float(np.max(-d))
    up = float(np.max(d))
    margin = min(down, up) if ok else -max(down, up)
    change_cell = float(x[idx[run_starts[-1]]]) if ok else float(x[idx[0]])
    notes = f"difference sign pattern {pattern.astype(int).tolist()}; sign change near x={change_cell:.9g}"
    return VerificationReport(claim_id, ok, int(d.size), margin, change_cell, notes)


def verify_limits_and_sharpness(a: float, grid: GridSpec = DEFAULT_GRID) -> VerificationReport:
    """Confirm the endpoint limits and that grid extrema attain the constants.

    The ratio must approach pi*(1+a)/2 at x -> 0+ and 2 + sqrt(2)*a at
    x -> 1-.  Its residuals at the fixed endpoint distances DEFAULT_EPS_LIST
    (1e-4 down to 1e-12) must shrink (monotone up to float noise) and end
    below 1e-7*scale, where scale = max(1, |limits|).  Grid extrema must
    land within 1e-5*scale of the regime's constants (family._constants);
    in the interior-minimum regime the infimum is the located minimum value
    instead of the floor constant.
    """
    return _limits_report(a, _GridTerms(grid))


def _limits_report(a: float, terms: _GridTerms) -> VerificationReport:
    c_lower, c_upper = _constants(a)
    eps = DEFAULT_EPS_LIST
    at0, at1 = endpoint_limits(a)
    r0 = [abs(bound_ratio(a, e) - at0) for e in eps]
    r1 = [abs(bound_ratio(a, 1.0 - e) - at1) for e in eps]
    noise = 16.0 * np.spacing(abs(at0) + abs(at1) + 1.0)
    scale = max(1.0, abs(at0), abs(at1))
    final_tol, attained_tol = 1e-7 * scale, 1e-5 * scale
    checks: list[tuple[float, float, str]] = []
    for label, res, probes in (("left-limit", r0, eps), ("right-limit", r1, [1.0 - e for e in eps])):
        for k in range(1, len(res)):
            checks.append((res[k - 1] - res[k] + noise, probes[k], f"{label} residual monotone at eps={eps[k]:g}"))
        checks.append((final_tol - res[-1], probes[-1], f"{label} final residual"))

    x = terms.x
    v = terms.ratio_at(a)
    vmin_i = int(np.argmin(v))
    vmax_i = int(np.argmax(v))
    vmin, vmax = float(v[vmin_i]), float(v[vmax_i])
    regime = classify_regime(a)
    if regime is Regime.INTERIOR_MINIMUM:
        f_min = find_minimum(a).f_min
        checks.append((attained_tol - abs(vmax - c_upper), float(x[vmax_i]), "supremum attains larger endpoint constant"))
        checks.append((attained_tol - abs(vmin - f_min), float(x[vmin_i]), "infimum attains interior minimum"))
        checks.append((vmin - f_min + 4.0 * float(np.spacing(abs(f_min))), float(x[vmin_i]), "grid infimum above true minimum"))
    else:
        # an increasing ratio attains its lower constant on the left, a decreasing one on the right
        low_side, high_side = ("left", "right") if regime is Regime.INCREASING else ("right", "left")
        checks.append((attained_tol - abs(vmin - c_lower), float(x[vmin_i]), f"infimum attains {low_side} constant"))
        checks.append((attained_tol - abs(vmax - c_upper), float(x[vmax_i]), f"supremum attains {high_side} constant"))
    samples = len(eps) * 2 + x.size
    return _composite_report(
        f"endpoint-constants[a={a:.17g}]", checks, samples,
        notes=f"limits=({at0:.9g}, {at1:.9g}); regime={regime.value}",
    )


def _dominance_report(claim_id: str, x: np.ndarray, first: tuple, second: tuple, notes: str) -> VerificationReport:
    """Report ``hi >= lo`` for two (hi, lo) pairs: the tighter margin decides, under its own tolerance."""
    (hi1, lo1), (hi2, lo2) = first, second
    first_smaller = hi1 - lo1 <= hi2 - lo2
    hi, lo = np.where(first_smaller, hi1, hi2), np.where(first_smaller, lo1, lo2)
    return _pointwise_report(claim_id, x, hi - lo, _pair_tol(hi, lo), notes=notes)


def _first_winner_counts(arrays: Sequence[np.ndarray], wins: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[int]:
    """How often each array holds the best value, a tie going to the earliest.

    ``wins(new, best)`` must be strict, so a later array takes a point only
    by beating every earlier one; this is np.argmax/np.argmin over the
    stacked arrays without the stack.
    """
    best = arrays[0].copy()
    winner = np.zeros(best.shape, dtype=np.int8)
    for k, arr in enumerate(arrays[1:], start=1):
        won = wins(arr, best)
        winner[won] = k
        np.copyto(best, arr, where=won)
    return np.bincount(winner, minlength=len(arrays)).tolist()


def compare_bounds(grid: GridSpec = DEFAULT_GRID) -> ComparisonResult:
    """Dominance table for the sharp bound candidates on one grid.

    Checks that the lambda lower bound dominates the classical (a =
    2*sqrt(2)) and the 1+sqrt(3) lower bounds, that the doubly-sharp upper
    bound dominates both instance upper bounds, and that the lambda and
    pi**2 lower bounds are not comparable (each wins somewhere); their
    crossovers are located by bisection to 1e-10.
    """
    x = grid.points()
    (a_star_lo, a_star_up), (carlson_lo, carlson_up) = a_star_pair(x), carlson_pair(x)
    lowers = {
        "a-star": a_star_lo,
        "carlson": carlson_lo,
        "one-plus-sqrt3": sqrt3_lower(x),
        "lambda": lambda_lower(x),
    }
    uppers = {
        "a-star": a_star_up,
        "carlson": carlson_up,
        "best": best_upper(x),
    }
    lower_counts = dict(zip(lowers, _first_winner_counts(list(lowers.values()), np.greater)))
    upper_counts = dict(zip(uppers, _first_winner_counts(list(uppers.values()), np.less)))

    rep_lower = _dominance_report(
        "sharp-lower-dominance", x,
        (lowers["lambda"], lowers["carlson"]), (lowers["lambda"], lowers["one-plus-sqrt3"]),
        notes="lambda bound >= classical and 1+sqrt(3) lower bounds",
    )
    rep_upper = _dominance_report(
        "sharp-upper-dominance", x,
        (uppers["a-star"], uppers["best"]), (uppers["carlson"], uppers["best"]),
        notes="doubly-sharp upper bound <= both instance upper bounds",
    )

    diff = lowers["lambda"] - lowers["a-star"]
    i_max = int(np.argmax(diff))
    i_min = int(np.argmin(diff))
    up_witness = float(diff[i_max])
    down_witness = float(-diff[i_min])
    tol_max, tol_min = _pair_tol(lowers["lambda"][[i_max, i_min]], lowers["a-star"][[i_max, i_min]])
    witnessed = up_witness > float(tol_max) and down_witness > float(tol_min)
    signs = np.sign(diff)
    cells = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    crossovers = []
    for c in cells:
        fn = lambda t: float(lambda_lower(t) - a_star_pair(t)[0])
        root, _ = bisect_sign_change(fn, float(x[c]), float(x[c + 1]), xtol=1e-10)
        crossovers.append(root)
    passed = witnessed and len(crossovers) >= 1
    margin = min(up_witness, down_witness)
    worst_x = crossovers[0] if crossovers else float(x[i_max])
    rep_cross = VerificationReport(
        "sharp-noninclusion",
        passed,
        int(x.size),
        margin if witnessed else -margin,
        worst_x,
        notes=(
            f"lambda wins by {up_witness:.6g} at x={x[i_max]:.9g}; "
            f"pi^2 bound wins by {down_witness:.6g} at x={x[i_min]:.9g}; "
            f"crossovers at {[f'{c:.12g}' for c in crossovers]}"
        ),
    )
    return ComparisonResult(
        samples=int(x.size),
        reports=(rep_lower, rep_upper, rep_cross),
        crossovers=tuple(crossovers),
        lower_argmax_counts=lower_counts,
        upper_argmin_counts=upper_counts,
    )


# --------------------------------------------------------------------------
# Claim registry


def _each_a(report: Callable[[float, _GridTerms], VerificationReport]) -> Callable[..., list[VerificationReport]]:
    """Check calling ``report(a, terms)`` for each value; the grid's terms are evaluated once and shared."""
    def check(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
        terms = _GridTerms(grid)
        return [report(a, terms) for a in values]

    return check


def _claim_classic(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    terms = _GridTerms(grid)
    x, acx, tol = terms.x, terms.arccos, terms.arccos_tol
    lower, upper = carlson_pair(x)
    return [
        _pointwise_report("classic-lower", x, acx - lower, tol, notes="classical lower constant 6"),
        _pointwise_report("classic-upper", x, upper - acx, tol, notes="classical upper constant (1/2+sqrt(2))*pi"),
    ]


# Size of the uniform grid of the brute-force argmin cross-check.
BRUTE_FORCE_N = 1_000_001


def _minimum_slacks(a: float, brute: tuple[float, float]) -> tuple[MinimumResult, tuple[float, ...]]:
    """The interior minimum and five slacks, each positive when its check holds.

    Slacks: residual, floor, below the endpoint limits, and agreement of x0 and of the value with the
    brute-force argmin ``brute`` = (bx, bval) on BRUTE_FORCE_N points.  The brute force shares no code with
    the bisection in find_minimum, so it stays an independent cross-check.
    """
    res = find_minimum(a)
    floor = _floor(a)
    at0, at1 = endpoint_limits(a)
    bx, bval = brute
    slacks = (
        1e-12 - res.residual,
        res.f_min - floor + 4.0 * float(np.spacing(floor)),
        min(at0, at1) - res.f_min,
        1e-6 - abs(bx - res.x0),
        1e-10 - abs(bval - res.f_min),
    )
    return res, slacks


def _interior_report(a: float, terms: _GridTerms) -> VerificationReport:
    mono = _monotonicity_report(a, terms)
    bx, bval = grid_argmin(a, BRUTE_FORCE_N)
    res, slacks = _minimum_slacks(a, (bx, bval))
    labels = ("implicit-equation residual", "minimum above floor", "minimum below endpoint limits",
              "argmin agrees with brute force", "minimum value agrees with brute force")
    checks = [
        (mono.worst_margin if mono.passed else -abs(mono.worst_margin), mono.worst_x, "one sign change"),
        *zip(slacks, (res.x0, res.x0, res.x0, bx, bx), labels),
    ]
    return _composite_report(
        f"regime-InteriorMinimum[a={a:.17g}]", checks, mono.samples + BRUTE_FORCE_N,
        notes=f"x0={res.x0:.12g}; f_min={res.f_min:.12g}; iterations={res.iterations}",
    )


def _claim_minimum_floor(values: Sequence[float], grid: None) -> list[VerificationReport]:
    labels = ("residual", "floor", "below endpoint limits", "brute-force x0", "brute-force value")
    checks: list[tuple[float, float, str]] = []
    for av, brute in zip(values, _grid_argmins(values, BRUTE_FORCE_N)):
        _, slacks = _minimum_slacks(av, brute)
        checks.extend((slack, av, f"{label} at a={av:.6g}") for slack, label in zip(slacks, labels))
    return [
        _composite_report(
            "minimum-floor", checks, len(values) * BRUTE_FORCE_N,
            notes="sweep over the interior-minimum interval; worst_x is the parameter a",
        )
    ]


def _claim_aux_slope_limits(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    checks: list[tuple[float, float, str]] = []
    for av in (0.0, 1.0, 3.0):
        dev = abs(slope_factor(av, 1e-10) - slope_factor_limit0(av))
        checks.append((1e-5 - dev, 1e-10, f"slope-factor limit at a={av:g}"))
    checks.append((1e-5 - abs(slope_threshold(1e-10) - 8.0 / PI), 1e-10, "threshold left endpoint 8/pi"))
    checks.append((1e-5 - abs(slope_threshold(1.0 - 1e-10) - TWO_SQRT2), 1.0 - 1e-10, "threshold right endpoint 2*sqrt(2)"))
    checks.append((1e-5 - abs(threshold_gap(1.0 - 1e-10)), 1.0 - 1e-10, "threshold gap vanishes at 1"))
    x = grid.points()
    p = slope_threshold(x)
    r = threshold_gap(x)
    tol_p = 4.0 * float(np.max(np.spacing(p)))
    checks.append((float(np.min(np.diff(p))) + tol_p, float(x[int(np.argmin(np.diff(p)))]), "threshold strictly increasing"))
    checks.append((float(np.min(p)) - 8.0 / PI + tol_p, float(x[0]), "threshold range floor"))
    checks.append((TWO_SQRT2 - float(np.max(p)) + tol_p, float(x[-1]), "threshold range ceiling"))
    tol_r = 4.0 * float(np.max(np.spacing(np.abs(r) + 1.0)))
    checks.append((float(np.min(-np.diff(r))) + tol_r, float(x[int(np.argmax(np.diff(r)))]), "gap strictly decreasing"))
    checks.append((float(np.min(r)) + tol_r, float(x[int(np.argmin(r))]), "gap positive"))
    return [_composite_report("aux-slope-limits", checks, 6 + 2 * x.size, notes="derivative-apparatus limits and shapes")]


def _claim_aux_roots(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    checks: list[tuple[float, float, str]] = []
    lo0, hi0 = slope_quadratic_roots(1e-10)
    lo1, hi1 = slope_quadratic_roots(1.0 - 1e-10)
    checks.append((1e-6 - abs(lo0 - (1.0 - math.sqrt(17.0)) / 2.0), 1e-10, "low root left limit"))
    checks.append((1e-6 - abs(hi0 - (1.0 + math.sqrt(17.0)) / 2.0), 1e-10, "high root left limit"))
    checks.append((1e-6 - abs(lo1 + SQRT2), 1.0 - 1e-10, "low root right limit"))
    checks.append((1e-6 - abs(hi1 - TWO_SQRT2), 1.0 - 1e-10, "high root right limit"))
    xs = np.linspace(0.005, 0.995, 100)
    lo, hi = slope_quadratic_roots(xs)
    res_hi = np.abs([slope_quadratic(float(h), float(xv)) for h, xv in zip(hi, xs)])
    res_lo = np.abs([slope_quadratic(float(l), float(xv)) for l, xv in zip(lo, xs)])
    i = int(np.argmax(res_hi))
    checks.append((1e-10 - float(res_hi[i]), float(xs[i]), "high root annihilates the quadratic"))
    j = int(np.argmax(res_lo))
    checks.append((1e-10 - float(res_lo[j]), float(xs[j]), "low root annihilates the quadratic"))
    x = grid.points()
    lo_g, hi_g = slope_quadratic_roots(x)
    checks.append((float(np.min(np.diff(lo_g))), float(x[0]), "low root strictly increasing"))
    checks.append((float(np.min(np.diff(hi_g))), float(x[0]), "high root strictly increasing"))
    return [_composite_report("aux-quadratic-roots", checks, 204 + 2 * x.size, notes="roots of the slope quadratic")]


def _claim_aux_sign_regimes(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    x = grid.points()
    s = np.sqrt(1.0 + x)
    checks: list[tuple[float, float, str]] = []
    # sign * value must stay above -tol; its argmin is the tightest sample
    for sign, what, avals in ((1.0, "positive", QUADRATIC_POSITIVE_A_VALUES), (-1.0, "negative", QUADRATIC_NEGATIVE_A_VALUES)):
        for av in avals:
            h = sign * slope_quadratic(av, x)
            i = int(np.argmin(h))
            checks.append((float(h[i]) + 4.0 * float(np.spacing(av * av * SQRT2 + 4.0 * SQRT2)), float(x[i]), f"quadratic {what} at a={av:.6g}"))
    for sign, what, avals in ((1.0, "positive", (0.0, 2.0, 8.0 / PI)), (-1.0, "negative", (TWO_SQRT2, 4.0))):
        for av in avals:
            q = sign * slope_term(av, x)
            scale = (abs(av) * s + 2.0) * (PI / 2.0) + 2.0 * (abs(av) + s)
            tol = 4.0 * np.spacing(scale)
            i = int(np.argmin(q + tol))
            checks.append((float(q[i] + tol[i]), float(x[i]), f"slope term {what} at a={av:.6g}"))
    return [_composite_report("aux-sign-regimes", checks, 11 * x.size, notes="one-signedness of the quadratic and the slope term")]


def _claim_gain_maximizer(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    pts = grid.points()
    xs = pts[:: max(1, pts.size // 100)][:100]  # the 100-point default is its own subsample
    avals = np.linspace(A_STAR, TWO_SQRT2, 10_002)[1:-1]
    gains = lower_gain(avals[None, :], xs[:, None])
    grid_max = np.max(gains, axis=1)
    attained = lower_gain(lower_gain_argmax(xs), xs)
    closed = lower_gain_max(xs)
    tol = _pair_tol(attained, grid_max)
    checks: list[tuple[float, float, str]] = []
    i = int(np.argmin(attained - grid_max))
    checks.append((float((attained - grid_max)[i] + tol[i]), float(xs[i]), "maximizer beats the parameter grid"))
    j = int(np.argmax(np.abs(closed - attained)))
    checks.append((float(tol[j] - abs(closed[j] - attained[j])), float(xs[j]), "closed-form maximum matches composition"))
    dev = abs(lower_gain_argmax(1e-12) - (1.0 + math.sqrt(3.0)))
    checks.append((1e-8 - dev, 1e-12, "maximizer tends to 1+sqrt(3) at the left endpoint"))
    return [_composite_report("gain-maximizer", checks, int(gains.size), notes="pointwise optimality of the gain maximizer")]


def _claim_scan_slice(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    base = [float(v) for v in np.linspace(-0.9, 4.0, 46)]
    stress = [A_STAR - 2e-3, A_STAR + 2e-3, TWO_SQRT2 - 2e-3, TWO_SQRT2 + 2e-3]
    gammas = sorted(base + stress)
    mapping = {
        Regime.INCREASING: explore.Verdict.INCREASING,
        Regime.DECREASING: explore.Verdict.DECREASING,
        Regime.INTERIOR_MINIMUM: explore.Verdict.NON_MONOTONE,
    }
    checks: list[tuple[float, float, str]] = []
    for gamma in gammas:
        expected = mapping[classify_regime(gamma)]
        result = explore.classify_family(0.5, 0.5, gamma, grid)
        agree = result.verdict is expected
        margin = result.margin if agree else -max(result.margin, 1.0)
        checks.append((margin, gamma, f"gamma={gamma:.6g}: {result.verdict.value} vs {expected.value}"))
    return [
        _composite_report(
            "scan-slice", checks, len(gammas) * grid.n,
            notes="generalized-family slice at (1/2, 1/2, gamma) agrees with the regime map; worst_x is gamma",
        )
    ]


@dataclass(frozen=True)
class Claim:
    """One registry row: ``check(values, grid)``, its default grid and the shape parameters it sweeps.

    ``runner(grid, a)``: a caller's grid replaces ``grid``, but a uniform ``grid`` keeps its spacing and
    takes only the caller's n, and a None ``grid`` samples none.  A given ``a`` replaces nonempty ``values``.
    """

    claim_id: str
    description: str
    check: Callable[[Sequence[float], GridSpec | None], list[VerificationReport]]
    grid: GridSpec | None
    values: tuple[float, ...] = ()
    # The only regime a parameterized run may name; None accepts every a.
    regime: Regime | None = None

    def runner(self, grid: GridSpec | None, a: float | None) -> list[VerificationReport]:
        own = self.grid
        if grid is not None and own is not None:
            own = replace(own, n=grid.n) if own.spacing == "uniform" else grid
        return self.check((a,) if a is not None and self.values else self.values, own)


CLAIMS: tuple[Claim, ...] = (
    Claim("classic-lower", "classical lower bound (constant 6) is strict on (0,1)", _claim_classic, DEFAULT_GRID),
    Claim("family-bracket", "two-sided family bound holds with the regime's constants", _each_a(_bounds_report), DEFAULT_GRID, BRACKET_A_VALUES),
    Claim("midregime-floor", "floor constant 8*(1-2/a^2) bounds arccos from below", _each_a(_floor_report), DEFAULT_GRID, FLOOR_A_VALUES),
    Claim("endpoint-constants", "endpoint limits are attained, so the constants are best possible", _each_a(_limits_report), replace(DEFAULT_GRID, n=200_000), BRACKET_A_VALUES),
    Claim("regime-increasing", "ratio strictly increasing for a <= A_STAR", _each_a(_monotonicity_report), replace(DEFAULT_GRID, n=100_000), INCREASING_A_VALUES, Regime.INCREASING),
    Claim("regime-decreasing", "ratio strictly decreasing for a >= 2*sqrt(2)", _each_a(_monotonicity_report), replace(DEFAULT_GRID, n=100_000), DECREASING_A_VALUES, Regime.DECREASING),
    Claim("regime-interior-minimum", "unique interior minimum in the middle regime", _each_a(_interior_report), replace(DEFAULT_GRID, n=100_000), INTERIOR_A_VALUES, Regime.INTERIOR_MINIMUM),
    Claim("minimum-floor", "interior minimum satisfies its floor and brute-force cross-check", _claim_minimum_floor, None, MINIMUM_A_VALUES, Regime.INTERIOR_MINIMUM),
    Claim("aux-slope-limits", "derivative-apparatus limits and threshold shape", _claim_aux_slope_limits, replace(DEFAULT_GRID, n=100_000)),
    # Near the endpoints of a refined grid neighbouring roots differ by less than an ulp, so this grid is uniform.
    Claim("aux-quadratic-roots", "slope-quadratic roots: limits, residuals, monotonicity", _claim_aux_roots, replace(DEFAULT_GRID, n=10_000, spacing="uniform")),
    Claim("aux-sign-regimes", "one-signed ranges of the quadratic and the slope term", _claim_aux_sign_regimes, replace(DEFAULT_GRID, n=100_000)),
    Claim("sharp-dominance", "dominance and non-inclusion among the sharp bounds", lambda values, grid: list(compare_bounds(grid).reports), DEFAULT_GRID),
    Claim("gain-maximizer", "gain maximizer is pointwise optimal and matches its closed form", _claim_gain_maximizer, replace(DEFAULT_GRID, n=100)),
    # The scanner needs a uniform grid (see classify_family).
    Claim("scan-slice", "scanner verdicts agree with the regime map on the (1/2, 1/2, gamma) slice", _claim_scan_slice, SCAN_GRID),
)

_CLAIM_INDEX = {c.claim_id: c for c in CLAIMS}
# The classic-* pair is produced by one check.
_ALIASES = {"classic-upper": "classic-lower"}


def claim_ids() -> list[str]:
    return [c.claim_id for c in CLAIMS]


def run_claims(
    ids: Iterable[str] | None = None,
    grid: GridSpec | None = None,
    a: float | None = None,
) -> list[VerificationReport]:
    """Run a subset of the registry (all claims when ids is None).

    ``grid`` replaces each claim's registry grid, but a uniform registry grid
    keeps its spacing and takes only the n of ``grid``; ``a`` narrows the
    parameterized claims to one shape parameter, and with no ids only the
    claims without a regime or of the regime of ``a`` run.  Raises, before
    any claim runs, DomainError if ``a`` is not finite or ``ids`` is empty or
    names an unknown claim, and RegimeError if ``a`` lies outside a named
    claim's regime.
    """
    regime = None if a is None else classify_regime(a)
    if ids is None:
        if a is not None:
            _check_bound_parameter(a)
        selected = [c for c in CLAIMS if a is None or c.regime in (None, regime)]
    else:
        selected = []
        for cid in ids:
            key = _ALIASES.get(cid, cid)
            if key not in _CLAIM_INDEX:
                raise DomainError(f"unknown claim id: {cid!r}")
            claim = _CLAIM_INDEX[key]
            if claim not in selected:
                selected.append(claim)
        if not selected:
            raise DomainError("the claim id list names no claim")  # checking nothing must not read as verified
    for claim in selected:
        if a is not None and claim.regime not in (None, regime):
            raise RegimeError(f"claim {claim.claim_id!r} covers the {claim.regime.value} regime only; a={a:.17g} is {regime.value}")
    reports: list[VerificationReport] = []
    for claim in selected:
        reports.extend(claim.runner(grid, a))
    return reports
