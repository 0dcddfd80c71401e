"""Grid and limit certification engine for every bound claim in the package.

Each claim in the registry turns one mathematical statement (containment,
monotonicity, sharpness of a constant, dominance between bound families)
into a pass/fail report carrying the worst signed margin and where it
occurred.  Strict inequalities are accepted up to 4 ulp of the compared
quantity, a rule written once as ``grids._ulps`` (``_pair_tol`` grants it
to each side of a comparison of two rounded quantities); the margins of
these bounds vanish only toward the interval endpoints, so a fixed
absolute tolerance would mask genuine endpoint behavior while the ulp
rule does not.

The four containment claims, ``classic-lower``, ``classic-upper``,
``family-bracket`` and ``midregime-floor``, are one check,
``_arccos_check``: arccos against constants times the template
sqrt(1-x)/(a + sqrt(1+x)), under 4 ulp of arccos.  The classic pair is
its a = 2*sqrt(2) case, with the constants ``sharp.carlson_pair`` uses.

Grid evaluation is vectorized and single-threaded, and runs in blocks of
``grids._BLOCK`` consecutive points that ``grids._blocks`` cuts from the
grid's stream of runs; no claim but ``scan-slice`` (``grid.points()``)
builds a whole grid, so peak memory does not grow with n.  One loop,
``_sweep``, runs every check on ``grids._GridTerms``, the blocks outside
and the checks inside, so each block's terms that depend on x alone are
evaluated once; the aux claims read theirs through ``analysis``' kernels.
A check reduces each block to a small share (its violations, sign runs,
crossover cells or first-index minima), and the shares merge in grid
order.  One helper, ``_minima``, merges the first-index
minima of ``endpoint-constants``, the aux claims and the brute-force argmin,
on blocks that overlap by one point as checks on forward differences do.
Each claim is a ``_Plan`` of (grid, overlap, check) triples, built before
any grid is sampled, so ``run_claims`` runs the checks of all its claims on
one grid and overlap in one ``_sweep``: each grid is walked once per run.
On each block the compare check evaluates the upper half of ``sharp``'s
named-bound table, reduces and drops it, and only then the lower half, so
one block's peak holds one half's arrays.
Reductions tie-break by abscissa (the first NaN, else the first minimum, as
np.argmin does), so reports are bit-identical to a whole-array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import explore
from .analysis import (
    MinimumResult,
    _slope_quadratic,
    _slope_quadratic_roots,
    _slope_term,
    _slope_threshold,
    _threshold_gap,
    bisect_sign_change,
    find_minimum,
    slope_factor,
    slope_factor_limit0,
    slope_quadratic_roots,
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
from .grids import DEFAULT_GRID, SCAN_GRID, GridSpec, _blocks, _GridTerms, _ulps
from .sharp import (
    _CARLSON_CONSTANTS,
    _block_lower_bounds,
    _block_upper_bounds,
    a_star_pair,
    lambda_lower,
    lower_gain,
    lower_gain_argmax,
    lower_gain_max,
)

__all__ = [
    "VerificationReport",
    "ComparisonResult",
    "Claim",
    "CLAIMS",
    "compare_bounds",
    "run_claims",
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
# aux-slope-limits' slacks: 4 ulp of the largest threshold p and 1 + |gap| on a grid.  Each lies in one
# binade on any grid in (0, 1): p in (8/pi, 2*sqrt(2)), within [2, 4), and 1 + gap in [1, 3 - pi/2].
_SLOPE_LIMITS_TOL = (float(_ulps(TWO_SQRT2)), float(_ulps(1.0)))


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
    # np.add, not +: numpy's scalar + keeps the second NaN where its ufunc keeps the first
    return np.add(_ulps(a), _ulps(b))


def _first_min(values: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """(values[i], x[i]) at i = np.argmin(values): the first NaN, else the first minimum."""
    i = int(np.argmin(values))
    return float(values[i]), float(x[i])


def _margin_block(x: np.ndarray, margins: np.ndarray, tol: np.ndarray) -> tuple[float, float, int, int]:
    """One block's share of a pointwise check: its first-index smallest margin and where, its violations, its size."""
    # a NaN or infinite margin is a violation: it says nothing about the bound
    violations = int(np.count_nonzero(~(np.isfinite(margins) & (margins >= -tol))))
    return *_first_min(margins, x), violations, int(margins.size)


def _pointwise_report(claim_id: str, shares: Sequence[tuple[float, float, int, int]], notes: str = "") -> VerificationReport:
    """The report of a pointwise check from its blocks' ``_margin_block`` shares, in grid order."""
    worsts, where, violations, sizes = zip(*shares)
    # each share holds its block's first NaN or first smallest margin, so np.argmin over the shares
    # picks the sample np.argmin picks on the whole grid
    i = int(np.argmin(worsts))
    violations = sum(violations)
    if violations:
        notes = (notes + "; " if notes else "") + f"{violations} samples beyond tolerance"
    return VerificationReport(claim_id, violations == 0, sum(sizes), worsts[i], where[i], notes)


def _tightest(slack: np.ndarray, x: np.ndarray, label: str) -> tuple[float, float, str]:
    """The (slack, location, label) sub-check of an array of slacks: its first-index minimum."""
    return *_first_min(slack, x), label


def _composite_report(claim_id: str, checks: list[tuple[float, float, str]], samples: int, notes: str = "") -> VerificationReport:
    """Combine (slack, location, label) sub-checks; the first smallest slack decides."""
    worst, worst_x, label = min(checks, key=lambda c: c[0])
    passed = all(c[0] > 0.0 for c in checks)
    note = f"{notes}; tightest: {label}" if notes else f"tightest: {label}"
    return VerificationReport(claim_id, passed, samples, float(worst), float(worst_x), note)


# A check on a grid: ``block(terms)`` reduces one block's _GridTerms to a small share, and ``report(shares)``
# writes the check's result from the shares of every block, in grid order: a report, or compare's table.
_Check = tuple[Callable[[_GridTerms], tuple], Callable[[list], Any]]


def _minima(arrays: Callable[[_GridTerms], Iterable[tuple[np.ndarray, str]]], report: Callable[[list, int], Any]) -> _Check:
    """The check of the first-index minima of arrays on blocks that overlap by one point.

    ``arrays(terms)`` yields a block's (array, label) pairs, each reduced by ``_tightest`` before the next
    is built.  ``report(minima, n)`` gets each array's (value, x, label) on the grid's n points: np.argmin
    over its block minima, as on the whole array; a shared point's earlier block wins the tie.
    """

    def block(terms: _GridTerms) -> tuple:
        return terms.x.size - 1, [_tightest(v, terms.x, label) for v, label in arrays(terms)]

    def merge(shares: list[tuple]) -> Any:
        sizes, minima = zip(*shares)
        return report([m[int(np.argmin([share[0] for share in m]))] for m in zip(*minima)], sum(sizes) + 1)

    return block, merge


def _arccos_check(claim_id: str, a: float, margin: Callable[[np.ndarray, np.ndarray], np.ndarray], notes: str = "") -> _Check:
    """Check pointwise a bound on arccos built from the template at ``a``: ``margin(arccos, template)`` >= -4 ulp of arccos."""

    def block(terms: _GridTerms) -> tuple:
        return _margin_block(terms.x, margin(terms.arccos, terms.shape(a)), terms.arccos_tol)

    return block, lambda shares: _pointwise_report(claim_id, shares, notes)


def _bounds_check(a: float) -> _Check:
    """Check the two-sided family bound at every grid point.

    The constants come from the regime of ``a``, so for a >= 2*sqrt(2)
    this is the reversed orientation of the generic bracket.
    """
    c_lower, c_upper = _constants(a)
    notes = f"regime={classify_regime(a).value}; constants=({c_lower:.9g}, {c_upper:.9g})"
    margin = lambda acx, template: np.minimum(acx - c_lower * template, c_upper * template - acx)
    return _arccos_check(f"family-bracket[a={a:.17g}]", a, margin, notes)


def _floor_check(a: float) -> _Check:
    """Check the floor-constant lower bound 8*(1 - 2/a**2) pointwise (a**2 > 0)."""
    _check_bound_parameter(a)
    floor = _floor(a)
    return _arccos_check(f"midregime-floor[a={a:.17g}]", a, lambda acx, template: acx - floor * template)


def _differences(a: float, terms: _GridTerms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The left points, the forward differences of the ratio and their pair tolerances on one block."""
    v = terms.ratio_at(a)
    return terms.x[:-1], np.diff(v), _pair_tol(v[:-1], v[1:])


def _sign_runs(x: np.ndarray, d: np.ndarray, tol: np.ndarray) -> tuple:
    """One block's share of the sign-pattern check.

    The sign and the first point of each run of significant differences
    (|d| beyond the pair tolerance), the largest fall and rise, the number
    of differences and the block's first point.
    """
    idx = np.flatnonzero(np.abs(d) > tol)
    signs = np.sign(d[idx])
    starts = np.flatnonzero(np.diff(signs, prepend=0.0))  # where the sign differs from the one before
    return signs[starts], x[idx[starts]], float(np.max(-d)), float(np.max(d)), int(d.size), float(x[0])


def _sign_pattern_report(claim_id: str, shares: list[tuple]) -> VerificationReport:
    """Exactly one sign change beyond the pair tolerance, from negative to positive, from the blocks' ``_sign_runs``."""
    signs, starts, downs, ups, sizes, firsts = zip(*shares)
    signs, starts = np.concatenate(signs), np.concatenate(starts)
    # a run that crosses a block boundary starts in one block and continues in the next
    runs = np.flatnonzero(np.diff(signs, prepend=0.0))
    pattern, cells = signs[runs], starts[runs]
    if pattern.size == 0:
        return VerificationReport(claim_id, False, sum(sizes), 0.0, firsts[0], "no significant differences")
    ok = pattern.tolist() == [-1.0, 1.0]
    # np.max over the blocks' maxima is the grid's, a NaN included
    down, up = float(np.max(downs)), float(np.max(ups))
    margin = min(down, up) if ok else -max(down, up)
    change_cell = float(cells[-1] if ok else cells[0])
    notes = f"difference sign pattern {pattern.astype(int).tolist()}; sign change near x={change_cell:.9g}"
    return VerificationReport(claim_id, ok, sum(sizes), margin, change_cell, notes)


def _monotonicity_check(a: float) -> _Check:
    """Check the regime's monotonicity pattern of forward differences; its blocks overlap by one point.

    Monotone regimes require every difference on the regime's side of
    minus the pair tolerance (4 ulp of each of its two values); the
    interior-minimum regime requires exactly one sign change beyond that
    tolerance, from negative to positive.
    """
    regime = classify_regime(a)
    claim_id = f"regime-{regime.value}[a={a:.17g}]"
    if regime is Regime.INTERIOR_MINIMUM:
        return lambda terms: _sign_runs(*_differences(a, terms)), lambda shares: _sign_pattern_report(claim_id, shares)
    increasing = regime is Regime.INCREASING

    def block(terms: _GridTerms) -> tuple:
        x, d, tol = _differences(a, terms)
        return _margin_block(x, d if increasing else -d, tol)

    notes = "all forward differences " + ("nonnegative" if increasing else "nonpositive")
    return block, lambda shares: _pointwise_report(claim_id, shares, notes)


def _limits_check(a: float) -> _Check:
    """Confirm the endpoint limits and that grid extrema attain the constants.

    The ratio must approach pi*(1+a)/2 at x -> 0+ and 2 + sqrt(2)*a at
    x -> 1-.  Its residuals at the fixed endpoint distances DEFAULT_EPS_LIST
    (1e-4 down to 1e-12) must shrink (monotone up to float noise) and end
    below 1e-7*scale, where scale = max(1, |limits|).  Grid extrema must
    land within 1e-5*scale of the regime's constants (family._constants);
    in the interior-minimum regime the infimum is the located minimum value
    instead of the floor constant.
    """
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

    def extremes(terms: _GridTerms) -> Iterable[tuple]:
        v = terms.ratio_at(a)
        yield v, "infimum"
        yield -v, "supremum"  # np.argmin(-v) is np.argmax(v), its first NaN included

    def report(minima: list[tuple], n: int) -> VerificationReport:
        (vmin, xmin, _), (neg_max, xmax, _) = minima
        vmax = -neg_max
        regime = classify_regime(a)
        if regime is Regime.INTERIOR_MINIMUM:
            f_min = find_minimum(a).f_min
            extrema = [
                (attained_tol - abs(vmax - c_upper), xmax, "supremum attains larger endpoint constant"),
                (attained_tol - abs(vmin - f_min), xmin, "infimum attains interior minimum"),
                (vmin - f_min + float(_ulps(f_min)), xmin, "grid infimum above true minimum"),
            ]
        else:
            # an increasing ratio attains its lower constant on the left, a decreasing one on the right
            low_side, high_side = ("left", "right") if regime is Regime.INCREASING else ("right", "left")
            extrema = [
                (attained_tol - abs(vmin - c_lower), xmin, f"infimum attains {low_side} constant"),
                (attained_tol - abs(vmax - c_upper), xmax, f"supremum attains {high_side} constant"),
            ]
        return _composite_report(
            f"endpoint-constants[a={a:.17g}]", checks + extrema, len(eps) * 2 + n,
            notes=f"limits=({at0:.9g}, {at1:.9g}); regime={regime.value}",
        )

    return _minima(extremes, report)


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


def _compare_block(terms: _GridTerms) -> tuple:
    """One block's share of the compare check, from the upper trio, then the lower quartet.

    Each half is evaluated, reduced to its winner counts and dominance share, and dropped before
    the next array is built.  Of two dominance pairs the tighter margin decides, under its own
    tolerance; the pairs share a side (best upper, lambda lower), which needs no np.where.  The
    lower half also gives lambda's largest and smallest lead over the pi**2 bound, and the crossover
    cells inside the block.  The block's first and last x, each with the sign of that lead there,
    let the report find a cell that spans two blocks.
    """
    x = terms.x
    a_star_up, carlson_up, best = _block_upper_bounds(terms)
    upper_counts = _first_winner_counts([a_star_up, carlson_up, best], np.less)
    hi = np.where(a_star_up - best <= carlson_up - best, a_star_up, carlson_up)
    del a_star_up, carlson_up
    upper = _margin_block(x, hi - best, _pair_tol(hi, best))
    del hi, best

    a_star_lo, carlson_lo, sqrt3, lam = _block_lower_bounds(terms)
    lower_counts = _first_winner_counts([a_star_lo, carlson_lo, sqrt3, lam], np.greater)
    lo = np.where(lam - carlson_lo <= lam - sqrt3, carlson_lo, sqrt3)
    del carlson_lo, sqrt3
    lower = _margin_block(x, lam - lo, _pair_tol(lam, lo))
    diff = lam - a_star_lo
    i_max, i_min = int(np.argmax(diff)), int(np.argmin(diff))
    high = (float(diff[i_max]), float(x[i_max]), lam[i_max], a_star_lo[i_max])
    low = (float(diff[i_min]), float(x[i_min]), lam[i_min], a_star_lo[i_min])
    signs = np.sign(diff)
    cells = [(float(x[c]), float(x[c + 1])) for c in np.flatnonzero(signs[:-1] * signs[1:] < 0.0)]
    edges = (float(x[0]), signs[0], float(x[-1]), signs[-1])
    return upper_counts, upper, lower_counts, lower, high, low, cells, edges, int(x.size)


def _comparison(shares: list[tuple]) -> ComparisonResult:
    """The dominance table from the blocks' ``_compare_block`` shares, in grid order.

    Winner counts add, and the margins, the witnesses and the crossover cells merge in grid order;
    a crossover cell between two blocks joins one block's last point to the next one's first.
    """
    upper_counts, upper_shares, lower_counts, lower_shares, highs, lows, block_cells, edges, sizes = zip(*shares)
    cells, last_x, last_sign = [], math.nan, math.nan
    for inside, (first_x, first_sign, end_x, end_sign) in zip(block_cells, edges):
        if last_sign * first_sign < 0.0:
            cells.append((last_x, first_x))
        cells += inside
        last_x, last_sign = end_x, end_sign
    samples = sum(sizes)

    rep_lower = _pointwise_report("sharp-lower-dominance", lower_shares, notes="lambda bound >= classical and 1+sqrt(3) lower bounds")
    rep_upper = _pointwise_report("sharp-upper-dominance", upper_shares, notes="doubly-sharp upper bound <= both instance upper bounds")

    # np.argmax and np.argmin over the blocks' witnesses pick the grid's first-index extremes
    up_witness, x_up, lam_up, pi2_up = highs[int(np.argmax([w[0] for w in highs]))]
    down, x_down, lam_down, pi2_down = lows[int(np.argmin([w[0] for w in lows]))]
    down_witness = -down
    tol_max, tol_min = _pair_tol(np.array([lam_up, lam_down]), np.array([pi2_up, pi2_down]))
    witnessed = up_witness > float(tol_max) and down_witness > float(tol_min)
    fn = lambda t: float(lambda_lower(t) - a_star_pair(t)[0])
    crossovers = [bisect_sign_change(fn, lo, hi, xtol=1e-10)[0] for lo, hi in cells]
    passed = witnessed and len(crossovers) >= 1
    margin = min(up_witness, down_witness)
    rep_cross = VerificationReport(
        "sharp-noninclusion",
        passed,
        samples,
        margin if witnessed else -margin,
        crossovers[0] if crossovers else x_up,
        notes=(
            f"lambda wins by {up_witness:.6g} at x={x_up:.9g}; "
            f"pi^2 bound wins by {down_witness:.6g} at x={x_down:.9g}; "
            f"crossovers at {[f'{c:.12g}' for c in crossovers]}"
        ),
    )
    return ComparisonResult(
        samples=samples,
        reports=(rep_lower, rep_upper, rep_cross),
        crossovers=tuple(crossovers),
        lower_argmax_counts=dict(zip(("a-star", "carlson", "one-plus-sqrt3", "lambda"), np.sum(lower_counts, axis=0).tolist())),
        upper_argmin_counts=dict(zip(("a-star", "carlson", "best"), np.sum(upper_counts, axis=0).tolist())),
    )


# The compare check: `compare` and the sharp-dominance claim both run it.
_COMPARE: _Check = (_compare_block, _comparison)


def compare_bounds(grid: GridSpec = DEFAULT_GRID) -> ComparisonResult:
    """Dominance table for the sharp bound candidates on one grid.

    Checks that the lambda lower bound dominates the classical (a =
    2*sqrt(2)) and the 1+sqrt(3) lower bounds, that the doubly-sharp upper
    bound dominates both instance upper bounds, and that the lambda and
    pi**2 lower bounds are not comparable (each wins somewhere); their
    crossovers are located by bisection to 1e-10.  The grid is evaluated
    in blocks by ``_sweep``, as the one check ``_COMPARE``.
    """
    return _sweep([_COMPARE], grid)[0]


# --------------------------------------------------------------------------
# Claim registry


def _sweep(checks: Sequence[_Check], grid: GridSpec, overlap: int = 0) -> list:
    """The results of ``checks`` on one grid: its blocks, overlapping by ``overlap`` points, outside; the checks inside."""
    shares: list[list] = [[] for _ in checks]
    for x in _blocks(grid, overlap):
        terms = _GridTerms(x)
        for (block, _), out in zip(checks, shares):
            out.append(block(terms))
    return [report(out) for (_, report), out in zip(checks, shares)]


@dataclass(frozen=True)
class _Plan:
    """What one claim evaluates, built before any grid is sampled.

    Each of ``checks`` is a (grid, overlap, _Check) triple: the check runs on the grid in blocks that
    overlap by ``overlap`` points.  ``finish(results)`` writes the claim's reports from the checks'
    results, in their order.
    """

    checks: tuple[tuple[GridSpec, int, _Check], ...] = ()
    finish: Callable[[list], list[VerificationReport]] = lambda results: results


def _run_plans(plans: Sequence[_Plan]) -> list[VerificationReport]:
    """The reports of ``plans``, in their order.

    One ``_sweep`` per (grid, overlap) runs the checks of every plan on that grid, so each grid and its
    block terms are evaluated once.
    """
    groups: dict[tuple[GridSpec, int], list[_Check]] = {}
    for plan in plans:
        for grid, overlap, check in plan.checks:
            groups.setdefault((grid, overlap), []).append(check)
    results = {key: iter(_sweep(checks, *key)) for key, checks in groups.items()}
    reports: list[VerificationReport] = []
    for plan in plans:
        reports += plan.finish([next(results[grid, overlap]) for grid, overlap, _ in plan.checks])
    return reports


def _each_a(check: Callable[[float], _Check], overlap: int = 0) -> Callable[..., _Plan]:
    """The plan of ``check(a)`` for each value; every ``check(a)`` runs, and so checks its a, before the grid is sampled."""
    return lambda values, grid: _Plan(tuple((grid, overlap, check(a)) for a in values))


def _own_walk(claim: Callable[[Sequence[float], GridSpec], list[VerificationReport]]) -> Callable[..., _Plan]:
    """The plan of a claim that samples its grid its own way, outside ``_sweep``: all of it runs in ``finish``."""
    return lambda values, grid: _Plan(finish=lambda results: claim(values, grid))


def _claim_classic(values: Sequence[float], grid: GridSpec) -> _Plan:
    c_lower, c_upper = _CARLSON_CONSTANTS
    lower = _arccos_check("classic-lower", TWO_SQRT2, lambda acx, template: acx - c_lower * template, "classical lower constant 6")
    upper = _arccos_check("classic-upper", TWO_SQRT2, lambda acx, template: c_upper * template - acx, "classical upper constant (1/2+sqrt(2))*pi")
    return _Plan(((grid, 0, lower), (grid, 0, upper)))


# Size of the uniform grid of the brute-force argmin cross-check.
BRUTE_FORCE_N = 1_000_001


def _brute_force(values: Sequence[float]) -> tuple[GridSpec, int, _Check]:
    """The check triple of the ratio's argmin (x, value) at each of ``values`` on BRUTE_FORCE_N uniform points."""
    grid = GridSpec(DEFAULT_GRID.lo, DEFAULT_GRID.hi, BRUTE_FORCE_N, "uniform")
    ratios = lambda terms: ((terms.ratio_at(a), "ratio") for a in values)
    return grid, 1, _minima(ratios, lambda minima, n: [(x, v) for v, x, _ in minima])


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
        res.f_min - floor + float(_ulps(floor)),
        min(at0, at1) - res.f_min,
        1e-6 - abs(bx - res.x0),
        1e-10 - abs(bval - res.f_min),
    )
    return res, slacks


def _interior_report(a: float, mono: VerificationReport, brute: tuple[float, float]) -> VerificationReport:
    """The interior-minimum composite from the sign-pattern report ``mono`` and the brute-force argmin ``brute``."""
    res, slacks = _minimum_slacks(a, brute)
    labels = ("implicit-equation residual", "minimum above floor", "minimum below endpoint limits",
              "argmin agrees with brute force", "minimum value agrees with brute force")
    checks = [
        (mono.worst_margin if mono.passed else -abs(mono.worst_margin), mono.worst_x, "one sign change"),
        *zip(slacks, (res.x0, res.x0, res.x0, brute[0], brute[0]), labels),
    ]
    return _composite_report(
        f"regime-InteriorMinimum[a={a:.17g}]", checks, mono.samples + BRUTE_FORCE_N,
        notes=f"x0={res.x0:.12g}; f_min={res.f_min:.12g}; iterations={res.iterations}",
    )


def _claim_interior_minimum(values: Sequence[float], grid: GridSpec) -> _Plan:
    finish = lambda results: [_interior_report(a, mono, brute) for a, mono, brute in zip(values, results[:-1], results[-1])]
    return _Plan((*((grid, 1, _monotonicity_check(a)) for a in values), _brute_force(values)), finish)


def _claim_minimum_floor(values: Sequence[float], grid: None) -> _Plan:
    def finish(results: list) -> list[VerificationReport]:
        labels = ("residual", "floor", "below endpoint limits", "brute-force x0", "brute-force value")
        checks: list[tuple[float, float, str]] = []
        for av, brute in zip(values, results[0]):
            _, slacks = _minimum_slacks(av, brute)
            checks.extend((slack, av, f"{label} at a={av:.6g}") for slack, label in zip(slacks, labels))
        return [
            _composite_report(
                "minimum-floor", checks, len(values) * BRUTE_FORCE_N,
                notes="sweep over the interior-minimum interval; worst_x is the parameter a",
            )
        ]

    return _Plan((_brute_force(values),), finish)


def _slack_plan(claim_id: str, head: list[tuple[float, float, str]], slacks: Callable[[_GridTerms], Iterable[tuple]],
                samples: Callable[[int], int], notes: str, grid: GridSpec) -> _Plan:
    """The plan of one composite report: the ``head`` sub-checks and sub-checks that are arrays of slacks on ``grid``.

    ``slacks(terms)`` yields one block's (slack array, label) pairs to ``_minima``, and ``samples(n)``
    counts the report's samples on n points.
    """
    report = lambda minima, n: _composite_report(claim_id, [*head, *minima], samples(n), notes)
    return _Plan(((grid, 1, _minima(slacks, report)),))


def _claim_aux_slope_limits(values: Sequence[float], grid: GridSpec) -> _Plan:
    head = [
        (1e-5 - abs(slope_factor(av, 1e-10) - slope_factor_limit0(av)), 1e-10, f"slope-factor limit at a={av:g}")
        for av in (0.0, 1.0, 3.0)
    ]
    head += [
        (1e-5 - abs(slope_threshold(1e-10) - 8.0 / PI), 1e-10, "threshold left endpoint 8/pi"),
        (1e-5 - abs(slope_threshold(1.0 - 1e-10) - TWO_SQRT2), 1.0 - 1e-10, "threshold right endpoint 2*sqrt(2)"),
        (1e-5 - abs(threshold_gap(1.0 - 1e-10)), 1.0 - 1e-10, "threshold gap vanishes at 1"),
    ]
    tol_p, tol_r = _SLOPE_LIMITS_TOL

    def slacks(terms: _GridTerms) -> Iterable[tuple]:
        p = _slope_threshold(terms)
        yield np.diff(p) + tol_p, "threshold strictly increasing"
        yield p - 8.0 / PI + tol_p, "threshold range floor"
        yield TWO_SQRT2 - p + tol_p, "threshold range ceiling"
        r = _threshold_gap(terms)
        yield tol_r - np.diff(r), "gap strictly decreasing"
        yield r + tol_r, "gap positive"

    return _slack_plan("aux-slope-limits", head, slacks, lambda n: 6 + 2 * n, "derivative-apparatus limits and shapes", grid)


def _claim_aux_roots(values: Sequence[float], grid: GridSpec) -> _Plan:
    (lo0, lo1), (hi0, hi1) = slope_quadratic_roots(np.array([1e-10, 1.0 - 1e-10]))
    probes = _GridTerms(np.linspace(0.005, 0.995, 100))
    lo, hi = _slope_quadratic_roots(probes)
    head = [
        (1e-6 - abs(lo0 - (1.0 - math.sqrt(17.0)) / 2.0), 1e-10, "low root left limit"),
        (1e-6 - abs(hi0 - (1.0 + math.sqrt(17.0)) / 2.0), 1e-10, "high root left limit"),
        (1e-6 - abs(lo1 + SQRT2), 1.0 - 1e-10, "low root right limit"),
        (1e-6 - abs(hi1 - TWO_SQRT2), 1.0 - 1e-10, "high root right limit"),
        _tightest(1e-10 - np.abs(_slope_quadratic(hi, probes)), probes.x, "high root annihilates the quadratic"),
        _tightest(1e-10 - np.abs(_slope_quadratic(lo, probes)), probes.x, "low root annihilates the quadratic"),
    ]

    def slacks(terms: _GridTerms) -> Iterable[tuple]:
        lo_g, hi_g = _slope_quadratic_roots(terms)
        yield np.diff(lo_g), "low root strictly increasing"
        yield np.diff(hi_g), "high root strictly increasing"

    return _slack_plan("aux-quadratic-roots", head, slacks, lambda n: 204 + 2 * n, "roots of the slope quadratic", grid)


def _claim_aux_sign_regimes(values: Sequence[float], grid: GridSpec) -> _Plan:
    def slacks(terms: _GridTerms) -> Iterable[tuple]:
        # sign * value must stay above -tol
        for sign, what, avals in ((1.0, "positive", QUADRATIC_POSITIVE_A_VALUES), (-1.0, "negative", QUADRATIC_NEGATIVE_A_VALUES)):
            for av in avals:
                tol = float(_ulps(av * av * SQRT2 + 4.0 * SQRT2))
                yield sign * _slope_quadratic(av, terms) + tol, f"quadratic {what} at a={av:.6g}"
        for sign, what, avals in ((1.0, "positive", (0.0, 2.0, 8.0 / PI)), (-1.0, "negative", (TWO_SQRT2, 4.0))):
            for av in avals:
                scale = (abs(av) * terms.sqrt_1px + 2.0) * (PI / 2.0) + 2.0 * (abs(av) + terms.sqrt_1px)
                yield sign * _slope_term(av, terms) + _ulps(scale), f"slope term {what} at a={av:.6g}"

    notes = "one-signedness of the quadratic and the slope term"
    return _slack_plan("aux-sign-regimes", [], slacks, lambda n: 11 * n, notes, grid)


def _claim_sharp_dominance(values: Sequence[float], grid: GridSpec) -> _Plan:
    return _Plan(((grid, 0, _COMPARE),), lambda results: list(results[0].reports))


def _claim_gain_maximizer(values: Sequence[float], grid: GridSpec) -> list[VerificationReport]:
    # every k-th point of the grid, read from its blocks: one pass counts the points, one picks
    k = max(1, sum(x.size for x in _blocks(grid)) // 100)
    picks, start = [], 0
    for x in _blocks(grid):
        picks.append(x[-start % k :: k].copy())  # a view would keep the whole block
        start += x.size
    xs = np.concatenate(picks)[:100]  # the 100-point default is its own subsample
    avals = np.linspace(A_STAR, TWO_SQRT2, 10_002)[1:-1]
    # the gain table one row at a time: each row's np.max is the whole table's row maximum
    grid_max = np.array([np.max(lower_gain(avals, x)) for x in xs])
    attained = lower_gain(lower_gain_argmax(xs), xs)
    closed = lower_gain_max(xs)
    tol = _pair_tol(attained, grid_max)
    dev = abs(lower_gain_argmax(1e-12) - (1.0 + math.sqrt(3.0)))
    checks = [
        _tightest(attained - grid_max + tol, xs, "maximizer beats the parameter grid"),
        _tightest(tol - np.abs(closed - attained), xs, "closed-form maximum matches composition"),
        (1e-8 - dev, 1e-12, "maximizer tends to 1+sqrt(3) at the left endpoint"),
    ]
    return [_composite_report("gain-maximizer", checks, xs.size * avals.size, notes="pointwise optimality of the gain maximizer")]


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

    ``check`` returns the claim's ``_Plan``.  ``plan(grid, a)``: a caller's grid replaces ``grid``, but a
    uniform ``grid`` keeps its spacing and takes only the caller's n, and a None ``grid`` takes none.
    A given ``a`` replaces nonempty ``values``.  ``runner(grid, a)`` runs the claim alone.
    """

    claim_id: str
    description: str
    check: Callable[[Sequence[float], GridSpec | None], _Plan]
    grid: GridSpec | None
    values: tuple[float, ...] = ()

    @property
    def regime(self) -> Regime | None:
        """The one regime of all ``values``, the only one a parameterized run may name; None accepts every a."""
        regimes = {classify_regime(v) for v in self.values}
        return regimes.pop() if len(regimes) == 1 else None

    def plan(self, grid: GridSpec | None, a: float | None) -> _Plan:
        own = self.grid
        if grid is not None and own is not None:
            own = replace(own, n=grid.n) if own.spacing == "uniform" else grid
        return self.check((a,) if a is not None and self.values else self.values, own)

    def runner(self, grid: GridSpec | None, a: float | None) -> list[VerificationReport]:
        return _run_plans([self.plan(grid, a)])


CLAIMS: tuple[Claim, ...] = (
    Claim("classic-lower", "classical lower bound (constant 6) is strict on (0,1)", _claim_classic, DEFAULT_GRID),
    Claim("family-bracket", "two-sided family bound holds with the regime's constants", _each_a(_bounds_check), DEFAULT_GRID, BRACKET_A_VALUES),
    Claim("midregime-floor", "floor constant 8*(1-2/a^2) bounds arccos from below", _each_a(_floor_check), DEFAULT_GRID, FLOOR_A_VALUES),
    Claim("endpoint-constants", "endpoint limits are attained, so the constants are best possible", _each_a(_limits_check, overlap=1), replace(DEFAULT_GRID, n=200_000), BRACKET_A_VALUES),
    Claim("regime-increasing", "ratio strictly increasing for a <= A_STAR", _each_a(_monotonicity_check, overlap=1), replace(DEFAULT_GRID, n=100_000), INCREASING_A_VALUES),
    Claim("regime-decreasing", "ratio strictly decreasing for a >= 2*sqrt(2)", _each_a(_monotonicity_check, overlap=1), replace(DEFAULT_GRID, n=100_000), DECREASING_A_VALUES),
    Claim("regime-interior-minimum", "unique interior minimum in the middle regime", _claim_interior_minimum, replace(DEFAULT_GRID, n=100_000), INTERIOR_A_VALUES),
    Claim("minimum-floor", "interior minimum satisfies its floor and brute-force cross-check", _claim_minimum_floor, None, MINIMUM_A_VALUES),
    Claim("aux-slope-limits", "derivative-apparatus limits and threshold shape", _claim_aux_slope_limits, replace(DEFAULT_GRID, n=100_000)),
    # Near the endpoints of a refined grid neighbouring roots differ by less than an ulp, so this grid is uniform.
    Claim("aux-quadratic-roots", "slope-quadratic roots: limits, residuals, monotonicity", _claim_aux_roots, replace(DEFAULT_GRID, n=10_000, spacing="uniform")),
    Claim("aux-sign-regimes", "one-signed ranges of the quadratic and the slope term", _claim_aux_sign_regimes, replace(DEFAULT_GRID, n=100_000)),
    Claim("sharp-dominance", "dominance and non-inclusion among the sharp bounds", _claim_sharp_dominance, DEFAULT_GRID),
    Claim("gain-maximizer", "gain maximizer is pointwise optimal and matches its closed form", _own_walk(_claim_gain_maximizer), replace(DEFAULT_GRID, n=100)),
    # The scanner needs a uniform grid (see classify_family).
    Claim("scan-slice", "scanner verdicts agree with the regime map on the (1/2, 1/2, gamma) slice", _own_walk(_claim_scan_slice), SCAN_GRID),
)

_CLAIM_INDEX = {c.claim_id: c for c in CLAIMS}
# The classic-* pair is produced by one check.
_ALIASES = {"classic-upper": "classic-lower"}


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

    The checks of all the claims are grouped by the grid and overlap each
    names, and each group runs in one ``_sweep``.  Reports come in the order
    the claims were selected, registry order when ids is None.  One claim
    runs through its ``Claim.runner``.
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
    if len(selected) == 1:
        return selected[0].runner(grid, a)
    return _run_plans([claim.plan(grid, a) for claim in selected])
