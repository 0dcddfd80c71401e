"""Shared grid terms in blocks: the same bits as a direct evaluation, each term evaluated once.

A verification sweep evaluates its grid in blocks of ``grids._BLOCK``
points.  Each block's terms that depend on x alone (arccos, the square
roots, the arccos ratio) are evaluated once and shared across the shape
parameters, and each check reduces a block to a small share that merges
in grid order.  These tests recompute the reports one shape parameter at
a time with the family's public functions on the whole of
``grid.points()``, run the sweeps at other block sizes, count how often
the grid and arccos are evaluated, and bound the memory of the sweeps.
"""

import math
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import ratio_argmin, worst_ulp
from mpmath import mp

import arcbounds as ab
from arcbounds import grids, sharp, verify
from arcbounds.grids import GridSpec, _blocks, _GridTerms
from arcbounds.verify import (
    BRACKET_A_VALUES,
    BRUTE_FORCE_N,
    DECREASING_A_VALUES,
    FLOOR_A_VALUES,
    INCREASING_A_VALUES,
    INTERIOR_A_VALUES,
    _margin_block,
    _pointwise_report,
    run_claims,
)

GRID = GridSpec(1e-9, 1.0 - 1e-9, 20_001, "refined")


def _bits(report):
    """A report's identity and figures, floats as exact hex."""
    return (report.claim_id, report.passed, report.samples, report.worst_margin.hex(), report.worst_x.hex())


def _direct_report(claim_id, x, margins, tol):
    """A pointwise report from whole arrays: the first-index argmin and the violation count."""
    i = int(np.argmin(margins))
    violations = int(np.count_nonzero(~(np.isfinite(margins) & (margins >= -tol))))
    return ab.VerificationReport(claim_id, violations == 0, int(margins.size), float(margins[i]), float(x[i]))


def _one_block(check, a, terms):
    """``check(a)``'s report with ``terms`` as its one block."""
    block, report = check(a)
    return report([block(terms)])


class _DirectTerms:
    """Stand-in for the shared terms: the ratio comes from bound_ratio afresh on every call."""

    def __init__(self, grid):
        self.x = grid.points()

    def ratio_at(self, a):
        return ab.bound_ratio(a, self.x)


def test_pointwise_reports_equal_direct_evaluation():
    x = GRID.points()
    acx = ab.arccos_stable(x)
    tol = 4.0 * np.spacing(acx)
    lower, upper = ab.carlson_pair(x)
    expected = [
        _direct_report("classic-lower", x, acx - lower, tol),
        _direct_report("classic-upper", x, upper - acx, tol),
    ]
    for a in BRACKET_A_VALUES:
        lower, upper = ab.bound_arrays(a, x)
        expected.append(_direct_report(f"family-bracket[a={a:.17g}]", x, np.minimum(acx - lower, upper - acx), tol))
    for a in FLOOR_A_VALUES:
        floor_lower = 8 * (1 - 2 / (a * a)) * (np.sqrt(1.0 - x) / (a + np.sqrt(1.0 + x)))
        expected.append(_direct_report(f"midregime-floor[a={a:.17g}]", x, acx - floor_lower, tol))
    for regime, sign, values in (("Increasing", 1.0, INCREASING_A_VALUES), ("Decreasing", -1.0, DECREASING_A_VALUES)):
        for a in values:
            v = ab.bound_ratio(a, x)
            d_tol = 4.0 * (np.spacing(np.abs(v[:-1])) + np.spacing(np.abs(v[1:])))
            expected.append(_direct_report(f"regime-{regime}[a={a:.17g}]", x[:-1], sign * np.diff(v), d_tol))

    ids = ["classic-lower", "family-bracket", "midregime-floor", "regime-increasing", "regime-decreasing"]
    got = run_claims(ids, grid=GRID)
    assert [_bits(r) for r in got] == [_bits(r) for r in expected]
    assert all(r.passed for r in got)


def test_composite_reports_equal_direct_evaluation():
    got = run_claims(["endpoint-constants", "regime-interior-minimum"], grid=GRID)
    expected = [_one_block(verify._limits_check, a, _DirectTerms(GRID)) for a in BRACKET_A_VALUES]
    expected += [
        verify._interior_report(a, _one_block(verify._monotonicity_check, a, _DirectTerms(GRID)), ratio_argmin(a, BRUTE_FORCE_N))
        for a in INTERIOR_A_VALUES
    ]
    assert [_bits(r) + (r.notes,) for r in got] == [_bits(r) + (r.notes,) for r in expected]


def _aux_direct_reports(grid, roots_grid):
    """The three aux composite reports from whole arrays of ``analysis``' public functions, at scalar x in the heads."""
    x = grid.points()
    tol_p, tol_r = verify._SLOPE_LIMITS_TOL
    head = [(1e-5 - abs(ab.slope_factor(a, 1e-10) - ab.slope_factor_limit0(a)), 1e-10, f"slope-factor limit at a={a:g}") for a in (0.0, 1.0, 3.0)]
    head += [
        (1e-5 - abs(ab.slope_threshold(1e-10) - 8.0 / math.pi), 1e-10, "threshold left endpoint 8/pi"),
        (1e-5 - abs(ab.slope_threshold(1.0 - 1e-10) - ab.TWO_SQRT2), 1.0 - 1e-10, "threshold right endpoint 2*sqrt(2)"),
        (1e-5 - abs(ab.threshold_gap(1.0 - 1e-10)), 1.0 - 1e-10, "threshold gap vanishes at 1"),
    ]
    p, r = ab.slope_threshold(x), ab.threshold_gap(x)
    arrays = [
        (np.diff(p) + tol_p, "threshold strictly increasing"), (p - 8.0 / math.pi + tol_p, "threshold range floor"),
        (ab.TWO_SQRT2 - p + tol_p, "threshold range ceiling"), (tol_r - np.diff(r), "gap strictly decreasing"),
        (r + tol_r, "gap positive"),
    ]
    limits = verify._composite_report(
        "aux-slope-limits", head + [verify._tightest(v, x, label) for v, label in arrays], 6 + 2 * x.size,
        "derivative-apparatus limits and shapes",
    )

    (lo0, hi0), (lo1, hi1) = ab.slope_quadratic_roots(1e-10), ab.slope_quadratic_roots(1.0 - 1e-10)
    xs = np.linspace(0.005, 0.995, 100)
    lo, hi = ab.slope_quadratic_roots(xs)
    head = [
        (1e-6 - abs(lo0 - (1.0 - math.sqrt(17.0)) / 2.0), 1e-10, "low root left limit"),
        (1e-6 - abs(hi0 - (1.0 + math.sqrt(17.0)) / 2.0), 1e-10, "high root left limit"),
        (1e-6 - abs(lo1 + ab.SQRT2), 1.0 - 1e-10, "low root right limit"),
        (1e-6 - abs(hi1 - ab.TWO_SQRT2), 1.0 - 1e-10, "high root right limit"),
    ]
    for roots, which in ((hi, "high"), (lo, "low")):
        residuals = np.abs([ab.slope_quadratic(float(root), float(xv)) for root, xv in zip(roots, xs)])
        head.append(verify._tightest(1e-10 - residuals, xs, f"{which} root annihilates the quadratic"))
    xr = roots_grid.points()
    lo_g, hi_g = ab.slope_quadratic_roots(xr)
    arrays = [(np.diff(lo_g), "low root strictly increasing"), (np.diff(hi_g), "high root strictly increasing")]
    roots_report = verify._composite_report(
        "aux-quadratic-roots", head + [verify._tightest(v, xr, label) for v, label in arrays], 204 + 2 * xr.size,
        "roots of the slope quadratic",
    )

    s, arrays = np.sqrt(1.0 + x), []
    for sign, what, values in ((1.0, "positive", verify.QUADRATIC_POSITIVE_A_VALUES), (-1.0, "negative", verify.QUADRATIC_NEGATIVE_A_VALUES)):
        for a in values:
            tol = 4.0 * np.spacing(a * a * ab.SQRT2 + 4.0 * ab.SQRT2)
            arrays.append((sign * ab.slope_quadratic(a, x) + tol, f"quadratic {what} at a={a:.6g}"))
    for sign, what, values in ((1.0, "positive", (0.0, 2.0, 8.0 / math.pi)), (-1.0, "negative", (ab.TWO_SQRT2, 4.0))):
        for a in values:
            scale = (abs(a) * s + 2.0) * (math.pi / 2.0) + 2.0 * (abs(a) + s)
            arrays.append((sign * ab.slope_term(a, x) + 4.0 * np.spacing(scale), f"slope term {what} at a={a:.6g}"))
    signs = verify._composite_report(
        "aux-sign-regimes", [verify._tightest(v, x, label) for v, label in arrays], 11 * x.size,
        "one-signedness of the quadratic and the slope term",
    )
    return [limits, roots_report, signs]


@pytest.mark.parametrize("grid", [GRID, GridSpec(1e-9, 1.0 - 1e-9, 20_001, "uniform")], ids=["refined", "uniform"])
def test_aux_reports_equal_direct_evaluation(grid):
    # the aux claims read analysis' kernels on each block's shared terms; the reports are the bits of
    # the public functions on the whole grid (aux-quadratic-roots keeps its uniform registry spacing)
    got = run_claims(["aux-slope-limits", "aux-quadratic-roots", "aux-sign-regimes"], grid=grid)
    expected = _aux_direct_reports(grid, GridSpec(grid.lo, grid.hi, grid.n, "uniform"))
    assert [_bits(r) + (r.notes,) for r in got] == [_bits(r) + (r.notes,) for r in expected]
    assert all(r.passed for r in got)


def test_fresh_terms_equal_the_sweep_reports():
    # each report from fresh terms of the whole grid equals the one from the sweep's shared block terms
    sweep = run_claims(["family-bracket", "midregime-floor", "endpoint-constants", "regime-increasing"], grid=GRID)
    direct = [_one_block(verify._bounds_check, a, _GridTerms(GRID.points())) for a in BRACKET_A_VALUES]
    direct += [_one_block(verify._floor_check, a, _GridTerms(GRID.points())) for a in FLOOR_A_VALUES]
    direct += [_one_block(verify._limits_check, a, _GridTerms(GRID.points())) for a in BRACKET_A_VALUES]
    direct += [_one_block(verify._monotonicity_check, a, _GridTerms(GRID.points())) for a in INCREASING_A_VALUES]
    assert sweep == direct


def test_minimum_floor_batch_equals_per_parameter_argmins(monkeypatch):
    calls = Counter()
    arccos = grids.arccos_stable

    def counting_arccos(x):
        calls["ratio"] += 1
        return arccos(x)

    # _GridTerms' ratio reads its block's arccos, which is the one arccos_stable call of grids
    monkeypatch.setattr(grids, "arccos_stable", counting_arccos)
    batched = run_claims(["minimum-floor"])
    # one arccos ratio per block of the brute-force grid for all 20 parameters, not one per parameter
    assert calls["ratio"] == math.ceil((BRUTE_FORCE_N - 1) / grids._BLOCK)
    plan = verify._CLAIM_INDEX["minimum-floor"].plan(None, None)
    single = plan.finish([[ratio_argmin(a, BRUTE_FORCE_N) for a in verify.MINIMUM_A_VALUES]])
    assert [_bits(r) + (r.notes,) for r in batched] == [_bits(r) + (r.notes,) for r in single]
    assert batched[0].passed and batched[0].samples == 20 * BRUTE_FORCE_N


_MIDREGIME = [2.66, 2.7, 2.75, 2.8, 2.828]


@pytest.mark.parametrize(
    "values, n, block",
    [
        (_MIDREGIME, 20_001, 7),
        (_MIDREGIME, 20_001, 7_777),
        (_MIDREGIME, 20_001, grids._BLOCK),
        # a = 3 and 4 take their minimum at the grid's last point, which is hi itself
        ([2.75], 50_001, grids._BLOCK),
        ([3.0], 100_001, grids._BLOCK),
        ([4.0], 100_001, grids._BLOCK),
    ],
)
def test_brute_force_check_equals_direct_numpy(monkeypatch, values, n, block):
    monkeypatch.setattr(verify, "BRUTE_FORCE_N", n)  # read when the check is built
    monkeypatch.setattr(grids, "_BLOCK", block)
    grid, overlap, check = verify._brute_force(values)
    assert (grid, overlap) == (GridSpec(1e-9, 1.0 - 1e-9, n, "uniform"), 1)
    [got] = verify._sweep([check], grid, overlap)
    assert got == [ratio_argmin(a, n) for a in values]
    assert all(x == 1.0 - 1e-9 for a, (x, _) in zip(values, got) if a > ab.TWO_SQRT2)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of grid builds (GridSpec._runs calls, which points() and _blocks both make) and of np.arccos evaluations."""
    counts = Counter()
    runs, arccos = GridSpec._runs, np.arccos

    def counting_runs(self):
        counts["grid"] += 1
        return runs(self)

    def counting_arccos(*args, **kwargs):
        counts["arccos"] += 1
        return arccos(*args, **kwargs)

    monkeypatch.setattr(GridSpec, "_runs", counting_runs)
    monkeypatch.setattr(np, "arccos", counting_arccos)
    return counts


@pytest.mark.parametrize(
    "claim_id, values",
    [
        ("family-bracket", BRACKET_A_VALUES),
        ("midregime-floor", FLOOR_A_VALUES),
        ("regime-increasing", INCREASING_A_VALUES),
        ("regime-decreasing", DECREASING_A_VALUES),
        ("classic-lower", (ab.TWO_SQRT2, ab.TWO_SQRT2)),  # classic-lower and classic-upper, both at a = 2*sqrt(2)
    ],
)
def test_sweep_takes_its_grid_and_arccos_once(evaluations, claim_id, values):
    reports = run_claims([claim_id], grid=GridSpec(1e-9, 1.0 - 1e-9, 2001))
    assert len(reports) == len(values) > 1
    assert evaluations == {"grid": 1, "arccos": 1}


@pytest.fixture
def arccos_points(monkeypatch):
    """The number of points np.arccos evaluates, summed over its calls."""
    seen = Counter()
    arccos = np.arccos

    def counting_arccos(x, *args, **kwargs):
        seen["points"] += np.size(x)
        return arccos(x, *args, **kwargs)

    monkeypatch.setattr(np, "arccos", counting_arccos)
    return seen


@pytest.mark.parametrize(
    "claim_id, overlap",
    [("classic-lower", 0), ("family-bracket", 0), ("midregime-floor", 0), ("regime-increasing", 1), ("regime-decreasing", 1)],
)
def test_blocked_sweep_takes_arccos_once_per_point(arccos_points, claim_id, overlap):
    grid = GridSpec(1e-9, 1.0 - 1e-9, 50_001)
    size = grid.points().size
    blocks = math.ceil((size - overlap) / grids._BLOCK)
    assert blocks > 1
    run_claims([claim_id], grid=grid)
    # blocks of a difference check share their boundary points, which are evaluated in both
    assert arccos_points["points"] == size + overlap * (blocks - 1)


def test_one_shared_walk_evaluates_each_term_once_per_point(monkeypatch):
    # the three claims share one walk of the 100k grid, overlap 1: arccos and each of sqrt(1+x) and
    # sqrt(1-x) once per block point, shared boundary points in both blocks; the scalar probes of the
    # heads (one element a call) are not counted
    grid = replace(ab.DEFAULT_GRID, n=100_000)
    size = grid.points().size
    block_points = size + math.ceil((size - 1) / grids._BLOCK) - 1
    assert block_points == 100_006
    seen = Counter()
    for name in ("arccos", "sqrt"):
        fn = getattr(np, name)

        def counting(x, *args, _fn=fn, _name=name, **kwargs):
            if np.size(x) > 1:
                seen[_name] += np.size(x)
            return _fn(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    run_claims(["regime-increasing", "aux-slope-limits", "aux-sign-regimes"])
    assert seen == {"arccos": block_points, "sqrt": 2 * block_points}


def test_sharp_block_bounds_equal_the_public_functions():
    # compare_bounds and `bounds` read the seven bounds from one block's terms, in a lower and an upper
    # half: the bits of the five public functions
    for x in _blocks(ab.DEFAULT_GRID):
        terms = _GridTerms(x)
        got = (*sharp._block_lower_bounds(terms), *sharp._block_upper_bounds(terms))
        (a_star_lo, a_star_up), (carlson_lo, carlson_up) = ab.a_star_pair(x), ab.carlson_pair(x)
        want = (a_star_lo, carlson_lo, ab.sqrt3_lower(x), ab.lambda_lower(x), a_star_up, carlson_up, ab.best_upper(x))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


@pytest.mark.parametrize("lo, hi", [(0.0, 0.5), (0.5, 1.0), (-1.0, 2.0)])
def test_off_domain_grid_raises_before_its_first_block(evaluations, lo, hi):
    grid = GridSpec(lo, hi, 50_001)
    with pytest.raises(ab.DomainError, match=r"open interval \(0, 1\)"):
        next(_blocks(grid))
    for run in (lambda: run_claims(["family-bracket"], grid=grid), lambda: verify.compare_bounds(grid)):
        with pytest.raises(ab.DomainError):
            run()
    assert evaluations == {}  # neither a grid point nor a term was evaluated


def _claim_bits(reports):
    return [_bits(r) + (r.notes,) for r in reports]


def _comparison_bits(result):
    return [_bits(r) + (r.notes,) for r in result.reports], result.crossovers, result.lower_argmax_counts, result.upper_argmin_counts


BLOCKED_CLAIMS = [
    "classic-lower", "family-bracket", "midregime-floor", "endpoint-constants",
    "regime-increasing", "regime-decreasing", "regime-interior-minimum",
]


@pytest.mark.parametrize("block", [7, 1000])
def test_block_size_keeps_every_report(monkeypatch, block):
    # the brute-force check's block size has its own test; a smaller grid keeps 7-point blocks quick
    monkeypatch.setattr(verify, "BRUTE_FORCE_N", 20_001)
    reports, comparison = run_claims(BLOCKED_CLAIMS, grid=GRID), verify.compare_bounds(GRID)
    monkeypatch.setattr(grids, "_BLOCK", block)
    assert _claim_bits(run_claims(BLOCKED_CLAIMS, grid=GRID)) == _claim_bits(reports)
    assert _comparison_bits(verify.compare_bounds(GRID)) == _comparison_bits(comparison)
    assert comparison.crossovers and all(r.passed for r in comparison.reports)


@pytest.mark.parametrize(
    "grid",
    [None, GridSpec(1e-9, 1.0 - 1e-9, 20_001, "refined"), GridSpec(1e-9, 1.0 - 1e-9, 20_001, "uniform")],
    ids=["registry", "refined", "uniform"],
)
def test_grouped_run_equals_each_claim_alone(monkeypatch, grid):
    walks, runs = Counter(), GridSpec._runs

    def counting_runs(self):
        walks[self] += 1
        return runs(self)

    monkeypatch.setattr(GridSpec, "_runs", counting_runs)
    grouped = run_claims(None, grid=grid)
    grouped_walks = dict(walks)
    alone = [r for claim in verify.CLAIMS for r in run_claims([claim.claim_id], grid=grid)]
    assert _claim_bits(grouped) == _claim_bits(alone)
    # regime-interior-minimum and minimum-floor share one pass over the brute-force grid, which no --n reaches
    assert grouped_walks[GridSpec(1e-9, 1.0 - 1e-9, BRUTE_FORCE_N, "uniform")] == 1
    if grid is None:
        # classic-*, family-bracket, midregime-floor and sharp-dominance share one walk of DEFAULT_GRID; the 100k
        # grid is walked once, by the overlap-1 group, aux-slope-limits and aux-sign-regimes included
        assert grouped_walks[ab.DEFAULT_GRID] == 1
        assert grouped_walks[GridSpec(1e-9, 1.0 - 1e-9, 100_000)] == 1


def _first_block_end(grid, overlap=0):
    return float(next(_blocks(grid, overlap))[-1])


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_block_boundary_on_the_crossover_cell(monkeypatch, shift):
    x = GRID.points()
    signs = np.sign(ab.lambda_lower(x) - ab.a_star_pair(x)[0])
    [c] = np.flatnonzero(signs[:-1] * signs[1:] < 0.0)
    expected = verify.compare_bounds(GRID)
    monkeypatch.setattr(grids, "_BLOCK", int(c) + shift)
    # shift 1 puts x[c] last in the first block and x[c + 1] first in the second
    assert _first_block_end(GRID) == x[c + shift - 1]
    assert _comparison_bits(verify.compare_bounds(GRID)) == _comparison_bits(expected)
    assert len(expected.crossovers) == 1
    # inside a group the compare check shares its blocks with classic-*'s checks
    grouped = run_claims(["classic-lower", "sharp-dominance"], grid=GRID)
    assert _claim_bits(grouped[2:]) == _comparison_bits(expected)[0]


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_block_boundary_on_the_interior_sign_change(monkeypatch, shift):
    a = INTERIOR_A_VALUES[0]
    x = GRID.points()
    v = ab.bound_ratio(a, x)
    d = np.diff(v)
    tol = 4.0 * (np.spacing(np.abs(v[:-1])) + np.spacing(np.abs(v[1:])))
    # the first significant rise: the differences from k on are the second block's
    k = int(np.flatnonzero(d > tol)[0])
    assert np.all(d[:k] <= tol[:k]) and np.any(d[:k] < -tol[:k])
    expected = run_claims(["regime-interior-minimum"], grid=GRID, a=a)
    monkeypatch.setattr(grids, "_BLOCK", k + shift)
    assert _first_block_end(GRID, overlap=1) == x[k + shift]
    got = run_claims(["regime-interior-minimum"], grid=GRID, a=a)
    assert _claim_bits(got) == _claim_bits(expected)
    assert got[0].passed


def test_margin_shares_merge_to_the_first_nan_and_the_first_minimum():
    x = np.linspace(0.1, 0.9, 12)
    tol = np.zeros_like(x)
    cases = [
        [3.0, 1.0, 2.0, -1.0, 5.0, np.nan, 4.0, -2.0, np.nan, 0.5, 1.0, 2.0],  # NaN after a smaller value
        [3.0, np.nan, 2.0, np.nan, 5.0, -7.0, 4.0, -7.0, 1.0, 0.5, 1.0, 2.0],  # a NaN in the first block
        [3.0, -1.0, 2.0, -1.0, 5.0, 0.0, -1.0, 2.0, 3.0, -1.0, 1.0, 2.0],  # ties in several blocks
        [0.0, 1.0, -0.0, 1.0, 0.0, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # signed zeros tie
    ]
    for margins in map(np.array, cases):
        whole = _direct_report("m", x, margins, tol)
        for bounds in ([0, 12], [0, 4, 8, 12], [0, 1, 5, 6, 12], [0, 3, 7, 11, 12]):
            shares = [_margin_block(x[lo:hi], margins[lo:hi], tol[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
            got = _pointwise_report("m", shares)
            assert (got.worst_x, got.samples, got.passed) == (whole.worst_x, whole.samples, whole.passed)
            assert got.worst_margin == whole.worst_margin or math.isnan(got.worst_margin) and math.isnan(whole.worst_margin)
            assert got.worst_x == float(x[int(np.argmin(margins))])


def test_minima_merge_to_the_first_nan_and_the_first_minimum():
    # _minima's blocks overlap by one point; -v is what _limits_check reduces for the grid maximum
    x = np.linspace(0.1, 0.9, 12)
    cases = [
        [3.0, 1.0, 2.0, -1.0, 5.0, np.nan, 4.0, -2.0, np.nan, 0.5, 1.0, 2.0],  # NaN after a smaller value
        [3.0, np.nan, 2.0, np.nan, 5.0, -7.0, 4.0, -7.0, 1.0, 0.5, 1.0, 2.0],  # a NaN in the first block
        [3.0, -1.0, 2.0, -1.0, 5.0, 0.0, -1.0, 2.0, 3.0, -1.0, 1.0, 2.0],  # ties in several blocks
        [0.0, 1.0, -0.0, 1.0, 0.0, -0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # signed zeros tie
        [-0.0, 1.0, 0.0, -1.0, 0.0, -0.0, -1.0, 1.0, -0.0, 0.0, 1.0, -1.0],  # signed zeros at the extremes
    ]
    bits = lambda value, where: (np.float64(value).tobytes(), np.float64(where).tobytes())
    block, report = verify._minima(lambda t: ((t.ratio_at(0), "v"), (-t.ratio_at(0), "-v")), lambda minima, n: (minima, n))
    for v in map(np.array, cases):
        lo, hi = int(np.argmin(v)), int(np.argmax(v))
        want = [bits(v[lo], x[lo]), bits(-v[hi], x[hi])]
        assert int(np.argmin(-v)) == hi
        for ends in ([0, 12], [0, 4, 8, 12], [0, 1, 5, 6, 12], [0, 3, 7, 11, 12], [0, 2, 3, 4, 12]):
            # each block holds its successor's first point
            blocks = [_Values(x[s : e + 1], v[s : e + 1]) for s, e in zip(ends, ends[1:])]
            minima, n = report([block(t) for t in blocks])
            assert n == v.size and [bits(m, w) for m, w, _ in minima] == want
            assert [label for _, _, label in minima] == ["v", "-v"]


class _Values:
    """Stand-in for a block's terms whose ratio is given values."""

    def __init__(self, x, v):
        self.x, self._v = x, v

    def ratio_at(self, a):
        return self._v


class TestFreshGridPerCall:
    def test_each_call_returns_a_new_array(self):
        first = GridSpec(0.1, 0.9, 11, "uniform").points()
        other = GridSpec(0.1, 0.9, 12, "uniform").points()
        assert other.size == 12
        assert GridSpec(0.1, 0.9, 11, "uniform").points() is not first
        np.testing.assert_array_equal(first, np.linspace(0.1, 0.9, 11))

    def test_each_thread_gets_its_own_grid(self):
        specs = [GridSpec(0.1, 0.9, n, "uniform") for n in (11, 12, 13, 14)]
        wrong = []

        def work(spec):
            for _ in range(200):
                if spec.points().size != spec.n:
                    wrong.append(spec.n)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(spec,)) for spec in specs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_float32_bound_gets_its_own_grid(self):
        # the specs compare equal, but numpy keeps a float32 bound's precision
        assert GridSpec(0.5, 1.0, 3, "uniform").points().dtype == np.float64
        assert GridSpec(np.float32(0.5), 1.0, 3, "uniform").points().dtype == np.float32


def test_first_winner_counts_match_stacked_argmax():
    rng = np.random.default_rng(5)
    arrays = [rng.integers(0, 4, 1000).astype(np.float64) for _ in range(4)]  # many ties
    stacked = np.vstack(arrays)
    for wins, arg in ((np.greater, np.argmax), (np.less, np.argmin)):
        expected = np.bincount(arg(stacked, axis=0), minlength=4).tolist()
        assert verify._first_winner_counts(arrays, wins) == expected


def _peak_bytes(run):
    first = run()  # warm-up: one-time first-call allocations are not counted below
    tracemalloc.start()
    try:
        again = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    return peak


# The grid streams in runs and is cut into blocks, so no array of the whole grid is built and a
# check's peak does not grow with n: it is its blocks' temporaries, at most 32 float arrays of
# one block (4 MiB).  The pointwise claims peak at 1.4-1.5 MiB and compare_bounds, whose block keeps
# the sweep's shared terms, at 1.5-1.7 MiB, at both sizes.
# With the grid built whole they peaked at 23 bytes a point (4.6 and 46 MB).
PEAK_BYTES = 32 * 8 * grids._BLOCK
LARGE_N = (200_000, 2_000_000)


@pytest.mark.parametrize("n", LARGE_N)
def test_compare_bounds_peak_memory(n):
    grid = GridSpec(1e-9, 1.0 - 1e-9, n)
    assert _peak_bytes(lambda: verify.compare_bounds(grid)) <= PEAK_BYTES


@pytest.mark.parametrize("n", LARGE_N)
@pytest.mark.parametrize("claim_id", ["classic-lower", "family-bracket", "midregime-floor"])
def test_pointwise_claims_peak_memory(claim_id, n):
    grid = GridSpec(1e-9, 1.0 - 1e-9, n)
    assert _peak_bytes(lambda: run_claims([claim_id], grid=grid)) <= PEAK_BYTES


# Every claim at its registry grid, the default of `verify --claims all`, peaks at 1.7 MiB or less: its
# blocks' temporaries, at most 20 float arrays of one block (2.5 MiB).  Before the aux claims ran on
# _sweep and compare_bounds evaluated its bound table in two halves, aux-sign-regimes peaked at 5.3 MiB,
# aux-slope-limits at 3.8 and sharp-dominance at 3.5.
DEFAULT_PEAK_BYTES = 20 * 8 * grids._BLOCK
# scan-slice builds its whole grid for each of its 50 gammas: 13.7 MiB at 200,000 points, 137 MiB at 2,000,000
SCAN_SLICE_WHOLE_GRID = pytest.mark.xfail(strict=True, reason="Direction 5: scan-slice builds its whole grid")


@pytest.mark.parametrize("claim_id", [c.claim_id for c in verify.CLAIMS])
def test_every_claim_peak_memory_at_its_registry_grid(claim_id):
    assert _peak_bytes(lambda: run_claims([claim_id])) <= DEFAULT_PEAK_BYTES


@pytest.mark.parametrize("n", LARGE_N)
@pytest.mark.parametrize(
    "claim_id",
    [pytest.param(c.claim_id, marks=SCAN_SLICE_WHOLE_GRID) if c.claim_id == "scan-slice" else c.claim_id for c in verify.CLAIMS],
)
def test_every_claim_peak_memory_is_flat_in_n(claim_id, n):
    # a claim added to the registry is covered here without a test of its own; the warm-up runs
    # at the registry grid, so each large grid is evaluated once
    run_claims([claim_id])
    tracemalloc.start()
    try:
        run_claims([claim_id], grid=GridSpec(1e-9, 1.0 - 1e-9, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES


def test_gain_maximizer_peak_memory_at_the_grid_cap():
    # it reads its 100 points from the grid's runs and its gain table one row at a time;
    # it built the whole grid and the whole table before (256 MB RSS at this n)
    grid = GridSpec(1e-9, 1.0 - 1e-9, grids.MAX_GRID_POINTS)
    assert _peak_bytes(lambda: run_claims(["gain-maximizer"], grid=grid)) <= PEAK_BYTES


@pytest.mark.parametrize("overlap", [0, 1])
def test_blocks_of_the_largest_grid_peak_under_1_mb(overlap):
    # runs of at most _BLOCK points and one pending block: 0.82 MB at 10M points, 80 MB whole
    grid = GridSpec(1e-9, 1.0 - 1e-9, grids.MAX_GRID_POINTS)
    assert _peak_bytes(lambda: sum(x.size for x in _blocks(grid, overlap))) <= 1 << 20


def test_ratio_at_within_4_ulp_for_the_regime_claims():
    # the regime claims compare neighbouring ratio values under 4 ulp of each; near both ends
    # of a 200,001-point refined grid the values are the ones a false failure turned on
    terms = _GridTerms(GridSpec(1e-9, 1.0 - 1e-9, 200_001).points())
    idx = np.unique(np.r_[0:150, terms.x.size - 150 : terms.x.size, np.linspace(0, terms.x.size - 1, 150).astype(int)])
    x = terms.x[idx]
    for a in INCREASING_A_VALUES + DECREASING_A_VALUES + INTERIOR_A_VALUES:
        exact = lambda t, am=mp.mpf(a): (am + mp.sqrt(1 + t)) * mp.acos(t) / mp.sqrt(1 - t)
        assert worst_ulp(terms.ratio_at(a)[idx], exact, x) <= 4.0, a
