"""Shared grid terms: the same bits as a direct evaluation, each term evaluated once.

A verification sweep evaluates the terms of its grid that depend on x alone
(the points, arccos, the square roots, the arccos ratio) once and shares
them across its shape parameters.  These tests recompute the reports one
shape parameter at a time with the family's public functions on
``grid.points()``, count how often the grid and arccos are evaluated, and
bound the memory of ``compare_bounds``.
"""

import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import worst_ulp
from mpmath import mp

import arcbounds as ab
from arcbounds import analysis, verify
from arcbounds.grids import GridSpec, _GridTerms
from arcbounds.verify import (
    BRACKET_A_VALUES,
    BRUTE_FORCE_N,
    DECREASING_A_VALUES,
    FLOOR_A_VALUES,
    INCREASING_A_VALUES,
    INTERIOR_A_VALUES,
    _pointwise_report,
    run_claims,
)

GRID = GridSpec(1e-9, 1.0 - 1e-9, 20_001, "refined")


def _bits(report):
    """A report's identity and figures, floats as exact hex."""
    return (report.claim_id, report.passed, report.samples, report.worst_margin.hex(), report.worst_x.hex())


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
        _pointwise_report("classic-lower", x, acx - lower, tol),
        _pointwise_report("classic-upper", x, upper - acx, tol),
    ]
    for a in BRACKET_A_VALUES:
        lower, upper = ab.bound_arrays(a, x)
        expected.append(_pointwise_report(f"family-bracket[a={a:.17g}]", x, np.minimum(acx - lower, upper - acx), tol))
    for a in FLOOR_A_VALUES:
        floor_lower = 8 * (1 - 2 / (a * a)) * (np.sqrt(1.0 - x) / (a + np.sqrt(1.0 + x)))
        expected.append(_pointwise_report(f"midregime-floor[a={a:.17g}]", x, acx - floor_lower, tol))
    for regime, sign, values in (("Increasing", 1.0, INCREASING_A_VALUES), ("Decreasing", -1.0, DECREASING_A_VALUES)):
        for a in values:
            v = ab.bound_ratio(a, x)
            d_tol = 4.0 * (np.spacing(np.abs(v[:-1])) + np.spacing(np.abs(v[1:])))
            expected.append(_pointwise_report(f"regime-{regime}[a={a:.17g}]", x[:-1], sign * np.diff(v), d_tol))

    ids = ["classic-lower", "family-bracket", "midregime-floor", "regime-increasing", "regime-decreasing"]
    got = run_claims(ids, grid=GRID)
    assert [_bits(r) for r in got] == [_bits(r) for r in expected]
    assert all(r.passed for r in got)


def test_composite_reports_equal_direct_evaluation():
    got = run_claims(["endpoint-constants", "regime-interior-minimum"], grid=GRID)
    expected = [verify._limits_report(a, _DirectTerms(GRID)) for a in BRACKET_A_VALUES]
    expected += [verify._interior_report(a, _DirectTerms(GRID)) for a in INTERIOR_A_VALUES]
    assert [_bits(r) + (r.notes,) for r in got] == [_bits(r) + (r.notes,) for r in expected]


def test_fresh_terms_equal_the_sweep_reports():
    # each report from a fresh _GridTerms equals the one from the sweep's shared terms
    sweep = run_claims(["family-bracket", "midregime-floor", "endpoint-constants", "regime-increasing"], grid=GRID)
    direct = [verify._bounds_report(a, _GridTerms(GRID)) for a in BRACKET_A_VALUES]
    direct += [verify._floor_report(a, _GridTerms(GRID)) for a in FLOOR_A_VALUES]
    direct += [verify._limits_report(a, _GridTerms(GRID)) for a in BRACKET_A_VALUES]
    direct += [verify._monotonicity_report(a, _GridTerms(GRID)) for a in INCREASING_A_VALUES]
    assert sweep == direct


def test_minimum_floor_batch_equals_per_parameter_argmins(monkeypatch):
    calls = Counter()
    ratio = analysis.arccos_ratio

    def counting_ratio(x):
        calls["ratio"] += 1
        return ratio(x)

    monkeypatch.setattr(analysis, "arccos_ratio", counting_ratio)
    batched = run_claims(["minimum-floor"])
    # one arccos ratio per chunk for all 20 parameters, not one per parameter
    assert calls["ratio"] == math.ceil(BRUTE_FORCE_N / analysis._ARGMIN_CHUNK)
    monkeypatch.setattr(verify, "_grid_argmins", lambda values, n: [ab.grid_argmin(a, n) for a in values])
    single = run_claims(["minimum-floor"])
    assert [_bits(r) + (r.notes,) for r in batched] == [_bits(r) + (r.notes,) for r in single]
    assert batched[0].passed and batched[0].samples == 20 * BRUTE_FORCE_N


def test_batched_argmin_equals_single_calls_and_direct_numpy(monkeypatch):
    values = [2.66, 2.7, 2.75, 2.8, 2.828]
    n = 20_001
    batch = analysis._grid_argmins(values, n)
    assert batch == [ab.grid_argmin(a, n) for a in values]
    monkeypatch.setattr(analysis, "_ARGMIN_CHUNK", 7)
    assert analysis._grid_argmins(values, n) == batch
    x = np.linspace(1e-9, 1.0 - 1e-9, n)
    for a, (bx, bval) in zip(values, batch):
        v = ab.bound_ratio(a, x)
        i = int(np.argmin(v))
        assert (bx, bval) == (float(x[i]), float(v[i]))


def test_batched_argmin_checks_every_parameter():
    with pytest.raises(ab.DomainError):
        analysis._grid_argmins([2.7, math.nan], 101)
    with pytest.raises(ValueError):
        analysis._grid_argmins([2.7], 1)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts of GridSpec.points calls and of np.arccos evaluations."""
    counts = Counter()
    points, arccos = GridSpec.points, np.arccos

    def counting_points(self):
        counts["points"] += 1
        return points(self)

    def counting_arccos(*args, **kwargs):
        counts["arccos"] += 1
        return arccos(*args, **kwargs)

    monkeypatch.setattr(GridSpec, "points", counting_points)
    monkeypatch.setattr(np, "arccos", counting_arccos)
    return counts


@pytest.mark.parametrize(
    "claim_id, values",
    [
        ("family-bracket", BRACKET_A_VALUES),
        ("midregime-floor", FLOOR_A_VALUES),
        ("regime-increasing", INCREASING_A_VALUES),
        ("regime-decreasing", DECREASING_A_VALUES),
    ],
)
def test_sweep_takes_its_grid_and_arccos_once(evaluations, claim_id, values):
    reports = run_claims([claim_id], grid=GridSpec(1e-9, 1.0 - 1e-9, 2001))
    assert len(reports) == len(values) > 1
    assert evaluations == {"points": 1, "arccos": 1}


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


def test_compare_bounds_peak_memory_per_point():
    n = 200_000
    grid = GridSpec(1e-9, 1.0 - 1e-9, n)
    first = verify.compare_bounds(grid)  # warm-up: one-time first-call allocations are not counted below
    tracemalloc.start()
    try:
        again = verify.compare_bounds(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    # 136 bytes a point with the stacked argmax/argmin and five full-array tolerances; the count
    # includes the 8-byte-a-point grid, which compare_bounds builds on each call
    assert peak / n <= 115.0


def test_ratio_at_within_4_ulp_for_the_regime_claims():
    # the regime claims compare neighbouring ratio values under 4 ulp of each; near both ends
    # of a 200,001-point refined grid the values are the ones a false failure turned on
    terms = _GridTerms(GridSpec(1e-9, 1.0 - 1e-9, 200_001))
    idx = np.unique(np.r_[0:150, terms.x.size - 150 : terms.x.size, np.linspace(0, terms.x.size - 1, 150).astype(int)])
    x = terms.x[idx]
    for a in INCREASING_A_VALUES + DECREASING_A_VALUES + INTERIOR_A_VALUES:
        exact = lambda t, am=mp.mpf(a): (am + mp.sqrt(1 + t)) * mp.acos(t) / mp.sqrt(1 - t)
        assert worst_ulp(terms.ratio_at(a)[idx], exact, x) <= 4.0, a
