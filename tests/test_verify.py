import csv
import io
import json
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import arcbounds as ab
from arcbounds import verify
from arcbounds.cli import _emit
from arcbounds.errors import DomainError
from arcbounds.grids import GridSpec, _blocks, _GridTerms, _ulps
from arcbounds.verify import (
    CLAIMS,
    REPORT_HEADER,
    _margin_block,
    _monotonicity_check,
    _pointwise_report,
    compare_bounds,
    run_claims,
)

SMALL = GridSpec(1e-9, 1.0 - 1e-9, 20_001, "refined")
SMALL_UNIFORM = GridSpec(1e-9, 1.0 - 1e-9, 20_001, "uniform")


def whole_array(check, a, grid):
    """``check(a)``'s report with the whole grid as its one block."""
    block, report = check(a)
    return report([block(_GridTerms(grid.points()))])


def write_reports(reports, fmt: str) -> str:
    """Reports as the CLI writes them: one piece of REPORT_HEADER rows through ``cli._emit``."""
    buf = io.StringIO()
    _emit(REPORT_HEADER, [list(map(astuple, reports))], fmt, buf)
    return buf.getvalue()


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.5, 0.5, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 10, "log")

    def test_size_cap(self):
        from arcbounds.grids import MAX_GRID_POINTS

        assert MAX_GRID_POINTS >= 10 * ab.DEFAULT_GRID.n
        GridSpec(0.0, 1.0, MAX_GRID_POINTS)  # constructing allocates no points
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            GridSpec(0.0, 1.0, MAX_GRID_POINTS + 1)

    def test_uniform_points(self):
        pts = GridSpec(0.1, 0.9, 5, "uniform").points()
        assert np.allclose(pts, np.linspace(0.1, 0.9, 5))

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 5e-324, 3), (0.0, 1e-322, 1_000), (-5e-324, 5e-324, 40_000)])
    def test_uniform_points_with_a_step_that_underflows_to_zero(self, lo, hi, n):
        # np.linspace divides by n - 1 before it scales by the width there; the grid takes the same path
        assert GridSpec(lo, hi, n, "uniform").points().tobytes() == np.linspace(lo, hi, n).tobytes()

    def test_refined_points_shape(self):
        g = GridSpec(1e-9, 1.0 - 1e-9, 10_000, "refined")
        pts = g.points()
        assert pts[0] == g.lo and pts[-1] == g.hi
        assert np.all(np.diff(pts) > 0.0)
        near_edges = np.count_nonzero((pts <= g.lo + 1e-3) | (pts >= g.hi - 1e-3))
        assert near_edges >= g.n // 2 - 2

    def test_tiny_refined_falls_back_to_uniform(self):
        pts = GridSpec(0.0, 1.0, 4, "refined").points()
        assert np.allclose(pts, np.linspace(0.0, 1.0, 4))

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
    def test_non_finite_bounds_or_width_rejected(self, lo, hi):
        with pytest.raises(ab.DomainError, match="finite"):
            GridSpec(lo, hi, 10)

    def test_refined_grid_too_narrow_for_its_edge_zones_rejected(self):
        with pytest.raises(ab.DomainError, match="too narrow"):
            GridSpec(0.0, 1e-315, 100)
        assert GridSpec(0.0, 1e-315, 100, "uniform").points().size == 100
        assert GridSpec(0.0, 1e-315, 10).points().size == 10  # too few points for edge zones

    def test_points_is_a_new_array_each_call(self):
        g = GridSpec(1e-9, 1.0 - 1e-9, 1_000)
        first = g.points()
        first[0] = 0.5
        assert g.points()[0] == g.lo


class TestVerifyBounds:
    def test_uniform_passes(self):
        [rep] = run_claims(["family-bracket"], grid=GridSpec(1e-9, 1.0 - 1e-9, 10_000, "uniform"), a=0.0)
        assert rep.passed
        assert rep.worst_margin > 0.0
        assert rep.samples == 10_000

    def test_reversed_orientation(self):
        [rep] = run_claims(["family-bracket"], grid=SMALL, a=ab.TWO_SQRT2)
        assert rep.passed
        assert "Decreasing" in rep.notes

    def test_degenerate_two_point_grid(self):
        [rep] = run_claims(["family-bracket"], grid=GridSpec(0.5 - 1e-6, 0.5 + 1e-6, 2, "uniform"), a=0.0)
        assert rep.passed
        assert rep.samples == 2

    def test_worst_x_inside_grid(self):
        g = GridSpec(0.1, 0.9, 1_000, "uniform")
        [rep] = run_claims(["family-bracket"], grid=g, a=1.0)
        assert g.lo <= rep.worst_x <= g.hi


@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=8))
@example([(0.0, -0.0), (5e-324, -5e-324), (math.inf, -math.inf), (math.nan, 1.0), (-1.7976931348623157e308, 2.2250738585072014e-308), (math.nan, -math.nan)])
@example([(2.0**1023, 1.0), (1.7976931348623157e308, -(2.0**1023))])  # the top binade, whose largest double has an infinite spacing
@example([(1.0, -3.5), (2.2250738585072014e-308, 2.0**1022), (-math.nextafter(2.0**1023, 0.0), 0.1)])  # normal, from both ends of the bit path
@example([(math.inf, float(np.uint64(0x7FF8_0000_0000_0001).view(np.float64)))])  # numpy's scalar + and its ufunc keep different NaNs
def test_pair_tol_is_4_ulp_of_each_side(pairs):
    # the sum of the two sides' 4 ulp equals 4 times the sum of their spacings, bit for bit, on
    # arrays and on the 0-d arrays and Python floats of the scalar slacks
    a, b = np.array(pairs).T
    with np.errstate(over="ignore"):  # the spacing of the largest double is inf in both forms
        got, want = verify._pair_tol(a, b), 4.0 * (np.spacing(np.abs(a)) + np.spacing(np.abs(b)))
        zero_d = [verify._pair_tol(np.array(u), np.array(v)) for u, v in zip(a, b)]
        scalars = [verify._pair_tol(float(u), float(v)) for u, v in zip(a, b)]
    assert got.tobytes() == want.tobytes()
    assert np.array(zero_d).tobytes() == np.array(scalars).tobytes() == want.tobytes()


@pytest.mark.parametrize("spacing", ["uniform", "refined"])
@pytest.mark.parametrize(
    "lo, hi, n",
    [
        (5e-324, 1.0 - 2.0**-53, 2), (5e-324, 1.0 - 2.0**-53, 200_000), (1e-9, 1.0 - 1e-9, 3), (1e-9, 1.0 - 1e-9, 16_385),
        (5e-324, 1e-300, 100), (0.25, 0.75, 1000), (1.0 - 1e-6, 1.0 - 2.0**-53, 1000),
    ],
)
def test_slope_limits_tolerances_equal_the_grid_maxima(lo, hi, n, spacing):
    # aux-slope-limits' tolerances are 4 ulp of the grid's largest threshold and 1 + |gap|, which need
    # no pass over the grid: each maximum stays in one binade, on grids out to either end of (0, 1)
    tops = [(np.max(ab.slope_threshold(x)), np.max(np.abs(ab.threshold_gap(x)) + 1.0)) for x in _blocks(GridSpec(lo, hi, n, spacing))]
    assert tuple(float(_ulps(np.max(top))) for top in zip(*tops)) == verify._SLOPE_LIMITS_TOL


class TestVerifyMonotonicity:
    def test_increasing(self):
        [rep] = run_claims(["regime-increasing"], grid=SMALL, a=1.0)
        assert rep.passed

    def test_decreasing(self):
        [rep] = run_claims(["regime-decreasing"], grid=SMALL, a=3.0)
        assert rep.passed

    def test_interior_minimum_sign_change(self):
        # the bare sign-pattern report: the registry runs it inside the regime-interior-minimum composite
        rep = whole_array(_monotonicity_check, 2.7, GridSpec(1e-9, 1.0 - 1e-9, 100_000, "refined"))
        assert rep.passed
        # the sign-change cell must straddle the located minimum
        x0 = ab.find_minimum(2.7).x0
        assert abs(rep.worst_x - x0) < 1e-3

    def test_wrong_pattern_would_fail(self):
        # an increasing parameter checked on points only left of any
        # minimum still passes; a middle-regime one on a slice missing the
        # minimum has no sign change and must fail
        rep = whole_array(_monotonicity_check, 2.7, GridSpec(0.5, 0.9, 5_000, "uniform"))
        assert not rep.passed


class TestVerifyLimits:
    def test_classical_parameter(self):
        [rep] = run_claims(["endpoint-constants"], grid=SMALL, a=ab.TWO_SQRT2)
        assert rep.passed
        assert "6.01367926" in rep.notes and "regime=Decreasing" in rep.notes

    def test_zero_parameter(self):
        [rep] = run_claims(["endpoint-constants"], grid=SMALL, a=0.0)
        assert rep.passed
        assert "1.57079633, 2" in rep.notes

    def test_threshold_parameter(self):
        [rep] = run_claims(["endpoint-constants"], grid=SMALL, a=ab.A_STAR)
        assert rep.passed

    def test_interior_parameter(self):
        [rep] = run_claims(["endpoint-constants"], grid=SMALL, a=2.75)
        assert rep.passed


class TestCompareBounds:
    def test_dominance_and_crossover(self):
        result = compare_bounds(SMALL)
        assert all(r.passed for r in result.reports)
        assert len(result.crossovers) == 1
        assert result.crossovers[0] == pytest.approx(0.34090601619136765, abs=1e-9)

    def test_argmax_counts(self):
        result = compare_bounds(SMALL)
        assert result.lower_argmax_counts["one-plus-sqrt3"] == 0
        assert result.upper_argmin_counts["best"] == result.samples
        assert sum(result.lower_argmax_counts.values()) == result.samples

    def test_noninclusion_witnesses_in_notes(self):
        result = compare_bounds(SMALL)
        rep = {r.claim_id: r for r in result.reports}["sharp-noninclusion"]
        assert "lambda wins" in rep.notes and "pi^2 bound wins" in rep.notes


class TestRegistry:
    def test_ids_unique_and_listed(self):
        ids = [c.claim_id for c in CLAIMS]
        assert len(ids) == len(set(ids))
        assert "family-bracket" in ids and "sharp-dominance" in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(DomainError, match="unknown claim id: 'no-such-claim'"):
            run_claims(["no-such-claim"])

    def test_empty_id_list_rejected(self):
        # a run that checks nothing must not read as verified
        for ids in ([], (), iter([])):
            with pytest.raises(DomainError, match="names no claim"):
                run_claims(ids)

    def test_parameter_filter(self):
        reports = run_claims(["family-bracket"], grid=SMALL, a=0.0)
        assert len(reports) == 1
        assert reports[0].claim_id == "family-bracket[a=0]"
        assert reports[0].passed

    def test_alias_for_classic_pair(self):
        reports = run_claims(["classic-upper"], grid=SMALL)
        assert {r.claim_id for r in reports} == {"classic-lower", "classic-upper"}

    def test_determinism(self):
        ids = ["classic-lower", "sharp-dominance"]
        first = write_reports(run_claims(ids, grid=SMALL), "json")
        second = write_reports(run_claims(ids, grid=SMALL), "json")
        assert first == second

    def test_refined_finds_margins_at_least_as_small_as_uniform(self):
        ids = ["classic-lower", "family-bracket", "sharp-dominance", "regime-increasing", "regime-decreasing"]
        uniform = {r.claim_id: r.worst_margin for r in run_claims(ids, grid=SMALL_UNIFORM)}
        refined = {r.claim_id: r.worst_margin for r in run_claims(ids, grid=SMALL)}
        assert uniform.keys() == refined.keys()
        for cid in uniform:
            assert refined[cid] <= uniform[cid], cid

    def test_override_grid_keeps_uniform_spacing_where_needed(self):
        # scan-slice and aux-quadratic-roots resolve their checks only on
        # uniform grids; a refined override must not make them fail
        reports = run_claims(["scan-slice", "aux-quadratic-roots"], grid=GridSpec(1e-9, 1.0 - 1e-9, 100_000, "refined"))
        assert [r.passed for r in reports] == [True, True]

    def test_descriptions_present(self):
        for claim in CLAIMS:
            assert claim.description

    def test_regime_is_the_one_regime_of_the_values(self):
        # a row whose values span several regimes, or that has none, accepts every a
        regimes = {c.claim_id: c.regime for c in CLAIMS}
        assert regimes == {
            **{c.claim_id: None for c in CLAIMS},
            "regime-increasing": ab.Regime.INCREASING,
            "regime-decreasing": ab.Regime.DECREASING,
            "regime-interior-minimum": ab.Regime.INTERIOR_MINIMUM,
            "minimum-floor": ab.Regime.INTERIOR_MINIMUM,
        }

    @pytest.mark.parametrize("spacing", ["refined", "uniform"])
    @pytest.mark.parametrize("claim", CLAIMS, ids=[c.claim_id for c in CLAIMS])
    def test_each_claim_samples_one_grid_by_the_override_rule(self, monkeypatch, claim, spacing):
        # a uniform registry grid keeps its spacing and takes only the override's n, and the
        # brute-force grid of regime-interior-minimum and minimum-floor takes none of it.
        # GridSpec._runs builds every grid, for points() and for the blocks of a sweep alike.
        sampled, runs = set(), GridSpec._runs

        def recording_runs(grid):
            sampled.add(grid)
            return runs(grid)

        monkeypatch.setattr(GridSpec, "_runs", recording_runs)
        override = GridSpec(1e-9, 1.0 - 1e-9, 2001, spacing)
        run_claims([claim.claim_id], grid=override)
        brute = GridSpec(1e-9, 1.0 - 1e-9, verify.BRUTE_FORCE_N, "uniform")
        if claim.claim_id == "minimum-floor":
            assert (claim.grid, sampled) == (None, {brute})
        elif claim.claim_id == "regime-interior-minimum":
            assert sampled == {override, brute}
        elif claim.claim_id in ("aux-quadratic-roots", "scan-slice"):
            assert claim.grid.spacing == "uniform" and sampled == {replace(claim.grid, n=2001)}
        else:
            assert sampled == {override}


def test_composite_reports_the_tightest_sample_of_an_array_check(monkeypatch):
    # a dip in the low root between two interior samples makes "low root strictly increasing"
    # the failing sub-check; the report must point at that sample, not at the grid's first point
    grid = GridSpec(1e-9, 1.0 - 1e-9, 2001, "uniform")
    k = 1234
    roots = verify.slope_quadratic_roots

    def dipped_roots(x):
        lo, hi = roots(x)
        if np.ndim(x) and np.size(x) == grid.n:
            lo = lo.copy()
            lo[k + 1 :] -= 1.0
        return lo, hi

    monkeypatch.setattr(verify, "slope_quadratic_roots", dipped_roots)
    [rep] = run_claims(["aux-quadratic-roots"], grid=grid)
    assert not rep.passed and rep.notes.endswith("tightest: low root strictly increasing")
    assert rep.worst_margin < -0.9
    assert rep.worst_x == grid.points()[k]


class TestSerialization:
    def test_json_round_trip(self):
        reports = run_claims(["classic-lower"], grid=SMALL)
        parsed = json.loads(write_reports(reports, "json"))
        assert len(parsed) == len(reports)
        for obj, rep in zip(parsed, reports):
            assert obj["claim_id"] == rep.claim_id
            assert obj["passed"] == rep.passed
            assert obj["samples"] == rep.samples
            assert obj["worst_margin"] == rep.worst_margin
            assert obj["worst_x"] == rep.worst_x

    def test_csv_round_trip(self):
        reports = run_claims(["classic-lower", "gain-maximizer"], grid=SMALL)
        text = write_reports(reports, "csv")
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(reports)
        for row, rep in zip(rows, reports):
            assert row["claim_id"] == rep.claim_id
            assert float(row["worst_margin"]) == rep.worst_margin
            assert float(row["worst_x"]) == rep.worst_x
            assert row["passed"] == str(rep.passed).lower()

    def test_csv_quotes_only_when_needed(self):
        reports = [
            ab.VerificationReport("plain", True, 2, 0.5, 0.25, "no comma"),
            ab.VerificationReport("quoted", False, 2, -0.5, 0.75, 'a, "b"'),
        ]
        assert write_reports(reports, "csv").splitlines()[1:] == [
            "plain,true,2,0.5,0.25,no comma",
            'quoted,false,2,-0.5,0.75,"a, ""b"""',
        ]

    def test_csv_uses_lf_only(self):
        text = write_reports(run_claims(["classic-lower"], grid=SMALL), "csv")
        assert "\r" not in text
        assert text.endswith("\n")


def test_failing_claim_reports_reproducible_point():
    # force a failure by checking a bound template that is not valid: the
    # floor constant with a just below the decreasing regime exceeds the
    # interior minimum bracket at some x when a is too small for the
    # bracket... use a synthetic check instead: the classical lower bound
    # claimed for the wrong orientation
    x = SMALL.points()
    acx = ab.arccos_stable(x)
    lower, upper = ab.bound_arrays(0.0, x)
    margins = upper - acx - 0.2  # deliberately broken claim
    rep = _pointwise_report("synthetic-broken", [_margin_block(x, margins, 4.0 * np.spacing(acx))])
    assert not rep.passed
    i = int(np.argmin(margins))
    assert rep.worst_x == float(x[i])
    # single-point re-evaluation reproduces the reported margin
    xm = rep.worst_x
    assert ab.bound_arrays(0.0, xm)[1] - ab.arccos_stable(xm) - 0.2 == pytest.approx(rep.worst_margin, rel=1e-12)


def test_nan_margin_fails_the_report():
    x = np.linspace(0.1, 0.9, 5)
    margins = np.array([1.0, 1.0, np.nan, 1.0, 1.0])
    rep = _pointwise_report("synthetic-nan", [_margin_block(x, margins, np.zeros_like(x))])
    assert not rep.passed
    assert "1 samples beyond tolerance" in rep.notes


def test_infinite_margin_fails_the_report():
    x = np.linspace(0.1, 0.9, 5)
    margins = np.array([1.0, 1.0, np.inf, 1.0, 1.0])
    rep = _pointwise_report("synthetic-inf", [_margin_block(x, margins, np.zeros_like(x))])
    assert not rep.passed
    assert "1 samples beyond tolerance" in rep.notes
