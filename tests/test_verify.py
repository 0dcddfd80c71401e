import csv
import io
import json
import math

import numpy as np
import pytest

import arcbounds as ab
from arcbounds.grids import GridSpec
from arcbounds.verify import (
    CLAIMS,
    claim_ids,
    compare_bounds,
    reports_to_csv,
    reports_to_json,
    run_claims,
    verify_bounds,
    verify_limits_and_sharpness,
    verify_monotonicity,
)

SMALL = GridSpec(1e-9, 1.0 - 1e-9, 20_001, "refined")
SMALL_UNIFORM = GridSpec(1e-9, 1.0 - 1e-9, 20_001, "uniform")


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
        rep = verify_bounds(0.0, GridSpec(1e-9, 1.0 - 1e-9, 10_000, "uniform"))
        assert rep.passed
        assert rep.worst_margin > 0.0
        assert rep.samples == 10_000

    def test_reversed_orientation(self):
        rep = verify_bounds(ab.TWO_SQRT2, SMALL)
        assert rep.passed
        assert "Decreasing" in rep.notes

    def test_degenerate_two_point_grid(self):
        rep = verify_bounds(0.0, GridSpec(0.5 - 1e-6, 0.5 + 1e-6, 2, "uniform"))
        assert rep.passed
        assert rep.samples == 2

    def test_worst_x_inside_grid(self):
        g = GridSpec(0.1, 0.9, 1_000, "uniform")
        rep = verify_bounds(1.0, g)
        assert g.lo <= rep.worst_x <= g.hi


class TestVerifyMonotonicity:
    def test_increasing(self):
        rep = verify_monotonicity(1.0, SMALL)
        assert rep.passed

    def test_decreasing(self):
        rep = verify_monotonicity(3.0, SMALL)
        assert rep.passed

    def test_interior_minimum_sign_change(self):
        rep = verify_monotonicity(2.7, GridSpec(1e-9, 1.0 - 1e-9, 100_000, "refined"))
        assert rep.passed
        # the sign-change cell must straddle the located minimum
        x0 = ab.find_minimum(2.7).x0
        assert abs(rep.worst_x - x0) < 1e-3

    def test_wrong_pattern_would_fail(self):
        # an increasing parameter checked on points only left of any
        # minimum still passes; a middle-regime one on a slice missing the
        # minimum has no sign change and must fail
        rep = verify_monotonicity(2.7, GridSpec(0.5, 0.9, 5_000, "uniform"))
        assert not rep.passed


class TestVerifyLimits:
    def test_classical_parameter(self):
        rep = verify_limits_and_sharpness(ab.TWO_SQRT2, grid=SMALL)
        assert rep.passed
        assert "6.01367926" in rep.notes and "regime=Decreasing" in rep.notes

    def test_zero_parameter(self):
        rep = verify_limits_and_sharpness(0.0, grid=SMALL)
        assert rep.passed
        assert "1.57079633, 2" in rep.notes

    def test_threshold_parameter(self):
        rep = verify_limits_and_sharpness(ab.A_STAR, grid=SMALL)
        assert rep.passed

    def test_interior_parameter(self):
        rep = verify_limits_and_sharpness(2.75, grid=SMALL)
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
        ids = claim_ids()
        assert len(ids) == len(set(ids))
        assert "family-bracket" in ids and "sharp-dominance" in ids

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_claims(["no-such-claim"])

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
        first = reports_to_json(run_claims(ids, grid=SMALL))
        second = reports_to_json(run_claims(ids, grid=SMALL))
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


class TestSerialization:
    def test_json_round_trip(self):
        reports = run_claims(["classic-lower"], grid=SMALL)
        parsed = json.loads(reports_to_json(reports))
        assert len(parsed) == len(reports)
        for obj, rep in zip(parsed, reports):
            assert obj["claim_id"] == rep.claim_id
            assert obj["passed"] == rep.passed
            assert obj["samples"] == rep.samples
            assert obj["worst_margin"] == rep.worst_margin
            assert obj["worst_x"] == rep.worst_x

    def test_csv_round_trip(self):
        reports = run_claims(["classic-lower", "gain-maximizer"], grid=SMALL)
        text = reports_to_csv(reports)
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
        assert reports_to_csv(reports).splitlines()[1:] == [
            "plain,true,2,0.5,0.25,no comma",
            'quoted,false,2,-0.5,0.75,"a, ""b"""',
        ]

    def test_csv_uses_lf_only(self):
        text = reports_to_csv(run_claims(["classic-lower"], grid=SMALL))
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
    from arcbounds.verify import _pointwise_report

    rep = _pointwise_report("synthetic-broken", x, margins, 4.0 * np.spacing(acx))
    assert not rep.passed
    i = int(np.argmin(margins))
    assert rep.worst_x == float(x[i])
    # single-point re-evaluation reproduces the reported margin
    xm = rep.worst_x
    assert ab.bound_arrays(0.0, xm)[1] - ab.arccos_stable(xm) - 0.2 == pytest.approx(rep.worst_margin, rel=1e-12)


def test_nan_margin_fails_the_report():
    x = np.linspace(0.1, 0.9, 5)
    margins = np.array([1.0, 1.0, np.nan, 1.0, 1.0])
    from arcbounds.verify import _pointwise_report

    rep = _pointwise_report("synthetic-nan", x, margins, np.zeros_like(x))
    assert not rep.passed
    assert "1 samples beyond tolerance" in rep.notes


def test_infinite_margin_fails_the_report():
    x = np.linspace(0.1, 0.9, 5)
    margins = np.array([1.0, 1.0, np.inf, 1.0, 1.0])
    from arcbounds.verify import _pointwise_report

    rep = _pointwise_report("synthetic-inf", x, margins, np.zeros_like(x))
    assert not rep.passed
    assert "1 samples beyond tolerance" in rep.notes
