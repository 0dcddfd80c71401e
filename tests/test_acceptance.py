"""Acceptance criteria, one test per criterion (run with -s for the lines).

Criterion 4 checks the regime map at {2.3, 2.5, 2.7, 2.75, 2.8}.  The
threshold 2*(pi-2)/(4-pi) = 2.6598 is recomputed here rather than read
from the package, so a wrong ``A_STAR`` shows up as a failure: at 2.3 and
2.5 the ratio is strictly increasing and has no interior minimum, while
2.7, 2.75 and 2.8 lie inside (A*, 2*sqrt(2)) and have exactly one.  The
regime map is also asserted at both thresholds and at their neighbouring
doubles inside the interval, so a threshold set too low or too high fails.
"""

import importlib.util
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import arcbounds as ab
from arcbounds.cli import main
from arcbounds.errors import RegimeError
from conftest import brute_force_argmin, count_significant_sign_changes, ratio_slope_mp

PI = math.pi
GRID_1M = ab.GridSpec(1e-9, 1.0 - 1e-9, 1_000_000, "refined")
GRID_100K = ab.GridSpec(1e-9, 1.0 - 1e-9, 100_000, "refined")
SEVEN_A = (-0.5, 0.0, 1.0, ab.A_STAR, ab.TWO_SQRT2, 3.0, 5.0)
# regime thresholds from their closed forms, not from the package's constants
A_STAR_REF = 2.0 * (PI - 2.0) / (4.0 - PI)
TWO_SQRT2_REF = 2.0 * math.sqrt(2.0)
CRITERION_4_A = [2.3, 2.5, 2.7, 2.75, 2.8]


def _has_interior_minimum(a: float) -> bool:
    return A_STAR_REF < a < TWO_SQRT2_REF


def _regime_name(a: float) -> str:
    return "interior minimum (A* < a < 2*sqrt2)" if _has_interior_minimum(a) else "increasing (a <= A*)"


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_classic_lower_bound():
    t0 = time.perf_counter()
    x = GRID_1M.points()
    acx = ab.arccos_stable(x)
    margins = acx - 6.0 * np.sqrt(1.0 - x) / (ab.TWO_SQRT2 + np.sqrt(1.0 + x))
    tol = 4.0 * np.spacing(acx)
    elapsed = time.perf_counter() - t0
    # strict positivity wherever binary64 resolves the margin; inside the
    # last 4 ulp toward x = 1 the true margin (~(1-x)**2) is below resolution
    resolvable = x <= 1.0 - 1e-6
    ok = (
        bool(np.all(margins > -tol))
        and bool(np.all(margins[resolvable] > 0.0))
        and elapsed < 5.0
    )
    engine = ab.run_claims(["classic-lower"])
    ok = ok and all(r.passed for r in engine)
    _line("criterion 1", ok, f"classic lower constant 6 on {x.size} refined points in {elapsed:.2f}s")
    assert np.all(margins > -tol)
    assert np.all(margins[resolvable] > 0.0)
    assert elapsed < 5.0
    assert all(r.passed for r in engine)


def test_criterion_2_family_bracket():
    t0 = time.perf_counter()
    reports = [r for a in SEVEN_A for r in ab.run_claims(["family-bracket"], grid=GRID_1M, a=a)]
    floor_margins_ok = True
    x = GRID_1M.points()
    acx = ab.arccos_stable(x)
    tol = 4.0 * np.spacing(acx)
    for a in (2.3, 2.5, 2.7):
        floor = 8.0 * (1.0 - 2.0 / (a * a)) * np.sqrt(1.0 - x) / (a + np.sqrt(1.0 + x))
        floor_margins_ok = floor_margins_ok and bool(np.all(acx - floor > -tol))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and floor_margins_ok and elapsed < 30.0
    _line("criterion 2", ok, f"bracket for 7 parameters + floor for 3 in {elapsed:.1f}s")
    for r in reports:
        assert r.passed, r
    assert floor_margins_ok
    assert elapsed < 30.0


def test_criterion_3_best_possible_constants():
    worst = 0.0
    for a in SEVEN_A:
        at0, at1 = ab.endpoint_limits(a)
        r0 = abs(ab.bound_ratio(a, 1e-12) - at0)
        r1 = abs(ab.bound_ratio(a, 1.0 - 1e-12) - at1)
        worst = max(worst, r0, r1)
    classical0 = abs(ab.bound_ratio(ab.TWO_SQRT2, 1.0 - 1e-12) - 6.0)
    classical1 = abs(ab.bound_ratio(ab.TWO_SQRT2, 1e-12) - (0.5 + math.sqrt(2.0)) * PI)
    ok = worst < 1e-6 and classical0 < 1e-6 and classical1 < 1e-6
    _line("criterion 3", ok, f"endpoint constants for 7 parameters, worst residual {worst:.2e}")
    assert worst < 1e-6
    assert classical0 < 1e-6 and classical1 < 1e-6


def test_criterion_4_monotone_regimes():
    incr = [r for a in (-3.0, 0.0, 2.0, ab.A_STAR) for r in ab.run_claims(["regime-increasing"], grid=GRID_100K, a=a)]
    decr = [r for a in (ab.TWO_SQRT2, 4.0) for r in ab.run_claims(["regime-decreasing"], grid=GRID_100K, a=a)]
    ok = all(r.passed for r in incr + decr)
    _line("criterion 4 (monotone sets)", ok, "increasing at {-3, 0, 2, A*}, decreasing at {2*sqrt2, 4}")
    for r in incr + decr:
        assert r.passed, r


def test_criterion_4_regime_boundaries():
    # each threshold and its binary64 neighbour on the interior side: a package
    # threshold off by even one ulp, in either direction, moves one of the four
    cases = [
        (A_STAR_REF, "Increasing"),
        (math.nextafter(A_STAR_REF, 3.0), "InteriorMinimum"),
        (math.nextafter(TWO_SQRT2_REF, 0.0), "InteriorMinimum"),
        (TWO_SQRT2_REF, "Decreasing"),
    ]
    got = [ab.classify_regime(a).value for a, _ in cases]
    ok = got == [regime for _, regime in cases]
    _line("criterion 4 (regime boundaries)", ok, ", ".join(f"{a!r}: {g}" for (a, _), g in zip(cases, got)))
    assert ok, list(zip(cases, got))


@pytest.mark.parametrize("a", CRITERION_4_A)
def test_criterion_4_interior_sign_change(a):
    x = np.linspace(1e-9, 1.0 - 1e-9, 100_000)
    changes, runs = count_significant_sign_changes(ab.bound_ratio(a, x))
    # independent oracle: sign of the closed-form dR/dx at 30 digits on x = k/1000
    slopes = [ratio_slope_mp(a, k / 1000.0) for k in range(1, 1000)]
    signs = [1 if d > 0 else -1 for d in slopes]
    mp_runs = [s for i, s in enumerate(signs) if i == 0 or s != signs[i - 1]]
    negatives = signs.count(-1)
    expected = (1, [-1, 1]) if _has_interior_minimum(a) else (0, [1])
    oracle_ok = mp_runs == expected[1]
    ok = (changes, runs) == expected and oracle_ok
    _line(
        f"criterion 4 (sign change, a={a})", ok,
        f"{_regime_name(a)}: {changes} significant sign changes, pattern {runs}; "
        f"mpmath dR/dx < 0 at {negatives} of 999 points, min {float(min(slopes)):.3e}",
    )
    assert (changes, runs) == expected, (
        f"a={a} is in the {_regime_name(a)} regime: expected {expected[0]} forward-difference "
        f"sign changes with pattern {expected[1]}, found {changes} (pattern {runs})"
    )
    assert oracle_ok, (
        f"a={a}: mpmath dR/dx is negative at {negatives} of 999 points with sign pattern {mp_runs}, "
        f"which contradicts the {_regime_name(a)} regime"
    )


@pytest.mark.parametrize("a", CRITERION_4_A)
def test_criterion_4_minimum_matches_brute_force(a):
    t0 = time.perf_counter()
    bx, bval = brute_force_argmin(a, 10_000_001)
    elapsed = time.perf_counter() - t0
    if not _has_interior_minimum(a):
        # increasing: nothing to locate, and the grid minimum sits on the left end at pi*(1+a)/2
        with pytest.raises(RegimeError):
            ab.find_minimum(a)
        dv = abs(bval - PI * (1.0 + a) / 2.0)
        ok = bx == 1e-9 and dv < 1e-9
        _line(
            f"criterion 4 (minimum, a={a})", ok,
            f"{_regime_name(a)}: find_minimum raises RegimeError; 1e7-point grid argmin x={bx:.1e}, "
            f"|F - pi(1+a)/2|={dv:.2e} in {elapsed:.1f}s",
        )
        assert bx == 1e-9, f"a={a}: brute-force argmin at x={bx!r}, expected the left grid end 1e-9"
        assert dv < 1e-9
        return
    res = ab.find_minimum(a)
    dx = abs(bx - res.x0)
    dv = abs(bval - res.f_min)
    ok = dx < 1e-6 and dv < 1e-10
    _line(
        f"criterion 4 (minimum, a={a})", ok,
        f"{_regime_name(a)}: |dx0|={dx:.2e}, |dF|={dv:.2e} vs 1e7-point grid in {elapsed:.1f}s",
    )
    assert dx < 1e-6
    assert dv < 1e-10


def test_criterion_5_proof_apparatus_limits():
    checks = []
    for a in (0.0, 1.0, 3.0):
        limit = ((PI - 4.0) * a + 2.0 * (PI - 2.0)) / (2.0 * (a + 2.0))
        checks.append(abs(ab.slope_factor(a, 1e-10) - limit) < 1e-5)
    checks.append(abs(ab.slope_threshold(1e-10) - 8.0 / PI) < 1e-5)
    checks.append(abs(ab.slope_threshold(1.0 - 1e-10) - ab.TWO_SQRT2) < 1e-5)
    lo0, hi0 = ab.slope_quadratic_roots(1e-10)
    lo1, hi1 = ab.slope_quadratic_roots(1.0 - 1e-10)
    checks.append(abs(lo0 - (1.0 - math.sqrt(17.0)) / 2.0) < 1e-6)
    checks.append(abs(hi0 - (1.0 + math.sqrt(17.0)) / 2.0) < 1e-6)
    checks.append(abs(lo1 + math.sqrt(2.0)) < 1e-6)
    checks.append(abs(hi1 - ab.TWO_SQRT2) < 1e-6)
    residuals = []
    for x in np.linspace(0.005, 0.995, 100):
        _, hi = ab.slope_quadratic_roots(float(x))
        residuals.append(abs(ab.slope_quadratic(hi, float(x))))
    checks.append(max(residuals) < 1e-10)
    ok = all(checks)
    _line("criterion 5", ok, f"limits and root residuals (worst root residual {max(residuals):.2e})")
    assert all(checks)


def test_criterion_6_sharp_dominance_and_crossover():
    result = ab.compare_bounds(GRID_1M)
    by_id = {r.claim_id: r for r in result.reports}
    ok = all(r.passed for r in result.reports) and len(result.crossovers) >= 1
    crossover = result.crossovers[0] if result.crossovers else math.nan
    located = abs(crossover - 0.34090601619136765) < 1e-9
    d = lambda t: ab.lambda_lower(t) - ab.a_star_pair(t)[0]
    flips = d(crossover - 1e-8) < 0.0 < d(crossover + 1e-8)
    ok = ok and located and flips
    _line(
        "criterion 6", ok,
        f"dominance margins {by_id['sharp-lower-dominance'].worst_margin:.1e}/"
        f"{by_id['sharp-upper-dominance'].worst_margin:.1e}, crossover {crossover:.12f}",
    )
    for r in result.reports:
        assert r.passed, r
    assert located
    assert flips


def test_criterion_7_gain_maximizer():
    xs = ab.GridSpec(1e-9, 1.0 - 1e-9, 100, "refined").points()
    avals = np.linspace(ab.A_STAR, ab.TWO_SQRT2, 10_002)[1:-1]
    gains = ab.lower_gain(avals[None, :], xs[:, None])
    attained = ab.lower_gain(ab.lower_gain_argmax(xs), xs)
    worst = float(np.min(attained - np.max(gains, axis=1)))
    endpoint_dev = abs(ab.lower_gain_argmax(1e-12) - ab.ONE_PLUS_SQRT3)
    tol = 8.0 * float(np.max(np.spacing(np.abs(attained))))
    ok = worst > -tol and endpoint_dev < 1e-8
    _line("criterion 7", ok, f"optimality margin {worst:.1e} over 100 x times 1e4 a, endpoint dev {endpoint_dev:.1e}")
    assert worst > -tol
    assert endpoint_dev < 1e-8


def test_criterion_8_slice_consistency():
    base = list(np.linspace(-0.9, 4.0, 46))
    stress = [ab.A_STAR - 2e-3, ab.A_STAR + 2e-3, ab.TWO_SQRT2 - 2e-3, ab.TWO_SQRT2 + 2e-3]
    gammas = sorted(base + stress)
    assert len(gammas) == 50
    assert min(abs(g - t) for g in gammas for t in (ab.A_STAR, ab.TWO_SQRT2)) >= 1e-3
    mapping = {
        ab.Regime.INCREASING: ab.Verdict.INCREASING,
        ab.Regime.DECREASING: ab.Verdict.DECREASING,
        ab.Regime.INTERIOR_MINIMUM: ab.Verdict.NON_MONOTONE,
    }
    mismatches = []
    for gamma in gammas:
        verdict = ab.classify_family(0.5, 0.5, gamma).verdict
        if verdict is not mapping[ab.classify_regime(gamma)]:
            mismatches.append((gamma, verdict))
    ok = not mismatches
    _line("criterion 8", ok, f"50 gamma samples, {len(mismatches)} disagreements")
    assert not mismatches, mismatches


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """One `verify --claims all --format json` at the default grids: its exit code, its reports and its seconds."""
    out = tmp_path_factory.mktemp("verify") / "reports.json"
    t0 = time.perf_counter()
    code = main(["verify", "--claims", "all", "--format", "json", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    return code, json.loads(out.read_text(encoding="utf-8")), elapsed


def test_criterion_9_cli_verify_all(verify_all):
    code, reports, elapsed = verify_all
    ok = code == 0 and all(r["passed"] for r in reports) and elapsed < 120.0
    _line("criterion 9", ok, f"verify --claims all: exit {code}, {len(reports)} reports in {elapsed:.1f}s")
    assert code == 0
    assert all(r["passed"] for r in reports)
    assert elapsed < 120.0


def _perfbench(name: str):
    """A module of the benchmark in perfbench/, loaded from its file, without perfbench on sys.path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A renamed claim would show in the benchmark only as failed certify operations or timers that read 0.
def test_registry_ids_match_the_benchmark_tracer():
    assert [c.claim_id for c in ab.CLAIMS] == list(_perfbench("tracer").CLAIM_IDS)


def test_report_ids_match_the_benchmark_certify_oracle(verify_all):
    assert [r["claim_id"] for r in verify_all[1]] == list(_perfbench("workloads").CERTIFY_CLAIM_IDS)
