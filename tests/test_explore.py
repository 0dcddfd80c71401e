import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

import arcbounds as ab
from arcbounds.errors import DomainError, SingularFamilyError
from arcbounds.explore import (
    _OVERFLOW_CHECKED,
    MAX_SCAN_TRIPLES,
    SIGN_THRESHOLD,
    ScanClassification,
    Verdict,
    _classify,
    _log_numerator,
    classify_family,
    generalized_ratio,
    scan_grid,
)
from arcbounds.grids import SCAN_GRID, GridSpec
from conftest import scan_record


class TestGeneralizedRatio:
    def test_reduces_to_family_slice(self):
        for x in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert generalized_ratio(0.5, 0.5, ab.TWO_SQRT2, x) == pytest.approx(
                ab.bound_ratio(ab.TWO_SQRT2, x), rel=1e-14
            )

    def test_reduces_to_arccos(self):
        for x in (0.1, 0.5, 0.9):
            assert generalized_ratio(0.0, 0.0, 0.0, x) == pytest.approx(ab.arccos_stable(x), rel=1e-15)

    def test_frozen_value(self):
        assert generalized_ratio(0.5, 0.5, 0.0, 0.5) == pytest.approx(1.8137993642342179, rel=1e-14)

    def test_singular_scalar(self):
        with pytest.raises(SingularFamilyError):
            generalized_ratio(0.5, 0.5, -math.sqrt(1.5), 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            generalized_ratio(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            generalized_ratio(math.inf, 0.5, 1.0, 0.5)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_array_gives_an_empty_array(self, shape):
        # as bound_ratio and the other array functions do; the parameters are still checked
        out = generalized_ratio(0.5, 0.5, 2.7, np.empty(shape))
        assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
        with pytest.raises(DomainError):
            generalized_ratio(math.nan, 0.5, 2.7, np.empty(shape))

    # F overflows to inf, gives inf * 0 = NaN, or underflows to 0; a numpy
    # RuntimeWarning on the way would fail the test, as pytest turns it into an error
    @pytest.mark.parametrize(
        "alpha, beta, gamma, x",
        [
            (0.5, 1e308, 1.0, 0.5),
            (1e308, 0.5, 1.0, 0.5),
            (-1e6, 1e308, 1.0, 0.5),
            (-60.0, 0.5, 1.0, 0.999999),
            (-60.0, 0.5, 1.0, np.array([0.5, 0.999999])),
        ],
    )
    def test_unrepresentable_value_is_a_domain_error(self, alpha, beta, gamma, x):
        with pytest.raises(DomainError, match="overflow or underflow binary64"):
            generalized_ratio(alpha, beta, gamma, x)


class TestClassifyFamily:
    def test_slice_verdicts(self):
        assert classify_family(0.5, 0.5, 0.0).verdict is Verdict.INCREASING
        assert classify_family(0.5, 0.5, ab.A_STAR).verdict is Verdict.INCREASING
        assert classify_family(0.5, 0.5, 2.5).verdict is Verdict.INCREASING
        assert classify_family(0.5, 0.5, ab.TWO_SQRT2).verdict is Verdict.DECREASING

    def test_plain_arccos_is_decreasing(self):
        assert classify_family(0.0, 0.0, 0.0).verdict is Verdict.DECREASING

    def test_interior_minimum_witnesses(self):
        result = classify_family(0.5, 0.5, 2.7)
        assert result.verdict is Verdict.NON_MONOTONE
        x0 = ab.find_minimum(2.7).x0
        assert result.witness_down < x0 < result.witness_up
        assert result.margin > 1e-12

    def test_undetermined_on_flat_slice(self):
        # two samples so close that the difference hides below the sign
        # threshold
        result = classify_family(0.5, 0.5, 0.0, GridSpec(0.5 - 1e-14, 0.5 + 1e-14, 2, "uniform"))
        assert result.verdict is Verdict.UNDETERMINED
        assert math.isnan(result.evidence_x)

    def test_negative_numerator_family(self):
        # gamma = -3, beta = 0 gives a constant negative numerator, so the
        # family is a negative multiple of arccos: increasing
        result = classify_family(0.0, 0.0, -3.0)
        assert result.verdict is Verdict.INCREASING

    def test_log_space_consistency(self):
        below = classify_family(9.75, 0.5, 1.0)
        above = classify_family(10.25, 0.5, 1.0)
        assert below.verdict is Verdict.INCREASING
        assert above.verdict is Verdict.INCREASING

    def test_log_space_negative_numerator(self):
        below = classify_family(9.0, 0.0, -3.0)
        above = classify_family(12.0, 0.0, -3.0)
        assert below.verdict is above.verdict is Verdict.DECREASING

    def test_large_alpha_no_overflow(self):
        result = classify_family(60.0, 0.5, 1.0)
        assert result.verdict is Verdict.INCREASING

    def test_note_marks_evidence(self):
        result = classify_family(0.5, 0.5, 0.0)
        assert "evidence" in result.note


T = SIGN_THRESHOLD


def _mask_rule(x, dlog):
    """The verdict rule written out with sign masks: (verdict, evidence_x, margin, witness_down, witness_up)."""
    pos, neg = dlog > T, dlog < -T
    i_up, i_down = int(np.argmax(dlog)), int(np.argmin(dlog))
    if pos.any() and neg.any():
        evidence = x[i_up] if np.count_nonzero(pos) < np.count_nonzero(neg) else x[i_down]
        return Verdict.NON_MONOTONE, evidence, min(dlog[i_up], -dlog[i_down]), x[i_down], x[i_up]
    if pos.all():
        return Verdict.INCREASING, x[i_down], dlog[i_down], math.nan, math.nan
    if neg.all():
        return Verdict.DECREASING, x[i_up], -dlog[i_up], math.nan, math.nan
    return Verdict.UNDETERMINED, math.nan, np.max(np.abs(dlog)), math.nan, math.nan


def _classify_differences(gamma, diffs, power=None):
    """The (beta, gamma) stage and _classify on a stand-in grid whose log arccos has the given forward differences.

    With alpha 0 and power 1, gamma = 0 or -2 gives |num| = 1, so the
    differences of log|F| are those of the stand-in's log arccos.
    """
    log_arccos = np.concatenate(([0.0], np.cumsum(diffs)))
    x = np.linspace(0.1, 0.9, log_arccos.size)
    power = np.ones(x.size) if power is None else np.array(power)
    with np.errstate(**_OVERFLOW_CHECKED):
        la, negative = _log_numerator(1.0, gamma, log_arccos, power, np.empty(x.size))
        result = _classify(0.0, 1.0, gamma, x, np.log1p(-x), la, negative, np.empty(x.size), np.empty(x.size - 1))
    return result, x, np.diff(log_arccos)


class TestVerdictRule:
    # the first difference is exact, so each threshold case puts +-T there
    @pytest.mark.parametrize(
        "gamma, diffs, verdict",
        [
            (0.0, [3 * T, 2 * T, 5 * T], Verdict.INCREASING),
            (0.0, [-3 * T, -2 * T, -5 * T], Verdict.DECREASING),
            (0.0, [T, 2 * T], Verdict.UNDETERMINED),
            (0.0, [-T, -2 * T], Verdict.UNDETERMINED),
            (0.0, [0.0, 0.0, 0.0], Verdict.UNDETERMINED),
            (0.0, [-4.0, 0.5 * T], Verdict.UNDETERMINED),
            (0.0, [3 * T, -2 * T, -4 * T], Verdict.NON_MONOTONE),
            (0.0, [-3 * T, 2 * T, 4 * T], Verdict.NON_MONOTONE),
            (0.0, [-2 * T, 3 * T, -4 * T, 5 * T], Verdict.NON_MONOTONE),
            (-2.0, [3 * T, 2 * T, 5 * T], Verdict.DECREASING),
            (-2.0, [-T, -2 * T], Verdict.UNDETERMINED),
            (-2.0, [3 * T, -2 * T, -4 * T], Verdict.NON_MONOTONE),
        ],
    )
    def test_extremes_agree_with_sign_masks(self, gamma, diffs, verdict):
        result, x, dlog = _classify_differences(gamma, diffs)
        assert dlog[0] == diffs[0]
        expected = _mask_rule(x, -dlog if gamma < 0 else dlog)
        got = (result.verdict, result.evidence_x, result.margin, result.witness_down, result.witness_up)
        assert got[0] is expected[0] is verdict
        assert [repr(float(v)) for v in got[1:]] == [repr(float(v)) for v in expected[1:]]

    @pytest.mark.parametrize("diffs", [[-5 * T, math.nan, 5 * T], [2 * T, math.inf], [2 * T, -math.inf]])
    def test_non_finite_difference_is_a_domain_error(self, diffs):
        with pytest.raises(DomainError, match="overflow or underflow"):
            _classify_differences(0.0, diffs)

    # the numerator touches 0 at one end of the grid only, with no strict sign change
    @pytest.mark.parametrize("power", [[0.0, 1.0, 2.0], [-2.0, -1.0, 0.0]])
    def test_numerator_zero_at_an_end_is_singular(self, power):
        with pytest.raises(SingularFamilyError, match="vanishes"):
            _classify_differences(0.0, [T, T], power)


class TestScanGrid:
    def test_slice_row(self):
        results = scan_grid([0.5], [0.5], [0.0, ab.A_STAR, 2.5, ab.TWO_SQRT2])
        verdicts = [r.verdict for r in results]
        assert verdicts == [Verdict.INCREASING, Verdict.INCREASING, Verdict.INCREASING, Verdict.DECREASING]

    def test_row_major_order(self):
        results = scan_grid([0.0, 0.5], [0.0, 0.5], [0.0, 1.0], GridSpec(1e-4, 1.0 - 1e-4, 501, "uniform"))
        triples = [(r.alpha, r.beta, r.gamma) for r in results]
        assert triples == [
            (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.5, 0.0), (0.0, 0.5, 1.0),
            (0.5, 0.0, 0.0), (0.5, 0.0, 1.0), (0.5, 0.5, 0.0), (0.5, 0.5, 1.0),
        ]

    def test_singular_triple_recorded_not_fatal(self):
        gammas = [-1.2, 0.0, 1.0]
        results = scan_grid([0.5], [0.5], gammas, GridSpec(1e-4, 1.0 - 1e-4, 501, "uniform"))
        assert len(results) == 3
        bad = results[0]
        assert bad.verdict is Verdict.ERROR
        assert "vanishes" in bad.error
        assert math.isnan(bad.margin)
        assert all(r.verdict is not Verdict.ERROR for r in results[1:])

    def test_three_cubed_smoke(self):
        results = scan_grid(
            [0.25, 0.5, 1.0],
            [0.0, 0.5, 1.0],
            [-1.2, 0.5, 3.0],
            GridSpec(1e-4, 1.0 - 1e-4, 501, "uniform"),
        )
        assert len(results) == 27
        assert any(r.verdict is Verdict.ERROR for r in results)

    def test_determinism(self):
        g = GridSpec(1e-4, 1.0 - 1e-4, 501, "uniform")
        first = [scan_record(r) for r in scan_grid([0.5], [0.5], [0.0, 2.7], g)]
        second = [scan_record(r) for r in scan_grid([0.5], [0.5], [0.0, 2.7], g)]
        assert first == second

    # on SCAN_GRID log|F| overflows binary64: alpha*log1p(-x) for a huge alpha, (1+x)**beta for a huge beta
    @pytest.mark.parametrize("alpha, beta, gamma", [(5e307, 0.5, 1.0), (1e308, 0.5, 1.0), (0.5, 1e308, 1.0)])
    def test_overflow_or_underflow_is_an_error(self, alpha, beta, gamma):
        [result] = scan_grid([alpha], [beta], [gamma])
        assert result.verdict is Verdict.ERROR
        assert result.error == f"family values overflow or underflow binary64 for alpha={alpha!r}, beta={beta!r}, gamma={gamma!r}"
        with pytest.raises(DomainError, match="overflow or underflow"):
            classify_family(alpha, beta, gamma)


def _per_triple_scan(alphas, betas, gammas, grid):
    """classify_family on each triple: the records scan_grid must write, and the class of each error raised (else None)."""
    rows, classes = [], []
    for alpha, beta, gamma in itertools.product(alphas, betas, gammas):
        try:
            rows.append(classify_family(alpha, beta, gamma, grid))
            classes.append(None)
        except DomainError as exc:
            rows.append(ScanClassification(alpha, beta, gamma, Verdict.ERROR, math.nan, math.nan, error=str(exc)))
            classes.append(type(exc))
    return rows, classes


def test_scan_equals_per_triple_classification():
    # every branch: alpha small, large and very negative, beta = 0, singular gammas
    # (-1.2 for beta = 1/2, -1 for beta = 0), non-finite parameters, NonMonotone
    # at (1/2, 1/2, 2.7), and Undetermined on a two-point grid
    alphas = [0.5, 12.0, -60.0, math.nan, math.inf]
    betas = [0.0, 0.5, -math.inf]
    gammas = [-3.0, -1.2, -1.0, 0.0, 2.7, math.nan]
    grids = [GridSpec(1e-4, 1.0 - 1e-4, 501, "uniform"), GridSpec(0.5 - 1e-14, 0.5 + 1e-14, 2, "uniform")]
    seen = set()
    for grid in grids:
        scanned = scan_grid(alphas, betas, gammas, grid)
        reference, classes = _per_triple_scan(alphas, betas, gammas, grid)
        # JSON text compares NaN fields as equal and every float bit for bit
        assert json.dumps([scan_record(r) for r in scanned]) == json.dumps([scan_record(r) for r in reference])
        # a singular numerator raises SingularFamilyError, and every other error a plain DomainError
        assert {SingularFamilyError, DomainError} <= set(classes)
        for row, cls in zip(reference, classes):
            if row.error:
                assert cls is (SingularFamilyError if "vanishes" in row.error else DomainError), row
        # beta = 0 makes gamma = -1 singular on every grid, and a NaN alpha beside it raises the alpha message
        [row] = [r for r in reference if math.isnan(r.alpha) and (r.beta, r.gamma) == (0.0, -1.0)]
        assert row.error == "alpha must be finite"
        seen |= {r.verdict for r in scanned}
        seen |= {r.error.split(" ")[0] for r in scanned if r.error}
    assert seen >= set(Verdict) | {"alpha", "beta", "gamma", "family"}


def _reference_triple(alpha, beta, gamma, x):
    """One triple in the direct expression, apart from any scan loop: the record scan_grid must write."""
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(v):
            return ScanClassification(alpha, beta, gamma, Verdict.ERROR, math.nan, math.nan, error=f"{name} must be finite")
    num = gamma + np.exp(beta * np.log1p(x))
    if num.min() <= 0.0 <= num.max():
        error = f"family numerator gamma + (1+x)^beta vanishes on the sampled interval for beta={beta!r}, gamma={gamma!r}"
        return ScanClassification(alpha, beta, gamma, Verdict.ERROR, math.nan, math.nan, error=error)
    dlog = np.diff((np.log(np.abs(num)) + np.log(np.arccos(x))) - alpha * np.log1p(-x))
    if num[0] < 0.0:
        dlog = -dlog
    if not np.isfinite(dlog).all():
        error = f"family values overflow or underflow binary64 for alpha={alpha!r}, beta={beta!r}, gamma={gamma!r}"
        return ScanClassification(alpha, beta, gamma, Verdict.ERROR, math.nan, math.nan, error=error)
    verdict, evidence_x, margin, down, up = _mask_rule(x, dlog)
    return ScanClassification(alpha, beta, gamma, verdict, float(evidence_x), float(margin), float(down), float(up))


@pytest.mark.parametrize(
    "grid", [GridSpec(1e-4, 1.0 - 1e-4, 501, "uniform"), GridSpec(0.5 - 1e-14, 0.5 + 1e-14, 2, "uniform"), SCAN_GRID]
)
def test_scan_equals_the_direct_expression_bit_for_bit(grid):
    # six alphas for every (beta, gamma): F < 0 for gamma = -9 and -3; singular numerators at gamma = -1 for
    # beta = 0 on every grid and at gamma = -1.2 for beta = 1/2 on the wide ones, with a NaN alpha beside them;
    # overflow at alpha = 1e308; non-finite beta and gamma
    alphas = [0.5, 12.0, -60.0, math.nan, 1e308, 2.0]
    betas = [0.0, 0.5, 2.0, math.inf]
    gammas = [-9.0, -3.0, -1.2, -1.0, 0.0, 2.7, math.nan]
    x = grid.points()
    with np.errstate(**_OVERFLOW_CHECKED):
        reference = [_reference_triple(*triple, x) for triple in itertools.product(alphas, betas, gammas)]
    scanned = scan_grid(alphas, betas, gammas, grid)
    # JSON text compares NaN fields as equal and every float bit for bit
    assert json.dumps([scan_record(r) for r in scanned]) == json.dumps([scan_record(r) for r in reference])
    # the alpha check comes before the (beta, gamma) pair's singular numerator
    errors = [r.error.split(" ")[0] for r in scanned if r.beta == 0.0 and r.gamma == -1.0]
    assert errors == ["family", "family", "family", "alpha", "family", "family"]
    assert {r.verdict for r in scanned} >= {Verdict.ERROR, Verdict.INCREASING if grid.n > 2 else Verdict.UNDETERMINED}


def _scan_peak_bytes(alphas, betas, gammas, grid):
    scan_grid(alphas, betas, gammas, grid)  # warm-up: one-time first-call allocations are not counted below
    tracemalloc.start()
    try:
        scan_grid(alphas, betas, gammas, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_does_not_grow_with_the_box():
    # a cached array per alpha, per beta or per (beta, gamma) pair would add 8n bytes or more
    grid = GridSpec(1e-6, 1.0 - 1e-6, 200_001, "uniform")
    alphas = [float(v) for v in np.linspace(-0.9, 14.0, 12)]
    betas = [0.5, 1.0, 2.0]
    gammas = [-3.0, -1.2, -0.5, 0.0, 1.0, 2.5, 2.7, 4.0]
    box = _scan_peak_bytes(alphas, betas, gammas, grid)
    one = _scan_peak_bytes(alphas[:1], betas[:1], gammas[:1], grid)
    assert box - one < 8 * grid.n
    # eight grid-sized arrays (x, log arccos, log1p(x), log1p(-x), the power, the numerator and two buffers);
    # a ninth, such as arccos kept beside its log, would pass 9
    assert one < 8.5 * 8 * grid.n


def _mp_direction(alpha, beta, gamma, x0, x1):
    """+1 where F rises from x0 to x1, -1 where it falls: sign(F) times the sign of the log|F| difference, at 50 digits."""
    with mp.workdps(50):

        def signed_log(x):
            xm = mp.mpf(x)
            num = gamma + (1 + xm) ** beta
            return mp.sign(num), mp.log(abs(num)) + mp.log(mp.acos(xm)) - alpha * mp.log(1 - xm)

        (s0, l0), (s1, l1) = signed_log(x0), signed_log(x1)
        assert s0 == s1 != 0
        return int(s0 * mp.sign(l1 - l0))


def test_log_space_verdicts_against_mpmath():
    # below alpha of about -53, (1-x)**(-alpha) underflows binary64 on SCAN_GRID although log|F| does not;
    # F < 0 for gamma = -9 and for (beta, gamma) = (-1, -1), and at gamma = -1 the numerator starts near beta*x,
    # so F first rises and then falls.  At gamma = 1e308, F overflows and log|F| does not.
    results = scan_grid([-54.0, -60.0, -80.0, -1e6], [-1.0, 0.5, 1.0, 3.0], [-9.0, -1.0, 0.0, 1.0, 2.7])
    results += scan_grid([5.0], [0.5], [1e308])
    assert {r.verdict for r in results} == {Verdict.INCREASING, Verdict.DECREASING, Verdict.NON_MONOTONE}
    assert results[-1].verdict is Verdict.INCREASING
    assert next(r for r in results if (r.alpha, r.beta, r.gamma) == (-1e6, 0.5, 1.0)).verdict is Verdict.DECREASING
    xs = SCAN_GRID.points()
    direction = {Verdict.INCREASING: 1, Verdict.DECREASING: -1}
    for r in results:
        if r.verdict is Verdict.NON_MONOTONE:
            assert r.gamma == -1.0 and r.evidence_x in (r.witness_up, r.witness_down)
            checks = [(r.witness_up, 1), (r.witness_down, -1)]
        else:
            # the weakest difference and both ends of the grid
            checks = [(x, direction[r.verdict]) for x in (r.evidence_x, xs[0], xs[-2])]
        for x, sign in checks:
            i = int(np.searchsorted(xs, x))
            assert xs[i] == x
            assert _mp_direction(r.alpha, r.beta, r.gamma, xs[i], xs[i + 1]) == sign, r


@pytest.mark.parametrize("alpha, beside", [(9.75, 10.25), (-52.0, -54.0)])
def test_verdicts_agree_on_either_side_of_alpha(alpha, beside):
    # -53 is about where (1-x)**(-alpha) underflows binary64 on SCAN_GRID
    betas = [-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0]
    gammas = [-3.0, -1.0, -0.5, 0.0, 1.0, 2.5, 2.7, 4.0]
    verdicts = [r.verdict for r in scan_grid([alpha], betas, gammas)]
    assert verdicts == [r.verdict for r in scan_grid([beside], betas, gammas)]
    assert len(set(verdicts)) >= 3


def test_scan_box_cap():
    # one past the cap, as 101 x 9901 x 1; rejected before the grid is sampled
    with pytest.raises(DomainError, match="MAX_SCAN_TRIPLES"):
        scan_grid([0.5] * 101, [0.5] * 9901, [1.0], GridSpec(0.1, 0.9, 2))
    assert 101 * 9901 == MAX_SCAN_TRIPLES + 1


def test_verdict_stability_under_density_doubling():
    coarse = GridSpec(1e-6, 1.0 - 1e-6, 10_001, "uniform")
    fine = GridSpec(1e-6, 1.0 - 1e-6, 20_001, "uniform")
    for gamma in (-0.5, 0.0, 1.0, 2.5, 2.7, 2.75, 3.0, 4.0):
        v1 = classify_family(0.5, 0.5, gamma, coarse).verdict
        v2 = classify_family(0.5, 0.5, gamma, fine).verdict
        if v1 in (Verdict.INCREASING, Verdict.DECREASING, Verdict.NON_MONOTONE):
            assert v2 is v1, gamma


@pytest.mark.parametrize("grid", [GridSpec(-3.0, 0.5, 8, "uniform"), GridSpec(0.0, 1.0, 8, "uniform"), GridSpec(0.5, 1.5, 8, "uniform")])
def test_grid_outside_the_unit_interval_raises_before_any_term(monkeypatch, grid):
    # the grid is checked once, so log1p(-x) and log never see x = -1 or x = 1 and no warning is printed
    counts = {"log1p": 0}
    log1p = np.log1p

    def counting_log1p(*args, **kwargs):
        counts["log1p"] += 1
        return log1p(*args, **kwargs)

    monkeypatch.setattr(np, "log1p", counting_log1p)
    with pytest.raises(DomainError, match=r"open interval \(0, 1\)"):
        classify_family(0.0, 1.0, 5.0, grid)
    with pytest.raises(DomainError, match=r"open interval \(0, 1\)"):
        scan_grid([0.0], [1.0], [5.0, -1.0], grid)
    assert counts == {"log1p": 0}
