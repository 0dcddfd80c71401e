"""Numerical scanner for the generalized three-parameter family.

Classifies the monotonicity of

    (gamma + (1+x)**beta) / (1-x)**alpha * arccos(x)

on (0, 1) by the signs of forward differences of log|F| over a sampling
grid, reversed where F < 0.  No analytic answer is attempted: a verdict is
numerical evidence, not proof, and every serialized record says so.  A log
difference is the relative difference of F to first order; it is compared
against SIGN_THRESHOLD, and anything smaller is treated as
indistinguishable from zero, with Undetermined as the honest fallback.
The smallest and the largest difference alone decide the verdict, its
witnesses and its margin.

The (alpha, beta, gamma) = (1/2, 1/2, a) slice reproduces the bound
family, so scanner verdicts there must agree with the regime map.

Cost model.  One loop, _scan, runs beta -> gamma -> alpha; classify_family
is its one-triple case.  Its transcendentals run once per grid (the
points, log arccos(x) in arccos's own array, log1p(x) and log1p(-x)) and
once per beta ((1+x)**beta).  Each (beta, gamma) pair then costs one log,
with the numerator's singularity test (a min and a max) and la =
log|num| + log arccos(x) computed in the numerator's own array.  Each
triple costs arithmetic, alpha*log1p(-x), la minus that and the forward
differences, in two buffers allocated once per scan, plus an argmin and
an argmax.  So eight grid-sized arrays are alive, whatever the box.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularFamilyError
from .family import _check_open_unit, _scalar_like, arccos_ratio, arccos_stable
from .grids import SCAN_GRID, GridSpec

__all__ = [
    "SIGN_THRESHOLD",
    "MAX_SCAN_TRIPLES",
    "Verdict",
    "ScanClassification",
    "generalized_ratio",
    "classify_family",
    "scan_grid",
]

# Size a forward difference of log|F| must exceed to count as a sign.
SIGN_THRESHOLD = 1e-12
# Largest (alpha, beta, gamma) box a scan accepts: a 100 x 100 x 100 box.
MAX_SCAN_TRIPLES = 1_000_000

EVIDENCE_NOTE = "numerical evidence only, not a proof"
# Floating-point states an evaluation may hit and then reports as a DomainError itself.
_OVERFLOW_CHECKED = dict(over="ignore", under="ignore", invalid="ignore")


class Verdict(enum.Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    NON_MONOTONE = "NonMonotone"
    UNDETERMINED = "Undetermined"
    ERROR = "Error"


@dataclass(frozen=True)
class ScanClassification:
    """Monotonicity verdict for one (alpha, beta, gamma) triple.

    Differences are forward differences of log|F|, negated where F < 0.
    For NonMonotone the two witnesses are the strongest differences of
    each sign, and ``evidence_x`` is the strongest sample of the minority
    sign.  For monotone verdicts ``evidence_x`` marks the weakest
    difference and ``margin`` its size; for Undetermined ``margin`` is the
    largest |difference|, above the threshold when only some differences
    pass it.
    """

    alpha: float
    beta: float
    gamma: float
    verdict: Verdict
    evidence_x: float
    margin: float
    witness_down: float = math.nan
    witness_up: float = math.nan
    error: str = ""
    note: str = field(default=EVIDENCE_NOTE)


def _check_finite(**params: float) -> None:
    for name, v in params.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite")


def _checked_numerator(beta: float, gamma: float, power: np.ndarray, out=None) -> np.ndarray:
    """gamma + (1+x)**beta from power = (1+x)**beta, into ``out`` if given; raises where it vanishes on x."""
    num = np.add(gamma, power, out=out)
    # without a strict sign change, min <= 0 <= max leaves a zero at min or max; an empty x has neither
    if num.min(initial=math.inf) <= 0.0 <= num.max(initial=-math.inf):
        raise SingularFamilyError(
            f"family numerator gamma + (1+x)^beta vanishes on the sampled interval for beta={beta!r}, gamma={gamma!r}"
        )
    return num


def _unrepresentable(alpha: float, beta: float, gamma: float) -> DomainError:
    return DomainError(f"family values overflow or underflow binary64 for alpha={alpha!r}, beta={beta!r}, gamma={gamma!r}")


def generalized_ratio(alpha: float, beta: float, gamma: float, x):
    """Evaluate the generalized family; x in (0, 1).

    Raises SingularFamilyError when the numerator vanishes at a sampled
    point, and DomainError, without a numpy warning, where binary64 cannot
    hold the value: it overflows, or underflows to 0, as for large |alpha|
    near x = 1.  The classifier works with log|F| and so still classifies
    such a family.
    """
    arr = _check_open_unit(x)
    _check_finite(alpha=alpha, beta=beta, gamma=gamma)
    flat = np.atleast_1d(arr)
    with np.errstate(**_OVERFLOW_CHECKED):
        num = _checked_numerator(beta, gamma, np.exp(beta * np.log1p(flat))).reshape(np.shape(arr))
        value = num * arccos_ratio(arr) * (1.0 - arr) ** (0.5 - alpha)
    # the numerator is nonzero, so a NaN, infinite or zero |F| is binary64 overflow or underflow
    size = np.abs(value)
    if not (0.0 < size.min(initial=math.inf) and size.max(initial=0.0) < math.inf):
        raise _unrepresentable(alpha, beta, gamma)
    return _scalar_like(x, value)


def _log_numerator(beta: float, gamma: float, log_arccos, power, out) -> tuple[np.ndarray, bool]:
    """The (beta, gamma) stage: la = log|num| + log arccos(x), and whether num < 0.

    num = gamma + (1+x)**beta from beta's power, computed in ``out``, which
    then holds la.  Raises DomainError for a non-finite beta or gamma, then
    SingularFamilyError where num vanishes.
    """
    _check_finite(beta=beta, gamma=gamma)
    num = _checked_numerator(beta, gamma, power, out)
    # num is one-signed, and where F < 0 its monotonicity is reversed
    negative = bool(num[0] < 0.0)
    la = np.log(np.abs(num, out=num), out=num)
    la += log_arccos
    return la, negative


def _classify(alpha: float, beta: float, gamma: float, x, log1p_mx, la, negative: bool, f, dlog) -> ScanClassification:
    """The per-triple stage: classify one triple on points ``x`` from its (beta, gamma) stage.

    f (the grid's size) and dlog (one less) are work buffers.  The
    arithmetic keeps the order of a direct evaluation of the differences of
    log|F| = (log|num| + log arccos) - alpha*log1p(-x), so the bits are the
    same.  The caller has checked alpha.
    """
    np.multiply(alpha, log1p_mx, out=f)
    np.subtract(la, f, out=f)
    np.subtract(f[1:], f[:-1], out=dlog)
    if negative:
        np.negative(dlog, out=dlog)
    # argmin and argmax return the first NaN, so both extremes are finite or log|F| is not
    i_down, i_up = int(np.argmin(dlog)), int(np.argmax(dlog))
    low, high = float(dlog[i_down]), float(dlog[i_up])
    if not (math.isfinite(low) and math.isfinite(high)):
        raise _unrepresentable(alpha, beta, gamma)
    common = dict(alpha=float(alpha), beta=float(beta), gamma=float(gamma))
    if high > SIGN_THRESHOLD and low < -SIGN_THRESHOLD:
        minority_is_up = np.count_nonzero(dlog > SIGN_THRESHOLD) < np.count_nonzero(dlog < -SIGN_THRESHOLD)
        return ScanClassification(
            verdict=Verdict.NON_MONOTONE,
            evidence_x=float(x[i_up] if minority_is_up else x[i_down]),
            margin=min(high, -low),
            witness_down=float(x[i_down]),
            witness_up=float(x[i_up]),
            **common,
        )
    if low > SIGN_THRESHOLD:
        return ScanClassification(verdict=Verdict.INCREASING, evidence_x=float(x[i_down]), margin=low, **common)
    if high < -SIGN_THRESHOLD:
        return ScanClassification(verdict=Verdict.DECREASING, evidence_x=float(x[i_up]), margin=-high, **common)
    return ScanClassification(verdict=Verdict.UNDETERMINED, evidence_x=math.nan, margin=max(abs(low), abs(high)), **common)


def _scan(alphas, betas, gammas, grid: GridSpec, failed) -> list[ScanClassification]:
    """The one loop over triples, beta -> gamma -> alpha, giving records row-major over (alpha, beta, gamma).

    The grid is checked against (0, 1) before any term.  A triple's first
    error, of alpha, beta or gamma, a singular numerator and then overflow,
    goes to ``failed(alpha, beta, gamma, exc)``, which returns its record.
    """
    x = _check_open_unit(grid.points())
    with np.errstate(**_OVERFLOW_CHECKED):
        log_arccos = arccos_stable(x)
        np.log(log_arccos, out=log_arccos)
        log1p_x, log1p_mx = np.log1p(x), np.log1p(-x)
        power, num, f = (np.empty_like(x) for _ in range(3))
        dlog = np.empty(x.size - 1)
        results: list[ScanClassification | None] = [None] * (len(alphas) * len(betas) * len(gammas))
        for j, beta in enumerate(betas):
            # (1+x)**beta; _log_numerator rejects a non-finite beta
            np.exp(np.multiply(beta, log1p_x, out=power), out=power)
            for k, gamma in enumerate(gammas):
                try:
                    la, negative = _log_numerator(beta, gamma, log_arccos, power, num)
                    failure = None
                except DomainError as exc:
                    failure = exc
                for i, alpha in enumerate(alphas):
                    error = failure
                    try:
                        _check_finite(alpha=alpha)
                        if error is None:
                            result = _classify(alpha, beta, gamma, x, log1p_mx, la, negative, f, dlog)
                    except DomainError as exc:
                        error = exc
                    results[(i * len(betas) + j) * len(gammas) + k] = result if error is None else failed(alpha, beta, gamma, error)
    return results


def classify_family(alpha: float, beta: float, gamma: float, grid: GridSpec = SCAN_GRID) -> ScanClassification:
    """Classify monotonicity of one triple from grid forward differences.

    Increasing/Decreasing require every difference beyond the sign
    threshold with one sign; NonMonotone requires witnesses of both signs;
    everything else is Undetermined.  Prefer uniform grids: a refined grid
    makes near-endpoint differences legitimately sub-threshold, which
    degrades monotone verdicts to Undetermined.  This is scan_grid's loop on
    one triple, which raises the error a scan would record: DomainError,
    before any evaluation, when the grid leaves (0, 1), and when log|F| or
    its differences overflow binary64 on the grid.
    """
    [result] = _scan([alpha], [beta], [gamma], grid, _raise)
    return result


def _raise(alpha: float, beta: float, gamma: float, exc: DomainError) -> ScanClassification:
    raise exc


def _failed(alpha: float, beta: float, gamma: float, exc: DomainError) -> ScanClassification:
    return ScanClassification(alpha, beta, gamma, Verdict.ERROR, math.nan, math.nan, error=str(exc))


def _check_box(*counts: int) -> None:
    if math.prod(counts) > MAX_SCAN_TRIPLES:
        box = " x ".join(map(str, counts))
        raise DomainError(f"scan box {box} holds more than MAX_SCAN_TRIPLES = {MAX_SCAN_TRIPLES} triples")


def scan_grid(
    alphas,
    betas,
    gammas,
    grid: GridSpec = SCAN_GRID,
) -> list[ScanClassification]:
    """Cartesian-product scan, row-major over (alpha, beta, gamma).

    Per-triple domain, singularity and overflow errors are recorded in that
    triple's entry (verdict Error) and never abort the scan.  A box of more
    than MAX_SCAN_TRIPLES triples raises DomainError before the grid is
    sampled, and a grid that leaves (0, 1) before any triple.
    """
    alphas, betas, gammas = ([float(v) for v in axis] for axis in (alphas, betas, gammas))
    _check_box(len(alphas), len(betas), len(gammas))
    return _scan(alphas, betas, gammas, grid, _failed)
