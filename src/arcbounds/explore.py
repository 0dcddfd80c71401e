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

Cost model.  A scan evaluates its transcendentals once per grid (the
points, log arccos(x) and log1p(x)), once per alpha (alpha*log1p(-x)) and
once per (alpha, beta) pair ((1+x)**beta).  Each gamma then costs one log
and arithmetic on those arrays, so only one array per factor is alive
whatever the box shape, plus a min and a max for the singularity test and
an argmin and an argmax for the verdict.  classify_family runs the same
per-gamma code on the terms of its single triple.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, SingularFamilyError
from .family import _check_open_unit, _scalar_like, arccos_ratio
from .grids import SCAN_GRID, GridSpec, _GridTerms

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

    def to_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict.value}


def _check_finite(alpha: float, beta: float, gamma: float) -> None:
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite")


def _checked_numerator(beta: float, gamma: float, power: np.ndarray) -> np.ndarray:
    """gamma + (1+x)**beta from power = (1+x)**beta; raises where it vanishes on x."""
    num = gamma + power
    # without a strict sign change, min <= 0 <= max leaves a zero at min or max
    if num.min() <= 0.0 <= num.max():
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
    _check_finite(alpha, beta, gamma)
    flat = np.atleast_1d(arr)
    with np.errstate(**_OVERFLOW_CHECKED):
        num = _checked_numerator(beta, gamma, np.exp(beta * np.log1p(flat))).reshape(np.shape(arr))
        value = num * arccos_ratio(arr) * (1.0 - arr) ** (0.5 - alpha)
    # the numerator is nonzero, so a NaN, infinite or zero |F| is binary64 overflow or underflow
    size = np.abs(value)
    if not (0.0 < size.min() and size.max() < math.inf):
        raise _unrepresentable(alpha, beta, gamma)
    return _scalar_like(x, value)


def _alpha_factor(terms: _GridTerms, alpha: float) -> np.ndarray:
    """alpha*log1p(-x), the log of (1-x)**alpha; _classify rejects a non-finite alpha."""
    return alpha * np.log1p(-terms.x)


def _power(terms: _GridTerms, beta: float) -> np.ndarray:
    """(1+x)**beta; _classify rejects a non-finite beta."""
    return np.exp(beta * terms.log1p_x)


def _classify(alpha: float, beta: float, gamma: float, terms: _GridTerms, factor, power) -> ScanClassification:
    """Classify one triple from its grid's terms, alpha's factor and beta's power.

    Only arithmetic and one log run here, in the order of a direct
    evaluation of log|F| = (log|num| + log arccos) - factor.
    """
    _check_finite(alpha, beta, gamma)
    num = _checked_numerator(beta, gamma, power)
    x = terms.x
    dlog = np.diff(np.log(np.abs(num)) + terms.log_arccos - factor)
    # num is one-signed, and where F < 0 its monotonicity is reversed
    if num[0] < 0.0:
        dlog = -dlog
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


def classify_family(alpha: float, beta: float, gamma: float, grid: GridSpec = SCAN_GRID) -> ScanClassification:
    """Classify monotonicity of one triple from grid forward differences.

    Increasing/Decreasing require every difference beyond the sign
    threshold with one sign; NonMonotone requires witnesses of both signs;
    everything else is Undetermined.  Prefer uniform grids: a refined grid
    makes near-endpoint differences legitimately sub-threshold, which
    degrades monotone verdicts to Undetermined.  Raises DomainError when
    log|F| or its differences overflow binary64 on the grid, and, before
    any evaluation, when the grid leaves (0, 1).
    """
    terms = _GridTerms(_check_open_unit(grid.points()))
    with np.errstate(**_OVERFLOW_CHECKED):
        return _classify(alpha, beta, gamma, terms, _alpha_factor(terms, alpha), _power(terms, beta))


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
    terms = _GridTerms(_check_open_unit(grid.points()))
    results: list[ScanClassification] = []
    with np.errstate(**_OVERFLOW_CHECKED):
        for alpha in alphas:
            factor = _alpha_factor(terms, alpha)
            for beta in betas:
                power = _power(terms, beta)
                for gamma in gammas:
                    try:
                        results.append(_classify(alpha, beta, gamma, terms, factor, power))
                    except DomainError as exc:
                        results.append(ScanClassification(alpha, beta, gamma, Verdict.ERROR, math.nan, math.nan, error=str(exc)))
    return results
