"""Numerical scanner for the generalized three-parameter family.

Classifies the monotonicity of

    (gamma + (1+x)**beta) / (1-x)**alpha * arccos(x)

on (0, 1) by the signs of forward differences over a sampling grid.  No
analytic answer is attempted: a verdict is numerical evidence, not proof,
and every serialized record says so.  Differences are compared on a
relative scale against SIGN_THRESHOLD; anything smaller is treated as
indistinguishable from zero, with Undetermined as the honest fallback.

The (alpha, beta, gamma) = (1/2, 1/2, a) slice reproduces the bound
family, so scanner verdicts there must agree with the regime map.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, SingularFamilyError
from .family import _check_open_unit, _scalar_like, arccos_ratio, arccos_stable
from .grids import SCAN_GRID, GridSpec

__all__ = [
    "SIGN_THRESHOLD",
    "LOG_SPACE_ALPHA",
    "Verdict",
    "ScanClassification",
    "generalized_ratio",
    "classify_family",
    "scan_grid",
]

# Relative size a forward difference must exceed to count as a sign.
SIGN_THRESHOLD = 1e-12
# Above this exponent the (1-x)**(-alpha) factor can overflow binary64 near
# x = 1; classification then uses differences of log F, which preserves
# monotonicity because F is one-signed on a non-singular family.
LOG_SPACE_ALPHA = 10.0

EVIDENCE_NOTE = "numerical evidence only, not a proof"


class Verdict(enum.Enum):
    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    NON_MONOTONE = "NonMonotone"
    UNDETERMINED = "Undetermined"
    ERROR = "Error"


@dataclass(frozen=True)
class ScanClassification:
    """Monotonicity verdict for one (alpha, beta, gamma) triple.

    For NonMonotone the two witnesses are the strongest relative forward
    differences of each sign, and ``evidence_x`` is the strongest sample
    of the minority sign.  For monotone verdicts ``evidence_x`` marks the
    weakest difference and ``margin`` its relative size; for Undetermined
    ``margin`` is the largest (sub-threshold) relative difference seen.
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


def _checked_numerator(alpha: float, beta: float, gamma: float, x: np.ndarray) -> np.ndarray:
    """gamma + (1+x)**beta, for a finite triple whose numerator does not vanish on x."""
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite")
    num = gamma + np.exp(beta * np.log1p(x))
    if np.any(num == 0.0) or (np.min(num) < 0.0 < np.max(num)):
        raise SingularFamilyError(
            f"family numerator gamma + (1+x)^beta vanishes on the sampled interval for beta={beta!r}, gamma={gamma!r}"
        )
    return num


def _family_value(alpha: float, num: np.ndarray, x: np.ndarray) -> np.ndarray:
    return num * arccos_ratio(x) * (1.0 - x) ** (0.5 - alpha)


def generalized_ratio(alpha: float, beta: float, gamma: float, x):
    """Evaluate the generalized family; x in (0, 1).

    Raises SingularFamilyError when the numerator vanishes at a sampled
    point.  May overflow to inf for large alpha near x = 1; the classifier
    switches to log space there instead.
    """
    arr = _check_open_unit(x)
    num = _checked_numerator(alpha, beta, gamma, np.atleast_1d(arr)).reshape(np.shape(arr))
    return _scalar_like(x, _family_value(alpha, num, arr))


def _relative_diffs(alpha: float, beta: float, gamma: float, x: np.ndarray) -> np.ndarray:
    num = _checked_numerator(alpha, beta, gamma, x)
    if alpha > LOG_SPACE_ALPHA:
        # differences of log|F|; when F < 0 its monotonicity is reversed
        logv = np.log(np.abs(num)) + np.log(arccos_stable(x)) - alpha * np.log1p(-x)
        rel = np.diff(logv)
        return -rel if num[0] < 0.0 else rel
    v = _family_value(alpha, num, x)
    return np.diff(v) / np.maximum(np.abs(v[:-1]), np.abs(v[1:]))


def classify_family(alpha: float, beta: float, gamma: float, grid: GridSpec = SCAN_GRID) -> ScanClassification:
    """Classify monotonicity of one triple from grid forward differences.

    Increasing/Decreasing require every difference beyond the sign
    threshold with one sign; NonMonotone requires witnesses of both signs;
    everything else is Undetermined.  Prefer uniform grids: a refined grid
    makes near-endpoint differences legitimately sub-threshold, which
    degrades monotone verdicts to Undetermined.
    """
    x = grid.points()
    rel = _relative_diffs(alpha, beta, gamma, x)
    pos = rel > SIGN_THRESHOLD
    neg = rel < -SIGN_THRESHOLD
    common = dict(alpha=float(alpha), beta=float(beta), gamma=float(gamma))
    if pos.any() and neg.any():
        i_up = int(np.argmax(rel))
        i_down = int(np.argmin(rel))
        up_count = int(np.count_nonzero(pos))
        down_count = int(np.count_nonzero(neg))
        minority_is_up = up_count < down_count
        evidence = float(x[i_up]) if minority_is_up else float(x[i_down])
        return ScanClassification(
            verdict=Verdict.NON_MONOTONE,
            evidence_x=evidence,
            margin=float(min(rel[i_up], -rel[i_down])),
            witness_down=float(x[i_down]),
            witness_up=float(x[i_up]),
            **common,
        )
    if pos.all():
        i = int(np.argmin(rel))
        return ScanClassification(verdict=Verdict.INCREASING, evidence_x=float(x[i]), margin=float(rel[i]), **common)
    if neg.all():
        i = int(np.argmax(rel))
        return ScanClassification(verdict=Verdict.DECREASING, evidence_x=float(x[i]), margin=float(-rel[i]), **common)
    return ScanClassification(
        verdict=Verdict.UNDETERMINED,
        evidence_x=math.nan,
        margin=float(np.max(np.abs(rel))),
        **common,
    )


def scan_grid(
    alphas,
    betas,
    gammas,
    grid: GridSpec = SCAN_GRID,
) -> list[ScanClassification]:
    """Cartesian-product scan, row-major over (alpha, beta, gamma).

    Per-triple domain and singularity errors are recorded in that triple's
    entry (verdict Error) and never abort the scan.
    """
    results: list[ScanClassification] = []
    for alpha, beta, gamma in itertools.product(alphas, betas, gammas):
        try:
            results.append(classify_family(float(alpha), float(beta), float(gamma), grid))
        except DomainError as exc:
            results.append(
                ScanClassification(
                    alpha=float(alpha),
                    beta=float(beta),
                    gamma=float(gamma),
                    verdict=Verdict.ERROR,
                    evidence_x=math.nan,
                    margin=math.nan,
                    error=str(exc),
                )
            )
    return results
