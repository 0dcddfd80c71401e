"""Seeded inputs and correctness oracles for the four benchmark workloads.

Each workload turns ``(seed, job index)`` into a job spec for ``child.py``
and checks the job's output.  ``check`` returns ``(attempted, failed)``
counted in the workload's own operations; a job that crashed or exited
non-zero fails every operation it attempted.  The oracles are
independent of the package: regime thresholds are recomputed here and
arccos comes from mpmath at 60 digits.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from collections import Counter

A_STAR = 2.0 * (math.pi - 2.0) / (4.0 - math.pi)
TWO_SQRT2 = 2.0 * math.sqrt(2.0)
MP_DIGITS = 60

# The CLI's report of `arcbounds verify --claims all` at default grids.
CERTIFY_CLAIM_IDS = (
    "classic-lower",
    "classic-upper",
    "family-bracket[a=-0.5]",
    "family-bracket[a=0]",
    "family-bracket[a=1]",
    "family-bracket[a=2.6597923663254872]",
    "family-bracket[a=2.8284271247461903]",
    "family-bracket[a=3]",
    "family-bracket[a=5]",
    "midregime-floor[a=2.2999999999999998]",
    "midregime-floor[a=2.5]",
    "midregime-floor[a=2.7000000000000002]",
    "midregime-floor[a=2.75]",
    "midregime-floor[a=2.7999999999999998]",
    "endpoint-constants[a=-0.5]",
    "endpoint-constants[a=0]",
    "endpoint-constants[a=1]",
    "endpoint-constants[a=2.6597923663254872]",
    "endpoint-constants[a=2.8284271247461903]",
    "endpoint-constants[a=3]",
    "endpoint-constants[a=5]",
    "regime-Increasing[a=-3]",
    "regime-Increasing[a=0]",
    "regime-Increasing[a=2]",
    "regime-Increasing[a=2.6597923663254872]",
    "regime-Decreasing[a=2.8284271247461903]",
    "regime-Decreasing[a=4]",
    "regime-InteriorMinimum[a=2.7000000000000002]",
    "regime-InteriorMinimum[a=2.75]",
    "regime-InteriorMinimum[a=2.7999999999999998]",
    "minimum-floor",
    "aux-slope-limits",
    "aux-quadratic-roots",
    "aux-sign-regimes",
    "sharp-lower-dominance",
    "sharp-upper-dominance",
    "sharp-noninclusion",
    "gain-maximizer",
    "scan-slice",
)

REPORT_HEADER = ["claim_id", "passed", "samples", "worst_margin", "worst_x", "notes"]
SCAN_HEADER = ["alpha", "beta", "gamma", "verdict", "evidence_x", "margin"]
CURVE_HEADER = [
    "x",
    "family_lower",
    "best_lower",
    "a_star_lower",
    "carlson_lower",
    "lambda_lower",
    "arccos",
    "a_star_upper",
    "carlson_upper",
    "best_upper",
    "family_upper",
]

# The CLI's scan grid: uniform on [1e-6, 1 - 1e-6].
SCAN_LO, SCAN_HI = 1e-6, 1.0 - 1e-6
# Scanner verdicts are grid evidence; within this distance of a regime
# threshold the grid cannot resolve the interior minimum.
THRESHOLD_GUARD = 2e-3

CURVE_N = 100_000
CURVE_SAMPLE = 200
POINTWISE_BATCH = 4000
POINTWISE_SAMPLE_EVERY = 50


def _read_csv(path, header):
    """Rows of a CSV file as lists of strings; None if the header differs."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            return None
        return list(reader)


def _mp():
    import mpmath

    mpmath.mp.dps = MP_DIGITS
    return mpmath


def acos_ref(mp, x: float):
    """arccos(x) to MP_DIGITS digits; x is taken exactly."""
    return mp.acos(mp.mpf(x))


def brackets(ref, lower: float, upper: float, ulps: int = 4) -> bool:
    """lower < ref < upper, each side allowed ``ulps`` ulp of ref."""
    tol = ulps * math.ulp(float(ref))
    return lower < ref + tol and upper > ref - tol


def within_ulps(ref, value: float, ulps: int) -> bool:
    return abs(value - ref) <= ulps * math.ulp(float(ref))


# ---------------------------------------------------------------- certify


def check_certify_rows(rows) -> tuple[int, int]:
    """One operation per claim report: missing, unexpected, duplicate or not passed fails."""
    expected = set(CERTIFY_CLAIM_IDS)
    seen = Counter(r[0] for r in rows)
    passed = {r[0] for r in rows if len(r) == len(REPORT_HEADER) and r[1] == "true"}
    unexpected = sum(c for cid, c in seen.items() if cid not in expected)
    failed = sum(1 for cid in expected if seen[cid] != 1 or cid not in passed)
    return len(expected) + unexpected, failed + unexpected


class Certify:
    name = "certify"

    def __init__(self, seed: int) -> None:
        self.seed = seed  # the registry run takes no input

    def job(self, k: int, out: str) -> dict:
        return {"kind": "cli", "argv": ["verify", "--claims", "all", "--format", "csv", "--out", out]}

    def expected_ops(self, spec: dict) -> int:
        return len(CERTIFY_CLAIM_IDS)

    def check(self, spec: dict, result: dict, out: str) -> tuple[int, int]:
        rows = _read_csv(out, REPORT_HEADER) if result["rc"] == 0 else None
        if rows is None:
            n = self.expected_ops(spec)
            return n, n
        return check_certify_rows(rows)


# ------------------------------------------------------------------- scan


def singular(beta: float, gamma: float) -> bool:
    """gamma + (1+x)**beta changes sign on the scan grid.

    (1+x)**beta is monotone in x, so it does exactly when its values at the
    grid ends differ in sign or one is zero.
    """
    lo = gamma + (1.0 + SCAN_LO) ** beta
    hi = gamma + (1.0 + SCAN_HI) ** beta
    return lo == 0.0 or hi == 0.0 or (lo < 0.0) != (hi < 0.0)


def slice_verdict(gamma: float) -> str:
    """Scanner verdict the regime map predicts on the alpha = beta = 1/2 line."""
    if gamma <= A_STAR:
        return "Increasing"
    if gamma >= TWO_SQRT2:
        return "Decreasing"
    return "NonMonotone"


def check_scan_rows(alphas, betas, gammas, rows) -> tuple[int, int]:
    """One operation per triple: missing or duplicated rows, Error verdicts that
    disagree with the singularity check, and slice verdicts that disagree with
    the regime map fail."""
    expected = set(itertools.product(alphas, betas, gammas))
    seen: Counter = Counter()
    verdict = {}
    for r in rows:
        key = tuple(float(v) for v in r[:3])
        seen[key] += 1
        verdict[key] = r[3]
    failed = 0
    for key in expected:
        alpha, beta, gamma = key
        if seen[key] != 1:
            failed += 1
        elif (verdict[key] == "Error") != singular(beta, gamma):
            failed += 1
        elif alpha == 0.5 and beta == 0.5 and verdict[key] != "Error" and verdict[key] != slice_verdict(gamma):
            failed += 1
    unexpected = sum(c for key, c in seen.items() if key not in expected)
    return len(expected) + unexpected, failed + unexpected


class Scan:
    """About 6 x 6 x 40 triples; the box always holds the alpha = beta = 1/2
    line and one alpha above 10 (the scanner's log-space branch).  The first
    four gammas lie in (-1.4, -1.05), singular for every beta in [1/2, 2],
    so exactly 10% of the triples are singular on every seed."""

    name = "scan"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"scan-{seed}")
        self.alphas = [0.5] + [rng.uniform(-0.9, 3.0) for _ in range(4)] + [rng.uniform(10.5, 14.0)]
        self.betas = [0.5] + [rng.uniform(0.6, 2.0) for _ in range(5)]
        gammas = [rng.uniform(-1.4, -1.05) for _ in range(4)]
        while len(gammas) < 40:
            g = rng.uniform(-0.9, 6.0)
            if min(abs(g - A_STAR), abs(g - TWO_SQRT2)) > THRESHOLD_GUARD:
                gammas.append(g)
        self.gammas = gammas

    def job(self, k: int, out: str) -> dict:
        axis = lambda values: ",".join(repr(v) for v in values)
        argv = [
            "scan",
            f"--alpha={axis(self.alphas)}",
            f"--beta={axis(self.betas)}",
            f"--gamma={axis(self.gammas)}",
            "--format",
            "csv",
            "--out",
            out,
        ]
        return {"kind": "cli", "argv": argv}

    def expected_ops(self, spec: dict) -> int:
        return len(self.alphas) * len(self.betas) * len(self.gammas)

    def check(self, spec: dict, result: dict, out: str) -> tuple[int, int]:
        rows = _read_csv(out, SCAN_HEADER) if result["rc"] == 0 else None
        if rows is None:
            n = self.expected_ops(spec)
            return n, n
        return check_scan_rows(self.alphas, self.betas, self.gammas, rows)


# -------------------------------------------------------------- pointwise


def check_pointwise_sample(mp, a: float, x: float, out) -> bool:
    """out = (lower, upper, lower_lambda, lower_pi2, lower_best, upper_best)."""
    lower, upper, lower_lambda, lower_pi2, lower_best, upper_best = out
    ref = acos_ref(mp, x)
    return (
        brackets(ref, lower, upper)
        and brackets(ref, lower_best, upper_best)
        and lower_best == max(lower_lambda, lower_pi2)
    )


class Pointwise:
    """A job is one fresh process serving a batch of bracket requests in a
    closed loop with one caller: bound_pair(a, x), then best_pair(x)."""

    name = "pointwise"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def job(self, k: int, out: str) -> dict:
        rng = random.Random(f"pointwise-{self.seed}-{k}")
        requests = []
        for _ in range(POINTWISE_BATCH):
            a = rng.uniform(-0.9, 6.0)
            u = rng.random()
            if u < 0.1:
                x = 10.0 ** rng.uniform(-9.0, -3.0)
            elif u < 0.2:
                x = 1.0 - 10.0 ** rng.uniform(-9.0, -3.0)
            else:
                x = rng.random() or 0.5
            requests.append((a, x))
        sample = sorted(rng.sample(range(POINTWISE_BATCH), POINTWISE_BATCH // POINTWISE_SAMPLE_EVERY))
        return {"kind": "pointwise", "requests": requests, "sample": sample}

    def expected_ops(self, spec: dict) -> int:
        return len(spec["requests"])

    def check(self, spec: dict, result: dict, out: str) -> tuple[int, int]:
        mp = _mp()
        requests = spec["requests"]
        failed = result["raised"]
        for i, *values in result["samples"]:
            a, x = requests[i]
            failed += not check_pointwise_sample(mp, a, x, values)
        return len(requests), failed


# ------------------------------------------------------------------ curve


def check_curve_sample_row(mp, row) -> bool:
    """arccos column within 2 ulp; family and best brackets within 4 ulp."""
    v = dict(zip(CURVE_HEADER, row))
    ref = acos_ref(mp, v["x"])
    return (
        within_ulps(ref, v["arccos"], 2)
        and brackets(ref, v["family_lower"], v["family_upper"])
        and brackets(ref, v["best_lower"], v["best_upper"])
    )


class Curve:
    """`bounds --full` at one seeded a per regime; jobs cycle through the three."""

    name = "curve"

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"curve-{seed}")
        self.seed = seed
        self.a_values = [
            rng.uniform(-0.9, A_STAR - THRESHOLD_GUARD),
            rng.uniform(A_STAR + THRESHOLD_GUARD, TWO_SQRT2 - THRESHOLD_GUARD),
            rng.uniform(TWO_SQRT2, 6.0),
        ]

    def job(self, k: int, out: str) -> dict:
        a = self.a_values[k % 3]
        argv = ["bounds", f"--a={a!r}", "--full", "--n", str(CURVE_N), "--format", "csv", "--out", out]
        return {"kind": "cli", "argv": argv, "grid_count": [1e-9, 1.0 - 1e-9, CURVE_N, "refined"]}

    def expected_ops(self, spec: dict) -> int:
        return CURVE_N

    def check(self, spec: dict, result: dict, out: str) -> tuple[int, int]:
        """One operation per row: it parses into 11 numbers with x strictly
        increasing; the row count equals the grid's; a seeded sample of rows
        matches mpmath."""
        expected = result.get("grid_count", CURVE_N)
        if result["rc"] != 0:
            return expected, expected
        mp = _mp()
        rng = random.Random(f"curve-sample-{self.seed}-{spec['job']}")
        sample = set(rng.sample(range(expected), min(CURVE_SAMPLE, expected)))
        failed = 0
        count = 0
        prev = -math.inf
        with open(out, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split(",") != CURVE_HEADER:
                return expected, expected
            for i, line in enumerate(fh):
                count += 1
                try:
                    values = [float(v) for v in line.split(",")]
                except ValueError:
                    failed += 1
                    continue
                ok = len(values) == len(CURVE_HEADER) and values[0] > prev
                if ok and i in sample:
                    ok = check_curve_sample_row(mp, values)
                failed += not ok
                prev = values[0]
        return max(count, expected), failed + abs(count - expected)


WORKLOADS = {cls.name: cls for cls in (Certify, Scan, Pointwise, Curve)}
