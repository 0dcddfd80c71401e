"""Order statistics used by the benchmark and its steadiness report."""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10


def tail_percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile, only where at least MIN_TAIL samples lie beyond it.

    Raises ValueError when the sample is too small for the percentile to
    carry that many samples above it (for p99, fewer than 1000 samples).
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it; need {MIN_TAIL}")
    return ordered[rank - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median, as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
