"""Sampling grids for the verification engine and the scanner."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["GridSpec", "DEFAULT_GRID", "SCAN_GRID", "MAX_GRID_POINTS"]

_EDGE_WIDTH = 1e-3
# Largest grid a GridSpec accepts: ten times DEFAULT_GRID.  At 8 bytes a
# sample, one array of it is 80 MB, and a verification holds several.
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    """A sampling grid on [lo, hi] with ``n`` points.

    ``spacing`` is "uniform" or "refined".  A refined grid devotes half of
    its points to the two endpoint zones (a quarter per side), placed
    geometrically within 1e-3 of each endpoint where the sharpness of the
    bound constants is decided; the rest sample the middle uniformly.
    Sub-ulp duplicates near the endpoints are collapsed, so a refined grid
    beyond ~2e5 points holds slightly fewer than ``n`` samples; reports
    always carry the actual count.
    """

    lo: float
    hi: float
    n: int
    spacing: str = "refined"

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError("grid requires lo < hi")
        if self.n < 2:
            raise DomainError("grid requires n >= 2")
        if self.n > MAX_GRID_POINTS:
            raise DomainError(f"grid requires n <= MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        if self.spacing not in ("uniform", "refined"):
            raise DomainError("spacing must be 'uniform' or 'refined'")

    def points(self) -> np.ndarray:
        """Strictly increasing sample points, including both endpoints."""
        if self.spacing == "uniform":
            return np.linspace(self.lo, self.hi, self.n)
        n_edge = self.n // 4
        if n_edge < 4:
            return np.linspace(self.lo, self.hi, self.n)
        width = self.hi - self.lo
        edge = min(_EDGE_WIDTH, 0.25 * width)
        offsets = np.concatenate(([0.0], np.geomspace(edge * 1e-9, edge, n_edge - 1)))
        left = self.lo + offsets
        right = self.hi - offsets
        n_mid = self.n - 2 * n_edge
        mid = np.linspace(self.lo + edge, self.hi - edge, n_mid + 2)[1:-1]
        return np.unique(np.concatenate([left, mid, right]))


DEFAULT_GRID = GridSpec(1e-9, 1.0 - 1e-9, 1_000_000, "refined")
# Scanner default: uniform spacing keeps forward differences above the sign
# threshold wherever the scanned family is genuinely monotone.
SCAN_GRID = GridSpec(1e-6, 1.0 - 1e-6, 20_001, "uniform")
