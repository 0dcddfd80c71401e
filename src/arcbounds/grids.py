"""Sampling grids, and the terms of a grid that depend on x alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DomainError
from .family import _check_open_unit, arccos_ratio, arccos_stable

__all__ = ["GridSpec", "DEFAULT_GRID", "SCAN_GRID", "MAX_GRID_POINTS"]

_EDGE_WIDTH = 1e-3
# Largest grid a GridSpec accepts: ten times DEFAULT_GRID.  At 8 bytes a
# sample, one array of it is 80 MB, and a verification holds several.
MAX_GRID_POINTS = 10_000_000
# Points per block of a blocked grid evaluation: 128 KB per float array, so a
# block's terms and each parameter's arrays stay in a 2 MB L2 cache.  Not an option.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """A sampling grid on [lo, hi] with ``n`` points.

    ``spacing`` is "uniform" or "refined".  A refined grid devotes half of
    its points to the two endpoint zones (a quarter per side), placed
    geometrically within 1e-3 of each endpoint where the sharpness of the
    bound constants is decided; the rest sample the middle uniformly.
    Sub-ulp duplicates near the endpoints are collapsed, so a refined grid
    beyond ~2e5 points holds slightly fewer than ``n`` samples; reports
    always carry the actual count.  The bounds and their width must be
    finite, and a refined grid of 16 or more points must be wide enough
    (about 1e-314) that its smallest endpoint offset does not underflow.
    """

    lo: float
    hi: float
    n: int
    spacing: str = "refined"

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError("grid requires lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise DomainError("grid requires finite bounds with a finite width hi - lo")
        if self.n < 2:
            raise DomainError("grid requires n >= 2")
        if self.n > MAX_GRID_POINTS:
            raise DomainError(f"grid requires n <= MAX_GRID_POINTS = {MAX_GRID_POINTS}")
        if self.spacing not in ("uniform", "refined"):
            raise DomainError("spacing must be 'uniform' or 'refined'")
        if self.spacing == "refined" and self.n >= 16 and self._edge() * 1e-9 == 0.0:
            raise DomainError("refined grid too narrow: its endpoint offsets underflow; use uniform spacing")

    def _edge(self) -> float:
        return min(_EDGE_WIDTH, 0.25 * (self.hi - self.lo))

    def points(self) -> np.ndarray:
        """Strictly increasing sample points, including both endpoints.

        Each call builds a new array.  A refined grid is its left zone, its
        middle and its mirrored right zone laid end to end with repeats
        dropped: each zone is nondecreasing and ends at or below where the
        next begins, so no sort is needed.
        """
        n_edge = self.n // 4
        if self.spacing == "uniform" or n_edge < 4:
            return np.linspace(self.lo, self.hi, self.n)
        edge = self._edge()
        offsets = np.concatenate(([0.0], np.geomspace(edge * 1e-9, edge, n_edge - 1)))
        mid = np.linspace(self.lo + edge, self.hi - edge, self.n - 2 * n_edge + 2)[1:-1]
        pts = np.concatenate([self.lo + offsets, mid, (self.hi - offsets)[::-1]])
        return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


DEFAULT_GRID = GridSpec(1e-9, 1.0 - 1e-9, 1_000_000, "refined")
# Scanner default: uniform spacing keeps forward differences above the sign
# threshold wherever the scanned family is genuinely monotone.
SCAN_GRID = GridSpec(1e-6, 1.0 - 1e-6, 20_001, "uniform")


def _blocks(grid: GridSpec, overlap: int = 0) -> Iterator[np.ndarray]:
    """Consecutive slices of ``grid.points()``, each _BLOCK points and ``overlap`` more of the next.

    The whole grid is checked against (0, 1) once, before any block is
    yielded.  With ``overlap`` = 1 the forward differences of the blocks are
    those of the grid, each once.
    """
    x = _check_open_unit(grid.points())
    for start in range(0, x.size - overlap, _BLOCK):
        yield x[start : start + _BLOCK + overlap]


def _ulps(v):
    """4 ulp of ``v``: the slack that every strict inequality of the verifier grants one rounded quantity."""
    return 4.0 * np.spacing(np.abs(v))


class _GridTerms:
    """The terms of points ``x`` in (0, 1) that depend on x alone.

    ``x`` is a whole grid for the scanner and one block of it for a
    verification sweep; its caller has checked it against (0, 1).  Each
    term is evaluated on first use and then shared by every shape
    parameter of the sweep, or every triple of a scan.  The object caches
    nothing beyond its own life, so a block's terms are freed with the
    block.  Elementwise kernels give the same bits on a slice as on the
    whole array, and ``shape`` and ``ratio_at`` keep the operation order of
    ``family._shape`` and ``family.bound_ratio``, so their values are the
    same bits as a direct evaluation.
    """

    def __init__(self, x: np.ndarray) -> None:
        self.x = x

    @cached_property
    def sqrt_1px(self) -> np.ndarray:
        return np.sqrt(1.0 + self.x)

    @cached_property
    def sqrt_1mx(self) -> np.ndarray:
        return np.sqrt(1.0 - self.x)

    @cached_property
    def arccos(self) -> np.ndarray:
        return arccos_stable(self.x)

    @cached_property
    def arccos_tol(self) -> np.ndarray:
        """4 ulp of arccos(x): the tolerance of a strict bound on arccos."""
        return _ulps(self.arccos)

    @cached_property
    def ratio(self) -> np.ndarray:
        return arccos_ratio(self.x)

    @cached_property
    def log1p_x(self) -> np.ndarray:
        return np.log1p(self.x)

    @cached_property
    def log_arccos(self) -> np.ndarray:
        return np.log(self.arccos)

    def shape(self, a: float) -> np.ndarray:
        """The bound template sqrt(1-x)/(a + sqrt(1+x))."""
        return self.sqrt_1mx / (a + self.sqrt_1px)

    def ratio_at(self, a: float) -> np.ndarray:
        """The family ratio (a + sqrt(1+x)) * arccos(x)/sqrt(1-x)."""
        return (a + self.sqrt_1px) * self.ratio
