"""Sampling grids, and the terms of a grid that depend on x alone.

A grid is built in one place, ``GridSpec._runs``, as a stream of sorted
runs of at most ``_BLOCK`` points.  ``GridSpec.points`` lays the runs end to
end; ``_blocks`` re-cuts them into the fixed-size blocks a verification
evaluates, so no array of the whole grid is built there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DomainError
from .family import _check_open_unit, arccos_stable

__all__ = ["GridSpec", "DEFAULT_GRID", "SCAN_GRID", "MAX_GRID_POINTS"]

_EDGE_WIDTH = 1e-3
# Largest grid a GridSpec accepts: ten times DEFAULT_GRID.  At 8 bytes a
# sample, its points() array is 80 MB; a verification streams it in blocks.
MAX_GRID_POINTS = 10_000_000
# Points per block of a blocked grid evaluation, and at most per run of a grid's
# construction: 128 KB per float array, so a block's terms and each parameter's
# arrays stay in a 2 MB L2 cache.  Not an option.
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
        """Strictly increasing sample points, including both endpoints: the grid's runs end to end.

        Each call builds a new array.  Each run is copied in and freed before
        the next is built: joining a list of the runs at the end fragments
        the heap (15 MB more RSS in ``verify --claims all --n 2000000``).
        """
        out, size = None, 0
        for run in self._runs():
            if out is None:
                out = np.empty(self.n, dtype=run.dtype)
            out[size : size + run.size] = run
            size += run.size
        return out[:size]

    def _runs(self) -> Iterator[np.ndarray]:
        """The points in order, as runs of at most ``_BLOCK`` points: the grid's one construction path.

        A uniform grid is np.linspace's array.  A refined grid is its left
        zone, its middle and its mirrored right zone laid end to end with
        repeats dropped, each zone built by index range with np.geomspace's
        or np.linspace's own formula.  Each zone is nondecreasing and ends at
        or below where the next begins, so dropping a point equal to the one
        before it, carried across each run boundary, gives np.unique's array
        without a sort.
        """
        n_edge = self.n // 4
        if self.spacing == "uniform" or n_edge < 4:
            yield from (_linspace(self.lo, self.hi, self.n, s, e) for s, e in _spans(self.n))
            return
        edge, n_mid = self._edge(), self.n - 2 * n_edge
        zones = itertools.chain(
            (self.lo + _offsets(edge, n_edge, s, e) for s, e in _spans(n_edge)),
            (_linspace(self.lo + edge, self.hi - edge, n_mid + 2, s + 1, e + 1) for s, e in _spans(n_mid)),
            ((self.hi - _offsets(edge, n_edge, n_edge - e, n_edge - s))[::-1] for s, e in _spans(n_edge)),
        )
        last = math.nan
        for run in zones:
            keep = np.empty(run.size, dtype=bool)
            keep[0] = run[0] != last
            np.not_equal(run[1:], run[:-1], out=keep[1:])
            last = run[-1]
            if keep.any():
                yield run[keep]


def _spans(n: int) -> Iterator[tuple[int, int]]:
    """The index ranges [s, e) that cut range(n) into pieces of ``_BLOCK``."""
    return ((s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK))


def _linspace(lo, hi, num: int, start: int, stop: int) -> np.ndarray:
    """np.linspace(lo, hi, num)[start:stop] by its own formula: i*step + lo, and hi at i = num - 1."""
    dtype = np.result_type(lo, hi, 1.0)
    delta = np.subtract(hi, lo, dtype=dtype)
    step = delta / (num - 1)
    y = np.arange(start, stop, dtype=dtype)
    if step == 0:  # np.linspace's path for a subnormal step
        y /= num - 1
        y *= delta
    else:
        y *= step
    y += lo
    if stop == num:
        y[-1] = hi
    return y


def _offsets(edge: float, n_edge: int, start: int, stop: int) -> np.ndarray:
    """Offsets [start, stop) of a refined grid's endpoint zones: 0.0, then np.geomspace(edge*1e-9, edge, n_edge - 1).

    Offset i > 0 is 10**((i-1)*step + log10(edge*1e-9)), with the first and
    last geometric offsets set exactly, as np.geomspace sets them.
    """
    first, num = np.float64(edge * 1e-9), n_edge - 1
    i = max(start, 1)
    out = np.power(10.0, _linspace(np.log10(first), np.log10(np.float64(edge)), num, i - 1, stop - 1))
    if i == 1 and out.size:
        out[0] = first
    if stop == n_edge:
        out[-1] = edge
    return np.concatenate(([0.0], out)) if start == 0 else out


DEFAULT_GRID = GridSpec(1e-9, 1.0 - 1e-9, 1_000_000, "refined")
# Scanner default: uniform spacing keeps forward differences above the sign
# threshold wherever the scanned family is genuinely monotone.
SCAN_GRID = GridSpec(1e-6, 1.0 - 1e-6, 20_001, "uniform")


def _blocks(grid: GridSpec, overlap: int = 0) -> Iterator[np.ndarray]:
    """Consecutive slices of the grid, each _BLOCK points and ``overlap`` more of the next, cut from its runs.

    The grid is checked against (0, 1) through its bounds, before any block
    is yielded: every point lies in [lo, hi], and lo and hi are points.  No
    array of the whole grid is built.  With ``overlap`` = 1 the forward
    differences of the blocks are those of the grid, each once.
    """
    _check_open_unit([grid.lo, grid.hi])
    size = _BLOCK + overlap
    pending = np.empty(0)
    for run in grid._runs():
        pending = np.concatenate((pending, run))
        while pending.size >= size:
            yield pending[:size]
            pending = pending[_BLOCK:]
    if pending.size > overlap:
        yield pending


# The exponent field of a double: masked out, it is the power of two at the bottom of the value's binade.
_EXPONENT_BITS = np.uint64(0x7FF0_0000_0000_0000)


def _ulps(v):
    """4 ulp of ``v``: the slack that every strict inequality of the verifier grants one rounded quantity.

    That is 4 * np.spacing(|v|).  For a normal double below the top binade it
    is the power of two of the value's binade times 2**-50, read from the
    exponent bits.  An array holding any other value (a zero, a subnormal,
    a value in the top binade, whose largest double has an infinite
    spacing, inf or nan), or of another dtype, takes np.spacing.
    """
    v = np.asarray(v)
    if v.dtype == np.float64:
        binade = (v.view(np.uint64) & _EXPONENT_BITS).view(np.float64)
        if np.min(binade) > 0.0 and np.max(binade) < 2.0**1023:
            return binade * 2.0**-50
    return 4.0 * np.spacing(np.abs(v))


class _GridTerms:
    """The terms of points ``x`` in (0, 1) that depend on x alone: the block terms of ``verify``, ``sharp`` and ``bounds``.

    ``x`` is a grid block, an ``analysis`` argument or a claim's probe
    points; its caller keeps it in (0, 1).  Each term is evaluated on first
    use and then shared by every shape parameter of the block's checks or
    rows; ``ratio`` reads ``arccos``, so a block takes one arccos.  The
    object caches nothing beyond its own life, so a block's terms are freed
    with the block.  Elementwise kernels give the same bits on a slice as
    on the whole array, and ``shape`` and ``ratio_at`` keep the operation
    order of ``family._shape`` and ``family.bound_ratio``, so their values
    are the same bits as a direct evaluation.
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
        return self.arccos / self.sqrt_1mx

    def shape(self, a: float) -> np.ndarray:
        """The bound template sqrt(1-x)/(a + sqrt(1+x))."""
        return self.sqrt_1mx / (a + self.sqrt_1px)

    def ratio_at(self, a: float) -> np.ndarray:
        """The family ratio (a + sqrt(1+x)) * arccos(x)/sqrt(1-x)."""
        return (a + self.sqrt_1px) * self.ratio
