import ast
import dataclasses
import importlib
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcbounds as ab
from arcbounds import analysis, family, grids, sharp

finite_a = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
bound_a = st.floats(min_value=-0.99, max_value=8.0, allow_nan=False, allow_infinity=False)
unit_x = st.floats(min_value=1e-9, max_value=1.0 - 1e-9, allow_nan=False, allow_infinity=False)


@given(a=bound_a, x=unit_x)
def test_bound_pair_brackets_arccos(a, x):
    bp = ab.bound_pair(a, x)
    acx = ab.arccos_stable(x)
    tol = 4.0 * np.spacing(acx)
    assert bp.lower <= acx + tol
    assert acx <= bp.upper + tol
    assert bp.lower <= bp.upper


@given(a=finite_a)
def test_classify_regime_total_and_exclusive(a):
    regime = ab.classify_regime(a)
    expected = (
        ab.Regime.INCREASING
        if a <= ab.A_STAR
        else ab.Regime.DECREASING
        if a >= ab.TWO_SQRT2
        else ab.Regime.INTERIOR_MINIMUM
    )
    assert regime is expected


@given(a=bound_a)
def test_constants_ordered(a):
    assert ab.lower_constant(a) <= ab.upper_constant(a)


@given(x=unit_x)
def test_sharp_pair_brackets_arccos(x):
    sb = ab.best_pair(x)
    acx = ab.arccos_stable(x)
    tol = 4.0 * (np.spacing(acx) + np.spacing(abs(sb.lower_best)))
    assert sb.lower_best == max(sb.lower_lambda, sb.lower_pi2)
    assert sb.lower_best <= acx + tol
    assert acx <= sb.upper_best + tol


@given(x=unit_x)
def test_lower_gain_argmax_range(x):
    assert ab.ONE_PLUS_SQRT3 - 4e-15 < ab.lower_gain_argmax(x) < ab.TWO_SQRT2


@given(x=unit_x)
def test_gain_maximizer_dominates_random_parameters(x):
    attained = ab.lower_gain(ab.lower_gain_argmax(x), x)
    avals = np.linspace(ab.A_STAR, ab.TWO_SQRT2, 301)[1:-1]
    tol = 8.0 * np.spacing(abs(attained))
    assert attained >= float(np.max(ab.lower_gain(avals, x))) - tol


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=ab.A_STAR + 1e-3, max_value=ab.TWO_SQRT2 - 1e-3))
def test_interior_minimum_well_formed(a):
    res = ab.find_minimum(a)
    assert 0.0 < res.x0 < 1.0
    assert res.residual < 1e-12
    floor = 8.0 * (1.0 - 2.0 / (a * a))
    assert res.f_min >= floor - 4.0 * np.spacing(floor)
    assert res.f_min <= min(ab.endpoint_limits(a))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(min_value=ab.A_STAR + 1e-2, max_value=ab.TWO_SQRT2 - 1e-2))
def test_interior_minimum_single_sign_change(a):
    [rep] = ab.run_claims(["regime-interior-minimum"], grid=ab.GridSpec(1e-9, 1.0 - 1e-9, 10_000, "uniform"), a=a)
    assert rep.passed


@given(
    lo=st.floats(min_value=1e-9, max_value=0.4),
    width=st.floats(min_value=1e-6, max_value=0.59),
    n=st.integers(min_value=2, max_value=2_000),
    spacing=st.sampled_from(["uniform", "refined"]),
)
def test_grid_points_sorted_and_bounded(lo, width, n, spacing):
    g = ab.GridSpec(lo, lo + width, n, spacing)
    pts = g.points()
    assert pts[0] == g.lo and pts[-1] == g.hi
    assert np.all(np.diff(pts) > 0.0)
    assert np.all((pts >= g.lo) & (pts <= g.hi))


def _refined_zones(g):
    """The three zones of a refined grid from np.geomspace and np.linspace, in grid order, repeats kept."""
    n_edge = g.n // 4
    edge = min(1e-3, 0.25 * (g.hi - g.lo))
    offsets = np.concatenate(([0.0], np.geomspace(edge * 1e-9, edge, n_edge - 1)))
    mid = np.linspace(g.lo + edge, g.hi - edge, g.n - 2 * n_edge + 2)[1:-1]
    return g.lo + offsets, mid, (g.hi - offsets)[::-1]


def _sorted_refined_points(g):
    """The refined grid as np.unique builds it: the three zones sorted and deduplicated."""
    return np.unique(np.concatenate(_refined_zones(g)))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(min_value=-1e3, max_value=1e3),
    log_width=st.floats(min_value=-300.0, max_value=3.0),
    n=st.integers(min_value=16, max_value=200_001),
)
def test_refined_points_equal_the_sorted_build(lo, log_width, n):
    hi = lo + 10.0**log_width
    g = ab.GridSpec(lo, hi if hi > lo else float(np.nextafter(lo, np.inf)), n, "refined")
    np.testing.assert_array_equal(g.points(), _sorted_refined_points(g))


def test_default_grid_equals_the_sorted_build():
    np.testing.assert_array_equal(ab.DEFAULT_GRID.points(), _sorted_refined_points(ab.DEFAULT_GRID))


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("block", [7, 1000])
@given(
    lo=st.floats(min_value=1e-9, max_value=0.4),
    width=st.floats(min_value=1e-6, max_value=0.59),
    n=st.integers(min_value=2, max_value=5_000),
    spacing=st.sampled_from(["uniform", "refined"]),
)
def test_blocks_concatenate_to_the_points(block, lo, width, n, spacing):
    g = ab.GridSpec(lo, lo + width, n, spacing)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grids, "_BLOCK", block)
        pts, runs = g.points(), list(g._runs())
        cuts = {overlap: list(grids._blocks(g, overlap)) for overlap in (0, 1)}
    assert all(0 < run.size <= block for run in runs)
    if spacing == "uniform":
        assert pts.tobytes() == np.linspace(g.lo, g.hi, g.n).tobytes()
    for overlap, blocks in cuts.items():
        # every block but the last holds _BLOCK points and the overlap, and starts where points() says
        assert [x.size for x in blocks[:-1]] == [block + overlap] * (len(blocks) - 1) and blocks[-1].size > overlap
        assert [x[0] for x in blocks] == pts[::block][: len(blocks)].tolist()
        # the blocks without their overlap concatenate to points()
        assert np.concatenate([x[:block] for x in blocks[:-1]] + [blocks[-1]]).tobytes() == pts.tobytes()


def test_grids_are_built_only_in_the_grids_module():
    # GridSpec._runs is the one construction path, which the tests that count grid builds hook
    src = Path(ab.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "grids.py":
            calls = re.findall(r"\b(_runs|_spans|_linspace|_offsets)\(", path.read_text(encoding="utf-8"))
            assert calls == [], path.name


ROOT = Path(__file__).resolve().parents[1]
# Exported names that nothing in src reads and the benchmark calls, each with the line that pins it.
BENCHMARK_HOOKS = {"cli.emit_curve": "perfbench/tests/test_perfbench.py:174"}


def _readme_api_list() -> set[str]:
    """The names in backticks on the bullets of README's "Python API" section."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    return {name for bullet in bullets for name in re.findall(r"`(\w+)", bullet)}


def _reads(path: Path) -> set[str]:
    """The names ("module.name") one module of src reads, resolved through its relative imports.

    A read is an ``ast.Name`` load, or an attribute of a module imported by ``from . import``. A
    read inside the top-level def or class of the same name is that definition's own, not a reader.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = set()
    for top in tree.body:
        own = f"{path.stem}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        top_reads = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                top_reads.add(names.get(node.id, f"{path.stem}.{node.id}"))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                top_reads.add(f"{modules[node.value.id]}.{node.attr}")
        reads |= top_reads - {own}
    return reads


def test_every_exported_name_has_a_reader():
    # a name in a module's __all__ is read in src outside its own definition, is listed for library
    # callers in README, or is a benchmark hook; the __all__ entry and the __init__ import are no reads
    read, exported = set(), set()
    for path in sorted(Path(ab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        read |= _reads(path)
        exported |= {f"{path.stem}.{name}" for name in getattr(importlib.import_module(f"arcbounds.{path.stem}"), "__all__", ())}
    listed = _readme_api_list()
    unread = sorted(q for q in exported - read - BENCHMARK_HOOKS.keys() if q.partition(".")[2] not in listed)
    assert unread == []
    assert listed <= {q.partition(".")[2] for q in exported}, "README lists a name no module exports"
    for hook, pin in BENCHMARK_HOOKS.items():
        path, line = pin.split(":")
        assert hook.partition(".")[2] in (ROOT / path).read_text(encoding="utf-8").splitlines()[int(line) - 1], pin


@pytest.mark.parametrize("block", [1000, 1 << 14])
def test_runs_drop_repeats_across_their_seams(monkeypatch, block):
    # at 2M points the smallest offsets near hi repeat; runs are cut from each zone by index range,
    # so some seam between two runs falls between two equal points, and the carried point drops it
    g = ab.GridSpec(1e-9, 1.0 - 1e-9, 2_000_000)
    monkeypatch.setattr(grids, "_BLOCK", block)
    zones = _refined_zones(g)
    raw = np.concatenate(zones)
    starts = np.cumsum([0, zones[0].size, zones[1].size])
    seams = np.concatenate([np.arange(0, zone.size, block) + start for zone, start in zip(zones, starts)])[1:]
    assert np.any(raw[seams] == raw[seams - 1])
    runs = list(g._runs())
    pts = np.concatenate(runs)
    assert all(0 < run.size <= block for run in runs)
    assert pts.size < g.n and np.all(np.diff(pts) > 0.0)
    assert pts.tobytes() == np.unique(raw).tobytes()


# Special values: the edges of (0, 1) and of binary64, the regime boundaries, the poles of the
# slope factor and of the bound template (a = -sqrt(1+x)), and points outside every domain.
SPECIAL_X = (5e-324, 1e-17, 1e-9, 0.5, 1.0 - 2.0**-53, 0.0, 1.0, -0.5, 2.0, math.nan, math.inf, -math.inf)
SPECIAL_A = (
    0.0, 1.0, -1.0, -2.0, -ab.SQRT2, ab.A_STAR, ab.TWO_SQRT2, 2.7, 1e308, -1e308, 1e-160, math.nan, math.inf, -math.inf,
    *(-math.sqrt(1.0 + x) for x in SPECIAL_X if 1.0 + x >= 0.0),
)
_A_X = [(a, x) for a in SPECIAL_A for x in SPECIAL_X]
# Arguments by parameter names; min_floor_gap's u takes the x values.
SWEEP_ARGS = {
    ("x",): [(x,) for x in SPECIAL_X],
    ("a",): [(a,) for a in SPECIAL_A],
    ("a", "x"): _A_X,
    ("a", "u"): _A_X,
}
SWEPT = [
    (f"{module.__name__.rpartition('.')[2]}.{name}", getattr(module, name))
    for module in (family, sharp, analysis)
    for name in module.__all__
    if inspect.isfunction(getattr(module, name)) and name != "bisect_sign_change"  # that one takes a callable
]


def _numbers(result) -> list:
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [v for item in result for v in _numbers(item)]
    return [] if isinstance(result, ab.Regime) else np.ravel(result).tolist()


@pytest.mark.parametrize("fn", [fn for _, fn in SWEPT], ids=[name for name, _ in SWEPT])
def test_special_values_give_finite_values_or_domain_error(fn):
    failures = []
    for args in SWEEP_ARGS[tuple(inspect.signature(fn).parameters)]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = fn(*args)
        except ab.DomainError:
            continue
        except Exception as exc:  # a warning turned error, or any other exception
            failures.append(f"{args!r}: {type(exc).__name__}: {exc}")
            continue
        if not all(math.isfinite(v) for v in _numbers(result)):
            failures.append(f"{args!r}: returned {result!r}")
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"
