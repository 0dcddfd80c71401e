"""Span tracer for the arcbounds modules, installed from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper in each ``arcbounds.*`` namespace that holds the
original object, because ``verify``, ``analysis``, ``explore`` and ``cli``
import these names directly.  ``GridSpec.points`` is wrapped on the class
and each registry claim's runner is wrapped in place.  Underscore helpers
stay unwrapped, so their cost lands in their caller's self time.

Spans (name, start, end, parent, job) are kept in memory and written out
when the job ends; ``layer_table`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

MODULES = ("grids", "family", "sharp", "analysis", "verify", "explore", "cli")

CLAIM_IDS = (
    "classic-lower",
    "family-bracket",
    "midregime-floor",
    "endpoint-constants",
    "regime-increasing",
    "regime-decreasing",
    "regime-interior-minimum",
    "minimum-floor",
    "aux-slope-limits",
    "aux-quadratic-roots",
    "aux-sign-regimes",
    "sharp-dominance",
    "gain-maximizer",
    "scan-slice",
)

VERDICTS = ("Increasing", "Decreasing", "NonMonotone", "Undetermined", "Error")


def _layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    m: list[tuple[str, str, str]] = []

    def fn(name: str, *fields: str) -> None:
        for f in fields:
            m.append((f"{name}.{f}", "s" if f == "self_s" else "count", "lower"))

    fn("grids.points", "calls", "points", "self_s", "unique_specs")
    for name in ("arccos_stable", "arccos_ratio", "bound_ratio", "bound_arrays"):
        fn(f"family.{name}", "calls", "points", "self_s")
    fn("family.bound_pair", "calls", "self_s")
    for name in ("lambda_lower", "a_star_pair", "carlson_pair", "best_upper", "best_lower"):
        fn(f"sharp.{name}", "calls", "points", "self_s")
    fn("sharp.best_pair", "calls", "self_s")
    fn("analysis.find_minimum", "calls", "self_s", "iterations")
    fn("analysis.slope_factor", "calls", "self_s")
    fn("analysis.grid_argmin", "calls", "points", "self_s")
    for cid in CLAIM_IDS:
        m.append((f"verify.claim.{cid}.s", "s", "lower"))
    fn("verify.compare_bounds", "self_s")
    m.append(("verify.reports", "count", "higher"))
    m.append(("verify.reports_failed", "count", "lower"))
    fn("explore.classify_family", "calls", "points", "self_s")
    fn("explore.scan_grid", "self_s")
    for v in VERDICTS:
        m.append((f"explore.verdict.{v}", "count", "lower" if v == "Error" else "higher"))
    fn("cli.main", "self_s")
    fn("cli.emit_curve", "self_s")
    m.append(("cli.rows_out", "count", "higher"))
    m.append(("cli.bytes_out", "B", "lower"))
    for mod in MODULES:
        m.append((f"{mod}.self_s", "s", "lower"))
    m.append(("trace.overhead_frac", "frac", "lower"))
    return m


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Records one span per call of a wrapped function, plus call counts."""

    def __init__(self, job: int = 0) -> None:
        self.job = job
        self.enabled = True
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.specs: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, points=None, after=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``points(args, kwargs)`` gives the x samples passed in; ``after(result)``
        records counts taken from the return value.
        """

        calls_key, points_key = name + ".calls", name + ".points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.counters[calls_key] += 1
            if points is not None:
                self.counters[points_key] += points(args, kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        import numpy as np

        modules = {name: importlib.import_module(f"arcbounds.{name}") for name in MODULES}
        namespaces = [m for n, m in sys.modules.items() if n == "arcbounds" or n.startswith("arcbounds.")]
        for mod_name, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(f"{mod_name}.{attr}", fn, _points_rule(fn, np), self._after(f"{mod_name}.{attr}"))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)

        grid_cls = modules["grids"].GridSpec

        def note_spec(args, kwargs):
            self.specs.add(args[0])
            return args[0].n

        grid_cls.points = self.wrap("grids.points", grid_cls.points, note_spec)
        for claim in modules["verify"].CLAIMS:
            # Claim is a frozen dataclass; the registry objects are shared with
            # the id index, so replacing the runner in place covers both.
            object.__setattr__(claim, "runner", self.wrap(f"verify.claim.{claim.claim_id}", claim.runner))

    def _after(self, name: str):
        if name == "analysis.find_minimum":
            return lambda res: self.counters.update({"analysis.find_minimum.iterations": res.iterations})
        if name == "explore.classify_family":
            return lambda res: self.counters.update({f"explore.verdict.{res.verdict.value}": 1})
        if name == "explore.scan_grid":
            # Error verdicts never return from classify_family; count them here.
            return lambda res: self.counters.update(
                {"explore.verdict.Error": sum(r.verdict.value == "Error" for r in res)}
            )
        if name == "verify.run_claims":
            return lambda res: self.counters.update(
                {"verify.reports": len(res), "verify.reports_failed": sum(not r.passed for r in res)}
            )
        return None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters), "unique_specs": len(self.specs)}, fh)


def _points_rule(fn, np):
    """Count the x samples a call receives: the size of its x (or u) argument."""
    params = list(inspect.signature(fn).parameters)
    if fn.__name__ == "grid_argmin":
        i, key = params.index("n"), "n"
        return lambda args, kwargs: int(args[i] if len(args) > i else kwargs[key])
    if fn.__name__ == "classify_family":
        i, key = params.index("grid"), "grid"

        def grid_n(args, kwargs):
            grid = args[i] if len(args) > i else kwargs.get(key, fn.__defaults__[0])
            return grid.n

        return grid_n
    for key in ("x", "u"):
        if key in params:
            i = params.index(key)
            return lambda args, kwargs: int(np.size(args[i] if len(args) > i else kwargs[key]))
    return None


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(children.get(i, ())) for i, (_, start, end, _, _) in enumerate(spans)]


def layer_table(dump: dict, rows_out: int = 0, bytes_out: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its span dump.

    ``trace.overhead_frac`` compares traced with untraced jobs, so it is left
    for the caller to fill in.
    """
    spans = dump["spans"]
    values: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        values[name + ".self_s"] += own
        values[name.split(".", 1)[0] + ".self_s"] += own
        if name.startswith("verify.claim."):
            values[name + ".s"] += end - start
    values.update(dump["counters"])
    values["grids.points.unique_specs"] = dump["unique_specs"]
    values["cli.rows_out"] = rows_out
    values["cli.bytes_out"] = bytes_out
    return {name: values.get(name, 0) for name, _, _ in LAYER_METRICS if name != "trace.overhead_frac"}
