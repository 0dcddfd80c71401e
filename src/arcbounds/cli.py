"""Command-line front end.

Verbs: eval, bounds, classify, minimize, verify, compare, scan.  Output is
a human table on a terminal and CSV when piped (override with --format).
CSV and JSON carry full binary64 round-trip precision; tables show six
significant digits.  Exit status: 0 success, 1 verification failure,
2 usage error, 3 domain error, 141 (128 + SIGPIPE) when the reader of
stdout closes the pipe early, as in ``arcbounds bounds ... | head``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import asdict, astuple, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from . import explore, verify
from .analysis import MinimumResult, find_minimum
from .errors import DomainError
from .family import arccos_stable, bound_arrays, bound_ratio, classify_regime
from .grids import DEFAULT_GRID, SCAN_GRID
from .sharp import a_star_pair, best_upper, carlson_pair, lambda_lower

__all__ = ["main", "emit_curve"]

_CSV_BLOCK_ROWS = 4096  # rows per `%` in CSV output: bounds the Python floats and text alive at once

CURVE_HEADER = (
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
)


def emit_curve(a: float, n: int, grid: str = "refined") -> tuple[tuple[str, ...], np.ndarray]:
    """Plot-ready sweep of every bound candidate plus the family pair at ``a``.

    Returns the column header and a float array with 11 columns and one row per
    grid sample, in strictly increasing x.
    """
    x = replace(DEFAULT_GRID, n=n, spacing=grid).points()
    cols = np.empty((x.size, len(CURVE_HEADER)))  # filled column by column: no second copy of the table
    cols[:, 0] = x
    cols[:, 1], cols[:, 10] = bound_arrays(a, x)
    cols[:, 3], cols[:, 7] = a_star_pair(x)
    cols[:, 4], cols[:, 8] = carlson_pair(x)
    cols[:, 5] = lambda_lower(x)
    np.maximum(cols[:, 5], cols[:, 3], out=cols[:, 2])  # best_lower without evaluating both bounds again
    cols[:, 6] = arccos_stable(x)
    cols[:, 9] = best_upper(x)
    return CURVE_HEADER, cols


def _fmt(value, digits: int) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _emit_rows(header: Sequence[str], rows: Iterable[Sequence], fmt: str, out) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    digits = 17 if fmt == "csv" else 6
    text_rows = [[_fmt(v, digits) for v in row] for row in rows]
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(text_rows)
        return
    widths = [max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h) for i, h in enumerate(header)]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for row in text_rows:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _emit_array(header: Sequence[str], cols: np.ndarray, fmt: str, out) -> None:
    """Rows of a 2-D float array; CSV is one ``%`` per block of rows, byte for byte ``_emit_rows``'s.

    ``"%.17g" % v`` and ``f"{v:.17g}"`` share one float formatter, and a number needs no quoting.
    """
    if fmt != "csv":
        _emit_rows(header, cols.tolist(), fmt, out)
        return
    csv.writer(out, lineterminator="\n").writerow(header)
    row = ",".join(["%.17g"] * cols.shape[1]) + "\n"
    for start in range(0, len(cols), _CSV_BLOCK_ROWS):
        block = cols[start : start + _CSV_BLOCK_ROWS]
        out.write((row * len(block)) % tuple(block.ravel().tolist()))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arcbounds", description="Elementary arccos bounds: evaluation, verification, scanning.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        # argparse takes "-..." as a value only if it looks like -1 or -1.5; no option starts
        # with a digit, "." or inf/nan, so -2.5e-1, -inf and axes such as -0.9:4:3 are values too.
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
        p.add_argument("--format", choices=("table", "csv", "json"), default=None, help="output format (default: table on a terminal, csv when piped)")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("eval", help="evaluate the family ratio at (a, x)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    add_common(p)

    p = sub.add_parser("bounds", help="emit (x, lower, arccos, upper) rows for one parameter")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--n", type=int, default=101)
    p.add_argument("--grid", choices=("uniform", "refined"), default="refined")
    p.add_argument("--full", action="store_true", help="emit every sharp bound candidate as extra columns")
    add_common(p)

    p = sub.add_parser("classify", help="monotonicity regime of the ratio for a parameter")
    p.add_argument("--a", type=float, required=True)
    add_common(p)

    p = sub.add_parser("minimize", help="locate the interior minimum (middle regime only)")
    p.add_argument("--a", type=float, required=True)
    add_common(p)

    p = sub.add_parser("verify", help="run claims from the verification registry")
    p.add_argument("--claims", default="all", help="comma-separated claim ids, or 'all'")
    p.add_argument("--list", action="store_true", help="list registry claim ids and exit")
    p.add_argument("--a", type=float, default=None, help="restrict parameterized claims to one a")
    p.add_argument("--n", type=int, default=None, help="override the per-claim default grids with one n-point grid")
    p.add_argument("--grid", choices=("uniform", "refined"), default="refined", help="spacing of the override grid (with --n)")
    add_common(p)

    p = sub.add_parser("compare", help="dominance table for the sharp bound candidates")
    p.add_argument("--n", type=int, default=DEFAULT_GRID.n)
    p.add_argument("--grid", choices=("uniform", "refined"), default="refined")
    add_common(p)

    p = sub.add_parser("scan", help="classify the generalized family over a parameter box")
    p.add_argument("--alpha", required=True, help="axis values: 'v', 'v1,v2,...', or 'lo:hi:count'")
    p.add_argument("--beta", required=True, help="axis values, same forms as --alpha")
    p.add_argument("--gamma", required=True, help="axis values, same forms as --alpha")
    p.add_argument("--n", type=int, default=SCAN_GRID.n, help="x-grid size per triple")
    p.add_argument("--grid", choices=("uniform", "refined"), default="uniform")
    add_common(p)

    return parser


def _axis_number(convert, token: str):
    try:
        return convert(token)
    except ValueError:
        raise DomainError(f"axis value {token!r} is not {'an integer' if convert is int else 'a number'}") from None


def _parse_axis(text: str) -> tuple[int, Callable[[], list[float]]]:
    """Count and values of one scan axis; a lo:hi:count range is expanded only on call."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"axis range must be lo:hi:count, got {text!r}")
        lo, hi, count = _axis_number(float, parts[0]), _axis_number(float, parts[1]), _axis_number(int, parts[2])
        if count < 1:
            raise DomainError("axis count must be >= 1")
        return count, lambda: [lo] if count == 1 else list(np.linspace(lo, hi, count))
    values = [_axis_number(float, tok) for tok in text.split(",") if tok != ""]
    if not values:
        raise DomainError(f"axis {text!r} has no values")
    return len(values), lambda: values


def _scan_axes(*texts: str) -> list[list[float]]:
    """The alpha, beta and gamma axes, with the box size checked before any range is expanded."""
    axes = [_parse_axis(text) for text in texts]
    explore._check_box(*(count for count, _ in axes))
    values = [expand() for _, expand in axes]
    for text, axis in zip(texts, values):
        if not all(map(math.isfinite, axis)):
            raise DomainError(f"axis {text!r} has a non-finite value")
    return values


def _run(args, out) -> int:
    fmt = args.format or ("table" if sys.stdout.isatty() and args.out is None else "csv")

    if args.verb == "eval":
        value = bound_ratio(args.a, args.x)
        _emit_rows(("a", "x", "value"), [(args.a, args.x, float(value))], fmt, out)
        return 0

    if args.verb == "bounds":
        if args.full:
            _emit_array(*emit_curve(args.a, args.n, args.grid), fmt, out)
            return 0
        x = replace(DEFAULT_GRID, n=args.n, spacing=args.grid).points()
        lower, upper = bound_arrays(args.a, x)
        _emit_array(("x", "lower", "arccos", "upper"), np.column_stack([x, lower, arccos_stable(x), upper]), fmt, out)
        return 0

    if args.verb == "classify":
        regime = classify_regime(args.a)
        if fmt == "table":
            out.write(regime.value + "\n")
        else:
            _emit_rows(("a", "regime"), [(args.a, regime.value)], fmt, out)
        return 0

    if args.verb == "minimize":
        _emit_rows(tuple(f.name for f in fields(MinimumResult)), [astuple(find_minimum(args.a))], fmt, out)
        return 0

    if args.verb == "verify":
        if args.list:
            rows = [(c.claim_id, c.description) for c in verify.CLAIMS]
            _emit_rows(("claim_id", "description"), rows, fmt, out)
            return 0
        ids = None if args.claims.strip() == "all" else [t.strip() for t in args.claims.split(",") if t.strip()]
        grid = None if args.n is None else replace(DEFAULT_GRID, n=args.n, spacing=args.grid)
        reports = verify.run_claims(ids, grid=grid, a=args.a)
        _emit_rows(verify.REPORT_HEADER, map(astuple, reports), fmt, out)
        return 0 if all(r.passed for r in reports) else 1

    if args.verb == "compare":
        result = verify.compare_bounds(replace(DEFAULT_GRID, n=args.n, spacing=args.grid))
        if fmt == "json":
            out.write(json.dumps(asdict(result), indent=2) + "\n")
        else:
            _emit_rows(verify.REPORT_HEADER, map(astuple, result.reports), fmt, out)
            if fmt == "table":
                out.write(f"crossovers: {', '.join(f'{c:.12g}' for c in result.crossovers)}\n")
                out.write(f"lower argmax counts: {result.lower_argmax_counts}\n")
                out.write(f"upper argmin counts: {result.upper_argmin_counts}\n")
        return 0 if all(r.passed for r in result.reports) else 1

    if args.verb == "scan":
        grid = replace(SCAN_GRID, n=args.n, spacing=args.grid)
        results = explore.scan_grid(*_scan_axes(args.alpha, args.beta, args.gamma), grid)
        if fmt == "json":
            out.write(json.dumps([r.to_dict() for r in results], indent=2) + "\n")
        else:
            header = ("alpha", "beta", "gamma", "verdict", "evidence_x", "margin")
            rows = [(r.alpha, r.beta, r.gamma, r.verdict.value, r.evidence_x, r.margin) for r in results]
            _emit_rows(header, rows, fmt, out)
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out is None:
            try:
                code = _run(args, sys.stdout)
                sys.stdout.flush()
                return code
            except BrokenPipeError:
                # The reader closed stdout early (`| head`): exit silently, as a shell reports
                # SIGPIPE.  fd 1 goes to devnull so the interpreter's final flush cannot raise again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                return 141
        try:
            fh = open(args.out, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            print(f"error: cannot write --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        with fh:
            return _run(args, fh)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
