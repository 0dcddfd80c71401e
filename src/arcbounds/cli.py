"""Command-line front end.

Verbs: eval, bounds, classify, minimize, verify, compare, scan.  Output is
a human table on a terminal and CSV when piped (override with --format).
CSV and JSON carry full binary64 round-trip precision; tables show six
significant digits.  Every row list goes through one writer, ``_emit``,
in pieces of rows; `compare`'s JSON object and `classify`'s one-line
table are the two outputs that are not row lists.  Exit status: 0
success, 1 verification failure, 2 usage error or output that cannot be
written, 3 domain error, 141 (128 + SIGPIPE) when the reader of stdout
closes the pipe early, as in ``arcbounds bounds ... | head``.

For `verify` and `compare`, ``main`` raises glibc's mmap and trim
thresholds once per process, so that the freed temporaries of one grid
block stay in the heap for the next block instead of faulting in again
(``_MMAP_THRESHOLD``); the library's own functions leave them alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .family import _constants, bound_ratio, classify_regime
from .grids import DEFAULT_GRID, SCAN_GRID, _blocks, _GridTerms
from .sharp import _block_lower_bounds, _block_upper_bounds

__all__ = ["main", "emit_curve"]

# Rows of a `bounds` piece, which `_emit` turns into CSV or JSON text at once.  The kernel's
# temporaries take about 190 bytes a value, so an 11-column piece of 512 rows peaks near 1.1 MB.
# `bounds --full` peaks at 5.2 MB of tracemalloc at any n, while a grid block's rows and terms are
# alive.  1024 rows wrote a 100,000-row curve about 6% faster in process (min of 5) with twice the
# kernel's memory; that is not measured end to end.
_CSV_BLOCK_ROWS = 512

# Text slot of one value before compaction: four uint64 words, 32 bytes, by byte:
#   0 sign | 1-5 "0.000" | 6 d0 | 7 "." | 8-23 d1..d16 | 24 spill | 25-28 "e-XX" | 29 separator.
# Below 10 the point is byte 7, or "0." with its zeros below 1.  From 10 up it goes after d_e inside
# bytes 8-23, and d_e+1..d16 move up a byte, d16 into the spill byte.  Bytes 30 and 31 are never kept.
_G17_WIDTH = 32
_G17_E_MIN = -11  # the kernel's decimal exponents e run from here to 16: 0 <= 16 - e <= 27, so 5**(16 - e) < 2**63
_G17_WORD0 = np.uint64(int.from_bytes(b"-0.000\0.", "little"))

# glibc's malloc thresholds, which main sets once per process for _HEAP_VERBS.  glibc raises its own
# only to the largest mmapped chunk freed so far; with every array one grid block's 128 KB they stay
# near 256 KB, so each block's freed temporaries go back to the kernel and the next block faults them
# in again.  A `verify --claims all` process took about 63,000 minor page faults at glibc's defaults
# and 5,100 with these.  `bounds` and `scan` keep glibc's defaults: with these the benchmark's scan
# peaked 0.9 MB higher, and neither job ran measurably faster.
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 8 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameter numbers in glibc's malloc.h
_HEAP_VERBS = ("verify", "compare")

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
    header, pieces = _curve_blocks(a, n, grid, full=True)
    cols, size = np.empty((n, len(header))), 0  # filled piece by piece: no second copy of the table
    for piece in pieces:
        cols[size : size + len(piece)] = piece
        size += len(piece)
    return header, cols[:size]


def _curve_blocks(a: float, n: int, grid: str, full: bool) -> tuple[tuple[str, ...], Iterable[np.ndarray]]:
    """The header and the row pieces of `bounds`, ``_CSV_BLOCK_ROWS`` rows of a grid block at most, after checking the grid and ``a``."""
    spec = replace(DEFAULT_GRID, n=n, spacing=grid)
    c_lower, c_upper = _constants(a)

    def block(x: np.ndarray) -> np.ndarray:
        terms = _GridTerms(x)
        template = terms.shape(a)
        lower, upper = c_lower * template, c_upper * template
        if not full:
            return np.column_stack((x, lower, terms.arccos, upper))
        a_star_lo, carlson_lo, _, lam = _block_lower_bounds(terms)  # best_lower from two of them
        a_star_up, carlson_up, best = _block_upper_bounds(terms)
        return np.column_stack((x, lower, np.maximum(lam, a_star_lo), a_star_lo, carlson_lo, lam, terms.arccos, a_star_up, carlson_up, best, upper))

    pieces = (rows[start : start + _CSV_BLOCK_ROWS] for rows in map(block, _blocks(spec)) for start in range(0, len(rows), _CSV_BLOCK_ROWS))
    return (CURVE_HEADER if full else ("x", "lower", "arccos", "upper")), pieces


def _fmt(value, digits: int) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


@functools.cache
def _g17_tables():
    """Constant tables of the ``%.17g`` kernel, built on first use so that importing the CLI does no work."""
    pow5 = np.uint64(5) ** np.arange(28, dtype=np.uint64)
    chunk = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chunk_zeros = (chunk == 0)[:, ::-1].cumprod(axis=1).sum(axis=1).astype(np.uint8)  # trailing zeros of each 4-digit chunk
    exponents = np.arange(_G17_E_MIN, 17)
    exp_word = np.frombuffer(b"".join(f"\0e{e:+03d}\0\0\0".encode() for e in exponents), np.uint64)  # bytes 25-28
    # Which bytes a value keeps, by (exponent, trailing zeros among d1..d16, sign).
    e = exponents[:, None, None, None]
    zeros = np.arange(17)[:, None, None]
    r = np.arange(17)  # byte of the digit run, 8 + r; r = 16 is the spill byte
    sci = e < -4  # %g's rule: scientific below 1e-4 (and from 1e17, which the kernel never takes)
    point = np.where(sci, 0, e)  # last digit before the point; negative below 1
    last = np.maximum(16 - zeros, point)  # last digit kept: %g strips trailing zeros after the point
    keep = np.zeros((len(exponents), 17, 2, _G17_WIDTH), bool)
    keep[..., 0] = [False, True]
    keep[..., 1:6] = ~sci & (e < 0) & (np.arange(5) < 1 - e)  # "0." and the zeros after it, below 1
    keep[..., 6] = True
    keep[..., 7:8] = (point == 0) & (last > 0)  # the point goes when no digit follows it
    # From 10 up the run reads d1..d_point, ".", d_point+1..d16 (see _csv_block_text); below, d1..d16.
    keep[..., 8:25] = np.where(point > 0, (r < point) | ((r <= last) & (last > point)), r < last)
    keep[..., 25:29] = sci
    keep[..., 29] = True
    keep = np.packbits(keep, axis=-1, bitorder="little").view(np.uint32).ravel()
    # Source byte of run byte r for a point after d_e, in the slot's bytes 7-23 ("." and d1..d16).
    shift = np.where(r < exponents[:, None], r + 1, np.where(r == exponents[:, None], 0, r))
    return pow5, chunk_zeros, exp_word, keep, shift


def _g17_quotient(m: np.ndarray, p: np.ndarray, s: np.ndarray):
    """floor(m * p / 2**s), its remainder and 2**(s - 1), exactly: m < 2**53, p < 2**63, 1 <= s <= 63.

    The 128-bit product is two uint64 words summed from 32-bit limbs; numpy's uint64 arithmetic wraps.
    """
    m0, m1, p0, p1 = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    mid = m1 * p0 + m0 * p1  # < 2**53 + 2**63
    low = m0 * p0
    lo = low + (mid << 32)
    hi = m1 * p1 + (mid >> 32) + (lo < low)  # lo < low: the low word wrapped
    return (hi << (64 - s)) | (lo >> s), lo & ((1 << s) - 1), 1 << (s - 1)


def _g17_decimal(a: np.ndarray):
    """Exponent e and 17-digit integer n with n * 10**(e - 16) the nearest to each a > 0, ties to even.

    Exact: a = m * 2**(exp2 - 53) with integer m, so a * 10**(16 - e) = m * 5**(16 - e) / 2**s.  None
    when a value needs 16 - e outside 0..27 or s outside 1..63.
    """
    pow5 = _g17_tables()[0]
    frac, exp2 = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    e = np.floor(np.log10(a)).astype(np.int64)  # off by at most one next to a power of ten
    for _ in range(2):
        k = 16 - e
        s = 53 - exp2 - k
        if k.min() < 0 or k.max() > 27 or s.min() < 1 or s.max() > 63:
            return None
        t, rem, half = _g17_quotient(m, pow5[k], s.astype(np.uint64))
        # Correct e from the truncated quotient, never the rounded one: 1e-07 is 9.99999999999999954e-08,
        # whose quotient at e = -7 rounds up to 10**16 but truncates below it, so e = -8 and the text
        # is 9.9999999999999995e-08.
        if t.min() >= 10**16 and t.max() < 10**17:
            n = t + (rem + (t & 1) > half)  # round half to even
            # n = 10**17 would carry into the next exponent.  No double in range gets there: 17 digits
            # tell the doubles next to a power of ten from it.  A block that did would keep the % path.
            return None if n.max() == 10**17 else (e, n)
        e += (t >= 10**17).astype(np.int64) - (t < 10**16)
    return None


def _csv_block_text(block: np.ndarray) -> str | None:
    """``"%.17g"`` text of a 2-D float block, with "," between values and a newline after each row.

    None when a value is not finite and nonzero or ``_g17_decimal`` does not take it.
    """
    v = block.ravel()
    a = np.abs(v)
    if not (a.min() > 0 and a.max() < np.inf):  # a nan fails both
        return None
    decimal = _g17_decimal(a)
    if decimal is None:
        return None
    e, n = decimal
    _, chunk_zeros, exp_word, keep_table, shift = _g17_tables()
    slot = np.empty((*block.shape, 4), np.uint64)
    separators = np.full(block.shape[1], np.uint64(ord(",") << 40))
    separators[-1] = np.uint64(ord("\n") << 40)
    np.bitwise_or(np.take(exp_word, e - _G17_E_MIN).reshape(block.shape), separators, out=slot[..., 3])
    slot = slot.reshape(-1, 4)
    lead = n // np.uint64(10**16)
    n -= lead * np.uint64(10**16)
    slot[:, 0] = ((lead + np.uint64(ord("0"))) << np.uint64(48)) | _G17_WORD0
    # d1..d16 within two uint64 words, one per 8-digit half: split 4+4 into 32-bit lanes, 2+2 into 16-bit
    # lanes and 1+1 into bytes, the leading part in the lower lane, so that the bytes read in print order.
    run = np.empty((len(n), 2), np.uint64)
    np.floor_divide(n, np.uint64(10**8), out=run[:, 0])
    np.subtract(n, run[:, 0] * np.uint64(10**8), out=run[:, 1])
    q = run // np.uint64(10**4)
    run -= q * np.uint64(10**4)
    run <<= np.uint64(32)
    run |= q
    chunk_zeros = np.take(chunk_zeros, run.view(np.uint32))  # of d1-d4, d5-d8, d9-d12, d13-d16
    zeros = chunk_zeros[:, 3].astype(np.int64)
    for j in (2, 1, 0):  # a chunk's zeros count while every chunk after it is all zeros
        zeros += (zeros == 12 - 4 * j) * chunk_zeros[:, j]
    for lane, div, mul, bits, mask in ((16, 100, 10486, 20, 0x7F_0000_007F), (8, 10, 103, 10, 0x000F_000F_000F_000F)):
        q = run * np.uint64(mul)  # (v * mul) >> bits is v // div for every v below div**2
        q >>= np.uint64(bits)
        q &= np.uint64(mask)
        run -= q * np.uint64(div)
        run <<= np.uint64(lane)
        run |= q
    run |= np.uint64(0x3030_3030_3030_3030)
    slot[:, 1:3] = run
    text = slot.view(np.uint8)
    moved = np.flatnonzero(e > 0)  # from 10 up the point goes after d_e, inside the run
    if moved.size:
        text[moved, 8:25] = np.take_along_axis(text[moved, 7:24], shift[e[moved] - _G17_E_MIN], axis=1)
    key = ((e - _G17_E_MIN) * 17 + zeros) * 2 + np.signbit(v)
    keep = np.unpackbits(np.take(keep_table, key).view(np.uint8), bitorder="little").view(bool)
    return str(text.ravel()[keep], "ascii")


def _emit(header: Sequence[str], pieces: Iterable[Sequence[Sequence] | np.ndarray], fmt: str, out) -> None:
    """Write rows, given as pieces that are each a list of rows or a 2-D float array, in one format.

    JSON and CSV write each piece as it comes.  A JSON piece is one ``json.dumps`` of its rows without
    the brackets, joined to the next by ``",\\n"``, so the text is one dump of every row.  A CSV array
    piece goes through the exact ``%.17g`` kernel ``_csv_block_text`` when every value is a normal
    double from 1e-11 to below 2**51; a piece it refuses, and every list piece, goes value by value
    through ``_fmt`` and ``csv.writer``, whose ``f"{v:.17g}"`` shares the kernel's bytes.  Every
    `bounds` column is in range except the family pair within about 1e-7 of a = -1, whose lower bound
    near x = 1 falls below 1e-11.  A table is built whole, because it needs every column's width first.
    """

    def rows(piece) -> Sequence[Sequence]:
        return piece.tolist() if isinstance(piece, np.ndarray) else piece

    if fmt == "json":
        sep = "[\n"
        for piece in pieces:
            if len(piece):
                out.write(sep + json.dumps([dict(zip(header, row)) for row in rows(piece)], indent=2)[2:-2])
                sep = ",\n"
        out.write("[]\n" if sep == "[\n" else "\n]\n")
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for piece in pieces:
            text = _csv_block_text(piece) if isinstance(piece, np.ndarray) else None
            if text is None:
                writer.writerows([_fmt(v, 17) for v in row] for row in rows(piece))
            else:
                out.write(text)
        return
    text_rows = [[_fmt(v, 6) for v in row] for piece in pieces for row in rows(piece)]
    widths = [max(len(h), *(len(r[i]) for r in text_rows)) if text_rows else len(h) for i, h in enumerate(header)]
    for row in (header, *text_rows):
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


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
    p.add_argument("--grid", choices=("uniform", "refined"), default=None, help="spacing of the override grid (needs --n; default refined)")
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
        if not math.isfinite(hi - lo):  # also NaN or infinite at either end
            raise DomainError(f"axis range {text!r} needs finite ends and a finite width hi - lo")
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
        _emit(("a", "x", "value"), [[(args.a, args.x, float(value))]], fmt, out)
        return 0

    if args.verb == "bounds":
        _emit(*_curve_blocks(args.a, args.n, args.grid, args.full), fmt, out)
        return 0

    if args.verb == "classify":
        regime = classify_regime(args.a)
        if fmt == "table":
            out.write(regime.value + "\n")
        else:
            _emit(("a", "regime"), [[(args.a, regime.value)]], fmt, out)
        return 0

    if args.verb == "minimize":
        _emit(tuple(f.name for f in fields(MinimumResult)), [[astuple(find_minimum(args.a))]], fmt, out)
        return 0

    if args.verb == "verify":
        if args.list:
            _emit(("claim_id", "description"), [[(c.claim_id, c.description) for c in verify.CLAIMS]], fmt, out)
            return 0
        ids = None if args.claims.strip() == "all" else [t.strip() for t in args.claims.split(",") if t.strip()]
        grid = None if args.n is None else replace(DEFAULT_GRID, n=args.n, spacing=args.grid or DEFAULT_GRID.spacing)
        reports = verify.run_claims(ids, grid=grid, a=args.a)
        _emit(verify.REPORT_HEADER, [list(map(astuple, reports))], fmt, out)
        return 0 if all(r.passed for r in reports) else 1

    if args.verb == "compare":
        result = verify.compare_bounds(replace(DEFAULT_GRID, n=args.n, spacing=args.grid))
        if fmt == "json":
            out.write(json.dumps(asdict(result), indent=2) + "\n")
        else:
            _emit(verify.REPORT_HEADER, [list(map(astuple, result.reports))], fmt, out)
            if fmt == "table":
                out.write(f"crossovers: {', '.join(f'{c:.12g}' for c in result.crossovers)}\n")
                out.write(f"lower argmax counts: {result.lower_argmax_counts}\n")
                out.write(f"upper argmin counts: {result.upper_argmin_counts}\n")
        return 0 if all(r.passed for r in result.reports) else 1

    if args.verb == "scan":
        grid = replace(SCAN_GRID, n=args.n, spacing=args.grid)
        results = explore.scan_grid(*_scan_axes(args.alpha, args.beta, args.gamma), grid)
        # every field in JSON, the first six in CSV and the table; read from the attributes, because
        # asdict and astuple deep-copy each record
        width = None if fmt == "json" else 6
        header = tuple(f.name for f in fields(explore.ScanClassification))[:width]
        rows = [(r.alpha, r.beta, r.gamma, r.verdict.value, r.evidence_x, r.margin, r.witness_down, r.witness_up, r.error, r.note)[:width] for r in results]
        _emit(header, [rows], fmt, out)
        return 0

    raise AssertionError(f"unhandled verb {args.verb!r}")


@functools.cache
def _keep_blocks_in_heap() -> None:
    """Set glibc's mmap and trim thresholds, once; skipped where the C library has no mallopt."""
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open by None
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.verb in _HEAP_VERBS:
        _keep_blocks_in_heap()
    if args.verb == "verify" and args.grid is not None and args.n is None:
        print("error: verify --grid sets the spacing of the --n grid, so it needs --n", file=sys.stderr)
        return 2
    try:
        if args.out is None:
            try:
                code = _run(args, sys.stdout)
                sys.stdout.flush()
                return code
            except OSError as exc:
                # fd 1 goes to devnull so the interpreter's final flush of stdout cannot raise again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                if isinstance(exc, BrokenPipeError):
                    return 141  # the reader closed stdout early (`| head`): exit silently, as a shell reports SIGPIPE
                raise
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
    except OSError as exc:  # a failed write, flush or close: exit 1 would read as a failed verification
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
