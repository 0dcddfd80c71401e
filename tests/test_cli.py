import ast
import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcbounds as ab
from arcbounds import cli, grids
from arcbounds.cli import emit_curve, main
from arcbounds.explore import MAX_SCAN_TRIPLES, scan_grid
from arcbounds.grids import MAX_GRID_POINTS, GridSpec
from arcbounds.verify import REPORT_HEADER
from conftest import scan_record


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "0", "--x", "0.5", "--format", "csv")
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert float(row["value"]) == pytest.approx(1.8137993642342179, rel=1e-14)

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--a", "0", "--x", "1.5")
        assert code == 3
        assert "error:" in err

    def test_negative_exponent_form_value(self, capsys):
        code, spaced, _ = run_cli(capsys, "eval", "--a", "-2.5e-1", "--x", "0.5", "--format", "csv")
        assert code == 0
        _, joined, _ = run_cli(capsys, "eval", "--a=-2.5e-1", "--x", "0.5", "--format", "csv")
        assert spaced == joined

    def test_default_format_when_piped_is_csv(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "0", "--x", "0.5")
        assert code == 0
        assert out.splitlines()[0] == "a,x,value"


class TestClassify:
    def test_boundary_is_decreasing(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--a", "2.8284271247461903", "--format", "table")
        assert code == 0
        assert out.strip() == "Decreasing"

    def test_increasing_below_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--a", "2.5", "--format", "table")
        assert code == 0
        assert out.strip() == "Increasing"


class TestBounds:
    def test_rows_and_containment(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "0", "--n", "50", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 50
        for row in rows:
            x, lo, acx, up = (float(row[k]) for k in ("x", "lower", "arccos", "upper"))
            tol = 4.0 * np.spacing(acx)
            assert lo <= acx + tol and acx <= up + tol

    def test_round_trip_reverification(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "2.8284271247461903", "--n", "200", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        xs = np.array([float(r["x"]) for r in rows])
        lower, upper = ab.bound_arrays(ab.TWO_SQRT2, xs)
        for row, lo, up in zip(rows, lower, upper):
            assert float(row["lower"]) == lo
            assert float(row["upper"]) == up

    def test_full_curve_columns_and_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--a", "2.8284271247461903", "--n", "500", "--full", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0].keys()) == [
            "x", "family_lower", "best_lower", "a_star_lower", "carlson_lower",
            "lambda_lower", "arccos", "a_star_upper", "carlson_upper", "best_upper", "family_upper",
        ]
        lower_cols = ("family_lower", "best_lower", "a_star_lower", "carlson_lower", "lambda_lower")
        upper_cols = ("a_star_upper", "carlson_upper", "best_upper", "family_upper")
        for row in rows:
            acx = float(row["arccos"])
            tol = 4.0 * np.spacing(acx)
            for c in lower_cols:
                assert float(row[c]) <= acx + tol, c
            for c in upper_cols:
                assert float(row[c]) >= acx - tol, c

    def test_curve_minimum_size(self):
        header, cols = emit_curve(0.0, 2)
        assert len(header) == 11
        assert cols.shape == (2, 11)
        assert cols[0, 0] < cols[1, 0]


def percent_csv(block):
    return ((",".join(["%.17g"] * block.shape[1]) + "\n") * len(block)) % tuple(block.ravel().tolist())


def row_writer_csv(header, cols):
    """The oracle of every CSV float array: the header, then `%` of each value."""
    return ",".join(header) + "\n" + percent_csv(cols)


def kernel_mismatch(block):
    """None when the kernel takes ``block`` and writes ``percent_csv``'s text, else the first row that differs.

    pytest's diff of two texts of a few hundred kB takes minutes, so a failure shows one row.
    """
    text, want = cli._csv_block_text(block), percent_csv(block)
    if text == want:
        return None
    if text is None:
        return "the % path"
    return next(((k, got, row) for k, (got, row) in enumerate(zip(text.split("\n"), want.split("\n"))) if got != row), "length")


def bounds_full_peak(fmt, n):
    """The tracemalloc peak of `bounds --full` to devnull, after a warm-up run."""
    argv = ["bounds", "--a", "1", "--n", str(n), "--full", "--format", fmt, "--out", os.devnull]
    assert main(argv) == 0  # warm-up: one-time first-call allocations are not counted below
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def decimal_e_z(v):
    """The decimal exponent of v's 17 digits and how many of d1..d16 are trailing zeros."""
    mantissa, exponent = f"{abs(v):.16e}".split("e")
    digits = mantissa.replace(".", "")
    return int(exponent), len(digits) - len(digits.rstrip("0"))


def short_double(e, z):
    """The first double whose 17 digits are 17 - z significant ones at exponent e, or None."""
    sig = 17 - z
    for c in range(10 ** (sig - 1), 10**sig):
        v = float(f"{c}e{e - sig + 1}")
        if c % 10 and decimal_e_z(v) == (e, z):
            return v
    return None


# Values whose %.17g text ends in zeros, which floats drawn at random rarely do: short decimals (their
# nearest doubles, integers below 2**51 among them) and dyadic m/2**k.
short_values = st.one_of(
    st.builds(lambda c, p: float(f"{c}e{p}"), st.integers(1, 99_999), st.integers(-16, 15)),
    st.builds(lambda m, k: m / 2**k, st.integers(1, 2**20), st.integers(0, 60)),
).flatmap(lambda v: st.sampled_from([v, -v]))


def csv_blocks(cols):
    return [cols[start : start + cli._CSV_BLOCK_ROWS] for start in range(0, len(cols), cli._CSV_BLOCK_ROWS)]


def emitted(header, pieces, fmt):
    out = io.StringIO()
    cli._emit(header, pieces, fmt, out)
    return out.getvalue()


def block_writer_csv(header, cols):
    return emitted(header, csv_blocks(cols), "csv")


class TestBlockCsv:
    """``_emit``'s CSV of a float array in pieces equals `%` of every value, byte for byte."""

    def test_special_values(self):
        values = [
            math.nan, -math.nan, np.copysign(math.nan, -1.0), math.inf, -math.inf, 0.0, -0.0,
            5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
            0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 123456789012345678.0,
            1e16, 1e-5, 1e-4, 1.0, 2.0**-1074 * 3,
        ]
        cols = np.array(values + [0.5]).reshape(-1, 3)
        text = block_writer_csv(("p", "q", "r"), cols)
        assert text == row_writer_csv(("p", "q", "r"), cols)
        assert "nan,nan,nan\ninf,-inf,0\n-0," in text

    @pytest.mark.parametrize("rows", [1, 2, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("decades", [(-300, 300), (-10, 14)])  # the % fallback, the numpy kernel
    def test_row_counts_around_the_block_size(self, rows, decades):
        rng = np.random.default_rng(rows)
        cols = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(*decades, (rows, 4))
        text = block_writer_csv(("a", "b", "c", "d"), cols)
        assert text == row_writer_csv(("a", "b", "c", "d"), cols)
        assert text.count("\n") == rows + 1

    @pytest.mark.parametrize("grid", ["uniform", "refined"])
    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("block", [grids._BLOCK, 200])  # one grid block, or three that cut the 512-row pieces
    def test_bounds_output(self, capsys, monkeypatch, grid, full, block):
        n = cli._CSV_BLOCK_ROWS + 1
        header, cols = emit_curve(2.7, n, grid)  # the oracle: one grid block
        monkeypatch.setattr(grids, "_BLOCK", block)
        if not full:
            header, cols = ("x", "lower", "arccos", "upper"), cols[:, [0, 1, 6, 10]]
        code, out, err = run_cli(capsys, "bounds", "--a", "2.7", "--n", str(n), "--grid", grid, *(["--full"] if full else []), "--format", "csv")
        assert (code, err) == (0, "")
        assert out == row_writer_csv(header, cols)

    @pytest.mark.parametrize("grid", ["uniform", "refined"])
    @pytest.mark.parametrize("a", [1.0, 2.7, 3.0])  # increasing, interior minimum, decreasing
    def test_bounds_full_equals_the_public_kernels(self, capsys, monkeypatch, grid, a):
        # an oracle that shares no code with `bounds` past the grid: the public kernels on the whole of
        # GridSpec.points(), each value through %; grid blocks of 1000 points cut the rows three times
        n = 3000
        x = GridSpec(ab.DEFAULT_GRID.lo, ab.DEFAULT_GRID.hi, n, grid).points()
        family_lo, family_up = ab.bound_arrays(a, x)
        a_star_lo, a_star_up = ab.a_star_pair(x)
        carlson_lo, carlson_up = ab.carlson_pair(x)
        lam = ab.lambda_lower(x)
        cols = (x, family_lo, np.maximum(lam, a_star_lo), a_star_lo, carlson_lo, lam, ab.arccos_stable(x), a_star_up, carlson_up, ab.best_upper(x), family_up)
        header = "x,family_lower,best_lower,a_star_lower,carlson_lower,lambda_lower,arccos,a_star_upper,carlson_upper,best_upper,family_upper\n"
        expected = header + "".join(",".join("%.17g" % v for v in row) + "\n" for row in zip(*(c.tolist() for c in cols)))
        monkeypatch.setattr(grids, "_BLOCK", 1000)
        code, out, err = run_cli(capsys, "bounds", "--a", repr(a), "--n", str(n), "--grid", grid, "--full", "--format", "csv")
        assert (code, err) == (0, "")
        # the first differing row, not a diff of the two texts, which takes minutes at this size
        assert next(((k, got, want) for k, (got, want) in enumerate(zip(out.split("\n"), expected.split("\n"))) if got != want), None) is None
        assert len(out) == len(expected)

    def test_kernel_matches_percent(self):
        """The numpy %.17g kernel against `%` on 1.15M values, block by block."""
        rng = np.random.default_rng(20)
        tens = 10.0 ** np.arange(-11, 18)
        edges = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), [1e-7, 1e-6]])
        edges = np.concatenate([edges, 0.99999999999999 * edges, 1.00000000000001 * edges])  # %g's switches at 1e-4, 1e17
        # sorted, so each block holds one band of magnitudes and the kernel takes all but the top ones
        loguniform = np.sort(np.exp(rng.uniform(math.log(1e-11), math.log(1e17), 1_100_000)))
        loguniform *= rng.choice([-1.0, 1.0], loguniform.size)
        ties = (2 * rng.integers(2**51, 2**52, 50_000) + 1) / 4.0  # n/4 for odd n in [2**52, 2**53): ties at 17 digits
        specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308]
        blocks = [np.array([[v]]) for v in np.concatenate([edges, -edges])]  # one edge value a block
        blocks += csv_blocks(loguniform.reshape(-1, 10)) + csv_blocks(ties.reshape(-1, 10))
        taken = 0
        for block in blocks:
            text = cli._csv_block_text(block)
            assert text is None or text == percent_csv(block)
            taken += 0 if text is None else block.size
        for v in specials:
            assert cli._csv_block_text(np.array([[v]])) is None
        assert all(cli._csv_block_text(np.array([[v]])) is not None for v in edges[(edges > 1e-11) & (edges < 1e15)])
        assert cli._csv_block_text(ties.reshape(-1, 10)) is not None
        assert cli._csv_block_text(np.array([[1e-7, -1e-6]])) == "9.9999999999999995e-08,-9.9999999999999995e-07\n"
        assert taken >= 1_000_000

    def test_every_exponent_and_trailing_zero_count(self):
        # Each (e, z) with e from -11 to 15 and z trailing zeros among d1..d16, from 0 to 16, at its
        # first short double; from e = 1 the point sits inside the digit run.  No double reaches
        # d * 10**e with one digit d for e in -7..-5: 1e-07 prints 9.9999999999999995e-08.
        found = {(e, z): short_double(e, z) for e in range(-11, 16) for z in range(17)}
        assert [ez for ez, v in found.items() if v is None] == [(-7, 16), (-6, 16), (-5, 16)]
        ints = [c * 10**j for c in (1, 7, 123, 98765, 2**33 + 1) for j in range(16) if c * 10**j < 2**51]
        dyadic = [m / 2**k for m in (1, 3, 5, 11, 2**20 + 1, 2**40 + 3, 2**52 + 1) for k in range(90)]
        values = np.array([v for v in [*found.values(), *ints, *dyadic] if v is not None])
        values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
        values = values[(values > 1e-11) & (values < 2**51)]
        assert {decimal_e_z(v) for v in values} == set(found) - {(-7, 16), (-6, 16), (-5, 16)}
        values = np.concatenate([values, -values])
        for block in (values.reshape(-1, 1), values[: len(values) // 9 * 9].reshape(-1, 9)):
            assert kernel_mismatch(block) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(-1e15, 1e15), short_values), min_size=1, max_size=12))
    def test_kernel_property(self, values):
        # pytest turns a RuntimeWarning into an error: the kernel must raise none, in range or out
        cols = np.array(values)
        for block in (cols.reshape(-1, 1), cols.reshape(1, -1)):
            text = cli._csv_block_text(block)
            assert text is None or text == percent_csv(block)

    @pytest.mark.parametrize("grid", ["uniform", "refined"])
    @pytest.mark.parametrize("a", [1.3, 2.7, 4.0, -0.999999])
    def test_curve_takes_no_fallback_block(self, a, grid):
        # 20,001 rows span the same magnitudes as the benchmark's 100,000: the extremes sit at the grid's ends
        _, cols = emit_curve(a, 20_001, grid)
        assert a > 0 or cols.max() > 10  # from 10 up the kernel moves the point into the digit run
        assert [m for m in map(kernel_mismatch, csv_blocks(cols)) if m] == []

    def test_fallback_next_to_a_minus_one(self):
        # within about 1e-7 of a = -1 the family lower bound near x = 1 falls below 1e-11
        _, cols = emit_curve(-0.99999995, 2000, "refined")
        assert [cli._csv_block_text(block) is None for block in csv_blocks(cols)] == [False, False, False, True]

    def test_fallback_block_mid_array(self):
        header, cols = emit_curve(2.7, 3 * cli._CSV_BLOCK_ROWS, "refined")
        cols[cli._CSV_BLOCK_ROWS + 5, 4] = math.nan
        assert [cli._csv_block_text(block) is None for block in csv_blocks(cols)] == [False, True, False]
        assert block_writer_csv(header, cols) == row_writer_csv(header, cols)

    def test_kernel_peak_memory_per_value(self):
        # One 512 x 11 piece: the 32-byte slots, their keep mask and the digit words read about 190
        # bytes a value; the 52-byte layout with its np.compress pass read 380.
        _, cols = emit_curve(2.7, cli._CSV_BLOCK_ROWS, "refined")
        cli._csv_block_text(cols)  # warm-up: the constant tables are built on first use
        tracemalloc.start()
        try:
            assert cli._csv_block_text(cols) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / cols.size <= 256.0

    def test_peak_memory_per_row(self):
        # The peak is flat in n, 5.2 MB at 50,000 rows and at 200,000 (105 and 27 bytes a row): one
        # grid block's rows and terms and a 512-row piece of kernel buffers.  The whole grid, the
        # curve array and emit_curve's temporaries took 153 bytes a row.
        n = 50_000
        # about 1450 bytes a row with a Python float and a string alive per value
        assert bounds_full_peak("csv", n) / n <= 200.0

    def test_json_peak_memory(self):
        # One 512-row piece of dicts and its text add about 1 MB to the rows and terms of the grid
        # block (439 bytes a row at 5,000 rows, 269 at 10,000).  The encoder is pure Python, so a
        # small n keeps the traced run under a second.
        n = 5_000
        # one json.dumps of every row took 3410 bytes a row
        assert bounds_full_peak("json", n) <= 200.0 * n + 2**21


@pytest.mark.parametrize("rows", [cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1])
def test_block_json_equals_one_dump(rows):
    header, cols = emit_curve(2.7, rows, "uniform")
    cols[rows // 2, 3], cols[rows // 2 + 1, 5], cols[rows // 2 + 2, 7] = math.nan, math.inf, -0.0
    whole = json.dumps([dict(zip(header, row)) for row in cols.tolist()], indent=2) + "\n"
    assert emitted(header, csv_blocks(cols), "json") == whole
    assert ": NaN," in whole and ": Infinity," in whole and ": -0.0," in whole


# Report rows whose fields need CSV quoting; float rows that the kernel takes (rows 0-1 and 3-5) and
# refuses (row 2), so that each cut mixes the kernel and the per-value path differently.
NOTE_ROWS = [
    ("a", True, 3, 0.5, 1e-9, 'comma, and "quotes"'),
    ("b", False, 0, -math.inf, math.nan, "plain"),
    ("c,d", True, 10**6, 1.0 / 3.0, 1.0 - 2.0**-53, 'a "quoted" note'),
    ("e", False, -1, -0.0, 5e-324, "line, with, commas"),
]
FLOAT_ROWS = np.array([[1e-9, 0.5, 3.0], [2.5e5, -7.0, 0.1], [math.nan, 1e300, -0.0], [1.0 / 3.0, 2.0, 1e-5], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])


def cut(rows, parts):
    """``rows`` as ``parts`` pieces, each non-empty."""
    edges = np.linspace(0, len(rows), parts + 1).astype(int)
    return [rows[lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_emit_bytes_do_not_depend_on_the_pieces(fmt):
    header = REPORT_HEADER
    one = emitted(header, [NOTE_ROWS], fmt)
    assert [emitted(header, cut(NOTE_ROWS, parts), fmt) for parts in (2, 3)] == [one, one]
    if fmt == "csv":
        assert list(csv.reader(io.StringIO(one))) == [list(header), *([cli._fmt(v, 17) for v in row] for row in NOTE_ROWS)]
    if fmt == "json":
        assert one == json.dumps([dict(zip(header, row)) for row in NOTE_ROWS], indent=2) + "\n"
    # a float array gives the same bytes in array pieces, whole or cut, and in list pieces
    header = ("p", "q", "r")
    whole = emitted(header, [FLOAT_ROWS], fmt)
    assert [emitted(header, cut(FLOAT_ROWS, parts), fmt) for parts in (2, 3)] == [whole, whole]
    assert emitted(header, [FLOAT_ROWS.tolist()], fmt) == whole
    if fmt == "csv":
        assert whole == row_writer_csv(header, FLOAT_ROWS)


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_emit_without_rows(fmt):
    assert emitted(("p", "q"), [], fmt) == emitted(("p", "q"), [[]], fmt) == {"csv": "p,q\n", "json": "[]\n", "table": "p  q\n"}[fmt]


def test_rows_are_written_only_by_emit():
    # _emit is the one writer of row lists: every csv.writer and json.dumps in the CLI sits in it, but
    # for the dump of compare's JSON object, which is not a row list
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    funcs = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}

    def owner(node):  # the innermost function around node
        around = [f for f in funcs.values() if f.lineno <= node.lineno <= f.end_lineno]
        return max(around, key=lambda f: f.lineno).name if around else "<module>"

    uses = [(owner(n), ast.unparse(n)) for n in ast.walk(tree) if isinstance(n, ast.Attribute) and ast.unparse(n) in ("csv.writer", "json.dumps")]
    assert sorted(name for f, name in uses if f == "_emit") == ["csv.writer", "json.dumps"]
    assert [use for use in uses if use[0] != "_emit"] == [("_run", "json.dumps")]
    assert "json.dumps(asdict(result), indent=2)" in ast.unparse(funcs["_run"])


def _cli_subprocess_env():
    src = str(Path(ab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestWriteFailure:
    """A failed write exits 2 with one line, never 1 ("verification failed") with a traceback."""

    def test_out_file(self, capsys):
        for argv in (["bounds", "--a", "1", "--n", "10"], ["verify", "--claims", "gain-maximizer"]):
            code, out, err = run_cli(capsys, *argv, "--out", "/dev/full")
            assert (code, out) == (2, "")
            assert err == "error: cannot write output: No space left on device\n"

    @pytest.mark.parametrize("n", ["10", "100000"])  # written at the final flush, or while running
    def test_stdout(self, n):
        argv = [sys.executable, "-m", "arcbounds.cli", "bounds", "--a", "1", "--n", n, "--full", "--format", "csv"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=_cli_subprocess_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write output: No space left on device\n"


# One CLI run in a fresh process, which then prints its exit code and its own peak RSS in KiB.
# It reads VmHWM, the high-water mark of its own address space: Linux carries ru_maxrss across
# fork and exec, so that figure would start at the test process's own peak.
_PEAK_RSS = """
import os, re, sys
from arcbounds.cli import main
code = main([*sys.argv[1:], "--out", os.devnull])
with open("/proc/self/status") as status:
    print(code, re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1))
"""


def _peak_rss_mb(*argv):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True, env=_cli_subprocess_env(), timeout=120, check=True)
    code, kib = map(int, proc.stdout.split())
    assert code == 0
    return kib / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_compare_peak_rss_is_flat_in_n():
    # the grid streams in blocks, so ten times the points costs no memory: 34.2 and 34.4 MB on
    # x86-64 Linux, where building the grid whole took 34.7 and 75.8 MB
    peaks = [_peak_rss_mb("compare", "--n", n) for n in ("200000", "2000000")]
    assert abs(peaks[1] - peaks[0]) < 8.0, peaks


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_aux_claims_peak_rss_is_flat_in_n():
    # the aux claims sweep their grid in blocks: 32.0 and 32.1 MB on x86-64 Linux, where their whole
    # arrays took 41.7 and 137.4 MB
    argv = ("verify", "--claims", "aux-slope-limits,aux-quadratic-roots,aux-sign-regimes", "--n")
    peaks = [_peak_rss_mb(*argv, n) for n in ("200000", "2000000")]
    assert abs(peaks[1] - peaks[0]) < 8.0, peaks


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_bounds_peak_rss_is_flat_in_n():
    # the rows stream in grid blocks, so ten times the rows costs about 1 MB: 36.6 and 37.6 MB on
    # x86-64 Linux, where the whole 11-column array took 38.8 and 99.7 MB
    peaks = [_peak_rss_mb("bounds", "--a", "1", "--full", "--format", "csv", "--n", n) for n in ("50000", "500000")]
    assert abs(peaks[1] - peaks[0]) < 8.0, peaks


# One `verify --claims all` in a fresh process, which then prints its exit code and its minor page faults.
_MINOR_FAULTS = """
import os, resource
from arcbounds.cli import main
code = main(["verify", "--claims", "all", "--out", os.devnull])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


def _has_mallopt():
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _has_mallopt(), reason="sets glibc's malloc thresholds")
def test_verify_keeps_block_memory_in_the_heap():
    # main raises glibc's mmap and trim thresholds, so a block's freed temporaries stay in the heap for the
    # next block: about 5,100 minor faults in all on x86-64 Linux, 63,000 at glibc's default thresholds
    proc = subprocess.run([sys.executable, "-c", _MINOR_FAULTS], capture_output=True, text=True, env=_cli_subprocess_env(), timeout=120, check=True)
    code, faults = map(int, proc.stdout.split())
    assert code == 0
    assert faults < 15_000, faults


def _readme_commands():
    """The commands of README's "Command line" block, each as an argv without `arcbounds` and redirection."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1 : argv.index(">") if ">" in argv else None] for argv in argvs if argv]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path):
    # the documented examples cannot rot silently
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0


def test_closed_stdout_pipe_exits_141_silently():
    argv = [sys.executable, "-m", "arcbounds.cli", "bounds", "--a", "1", "--n", "200000", "--full", "--format", "csv"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_subprocess_env())
    try:
        assert proc.stdout.readline().startswith(b"x,family_lower,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 141
    assert err == b""


class TestMinimize:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--a", "2.7", "--format", "json")
        assert code == 0
        obj = json.loads(out)[0]
        assert obj["x0"] == pytest.approx(0.20427529990046087, abs=1e-9)
        assert obj["residual"] < 1e-12

    def test_regime_error(self, capsys):
        code, _, err = run_cli(capsys, "minimize", "--a", "2.5")
        assert code == 3
        assert "interval" in err


class TestVerify:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list", "--format", "csv")
        assert code == 0
        ids = [r["claim_id"] for r in csv.DictReader(io.StringIO(out))]
        assert "family-bracket" in ids and "scan-slice" in ids

    def test_single_claim_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claims", "family-bracket", "--a", "0", "--n", "20001", "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["passed"] is True

    @pytest.mark.parametrize("n", ["200000", "1000000"])
    def test_regime_decreasing_passes_on_large_refined_grids(self, capsys, n):
        # Next to x = 1 - 1e-9 a difference of two ratio values computes to +4.4e-15 where the
        # true one is negative: each value carries its own few ulp, so the tolerance covers both.
        code, out, _ = run_cli(capsys, "verify", "--claims", "regime-decreasing", "--n", n, "--format", "csv")
        assert [r["passed"] for r in csv.DictReader(io.StringIO(out))] == ["true", "true"]
        assert code == 0

    def test_unknown_claim_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claims", "nope")
        assert code == 3
        assert "unknown claim" in err

    def test_csv_quoting_parses(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--claims", "family-bracket", "--a", "0", "--n", "20001", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["passed"] == "true"
        # comma-bearing notes must stay inside one quoted field
        assert None not in rows[0]
        assert "," in rows[0]["notes"]

    def test_csv_notes_match_json(self, capsys):
        code, out_csv, _ = run_cli(capsys, "verify", "--claims", "gain-maximizer", "--n", "20001", "--format", "csv")
        assert code == 0
        code, out_json, _ = run_cli(capsys, "verify", "--claims", "gain-maximizer", "--n", "20001", "--format", "json")
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)
        assert [r["notes"] for r in csv_rows] == [r["notes"] for r in json_rows]

    @pytest.mark.parametrize(
        "a, present, absent",
        [
            ("1", {"regime-Increasing[a=1]"}, ("regime-Decreasing", "regime-InteriorMinimum", "minimum-floor")),
            ("2.7", {"regime-InteriorMinimum[a=2.7000000000000002]", "minimum-floor"}, ("regime-Increasing", "regime-Decreasing")),
        ],
    )
    def test_a_without_claims_runs_the_claims_that_admit_it(self, capsys, a, present, absent):
        code, out, _ = run_cli(capsys, "verify", "--a", a, "--n", "2001", "--format", "csv")
        assert code == 0
        ids = {r["claim_id"] for r in csv.DictReader(io.StringIO(out))}
        assert present <= ids
        assert not [cid for cid in ids if cid.startswith(absent)]

    @pytest.mark.parametrize("a", ["1e6", "1e300"])
    def test_endpoint_constants_scale_with_a(self, capsys, a):
        # the limits hold for every a; the thresholds grow with the constants
        code, out, _ = run_cli(capsys, "verify", "--claims", "endpoint-constants", "--a", a, "--format", "csv")
        assert code == 0, out


class TestCompare:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "20001", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] > 0
        assert len(payload["reports"]) == 3
        assert payload["crossovers"][0] == pytest.approx(0.34090601619136765, abs=1e-9)
        assert payload["upper_argmin_counts"]["best"] == payload["samples"]


# The reports of the blocked claims at the smallest grids, committed as the literals the whole-array
# evaluation wrote.  On 2 and 3 points one block is the whole grid, shorter than a difference check's
# block of _BLOCK + 1 points, and the one crossover cell of sharp-noninclusion spans the 2-point grid.
_SHARP_SMALL = (
    "sharp-lower-dominance,true,{n},-6.7762635780344027e-21,0.99999999900000003,lambda bound >= classical and 1+sqrt(3) lower bounds\n"
    "sharp-upper-dominance,true,{n},7.5907704601141379e-17,0.99999999900000003,doubly-sharp upper bound <= both instance upper bounds\n"
    "sharp-noninclusion,true,{n},{margin},0.34090601617740635,lambda wins by {lead} at x={x}; pi^2 bound wins by 0.00157695 at x=1e-09;"
    " crossovers at ['0.340906016177']\n"
)
SMALL_N_REPORTS = {
    ("aux-slope-limits", "2"): "aux-slope-limits,true,10,8.3417363186226445e-15,0.99999999900000003,derivative-apparatus limits and shapes; tightest: gap positive\n",
    ("aux-slope-limits", "3"): "aux-slope-limits,true,12,8.3417363186226445e-15,0.99999999900000003,derivative-apparatus limits and shapes; tightest: gap positive\n",
    ("aux-quadratic-roots", "2"): "aux-quadratic-roots,true,208,9.9997497290350954e-11,0.98499999999999999,roots of the slope quadratic; tightest: high root annihilates the quadratic\n",
    ("aux-quadratic-roots", "3"): "aux-quadratic-roots,true,210,9.9997497290350954e-11,0.98499999999999999,roots of the slope quadratic; tightest: high root annihilates the quadratic\n",
    ("aux-sign-regimes", "2"): "aux-sign-regimes,true,22,1.4210908925310628e-14,0.99999999900000003,one-signedness of the quadratic and the slope term; tightest: slope term negative at a=2.82843\n",
    ("aux-sign-regimes", "3"): "aux-sign-regimes,true,33,1.4210908925310628e-14,0.99999999900000003,one-signedness of the quadratic and the slope term; tightest: slope term negative at a=2.82843\n",
    ("sharp-dominance", "2"): _SHARP_SMALL.format(n=2, margin="9.878052662808985e-08", lead="9.87805e-08", x="0.999999999"),
    ("sharp-dominance", "3"): _SHARP_SMALL.format(n=3, margin="0.00053888245713240579", lead="0.000538882", x="0.5"),
}


@pytest.mark.parametrize("claim_id, n", SMALL_N_REPORTS)
def test_blocked_claims_at_the_smallest_grids(capsys, claim_id, n):
    code, out, err = run_cli(capsys, "verify", "--claims", claim_id, "--n", n, "--format", "csv")
    assert (code, err) == (0, "")
    assert out == ",".join(REPORT_HEADER) + "\n" + SMALL_N_REPORTS[claim_id, n]


def test_compare_on_two_points(capsys):
    code, out, err = run_cli(capsys, "compare", "--n", "2", "--format", "json")
    assert (code, err) == (0, "")
    sharp = list(csv.reader(io.StringIO(SMALL_N_REPORTS["sharp-dominance", "2"])))
    assert json.loads(out) == {
        "samples": 2,
        "reports": [{**dict(zip(REPORT_HEADER, row)), "passed": True, "samples": 2, "worst_margin": float(row[3]), "worst_x": float(row[4])} for row in sharp],
        "crossovers": [0.34090601617740635],
        "lower_argmax_counts": {"a-star": 1, "carlson": 1, "one-plus-sqrt3": 0, "lambda": 0},
        "upper_argmin_counts": {"a-star": 0, "carlson": 0, "best": 2},
    }


class TestScan:
    def test_csv_columns_and_verdicts(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "0.5", "--beta", "0.5",
            "--gamma", "0,2.6597923663254872,2.5,2.8284271247461903",
            "--n", "5001", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0].keys()) == ["alpha", "beta", "gamma", "verdict", "evidence_x", "margin"]
        assert [r["verdict"] for r in rows] == ["Increasing", "Increasing", "Increasing", "Decreasing"]

    def test_range_axis(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "0:1:3",
            "--n", "2001", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["gamma"]) for r in rows] == [0.0, 0.5, 1.0]

    def test_negative_range_axis_without_equals(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "-0.9:4:3",
            "--n", "2001", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["gamma"]) for r in rows] == pytest.approx([-0.9, 1.55, 4.0])

    @pytest.mark.parametrize(
        "alpha, beta, gamma, verdicts",
        [
            ("0:1e308:3", "0.5", "1", ["Decreasing", "Error", "Error"]),
            ("0.5", "1e308", "1", ["Error"]),
        ],
    )
    def test_overflow_or_underflow_recorded_without_warnings(self, capsys, alpha, beta, gamma, verdicts):
        code, out, err = run_cli(capsys, "scan", "--alpha", alpha, "--beta", beta, "--gamma", gamma, "--format", "json")
        assert (code, err) == (0, "")
        results = json.loads(out)
        assert [r["verdict"] for r in results] == verdicts
        assert all("overflow or underflow" in r["error"] for r in results if r["verdict"] == "Error")

    def test_json_equals_one_dump_of_the_records(self, capsys):
        # every field of every record, byte for byte one dump of the records: an
        # overflow Error row, a singular triple and the NaN witnesses of a monotone verdict
        code, out, err = run_cli(capsys, "scan", "--alpha", "0.5,1e308", "--beta", "0.5", "--gamma=-1.2,1.0", "--n", "2001", "--format", "json")
        results = scan_grid([0.5, 1e308], [0.5], [-1.2, 1.0], replace(ab.SCAN_GRID, n=2001))
        assert (code, err, out) == (0, "", json.dumps([scan_record(r) for r in results], indent=2) + "\n")
        assert [r.verdict.value for r in results] == ["Error", "Increasing", "Error", "Error"]
        assert "vanishes" in results[0].error and "overflow" in results[3].error and '"witness_down": NaN' in out

    def test_singular_triple_recorded(self, capsys):
        # the = form also takes a value that starts with a dash
        code, out, _ = run_cli(
            capsys, "scan", "--alpha", "0.5", "--beta", "0.5", "--gamma=-1.2,1.0",
            "--n", "2001", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)
        assert results[0]["verdict"] == "Error"
        assert "vanishes" in results[0]["error"]
        assert results[1]["verdict"] == "Increasing"


class TestPlumbing:
    def test_usage_error_exit_two(self, capsys):
        assert run_cli(capsys, "bogus-verb")[0] == 2
        assert run_cli(capsys, "eval", "--a", "0")[0] == 2
        assert run_cli(capsys, "eval", "--a", "zero", "--x", "0.5")[0] == 2

    def test_verify_grid_without_n_is_usage_error(self, capsys):
        # --grid sets the spacing of the --n override grid; alone it would be ignored
        code, out, err = run_cli(capsys, "verify", "--claims", "family-bracket", "--grid", "uniform", "--a", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "--n" in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_out_file_lf_only(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code = main(["bounds", "--a", "0", "--n", "10", "--format", "csv", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").splitlines()[0] == "x,lower,arccos,upper"

    def test_out_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        main(["eval", "--a", "1", "--x", "0.25", "--format", "csv", "--out", str(path)])
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "eval", "--a", "1", "--x", "0.25", "--format", "csv")
        assert code == 0
        assert path.read_text(encoding="utf-8") == out

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "f.csv"
        code, out, err = run_cli(capsys, "bounds", "--a", "1", "--n", "3", "--out", str(target))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not target.parent.exists()

    def test_idempotent_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "bounds", "--a", "0.5", "--n", "64", "--format", "csv")
        _, second, _ = run_cli(capsys, "bounds", "--a", "0.5", "--n", "64", "--format", "csv")
        assert first == second

    def test_table_format_six_digits(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--a", "0", "--x", "0.5", "--format", "table")
        assert code == 0
        assert "1.8138" in out
        assert "1.8137993642342" not in out


BAD_INPUTS = [
    (("verify", "--claims", "regime-decreasing", "--a", "2.5"), "'regime-decreasing' covers the Decreasing regime only; a=2.5 is Increasing"),
    (("verify", "--claims", "regime-increasing", "--a", "4"), "'regime-increasing' covers the Increasing regime only; a=4 is Decreasing"),
    (("verify", "--n", "1"), "n >= 2"),
    (("verify", "--claims", ""), "names no claim"),
    (("verify", "--claims", " , "), "names no claim"),
    (("verify", "--claims", "nope"), "error: unknown claim id: 'nope'"),
    (("bounds", "--a", "0", "--n", "1"), "n >= 2"),
    (("bounds", "--a", "0", "--n", "1", "--full"), "n >= 2"),
    (("compare", "--n", "1"), "n >= 2"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "1", "--n", "1"), "n >= 2"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "abc"), "'abc'"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "0:1:2.5"), "'2.5'"),
    (("eval", "--a", "inf", "--x", "0.5"), "shape parameter must be finite"),
    (("eval", "--a", "nan", "--x", "0.5"), "shape parameter must be finite"),
    (("eval", "--a", "-inf", "--x", "0.5"), "shape parameter must be finite"),
    (("verify", "--a", "nan"), "shape parameter must be finite"),
    (("verify", "--claims", "family-bracket", "--a", "nan"), "shape parameter must be finite"),
    (("verify", "--claims", "midregime-floor", "--a", "nan"), "shape parameter must be finite"),
    (("verify", "--claims", "aux-slope-limits", "--a", "nan"), "must be finite"),
    (("verify", "--claims", "scan-slice", "--a", "inf", "--n", "2001"), "must be finite"),
    (("verify", "--claims", "midregime-floor", "--a", "0"), "undefined at a = 0"),
    (("verify", "--claims", "midregime-floor", "--a", "1e-300"), "a^2 underflows"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "nan"), "non-finite"),
    (("scan", "--alpha", "inf", "--beta", "0.5", "--gamma", "1"), "non-finite"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", ","), "no values"),
    (("scan", "--alpha", "0:inf:5", "--beta", "0.5", "--gamma", "1"), "needs finite ends and a finite width"),
    (("scan", "--alpha", "-1e308:1e308:3", "--beta", "0.5", "--gamma", "1"), "needs finite ends and a finite width"),
    (("verify", "--claims", "midregime-floor", "--a", "1e-154", "--n", "2001"), "overflows"),
    (("bounds", "--a", "6e307", "--n", "3"), "endpoint limit pi*(1+a)/2 overflows"),
    # the grid point x = 0.5 makes a + sqrt(1+x) vanish: a is checked before the template is evaluated
    (("bounds", "--a", "-1.2247448713915889", "--n", "5", "--grid", "uniform"), "a > -1"),
    (("verify", "--claims", "endpoint-constants", "--a", "6e307", "--n", "101"), "endpoint limit pi*(1+a)/2 overflows"),
    (("eval", "--a", "1.7e308", "--x", "0.5"), "endpoint limit pi*(1+a)/2 overflows"),
]
# One past each size cap; test_size_caps_reject_before_allocating checks that
# nothing is sampled or expanded first.
OVERSIZE = [
    (("verify", "--n", str(MAX_GRID_POINTS + 1)), "MAX_GRID_POINTS"),
    (("compare", "--n", str(MAX_GRID_POINTS + 1)), "MAX_GRID_POINTS"),
    (("bounds", "--a", "1", "--n", str(MAX_GRID_POINTS + 1)), "MAX_GRID_POINTS"),
    (("bounds", "--a", "1", "--n", str(MAX_GRID_POINTS + 1), "--full"), "MAX_GRID_POINTS"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", "1", "--n", str(MAX_GRID_POINTS + 1)), "MAX_GRID_POINTS"),
    (("scan", "--alpha", "0.5", "--beta", "0.5", "--gamma", f"0:1:{MAX_SCAN_TRIPLES + 1}"), "MAX_SCAN_TRIPLES"),
    (("scan", "--alpha", "0:1:101", "--beta", "0:1:9901", "--gamma", "1"), "MAX_SCAN_TRIPLES"),
]
BAD_INPUTS += OVERSIZE


@pytest.mark.parametrize("argv, fragment", BAD_INPUTS, ids=[" ".join(argv) for argv, _ in BAD_INPUTS])
def test_bad_input_is_one_line_domain_error(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert fragment in err


def test_size_caps_reject_before_allocating(capsys, monkeypatch):
    assert 101 * 9901 == MAX_SCAN_TRIPLES + 1

    def refuse(*args, **kwargs):
        raise AssertionError("an oversize input reached an allocation")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(GridSpec, "points", refuse)
    monkeypatch.setattr(GridSpec, "_runs", refuse)  # the one construction path, under points() and grids._blocks
    for argv, fragment in OVERSIZE:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and fragment in err, argv


@pytest.mark.parametrize("verb", [("minimize",), ("verify", "--claims", "minimum-floor")])
@pytest.mark.parametrize("a", ["2.82842612474619", "2.6597923663254877"])
def test_minimum_next_to_a_regime_boundary_exits_cleanly(capsys, verb, a):
    # 1e-6 below 2*sqrt(2) and one ulp above A_STAR
    code, out, err = run_cli(capsys, *verb, "--a", a, "--format", "csv")
    assert code in (0, 3)
    if code == 0:
        assert len(out.splitlines()) == 2 and err == ""
    else:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


FUZZ_A = ("nan", "inf", "-inf", "-1", "-1e300", "0", repr(ab.A_STAR), repr(ab.TWO_SQRT2), "1e300")
CHEAP_CLAIMS = ("family-bracket", "endpoint-constants", "regime-increasing", "regime-decreasing")


@st.composite
def fuzz_argv(draw):
    def option(name, value):
        return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]

    a = draw(st.sampled_from(FUZZ_A))
    n = option("n", str(draw(st.sampled_from((0, 1, 2, 3)))))
    verb = draw(st.sampled_from(("eval", "classify", "minimize", "bounds", "compare", "scan", "verify")))
    if verb == "eval":
        return ["eval", *option("a", a), "--x", "0.5"]
    if verb in ("classify", "minimize"):
        return [verb, *option("a", a)]
    if verb == "bounds":
        return ["bounds", *option("a", a), *n, *(["--full"] if draw(st.booleans()) else [])]
    if verb == "compare":
        return ["compare", *n]
    if verb == "scan":
        if draw(st.booleans()):
            return ["scan", "--alpha", "0.5", "--beta", "0.5", *option("gamma", a), *n]
        # one lo:hi:count axis whose ends may be non-finite, huge or far apart
        axes = {"alpha": "0.5", "beta": "0.5", "gamma": "1"}
        ends = st.sampled_from(FUZZ_A + ("1e308", "-1e308"))
        axes[draw(st.sampled_from(sorted(axes)))] = f"{draw(ends)}:{draw(ends)}:{draw(st.sampled_from((1, 2, 3)))}"
        return ["scan", *(arg for name, value in axes.items() for arg in option(name, value)), *n]
    claims = draw(st.lists(st.sampled_from(CHEAP_CLAIMS), min_size=1, max_size=2, unique=True))
    grid = option("grid", draw(st.sampled_from(("uniform", "refined")))) if draw(st.booleans()) else []
    # without --n only with --grid, a usage error: the default grids are too large to fuzz
    n = [] if grid and draw(st.booleans()) else n
    return ["verify", "--claims", ",".join(claims), *n, *grid, *(option("a", a) if draw(st.booleans()) else [])]


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
def test_fuzz_exit_codes(argv):
    # every value here parses as a float, so the one usage error (exit 2) is verify --grid without --n
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    options = {arg.split("=")[0] for arg in argv}
    usage_error = argv[0] == "verify" and "--grid" in options and "--n" not in options
    assert code in ((2,) if usage_error else (0, 1, 3)), err
    assert "Traceback" not in err
    if code in (2, 3):
        assert out.getvalue() == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    if code == 1:
        assert argv[0] in ("verify", "compare")
