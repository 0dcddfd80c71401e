import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcbounds as ab
from arcbounds import cli
from arcbounds.cli import emit_curve, main
from arcbounds.explore import MAX_SCAN_TRIPLES
from arcbounds.grids import MAX_GRID_POINTS, GridSpec


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


def row_writer_csv(header, cols):
    out = io.StringIO()
    cli._emit_rows(header, cols.tolist(), "csv", out)
    return out.getvalue()


def block_writer_csv(header, cols):
    out = io.StringIO()
    cli._emit_array(header, cols, "csv", out)
    return out.getvalue()


class TestBlockCsv:
    """The block writer's CSV equals the per-value writer's, byte for byte."""

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
    def test_row_counts_around_the_block_size(self, rows):
        rng = np.random.default_rng(rows)
        cols = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-300, 300, (rows, 4))
        text = block_writer_csv(("a", "b", "c", "d"), cols)
        assert text == row_writer_csv(("a", "b", "c", "d"), cols)
        assert text.count("\n") == rows + 1

    @pytest.mark.parametrize("grid", ["uniform", "refined"])
    @pytest.mark.parametrize("full", [False, True])
    def test_bounds_output(self, capsys, grid, full):
        n = cli._CSV_BLOCK_ROWS + 1
        header, cols = emit_curve(2.7, n, grid)
        if not full:
            header, cols = ("x", "lower", "arccos", "upper"), cols[:, [0, 1, 6, 10]]
        code, out, err = run_cli(capsys, "bounds", "--a", "2.7", "--n", str(n), "--grid", grid, *(["--full"] if full else []), "--format", "csv")
        assert (code, err) == (0, "")
        assert out == row_writer_csv(header, cols)

    def test_peak_memory_per_row(self):
        # The per-row peak is flat in n (169 bytes at 50,000 rows, 168 at 200,000); tracemalloc
        # tracing every float the formatter makes costs about 3 s here and 12 s at 200,000.
        n = 50_000
        argv = ["bounds", "--a", "1", "--n", str(n), "--full", "--format", "csv", "--out", os.devnull]
        assert main(argv) == 0  # warm-up: one-time first-call allocations are not counted below
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1450 bytes a row with a Python float and a string alive per value
        assert peak / n <= 200.0


def test_closed_stdout_pipe_exits_141_silently():
    src = str(Path(ab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "arcbounds.cli", "bounds", "--a", "1", "--n", "200000", "--full", "--format", "csv"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
    (("verify", "--claims", "midregime-floor", "--a", "1e-154", "--n", "2001"), "overflows"),
    (("bounds", "--a", "6e307", "--n", "3"), "endpoint limit pi*(1+a)/2 overflows"),
    (("verify", "--claims", "endpoint-constants", "--a", "6e307", "--n", "101"), "endpoint limit pi*(1+a)/2 overflows"),
    (("eval", "--a", "1.7e308", "--x", "0.5"), "endpoint limit pi*(1+a)/2 overflows"),
]
# One past each size cap; test_size_caps_reject_before_allocating checks that
# nothing is sampled or expanded first.
OVERSIZE = [
    (("verify", "--n", str(MAX_GRID_POINTS + 1)), "MAX_GRID_POINTS"),
    (("compare", "--n", str(MAX_GRID_POINTS + 1)), "MAX_GRID_POINTS"),
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
        return ["scan", "--alpha", "0.5", "--beta", "0.5", *option("gamma", a), *n]
    claims = draw(st.lists(st.sampled_from(CHEAP_CLAIMS), min_size=1, max_size=2, unique=True))
    return ["verify", "--claims", ",".join(claims), *n, *(option("a", a) if draw(st.booleans()) else [])]


@settings(max_examples=150, deadline=None)
@given(fuzz_argv())
def test_fuzz_exit_codes(argv):
    # every value here parses as a float, so none is a usage error (exit 2)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if code == 1:
        assert argv[0] in ("verify", "compare")
