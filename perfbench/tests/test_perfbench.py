"""Tests of the benchmark's own machinery: self time, the percentile rule and
the oracles.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------- self time


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_overlapping_children_are_covered_once():
    assert tracer.covered([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert tracer.covered([]) == 0.0


def test_layer_table_sums_self_time_per_function_and_module():
    dump = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1, 0],
            ["family.arccos_ratio", 1.0, 4.0, 0, 0],
            ["family.arccos_ratio", 5.0, 6.0, 0, 0],
            ["verify.claim.scan-slice", 6.0, 9.0, 0, 0],
            ["explore.classify_family", 7.0, 8.0, 3, 0],
        ],
        "counters": {"family.arccos_ratio.calls": 2},
        "unique_specs": 1,
    }
    table = tracer.layer_table(dump, rows_out=3, bytes_out=40)
    assert table["cli.main.self_s"] == 3.0
    assert table["family.arccos_ratio.self_s"] == 4.0
    assert table["family.self_s"] == 4.0
    assert table["verify.claim.scan-slice.s"] == 3.0
    assert table["verify.self_s"] == 2.0
    assert table["explore.self_s"] == 1.0
    assert table["family.arccos_ratio.calls"] == 2
    assert table["grids.points.calls"] == 0
    assert (table["cli.rows_out"], table["cli.bytes_out"]) == (3, 40)


def test_wrapper_records_parent_and_counts():
    t = tracer.Tracer(job=7)
    inner = t.wrap("m.inner", lambda x: x, points=lambda args, kwargs: len(args[0]))
    outer = t.wrap("m.outer", lambda x: inner(x))
    outer([1, 2, 3])
    assert [(s[0], s[3], s[4]) for s in t.spans] == [("m.outer", -1, 7), ("m.inner", 0, 7)]
    assert t.counters["m.inner.points"] == 3
    assert t.counters["m.outer.calls"] == 1


# ------------------------------------------------------ percentile rule


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert stats.tail_percentile(samples, 99) == 990
    with pytest.raises(ValueError):
        stats.tail_percentile(samples[:999], 99)
    assert stats.tail_percentile(samples[:20], 50) == 10
    with pytest.raises(ValueError):
        stats.tail_percentile(samples[:19], 50)


def test_spread_is_iqr_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# ---------------------------------------------------------------- oracles


def _certify_rows():
    return [[cid, "true", "10", "0.5", "0.5", ""] for cid in workloads.CERTIFY_CLAIM_IDS]


def test_certify_oracle_rejects_flipped_passed_flag():
    rows = _certify_rows()
    assert workloads.check_certify_rows(rows) == (39, 0)
    rows[5][1] = "false"
    assert workloads.check_certify_rows(rows) == (39, 1)


def test_certify_oracle_rejects_missing_and_unexpected_reports():
    rows = _certify_rows()[1:] + [["made-up", "true", "1", "0", "0", ""]]
    assert workloads.check_certify_rows(rows) == (40, 2)


def _scan_rows(box):
    rows = []
    for a in box.alphas:
        for b in box.betas:
            for g in box.gammas:
                if workloads.singular(b, g):
                    verdict = "Error"
                elif a == 0.5 and b == 0.5:
                    verdict = workloads.slice_verdict(g)
                else:
                    verdict = "Increasing"
                rows.append([repr(a), repr(b), repr(g), verdict, "nan", "nan"])
    return rows


def test_scan_oracle_rejects_swapped_verdicts():
    box = workloads.Scan(3)
    rows = _scan_rows(box)
    check = lambda rs: workloads.check_scan_rows(box.alphas, box.betas, box.gammas, rs)
    assert check(rows) == (1440, 0)
    on_line = next(i for i, r in enumerate(rows) if r[:2] == ["0.5", "0.5"] and r[3] == "Decreasing")
    swapped = [list(r) for r in rows]
    swapped[on_line][3] = "Increasing"
    assert check(swapped) == (1440, 1)
    error = next(i for i, r in enumerate(rows) if r[3] == "Error")
    swapped = [list(r) for r in rows]
    swapped[error][3], swapped[error + 4][3] = swapped[error + 4][3], "Error"
    assert check(swapped) == (1440, 2)
    assert check(rows + [rows[0]]) == (1440, 1)


def test_scan_box_is_ten_percent_singular_on_every_seed():
    for seed in range(20):
        box = workloads.Scan(seed)
        assert 0.5 in box.alphas and 0.5 in box.betas and max(box.alphas) > 10.0
        singular = sum(workloads.singular(b, g) for b in box.betas for g in box.gammas)
        assert singular * len(box.alphas) == 144


def test_pointwise_oracle_rejects_bound_perturbed_by_1e_6():
    import arcbounds

    mp = workloads._mp()
    outputs = {}
    for a, x in ((0.0, 0.5), (2.75, 1.0 - 1e-9), (4.0, 1e-9)):
        bp, sb = arcbounds.bound_pair(a, x), arcbounds.best_pair(x)
        outputs[a, x] = [bp.lower, bp.upper, sb.lower_lambda, sb.lower_pi2, sb.lower_best, sb.upper_best]
        assert workloads.check_pointwise_sample(mp, a, x, outputs[a, x])
    # Near x = 1 every bound lies within 1e-6 of arccos.
    near_one = outputs[2.75, 1.0 - 1e-9]
    for i, delta in ((0, 1e-6), (1, -1e-6), (4, 1e-6), (5, -1e-6)):
        bad = list(near_one)
        bad[i] += delta
        assert not workloads.check_pointwise_sample(mp, 2.75, 1.0 - 1e-9, bad), i
    bad = list(outputs[0.0, 0.5])
    bad[4] -= 1e-6  # still a lower bound, but no longer the max of its candidates
    assert not workloads.check_pointwise_sample(mp, 0.0, 0.5, bad)


def test_curve_oracle_rejects_bound_perturbed_by_1e_6():
    from arcbounds.cli import emit_curve

    mp = workloads._mp()
    header, cols = emit_curve(2.75, 2000)
    assert list(header) == workloads.CURVE_HEADER
    row = [float(v) for v in cols[-2]]
    assert workloads.check_curve_sample_row(mp, row)
    for name, delta in (("family_lower", 1e-6), ("best_upper", -1e-6), ("arccos", 1e-6)):
        bad = list(row)
        bad[workloads.CURVE_HEADER.index(name)] += delta
        assert not workloads.check_curve_sample_row(mp, bad), name


# ---------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.LAYER_METRICS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


# ------------------------------------------------------- end to end


def _run_child(tmp_path, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_child_sees_calls_made_through_imported_names(tmp_path):
    out, spans = tmp_path / "out.csv", tmp_path / "spans.json"
    argv = ["verify", "--claims", "scan-slice", "--format", "csv", "--out", str(out)]
    result = _run_child(tmp_path, {"kind": "cli", "argv": argv, "job": 3, "spans": str(spans)})
    assert result["rc"] == 0
    dump = json.loads(spans.read_text(encoding="utf-8"))
    assert {s[4] for s in dump["spans"]} == {3}
    table = tracer.layer_table(dump)
    # verify and cli call classify_family and GridSpec.points by imported name.
    assert table["explore.classify_family.calls"] == 50
    assert table["grids.points.calls"] == 50
    assert sum(table[f"explore.verdict.{v}"] for v in tracer.VERDICTS) == 50
    assert table["verify.reports"] == 1 and table["verify.reports_failed"] == 0
    assert table["verify.claim.scan-slice.s"] > 0
    assert all(t >= 0 for t in tracer.self_times(dump["spans"]))


def test_runner_refuses_to_run_without_package_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "scan", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
