"""Benchmark arcbounds end to end on one seeded workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (inputs and oracles in workloads.py):
  certify    `arcbounds verify --claims all` at default grids
  scan       `arcbounds scan` over a seeded 6 x 6 x 40 box
  pointwise  batches of bound_pair(a, x) + best_pair(x) requests
  curve      `arcbounds bounds --full --n 100000 --format csv` into a file

One parent process generates all load.  Every job, and each of the
set-up probes that time `import arcbounds`, runs in its own fresh child
process (child.py), one at a time, with one thread per math library.
Jobs run until their wall time adds up to --seconds; each job's output
is checked after it ends, outside that time.

With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 traced jobs alternate with untraced ones and it carries the
per-layer metrics (tracer.py) plus the tracing overhead.  The line before
it, starting with "summary ", holds every end-to-end figure with its unit,
the error rate and the run's provenance; the same record is written to
.bench_build/perfbench/results/.

Exit status: 0 when every output checked out, 1 when a check failed or
no job completed, 2 when the package source is not in ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_PROBES = 5
# No job starts after this many seconds, so a run ends well within 180 s.
RUN_LIMIT_S = 120.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
UNITS = {"setup_s": "s", "job_s_p50": "s", "peak_rss_mb": "MB", "call_us_p50": "us", "call_us_p99": "us"}
END_TO_END = ("setup_s", "job_s_p50", "peak_rss_mb")


class Children:
    """Starts one child at a time and waits for it to end."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
        self.count = 0

    def run(self, spec: dict, timeout: float) -> tuple[dict | None, float]:
        """(result, wall seconds); result is None if the child crashed or timed out."""
        path = self.work / f"spec-{self.count}.json"
        self.count += 1
        path.write_text(json.dumps(spec), encoding="utf-8")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(path)],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            print(f"job timed out after {timeout:.0f} s", file=sys.stderr)
            return None, time.perf_counter() - start
        finally:
            path.unlink()
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"job failed with exit status {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None, wall
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["arcbounds_file"]).resolve().is_relative_to(self.root / "src"):
            raise SystemExit(f"child imported arcbounds from {result['arcbounds_file']}, not from ./src")
        return result, wall


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def measure(args, root: Path, work: Path) -> dict:
    """Run the set-up probes and the jobs; return the raw per-job results."""
    workload = workloads.WORKLOADS[args.workload](args.seed)
    children = Children(root, work)
    started = time.perf_counter()
    probes = [children.run({"kind": "import"}, timeout=60)[0] for _ in range(SETUP_PROBES)]
    runs = {"plain": [], "traced": [], "layers": [], "attempted": 0, "failed": 0}
    runs["import_s"] = [p["import_s"] for p in probes if p is not None]
    measured = 0.0
    k = 0
    while measured < args.seconds or (args.trace and k < 2):
        elapsed = time.perf_counter() - started
        if elapsed > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and k % 2 == 1
        out = work / f"out-{k}"
        spec = workload.job(k, str(out))
        spec["job"] = k
        if traced:
            spec["spans"] = str(work / f"spans-{k}.json")
        result, wall = children.run(spec, timeout=170.0 - elapsed)
        measured += wall
        if result is None:
            n = workload.expected_ops(spec)
            attempted, failed = n, n
        else:
            attempted, failed = workload.check(spec, result, str(out))
            if "first_error" in result:
                print(f"job {k}: a request raised {result['first_error']}", file=sys.stderr)
            runs["traced" if traced else "plain"].append(result)
            runs["import_s"].append(result["import_s"])
            if traced:
                dump = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
                rows = _count_lines(out) - 1 if out.exists() else 0
                size = out.stat().st_size if out.exists() else 0
                runs["layers"].append(tracer.layer_table(dump, rows, size))
        runs["attempted"] += attempted
        runs["failed"] += failed
        for path in (out, work / f"spans-{k}.json"):
            path.unlink(missing_ok=True)
        k += 1
    runs["measured_s"] = measured
    runs["wall_s"] = time.perf_counter() - started
    return runs


def _latencies_us(results) -> list[float]:
    return [math.inf if ns is None else ns / 1000.0 for r in results for ns in r["latency_ns"]]


def end_to_end(workload: str, runs: dict) -> dict[str, float]:
    plain = runs["plain"]
    values = {
        "setup_s": statistics.median(runs["import_s"]),
        "job_s_p50": statistics.median(r["job_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if workload == "pointwise":
        lat = _latencies_us(plain)
        values["call_us_p50"] = stats.tail_percentile(lat, 50)
        values["call_us_p99"] = stats.tail_percentile(lat, 99)
    return values


def per_layer(workload: str, runs: dict) -> dict[str, float]:
    values = {
        name: statistics.median(row[name] for row in runs["layers"])
        for name, _, _ in tracer.LAYER_METRICS
        if name != "trace.overhead_frac"
    }
    if workload == "pointwise":
        ratio = statistics.median(_latencies_us(runs["traced"])) / statistics.median(_latencies_us(runs["plain"]))
    else:
        ratio = statistics.median(r["job_s"] for r in runs["traced"]) / statistics.median(r["job_s"] for r in runs["plain"])
    values["trace.overhead_frac"] = ratio - 1.0
    return values


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def provenance(root: Path, args, numpy_version: str | None) -> dict:
    """The environment a result was measured in."""
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "arcbounds").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(f"{index}/type") != "Instruction":
            caches[f"l{_read(f'{index}/level')}"] = _read(f"{index}/size")
    try:
        import mpmath

        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mpmath": mpmath_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="job wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "arcbounds" / "__init__.py").is_file():
        print("perfbench: no package source at ./src/arcbounds; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # The build: byte-compile once, so no timed import pays for compilation.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True, stdout=subprocess.DEVNULL)
        runs = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not runs["plain"] or (args.trace and not runs["traced"]):
        print("perfbench: no job completed; nothing to report", file=sys.stderr)
        return 1
    e2e = end_to_end(args.workload, runs)
    correct = runs["failed"] == 0 and runs["attempted"] > 0
    summary = {
        "correct": correct,
        "attempted": runs["attempted"],
        "failed": runs["failed"],
        "error_rate": runs["failed"] / runs["attempted"],
        "jobs": len(runs["plain"]) + len(runs["traced"]),
        "imports": len(runs["import_s"]),
        "measured_s": runs["measured_s"],
        "wall_s": runs["wall_s"],
        "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in e2e.items()},
        "provenance": provenance(root, args, runs["plain"][0]["numpy"]),
        "jobs_raw": [
            {k: r.get(k) for k in ("import_s", "import_cpu_s", "job_s", "job_cpu_s", "peak_rss_mb")} for r in runs["plain"]
        ],
    }
    if args.trace:
        metrics = per_layer(args.workload, runs)
        units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
        summary["per_layer"] = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
        final = summary["per_layer"]
    else:
        final = {name: summary["metrics"][name] for name in END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {summary['jobs']} jobs, {summary['imports']} imports")
    for name, m in summary["metrics"].items():
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<12} {summary['error_rate']:.6g} ({runs['failed']} failed / {runs['attempted']} attempted)")
    results = root / ".bench_build" / "perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = json.dumps(summary)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(record + "\n", encoding="utf-8")
    print("summary " + record)
    print(json.dumps({"correct": correct, "attempted": runs["attempted"], "failed": runs["failed"], "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
