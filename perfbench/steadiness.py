"""Steadiness report: repeat each workload over several seeds and show how much
each end-to-end metric spreads.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --repeats 10
    python3 perfbench/steadiness.py --repeats 5 --workload certify --save /tmp/a.json
    python3 perfbench/steadiness.py --repeats 10 --baseline /tmp/a.json

Each repeat is one run of the command in BENCHMARK.json with the next seed.
For every metric it prints the median and the interquartile distance as a
share of the median (the spread), and flags a spread above the metric's
bound in BENCHMARK.json.  Figures that only the summary line carries
(call_us_p50, call_us_p99, error_rate) are shown without a bound.  With
--baseline, a median that is worse than the baseline's by more than the
bound is flagged too.  Exit status 1 if anything was flagged or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    """Metrics of one run: the last line's, plus the summary line's extras."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    values = {name: m["value"] for name, m in last["metrics"].items()}
    for line in lines:
        if line.startswith("summary "):
            summary = json.loads(line[len("summary "):])
            for name, m in summary["metrics"].items():
                values.setdefault(name, m["value"])
            values["error_rate"] = summary["error_rate"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    parser.add_argument("--save", help="write the medians to this JSON file")
    parser.add_argument("--baseline", help="compare medians with a file written by --save")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8")) if args.baseline else {}
    medians: dict[str, dict[str, float]] = {}
    flagged = False
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.repeats):
            try:
                runs.append(run_once(bench, workload, seed, seconds))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(exc, file=sys.stderr)
                flagged = True
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':<13} {'median':>12} {'spread':>8} {'bound':>6}  {'vs base':>8}")
        medians[workload] = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            medians[workload][name] = med
            spread = stats.spread(values) if med else 0.0
            spec = bounds.get(name)
            flags = []
            if spec and name != "setup_s" and spread > spec["bound"]:
                flags.append("SPREAD")
            drift = ""
            base = baseline.get(workload, {}).get(name)
            if base:
                change = (med - base) / base
                drift = f"{change:+8.2%}"
                if spec and (change if spec["better"] == "lower" else -change) > spec["bound"]:
                    flags.append("WORSE")
            bound = f"{spec['bound']:6.2f}" if spec else "     -"
            print(f"  {name:<13} {med:12.6g} {spread:8.2%} {bound}  {drift:>8}  {' '.join(flags)}")
            flagged = flagged or bool(flags)
    if args.save:
        Path(args.save).write_text(json.dumps(medians, indent=2) + "\n", encoding="utf-8")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
