"""Run one benchmark job in a fresh interpreter and print its result as JSON.

Usage: python3 perfbench/child.py SPEC.json

The first thing timed is ``import arcbounds``, before any other module
that could pull in numpy, so the import time is that of a cold start.
Spec kinds: "import" (import only), "cli" (one ``arcbounds.cli.main``
call), "pointwise" (a closed loop of bracket requests).  With
``"spans"`` set, the tracer is installed after the import and the spans
are written to that path when the job ends.
"""

import json
import resource
import sys
import time


def _pointwise(arcbounds, spec: dict, result: dict) -> None:
    bound_pair = arcbounds.bound_pair
    best_pair = arcbounds.best_pair
    clock = time.perf_counter_ns
    sample = set(spec["sample"])
    latency = []
    samples = []
    raised = 0
    start, cpu = time.perf_counter(), time.process_time()
    for i, (a, x) in enumerate(spec["requests"]):
        t0 = clock()
        try:
            bp = bound_pair(a, x)
            sb = best_pair(x)
        except Exception as exc:  # a failed request is counted, the loop goes on
            latency.append(None)
            raised += 1
            result.setdefault("first_error", repr(exc))
            continue
        latency.append(clock() - t0)
        if i in sample:
            samples.append([i, bp.lower, bp.upper, sb.lower_lambda, sb.lower_pi2, sb.lower_best, sb.upper_best])
    result["job_s"] = time.perf_counter() - start
    result["job_cpu_s"] = time.process_time() - cpu
    result["latency_ns"] = latency
    result["samples"] = samples
    result["raised"] = raised


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    t0, c0 = time.perf_counter(), time.process_time()
    import arcbounds

    result = {
        "import_s": time.perf_counter() - t0,
        "import_cpu_s": time.process_time() - c0,
        "arcbounds_file": arcbounds.__file__,
    }
    import arcbounds.cli
    import numpy

    result["numpy"] = numpy.__version__
    tracer = None
    if spec.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer(job=spec["job"])
        tracer.install()

    if spec["kind"] == "cli":
        start, cpu = time.perf_counter(), time.process_time()
        result["rc"] = arcbounds.cli.main(spec["argv"])
        result["job_s"] = time.perf_counter() - start
        result["job_cpu_s"] = time.process_time() - cpu
    elif spec["kind"] == "pointwise":
        _pointwise(arcbounds, spec, result)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.enabled = False
        tracer.dump(spec["spans"])
    if "grid_count" in spec:
        lo, hi, n, spacing = spec["grid_count"]
        result["grid_count"] = int(arcbounds.GridSpec(lo, hi, n, spacing).points().size)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
