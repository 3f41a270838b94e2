"""Run one workload in this process: set up, warm up, then time operations.

Started by run.py, one process per workload run.  Set-up is everything
before the first timed operation: interpreter start, the numpy and
``gini_bounds`` imports, input generation and one warm-up operation.  The
reference values for the checks are computed after that point, so they do
not count towards set-up.

Prints one JSON line: the monotonic clock when set-up ended and the host
calibration measured then, and for a timed run the op latencies (as
measured, and scaled to the reference host speed, see calibrate.py), the
attempted and failed counts, the peak resident set size, and (when traced)
the per-layer figures, which are not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402  (imports gini_bounds from ROOT/src)

# A run times at least this many ops, so that the tail percentile has ten
# samples beyond it and is still a tail (the 75th percentile at worst).
MIN_OPS = 40
WORKDIR = ROOT / "perfbench" / "_out"


def _run_op(op):
    """Run one op; return (output, seconds, error).  An exception is a failure."""
    start = time.perf_counter()
    try:
        out, error = op(), None
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, error


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, str(WORKDIR))
    kind = calibrate.KIND[args.workload]
    try:
        warm, _, warm_error = _run_op(wl.op)
        ready = time.monotonic()
        cal_values = [calibrate.measure(kind)]
        cal_times = [time.monotonic()]
        if args.setup_only:
            print(json.dumps({"ready": ready, "calibration": cal_values[0]}))
            return 0
        wl.prepare_checks()
        warm_problems = [warm_error] if warm_error else wl.check(warm)
        del warm

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        latencies, midpoints, untraced = [], [], []
        failed, problems = 0, list(warm_problems)
        start = time.perf_counter()
        while len(latencies) < MIN_OPS or time.perf_counter() - start < args.seconds:
            # Host speed is measured before every op: within a fast phase the
            # host still slows for a fraction of a second now and then.
            cal_values.append(calibrate.measure(kind))
            cal_times.append(time.monotonic())
            began = time.monotonic()
            # The traced run alternates untraced and traced ops, so that host
            # drift falls on both halves alike.
            if tracer is not None and len(latencies) % 2:
                out, elapsed, error = _run_op(lambda: tracer.run(wl.op))
            else:
                out, elapsed, error = _run_op(wl.op)
                untraced.append(elapsed)
            latencies.append(elapsed)
            midpoints.append(began + elapsed / 2)
            bad = [error] if error else wl.check(out)
            if bad:
                failed += 1
                problems += bad[:2]
        cal_values.append(calibrate.measure(kind))
        cal_times.append(time.monotonic())
        scales = calibrate.scale(kind, np.interp(midpoints, cal_times, cal_values))
        result = {
            "ready": ready,
            "calibration": cal_values[0],
            "latencies_ms": [x * 1e3 for x in latencies],
            "scaled_latencies_ms": [x * 1e3 for x in latencies * scales],
            "attempted": len(latencies),
            "failed": failed,
            "warmup_ok": not warm_problems,
            "problems": problems[:10],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            result["missing_spans"] = tracer.missing
            result["layers"] = tracer.metrics(
                statistics.fmean(untraced) * 1e3,
                sum(os.path.getsize(p) for p in wl.output_paths),
            )
        print(json.dumps(result))
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
