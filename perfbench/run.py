"""Benchmark of gini-bounds: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload point-queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of the repository.  Each workload is a closed loop with
one caller.  Untraced (--trace 0) it reports the end-to-end metrics:
set-up time as the median of SETUPS set-ups, each in its own process, and
from the last of them the op rate, the median and tail op latency and the
peak resident set size.  Every time is scaled to the reference host speed
of calibrate.py; the figures as measured are printed beside them.  Traced
(--trace 1) it reports the per-layer metrics of tracing.METRICS instead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point-queries", "envelope-audit", "grid-export", "lp-certify")
SETUPS = 3
# One process may take this long; the first run in a fresh checkout also
# compiles the program's bytecode.
CHILD_TIMEOUT_S = 160
# A single caller: no thread pools in numpy's libraries either.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Run worker.py once; return its JSON result and its set-up time.

    Set-up runs from spawning the process to the end of its warm-up op, and
    is scaled by the host speed measured just before and just after it.
    """
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    kind = calibrate.KIND[workload]
    before = calibrate.measure(kind)
    spawned = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["ready"] - spawned
    return result, setup, setup * calibrate.scale(kind, (before + result["calibration"]) / 2)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: (percentile, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(_child(workload, seed, seconds, trace, setup_only=True)[1:])
    result, *setup = _child(workload, seed, seconds, trace, setup_only=False)
    setups.append(setup)

    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: seed {seed}, {attempted} ops attempted, {failed} failed")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if trace:
        for span in result["missing_spans"]:
            print(f"  absent from the program, reads 0: {span}")
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in tracing.METRICS}
    else:
        raw, lat = result["latencies_ms"], result["scaled_latencies_ms"]
        pct, tail = _tail(lat)
        print(f"  setup_s is the median of {SETUPS} set-ups; as measured: "
              + ", ".join(f"{s[0]:.4f}" for s in setups))
        print(f"  op_tail_ms is p{pct:.1f}: {attempted} samples, 10 beyond it")
        print(f"  as measured: op_p50_ms {statistics.median(raw):.4f}, "
              f"op_tail_ms {_tail(raw)[1]:.4f}, "
              f"ops_per_s {(attempted - failed) / (sum(raw) / 1e3):.4f}")
        values = {
            "setup_s": statistics.median(s[1] for s in setups),
            "ops_per_s": (attempted - failed) / (sum(lat) / 1e3),
            "op_p50_ms": statistics.median(lat),
            "op_tail_ms": tail,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    return {
        "correct": failed == 0 and result["warmup_ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gini_bounds" / "__init__.py").is_file():
        print(f"no gini_bounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in chosen:
            summary = run_workload(workload, args.seed, args.seconds, args.trace)
            print(json.dumps(summary))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
