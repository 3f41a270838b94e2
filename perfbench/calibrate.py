"""Host-speed calibration, so that timings from different moments compare.

On the 2-vCPU virtual machine the benchmark was built on, the host's speed
drifts in phases of seconds to tens of seconds: one fixed op can take 19 ms
in one phase and 31 ms in the next, with CPU time equal to wall time.  A
run of tens of seconds sees too few phases to average them out.  So the
worker times a fixed loop of the benchmark's own, of the same kind of work
as the op, before every op, and scales every timing by REFERENCE[kind] /
loop time: timings are reported as if the host ran at the speed where the
loop takes exactly REFERENCE[kind].  The loop is the benchmark's own code,
so a change to the program cannot move it.

Two kinds: "python" (interpreter-bound work: scalar calls, CSV formatting,
simplex pivots in Python) and "numpy" (elementwise passes over arrays that
do not fit in cache, like the envelope kernel).  The loop runs REPEATS
times back to back; its mean time is the measurement.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE = {"python": 4e-3, "numpy": 4e-3}  # seconds
# Where each workload's op spends its time, per the traced run: the envelope
# kernel is ~90% of envelope-audit; the others are interpreter-bound.
KIND = {
    "point-queries": "python",
    "envelope-audit": "numpy",
    "grid-export": "python",
    "lp-certify": "python",
}
REPEATS = 3
_ARRAY = np.random.default_rng(0).random(200_000)
_LISTS = [list(range(50)) for _ in range(2000)]


def _python_loop():
    # Interpreter dispatch, then small dicts, string formatting and numpy
    # calls on scalars (the scalar and CSV paths), then tuples built from
    # lists that do not fit in L1 (allocation and memory traffic).  No one
    # of these tracks every interpreter-bound op; their sum tracked
    # point-queries, grid-export and lp-certify best.
    total = 0
    for i in range(20_000):
        total += i
    rows = []
    for i in range(600):
        x = i * 1e-3
        d = {"u": x, "v": 1.0 - x}
        rows.append("{:.11e},{:.11e}".format(d["u"], d["v"]))
        total += float(np.sqrt(x) + np.maximum(x, 0.5))
    for lst in _LISTS:
        t = tuple(lst)
        total += t[3]
    return total + len(rows)


def _numpy_passes():
    for _ in range(5):
        b = np.sqrt(_ARRAY) * 2.0 + _ARRAY
        np.maximum(b, 0.5, out=b)


_LOOPS = {"python": _python_loop, "numpy": _numpy_passes}


def measure(kind: str) -> float:
    """Seconds of the calibration loop of this kind, the mean of REPEATS."""
    loop = _LOOPS[kind]
    start = time.perf_counter()
    for _ in range(REPEATS):
        loop()
    return (time.perf_counter() - start) / REPEATS


def scale(kind: str, loop_seconds) -> float:
    """Factor that turns a timing taken while the loop took loop_seconds
    into one at the reference speed."""
    return REFERENCE[kind] / loop_seconds
