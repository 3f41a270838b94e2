"""Per-layer self time, measured from the benchmark's side of each call.

The tracer replaces the program's public functions with timing wrappers
while it is installed, in every ``gini_bounds`` module that refers to them,
so calls between modules are timed too.  A span's self time is its
duration minus the time of the traced calls it made.  Private helpers are
wrapped only where another module imports them (``cli`` uses
``bounds._active_masks`` for the atlas), so that a public function's own
kernel stays in its self time.  ``core`` and ``errors`` are not wrapped:
their functions run as closures inside the other layers.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  An attribute "Class.method" is wrapped on
# the class; "Class.__post_init__" times construction and validation.
SPANS = (
    ("bounds", "upper_bound_values", "bounds.upper_bound_values"),
    ("bounds", "lower_bound_values", "bounds.lower_bound_values"),
    ("bounds", "upper_bound", "bounds.upper_bound"),
    ("bounds", "lower_bound", "bounds.lower_bound"),
    ("bounds", "witness_copula", "bounds.witness_copula"),
    ("bounds", "classify_upper", "bounds.classify_upper"),
    ("bounds", "classify_lower", "bounds.classify_lower"),
    ("bounds", "hyperbolic_corner_points", "bounds.hyperbolic_corner_points"),
    ("bounds", "_active_masks", "bounds.active_masks"),
    ("pointgamma", "lower_point_bound_gamma", "pointgamma.lower_point_bound_gamma"),
    ("quadrature", "gamma_quadrature", "quadrature.gamma_quadrature"),
    ("ranks", "RankSample.__post_init__", "ranks.RankSample"),
    ("ranks", "gamma_rank_statistic", "ranks.gamma_rank_statistic"),
    ("lattice", "LatticeFunction.from_evaluator", "lattice.from_evaluator"),
    ("lattice", "LatticeFunction.from_csv", "lattice.from_csv"),
    # Not called today; wrapped so that grid writing moved here from cli
    # is still timed as CSV work.
    ("lattice", "LatticeFunction.to_csv", "lattice.to_csv"),
    ("lattice", "check_properties", "lattice.check_properties"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_grid", "cli.grid"),
    ("cli", "cmd_regions", "cli.regions"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_oracle", "cli.oracle"),
    ("oracle", "lp_extreme", "oracle.lp_extreme"),
    ("simplex", "solve_equality_lp", "simplex.solve_equality_lp"),
    ("checkerboard", "gamma_coefficients", "checkerboard.gamma_coefficients"),
    ("checkerboard", "Checkerboard.__post_init__", "checkerboard.Checkerboard"),
    ("checkerboard", "gamma_checkerboard_exact", "checkerboard.gamma_checkerboard_exact"),
)

LAYERS = ("bounds", "pointgamma", "quadrature", "ranks", "lattice", "cli", "oracle",
          "simplex", "checkerboard")

# Per-layer metrics: (name, unit, better).  Self times and counts are per
# traced op; rates divide a layer's work by its self time.
METRICS = (
    ("bounds.upper_bound_values.self_ms", "ms", "lower"),
    ("bounds.upper_bound_values.calls", "count", "lower"),
    ("bounds.upper_bound_values.mpts_per_s", "Mpts/s", "higher"),
    ("bounds.upper_bound.self_us", "us", "lower"),
    ("bounds.lower_bound.self_us", "us", "lower"),
    ("bounds.witness_copula.self_ms", "ms", "lower"),
    ("pointgamma.lower_point_bound_gamma.self_us", "us", "lower"),
    ("quadrature.gamma_quadrature.self_ms", "ms", "lower"),
    ("ranks.RankSample.self_ms", "ms", "lower"),
    ("ranks.gamma_rank_statistic.self_ms", "ms", "lower"),
    ("lattice.check_properties.self_ms", "ms", "lower"),
    ("lattice.from_csv.self_ms", "ms", "lower"),
    ("lattice.from_csv.mb_per_s", "MB/s", "higher"),
    ("lattice.from_evaluator.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.grid.self_ms", "ms", "lower"),
    ("cli.regions.self_ms", "ms", "lower"),
    ("cli.csv_bytes_written", "bytes", "lower"),
    ("cli.check.self_ms", "ms", "lower"),
    ("cli.oracle.self_ms", "ms", "lower"),
    ("oracle.lp_extreme.self_ms.n8", "ms", "lower"),
    ("oracle.lp_extreme.self_ms.n16", "ms", "lower"),
    ("oracle.lp_extreme.calls", "count", "lower"),
    ("simplex.solve_equality_lp.self_ms", "ms", "lower"),
    ("simplex.solve_equality_lp.iterations", "count", "lower"),
    ("checkerboard.gamma_coefficients.self_ms", "ms", "lower"),
    ("checkerboard.Checkerboard.self_ms", "ms", "lower"),
) + tuple((f"layer.{layer}.self_ms", "ms", "lower") for layer in LAYERS) + (
    ("trace.op_untraced_ms", "ms", "lower"),
    ("trace.op_traced_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.layers_self_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
)


def _points(u, v, *_):
    return np.broadcast(u, v).size


def _file_bytes(cls, path, *_):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


# Work counted at a span's entry (from its arguments) or exit (from its result).
_COUNT_ARGS = {
    "bounds.upper_bound_values": ("bounds.upper_bound_values.points", _points),
    "lattice.from_csv": ("lattice.from_csv.bytes", _file_bytes),
}
_COUNT_RESULT = {
    "simplex.solve_equality_lp": ("simplex.solve_equality_lp.iterations",
                                  lambda result: getattr(result, "iterations", 0)),
}


class Tracer:
    """Wrappers for the spans in SPANS, and the totals they gather."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing: list[str] = []
        self.op_seconds: list[float] = []
        self._stack = [[0.0]]
        self._patches = []  # (owner, attribute, original, wrapper)
        for module, attr, span in SPANS:
            self._plan(module, attr, span)

    def _plan(self, module: str, attr: str, span: str) -> None:
        try:
            mod = importlib.import_module(f"gini_bounds.{module}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(span)
            return
        if owner_name:
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(span, raw.__func__))
            else:
                wrapper = self._wrap(span, raw)
            self._patches.append((owner, name, raw, wrapper))
            return
        wrapper = self._wrap(span, raw)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "gini_bounds" and not mod_name.startswith("gini_bounds."):
                continue
            if name.startswith("_") and other is mod:
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    self._patches.append((other, key, raw, wrapper))

    def _wrap(self, span: str, fn):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        count_args = _COUNT_ARGS.get(span)
        count_result = _COUNT_RESULT.get(span)
        keyed = span == "oracle.lp_extreme"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{span}.n{args[0] if args else kwargs.get('n')}" if keyed else span
            if count_args:
                counts[count_args[0]] += count_args[1](*args)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
            if count_result:
                counts[count_result[0]] += count_result[1](result)
            return result

        return wrapper

    def run(self, op):
        """Run op with the wrappers installed, as the root span; return its result."""
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        self._stack[:] = [[0.0]]
        try:
            start = time.perf_counter()
            result = op()
            elapsed = time.perf_counter() - start
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)
        self.op_seconds.append(elapsed)
        self.self_s["bench"] += elapsed - self._stack[0][0]
        return result

    def metrics(self, untraced_ms: float, csv_bytes: float) -> dict[str, float]:
        """Per-op figures for METRICS, from the ops run traced; absent spans read 0.

        untraced_ms is the mean time of the same op run without the wrappers,
        and csv_bytes the size of the files one op writes.
        """
        per_op = 1.0 / len(self.op_seconds)
        traced_ms = sum(self.op_seconds) * per_op * 1e3
        s, c = self.self_s, self.calls
        lp = [k for k in s if k.startswith("oracle.lp_extreme.n")]
        out = {
            "bounds.upper_bound_values.calls": c["bounds.upper_bound_values"] * per_op,
            "bounds.upper_bound_values.mpts_per_s": _rate(
                self.counts["bounds.upper_bound_values.points"] / 1e6,
                s["bounds.upper_bound_values"]),
            "lattice.from_csv.mb_per_s": _rate(self.counts["lattice.from_csv.bytes"] / 1e6,
                                               s["lattice.from_csv"]),
            "cli.csv_bytes_written": csv_bytes,
            "oracle.lp_extreme.calls": sum(c[k] for k in lp) * per_op,
            "simplex.solve_equality_lp.iterations":
                self.counts["simplex.solve_equality_lp.iterations"] * per_op,
        }
        for layer in LAYERS:
            total = sum(v for k, v in s.items() if k.startswith(layer + "."))
            out[f"layer.{layer}.self_ms"] = total * per_op * 1e3
        out.update({
            "trace.op_untraced_ms": untraced_ms,
            "trace.op_traced_ms": traced_ms,
            "trace.overhead_ms": traced_ms - untraced_ms,
            "trace.layers_self_ms": sum(out[f"layer.{layer}.self_ms"] for layer in LAYERS),
            "trace.unattributed_ms": s["bench"] * per_op * 1e3,
            "trace.spans": sum(c.values()) * per_op,
        })
        scale = {"ms": 1e3, "us": 1e6}
        for name, unit, _ in METRICS:
            if name in out:
                continue
            if name.startswith("oracle.lp_extreme.self_ms."):
                span = "oracle.lp_extreme." + name.rsplit(".", 1)[1]
            else:
                span = name.rsplit(".", 1)[0]
            out[name] = s.get(span, 0.0) * per_op * scale[unit]
        return out


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0
