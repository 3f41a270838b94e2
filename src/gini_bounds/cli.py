"""Command-line surface: evaluation, grids, gamma, classification, checks,
oracle certification, and the region atlas.

This module parses arguments and formats output only, and holds no lattice
mechanics: lattice builds the envelope lattice that `grid` writes, the
region atlas that `regions` writes, and the audit whose fields `check`
prints (envelope_audit).
The parser is built once per process.

Exit codes: 0 all checks passed, 1 check or IO failure, 2 usage or domain
error.  Reports are JSON on stdout (sorted keys); grids and atlases are
CSV with 12 significant digits.  Identical invocations are deterministic
except for the elapsed_ms timing field of reports.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import time
from dataclasses import asdict

from . import __version__
from .bounds import (
    ENVELOPE_TOL, _reflected_upper_bound, classify_lower, classify_upper, lower_bound, upper_bound,
)
from .checkerboard import Checkerboard, gamma_checkerboard_exact
from .core import PointBoundSpec, frechet_lower, frechet_upper, point_bound_lower, product
from .errors import DomainError, InternalError
from .lattice import _envelope_lattice, _region_atlas, envelope_audit, write_node_csv
from .oracle import lp_extreme
from .pointgamma import i1_closed, i2_closed, lower_point_bound_gamma
from .quadrature import _certify_gamma

# The options that take a float.  argparse reads a negative number in exponent
# form (-1e-3) as an option string, so main attaches a negative number that
# follows one of them with "=" (--t=-1e-3), the form argparse reads as a value.
_FLOAT_OPTIONS = ("--t", "--u", "--v")
# Copula specs without arguments: evaluator and closed-form gamma.
_BUILTIN_COPULAS = {"pi": (product, 0.0), "w": (frechet_lower, -1.0), "m": (frechet_upper, 1.0)}


def _open_out(out_path: str | None):
    """The stream a command writes to: stdout, or the file at out_path."""
    if out_path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out_path, "w", newline="\n")


def _emit_json(payload: dict, out_path: str | None = None) -> None:
    with _open_out(out_path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_report(args, results: dict, checks_passed: bool, started: float) -> int:
    """Write a command's JSON report to stdout; return its exit code.

    The report states the parse: its command is args.command, and its
    parameters are every other attribute of args, defaults included.
    """
    _emit_json({
        "command": args.command,
        "parameters": {name: value for name, value in vars(args).items() if name != "command"},
        "results": results,
        "checks_passed": checks_passed,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    })
    return 0 if checks_passed else 1


def cmd_eval(args) -> int:
    u, v, t = args.u, args.v, args.t
    if args.side == "upper":
        payload = asdict(upper_bound(u, v, t))
    else:
        # Candidate bookkeeping describes the reflected upper evaluation at
        # (1-u, v, -t), whose point the record holds; the bound field is the
        # lower value, v - upper, as lower_bound takes it.
        report = _reflected_upper_bound(u, v, t)
        payload = asdict(report)
        payload.update(
            {"u": u, "v": v, "t": t, "bound": report.v - report.bound,
             "reflected_u": report.u, "reflected_v": report.v}
        )
    payload["side"] = args.side
    _emit_json(payload)
    return 0


def cmd_grid(args) -> int:
    lf = _envelope_lattice(args.side, args.t, args.n)
    if args.format == "csv":
        with _open_out(args.out) as fh:
            write_node_csv(fh, lf.N, lf.values)
    else:
        payload = {
            "n": lf.N,
            "t": args.t,
            "side": args.side,
            "values": lf.values.ravel().tolist(),
        }
        _emit_json(payload, args.out)
    return 0


def _gamma_spec(spec: list[str]):
    """Evaluator, expected gamma and report fields of a --copula spec."""
    kind, rest = spec[0], spec[1:]
    if kind in _BUILTIN_COPULAS:
        if rest:
            raise DomainError(f"copula {kind!r} takes no extra arguments")
        evaluator, closed = _BUILTIN_COPULAS[kind]
        return evaluator, closed, {"copula": kind, "closed": closed}
    if kind == "pointbound":
        if len(rest) != 3:
            raise DomainError("usage: --copula pointbound A B THETA")
        try:
            a, b, theta = (float(x) for x in rest)
        except ValueError:
            raise DomainError(f"pointbound A B THETA must be numbers, got {rest}") from None
        pinned = PointBoundSpec(a, b, theta)
        branch = lower_point_bound_gamma(pinned)
        results = {
            "copula": "pointbound",
            "a": a,
            "b": b,
            "theta": theta,
            "branch": branch.branch,
            "closed": branch.value,
            "i1": i1_closed(pinned),
            "i2": i2_closed(pinned),
        }
        return point_bound_lower(pinned), branch.value, results
    if kind == "checkerboard":
        if len(rest) != 1:
            raise DomainError("usage: --copula checkerboard FILE")
        board = Checkerboard.from_json(rest[0])
        exact = gamma_checkerboard_exact(board)
        results = {
            "copula": "checkerboard",
            "file": rest[0],
            "n": board.n,
            "exact": exact,
        }
        return board.cdf, exact, results
    raise DomainError(f"unknown copula spec {kind!r}; expected pi|w|m|pointbound|checkerboard")


def cmd_gamma(args) -> int:
    started = time.monotonic()
    evaluator, expected, results = _gamma_spec(args.copula)
    results["quadrature"], passed = _certify_gamma(evaluator, expected)
    return _emit_report(args, results, passed, started)


def cmd_classify(args) -> int:
    started = time.monotonic()
    results = {
        "upper": classify_upper(args.t).value,
        "lower": classify_lower(args.t).value,
    }
    return _emit_report(args, results, True, started)


def cmd_check(args) -> int:
    started = time.monotonic()
    results = asdict(envelope_audit(args.t, args.grid))
    passed = all(results["checks"].values())
    return _emit_report(args, results, passed, started)


def cmd_oracle(args) -> int:
    started = time.monotonic()
    t, n, u, v = args.t, args.n, args.u, args.v
    upper_val = upper_bound(u, v, t).bound
    lower_val = lower_bound(u, v, t)
    outcome_max = lp_extreme(n, u, v, t, "max")
    outcome_min = lp_extreme(n, u, v, t, "min")

    results: dict = {
        "upper_bound": upper_val,
        "lower_bound": lower_val,
        "status": outcome_max.status,
    }
    if outcome_max.status == "optimal":
        results.update(
            {
                "lp_max": outcome_max.optimum,
                "lp_min": outcome_min.optimum,
                "gap_upper": upper_val - outcome_max.optimum,
                "gap_lower": outcome_min.optimum - lower_val,
            }
        )
        checks = {
            "lp_max_sound": outcome_max.optimum <= upper_val + ENVELOPE_TOL,
            "lp_min_sound": outcome_min.optimum >= lower_val - ENVELOPE_TOL,
        }
    else:
        # Unreachable gamma at this order is a legitimate outcome.
        checks = {"statuses_consistent": outcome_min.status == "infeasible"}
    results["checks"] = checks
    return _emit_report(args, results, all(checks.values()), started)


def cmd_regions(args) -> int:
    active = _region_atlas(args.t, args.n)
    with _open_out(args.out) as fh:
        write_node_csv(fh, args.n, active)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gini-bounds",
        description="Best-possible bounds on copulas with a given Gini's gamma.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # The gamma target, shared by every subcommand but gamma.
    with_t = argparse.ArgumentParser(add_help=False)
    with_t.add_argument("--t", type=float, required=True)

    # The point, shared by eval and oracle.
    at_point = argparse.ArgumentParser(add_help=False)
    at_point.add_argument("--u", type=float, required=True)
    at_point.add_argument("--v", type=float, required=True)

    p = sub.add_parser("eval", parents=[with_t, at_point], help="evaluate one bound at a point")
    p.add_argument("--side", choices=["upper", "lower"], default="upper")

    p = sub.add_parser("grid", parents=[with_t], help="emit a bound on a uniform lattice")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--side", choices=["upper", "lower"], default="upper")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("gamma", help="Gini's gamma of a copula spec")
    p.add_argument(
        "--copula",
        nargs="+",
        required=True,
        help="pi | w | m | pointbound A B THETA | checkerboard FILE",
    )

    sub.add_parser("classify", parents=[with_t], help="classify both envelopes at t")

    p = sub.add_parser("check", parents=[with_t], help="run the invariant suite for one t")
    p.add_argument("--grid", type=int, default=400)

    p = sub.add_parser("oracle", parents=[with_t, at_point], help="LP certification at a point")
    p.add_argument("--n", type=int, default=16)

    p = sub.add_parser("regions", parents=[with_t], help="emit the region-membership atlas")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # backwards, so that a merge shifts nothing unseen
        if argv[k - 1] in _FLOAT_OPTIONS and re.match(r"-\.?[0-9]", argv[k]):
            argv[k - 1:k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Looked up at call time, so that a replaced cmd_* handler runs.
        return globals()[f"cmd_{args.command}"](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
