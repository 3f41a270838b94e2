"""Command-line surface: evaluation, grids, gamma, classification, checks,
oracle certification, and the region atlas.

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
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .bounds import (
    _BLOCK,
    BoundClassification,
    _reflected_upper_bound,
    classify_lower,
    classify_upper,
    lens_density_floor,
    lower_bound,
    region_masks,
    upper_bound,
    upper_bound_values,
)
from .checkerboard import Checkerboard, gamma_checkerboard_exact
from .core import (
    PointBoundSpec, check_t, frechet_lower, frechet_upper, point_bound_lower, product,
)
from .errors import DomainError, InternalError
from .lattice import (
    LatticeFunction, _row_strips, check_properties, lattice_nodes, write_node_csv,
)
from .oracle import lp_extreme
from .pointgamma import i1_closed, i2_closed, lower_point_bound_gamma
from .quadrature import _CERTIFY_PANELS, _CERTIFY_TOL, gamma_quadrature

_CHECK_TOL = 1e-10
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


def _emit_report(command: str, parameters: dict, results: dict, checks_passed: bool,
                 started: float) -> int:
    """Write a command's JSON report to stdout; return its exit code."""
    _emit_json({
        "command": command,
        "parameters": parameters,
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
        # (1-u, v, -t); the bound field is the lower value v - upper at (u, v).
        report = _reflected_upper_bound(u, v, t)
        payload = asdict(report)
        payload.update(
            {"u": u, "v": v, "t": t, "bound": v - report.bound,
             "reflected_u": 1.0 - u, "reflected_v": v}
        )
    payload["side"] = args.side
    _emit_json(payload)
    return 0


def _triangle_lattice(f, n: int, t: float) -> np.ndarray:
    """f(u, v, t) on the order-n lattice, for an f exactly symmetric in (u, v).

    f is evaluated once on the nodes with i <= j, one group of whole rows
    of that triangle per call, each group at most _BLOCK points (a single
    row may be longer).  Row r of a group is written to out[..., r, r:];
    the group's rows r0..r1-1 are then mirrored by one transposed copy of
    the rectangle right of its diagonal block, and the block's own upper
    half.  f may return a leading stack axis, as region_masks does with
    its five masks; the lattice axes come last.
    """
    nodes = lattice_nodes(n)
    side = n + 1
    out = None
    r0 = 0
    while r0 < side:
        r1, size = r0 + 1, side - r0
        while r1 < side and size + side - r1 <= _BLOCK:
            size += side - r1
            r1 += 1
        rows = range(r0, r1)
        u = np.repeat(nodes[r0:r1], [side - r for r in rows])
        v = np.concatenate([nodes[r:] for r in rows])
        tri = np.asarray(f(u, v, t))
        if out is None:
            out = np.empty(tri.shape[:-1] + (side, side), dtype=tri.dtype)
        start = 0
        for r in rows:
            out[..., r, r:] = tri[..., start:start + side - r]
            start += side - r
        out[..., r1:, r0:r1] = out[..., r0:r1, r1:].swapaxes(-1, -2)
        block = out[..., r0:r1, r0:r1]
        np.copyto(block, block.swapaxes(-1, -2), where=np.tri(r1 - r0, k=-1, dtype=bool))
        r0 = r1
    return out


def _envelope_lattice(side: str, t: float, n: int) -> LatticeFunction:
    """One side's envelope on the order-n lattice, from one upper lattice.

    The upper envelope K depends on (u, v) only through max and min, so its
    lattice is exactly symmetric and _triangle_lattice builds it.  The lower
    envelope is the reflection v - K(1 - u, v, -t): entry (i, j) is
    v_j - K((n - i)/n, v_j, -t), read off the upper lattice at -t, row n - i,
    at the exact node (n - i)/n rather than the rounded 1 - i/n; the
    subtraction overwrites that lattice in place.  Entry (j, i) is then the
    other reflection form u_i - K(u_i, (n - j)/n, -t), a different entry of
    the same -t lattice off the diagonal, which check compares with (i, j).
    """
    nodes = lattice_nodes(n)
    t = check_t(t)  # before the lower side negates it, so that an error names the t given
    if side == "upper":
        return LatticeFunction(n, _triangle_lattice(upper_bound_values, n, t))
    reflected = _triangle_lattice(upper_bound_values, n, -t)[::-1]
    return LatticeFunction(n, np.subtract(nodes, reflected, out=reflected))


def cmd_grid(args) -> int:
    lf = _envelope_lattice(args.side, args.t, args.n)
    if args.format == "csv":
        with _open_out(args.out) as fh:
            write_node_csv(fh, lf.N, {"value": lf.values})
    else:
        payload = {
            "n": lf.N,
            "t": args.t,
            "side": args.side,
            "values": [float(x) for x in lf.values.ravel()],
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
    results["quadrature"] = gamma_quadrature(evaluator, _CERTIFY_PANELS)
    passed = abs(expected - results["quadrature"]) <= _CERTIFY_TOL
    return _emit_report("gamma", {"copula": args.copula}, results, passed, started)


def cmd_classify(args) -> int:
    started = time.monotonic()
    results = {
        "upper": classify_upper(args.t).value,
        "lower": classify_lower(args.t).value,
    }
    return _emit_report("classify", {"t": args.t}, results, True, started)


def _minimiser_distance(rect, lens, n: int) -> float | None:
    """Distance (in cells) from a cell to the nearest lens density minimiser.

    lens is lens_density_floor's result, or None where there is no lens.
    """
    if lens is None:
        return None
    i, j = rect[0], rect[1]
    return min(max(abs(i + 0.5 - p * n), abs(j + 0.5 - p * n)) for p in lens[1])


def _floor_cell_volume(lens, n: int) -> float | None:
    """D*(t) / n^2, the least volume an order-n lattice cell can have in the lens."""
    return None if lens is None else lens[0] / (n * n)


def cmd_check(args) -> int:
    started = time.monotonic()
    t, n = args.t, args.grid
    cls_up = classify_upper(t)
    cls_lo = classify_lower(t)
    # The lens, where an envelope's density is negative, exists exactly where
    # the envelope is a proper quasi-copula.  The lower envelope reflects the
    # upper one at -t, density and all.
    quasi = BoundClassification.PROPER_QUASI_COPULA
    lens_up = lens_density_floor(t) if cls_up is quasi else None
    lens_lo = lens_density_floor(-t) if cls_lo is quasi else None

    upper, lower = (_envelope_lattice(side, t, n) for side in ("upper", "lower"))
    rep_up = check_properties(upper, tol=_CHECK_TOL)
    rep_lo = check_properties(lower, tol=_CHECK_TOL)
    upper_vals, lower_vals = upper.values, lower.values
    nodes = upper.nodes

    def strip_max(term) -> float:
        """max over the lattice of term(rows), taken one row strip at a time."""
        return float(np.max([np.max(term(rows)) for rows in _row_strips(n + 1, n + 1)]))

    # The two reflection forms, v_j - K((n - i)/n, v_j, -t) at lower[i, j]
    # and u_i - K(u_i, (n - j)/n, -t) at lower[j, i]: two entries of the -t
    # upper lattice (see _envelope_lattice).  Float subtraction is
    # antisymmetric, so the largest lower - lower.T is its largest abs.
    reflection_err = strip_max(lambda rows: lower_vals[rows] - lower_vals[:, rows].T)
    # W <= lower <= upper <= M, with W and M taken per strip from the nodes.
    sandwich_err = max(
        strip_max(lambda rows: frechet_lower(nodes[rows, None], nodes) - lower_vals[rows]),
        strip_max(lambda rows: lower_vals[rows] - upper_vals[rows]),
        strip_max(lambda rows: upper_vals[rows] - frechet_upper(nodes[rows, None], nodes)),
    )

    checks = {
        "upper_quasicopula": rep_up.is_quasicopula,
        "lower_quasicopula": rep_lo.is_quasicopula,
        "upper_copula_matches_classification": rep_up.is_copula == (lens_up is None),
        "lower_copula_matches_classification": rep_lo.is_copula == (lens_lo is None),
        "reflection_identity": reflection_err <= 1e-12,
        "sandwich": sandwich_err <= 1e-12,
    }
    results = {
        "upper_classification": cls_up.value,
        "lower_classification": cls_lo.value,
        "upper_report": asdict(rep_up),
        "lower_report": asdict(rep_lo),
        "upper_min_volume_cell_distance_to_density_minimiser": _minimiser_distance(
            rep_up.min_volume_rect, lens_up, n
        ),
        "upper_lens_floor_cell_volume": _floor_cell_volume(lens_up, n),
        "lower_lens_floor_cell_volume": _floor_cell_volume(lens_lo, n),
        "reflection_max_err": reflection_err,
        "sandwich_max_violation": sandwich_err,
        "checks": checks,
    }
    return _emit_report("check", {"t": t, "grid": n}, results, all(checks.values()), started)


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
            "lp_max_sound": outcome_max.optimum <= upper_val + 1e-9,
            "lp_min_sound": outcome_min.optimum >= lower_val - 1e-9,
        }
    else:
        # Unreachable gamma at this order is a legitimate outcome.
        checks = {"statuses_consistent": outcome_min.status == "infeasible"}
    results["checks"] = checks
    parameters = {"t": t, "n": n, "u": u, "v": v}
    return _emit_report("oracle", parameters, results, all(checks.values()), started)


def cmd_regions(args) -> int:
    active = _triangle_lattice(region_masks, args.n, args.t)
    with _open_out(args.out) as fh:
        write_node_csv(fh, args.n, {f"r{k + 1}": active[k] for k in range(5)})
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

    p = sub.add_parser("eval", parents=[with_t], help="evaluate one bound at a point")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
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

    p = sub.add_parser("oracle", parents=[with_t], help="LP certification at a point")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)

    p = sub.add_parser("regions", parents=[with_t], help="emit the region-membership atlas")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
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
