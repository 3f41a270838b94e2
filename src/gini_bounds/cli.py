"""Command-line surface: evaluation, grids, gamma, classification, checks,
oracle certification, and the region atlas.

Exit codes: 0 all checks passed, 1 check or IO failure, 2 usage or domain
error.  Reports are JSON on stdout (sorted keys); grids and atlases are
CSV with 12 significant digits.  Identical invocations are deterministic
except for the elapsed_ms timing field of reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    classify_lower,
    classify_upper,
    lens_density_floor,
    lower_bound_values,
    region_masks,
    upper_bound,
    upper_bound_values,
)
from .checkerboard import Checkerboard, gamma_checkerboard_exact
from .core import PointBoundSpec, frechet_lower, frechet_upper, point_bound_lower, product
from .errors import DomainError, InternalError
from .lattice import LatticeFunction, check_properties, lattice_nodes, write_node_csv
from .oracle import lp_extreme
from .pointgamma import i1_closed, i2_closed, lower_point_bound_gamma
from .quadrature import gamma_quadrature

_QUAD_PANELS = 4000
_CHECK_TOL = 1e-10


def _emit_json(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


def _emit_csv(n: int, columns: dict, out_path: str | None) -> None:
    if out_path is None:
        write_node_csv(sys.stdout, n, columns)
    else:
        with open(out_path, "w", newline="\n") as fh:
            write_node_csv(fh, n, columns)


def _report(command: str, parameters: dict, results: dict, checks_passed: bool, started: float) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "checks_passed": checks_passed,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }


def _eval_report_dict(u: float, v: float, t: float, side: str) -> dict:
    if side == "upper":
        rep = upper_bound(u, v, t)
        payload = rep.to_json_dict()
    else:
        # Candidate bookkeeping describes the reflected upper evaluation at
        # (1-u, v, -t); the bound field is the final lower value at (u, v).
        rep = upper_bound(1.0 - u, v, -t)
        payload = rep.to_json_dict()
        payload.update(
            {"u": u, "v": v, "t": t, "bound": v - rep.bound,
             "reflected_u": 1.0 - u, "reflected_v": v}
        )
    payload["side"] = side
    return payload


def cmd_eval(args) -> int:
    payload = _eval_report_dict(args.u, args.v, args.t, args.side)
    _emit_json(payload, None)
    return 0


def _side_evaluator(side: str, t: float):
    if side == "upper":
        return lambda uu, vv: upper_bound_values(uu, vv, t)
    return lambda uu, vv: lower_bound_values(uu, vv, t)


def cmd_grid(args) -> int:
    lf = LatticeFunction.from_evaluator(_side_evaluator(args.side, args.t), args.n)
    if args.format == "csv":
        _emit_csv(lf.N, {"value": lf.values}, args.out)
    else:
        payload = {
            "n": lf.N,
            "t": args.t,
            "side": args.side,
            "values": [float(x) for x in lf.values.ravel()],
        }
        _emit_json(payload, args.out)
    return 0


def cmd_gamma(args) -> int:
    started = time.monotonic()
    kind = args.copula[0]
    if kind in ("pi", "w", "m"):
        if len(args.copula) != 1:
            raise DomainError(f"copula {kind!r} takes no extra arguments")
        evaluator = {"pi": product, "w": frechet_lower, "m": frechet_upper}[kind]
        closed = {"pi": 0.0, "w": -1.0, "m": 1.0}[kind]
        quad = gamma_quadrature(evaluator, _QUAD_PANELS)
        results = {"copula": kind, "closed": closed, "quadrature": quad}
        passed = abs(closed - quad) <= 1e-6
    elif kind == "pointbound":
        if len(args.copula) != 4:
            raise DomainError("usage: --copula pointbound A B THETA")
        a, b, theta = (float(x) for x in args.copula[1:])
        spec = PointBoundSpec(a, b, theta)
        branch = lower_point_bound_gamma(spec)
        quad = gamma_quadrature(point_bound_lower(spec), _QUAD_PANELS)
        results = {
            "copula": "pointbound",
            "a": a,
            "b": b,
            "theta": theta,
            "branch": branch.branch,
            "closed": branch.value,
            "i1": i1_closed(spec),
            "i2": i2_closed(spec),
            "quadrature": quad,
        }
        passed = abs(branch.value - quad) <= 1e-6
    elif kind == "checkerboard":
        if len(args.copula) != 2:
            raise DomainError("usage: --copula checkerboard FILE")
        board = Checkerboard.from_json(args.copula[1])
        exact = gamma_checkerboard_exact(board)
        quad = gamma_quadrature(board.as_evaluator(), _QUAD_PANELS)
        results = {
            "copula": "checkerboard",
            "file": args.copula[1],
            "n": board.n,
            "exact": exact,
            "quadrature": quad,
        }
        passed = abs(exact - quad) <= 1e-6
    else:
        raise DomainError(
            f"unknown copula spec {kind!r}; expected pi|w|m|pointbound|checkerboard"
        )
    _emit_json(_report("gamma", {"copula": args.copula}, results, passed, started), None)
    return 0 if passed else 1


def cmd_classify(args) -> int:
    started = time.monotonic()
    results = {
        "upper": classify_upper(args.t).value,
        "lower": classify_lower(args.t).value,
    }
    _emit_json(_report("classify", {"t": args.t}, results, True, started), None)
    return 0


def _minimiser_distance(rect, t: float, n: int) -> float | None:
    """Distance (in cells) from a cell to the nearest lens density minimiser.

    None where there is no lens: t >= 0 or t = -1.
    """
    if not -1.0 < t < 0.0:
        return None
    _, minimisers = lens_density_floor(t)
    i, j = rect[0], rect[1]
    return min(max(abs(i + 0.5 - p * n), abs(j + 0.5 - p * n)) for p in minimisers)


def cmd_check(args) -> int:
    started = time.monotonic()
    t, n = args.t, args.grid
    cls_up = classify_upper(t)
    cls_lo = classify_lower(t)
    copula_classes = ("FrechetLower", "ProperCopulaStrict", "FrechetUpper")

    nodes = lattice_nodes(n)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    upper_vals = upper_bound_values(uu, vv, t)
    lower_vals = lower_bound_values(uu, vv, t)

    rep_up = check_properties(LatticeFunction(n, upper_vals), tol=_CHECK_TOL)
    rep_lo = check_properties(LatticeFunction(n, lower_vals), tol=_CHECK_TOL)

    reflection_err = float(
        np.max(np.abs(lower_vals - (uu - upper_bound_values(uu, 1.0 - vv, -t))))
    )
    w_vals = frechet_lower(uu, vv)
    m_vals = frechet_upper(uu, vv)
    sandwich_err = float(
        max(
            np.max(w_vals - lower_vals),
            np.max(lower_vals - upper_vals),
            np.max(upper_vals - m_vals),
        )
    )

    checks = {
        "upper_quasicopula": rep_up.is_quasicopula,
        "lower_quasicopula": rep_lo.is_quasicopula,
        "upper_copula_matches_classification": rep_up.is_copula
        == (cls_up.value in copula_classes),
        "lower_copula_matches_classification": rep_lo.is_copula
        == (cls_lo.value in copula_classes),
        "reflection_identity": reflection_err <= 1e-12,
        "sandwich": sandwich_err <= 1e-12,
    }
    results = {
        "upper_classification": cls_up.value,
        "lower_classification": cls_lo.value,
        "upper_report": _property_report_dict(rep_up),
        "lower_report": _property_report_dict(rep_lo),
        "upper_min_volume_cell_distance_to_density_minimiser": _minimiser_distance(
            rep_up.min_volume_rect, t, n
        ),
        "reflection_max_err": reflection_err,
        "sandwich_max_violation": sandwich_err,
        "checks": checks,
    }
    passed = all(checks.values())
    _emit_json(_report("check", {"t": t, "grid": n}, results, passed, started), None)
    return 0 if passed else 1


def _property_report_dict(rep) -> dict:
    return {
        "boundary_max_err": rep.boundary_max_err,
        "monotonicity_min_step": rep.monotonicity_min_step,
        "lipschitz_max_excess": rep.lipschitz_max_excess,
        "min_volume": rep.min_volume,
        "min_volume_rect": list(rep.min_volume_rect),
        "is_quasicopula": rep.is_quasicopula,
        "is_copula": rep.is_copula,
    }


def cmd_oracle(args) -> int:
    started = time.monotonic()
    t, n, u, v = args.t, args.n, args.u, args.v
    upper_val = upper_bound(u, v, t).bound
    lower_val = float(lower_bound_values(u, v, t))
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
    passed = all(checks.values())
    _emit_json(
        _report("oracle", {"t": t, "n": n, "u": u, "v": v}, results, passed, started),
        None,
    )
    return 0 if passed else 1


def cmd_regions(args) -> int:
    nodes = lattice_nodes(args.n)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    active = region_masks(uu, vv, args.t)
    _emit_csv(args.n, {f"r{k + 1}": active[k] for k in range(5)}, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gini-bounds",
        description="Best-possible bounds on copulas with a given Gini's gamma.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one bound at a point")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--side", choices=["upper", "lower"], default="upper")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="emit a bound on a uniform lattice")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--side", choices=["upper", "lower"], default="upper")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("gamma", help="Gini's gamma of a copula spec")
    p.add_argument(
        "--copula",
        nargs="+",
        required=True,
        help="pi | w | m | pointbound A B THETA | checkerboard FILE",
    )
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("classify", help="classify both envelopes at t")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="run the invariant suite for one t")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=400)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="LP certification at a point")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("regions", help="emit the region-membership atlas")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_regions)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
