"""The benchmark's four workloads.

Each workload makes its inputs from a seed, runs one operation (a fixed
batch, identical in every repetition), and checks an operation's outputs
against the independent computations in ``reference``.  ``check`` returns
a list of problems; an operation fails if it raises or if the list is not
empty.

The program is always reached through module attributes (``gb.upper_bound``,
``cli.main``) at call time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import gini_bounds as gb
from gini_bounds import cli

import reference as ref

# Tolerances.  The reference envelope agrees with the program to ~1e-15, and
# the CSV files carry 12 significant digits (at most 5e-12 off for values in
# [0, 1]).  Each tolerance is far below the smallest fault the negative
# controls plant (1e-6).
ENVELOPE_TOL = 1e-10
CSV_TOL = 1e-11
LP_SOUND_TOL = 1e-6
LP_REFINE_TOL = 1e-9
AUDIT_TOL = 1e-10
WITNESS_VALUE_TOL = 1e-9
WITNESS_GAMMA_TOL = 1e-6
WITNESS_PANELS = 20000


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``gini-bounds`` subcommand in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def simpson_gamma(f, panels: int) -> float:
    """Gini's gamma of an evaluator by composite Simpson on a uniform mesh."""
    s = np.arange(panels + 1, dtype=float) / panels
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    g = np.asarray(f(s, s), dtype=float) + np.asarray(f(s, 1.0 - s), dtype=float)
    return 4.0 * float(np.dot(w, g)) / (3.0 * panels) - 2.0


def _band_problems(label: str, min_volume: float, floor: float, n: int) -> list[str]:
    """Most negative cell of an envelope with a lens, against D*/N^2."""
    bound = floor / n**2
    if not bound - 1e-12 <= min_volume <= 0.9 * bound:
        return [f"{label} min_volume {min_volume:.6e} outside [{bound:.6e}, {0.9 * bound:.6e}]"]
    return []


def _stratified_points(rng, per_branch: list[int]) -> np.ndarray:
    """(u, v, t) rows with per_branch[k] points in region k (0: no region).

    Candidates are drawn from a box where each region is common, then kept
    by the region the reference puts them in, in draw order, until every
    quota is met.
    """
    boxes = [  # (t range, larger coordinate range, smaller coordinate range)
        ((-0.95, 0.95), (0.02, 0.98), (0.02, 0.98)),
        ((-0.95, -0.77), (0.52, 0.97), (0.05, 0.47)),
        ((-0.95, -0.55), (0.52, 0.94), (0.06, 0.48)),
        ((-0.95, -0.35), (0.05, 0.62), (0.02, 0.42)),
        ((-0.95, -0.35), (0.60, 0.98), (0.36, 0.93)),
        ((-0.95, 0.45), (0.05, 0.95), (0.03, 0.93)),
    ]
    chosen: list[list[np.ndarray]] = [[] for _ in per_branch]
    while any(len(c) < q for c, q in zip(chosen, per_branch)):
        draws = []
        k = 48  # candidates per box and round
        for (t_lo, t_hi), (x_lo, x_hi), (m_lo, m_hi) in boxes:
            t = rng.uniform(t_lo, t_hi, k)
            x = rng.uniform(x_lo, x_hi, k)
            m = np.minimum(rng.uniform(m_lo, m_hi, k), x)
            swap = rng.random(k) < 0.5
            draws.append(np.stack([np.where(swap, m, x), np.where(swap, x, m), t], axis=1))
        cand = np.concatenate(draws)
        labels = ref.binding_branch(cand[:, 0], cand[:, 1], cand[:, 2])
        for row, lab in zip(cand, labels):
            if len(chosen[lab]) < per_branch[lab]:
                chosen[lab].append(row)
    return np.array([row for group in chosen for row in group])


class Workload:
    """Inputs made from a seed, one op, and the checks of its outputs."""

    name: str
    output_paths: list[str] = []  # files one op writes

    def op(self):
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute the reference values; runs after set-up is timed."""

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the ops wrote."""


class PointQueries(Workload):
    """The interactive scalar path: ranks, 200 envelope points, witnesses."""

    name = "point-queries"
    N_PAIRS = 500
    QUOTAS = [34, 34, 33, 33, 33, 33]  # no region, R1..R5: 200 points
    WITNESS_FROM = (0, 1, 3, 5)  # one witness point from each of these groups

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        r = rng.permutation(self.N_PAIRS) + 1
        noisy = r + rng.normal(0.0, self.N_PAIRS / 4.0, self.N_PAIRS)
        s = np.argsort(np.argsort(noisy)) + 1
        self.pairs = tuple((int(a), int(b)) for a, b in zip(r, s))
        self.points = _stratified_points(rng, self.QUOTAS)
        starts = np.cumsum([0] + self.QUOTAS)
        self.witness_points = self.points[[starts[g] for g in self.WITNESS_FROM]]
        self._point_list = [tuple(map(float, p)) for p in self.points]
        self._witness_list = [tuple(map(float, p)) for p in self.witness_points]

    def op(self) -> dict:
        sample = gb.RankSample(self.pairs)
        return {
            "statistic": gb.gamma_rank_statistic(sample),
            "upper": [gb.upper_bound(u, v, t).bound for u, v, t in self._point_list],
            "lower": [gb.lower_bound(u, v, t) for u, v, t in self._point_list],
            "classes": [
                (gb.classify_upper(t).value, gb.classify_lower(t).value)
                for _, _, t in self._point_list
            ],
            "witnesses": [gb.witness_copula(u, v, t) for u, v, t in self._witness_list],
        }

    def prepare_checks(self) -> None:
        u, v, t = self.points.T
        self.ref_statistic = ref.rank_statistic(self.pairs)
        self.ref_upper = ref.upper_envelope(u, v, t)
        self.ref_lower = ref.lower_envelope(u, v, t)
        self.ref_classes = [ref.classify(x) for x in t]
        wu, wv, wt = self.witness_points.T
        self.ref_witness = ref.upper_envelope(wu, wv, wt)

    def check(self, out: dict) -> list[str]:
        problems = []
        if out["statistic"] != self.ref_statistic:
            problems.append(f"rank statistic {out['statistic']!r} != {self.ref_statistic!r}")
        for side, want in (("upper", self.ref_upper), ("lower", self.ref_lower)):
            dev = np.abs(np.asarray(out[side], dtype=float) - want)
            if not np.all(dev <= ENVELOPE_TOL):
                k = int(np.nanargmax(np.where(np.isnan(dev), np.inf, dev)))
                problems.append(f"{side} envelope off by {dev[k]:.3e} at {tuple(self.points[k])}")
        if [tuple(c) for c in out["classes"]] != self.ref_classes:
            problems.append("classification differs from the paper's t ranges")
        for w, (u, v, t), want in zip(out["witnesses"], self.witness_points, self.ref_witness):
            value = float(w(u, v))
            gamma = simpson_gamma(w, WITNESS_PANELS)
            if abs(value - want) > WITNESS_VALUE_TOL or abs(gamma - t) > WITNESS_GAMMA_TOL:
                problems.append(
                    f"witness at {(u, v, t)}: value {value} vs {want}, gamma {gamma} vs {t}"
                )
        return problems


class EnvelopeAudit(Workload):
    """``check --grid 400`` across t from every region non-empty to all empty."""

    name = "envelope-audit"
    TS = (-0.9, -0.5, -0.1, 0.2, 0.45, 0.7)
    GRID = 400

    def __init__(self, seed: int, workdir: str):
        self.argvs = [["check", "--t", repr(t), "--grid", str(self.GRID)] for t in self.TS]

    def op(self) -> list[tuple[int, str]]:
        return [run_cli(argv) for argv in self.argvs]

    def check(self, out) -> list[str]:
        problems = []
        n = self.GRID
        for t, (code, text) in zip(self.TS, out):
            if code != 0:
                problems.append(f"check --t {t} exited {code}")
                continue
            report = json.loads(text)
            res = report["results"]
            want_up, want_lo = ref.classify(t)
            bad = [k for k, ok in res["checks"].items() if ok is not True]
            if report["checks_passed"] is not True or bad:
                problems.append(f"check --t {t}: failed checks {bad}")
            if (res["upper_classification"], res["lower_classification"]) != (want_up, want_lo):
                problems.append(f"check --t {t}: classification {res['upper_classification']}, "
                                f"{res['lower_classification']} vs {want_up}, {want_lo}")
            for side, cls, lens_t in (("upper", want_up, t), ("lower", want_lo, -t)):
                rep = res[f"{side}_report"]
                label = f"check --t {t} {side}"
                if not (rep["is_quasicopula"] and rep["boundary_max_err"] <= AUDIT_TOL
                        and rep["lipschitz_max_excess"] <= AUDIT_TOL
                        and rep["monotonicity_min_step"] >= -AUDIT_TOL):
                    problems.append(f"{label}: not a quasi-copula ({rep})")
                if cls == "ProperQuasiCopula":
                    if rep["is_copula"]:
                        problems.append(f"{label}: audited as a copula")
                    problems += _band_problems(label, rep["min_volume"],
                                               ref.lens_density_floor(lens_t), n)
                elif not rep["is_copula"] or rep["min_volume"] < -AUDIT_TOL:
                    problems.append(f"{label}: a copula expected, min_volume {rep['min_volume']}")
            if res["reflection_max_err"] > 1e-12 or res["sandwich_max_violation"] > 1e-12:
                problems.append(f"check --t {t}: reflection or sandwich error")
        return problems


class GridExport(Workload):
    """Lattice IO: write the grid and the atlas, read the grid back, audit it."""

    name = "grid-export"
    T = -0.9
    N = 200
    SPOTS = 64  # lattice nodes checked against the bisection reference per op

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.grid_path = os.path.join(workdir, f"grid-{os.getpid()}.csv")
        self.atlas_path = os.path.join(workdir, f"atlas-{os.getpid()}.csv")
        self.output_paths = [self.grid_path, self.atlas_path]
        t, n = repr(self.T), str(self.N)
        self.grid_argv = ["grid", "--t", t, "--n", n, "--out", self.grid_path]
        self.atlas_argv = ["regions", "--t", t, "--n", n, "--out", self.atlas_path]
        rng = np.random.default_rng([seed, 3])
        self.spots = rng.choice((self.N + 1) ** 2, self.SPOTS, replace=False)

    def op(self) -> dict:
        grid_code, _ = run_cli(self.grid_argv)
        atlas_code, _ = run_cli(self.atlas_argv)
        lattice = gb.LatticeFunction.from_csv(self.grid_path)
        return {
            "grid_code": grid_code,
            "atlas_code": atlas_code,
            "lattice": lattice,
            "report": gb.check_properties(lattice),
        }

    def prepare_checks(self) -> None:
        side = self.N + 1
        idx = np.arange(side * side)
        self.node_u = (idx // side) / self.N
        self.node_v = (idx % side) / self.N
        self.ref_spots = ref.upper_envelope(self.node_u[self.spots], self.node_v[self.spots], self.T)

    def check(self, out: dict) -> list[str]:
        if out["grid_code"] != 0 or out["atlas_code"] != 0:
            return [f"exit codes grid {out['grid_code']}, regions {out['atlas_code']}"]
        problems = []
        grid = ref.read_csv(self.grid_path, ["u", "v", "value"])
        atlas = ref.read_csv(self.atlas_path, ["u", "v", "r1", "r2", "r3", "r4", "r5"])
        if grid.shape != (self.node_u.size, 3) or atlas.shape != (self.node_u.size, 7):
            return [f"row counts grid {grid.shape}, atlas {atlas.shape}"]
        u, v, value = grid.T
        for name, table in (("grid", grid), ("atlas", atlas)):
            if (np.abs(table[:, 0] - self.node_u).max() > CSV_TOL
                    or np.abs(table[:, 1] - self.node_v).max() > CSV_TOL):
                problems.append(f"{name} node columns are not i/N in row-major order")
        w, m = np.maximum(0.0, u + v - 1.0), np.minimum(u, v)
        if np.any(value < w - CSV_TOL) or np.any(value > m + CSV_TOL):
            problems.append("grid value outside [W, M]")
        edges = np.concatenate([
            value[u == 0.0], value[v == 0.0], value[u == 1.0] - v[u == 1.0],
            value[v == 1.0] - u[v == 1.0],
        ])
        if edges.size != 4 * (self.N + 1) or np.abs(edges).max() > CSV_TOL:
            problems.append("grid boundary conditions fail")
        dev = np.abs(value[self.spots] - self.ref_spots)
        if not np.all(dev <= ENVELOPE_TOL + CSV_TOL):
            problems.append(f"grid value off the bisection reference by {np.nanmax(dev):.3e}")
        flags = atlas[:, 2:]
        if not np.all((flags == 0.0) | (flags == 1.0)):
            problems.append("atlas flags are not 0/1")
        free = ~flags.any(axis=1)
        if not np.array_equal(value[free], m[free]):
            problems.append("grid value differs from min(u, v) where the atlas has no flag")
        lattice = out["lattice"]
        if lattice.N != self.N or not np.array_equal(lattice.values.ravel(), value):
            problems.append("from_csv values differ from the file")
        rep = out["report"]
        if not rep.is_quasicopula or rep.is_copula or rep.boundary_max_err > AUDIT_TOL:
            problems.append(f"audit verdict wrong: {rep}")
        problems += _band_problems("audit", rep.min_volume, ref.lens_density_floor(self.T), self.N)
        return problems

    def close(self) -> None:
        for path in (self.grid_path, self.atlas_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


class LpCertify(Workload):
    """``oracle`` at four fixed interior points, each at orders 8 and 16."""

    name = "lp-certify"
    # Targets stay inside the order-8 feasible range +-(1 - 2/24).
    POINTS = ((0.5, 0.5, 0.0), (0.3, 0.7, -0.4), (0.6, 0.35, 0.3), (0.7, 0.4, -0.7))
    ORDERS = (8, 16)

    def __init__(self, seed: int, workdir: str):
        self.argvs = [
            ["oracle", "--t", repr(t), "--n", str(n), "--u", repr(u), "--v", repr(v)]
            for u, v, t in self.POINTS
            for n in self.ORDERS
        ]

    def op(self) -> list[tuple[int, str]]:
        return [run_cli(argv) for argv in self.argvs]

    def prepare_checks(self) -> None:
        u, v, t = np.array(self.POINTS).T
        self.ref_upper = ref.upper_envelope(u, v, t)
        self.ref_lower = ref.lower_envelope(u, v, t)

    def check(self, out) -> list[str]:
        problems = []
        results = iter(out)
        for k, point in enumerate(self.POINTS):
            up, lo = self.ref_upper[k], self.ref_lower[k]
            by_order = {}
            for n in self.ORDERS:
                code, text = next(results)
                label = f"oracle {point} n={n}"
                if code != 0:
                    problems.append(f"{label} exited {code}")
                    continue
                res = json.loads(text)["results"]
                if res["status"] != "optimal":
                    problems.append(f"{label}: status {res['status']}")
                    continue
                if abs(res["upper_bound"] - up) > ENVELOPE_TOL or abs(res["lower_bound"] - lo) > ENVELOPE_TOL:
                    problems.append(f"{label}: envelope {res['upper_bound']}, {res['lower_bound']} "
                                    f"vs reference {up}, {lo}")
                if res["lp_max"] > up + LP_SOUND_TOL or res["lp_min"] < lo - LP_SOUND_TOL:
                    problems.append(f"{label}: LP {res['lp_min']}..{res['lp_max']} "
                                    f"escapes the reference {lo}..{up}")
                by_order[n] = res
            if len(by_order) == 2:
                coarse, fine = by_order[self.ORDERS[0]], by_order[self.ORDERS[1]]
                if (fine["lp_max"] < coarse["lp_max"] - LP_REFINE_TOL
                        or fine["lp_min"] > coarse["lp_min"] + LP_REFINE_TOL):
                    problems.append(f"oracle {point}: order 16 is narrower than order 8")
        return problems


WORKLOADS = {w.name: w for w in (PointQueries, EnvelopeAudit, GridExport, LpCertify)}
