"""Dense two-phase simplex for small equality-constrained LPs.

The LP oracle no longer uses it: it takes the hull of the permutation
boards over block classes (see oracle).  The module stays while the
benchmark's per-layer tracer (perfbench/tracing.py) names
simplex.solve_equality_lp.

Solves min/max c.x subject to A x = b, x >= 0 with Bland's pivoting rule
(lowest eligible index for both entering and leaving variables), which
cannot cycle.  Problem sizes in this package are desk-scale (at most a
thousand variables and a few dozen rows), so a dense tableau is simpler
and more deterministic than an external solver.

The returned vertex is re-solved against the original equality system at
the end, so its residuals are at rounding level rather than accumulated
pivot noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalError

_RC_TOL = 1e-9  # reduced-cost threshold for optimality
_PIVOT_TOL = 1e-9  # minimum magnitude of an eligible pivot
_FEAS_TOL = 1e-8  # phase-1 objective above this means infeasible
# Ratio-test ties, broken by Bland's rule: rounding moves an O(1) ratio by ~1e-16.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible"
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int


def _pivot(tableau: np.ndarray, reduced: np.ndarray, basis: list, row: int, col: int):
    prow = tableau[row] / tableau[row, col]
    tableau[row] = prow
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, prow)
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    reduced -= reduced[col] * prow[:-1]
    reduced[col] = 0.0
    basis[row] = col


def _iterate(tableau, reduced, basis, budget: int) -> int:
    """Run simplex pivots under Bland's rule; returns iterations used."""
    used = 0
    while True:
        eligible = np.nonzero(reduced < -_RC_TOL)[0]
        if eligible.size == 0:
            return used
        if used >= budget:
            raise InternalError(
                f"simplex iteration cap exhausted after {used} pivots"
            )
        col = int(eligible[0])
        column = tableau[:, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise InternalError(
                "LP is unbounded; the feasible set should be a polytope"
            )
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _TIE_TOL]
        row = int(min(ties, key=lambda i: basis[i]))
        _pivot(tableau, reduced, basis, row, col)
        used += 1


def solve_equality_lp(
    c, A, b, maximize: bool = False, max_iterations: Optional[int] = None
) -> SimplexResult:
    """Optimize c.x over {A x = b, x >= 0}.

    Redundant equality rows are tolerated (they are detected in phase 1 and
    dropped).  Raises InternalError on iteration-cap exhaustion.
    """
    A0 = np.asarray(A, dtype=float)
    b0 = np.asarray(b, dtype=float)
    c0 = np.asarray(c, dtype=float)
    m, n = A0.shape
    if max_iterations is None:
        max_iterations = 200 * (m + n)

    work_a = A0.copy()
    work_b = b0.copy()
    negative = work_b < 0
    work_a[negative] *= -1.0
    work_b[negative] *= -1.0

    cost = -c0 if maximize else c0

    # Phase 1: artificial basis, minimize the artificial mass.
    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = work_a
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = work_b
    basis = list(range(n, n + m))
    reduced = np.zeros(n + m)
    reduced[:n] = -work_a.sum(axis=0)

    used = _iterate(tableau, reduced, basis, max_iterations)

    artificial_mass = sum(
        tableau[i, -1] for i in range(m) if basis[i] >= n
    )
    if artificial_mass > _FEAS_TOL:
        return SimplexResult("infeasible", None, None, used)

    # Drive residual artificials out of the basis; rows that cannot be
    # pivoted are linearly dependent on the others and are dropped.
    drop = []
    for i in range(m):
        if basis[i] < n:
            continue
        structural = np.nonzero(np.abs(tableau[i, :n]) > _PIVOT_TOL)[0]
        if structural.size:
            _pivot(tableau, reduced, basis, i, int(structural[0]))
        else:
            drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]

    # Phase 2 on structural columns only.
    tableau = np.hstack([tableau[:, :n], tableau[:, -1:]])
    basis_cost = cost[basis]
    reduced = cost - basis_cost @ tableau[:, :-1]
    used += _iterate(tableau, reduced, basis, max_iterations - used)

    # Recover the vertex from the original system for rounding-level residuals.
    x = np.zeros(n)
    solution, *_ = np.linalg.lstsq(A0[:, basis], b0, rcond=None)
    x[basis] = solution
    return SimplexResult("optimal", x, float(c0 @ x), used)
