"""Linear-programming certification of the closed-form envelopes.

Checkerboard copulas of order n are 1/n times the Birkhoff polytope, whose
vertices are the permutation matrices (Birkhoff-von Neumann), and both
Gini's gamma and the CDF value at a fixed point are affine in the mass
matrix.  Extremizing C(u, v) subject to gamma = t is therefore an exact LP,
and its optimum is the upper concave hull, at t, of the points
(gamma, C) of the permutation checkerboards: a mix of at most two of them.
The hull's ends are the reversal and the identity (proved at
_extreme_gamma_perms), and between them it is searched with a maximum-weight
assignment solver.  The optimum is a sound inner bound (checkerboards are
copulas) that converges to the envelope as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .checkerboard import (
    Checkerboard,
    cell_ramps,
    gamma_checkerboard_exact,
    gamma_coefficients,
)
from .core import UnitPoint, _check_order, check_t
from .errors import DomainError, InternalError

_GAMMA_RESIDUAL_TOL = 1e-9

# Rounding slack on the hull's float coordinates.  A target this close to the
# gamma range is reached by its end permutation, and a permutation lies above
# the current hull segment when it beats it by more than this, relative to
# the weight scale 1 + |slope|.
_HULL_TOL = 1e-12


@dataclass(frozen=True)
class LpOutcome:
    direction: str  # "min" | "max"
    optimum: Optional[float]
    argument: Optional[Checkerboard]
    status: str  # "optimal" | "infeasible"


def max_weight_assignment(weights) -> np.ndarray:
    """Column of each row in a maximum-weight perfect matching of a square matrix.

    Shortest augmenting paths with row and column potentials (the Hungarian
    method), O(n^3).  Index 0 of the padded arrays is a virtual column that
    roots each search; owner[j] is the 1-based row on column j, 0 if none.
    """
    n = len(weights)
    cost = np.zeros((n + 1, n + 1))
    cost[1:, 1:] = -np.asarray(weights, dtype=float)
    row_pot, col_pot = np.zeros(n + 1), np.zeros(n + 1)
    owner = np.zeros(n + 1, dtype=int)
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = np.full(n + 1, np.inf)
        via = np.zeros(n + 1, dtype=int)
        used = np.zeros(n + 1, dtype=bool)
        while owner[col]:
            used[col] = True
            r = owner[col]
            reduced = cost[r] - row_pot[r] - col_pot
            closer = ~used & (reduced < slack)
            slack[closer] = reduced[closer]
            via[closer] = col
            open_slack = np.where(used, np.inf, slack)
            col = int(np.argmin(open_slack))
            delta = open_slack[col]
            row_pot[owner[used]] += delta
            col_pot[used] -= delta
            slack[~used] -= delta
        while col:
            owner[col] = owner[via[col]]
            col = via[col]
    perm = np.empty(n, dtype=int)
    perm[owner[1:] - 1] = np.arange(n)
    return perm


class _Vertex(NamedTuple):
    """The checkerboard P / n of a permutation, with its gamma and objective."""

    perm: np.ndarray
    gamma: float
    value: float  # sum(c * P) / n


def _vertex(perm: np.ndarray, g: np.ndarray, c: np.ndarray) -> _Vertex:
    rows = np.arange(len(perm))
    return _Vertex(perm, float(g[rows, perm].mean() - 2.0), float(c[rows, perm].mean()))


def _extreme_gamma_perms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutations of least and of greatest gamma at order n: reversal, identity.

    Write a_i = i - (n-1)/2, so a_{n-1-j} = -a_j and the a_i are spaced by 1.
    gamma_coefficients' closed form gives, for the board of a permutation pi,

        gamma(pi) = c_n + (4/n^2) * sum_i f(a_i, a_pi(i)),
        f(a, b) = sgn(ab) min(|a|, |b|) + ([a = -b] - [a = b]) / 6,

    with c_n depending on n alone.  Against the bound (|a| + |b|) / 2, whose
    sum over any permutation is sum_i |a_i|, a fixed point other than the
    centre loses exactly 1/6, and the centre (odd n) loses nothing.  A moved
    point loses at least 1/2: if |a| != |b| then ||a| - |b|| >= 1, and if
    a = -b != 0 then f = 1/6 - |a| with |a| >= 1/2.  A permutation other
    than the identity moves at least two points, each costing at least
    1/2 - 1/6 more than fixing it, so the identity is the unique maximiser
    and every other permutation lies at least 8/(3n^2) below it; brute force
    at n = 4..7 meets this margin with equality.  Reflecting the first
    coordinate negates gamma (core.reflect_first_coordinate) and maps the
    board of pi to the board of pi o reversal, so the reversal is the unique
    minimiser.  The margin is far above the rounding of the float matrix g,
    and max_weight_assignment(-g), max_weight_assignment(g) return these two.
    """
    ident = np.arange(n)
    return ident[::-1], ident


def lp_extreme(n: int, u: float, v: float, t: float, direction: str) -> LpOutcome:
    """Extreme value of C(u, v) over order-n checkerboards with gamma = t.

    Infeasibility (t unreachable at order n) is a legitimate outcome and is
    reported through ``status``; small orders cannot reach gamma near +-1.
    """
    _check_order(n, "oracle order", least=2)
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    UnitPoint(u, v)
    t = check_t(t)

    g = gamma_coefficients(n)
    c = np.outer(cell_ramps(n, u), cell_ramps(n, v))
    if direction == "min":
        c = -c
    # The hull segment's ends bracket t: a.gamma <= t <= b.gamma up to
    # rounding.  Each solve finds the vertex highest above the segment and
    # moves the end on its side of t there.
    a, b = (_vertex(perm, g, c) for perm in _extreme_gamma_perms(n))
    if not a.gamma - _HULL_TOL <= t <= b.gamma + _HULL_TOL:
        return LpOutcome(direction, None, None, "infeasible")
    while a.gamma < b.gamma:
        slope = (b.value - a.value) / (b.gamma - a.gamma)
        top = _vertex(max_weight_assignment(c - slope * g), g, c)
        rise = (top.value - slope * top.gamma) - (a.value - slope * a.gamma)
        if rise <= _HULL_TOL * (1.0 + abs(slope)):
            break
        if top.gamma <= t:
            a = top
        else:
            b = top

    alpha = 1.0
    if a.gamma < b.gamma:
        alpha = min(max((b.gamma - t) / (b.gamma - a.gamma), 0.0), 1.0)
    rows = np.arange(n)
    mass = np.zeros((n, n))
    mass[rows, a.perm] = alpha / n
    mass[rows, b.perm] += (1.0 - alpha) / n
    board = Checkerboard(n, mass)
    residual = abs(gamma_checkerboard_exact(board) - t)
    if residual > _GAMMA_RESIDUAL_TOL:
        raise InternalError(
            f"optimal checkerboard misses the gamma target by {residual:.3e}"
        )
    return LpOutcome(direction, board.cdf(u, v), board, "optimal")


def gamma_feasible_range(n: int) -> tuple[float, float]:
    """Attainable gamma range over order-n checkerboards: the reversal's to the identity's."""
    g = gamma_coefficients(n)
    lo, hi = (_vertex(perm, g, g).gamma for perm in _extreme_gamma_perms(n))
    return lo, hi
