"""Reference solvers for the LP oracle tests: a maximum-weight assignment
(the Hungarian method) and the slope search over permutation checkerboards
built on it.  They use the dense n x n gamma and objective matrices, so they
check gini_bounds.oracle by a route that shares none of its block algebra.
"""

import numpy as np

from gini_bounds.checkerboard import cell_ramps, gamma_coefficients

# Rounding slack on the hull's float coordinates.  A target this close to the
# gamma range is reached by its end permutation, and a permutation lies above
# the current hull segment when it beats it by more than this, relative to
# the weight scale 1 + |slope|.
_HULL_TOL = 1e-12


def max_weight_assignment(weights):
    """A maximum-weight perfect matching of a square matrix, and its dual.

    Returns the column of each row, and potentials r and s with
    r[i] + s[j] >= weights[i, j] everywhere and equality on the matching, up
    to float rounding.  Shortest augmenting paths with row and column
    potentials (the Hungarian method) on the costs -weights, O(n^3).  Index 0
    of the padded arrays is a virtual column that roots each search;
    owner[j] is the 1-based row on column j, 0 if none.
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
    return perm, -row_pot[1:], -col_pot[1:]


def slope_search(n, u, v, t, direction):
    """Extreme C(u, v) over order-n checkerboards with gamma = t, or None.

    Starts from the reversal and the identity, solves one assignment at the
    slope of the bracketing pair, and moves the end on the same side of t,
    until no permutation lies above the segment.
    """
    g = gamma_coefficients(n)
    c = np.outer(cell_ramps(n, u), cell_ramps(n, v))
    if direction == "min":
        c = -c
    rows = np.arange(n)

    def vertex(perm):
        return g[rows, perm].mean() - 2.0, c[rows, perm].mean()

    (ga, ca), (gb, cb) = vertex(rows[::-1]), vertex(rows)
    if not ga - _HULL_TOL <= t <= gb + _HULL_TOL:
        return None
    while ga < gb:
        slope = (cb - ca) / (gb - ga)
        gt, ct = vertex(max_weight_assignment(c - slope * g)[0])
        if (ct - slope * gt) - (ca - slope * ga) <= _HULL_TOL * (1.0 + abs(slope)):
            break
        if gt <= t:
            ga, ca = gt, ct
        else:
            gb, cb = gt, ct
    alpha = 1.0 if ga >= gb else min(max((gb - t) / (gb - ga), 0.0), 1.0)
    best = alpha * ca + (1.0 - alpha) * cb
    return -best if direction == "min" else best
