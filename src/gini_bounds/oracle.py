"""Linear-programming certification of the closed-form envelopes.

Checkerboard copulas of order n are 1/n times the Birkhoff polytope, whose
vertices are the permutation matrices (Birkhoff-von Neumann), and both
Gini's gamma and the CDF value at a fixed point are affine in the mass
matrix.  Extremizing C(u, v) subject to gamma = t is therefore an exact LP,
and its optimum is the upper concave hull, at t, of the points
(gamma, C) of the permutation checkerboards: a mix of at most two of them.

The objective is constant on a 3 x 3 grid of row and column blocks, so a
permutation's C depends only on its block-count matrix, and there are O(n)
such classes.  Each class spans a gamma interval whose ends are its sorted
permutation, made of one run per pair of blocks (_runs), and its mirror,
the sorted permutation of the column-reversed class read back through
j -> n-1-j (proved at _class_gamma), and the hull is taken over those 2k
points.  The classes, their gammas and their values do not depend on the
direction, so one memoised table (_class_table) serves the max and the min
at one point.

The result is kept as the two permutations and their exact weight alpha;
nothing n x n is built on the way.  Every datum is rational (float u, v and
t are dyadic, and so are the ramps), so the gamma of the mix is re-derived
in integers on the 2n support cells from gamma_numerators and must equal
the target exactly, and the optimum is the class formula (_class_value)
of the two ends in integers over the ramps' common denominator, rounded
once.  The optimum is a sound inner bound (checkerboards are copulas) that
converges to the envelope as n grows.

The tests compare lp_extreme with references that share none of the block
algebra: a Hungarian slope search over the dense n x n matrices
(tests/_hungarian.py), and an exact dual certificate at n <= 64 that does
not use _class_gamma's lemma (tests/test_assignment.py).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .checkerboard import Checkerboard, gamma_numerators
from .core import _check_order, _check_point, check_t
from .errors import DomainError, InternalError


@dataclass(frozen=True)
class LpOutcome:
    """An LP result: the optimum, and the optimal board as a permutation pair.

    The board puts mass alpha / n on (i, permutations[0][i]) and
    (1 - alpha) / n on (i, permutations[1][i]); alpha is exact, and the
    optimum is that board's C(u, v), computed exactly and rounded once.
    Where optima tie, the board may be another of equal value.
    `argument` builds the dense Checkerboard on first access.  All three
    are None when the target is infeasible.
    """

    direction: str  # "min" | "max"
    optimum: Optional[float]
    status: str  # "optimal" | "infeasible"
    permutations: Optional[tuple[np.ndarray, np.ndarray]] = None
    alpha: Optional[Fraction] = None

    @functools.cached_property
    def argument(self) -> Optional[Checkerboard]:
        if self.permutations is None:
            return None
        first, second = self.permutations
        n = len(first)
        index = np.arange(n)
        mass = np.zeros((n, n))
        mass[index, first] = float(self.alpha) / n
        mass[index, second] += float(1 - self.alpha) / n
        return Checkerboard(n, mass)


def gamma_feasible_range(n: int) -> tuple[float, float]:
    """Attainable gamma range over order-n checkerboards: the reversal's to the identity's.

    Write a_i = i - (n-1)/2, so a_{n-1-j} = -a_j and the a_i are spaced by 1.
    gamma_coefficients' closed form gives, for the board of a permutation pi,

        gamma(pi) = (4/n^2) * sum_i f(a_i, a_pi(i)),
        f(a, b) = sgn(ab) min(|a|, |b|) + ([a = -b] - [a = b]) / 6,

    with no constant term.  Against the bound (|a| + |b|) / 2, whose sum
    over any permutation is sum_i |a_i|, a fixed point other than the
    centre loses exactly 1/6, and the centre (odd n) loses nothing.  A moved
    point loses at least 1/2: if |a| != |b| then ||a| - |b|| >= 1, and if
    a = -b != 0 then f = 1/6 - |a| with |a| >= 1/2.  A permutation other
    than the identity moves at least two points, each costing at least
    1/2 - 1/6 more than fixing it, so the identity is the unique maximiser
    and every other permutation lies at least 8/(3n^2) below it; brute force
    at n = 4..7 meets this margin with equality.  Reflecting the first
    coordinate negates gamma (core.reflect_first_coordinate) and maps the
    board of pi to the board of pi o reversal, so the reversal is the unique
    minimiser.

    The identity's 6 * sum_i f(a_i, a_i) is 6 * sum_i |a_i| less one per
    fixed point off the centre, (3n^2 - 2n - (n mod 2)) / 2, so its gamma is
    1 - 2/(3n) - (n mod 2)/(3n^2), rounded once here; the reversal's is the
    negative.
    """
    n = _check_order(n, "order")
    hi = 2 * _identity_s(n) / (3 * n * n)
    return -hi, hi


def _identity_s(n: int) -> int:
    """S = 3n^2/2 * gamma of the identity, (3n^2 - 2n - n mod 2) / 2 (an integer)."""
    return (3 * n * n - 2 * n - n % 2) // 2


def _ramp_blocks(n: int, z: float) -> tuple[tuple[int, int, int], float]:
    """Sizes of the blocks where ramp_i(z) is 1, in (0, 1) and 0, and the middle ramp.

    ramp_i(z) = clip(n*z - i, 0, 1) (checkerboard.cell_ramps) is 1 for
    i < p = floor(n*z) and 0 for i > p.  n*z - p is exact (p = 0, or
    p <= n*z < 2p), so it equals the ramp cell_ramps computes at row p,
    which is a block of its own when it is not 0.
    """
    nz = n * z
    p = min(math.floor(nz), n)
    ramp = nz - p
    mid = int(ramp > 0.0)
    return (p, mid, n - p - mid), ramp


# How N[0, 0], N[0, 2], N[2, 0] and N[2, 2] move with N[0, 0].
_CORNER_SIGNS = np.array([[1, 0, -1], [0, 0, 0], [-1, 0, 1]])


def _block_classes(rows, cols) -> np.ndarray:
    """Every 3 x 3 block-count matrix with row sums `rows` and column sums `cols`.

    The middle blocks hold at most one row and one column.  Once their units
    are placed, the four corner counts have one degree of freedom, N[0, 0],
    over an interval, so there are at most 5 (n + 1) classes.
    """
    row_units = [[(1, 0)], [(1, 2)]] if rows[1] else [[]]
    col_units = [[(0, 1)], [(2, 1)]] if cols[1] else [[]]
    layouts = [r + c for r in row_units for c in col_units]
    if rows[1] and cols[1]:
        layouts.append([(1, 1)])
    bases, sizes = [], []
    for cells in layouts:
        base = [[0] * 3 for _ in range(3)]
        for i, j in cells:
            base[i][j] = 1
        # The residual margins of the corners (no unit sits in a corner).
        ra, rc = rows[0] - base[0][1], rows[2] - base[2][1]
        ca, cc = cols[0] - base[1][0], cols[2] - base[1][2]
        # N[0, 0] runs over lo..min(ra, ca), empty if a residual is negative.
        # The base states the corners at class index 0 (x is lo less the
        # layout's first index), so adding the class index k gives N[0, 0] =
        # lo, lo + 1, ... on the layout's own classes.
        lo = max(0, ra - cc)
        x = lo - sum(sizes)
        base[0][0], base[0][2], base[2][0], base[2][2] = x, ra - x, ca - x, rc - ca + x
        bases.append(base)
        sizes.append(max(0, min(ra, ca) + 1 - lo))
    k = np.arange(sum(sizes))[:, None, None]
    return np.repeat(np.array(bases, dtype=np.int64), sizes, axis=0) + k * _CORNER_SIGNS


def _abs_run(x0, m):
    """sum_{k < m} |x0 + 2k|, elementwise over integer arrays."""
    # The terms below 0; np.clip costs more than this on small arrays.
    neg = np.minimum(np.maximum((1 - x0) // 2, 0), m)
    return (m - 2 * neg) * x0 + m * (m - 1) - 2 * neg * (neg - 1)


def _zero_in_run(x0, m):
    """[x0 + 2k = 0 for some 0 <= k < m], elementwise over integer arrays."""
    return (x0 <= 0) & (x0 % 2 == 0) & (-x0 < 2 * m)


def _runs(classes):
    """First row r and first image c of every (row block, column block) run.

    A class's sorted permutation sends the rows of each row block, in
    increasing order, to the column blocks in increasing order, and fills
    each column block from its low end.  So the N[I, J] rows of row block I
    that go to column block J are one run i -> c + (i - r): its rows follow
    the runs before it in row-major order of the blocks, and its images
    follow those before it in column-major order.  Over any leading axes of
    `classes`.
    """
    shape, flat = classes.shape, classes.shape[:-2] + (9,)
    by_rows = classes.reshape(flat)
    by_cols = classes.swapaxes(-1, -2).reshape(flat)
    r = (np.cumsum(by_rows, axis=-1) - by_rows).reshape(shape)
    c = (np.cumsum(by_cols, axis=-1) - by_cols).reshape(shape).swapaxes(-1, -2)
    return r, c


def _class_gamma(classes, n: int) -> np.ndarray:
    """S = 3n^2/2 * gamma of each class's sorted permutation.

    In row and column indices, 6 f(a_i, a_j) of gamma_feasible_range is

        F(i, j) = 3 |i + j - (n-1)| - 3 |i - j| + [i + j = n-1] - [i = j],

    using sgn(ab) min(|a|, |b|) = (|a + b| - |a - b|) / 2, and a
    permutation's gamma is 2 S / (3n^2) with the integer S = sum_i F(i, pi(i)).

    Lemma: over the permutations with block counts N, S is greatest at the
    sorted permutation of _runs, and least at the mirror: the sorted
    permutation of the column-reversed counts N[:, ::-1], read back through
    j -> n-1-j, whose S is minus that one's sorted S.

    Proof.  F is supermodular: on each unit square the second difference
    F(i, j) + F(i+1, j+1) - F(i, j+1) - F(i+1, j) is >= 0.  Its first term
    adds 6 where i + j + 1 = n - 1 and 0 elsewhere (|x| is convex with a
    kink of 2 at 0); its second adds 6 where i = j and 0 elsewhere.  The
    diagonal terms are not supermodular alone: [i + j = n-1] adds -2 exactly
    where i + j + 1 = n - 1, and -[i = j] adds -2 exactly where i = j;
    otherwise each adds 0 or 1.  So each -2 falls on a square that the
    matching first- or second-term 6 already holds up, and every unit
    square's difference is at least 0 (at least 4 on those squares).
    Summing unit squares, F(i, j') + F(i', j) >= F(i, j) + F(i', j') for
    i < i', j' < j.  Take pi with N and two rows i < i' with
    pi(i) > pi(i'), the rows in one row block or the images in one column
    block: exchanging their images keeps N, does not lower S and lowers
    the number of inversions.  Repeating ends, with S no lower, at a
    permutation increasing on every row block and with increasing inverse
    on every column block; given N that is exactly the sorted one.
    Reading the columns back through j -> n-1-j reverses the column blocks
    and negates S, as F(i, n-1-j) = -F(i, j) (f(a, -b) = -f(a, b)), so the
    greatest S over N[:, ::-1], read back, is the least over N.

    On a sorted run, i + j - (n-1) moves in steps of 2 from its value at r
    and i - j stays constant, so each run's S is summed in closed form
    here.  The LP result does not rest on the lemma for its soundness:
    every hull point is the gamma and value of a real permutation, and
    lp_extreme re-derives the gamma of the two it mixes apart from this
    algebra, exactly; the lemma makes it optimal.
    """
    r, c = _runs(classes)
    m = classes
    plus, minus = r + c - (n - 1), r - c  # i + j - (n-1) and i - j at r
    run = 3 * (_abs_run(plus, m) - m * np.abs(minus)) + _zero_in_run(plus, m) - m * (minus == 0)
    return run.sum(axis=(1, 2))


def _end_permutation(counts, n: int, mirror: bool) -> np.ndarray:
    """A class's sorted permutation, pi(i) = (c - r) + i on each run (_runs),
    or with mirror its mirror (_class_gamma's lemma): the sorted permutation
    of the column-reversed counts, read back through j -> n-1-j."""
    if mirror:
        counts = counts[:, ::-1]
    r, c = _runs(counts)
    # Runs in row order: a row block's runs go by column block.
    sorted_perm = np.repeat((c - r).ravel(), counts.ravel()) + np.arange(n)
    return n - 1 - sorted_perm if mirror else sorted_perm


def _upper_hull(s: list, value: list) -> list:
    """Indices of the upper concave hull of points sorted by s, distinct s
    (a monotone chain)."""
    hull: list = []
    for p in range(len(s)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (s[b] - s[a]) * (value[p] - value[a]) < (value[b] - value[a]) * (s[p] - s[a]):
                break
            hull.pop()
        hull.append(p)
    return hull


def _class_value(n00, n01, n10, n11, ramp_u, ramp_v):
    """n * C(u, v) of a class, from its block counts N[0, 0], N[0, 1], N[1, 0], N[1, 1].

    A permutation board's n * C(u, v) is sum_i ramp_i(u) * ramp_pi(i)(v),
    and the ramp is 1 on block 0, the middle ramp on block 1 and 0 on
    block 2 (_ramp_blocks), so only the top-left 2 x 2 counts enter.  This
    is the one statement of a class's value: on count arrays and float
    ramps for the hull, and for the exact optimum on integers over the
    ramps' common denominator, rounded once (lp_extreme).
    """
    return n00 + ramp_v * n01 + ramp_u * (n10 + ramp_v * n11)


@functools.lru_cache(maxsize=1)
def _class_table(n: int, u: float, v: float):
    """The part of lp_extreme that does not depend on the direction, read-only.

    The block classes, and the hull points of their mirror and then their
    sorted permutations: S = 3n^2/2 * gamma (_class_gamma) and C(u, v)
    (_class_value, over n).  cmd_oracle solves max and min at one (n, u, v), so one entry
    serves both.
    """
    rows, ramp_u = _ramp_blocks(n, u)
    cols, ramp_v = _ramp_blocks(n, v)
    classes = _block_classes(rows, cols)
    value = _class_value(*classes[:, :2, :2].reshape(-1, 4).T, ramp_u, ramp_v) / n
    s = np.concatenate([-_class_gamma(classes[..., ::-1], n), _class_gamma(classes, n)])
    value = np.concatenate([value, value])
    for array in (classes, s, value):
        array.flags.writeable = False
    return classes, s, value


def lp_extreme(n: int, u: float, v: float, t: float, direction: str) -> LpOutcome:
    """Extreme value of C(u, v) over order-n checkerboards with gamma = t.

    Infeasibility (t unreachable at order n) is a legitimate outcome and is
    reported through ``status``; small orders cannot reach gamma near +-1.

    The optimum mixes two permutation boards with an exact weight alpha.
    Their gammas are re-derived on the 2n support cells from
    gamma_numerators, apart from _class_gamma, and the mix must meet the
    target exactly, or InternalError is raised.
    """
    n = _check_order(n, "oracle order", least=2)
    if direction not in ("min", "max"):
        raise DomainError(f"direction must be 'min' or 'max', got {direction!r}")
    u, v = _check_point(u, v)
    t = check_t(t)
    lo, hi = gamma_feasible_range(n)
    if not lo <= t <= hi:
        return LpOutcome(direction, None, "infeasible")

    classes, s, value = _class_table(n, u, v)
    if direction == "min":
        value = -value
    # Per distinct s, keep the point of greatest value.
    order = np.lexsort((value, s))
    s, value = s[order], value[order]
    last = np.append(s[1:] != s[:-1], True)
    order, s, value = order[last], s[last].tolist(), value[last].tolist()
    hull = _upper_hull(s, value)
    # The target S = 3n^2/2 * t is tn / td exactly, in integers.  A t at an
    # end of the range that rounds past the exact end (the identity's S) is
    # read as that end.
    p, q = t.as_integer_ratio()
    edge, td = _identity_s(n), 2 * q
    tn = min(max(3 * n * n * p, -edge * td), edge * td)
    # The hull segment a..b with s[a] < target < s[b]; a = b when a hull
    # point sits at the target.  The s are integers, so bisecting on the
    # target's ceiling is exact.
    hull_s = [s[h] for h in hull]
    k = bisect.bisect_left(hull_s, -(-tn // td))
    b = hull[min(k, len(hull) - 1)]
    a = hull[k - 1] if 0 < k < len(hull) and hull_s[k] * td != tn else b
    # alpha = an / ad = (s[b] - target) / (s[b] - s[a]), or 1.
    an, ad = (1, 1) if a == b else (s[b] * td - tn, (s[b] - s[a]) * td)
    ends = [int(order[a]), int(order[b])]
    counts = [classes[point % len(classes)] for point in ends]
    perms = tuple(_end_permutation(c, n, point < len(classes)) for c, point in zip(counts, ends))
    g_a, g_b = gamma_numerators(n, np.arange(n), np.stack(perms)).sum(axis=1).tolist()
    # g_b + alpha (g_a - g_b) - 3n^2 = target, times ad * td.
    mix = ((g_b - 3 * n * n) * ad + an * (g_a - g_b)) * td
    if mix != tn * ad:
        miss = (mix - tn * ad) / (ad * td) * 2 / (3 * n * n)
        raise InternalError(f"optimal checkerboard misses the gamma target by {miss:.3e}")
    # Each end permutation has its class's block counts, so its exact
    # n * C(u, v) is the class value; with the dyadic ramps pu / qu and
    # pv / qv, the class value on these integers is qu * qv times it.
    (pu, qu), (pv, qv) = (_ramp_blocks(n, z)[1].as_integer_ratio() for z in (u, v))
    x_a, x_b = (
        _class_value(n00 * qu * qv, n01 * qu, n10 * qv, n11, pu, pv)
        for (n00, n01), (n10, n11) in (c[:2, :2].tolist() for c in counts)
    )
    # One correctly rounded int / int division.
    optimum = (x_b * ad + an * (x_a - x_b)) / (ad * n * qu * qv)
    return LpOutcome(direction, optimum, "optimal", perms, Fraction(an, ad))
