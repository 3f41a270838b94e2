"""Gini's gamma of the lower pinned copula from the copula's definition, in
exact arithmetic: a test reference that shares nothing with the package's
branch table, so it imports nothing from gini_bounds.

The lower pinned copula at (a, b) with value theta there is

    C(u, v) = max(0, u + v - 1, theta - (a - u)^+ - (b - v)^+),

and gamma(C) = 4 * integral over [0, 1] of [C(s, s) + C(s, 1 - s)] ds - 2.
Along either diagonal each of C's three pieces is linear between its kinks
(a and b on the diagonal, a and 1 - b on the anti-diagonal), and C is their
maximum, so it is linear between those kinks, 1/2 (where 0 and 2s - 1
cross) and the points where two pieces cross.  The trapezoid rule on those
points is exact, and with rational (a, b, theta) every point is rational,
so the integrals are exact in Fractions.
"""

from fractions import Fraction
from itertools import combinations


def _pieces(a, b, theta):
    """C's three pieces, each a function of (u, v)."""
    return (
        lambda u, v: 0,
        lambda u, v: u + v - 1,
        lambda u, v: theta - max(a - u, 0) - max(b - v, 0),
    )


def _kinked_integral(pieces, knots) -> Fraction:
    """The integral over [0, 1] of the maximum of `pieces`, functions of s
    each linear between consecutive knots: the trapezoid rule on the knots
    and on every point between two of them where two pieces cross."""
    knots = sorted({Fraction(0), Fraction(1), *(k for k in knots if 0 < k < 1)})
    nodes = list(knots)
    for p, q in zip(knots, knots[1:]):
        for f, g in combinations(pieces, 2):
            dp, dq = f(p) - g(p), f(q) - g(q)
            if dp * dq < 0:
                nodes.append(p + (q - p) * dp / (dp - dq))
    nodes.sort()
    values = [max(f(s) for f in pieces) for s in nodes]
    return sum(
        (q - p) * (fp + fq) for p, q, fp, fq in zip(nodes, nodes[1:], values, values[1:])
    ) / 2


def diagonal_integral(a, b, theta) -> Fraction:
    """The exact integral of C(s, s) over [0, 1]; a, b and theta are
    rationals or floats, each read as its exact value."""
    a, b, theta = map(Fraction, (a, b, theta))
    pieces = [lambda s, f=f: f(s, s) for f in _pieces(a, b, theta)]
    return _kinked_integral(pieces, (a, b, Fraction(1, 2)))


def anti_diagonal_integral(a, b, theta) -> Fraction:
    """The exact integral of C(s, 1 - s) over [0, 1], read as diagonal_integral reads."""
    a, b, theta = map(Fraction, (a, b, theta))
    pieces = [lambda s, f=f: f(s, 1 - s) for f in _pieces(a, b, theta)]
    return _kinked_integral(pieces, (a, 1 - b))


def exact_gamma(a, b, theta) -> Fraction:
    """Gini's gamma of the lower pinned copula at (a, b, theta), exactly."""
    return 4 * (diagonal_integral(a, b, theta) + anti_diagonal_integral(a, b, theta)) - 2
