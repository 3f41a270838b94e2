"""Closed-form Gini's gamma of the lower point-bound copula.

The gamma of the copula max(0, u+v-1, theta - (a-u)^+ - (b-v)^+) is
4*(I1 + I2) - 2, with I1 the anti-diagonal integral (a single expression)
and I2 the diagonal one; after reducing to b <= a by symmetry, gamma is a
five-branch piecewise quadratic in (a, b, theta).  branch_form is the one
table of the five quadratics, and I2 is read off gamma.
Branch conditions compare the larger coordinate with theta + 1/2,
theta + smaller coordinate and (1 + theta)/2; adjacent branches agree on
shared boundaries, and branch selection takes the first condition that
holds, in the listed order.  branch_condition states the conditions once;
bounds also evaluates it on arrays to decide which candidate roots bind.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PointBoundSpec
from .errors import InternalError


@dataclass(frozen=True)
class GammaBranchValue:
    """Gamma value of a lower point-bound copula plus the branch that produced it."""

    branch: int  # 1..5
    value: float


def i1_closed(spec: PointBoundSpec) -> float:
    """Anti-diagonal integral of the lower point-bound copula: theta*(1-a-b+theta)."""
    return spec.theta * (1.0 - spec.a - spec.b + spec.theta)


def i2_closed(spec: PointBoundSpec) -> float:
    """Diagonal integral of the lower point-bound copula: (gamma + 2)/4 - I1."""
    return (lower_point_bound_gamma(spec).value + 2.0) / 4.0 - i1_closed(spec)


def branch_form(branch: int, x, m, t):
    """(radicand, gap, offset, den) of gamma branch ``branch`` at level t.

    The one table of the five branches: x and m are the larger and smaller
    of (a, b), and gamma_branch(theta) - t = den*theta**2 - 2*offset*theta - gap.
    The largest root in theta, a candidate of the upper envelope (bounds),
    is (offset + sqrt(radicand)) / den, and exists where the radicand,
    offset**2 + den*gap, is nonnegative.  Works on floats and elementwise
    on arrays.
    """
    # Each gap is (t + 1) plus the branch's constant term, kept
    # parenthesized, so that it is exact at t = -1, where the envelope
    # degenerates to W.  Squares are products: on a float, ** calls libm pow,
    # which can round an ulp away from x * x (numpy's square on arrays), and
    # the scalar record would then differ from the array kernel.
    if branch == 1:
        gap, offset, den = t + 1.0, 2.0 * (x + m - 1.0), 4.0
    elif branch == 2:
        d = 2.0 * x - 1.0
        gap, offset, den = (t + 1.0) - d * d, 2.0 * (3.0 * x + m - 2.0), 8.0
    elif branch == 3:
        gap, offset, den = t + 1.0, 4.0 * x + 2.0 * m - 3.0, 7.0
    elif branch == 4:
        a, b = x - 0.5, m - 0.5
        gap, offset, den = (t + 1.0) - (3.0 * a - b) * (a + b), 5.0 * x + 3.0 * m - 4.0, 7.0
    elif branch == 5:
        d = x - m
        gap, offset, den = d * d + (t + 1.0), 3.0 * (x + m - 1.0), 6.0
    else:
        raise InternalError(f"branch index {branch} not in 1..5")
    return offset * offset + den * gap, gap, offset, den


def branch_value(branch: int, x: float, m: float, theta: float) -> float:
    """Gamma expression of one branch, evaluated without checking its condition.

    x and m are the larger and smaller of (a, b).
    """
    # At t = -1 the gap is the branch's constant term, since t + 1 == 0.
    _, gap, offset, den = branch_form(branch, x, m, -1.0)
    return theta * (den * theta - 2.0 * offset) - gap - 1.0


def branch_condition(branch: int, x, m, theta, eps: float = 0.0):
    """Whether the stated condition of ``branch`` holds at (x, m, theta).

    The one statement of the five branch conditions.  Each is a conjunction
    of plain comparisons (max(a, b) <= c as a <= c and b <= c, and likewise
    for min), so it works on floats, giving a bool without a numpy call, and
    elementwise on arrays, giving a mask.  ``eps`` widens every comparison
    by that much (the envelope's activation tolerance).
    """
    half = (1.0 + theta) / 2.0
    shifted = m + theta
    if branch == 1:
        return 0.5 + theta <= x + eps
    if branch == 2:
        return (shifted <= x + eps) & (half <= x + eps) & (x <= 0.5 + theta + eps)
    if branch == 3:
        return (shifted <= x + eps) & (x <= half + eps)
    if branch == 4:
        return (half <= x + eps) & (x <= shifted + eps)
    if branch == 5:
        return (x <= shifted + eps) & (x <= half + eps)
    raise InternalError(f"branch index {branch} not in 1..5")


def _select_branch(x: float, m: float, theta: float) -> int:
    """First branch, in listed order, whose condition holds at (x, m, theta)."""
    for branch in (1, 2, 3, 4, 5):
        if branch_condition(branch, x, m, theta):
            return branch
    raise InternalError(
        f"no gamma branch matches (x={x}, m={m}, theta={theta}); "
        "conditions should be exhaustive for admissible theta"
    )


def lower_point_bound_gamma(spec: PointBoundSpec) -> GammaBranchValue:
    """Gini's gamma of the lower point-bound copula, with the selected branch.

    Branch conditions overlap only on boundaries where adjacent expressions
    agree.
    """
    x, m = max(spec.a, spec.b), min(spec.a, spec.b)
    branch = _select_branch(x, m, spec.theta)
    return GammaBranchValue(branch, branch_value(branch, x, m, spec.theta))
