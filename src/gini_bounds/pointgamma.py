"""Closed-form Gini's gamma of the lower point-bound copula.

The gamma of the copula max(0, u+v-1, theta - (a-u)^+ - (b-v)^+) splits
into an anti-diagonal integral I1 (a single expression) and a diagonal
integral I2 (five cases, after reducing to b <= a by symmetry); the
resulting gamma is a five-branch piecewise quadratic in (a, b, theta).
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


# I2 on each branch; x = larger coordinate, m = smaller.
_I2_BY_BRANCH = {
    1: lambda x, m, th: 0.25,
    2: lambda x, m, th: 0.25 + (x - th - 0.5) ** 2,
    3: lambda x, m, th: (1.0 + 2.0 * th - 4.0 * x * th + 3.0 * th**2) / 4.0,
    4: lambda x, m, th: ((th + 1.0 - x - m) * (3.0 * th - 3.0 * x + m + 1.0) + 1.0) / 4.0,
    5: lambda x, m, th: (1.0 - (x - m) ** 2) / 4.0 + (1.0 - x - m) * th / 2.0 + th**2 / 2.0,
}


def i2_closed(spec: PointBoundSpec) -> float:
    """Diagonal integral of the lower point-bound copula (five-case closed form)."""
    x, m = max(spec.a, spec.b), min(spec.a, spec.b)
    return _I2_BY_BRANCH[_select_branch(x, m, spec.theta)](x, m, spec.theta)


def branch_value(branch: int, x: float, m: float, theta: float) -> float:
    """Gamma expression of one branch, evaluated without checking its condition.

    x and m are the larger and smaller of (a, b).
    """
    s = x + m
    base = 4.0 * theta**2 + 4.0 * theta * (1.0 - s) - 1.0
    if branch == 1:
        return base
    if branch == 2:
        return (2.0 * x - 2.0 * theta - 1.0) ** 2 + base
    if branch == 3:
        return 2.0 * theta - 4.0 * x * theta + 7.0 * theta**2 + 4.0 * theta * (1.0 - s) - 1.0
    if branch == 4:
        return (
            (s - 1.0 - 4.0 * theta) ** 2
            + 2.0 * (s - 1.0 - theta) * (x - m)
            - 9.0 * theta**2
            - 1.0
        )
    if branch == 5:
        return 6.0 * theta**2 + 6.0 * theta * (1.0 - s) - (x - m) ** 2 - 1.0
    raise InternalError(f"branch index {branch} not in 1..5")


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

    Equals 4*(i1_closed + i2_closed) - 2; branch conditions overlap only on
    boundaries where adjacent expressions agree.
    """
    x, m = max(spec.a, spec.b), min(spec.a, spec.b)
    branch = _select_branch(x, m, spec.theta)
    return GammaBranchValue(branch, branch_value(branch, x, m, spec.theta))
