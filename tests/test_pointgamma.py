import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from _exact import anti_diagonal_integral, exact_gamma
from _support import UNIT, pinned_spec, random_specs
from gini_bounds import (
    InternalError,
    PointBoundSpec,
    gamma_quadrature,
    i1_closed,
    i2_closed,
    lower_point_bound_gamma,
    point_bound_lower,
)
from gini_bounds.pointgamma import _select_branch, branch_condition, branch_form, branch_value


def _simpson(values):
    m = len(values) - 1
    w = np.ones(m + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(np.dot(w, values)) / (3.0 * m)


@pytest.mark.parametrize(
    "spec,expected",
    [
        (PointBoundSpec(0.5, 0.5, 0.25), 0.0625),
        (PointBoundSpec(0.5, 0.5, 0.0), 0.0),
        (PointBoundSpec(0.3, 0.9, 0.2), 0.0),
    ],
)
def test_i1_closed_vs_quadrature(spec, expected):
    assert i1_closed(spec) == pytest.approx(expected, abs=1e-15)
    u = np.arange(4001) / 4000
    anti = _simpson(point_bound_lower(spec)(u, 1.0 - u))
    assert i1_closed(spec) == pytest.approx(anti, abs=1e-7)


# I2 on each branch, x = larger coordinate, m = smaller: the diagonal
# integral in its own closed form, independent of gamma and of i2_closed.
_I2_BY_BRANCH = {
    1: lambda x, m, th: 0.25,
    2: lambda x, m, th: 0.25 + (x - th - 0.5) ** 2,
    3: lambda x, m, th: (1.0 + 2.0 * th - 4.0 * x * th + 3.0 * th**2) / 4.0,
    4: lambda x, m, th: ((th + 1.0 - x - m) * (3.0 * th - 3.0 * x + m + 1.0) + 1.0) / 4.0,
    5: lambda x, m, th: (1.0 - (x - m) ** 2) / 4.0 + (1.0 - x - m) * th / 2.0 + th**2 / 2.0,
}


def _i2_on_every_branch(per_branch=4, seed=29):
    """Seeded specs, per_branch of them on each gamma branch, with their I2."""
    rng = np.random.default_rng(seed)
    found = {branch: [] for branch in _I2_BY_BRANCH}
    while any(len(specs) < per_branch for specs in found.values()):
        spec = pinned_spec(*rng.random(2), rng.random())
        branch = lower_point_bound_gamma(spec).branch
        if len(found[branch]) < per_branch:
            found[branch].append(spec)
    return [
        pytest.param(
            spec,
            _I2_BY_BRANCH[branch](max(spec.a, spec.b), min(spec.a, spec.b), spec.theta),
            id=f"branch{branch}-{k}",
        )
        for branch, specs in found.items()
        for k, spec in enumerate(specs)
    ]


@pytest.mark.parametrize(
    "spec,expected",
    [
        (PointBoundSpec(0.9, 0.2, 0.1), 0.25),
        (PointBoundSpec(0.5, 0.5, 0.5), 0.375),
        (PointBoundSpec(0.5, 0.5, 0.0), 0.25),
    ]
    + _i2_on_every_branch(),
)
def test_i2_closed_vs_quadrature(spec, expected):
    # i2_closed is read off gamma, so the identity 4*(I1 + I2) - 2 == gamma
    # holds by construction; this check of I2 is independent of it.
    assert i2_closed(spec) == pytest.approx(expected, abs=1e-15)
    u = np.arange(4001) / 4000
    diag = _simpson(point_bound_lower(spec)(u, u))
    assert expected == pytest.approx(diag, abs=1e-7)


def test_gamma_branch_examples():
    # At (0.5, 0.5, 0) every case condition holds with equality and all five
    # expressions agree, so only the value is pinned.
    assert lower_point_bound_gamma(PointBoundSpec(0.5, 0.5, 0.0)).value == -1.0
    res = lower_point_bound_gamma(PointBoundSpec(0.5, 0.5, 0.5))
    assert res.branch == 5 and res.value == pytest.approx(0.5, abs=1e-15)
    res = lower_point_bound_gamma(PointBoundSpec(0.8, 0.2, 0.1))
    assert res.branch == 1 and res.value == pytest.approx(-0.96, abs=1e-15)


@pytest.mark.parametrize("spec", random_specs(300, seed=5))
def test_closed_form_matches_quadrature(spec):
    closed = lower_point_bound_gamma(spec).value
    quad = gamma_quadrature(point_bound_lower(spec), 4000)
    assert closed == pytest.approx(quad, abs=1e-6)


@given(a=UNIT, b=UNIT, frac=UNIT)
def test_integral_identity_and_range(a, b, frac):
    spec = pinned_spec(a, b, frac)
    res = lower_point_bound_gamma(spec)
    assert abs(4.0 * (i1_closed(spec) + i2_closed(spec)) - 2.0 - res.value) <= 1e-12
    assert -1.0 - 1e-12 <= res.value <= 1.0 + 1e-12
    x, m = max(a, b), min(a, b)
    assert branch_condition(res.branch, x, m, spec.theta)


def test_adjacent_branches_agree_on_boundaries():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(2000):
        a, b = rng.random(2)
        x, m = max(a, b), min(a, b)
        for theta in (x - 0.5, x - m, 2.0 * x - 1.0):
            if not (max(0.0, a + b - 1.0) <= theta <= min(a, b)):
                continue
            vals = [
                branch_value(k, x, m, theta)
                for k in range(1, 6)
                if branch_condition(k, x, m, theta)
            ]
            if len(vals) >= 2:
                worst = max(worst, max(vals) - min(vals))
    assert worst <= 1e-12


def test_comonotone_and_countermonotone_pins():
    # theta = M(a,b) pins the diagonal: gamma of M is 1... only when the
    # pinned copula is M itself (a = b); theta = W(a,b) gives gamma(W) = -1.
    assert lower_point_bound_gamma(PointBoundSpec(0.5, 0.5, 0.0)).value == -1.0
    assert lower_point_bound_gamma(PointBoundSpec(0.3, 0.3, 0.3)).value == pytest.approx(
        gamma_quadrature(point_bound_lower(PointBoundSpec(0.3, 0.3, 0.3)), 4000),
        abs=1e-6,
    )


# Each gamma branch in exact arithmetic, as its expanded polynomial in
# (x, m, theta), x the larger and m the smaller of (a, b).
_EXACT_GAMMA = {
    1: lambda x, m, th: 4 * th * th + 4 * th * (1 - x - m) - 1,
    2: lambda x, m, th: (2 * x - 2 * th - 1) ** 2 + 4 * th * th + 4 * th * (1 - x - m) - 1,
    3: lambda x, m, th: 2 * th - 4 * x * th + 7 * th * th + 4 * th * (1 - x - m) - 1,
    4: lambda x, m, th: (
        (x + m - 1 - 4 * th) ** 2 + 2 * (x + m - 1 - th) * (x - m) - 9 * th * th - 1
    ),
    5: lambda x, m, th: 6 * th * th + 6 * th * (1 - x - m) - (x - m) ** 2 - 1,
}
_EIGHTHS = [k / 8.0 for k in range(9)]


def test_branch_table_is_exact_on_a_dyadic_grid():
    # On the grid k/8 every float operation in branch_form and branch_value is
    # exact, so both equal the Fraction polynomials exactly.  Polynomials of
    # degree <= 2 in each variable that agree on a tensor grid with at least
    # 3 points per variable are identical, so the table is the five branches,
    # everywhere; the grid is the full square, m > x included.
    mismatches = []
    for branch, gamma in _EXACT_GAMMA.items():
        for x, m, th in itertools.product(_EIGHTHS, repeat=3):
            theta = Fraction(th)
            exact = gamma(Fraction(x), Fraction(m), theta)
            if Fraction(branch_value(branch, x, m, th)) != exact:
                mismatches.append((branch, x, m, th, None))
            for t in (-1.0, -0.625, 0.0, 0.375, 1.0):
                rad, gap, offset, den = map(Fraction, branch_form(branch, x, m, t))
                if (
                    exact - Fraction(t) != den * theta * theta - 2 * offset * theta - gap
                    or rad != offset * offset + den * gap
                ):
                    mismatches.append((branch, x, m, th, t))
    assert mismatches == []


def _dyadic_pins():
    """(a, b, theta) with a and b on the k/8 grid, in both orders, and theta
    at the eighths of [W(a, b), M(a, b)] and at every k/8 inside it, which
    puts theta on each branch boundary (x - 1/2, x - m, 2x - 1) there.  Every
    value is a multiple of 1/64, so the float branch conditions are exact."""
    for a, b in itertools.product(_EIGHTHS, repeat=2):
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        thetas = {lo + k * (hi - lo) / 8 for k in range(9)} | {th for th in _EIGHTHS if lo <= th <= hi}
        for theta in sorted(thetas):
            yield a, b, theta


def test_branch_table_equals_gamma_from_the_copula_definition():
    # Every branch whose condition holds at a pin, not only the one selected,
    # must give gamma of the pinned copula itself (tests/_exact.py), so the
    # conditions are checked with the polynomials, boundaries included.
    held, mismatches = set(), []
    for a, b, theta in _dyadic_pins():
        x, m = max(a, b), min(a, b)
        exact = exact_gamma(a, b, theta)
        for branch, gamma in _EXACT_GAMMA.items():
            if branch_condition(branch, x, m, theta):
                held.add(branch)
                if gamma(Fraction(x), Fraction(m), Fraction(theta)) != exact:
                    mismatches.append((branch, a, b, theta))
    assert mismatches == [] and held == set(_EXACT_GAMMA)


def test_i1_closed_is_the_anti_diagonal_integral():
    # On the 1/64 grid i1_closed's float arithmetic is exact.
    mismatches = [
        (a, b, theta)
        for a, b, theta in _dyadic_pins()
        if Fraction(i1_closed(PointBoundSpec(a, b, theta))) != anti_diagonal_integral(a, b, theta)
    ]
    assert mismatches == []


def test_branch_index_outside_1_to_5_and_a_nan_theta_are_internal_errors():
    for branch in (0, 6):
        with pytest.raises(InternalError, match=f"branch index {branch} not in 1..5"):
            branch_form(branch, 0.5, 0.5, 0.0)
        with pytest.raises(InternalError, match=f"branch index {branch} not in 1..5"):
            branch_condition(branch, 0.5, 0.5, 0.0)
    # PointBoundSpec rejects a NaN theta, which no branch condition admits.
    with pytest.raises(InternalError, match="no gamma branch matches"):
        _select_branch(0.5, 0.5, float("nan"))
