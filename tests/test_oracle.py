import numpy as np
import pytest

from gini_bounds import (
    Checkerboard,
    DomainError,
    LatticeFunction,
    check_properties,
    gamma_checkerboard_exact,
    gamma_feasible_range,
    lower_bound_values,
    lp_extreme,
    upper_bound_values,
)
from gini_bounds.checkerboard import gamma_coefficients
from gini_bounds.oracle import _extreme_gamma_perms, max_weight_assignment


def test_order2_forced_diagonal():
    # at t = 2/3 the only feasible 2x2 board is the diagonal checkerboard
    out = lp_extreme(2, 0.5, 0.5, 2.0 / 3.0, "max")
    assert out.status == "optimal"
    assert out.optimum == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(out.argument.mass, [[0.5, 0.0], [0.0, 0.5]], atol=1e-9)


def test_order2_t0_against_brute_force_family():
    # the 2x2 feasible set is {[[a, .5-a], [.5-a, a]]}; gamma = (8a-2)/3
    out_max = lp_extreme(2, 0.5, 0.5, 0.0, "max")
    out_min = lp_extreme(2, 0.5, 0.5, 0.0, "min")
    grid = np.linspace(0.0, 0.5, 20001)
    feasible = grid[np.abs((8.0 * grid - 2.0) / 3.0) <= 1e-9]
    values = feasible  # C(0.5, 0.5) = mass[0][0] = a
    assert out_max.optimum == pytest.approx(float(values.max()), abs=1e-6)
    assert out_min.optimum == pytest.approx(float(values.min()), abs=1e-6)


def test_infeasible_target():
    out = lp_extreme(2, 0.5, 0.5, 0.9, "max")
    assert out.status == "infeasible"
    assert out.optimum is None and out.argument is None


def test_input_validation():
    with pytest.raises(DomainError):
        lp_extreme(1, 0.5, 0.5, 0.0, "max")
    with pytest.raises(DomainError):
        lp_extreme(4, 0.5, 0.5, 0.0, "between")
    with pytest.raises(DomainError):
        lp_extreme(4, 1.5, 0.5, 0.0, "max")
    with pytest.raises(DomainError):
        lp_extreme(4, 0.5, 0.5, 3.0, "max")
    with pytest.raises(DomainError, match="integer"):
        lp_extreme(2.5, 0.5, 0.5, 0.0, "max")
    with pytest.raises(DomainError, match="integer"):
        gamma_feasible_range(2.5)


def test_soundness_against_closed_form():
    pts = [(0.25, 0.25), (0.25, 0.75), (0.5, 0.5), (0.7, 0.3), (0.9, 0.6)]
    for t in (-0.5, 0.0, 0.25):
        for (u, v) in pts:
            up = float(upper_bound_values(u, v, t))
            lo = float(lower_bound_values(u, v, t))
            mx = lp_extreme(8, u, v, t, "max")
            mn = lp_extreme(8, u, v, t, "min")
            assert mx.status == mn.status == "optimal"
            assert mx.optimum <= up + 1e-9
            assert mn.optimum >= lo - 1e-9


def test_duality_of_reflections():
    for (u, v, t) in [(0.3, 0.7, -0.5), (0.4, 0.6, 0.25), (0.5, 0.5, 0.0)]:
        mn = lp_extreme(8, u, v, t, "min")
        mx = lp_extreme(8, 1.0 - u, v, -t, "max")
        assert mn.optimum == pytest.approx(v - mx.optimum, abs=1e-9)


def test_gamma_range_symmetric_and_growing():
    prev = 0.0
    for n in (2, 3, 4, 8):
        lo, hi = gamma_feasible_range(n)
        assert lo == pytest.approx(-hi, abs=1e-9)
        assert hi >= prev - 1e-12
        prev = hi
    assert gamma_feasible_range(2)[1] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_argument_is_a_valid_checkerboard_copula():
    out = lp_extreme(8, 0.4, 0.7, -0.25, "max")
    board = out.argument
    assert isinstance(board, Checkerboard)  # construction re-validates margins
    assert abs(gamma_checkerboard_exact(board) - (-0.25)) <= 1e-9
    rep = check_properties(
        LatticeFunction.from_evaluator(board.cdf, 80), tol=1e-9
    )
    assert rep.is_copula


def test_extreme_gamma_permutations_are_cached_read_only():
    for n in (2, 3, 5, 8, 16):
        perms = _extreme_gamma_perms(n)
        assert _extreme_gamma_perms(n) is perms
        g = gamma_coefficients(n)
        for perm, sign in zip(perms, (-1.0, 1.0)):
            assert np.array_equal(perm, max_weight_assignment(sign * g))
            assert not perm.flags.writeable
            with pytest.raises(ValueError):
                perm[0] = perm[-1]
