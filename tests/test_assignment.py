"""The assignment solver and the LP oracle built on it, against references
computed apart from them: brute force over all permutations, scipy's
linear_sum_assignment and linprog (skipped when scipy is absent), and the
closed-form gamma range of every order."""

import itertools

import numpy as np
import pytest

from gini_bounds import gamma_checkerboard_exact, gamma_coefficients, gamma_feasible_range, lp_extreme
from gini_bounds.oracle import max_weight_assignment

# The fixed points of the benchmark's lp-certify workload.
CERTIFY_POINTS = ((0.5, 0.5, 0.0), (0.3, 0.7, -0.4), (0.6, 0.35, 0.3), (0.7, 0.4, -0.7))


def _total(w, perm):
    return float(w[np.arange(len(perm)), perm].sum())


def _ramps(n, z):
    return np.clip(n * z - np.arange(n), 0.0, 1.0)


def _permutation_points(n, c):
    """(gamma, objective) of every permutation checkerboard of order n."""
    g = gamma_coefficients(n)
    rows = np.arange(n)
    return [
        (g[rows, p].mean() - 2.0, c[rows, p].mean())
        for p in map(list, itertools.permutations(range(n)))
    ]


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for _ in range(15):
            # Real weights, then tie-heavy small integers.
            for w in (rng.normal(size=(n, n)), rng.integers(0, 3, size=(n, n)).astype(float)):
                perm = max_weight_assignment(w)
                assert sorted(perm) == list(range(n))
                best = max(_total(w, list(p)) for p in itertools.permutations(range(n)))
                assert _total(w, perm) == pytest.approx(best, abs=1e-12)


def test_assignment_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 16, 33, 64):
        for w in (rng.random((n, n)), rng.integers(-2, 3, size=(n, n)).astype(float)):
            rows, cols = optimize.linear_sum_assignment(w, maximize=True)
            assert _total(w, max_weight_assignment(w)) == pytest.approx(
                float(w[rows, cols].sum()), abs=1e-9
            )


def test_lp_matches_brute_force_upper_hull():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for _ in range(12):
            u, v = rng.random(2)
            t = rng.uniform(-1.0, 1.0)
            for direction, sign in (("max", 1.0), ("min", -1.0)):
                points = _permutation_points(n, sign * np.outer(_ramps(n, u), _ramps(n, v)))
                # Best chord over all pairs bracketing t (a pair may repeat a point).
                chords = [
                    ca + (cb - ca) * (t - ga) / (gb - ga) if gb > ga else ca
                    for (ga, ca), (gb, cb) in itertools.product(points, repeat=2)
                    if ga <= t <= gb
                ]
                out = lp_extreme(n, u, v, t, direction)
                if not chords:
                    assert out.status == "infeasible"
                    continue
                assert out.status == "optimal"
                assert out.optimum == pytest.approx(sign * max(chords), abs=1e-12)
                # A mix of at most two permutation checkerboards.
                assert np.count_nonzero(out.argument.mass, axis=1).max() <= 2


def test_lp_matches_linprog_on_the_equality_form():
    optimize = pytest.importorskip("scipy.optimize")
    for n in (8, 16):
        margins = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
        a_eq = np.vstack([margins, gamma_coefficients(n).ravel()])
        for u, v, t in CERTIFY_POINTS:
            b_eq = np.concatenate([np.full(2 * n, 1.0 / n), [t + 2.0]])
            c = np.outer(_ramps(n, u), _ramps(n, v)).ravel()
            for direction, sign in (("max", -1.0), ("min", 1.0)):
                ref = optimize.linprog(sign * c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
                assert ref.status == 0
                out = lp_extreme(n, u, v, t, direction)
                assert out.optimum == pytest.approx(sign * ref.fun, abs=1e-9)


def test_gamma_range_matches_brute_force():
    for n in range(1, 7):
        gammas = sorted(gamma for gamma, _ in _permutation_points(n, np.zeros((n, n))))
        lo, hi = gamma_feasible_range(n)
        assert lo == pytest.approx(gammas[0], abs=1e-12)
        assert hi == pytest.approx(gammas[-1], abs=1e-12)
        if n > 1:
            # The identity and the reversal are the unique extremes, by a
            # margin of at least 8/(3n^2) (oracle._extreme_gamma_perms).
            margin = 8.0 / (3.0 * n * n) - 1e-12
            assert gammas[-2] <= hi - margin and gammas[1] >= lo + margin


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 3, 5, 7, 9, 33])
def test_gamma_range_of_even_orders(n):
    # Odd orders fall short of 1 - 2/(3n): 20/27 at n = 3, 64/75 at n = 5.
    edge = 1.0 - 2.0 / (3.0 * n) - (n % 2) / (3.0 * n * n)
    lo, hi = gamma_feasible_range(n)
    assert lo == pytest.approx(-edge, abs=1e-12)
    assert hi == pytest.approx(edge, abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_targets_at_the_gamma_range_edges(n):
    lo, hi = gamma_feasible_range(n)
    for delta in (-1e-9, 0.0, 1e-12, 1e-10, 1e-9, 5e-9, 1e-7):
        for t in (hi + delta, lo - delta):
            for u, v in ((0.5, 0.5), (0.3, 0.8)):
                for direction in ("max", "min"):
                    out = lp_extreme(n, u, v, t, direction)
                    if out.status == "optimal":
                        assert delta <= 1e-12
                        assert abs(gamma_checkerboard_exact(out.argument) - t) <= 1e-9
                    else:
                        assert out.status == "infeasible" and delta > 0
