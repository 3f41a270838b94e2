"""The LP oracle and the reference assignment solver of the tests, against
references computed apart from them: brute force over all permutations,
scipy's linear_sum_assignment and linprog (skipped when scipy is absent),
the Hungarian slope search, and the closed-form gamma range of every order."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from _hungarian import max_weight_assignment, slope_search
from _support import CERTIFY_POINTS, CRITERION_09_GRID
from gini_bounds import gamma_checkerboard_exact, gamma_coefficients, gamma_feasible_range, lp_extreme
from gini_bounds.checkerboard import cell_ramps, gamma_numerators


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
                perm, r, s = max_weight_assignment(w)
                assert sorted(perm) == list(range(n))
                best = max(_total(w, list(p)) for p in itertools.permutations(range(n)))
                assert _total(w, perm) == pytest.approx(best, abs=1e-12)
                # The potentials are a dual optimum: feasible, with the same total.
                assert (r[:, None] + s >= w - 1e-12).all()
                assert r.sum() + s.sum() == pytest.approx(best, abs=1e-12)


def test_assignment_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 16, 33, 64):
        for w in (rng.random((n, n)), rng.integers(-2, 3, size=(n, n)).astype(float)):
            rows, cols = optimize.linear_sum_assignment(w, maximize=True)
            assert _total(w, max_weight_assignment(w)[0]) == pytest.approx(
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


@pytest.mark.parametrize(
    "n, points",
    [(8, CRITERION_09_GRID), *((n, CERTIFY_POINTS) for n in (8, 16, 32, 64))],
    ids=["criterion-09-n8", "certify-n8", "certify-n16", "certify-n32", "certify-n64"],
)
def test_lp_matches_the_hungarian_slope_search(n, points):
    for u, v, t in points:
        for direction in ("max", "min"):
            out = lp_extreme(n, u, v, t, direction)
            assert out.status == "optimal"
            assert abs(out.optimum - slope_search(n, u, v, t, direction)) <= 1e-12


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_lp_optimum_has_an_exact_dual_certificate(n):
    # Weak duality in Fraction, with no use of the class-extreme lemma.  For
    # a slope lam and potentials with r_i + s_j + eps >= c_ij - lam g_ij
    # everywhere, every board x of gamma t has sum c x <= lam (t + 2) +
    # (sum r + sum s) / n + eps, as its rows and columns sum to 1/n and
    # sum g x = t + 2.  lam is the slope of the outcome's permutation pair,
    # r and s come from the float assignment on c - lam g, and eps is their
    # worst exact violation; the outcome is then a board of gamma t within
    # 1e-12 of that bound.
    rows = np.arange(n)
    g = gamma_numerators(n, rows[:, None], rows).astype(object) * Fraction(2, 3 * n)
    g_float = gamma_coefficients(n)
    for u, v, t in CERTIFY_POINTS:
        ramp_u = [Fraction(x) for x in cell_ramps(n, u)]
        ramp_v = [Fraction(x) for x in cell_ramps(n, v)]
        for direction, sign in (("max", 1), ("min", -1)):
            c = sign * np.array([[x * y for y in ramp_v] for x in ramp_u], dtype=object)
            out = lp_extreme(n, u, v, t, direction)
            ends = [(g[rows, p].sum() / n - 2, c[rows, p].sum() / n) for p in out.permutations]
            (ga, ca), (gb, cb) = ends
            assert ga != gb, (u, v, t, direction)
            alpha = out.alpha
            assert alpha * ga + (1 - alpha) * gb == t
            primal = alpha * ca + (1 - alpha) * cb
            assert out.optimum == float(sign * primal)
            lam = (cb - ca) / (gb - ga)
            _, r, s = max_weight_assignment(c.astype(float) - float(lam) * g_float)
            r, s = (np.array([Fraction(x) for x in p], dtype=object) for p in (r, s))
            eps = max(0, (c - lam * g - r[:, None] - s).max())
            bound = lam * (Fraction(t) + 2) + (r.sum() + s.sum()) / n + eps
            assert primal <= bound <= primal + Fraction(1, 10**12), (u, v, t, direction)


def test_gamma_range_matches_brute_force():
    for n in range(1, 7):
        gammas = sorted(gamma for gamma, _ in _permutation_points(n, np.zeros((n, n))))
        lo, hi = gamma_feasible_range(n)
        assert lo == pytest.approx(gammas[0], abs=1e-12)
        assert hi == pytest.approx(gammas[-1], abs=1e-12)
        if n > 1:
            # The identity and the reversal are the unique extremes, by a
            # margin of at least 8/(3n^2) (oracle.gamma_feasible_range).
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
                        assert abs(gamma_checkerboard_exact(out.argument) - t) <= 1e-12
                    else:
                        assert out.status == "infeasible" and delta > 0
