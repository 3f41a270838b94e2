import numpy as np
import pytest

from gini_bounds import (
    DomainError,
    PointBoundSpec,
    frechet_lower,
    frechet_upper,
    gamma_quadrature,
    point_bound_lower,
    point_bound_upper,
    product,
    reflect_first_coordinate,
)


def test_quadrature_fixtures():
    assert gamma_quadrature(frechet_lower, 2000) == pytest.approx(-1.0, abs=1e-8)
    assert gamma_quadrature(frechet_upper, 2000) == pytest.approx(1.0, abs=1e-8)
    assert gamma_quadrature(product, 2000) == pytest.approx(0.0, abs=1e-8)


def test_quadrature_rejects_bad_panel_counts():
    for bad in (0, 1, 3, -2, 7, 4000.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gamma_quadrature(product, bad)


def _random_specs(count, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b = rng.random(2)
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        out.append(PointBoundSpec(a, b, lo + (hi - lo) * rng.random()))
    return out


@pytest.mark.parametrize("spec", _random_specs(10))
def test_reflection_negates_gamma(spec):
    f = point_bound_lower(spec)
    g = reflect_first_coordinate(f)
    assert gamma_quadrature(g, 4000) + gamma_quadrature(f, 4000) == pytest.approx(
        0.0, abs=1e-8
    )


@pytest.mark.parametrize(
    "f",
    [
        frechet_lower,
        frechet_upper,
        product,
        point_bound_lower(PointBoundSpec(0.6, 0.7, 0.4)),
        point_bound_upper(PointBoundSpec(0.2, 0.8, 0.1)),
    ],
)
def test_doubling_convergence(f):
    # doubling the panel count moves the result by less than 4x the 1e-6
    # tolerance claimed for closed-form comparisons
    assert abs(gamma_quadrature(f, 4000) - gamma_quadrature(f, 2000)) < 4e-6
