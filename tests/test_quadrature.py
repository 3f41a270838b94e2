import numpy as np
import pytest

from _support import random_specs
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
from gini_bounds.quadrature import _CERTIFY_PANELS, _CERTIFY_TOL, _certify_gamma


def test_quadrature_fixtures():
    assert gamma_quadrature(frechet_lower, 2000) == pytest.approx(-1.0, abs=1e-8)
    assert gamma_quadrature(frechet_upper, 2000) == pytest.approx(1.0, abs=1e-8)
    assert gamma_quadrature(product, 2000) == pytest.approx(0.0, abs=1e-8)


def test_quadrature_rejects_bad_panel_counts():
    for bad in (0, 1, 3, -2, 7, 4000.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gamma_quadrature(product, bad)


def test_quadrature_is_a_python_float_for_a_numpy_panel_count():
    for panels in (np.int64(4), np.int32(2000), np.uint16(4000)):
        gamma = gamma_quadrature(frechet_upper, panels)
        assert type(gamma) is float
        assert gamma == gamma_quadrature(frechet_upper, int(panels))


def test_certification_rule_is_the_panels_and_the_tolerance():
    # The witness post-condition and the gamma subcommand both read this verdict.
    f = point_bound_lower(PointBoundSpec(0.3, 0.6, 0.2))
    quad = gamma_quadrature(f, _CERTIFY_PANELS)
    assert _certify_gamma(f, quad) == (quad, True)
    assert _certify_gamma(f, quad + _CERTIFY_TOL / 2)[1]
    assert not _certify_gamma(f, quad + 2 * _CERTIFY_TOL)[1]
    assert not _certify_gamma(f, quad - 2 * _CERTIFY_TOL)[1]
    assert not _certify_gamma(f, float("nan"))[1]


@pytest.mark.parametrize("spec", random_specs(10, seed=11))
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
