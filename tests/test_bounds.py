import numpy as np
import pytest

from gini_bounds import (
    BoundClassification,
    DomainError,
    classify_lower,
    classify_upper,
    frechet_lower,
    frechet_upper,
    gamma_quadrature,
    hyperbolic_corner_points,
    hyperbolic_set_contains,
    lens_density_floor,
    lower_bound,
    lower_bound_values,
    mixed_partial_density,
    region_contains,
    region_masks,
    region_nonempty,
    theta_candidate,
    upper_bound,
    upper_bound_values,
    witness_copula,
)


def _lattice(n):
    nodes = np.arange(n + 1, dtype=float) / n
    return np.meshgrid(nodes, nodes, indexing="ij")


# --- candidates ---------------------------------------------------------


def test_theta1_values():
    assert theta_candidate(1, 0.5, 0.5, -1.0) == 0.0
    # independent oracle: largest root of 4x^2 + 4x(1-u-v) - 1 - t
    roots = np.roots([4.0, 4.0 * (1.0 - 0.7), -1.0 - (-0.9)])
    assert theta_candidate(1, 0.3, 0.4, -0.9) == pytest.approx(
        float(np.max(roots)), abs=1e-12
    )


def test_theta5_value():
    assert theta_candidate(5, 0.5, 0.5, 0.0) == pytest.approx(
        np.sqrt(6.0) / 6.0, abs=1e-15
    )


def test_theta_negative_radicand_is_undefined():
    assert theta_candidate(2, 0.25, 0.75, -1.0) is None


def test_theta_index_validation():
    with pytest.raises(DomainError):
        theta_candidate(0, 0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        theta_candidate(6, 0.5, 0.5, 0.0)


# --- regions ------------------------------------------------------------


def test_region_contains_examples():
    assert region_contains(5, 0.5, 0.5, 0.0)
    assert region_contains(1, 0.25, 0.75, -1.0)
    assert not region_contains(1, 0.25, 0.75, 0.0)


def test_region_nonempty_examples():
    assert region_nonempty(1, -0.8)
    assert not region_nonempty(1, -0.7)
    assert region_nonempty(5, 0.49)
    assert not region_nonempty(5, 0.51)
    assert not region_nonempty(3, -4.0 / 13.0 + 0.01)


def test_region_masks_agree_with_region_contains_and_validate():
    uu, vv = _lattice(20)
    for t in (-0.9, -0.3, 0.2):
        masks = region_masks(uu, vv, t)
        for i in range(5):
            expected = [[region_contains(i + 1, u, v, t) for u, v in zip(ru, rv)]
                        for ru, rv in zip(uu, vv)]
            assert np.array_equal(masks[i], expected)
    for u, t in ((1.5, 0.0), (np.nan, 0.0), (0.5, 1.5)):
        with pytest.raises(DomainError):
            region_masks(u, 0.5, t)


def test_region_nonempty_requires_enough_samples():
    with pytest.raises(DomainError):
        region_nonempty(1, -0.8, samples=100)


# --- upper/lower envelopes ----------------------------------------------


def test_upper_bound_examples():
    rep = upper_bound(0.25, 0.75, -1.0)
    assert rep.bound == 0.0 and rep.active == (True, False, False, False, False)
    rep = upper_bound(0.3, 0.6, 0.75)
    assert rep.bound == 0.3 and not any(rep.active) and rep.inner_max is None
    rep = upper_bound(0.5, 0.5, 0.0)
    assert rep.bound == pytest.approx(np.sqrt(6.0) / 6.0, abs=1e-15)
    assert rep.active[4]


def test_lower_bound_examples():
    assert lower_bound(0.4, 0.7, -0.75) == pytest.approx(0.1, abs=1e-15)
    assert lower_bound(0.5, 0.5, 0.0) == pytest.approx(
        0.5 - np.sqrt(6.0) / 6.0, abs=1e-15
    )


def test_vector_envelopes_reject_points_outside_square():
    for envelope in (upper_bound_values, lower_bound_values):
        with pytest.raises(DomainError):
            envelope(1.5, 0.5, 0.0)
        with pytest.raises(DomainError):
            envelope(np.array([0.2, np.nan]), 0.5, 0.0)
        # 1 - u rounds to exactly 1.0, so the reflected point alone looks valid.
        with pytest.raises(DomainError):
            envelope(-1e-20, 0.5, 0.0)


def test_lens_density_floor_domain():
    assert lens_density_floor(-0.5)[0] == pytest.approx(-0.5 / 3.0, abs=1e-15)
    for t in (-1.0, 0.0, 0.3):
        with pytest.raises(DomainError):
            lens_density_floor(t)


def test_report_structure_invariants():
    rep = upper_bound(0.3, 0.4, -0.6)
    w, m = float(frechet_lower(0.3, 0.4)), float(frechet_upper(0.3, 0.4))
    assert w <= rep.bound <= m
    if rep.inner_max is not None:
        assert rep.bound == pytest.approx(
            min(rep.u, rep.v, rep.inner_max), abs=1e-12
        )
        actives = [th for th, a in zip(rep.theta, rep.active) if a]
        assert rep.inner_max == max(actives)
    assert not rep.clamped
    payload = rep.to_json_dict()
    assert set(payload) == {
        "u", "v", "t", "theta", "active", "inner_max", "bound", "clamped",
    }
    assert len(payload["theta"]) == 5 and len(payload["active"]) == 5


def test_endpoint_identities_small_lattice():
    uu, vv = _lattice(80)
    assert np.max(np.abs(upper_bound_values(uu, vv, -1.0) - frechet_lower(uu, vv))) <= 1e-12
    for t in (0.5, 0.75, 1.0):
        assert np.max(np.abs(upper_bound_values(uu, vv, t) - frechet_upper(uu, vv))) == 0.0
    assert np.max(np.abs(lower_bound_values(uu, vv, 1.0) - frechet_upper(uu, vv))) <= 1e-12
    for t in (-1.0, -0.75, -0.5):
        assert np.max(np.abs(lower_bound_values(uu, vv, t) - frechet_lower(uu, vv))) <= 1e-12


def test_reflection_identity_both_forms():
    uu, vv = _lattice(80)
    for t in (-0.9, -0.5, -0.1, 0.0, 0.2, 0.6):
        low = lower_bound_values(uu, vv, t)
        first = vv - upper_bound_values(1.0 - uu, vv, -t)
        second = uu - upper_bound_values(uu, 1.0 - vv, -t)
        assert np.max(np.abs(low - first)) == 0.0
        assert np.max(np.abs(low - second)) <= 1e-12


def test_symmetry_is_exact():
    uu, vv = _lattice(60)
    for t in (-0.9, -0.3, 0.2):
        assert np.array_equal(
            upper_bound_values(uu, vv, t), upper_bound_values(vv, uu, t)
        )


def test_sandwich():
    uu, vv = _lattice(60)
    for t in (-0.9, -0.5, 0.0, 0.25, 0.7):
        up = upper_bound_values(uu, vv, t)
        lo = lower_bound_values(uu, vv, t)
        assert np.min(lo - frechet_lower(uu, vv)) >= -1e-12
        assert np.min(up - lo) >= -1e-12
        assert np.min(frechet_upper(uu, vv) - up) >= -1e-12


def test_monotone_in_t_small_sweep():
    uu, vv = _lattice(40)
    ts = np.linspace(-1.0, 1.0, 11)
    prev_up = prev_lo = None
    for t in ts:
        up = upper_bound_values(uu, vv, t)
        lo = lower_bound_values(uu, vv, t)
        if prev_up is not None:
            assert np.min(up - prev_up) >= -1e-12
            assert np.min(lo - prev_lo) >= -1e-12
        prev_up, prev_lo = up, lo


def test_domain_validation():
    with pytest.raises(DomainError):
        upper_bound(0.5, 0.5, 1.5)
    with pytest.raises(DomainError):
        lower_bound(1.2, 0.5, 0.0)


# --- classification -----------------------------------------------------


@pytest.mark.parametrize(
    "t,expected",
    [
        (-1.0, BoundClassification.FRECHET_LOWER),
        (-0.5, BoundClassification.PROPER_QUASI_COPULA),
        (-1e-9, BoundClassification.PROPER_QUASI_COPULA),
        (0.0, BoundClassification.PROPER_COPULA_STRICT),
        (0.25, BoundClassification.PROPER_COPULA_STRICT),
        (0.5, BoundClassification.FRECHET_UPPER),
        (1.0, BoundClassification.FRECHET_UPPER),
    ],
)
def test_classify_upper(t, expected):
    assert classify_upper(t) is expected


@pytest.mark.parametrize(
    "t,expected",
    [
        (1.0, BoundClassification.FRECHET_UPPER),
        (0.5, BoundClassification.PROPER_QUASI_COPULA),
        (0.0, BoundClassification.PROPER_COPULA_STRICT),
        (-0.4, BoundClassification.PROPER_COPULA_STRICT),
        (-0.5, BoundClassification.FRECHET_LOWER),
        (-0.6, BoundClassification.FRECHET_LOWER),
        (-1.0, BoundClassification.FRECHET_LOWER),
    ],
)
def test_classify_lower(t, expected):
    assert classify_lower(t) is expected


def test_classify_domain_error():
    with pytest.raises(DomainError):
        classify_upper(1.5)
    with pytest.raises(DomainError):
        classify_lower(-2.0)


# --- hyperbolic set and density ----------------------------------------


def test_hyperbolic_set_examples():
    assert hyperbolic_set_contains(0.5, 0.5, 0.0)
    assert not hyperbolic_set_contains(0.1, 0.1, 0.0)
    p1, _ = hyperbolic_corner_points(-0.5)
    # the corner point satisfies the arc equation to rounding accuracy
    residual = (p1.u + p1.v) ** 2 + 2 * p1.u * p1.v - 6 * min(p1.u, p1.v) + 0.5
    assert abs(residual) <= 1e-12


def test_corner_points():
    p1, p2 = hyperbolic_corner_points(0.5)
    assert p1 == p2 and p1.u == pytest.approx(0.5, abs=1e-15)
    p1, _ = hyperbolic_corner_points(-0.5)
    assert p1.u == pytest.approx((3.0 + np.sqrt(6.0)) / 6.0, abs=1e-15)
    p1, _ = hyperbolic_corner_points(0.0)
    assert p1.u == pytest.approx((3.0 + np.sqrt(3.0)) / 6.0, abs=1e-15)
    with pytest.raises(DomainError):
        hyperbolic_corner_points(0.6)


def test_mixed_partial_at_corner_is_t_over_3():
    for t in (-0.5, 0.0, 0.3):
        p1, _ = hyperbolic_corner_points(t)
        assert mixed_partial_density(p1.u, p1.v, t) == pytest.approx(
            t / 3.0, abs=1e-12
        )


def test_mixed_partial_matches_finite_differences():
    # central finite differences of the envelope inside the set, step 1e-4
    u, v, t = 0.5, 0.5, 0.0
    d = 1e-4
    f = lambda a, b: upper_bound_values(np.asarray(a), np.asarray(b), t)
    fd = (f(u + d, v + d) - f(u + d, v - d) - f(u - d, v + d) + f(u - d, v - d)) / (
        4.0 * d * d
    )
    closed = mixed_partial_density(u, v, t)
    assert abs(fd - closed) / abs(closed) <= 0.01


def test_mixed_partial_outside_set_raises():
    with pytest.raises(DomainError):
        mixed_partial_density(0.1, 0.1, 0.0)


# --- witness -------------------------------------------------------------


def test_witness_examples():
    w = witness_copula(0.5, 0.5, 0.5)
    assert float(w(0.5, 0.5)) == pytest.approx(0.5, abs=1e-9)
    assert gamma_quadrature(w, 4000) == pytest.approx(0.5, abs=1e-6)

    w = witness_copula(0.25, 0.75, -1.0)
    assert float(w(0.25, 0.75)) == pytest.approx(0.0, abs=1e-9)
    assert gamma_quadrature(w, 4000) == pytest.approx(-1.0, abs=1e-6)

    w = witness_copula(0.5, 0.5, 0.0)
    assert float(w(0.5, 0.5)) == pytest.approx(np.sqrt(6.0) / 6.0, abs=1e-9)
    assert gamma_quadrature(w, 4000) == pytest.approx(0.0, abs=1e-6)


def test_witness_random_points():
    rng = np.random.default_rng(23)
    for _ in range(20):
        u, v = rng.random(2)
        t = rng.uniform(-1.0, 1.0)
        w = witness_copula(u, v, t)
        assert abs(gamma_quadrature(w, 4000) - t) <= 1e-6
        assert abs(float(w(u, v)) - upper_bound(u, v, t).bound) <= 1e-9
