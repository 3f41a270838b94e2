import dataclasses
import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
from gini_bounds.bounds import _BLOCK, REGION_EMPTY_ABOVE, _active_masks, _live_candidates


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
    with pytest.raises(DomainError, match="integer"):
        theta_candidate(2.0, 0.5, 0.5, 0.0)
    with pytest.raises(DomainError, match="integer"):
        region_contains(2.5, 0.5, 0.5, 0.0)


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
    for bad in (float("nan"), float("inf"), 40000.0):
        with pytest.raises(DomainError, match="integer"):
            region_nonempty(1, -0.8, samples=bad)
    with pytest.raises(DomainError, match="integer"):
        region_nonempty(2.0, -0.8)


# --- candidate pruning --------------------------------------------------

# The point (max, min) at which region i shrinks to nothing as t rises to
# its emptiness threshold REGION_EMPTY_ABOVE[i].
VANISHING_POINTS = (
    (3 / 4, 1 / 4), (2 / 3, 1 / 3), (6 / 13, 3 / 13), (10 / 13, 7 / 13), (1 / 2, 1 / 2)
)
PATCH = 2e-6


def _ulp_neighbours(t):
    return [s for s in (np.nextafter(t, -2.0), t, np.nextafter(t, 2.0)) if -1.0 <= s <= 1.0]


def _patch(px, pm, side=801, half=PATCH):
    """The nodes (x, m), x >= m, of a side x side grid on the square of
    half-width ``half`` about (px, pm)."""
    offsets = np.linspace(-half, half, side)
    x, m = np.meshgrid(px + offsets, pm + offsets, indexing="ij")
    keep = m <= x
    return x[keep], m[keep]


def _five_candidate_upper(u, v, t):
    # The envelope reduced over all five candidates, none pruned.
    x, m = np.maximum(u, v), np.minimum(u, v)
    thetas, active = _active_masks(x, m, t)
    inner = np.max([np.where(act, th, -np.inf) for th, act in zip(thetas, active)], axis=0)
    raw = np.where(inner > -np.inf, np.minimum(m, inner), m)
    return np.minimum(np.maximum(raw, frechet_lower(u, v)), frechet_upper(u, v))


def test_activation_tolerance_outlives_each_threshold_by_less_than_1e_12():
    # ACTIVATION_EPS keeps a sliver of each region alive just above its
    # threshold; the pruning margin of 1e-9 must cover that sliver.
    for i, (thr, (px, pm)) in enumerate(zip(REGION_EMPTY_ABOVE, VANISHING_POINTS)):
        x, m = _patch(px, pm)
        assert np.any(_active_masks(x, m, thr + 1e-13)[1][i]), i + 1
        assert not np.any(_active_masks(x, m, thr + 1e-12)[1][i]), i + 1


# (x, m) drawn at a vanishing point, or anywhere in the square.
_NEAR_VANISHING = st.builds(
    lambda p, dx, dm: (p[0] + dx, p[1] + dm),
    st.sampled_from(VANISHING_POINTS),
    st.floats(min_value=-PATCH, max_value=PATCH),
    st.floats(min_value=-PATCH, max_value=PATCH),
)
_UNIT = st.floats(min_value=0.0, max_value=1.0)
_ANYWHERE = st.tuples(_UNIT, _UNIT)


@settings(max_examples=500, deadline=None)
@given(
    point=st.one_of(_NEAR_VANISHING, _NEAR_VANISHING, _ANYWHERE),
    thr=st.sampled_from(REGION_EMPTY_ABOVE),
    above=st.one_of(
        st.floats(min_value=1e-9, max_value=1e-6, exclude_min=True),
        st.floats(min_value=1e-6, max_value=2.0),
    ),
)
def test_pruned_candidates_are_inactive(point, thr, above):
    t = thr + above
    assume(t <= 1.0)
    live = _live_candidates(t)
    assume(len(live) < 5)
    x, m = max(point), min(point)
    _, active = _active_masks(x, m, t)
    for i in range(5):
        if i not in live:
            assert not active[i], (i + 1, x, m, t)


@pytest.mark.parametrize("thr", sorted(set(REGION_EMPTY_ABOVE)))
def test_pruned_kernel_is_bit_identical_at_thresholds(thr):
    uu, vv = _lattice(120)
    patches = [_patch(px, pm, side=41) for px, pm in VANISHING_POINTS]
    pu = np.concatenate([x for x, _ in patches])
    pv = np.concatenate([m for _, m in patches])
    offsets = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9)
    ts = [thr + d for d in offsets] + [np.nextafter(thr, -2.0), np.nextafter(thr, 2.0)]
    for t in ts:
        for u, v in ((uu, vv), (pu, pv), (pv, pu)):
            assert np.array_equal(upper_bound_values(u, v, t), _five_candidate_upper(u, v, t)), t
            # The lower envelope prunes at -t, on the reflected points.
            assert np.array_equal(
                lower_bound_values(u, v, -t), v - _five_candidate_upper(1.0 - u, v, t)
            ), t


def _assert_blocked_matches_whole_array(u, v, t):
    got_up = upper_bound_values(u, v, t)
    got_lo = lower_bound_values(u, v, t)
    got_masks = region_masks(u, v, t)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    want_up = _five_candidate_upper(u, v, t)
    want_lo = v - _five_candidate_upper(1.0 - u, v, -t)
    want_masks = _active_masks(np.maximum(u, v), np.minimum(u, v), t)[1]
    assert len(got_masks) == len(want_masks) == 5
    for got, want in ((got_up, want_up), (got_lo, want_lo), *zip(got_masks, want_masks)):
        assert type(got) is type(want) and got.dtype == want.dtype, (type(got), t)
        assert np.array_equal(got, want), (np.shape(got), t)


# t = -4/13 sits on two emptiness thresholds; at t = -0.9 every region is live.
@pytest.mark.parametrize("t", [-4.0 / 13.0, -0.9])
def test_blocked_kernel_matches_whole_array_reference(t):
    rng = np.random.default_rng(8)
    for size in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
        _assert_blocked_matches_whole_array(rng.random(size), rng.random(size), t)
    # 0-d scalars come back as numpy.float64.
    assert type(upper_bound_values(0.3, 0.6, t)) is np.float64
    assert type(lower_bound_values(0.3, 0.6, t)) is np.float64
    _assert_blocked_matches_whole_array(0.3, 0.6, t)
    _assert_blocked_matches_whole_array(np.float64(0.8), np.array(0.1), t)
    # N-d, broadcast, transposed and strided inputs, and lists.
    u2, v2 = rng.random((130, 129)), rng.random((130, 129))
    _assert_blocked_matches_whole_array(u2, v2, t)
    _assert_blocked_matches_whole_array(u2.T, v2.T, t)
    u3, v3 = rng.random((400, 300)), rng.random((400, 300))
    _assert_blocked_matches_whole_array(u3[::2, ::3], v3[1::2, 1::3], t)
    _assert_blocked_matches_whole_array(0.35, rng.random(_BLOCK + 5), t)
    _assert_blocked_matches_whole_array(rng.random((150, 1)), rng.random((1, 120)), t)
    _assert_blocked_matches_whole_array(rng.random((2, 0)), rng.random((2, 0)), t)
    _assert_blocked_matches_whole_array(
        rng.random(_BLOCK + 3).tolist(), rng.random(_BLOCK + 3).tolist(), t
    )


# --- exact activation reference -----------------------------------------

# Candidate i + 1's (radicand, offset, denominator) in exact arithmetic, with
# each radicand the expanded polynomial, independent of bounds._form's gaps.
_EXACT_FORMS = (
    lambda x, m, t: ((x + m - 1) ** 2 + (t + 1), x + m - 1, 2),
    lambda x, m, t: ((x + m) ** 2 + 4 * (1 - x) * (1 - m) + 2 * t, 3 * x + m - 2, 4),
    lambda x, m, t: (
        16 * x * x + 4 * m * m - 24 * x - 12 * m + 16 * x * m + 7 * t + 16, 4 * x + 2 * m - 3, 7
    ),
    lambda x, m, t: (
        4 * x * x + 16 * m * m - 12 * x - 24 * m + 16 * x * m + 7 * t + 16, 5 * x + 3 * m - 4, 7
    ),
    lambda x, m, t: (
        15 * x * x + 15 * m * m - 18 * x - 18 * m + 6 * x * m + 6 * t + 15, 3 * (x + m - 1), 6
    ),
)
_HALF = Fraction(1, 2)
# Gamma branch i + 1's condition at (x, m) as (upper, lower) bounds on theta.
_THETA_BOUNDS = (
    lambda x, m: ((x - _HALF,), ()),
    lambda x, m: ((x - m, 2 * x - 1), (x - _HALF,)),
    lambda x, m: ((x - m,), (2 * x - 1,)),
    lambda x, m: ((2 * x - 1,), (x - m,)),
    lambda x, m: ((), (x - m, 2 * x - 1)),
)


def _exact_active(i, x, m, t):
    """Whether candidate i + 1 binds at (x, m, t), decided exactly.

    Floats are dyadic rationals, so Fraction holds the inputs exactly, and
    no square root is taken: with theta = (offset + sqrt(rad)) / den,
    theta <= L iff den*L - offset >= 0 and rad <= (den*L - offset)**2, and
    theta >= L iff den*L - offset <= 0 or rad >= (den*L - offset)**2.
    """
    x, m, t = Fraction(x), Fraction(m), Fraction(t)
    rad, offset, den = _EXACT_FORMS[i](x, m, t)
    if rad < 0:
        return False
    at_most, at_least = _THETA_BOUNDS[i](x, m)
    caps = [den * bound - offset for bound in at_most + (m,)]
    floors = [den * bound - offset for bound in at_least]
    return all(c >= 0 and rad <= c * c for c in caps) and all(
        c <= 0 or rad >= c * c for c in floors
    )


def _exact_upper(u, v, t):
    """The upper envelope at (u, v, t) from the exact activations, to 40 digits."""
    x, m = max(u, v), min(u, v)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        thetas = []
        for i in range(5):
            if _exact_active(i, x, m, t):
                rad, offset, den = _EXACT_FORMS[i](Fraction(x), Fraction(m), Fraction(t))
                root = (decimal.Decimal(rad.numerator) / rad.denominator).sqrt()
                thetas.append((decimal.Decimal(offset.numerator) / offset.denominator + root) / den)
        # An active theta is at most m, exactly.
        raw = max(thetas) if thetas else decimal.Decimal(m)
        return float(max(raw, decimal.Decimal(u) + decimal.Decimal(v) - 1, decimal.Decimal(0)))


def _float_misses(x, m, t):
    """(candidate, x, m) where the exact test admits a candidate that the
    float kernel rejects."""
    return [
        (i + 1, a, b)
        for i, mask in enumerate(region_masks(x, m, t))
        for a, b, got in zip(x.tolist(), m.tolist(), mask.tolist())
        if not got and _exact_active(i, a, b, t)
    ]


@pytest.mark.parametrize("t", [-1.0, -1.0 + 2.0**-53, -1.0 + 2.0**-52])
def test_float_kernel_admits_every_exactly_active_candidate_near_the_centre(t):
    # Every radicand nearly vanishes here, so a root taken by cancelling
    # subtraction misses its branch condition.
    x, m = _patch(0.5, 0.5, side=41, half=2.5e-4)
    assert _float_misses(x, m, t) == [], t


@pytest.mark.parametrize("i", range(5))
def test_float_kernel_admits_every_exactly_active_candidate_at_vanishing_points(i):
    x, m = _patch(*VANISHING_POINTS[i], side=41)
    for t in _ulp_neighbours(REGION_EMPTY_ABOVE[i]):
        assert _float_misses(x, m, t) == [], t


def test_upper_envelope_is_w_near_the_centre_at_minus_one():
    x, m = _patch(0.5, 0.5, side=21)
    assert np.max(np.abs(upper_bound_values(x, m, -1.0) - frechet_lower(x, m))) <= 1e-9
    # One ulp above, the envelope is not W: candidate 1 binds at
    # sqrt(2**-53) / 2 = 5.3e-9 at (0.5000002, 0.4999998).
    t = -1.0 + 2.0**-53
    want = [_exact_upper(a, b, t) for a, b in zip(x.tolist(), m.tolist())]
    assert np.max(np.abs(upper_bound_values(x, m, t) - want)) <= 1e-15


@pytest.mark.parametrize("t0", [-1.0, -0.75, -4.0 / 9.0, -0.5, -4.0 / 13.0, 0.0, 0.5, 1.0])
def test_identities_at_distinguished_t_and_their_neighbours(t0):
    uu, vv = _lattice(48)
    patches = [_patch(px, pm, side=21) for px, pm in VANISHING_POINTS]
    x = np.concatenate([uu.ravel()] + [p[0] for p in patches])
    m = np.concatenate([vv.ravel()] + [p[1] for p in patches])
    # Both orders, and the reflections the lower envelope evaluates.
    u = np.concatenate([x, m, 1.0 - x, m])
    v = np.concatenate([m, x, m, 1.0 - x])
    w, top = frechet_lower(u, v), frechet_upper(u, v)
    prev = None
    for t in _ulp_neighbours(t0):
        up = upper_bound_values(u, v, t)
        lo = lower_bound_values(u, v, t)
        assert np.array_equal(lo, v - upper_bound_values(1.0 - u, v, -t))
        assert np.max(np.abs(lo - (u - upper_bound_values(u, 1.0 - v, -t)))) <= 1e-12
        assert np.min(lo - w) >= -1e-12
        assert np.min(up - lo) >= -1e-12
        assert np.min(top - up) >= -1e-12
        if prev is not None:
            assert np.min(up - prev[0]) >= -1e-12
            assert np.min(lo - prev[1]) >= -1e-12
        prev = up, lo


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


def test_array_entry_points_accept_lists_and_tuples():
    u, v = [0.5, 0.0, 1.0, 0.25, 0.9], [0.3, 0.7, 1.0, 0.75, 0.1]
    for t in (-1.0, -0.6, 0.0, 0.4):
        for f in (upper_bound_values, lower_bound_values, region_masks):
            want = f(np.array(u), np.array(v), t)
            for seq in (list, tuple):
                got = f(seq(u), seq(v), t)
                assert np.array_equal(got, want), (f.__name__, seq, t)
    for f in (upper_bound_values, lower_bound_values, region_masks):
        for bad in ([0.2, 1.5], (0.2, float("nan"))):
            with pytest.raises(DomainError):
                f(bad, [0.5, 0.5], 0.0)


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
    payload = dataclasses.asdict(rep)
    assert set(payload) == {
        "u", "v", "t", "theta", "active", "inner_max", "bound", "clamped",
    }
    assert len(payload["theta"]) == 5 and len(payload["active"]) == 5


@pytest.mark.parametrize("u, v, t", [
    (1, 0, 0.2), (1, 1, 1), (0, 1, -1), (0.3, 0.6, -0.5), (True, False, 0),
    (np.float64(0.3), np.float64(0.6), np.float64(-0.5)),
    (np.float64(0.5), np.int64(1), np.float64(0.0)), (np.float64(0.5), 0.5, -0.9),
])
def test_report_fields_are_builtin_types(u, v, t):
    rep = upper_bound(u, v, t)
    assert rep == upper_bound(float(u), float(v), float(t))
    for value in (rep.u, rep.v, rep.t, rep.bound):
        assert type(value) is float
    assert rep.inner_max is None or type(rep.inner_max) is float
    assert all(th is None or type(th) is float for th in rep.theta)
    assert all(type(a) is bool for a in rep.active) and type(rep.clamped) is bool
    assert type(lower_bound(u, v, t)) is float


# Points where the float ** (libm pow) once made the scalar record differ
# from the array kernel (numpy square) by an ulp.
_POW_SEAMS = (
    (0.36639841635049675, 0.6216910509238025, -0.9203030449981966),
    (0.4433618484227769, 0.6668284346316591, 0.44868337602395125),
)


def _bits(values):
    # The float64 bit patterns, so that 0.0 and -0.0 differ.
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_scalar_records_bit_equal_arrays(points, t):
    u, v = np.array(points).T
    reports = [upper_bound(a, b, t) for a, b in points]
    upper = [r.bound for r in reports]
    assert np.array_equal(_bits(upper), _bits(upper_bound_values(u, v, t))), t
    lower = [lower_bound(a, b, t) for a, b in points]
    assert np.array_equal(_bits(lower), _bits(lower_bound_values(u, v, t))), t
    masks = np.array(region_masks(u, v, t)).T
    assert np.array_equal(np.array([r.active for r in reports]), masks), t


@pytest.mark.parametrize("t0", [-1.0, -0.75, -4.0 / 9.0, -0.5, -4.0 / 13.0, 0.0, 0.5, 1.0])
def test_scalar_record_bit_equals_the_array_kernel(t0):
    rng = np.random.default_rng(11)
    edges = (0.0, 1e-12, 0.25, 1 / 3, 0.5, 0.5 + 6e-7, 2 / 3, 0.75, 1.0 - 1e-12, 1.0)
    points = [(a, b) for a in edges for b in edges] + list(VANISHING_POINTS)
    points += [tuple(p) for p in rng.random((150, 2)).tolist()]
    for t in _ulp_neighbours(t0) + ([-0.0] if t0 == 0.0 else []):
        _assert_scalar_records_bit_equal_arrays(points, t)


def test_scalar_record_bit_equals_the_array_kernel_where_pow_differed():
    for u, v, t in _POW_SEAMS:
        _assert_scalar_records_bit_equal_arrays([(u, v)], t)


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


def test_envelopes_never_exceed_m_where_a_coordinate_is_one():
    # There u + v - 1 can round one ulp above v, so W must be clamped by M.
    v = np.random.default_rng(21).random(300)
    for t in (-1.0, -0.9, -0.5, 0.0, 0.7):
        for a, b in ((np.ones_like(v), v), (v, np.ones_like(v))):
            assert np.all(upper_bound_values(a, b, t) <= v), t
            assert np.all(lower_bound_values(a, b, t) <= v), t
            for x, y in zip(a.tolist(), b.tolist()):
                assert upper_bound(x, y, t).bound <= min(x, y), (x, y, t)


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
        # One ulp either side of each threshold, and of 0.
        (math.nextafter(-1.0, 0.0), BoundClassification.PROPER_QUASI_COPULA),
        (math.nextafter(-0.5, -1.0), BoundClassification.PROPER_QUASI_COPULA),
        (math.nextafter(-0.5, 0.0), BoundClassification.PROPER_QUASI_COPULA),
        (-5e-324, BoundClassification.PROPER_QUASI_COPULA),
        (-0.0, BoundClassification.PROPER_COPULA_STRICT),
        (5e-324, BoundClassification.PROPER_COPULA_STRICT),
        (math.nextafter(0.5, 0.0), BoundClassification.PROPER_COPULA_STRICT),
        (math.nextafter(0.5, 1.0), BoundClassification.FRECHET_UPPER),
        (math.nextafter(1.0, 0.0), BoundClassification.FRECHET_UPPER),
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
        # One ulp either side of each threshold, and of 0.
        (math.nextafter(1.0, 0.0), BoundClassification.PROPER_QUASI_COPULA),
        (math.nextafter(0.5, 1.0), BoundClassification.PROPER_QUASI_COPULA),
        (math.nextafter(0.5, 0.0), BoundClassification.PROPER_QUASI_COPULA),
        (5e-324, BoundClassification.PROPER_QUASI_COPULA),
        (-0.0, BoundClassification.PROPER_COPULA_STRICT),
        (-5e-324, BoundClassification.PROPER_COPULA_STRICT),
        (math.nextafter(-0.5, 0.0), BoundClassification.PROPER_COPULA_STRICT),
        (math.nextafter(-0.5, -1.0), BoundClassification.FRECHET_LOWER),
        (math.nextafter(-1.0, 0.0), BoundClassification.FRECHET_LOWER),
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
    # The set is closed: at t = 1/2 it is the single point (1/2, 1/2), on
    # the boundary exactly in floats.
    assert hyperbolic_set_contains(0.5, 0.5, 0.5)
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


def test_mixed_partial_attains_the_floor_near_minus_one():
    # The radicand is 27(t + 1) at these minimisers, 2.7e-14 at k = 15;
    # computed as a sum of O(1) terms it would lose most of its digits.
    for k in range(1, 16):
        t = -1.0 + 10.0**-k
        floor, minimisers = lens_density_floor(t)
        for u in minimisers:
            assert mixed_partial_density(u, u, t) == pytest.approx(floor, rel=1e-13), (k, u)
    # One ulp above -1; the closed form's value to 20 digits, from 60.
    u = 0.5000000080475469
    assert mixed_partial_density(u, u, -1.0 + 2.0**-53) == pytest.approx(
        -12176479.556876390946, rel=1e-12
    )


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


# One point inside each of regions 1..5, where only that candidate binds.
REGION_POINTS = (
    (0.1, 0.6, -0.9), (0.1, 0.55, -0.9), (0.05, 0.1, -0.9), (0.45, 0.6, -0.9), (0.05, 0.05, -0.9)
)
# Coordinates 0 and 1, and t at -1, 1 and 1/2 +- 1 ulp.
WITNESS_EDGE_POINTS = [
    (u, v, t)
    for u, v in ((0.0, 0.3), (0.3, 0.0), (1.0, 0.3), (0.3, 1.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5))
    for t in (-1.0, 1.0, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0))
]


def test_witness_random_points():
    for i, (u, v, t) in enumerate(REGION_POINTS, start=1):
        assert upper_bound(u, v, t).active == tuple(k == i for k in range(1, 6))
    rng = np.random.default_rng(23)
    points = [(*rng.random(2), rng.uniform(-1.0, 1.0)) for _ in range(20)]
    for u, v, t in points + list(REGION_POINTS) + WITNESS_EDGE_POINTS:
        w = witness_copula(u, v, t)
        assert abs(gamma_quadrature(w, 4000) - t) <= 1e-6, (u, v, t)
        assert abs(float(w(u, v)) - upper_bound(u, v, t).bound) <= 1e-9, (u, v, t)


def test_witness_near_the_centre_at_minus_one():
    # witness_copula checks the witness's gamma and value by quadrature.
    w = witness_copula(0.5000006, 0.5000006, -1.0)
    assert abs(float(w(0.5000006, 0.5000006)) - frechet_lower(0.5000006, 0.5000006)) <= 1e-9
