import dataclasses
import decimal
import math
import re
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _support import UNIT, bits, lattice
from gini_bounds import (
    BoundClassification,
    Checkerboard,
    DomainError,
    InternalError,
    PointBoundSpec,
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
    lp_extreme,
    mixed_partial_density,
    point_bound_lower,
    region_contains,
    region_masks,
    region_nonempty,
    theta_candidate,
    upper_bound,
    upper_bound_values,
    witness_copula,
)
from gini_bounds import bounds
from gini_bounds.bounds import (
    _ALL_CANDIDATES,
    _BLOCK,
    ACTIVATION_EPS,
    REGION_EMPTY_ABOVE,
    _active_masks,
    _envelope_block,
    _hyperbolic_excess,
    _live_candidates,
)
from gini_bounds.pointgamma import branch_condition, branch_form


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
    # Regions that a 200 x 200 grid search missed: a lattice finds their points.
    for i, t in ((2, -1.0), (2, -0.45), (1, -0.751), (3, -4.0 / 13.0 - 1e-6), (5, 0.5 - 1e-6)):
        assert region_nonempty(i, t), (i, t)
    # Each threshold is the last t of its region, exactly.
    for i, thr in enumerate(REGION_EMPTY_ABOVE, start=1):
        assert region_nonempty(i, thr), i
        assert not region_nonempty(i, np.nextafter(thr, 2.0)), i


def test_region_masks_agree_with_region_contains_and_validate():
    uu, vv = lattice(20)
    for t in (-0.9, -0.3, 0.2):
        masks = region_masks(uu, vv, t)
        for i in range(5):
            expected = [[region_contains(i + 1, u, v, t) for u, v in zip(ru, rv)]
                        for ru, rv in zip(uu, vv)]
            assert np.array_equal(masks[i], expected)
    for u, t in ((1.5, 0.0), (np.nan, 0.0), (0.5, 1.5)):
        with pytest.raises(DomainError):
            region_masks(u, 0.5, t)


def test_region_nonempty_validates_index_and_t():
    with pytest.raises(DomainError, match="integer"):
        region_nonempty(2.0, -0.8)
    for t in (float("nan"), 1.5, -1.0 - 1e-12):
        with pytest.raises(DomainError, match="outside"):
            region_nonempty(2, t)


def test_bool_index_is_a_domain_error():
    # bool is an int subclass, and True would otherwise read as index 1.
    for call in (
        lambda: region_nonempty(True, -0.5),
        lambda: theta_candidate(True, 0.3, 0.6, -0.5),
        lambda: region_contains(True, 0.3, 0.6, -0.5),
    ):
        with pytest.raises(DomainError, match="integer, got True"):
            call()


@pytest.mark.parametrize("f", [
    lambda t: upper_bound(0.3, 0.6, t),
    lambda t: upper_bound_values(0.3, 0.6, t),
    lambda t: lower_bound_values(0.3, 0.6, t),
    classify_upper,
], ids=["upper_bound", "upper_bound_values", "lower_bound_values", "classify_upper"])
def test_t_that_is_not_a_number_is_a_domain_error(f):
    for t in (None, [0.1, 0.2], np.array([0.1, 0.2]), 1j, True, False, np.bool_(True),
              np.array(True), "0.3"):
        with pytest.raises(DomainError, match="gamma target t="):
            f(t)
    # Python and numpy ints and floats, and 0-d arrays, stay numbers.
    for number, same in ((0, 0.0), (np.int64(-1), -1.0), (np.float32(0.25), 0.25),
                         (np.array(0.25), 0.25)):
        assert f(number) == f(same), number


def _density(u, v):
    return mixed_partial_density(u, v, -0.2)


def _spec(u, v):
    return PointBoundSpec(u, v, 0.0)


@pytest.mark.parametrize("f", [
    lambda u, v: upper_bound(u, v, -0.2),
    lambda u, v: lower_bound(u, v, -0.2),
    lambda u, v: lp_extreme(8, u, v, -0.2, "max").optimum,
    lambda u, v: upper_bound_values(u, v, -0.2),
    lambda u, v: region_masks(u, v, -0.2),
    lambda u, v: hyperbolic_set_contains(u, v, -0.2),
    _density,
    lambda u, v: witness_copula(u, v, -0.2)(0.5, 0.5),
    lambda u, v: theta_candidate(5, u, v, -0.2),
    lambda u, v: region_contains(5, u, v, -0.2),
    _spec,
], ids=["upper_bound", "lower_bound", "lp_extreme", "upper_bound_values", "region_masks",
        "hyperbolic_set_contains", "mixed_partial_density", "witness_copula",
        "theta_candidate", "region_contains", "PointBoundSpec"])
def test_coordinate_that_is_not_a_real_number_is_a_domain_error(f):
    # A comparison reads True as 1, and asarray(..., dtype=float) reads
    # "0.3" as 0.3 and a bool array as 0 and 1.
    for x in (None, "0.3", [None], True, False, np.bool_(True), np.array(True), 1j,
              np.array([True, False])):
        with pytest.raises(DomainError, match="point coordinate u"):
            f(x, 0.7)
        with pytest.raises(DomainError, match="point coordinate v"):
            f(0.3, x)
    # The density is undefined at (x, 0.7) for every x below (outside the
    # hyperbolic set at t = -0.2), and no one theta is admissible at both
    # (0, 0.7) and (1, 0.7): these two take the rejection half only.
    if f in (_density, _spec):
        return
    # Python and numpy ints and floats, and 0-d arrays, stay numbers, and
    # compute as the builtin float they read as: arithmetic in float32 on
    # float32 0.3 rounds otherwise (lower_bound(0.7, v, -0.2) once did).
    for number, same in ((1, 1.0), (np.int64(0), 0.0), (np.float32(0.25), 0.25),
                         (np.array(0.25), 0.25), (np.float32(0.3), float(np.float32(0.3)))):
        assert f(number, 0.7) == f(same, 0.7), number
        assert f(0.3, number) == f(0.3, same), number
        assert f(0.7, number) == f(0.7, same), number


_SEAM_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, math.nextafter(1.0, 2.0),
                math.nextafter(1.0, 0.0), 5e-324, -5e-324)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(), st.sampled_from(_SEAM_FLOATS),
    st.integers(), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64), st.floats(width=32).map(np.float32),
    st.one_of(st.floats(), st.integers(-3, 3), st.sampled_from(_SEAM_FLOATS)).map(np.array),
    st.booleans(), st.booleans().map(np.bool_), st.text(max_size=4), st.none(),
))
def test_scalar_and_array_coordinate_rules_agree(x):
    # The scalar rule (_check_point) and the array rule (_check_points) meet
    # at these inputs.  Sequences and Fraction are left out: the array rule
    # takes a sequence and rejects a Fraction (dtype object), and the scalar
    # rule does the opposite, by design.
    try:
        scalar = upper_bound(x, 0.5, 0.0).bound
    except DomainError:
        scalar = None
    try:
        array = upper_bound_values(x, 0.5, 0.0)
    except DomainError:
        array = None
    assert (scalar is None) == (array is None), x
    if scalar is not None:
        assert scalar == array, x


def test_scalar_envelopes_equal_the_array_ones_on_float32_coordinates():
    # The scalar path computes on the builtin floats its check returns, as the
    # array path computes on float64 arrays; 1 - u in float32 once made the
    # scalar lower envelope differ at about a quarter of these points.
    rng = np.random.default_rng(1)
    u, v = (rng.random(5000).astype(np.float32) for _ in range(2))
    for a, b, t in zip(u, v, rng.uniform(-1.0, 1.0, 5000).tolist()):
        lower, upper = lower_bound(a, b, t), upper_bound(a, b, t).bound
        assert type(lower) is float and type(upper) is float
        assert lower.hex() == float(lower_bound_values(a, b, t)).hex(), (a, b, t)
        assert upper.hex() == float(upper_bound_values(a, b, t)).hex(), (a, b, t)


def test_scalar_coordinate_that_is_a_sequence_is_a_domain_error():
    # The array entry points take these; the scalar ones compared them raw.
    for x in ([0.3], np.array([0.3, 0.4])):
        for f in (upper_bound, lower_bound, hyperbolic_set_contains):
            with pytest.raises(DomainError, match="point coordinate u"):
                f(x, 0.7, -0.2)
        with pytest.raises(DomainError, match="point coordinate v"):
            lp_extreme(8, 0.3, x, -0.2, "min")


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
    thetas, active = _active_masks(x, m, t, _ALL_CANDIDATES)
    inner = np.max([np.where(act, th, -np.inf) for th, act in zip(thetas, active)], axis=0)
    raw = np.where(inner > -np.inf, np.minimum(m, inner), m)
    return np.minimum(np.maximum(raw, frechet_lower(u, v)), frechet_upper(u, v))


def test_activation_tolerance_outlives_each_threshold_by_less_than_1e_12():
    # ACTIVATION_EPS keeps a sliver of each region alive just above its
    # threshold; the pruning margin of 1e-9 must cover that sliver.
    for i, (thr, (px, pm)) in enumerate(zip(REGION_EMPTY_ABOVE, VANISHING_POINTS)):
        x, m = _patch(px, pm)
        assert np.any(_active_masks(x, m, thr + 1e-13, _ALL_CANDIDATES)[1][i]), i + 1
        assert not np.any(_active_masks(x, m, thr + 1e-12, _ALL_CANDIDATES)[1][i]), i + 1


def test_region_nonempty_matches_a_point_search():
    """region_nonempty(i, t) holds exactly where region_masks marks a point
    of region i, searched on a 201^2 lattice and on a 201^2 patch of
    half-width 1e-3 about each vanishing point.

    t runs over -1, -0.95, ..., 1 and, about each threshold thr, over
    thr - 1e-6, thr - 1e-3, thr + 1e-9 and thr + 1e-3.  A t in
    (thr, thr + 1e-12] is skipped for region i: there ACTIVATION_EPS can
    still mark a sliver of it (see the test above).
    """
    uu, vv = lattice(200)
    patches = [_patch(px, pm, side=201, half=1e-3) for px, pm in VANISHING_POINTS]
    u = np.concatenate([uu.ravel()] + [x for x, _ in patches])
    v = np.concatenate([vv.ravel()] + [m for _, m in patches])
    near = [thr + d for thr in REGION_EMPTY_ABOVE for d in (-1e-6, -1e-3, 1e-9, 1e-3)]
    for t in [*np.linspace(-1.0, 1.0, 41), *near]:
        found = [bool(np.any(mask)) for mask in region_masks(u, v, t)]
        for i, thr in enumerate(REGION_EMPTY_ABOVE, start=1):
            if not thr < t <= thr + 1e-12:
                assert region_nonempty(i, t) == found[i - 1], (i, t)


# (x, m) drawn at a vanishing point, or anywhere in the square.
_NEAR_VANISHING = st.builds(
    lambda p, dx, dm: (p[0] + dx, p[1] + dm),
    st.sampled_from(VANISHING_POINTS),
    st.floats(min_value=-PATCH, max_value=PATCH),
    st.floats(min_value=-PATCH, max_value=PATCH),
)
_ANYWHERE = st.tuples(UNIT, UNIT)


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
    _, active = _active_masks(x, m, t, _ALL_CANDIDATES)
    for i in range(5):
        if i not in live:
            assert not active[i], (i + 1, x, m, t)


@pytest.mark.parametrize("thr", sorted(set(REGION_EMPTY_ABOVE)))
def test_pruned_kernel_is_bit_identical_at_thresholds(thr):
    uu, vv = lattice(120)
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


def _assert_absent_roots_are_nan(x, m, t, sample):
    """Candidate i's array root is NaN exactly where its radicand is negative,
    is then inactive, and the scalar record's theta[i] is None there too."""
    thetas, active = _active_masks(x, m, t, _ALL_CANDIDATES)
    reports = [upper_bound(x[k], m[k], t) for k in sample]
    for i in _ALL_CANDIDATES:
        absent = branch_form(i + 1, x, m, t)[0] < 0.0
        assert np.array_equal(np.isnan(thetas[i]), absent), (i + 1, t)
        assert not np.any(active[i][absent]), (i + 1, t)
        assert [r.theta[i] is None for r in reports] == absent[sample].tolist(), (i + 1, t)


def test_an_absent_root_is_nan_and_never_binds_on_random_points():
    rng = np.random.default_rng(41)
    x, m = np.sort(rng.random((2, 20000)), axis=0)[::-1]
    for t in [-1.0, *rng.uniform(-1.0, 1.0, 10), 1.0]:
        _assert_absent_roots_are_nan(x, m, t, range(0, x.size, 97))


# Each vanishing point at its threshold, and the centre at t = -1, where the
# radicands of candidates 2 and 4 change sign.
@pytest.mark.parametrize(
    "point, t0", [*zip(VANISHING_POINTS, REGION_EMPTY_ABOVE), ((0.5, 0.5), -1.0)]
)
def test_an_absent_root_is_nan_and_never_binds_at_the_seams(point, t0):
    x, m = _patch(*point, side=41)
    for t in _ulp_neighbours(t0):
        _assert_absent_roots_are_nan(x, m, t, range(0, x.size, 7))


def _assert_blocked_matches_whole_array(u, v, t):
    got_up = upper_bound_values(u, v, t)
    got_lo = lower_bound_values(u, v, t)
    got_masks = region_masks(u, v, t)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    want_up = _five_candidate_upper(u, v, t)
    want_lo = v - _five_candidate_upper(1.0 - u, v, -t)
    want_masks = _active_masks(np.maximum(u, v), np.minimum(u, v), t, _ALL_CANDIDATES)[1]
    assert len(got_masks) == len(want_masks) == 5
    for got, want in ((got_up, want_up), (got_lo, want_lo), *zip(got_masks, want_masks)):
        assert type(got) is type(want) and got.dtype == want.dtype, (type(got), t)
        assert np.array_equal(got, want), (np.shape(got), t)


# t = -4/13 sits on two emptiness thresholds; at t = -0.9 every region is
# live, at t = 0.45 only region 5, and at t = 0.7 none.
@pytest.mark.parametrize("t", [-4.0 / 13.0, -0.9, 0.45, 0.7])
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


def _allocating_masks(x, m, t, live):
    """_active_masks with a new array for every step: the root as
    (offset + sq) / den, replaced by gap / (sq - offset) where offset < 0."""
    thetas, active = [], []
    for i in live:
        rad, gap, offset, den = branch_form(i + 1, x, m, t)
        with np.errstate(invalid="ignore"):
            sq = np.sqrt(rad)
        th = np.asarray((offset + sq) / den)
        np.divide(gap, sq - offset, out=th, where=offset < 0.0)
        thetas.append(th)
        with np.errstate(invalid="ignore"):
            active.append((th <= m + ACTIVATION_EPS) & branch_condition(i + 1, x, m, th, ACTIVATION_EPS))
    return thetas, active


def _allocating_block(x, m, t, live):
    """_envelope_block with a new array for every step: the active roots
    reduced by np.fmax over np.where(active, root, nan)."""
    if not live:
        return m.copy()
    thetas, active = _allocating_masks(x, m, t, live)
    raw = np.fmin(m, reduce(np.fmax, [np.where(act, th, np.nan) for th, act in zip(thetas, active)]))
    return np.maximum(raw, frechet_lower(x, m))


def _assert_kernel_bits_equal_allocating(x, m, t, live):
    got_th, got_act = _active_masks(x, m, t, live)
    want_th, want_act = _allocating_masks(x, m, t, live)
    assert len(got_th) == len(got_act) == len(want_th) == len(live)
    for got, want in zip(got_th, want_th):
        assert np.array_equal(bits(got), bits(want)), (live, t)
    for got, want in zip(got_act, want_act):
        assert np.array_equal(got, want), (live, t)


# One t for each live set that _live_candidates gives: all five, 2..5, 3..5,
# 5 alone and none (just above 1/2 + _PRUNE_MARGIN).
_LIVE_SET_T = (-0.9, -0.5, -4.0 / 13.0, -0.1, 0.45, 0.5 + 2e-9, 0.7)


def test_live_set_t_cover_every_live_set():
    assert {_live_candidates(t) for t in _LIVE_SET_T} == {
        (0, 1, 2, 3, 4), (1, 2, 3, 4), (2, 3, 4), (4,), ()
    }


@pytest.mark.parametrize("t", _LIVE_SET_T)
def test_kernel_is_bit_identical_to_the_allocating_formula(t):
    # The kernel's buffers, written in place, hold the bits of a new array
    # per step, signed zeros and NaN roots included: on lattice nodes, the
    # seam patches and random points with -0.0, 0.0 and 1.0 coordinates.
    rng = np.random.default_rng(47)
    uu, vv = lattice(80)
    u, v = rng.random((2, 3 * _BLOCK + 11))
    u[::7], v[::11], u[::13], v[::17], v[::19] = -0.0, -0.0, 1.0, 1.0, 0.0
    patches = [_patch(px, pm, side=41) for px, pm in VANISHING_POINTS]
    points = [
        (np.maximum(uu, vv).ravel(), np.minimum(uu, vv).ravel()),
        (np.concatenate([x for x, _ in patches]), np.concatenate([m for _, m in patches])),
        (np.maximum(u, v), np.minimum(u, v)),
    ]
    live = _live_candidates(t)
    for x, m in points:
        for candidates in (live, _ALL_CANDIDATES):
            _assert_kernel_bits_equal_allocating(x, m, t, candidates)
        for start in range(0, x.size, _BLOCK):
            bx, bm = x[start:start + _BLOCK], m[start:start + _BLOCK]
            got, want = _envelope_block(bx, bm, t), _allocating_block(bx, bm, t, live)
            assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), t
    # Python floats, numpy scalars and 0-d arrays, whose arithmetic gives
    # scalars, which out= does not take.
    for x, m in ((0.75, 0.25), (1.0, -0.0), (np.float64(0.6), np.float64(0.3)),
                 (np.array(0.8), np.array(0.1)), (np.array(0.5), 0.5)):
        for candidates in (live, _ALL_CANDIDATES):
            _assert_kernel_bits_equal_allocating(x, m, t, candidates)


# --- exact activation reference -----------------------------------------

# Candidate i + 1's (radicand, offset, denominator) in exact arithmetic, with
# each radicand the expanded polynomial, independent of the gaps of
# pointgamma.branch_form (whose rows 1 and 2 are these scaled by 2).
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
    uu, vv = lattice(48)
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


@pytest.mark.parametrize("f", [
    upper_bound_values,
    lower_bound_values,
    region_masks,
    lambda u, v, t: Checkerboard(2, np.full((2, 2), 0.25)).cdf(u, v),
], ids=["upper_bound_values", "lower_bound_values", "region_masks", "Checkerboard.cdf"])
def test_array_entry_points_reject_shapes_that_do_not_broadcast(f):
    with pytest.raises(DomainError, match=r"shapes \(3,\) and \(2,\)"):
        f(np.full(3, 0.5), np.full(2, 0.5), 0.0)
    # Shapes that do broadcast give what the broadcast arrays give.
    u, v = np.linspace(0.0, 1.0, 3)[:, None], np.linspace(0.0, 1.0, 4)
    assert np.array_equal(f(u, v, -0.5), f(*np.broadcast_arrays(u, v), -0.5))


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


@pytest.mark.parametrize("delta, clamped", [(5e-13, False), (2e-12, True)])
def test_clamp_flag_at_its_tolerance(monkeypatch, delta, clamped):
    # At t = -1 candidate 4 binds on W at this point; its root is planted
    # half and twice ENVELOPE_TOL (1e-12) below W, so the clamp lifts it back.
    u, v, t = 0.8133, 0.9128, -1.0

    def lowered(branch, x, m, t):
        rad, gap, offset, den = branch_form(branch, x, m, t)
        if branch != 4:
            return rad, gap, offset, den
        root = (offset + math.sqrt(rad)) / den - delta
        gap = root * (den * root - 2.0 * offset)
        return offset * offset + den * gap, gap, offset, den

    monkeypatch.setattr(bounds, "branch_form", lowered)
    rep = upper_bound(u, v, t)
    assert rep.active == (False, False, False, True, False)
    assert u + v - 1.0 - rep.inner_max == pytest.approx(delta, rel=1e-3)
    assert rep.bound == u + v - 1.0 and rep.clamped is clamped


@pytest.mark.parametrize("u, v, t", [
    (1, 0, 0.2), (1, 1, 1), (0, 1, -1), (0.3, 0.6, -0.5), (np.array(0.3), np.array(1), 0),
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


def _assert_scalar_records_bit_equal_arrays(points, t):
    u, v = np.array(points).T
    reports = [upper_bound(a, b, t) for a, b in points]
    upper = [r.bound for r in reports]
    assert np.array_equal(bits(upper), bits(upper_bound_values(u, v, t))), t
    lower = [lower_bound(a, b, t) for a, b in points]
    assert np.array_equal(bits(lower), bits(lower_bound_values(u, v, t))), t
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
    uu, vv = lattice(80)
    assert np.max(np.abs(upper_bound_values(uu, vv, -1.0) - frechet_lower(uu, vv))) <= 1e-12
    for t in (0.5, 0.75, 1.0):
        assert np.max(np.abs(upper_bound_values(uu, vv, t) - frechet_upper(uu, vv))) == 0.0
    assert np.max(np.abs(lower_bound_values(uu, vv, 1.0) - frechet_upper(uu, vv))) <= 1e-12
    for t in (-1.0, -0.75, -0.5):
        assert np.max(np.abs(lower_bound_values(uu, vv, t) - frechet_lower(uu, vv))) <= 1e-12


def test_reflection_identity_both_forms():
    uu, vv = lattice(80)
    for t in (-0.9, -0.5, -0.1, 0.0, 0.2, 0.6):
        low = lower_bound_values(uu, vv, t)
        first = vv - upper_bound_values(1.0 - uu, vv, -t)
        second = uu - upper_bound_values(uu, 1.0 - vv, -t)
        assert np.max(np.abs(low - first)) == 0.0
        assert np.max(np.abs(low - second)) <= 1e-12


def test_symmetry_is_exact():
    uu, vv = lattice(60)
    for t in (-0.9, -0.3, 0.2):
        assert np.array_equal(
            upper_bound_values(uu, vv, t), upper_bound_values(vv, uu, t)
        )


def test_sandwich():
    uu, vv = lattice(60)
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
    uu, vv = lattice(40)
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


def test_hyperbolic_set_is_where_the_fifth_candidate_is_at_most_min_uv():
    rng = np.random.default_rng(31)
    mismatches, outcomes = [], []
    for u, v, t in zip(rng.random(4000), rng.random(4000), rng.uniform(-1.0, 0.5, 4000)):
        u, v, t = float(u), float(v), float(t)
        if abs(_hyperbolic_excess(u, v, t)) <= 1e-12:
            continue
        contains = hyperbolic_set_contains(u, v, t)
        # The fifth radicand is never negative, so the candidate exists.
        if contains != (upper_bound(u, v, t).theta[4] <= min(u, v)):
            mismatches.append((u, v, t))
        outcomes.append(contains)
    assert mismatches == []
    assert min(outcomes.count(True), outcomes.count(False)) > 500


def test_hyperbolic_set_and_density_compute_in_double_on_float32_coordinates():
    # A float32 u with a v bisected in double onto the arc at t = -0.5: the
    # float32 excess, up to 5.9e-7 off, once flipped half of these points.
    t, points = -0.5, []
    for u in np.linspace(0.2, 0.45, 40, dtype=np.float32):
        lo, hi = float(u), 1.0
        assert _hyperbolic_excess(float(u), lo, t) <= 0.0 < _hyperbolic_excess(float(u), hi, t)
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if _hyperbolic_excess(float(u), mid, t) <= 0.0:
                lo = mid
            else:
                hi = mid
        points += [(u, lo), (u, hi)]
    for u, v in points:
        contains = hyperbolic_set_contains(u, v, t)
        assert type(contains) is bool and contains == hyperbolic_set_contains(float(u), v, t)
    density = mixed_partial_density(np.float32(0.5), np.float32(0.5), -0.5)
    assert type(density) is float and density == mixed_partial_density(0.5, 0.5, -0.5)
    assert density == 0.28867513459481287


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


def test_mixed_partial_closure_slack_at_its_edge():
    # Out from a corner point along the diagonal, where _hyperbolic_excess
    # grows by 2 sqrt(6) per unit, to half and twice _CLOSURE_SLACK (1e-12).
    t = -0.5
    p1, _ = hyperbolic_corner_points(t)
    inside, outside = (p1.u + excess / (2.0 * math.sqrt(6.0)) for excess in (5e-13, 2e-12))
    assert bounds._hyperbolic_excess(inside, inside, t) == pytest.approx(5e-13, rel=0.01)
    assert bounds._hyperbolic_excess(outside, outside, t) == pytest.approx(2e-12, rel=0.01)
    assert mixed_partial_density(inside, inside, t) == pytest.approx(t / 3.0, abs=1e-9)
    with pytest.raises(DomainError, match="outside the closure"):
        mixed_partial_density(outside, outside, t)


def test_mixed_partial_outside_set_raises():
    with pytest.raises(DomainError):
        mixed_partial_density(0.1, 0.1, 0.0)


def test_mixed_partial_at_a_vanishing_denominator_raises():
    # At t = -1 the set's closure reaches the centre, where the radicand is 0.
    with pytest.raises(DomainError, match="vanishing denominator"):
        mixed_partial_density(0.5, 0.5, -1.0)


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
    # On the edge u = 1 it is M, not one ulp above it.
    assert w(1.0, 0.3) == 0.3


def test_witness_stays_between_the_frechet_bounds():
    # Written as alpha*M + (1 - alpha)*base, the blend rounded 8,265 of these
    # 200,000 values out of [W, M], 2,473 of them above M.
    rng = np.random.default_rng(5)
    uu, vv = rng.random(20000), rng.random(20000)
    uu[:5000], vv[5000:10000] = 1.0, 1.0
    low, high = frechet_lower(uu, vv), frechet_upper(uu, vv)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u, v, t = (float(x) for x in (*rng.random(2), rng.uniform(-1.0, 1.0)))
        values = witness_copula(u, v, t)(uu, vv)
        assert np.all((low <= values) & (values <= high)), (u, v, t)


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


@pytest.mark.parametrize("delta, attained", [(5e-13, True), (2e-12, False)])
def test_witness_value_at_its_tolerance(monkeypatch, delta, attained):
    # The pinned copula raised by half and twice ENVELOPE_TOL (1e-12); where
    # candidate 5 binds the blend's weight is 0, so the witness's value sits
    # that far above the envelope, and its gamma moves by only about 8 delta.
    def raised(spec):
        base = point_bound_lower(spec)
        return lambda uu, vv: base(uu, vv) + delta

    monkeypatch.setattr(bounds, "point_bound_lower", raised)
    if attained:
        w = witness_copula(0.5, 0.5, 0.0)
        assert float(w(0.5, 0.5)) - upper_bound(0.5, 0.5, 0.0).bound == pytest.approx(delta, rel=1e-3)
    else:
        with pytest.raises(InternalError, match="witness post-condition failed at ") as err:
            witness_copula(0.5, 0.5, 0.0)
        # The value failed, not the gamma certificate.
        gamma = float(re.search(r"quadrature gamma=(\S+),", str(err.value)).group(1))
        assert abs(gamma) <= 1e-6


def test_witness_that_fails_its_certificate_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(bounds, "_certify_gamma", lambda f, t: (float("nan"), False))
    with pytest.raises(InternalError, match="witness post-condition failed at "
                                            r"\(u=0.5, v=0.5, t=0.0\): quadrature gamma=nan"):
        witness_copula(0.5, 0.5, 0.0)
