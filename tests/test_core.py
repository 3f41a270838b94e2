import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import UNIT, pinned_spec, random_specs
from gini_bounds import (
    DomainError,
    LatticeFunction,
    PointBoundSpec,
    UnitPoint,
    check_properties,
    classify_upper,
    frechet_lower,
    frechet_upper,
    gamma_feasible_range,
    lower_bound,
    lower_point_bound_gamma,
    point_bound_lower,
    point_bound_upper,
    product,
    rect_volume,
    reflect_first_coordinate,
    upper_bound,
)
from gini_bounds.core import _check_order
from gini_bounds.lattice import lattice_nodes


def test_frechet_and_product_values():
    assert frechet_lower(0.3, 0.4) == 0.0
    assert frechet_upper(0.3, 0.4) == 0.3
    assert product(0.3, 0.4) == pytest.approx(0.12, abs=1e-15)
    assert frechet_lower(0.7, 0.8) == pytest.approx(0.5, abs=1e-15)


@given(v=UNIT)
def test_frechet_boundary_conditions(v):
    assert frechet_lower(1.0, v) == pytest.approx(v, abs=1e-15)
    assert frechet_upper(v, 1.0) == pytest.approx(v, abs=1e-15)


def test_frechet_lower_never_exceeds_frechet_upper():
    # With u = 1, u + v - 1 rounds one ulp above v for about half of all v.
    assert frechet_lower(1.0, 0.3) == 0.3
    assert frechet_lower(0.3, 1.0) == 0.3
    rng = np.random.default_rng(17)
    v = rng.random(10_000)
    ones = np.ones_like(v)
    for u, w in ((ones, v), (v, ones)):
        assert np.all(frechet_lower(u, w) <= frechet_upper(u, w))
        for a, b in zip(u[:200].tolist(), w[:200].tolist()):
            assert frechet_lower(a, b) <= frechet_upper(a, b), (a, b)


def test_unit_point_validation():
    UnitPoint(0.0, 1.0)
    with pytest.raises(DomainError):
        UnitPoint(-0.1, 0.5)
    with pytest.raises(DomainError):
        UnitPoint(0.5, 1.1)


def test_unit_point_stores_builtin_floats():
    # As PointBoundSpec does: a float32 coordinate was stored as given, and
    # json.dumps of the point's asdict raised TypeError.
    point = UnitPoint(np.float32(0.3), np.array(0.4))
    assert point == UnitPoint(float(np.float32(0.3)), 0.4)
    assert type(point.u) is float and type(point.v) is float
    assert json.loads(json.dumps(dataclasses.asdict(point))) == {"u": point.u, "v": point.v}
    assert UnitPoint(0.1, 0.7).u.hex() == (0.1).hex() and type(UnitPoint(0, 1).v) is float


def test_order_validation():
    # Python and numpy integers pass; bool is an int subclass but no order.
    # Each is returned as the builtin int it reads as.
    for n in (1, 7, np.int64(3)):
        checked = _check_order(n, "order")
        assert type(checked) is int and checked == n
    for n, message in ((0, ">= 1"), (2.0, "integer"), (True, "integer"), (False, "integer")):
        with pytest.raises(DomainError, match=message):
            _check_order(n, "order")
    for entry in (lattice_nodes, gamma_feasible_range):
        with pytest.raises(DomainError, match="integer"):
            entry(True)


def test_point_bound_spec_rejects_inadmissible_theta():
    PointBoundSpec(0.5, 0.5, 0.25)
    with pytest.raises(DomainError, match="lower Frechet"):
        PointBoundSpec(0.7, 0.8, 0.3)  # below W(0.7, 0.8) = 0.5
    with pytest.raises(DomainError, match="upper Frechet"):
        PointBoundSpec(0.3, 0.3, 0.4)  # above M = 0.3
    with pytest.raises(DomainError, match="theta=nan"):
        PointBoundSpec(0.3, 0.3, float("nan"))
    # float32 0.3 is 1.2e-8 above M = 0.3: compared in float32, it passed.
    with pytest.raises(DomainError, match="upper Frechet"):
        PointBoundSpec(0.3, 0.3, np.float32(0.3))
    # At the edge of _ROUNDING (1e-12): half past a bound builds, twice fails.
    PointBoundSpec(0.3, 0.3, 0.3 + 5e-13)
    PointBoundSpec(0.7, 0.8, 0.5 - 5e-13)
    with pytest.raises(DomainError, match="upper Frechet"):
        PointBoundSpec(0.3, 0.3, 0.3 + 2e-12)
    with pytest.raises(DomainError, match="lower Frechet"):
        PointBoundSpec(0.7, 0.8, 0.5 - 2e-12)


def test_point_bound_spec_theta_that_is_not_a_number_is_a_domain_error():
    # A comparison would read True as 1, and "0.2" or None would raise TypeError.
    for theta in ("0.2", None, True, np.bool_(True), [0.2], 1j):
        with pytest.raises(DomainError, match="theta=.* is not a real number"):
            PointBoundSpec(1.0, 1.0, theta)
    # Each real is accepted, and stored as the builtin float it reads as.
    for theta in (0.2, np.float32(0.2), 0, np.int64(0), np.array(0.2)):
        stored = PointBoundSpec(0.3, 0.4, theta).theta
        assert type(stored) is float and stored == float(theta)


def test_point_bound_spec_of_numpy_inputs_computes_as_builtin_floats():
    # A float32 coordinate once made the evaluators compute in float32 at
    # builtin-float points: 0.10000000298023226 against 0.10000000000000003.
    for given, plain in (
        ((np.float32(0.25), 0.7, 0.2), (0.25, 0.7, 0.2)),
        ((0.5, np.float32(0.75), np.array(0.25)), (0.5, 0.75, 0.25)),
        ((np.int64(1), 0.5, np.float32(0.5)), (1.0, 0.5, 0.5)),
    ):
        spec, ref = PointBoundSpec(*given), PointBoundSpec(*plain)
        assert spec == ref and all(type(x) is float for x in (spec.a, spec.b, spec.theta))
        for u, v in ((0.4, 0.6), (0.1, 0.9), (0.8, 0.3)):
            assert point_bound_lower(spec)(u, v) == point_bound_lower(ref)(u, v)
            assert point_bound_upper(spec)(u, v) == point_bound_upper(ref)(u, v)
        assert lower_point_bound_gamma(spec) == lower_point_bound_gamma(ref)


def test_point_bound_lower_examples():
    f = point_bound_lower(PointBoundSpec(0.5, 0.5, 0.0))
    assert f(0.5, 0.5) == 0.0
    f = point_bound_lower(PointBoundSpec(0.6, 0.7, 0.4))
    # three-term max evaluates to the hinge term here
    assert f(0.5, 0.9) == pytest.approx(0.4, abs=1e-15)


def test_point_bound_lower_never_exceeds_frechet_upper_on_the_edges():
    # Its W term is frechet_lower's, held at or below M where u + v - 1
    # rounds one ulp above it.
    assert point_bound_lower(PointBoundSpec(0.5, 0.5, 0.2))(1.0, 0.3) == 0.3
    v = np.random.default_rng(29).random(10_001)
    ones = np.ones_like(v)
    for spec in random_specs(50, 31):
        f = point_bound_lower(spec)
        for u, w in ((ones, v), (v, ones)):
            assert np.all(f(u, w) <= frechet_upper(u, w)), spec


def test_point_bound_upper_examples():
    f = point_bound_upper(PointBoundSpec(0.5, 0.5, 0.5))
    assert f(0.5, 0.5) == 0.5
    f = point_bound_upper(PointBoundSpec(0.3, 0.3, 0.1))
    assert f(0.9, 0.2) == pytest.approx(0.2, abs=1e-15)


def test_point_bound_degenerate_specs():
    # Pinning theta = M(a,b) forces agreement with M on the mixed quadrants
    # (exactly one coordinate past the pin), not globally: the gamma of this
    # copula is 1/2, not gamma(M) = 1, which the closed-form gamma tests pin
    # down.  Dually, theta = W(a,b) agrees with W on the two squares.
    nodes = np.linspace(0.0, 1.0, 41)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    f = point_bound_lower(PointBoundSpec(0.5, 0.5, 0.5))
    mixed = ((uu >= 0.5) & (vv <= 0.5)) | ((uu <= 0.5) & (vv >= 0.5))
    diff = np.abs(f(uu, vv) - frechet_upper(uu, vv))
    assert np.max(diff[mixed]) <= 1e-15
    assert float(f(0.1, 0.2)) == 0.0  # strictly below M = 0.1
    assert float(f(0.75, 0.75)) == 0.5  # strictly below M = 0.75

    g = point_bound_upper(PointBoundSpec(0.5, 0.5, 0.0))
    squares = ((uu <= 0.5) & (vv <= 0.5)) | ((uu >= 0.5) & (vv >= 0.5))
    diff = np.abs(g(uu, vv) - frechet_lower(uu, vv))
    assert np.max(diff[squares]) <= 1e-15
    assert float(g(0.9, 0.2)) == pytest.approx(0.2)  # strictly above W = 0.1


@given(a=UNIT, b=UNIT, frac=UNIT, u=UNIT, v=UNIT)
def test_point_bounds_sandwich(a, b, frac, u, v):
    spec = pinned_spec(a, b, frac)
    lower = float(point_bound_lower(spec)(u, v))
    upper = float(point_bound_upper(spec)(u, v))
    w, m = float(frechet_lower(u, v)), float(frechet_upper(u, v))
    assert w - 1e-12 <= lower <= upper + 1e-12 <= m + 2e-12
    assert float(point_bound_lower(spec)(a, b)) == pytest.approx(spec.theta, abs=1e-12)
    assert float(point_bound_upper(spec)(a, b)) == pytest.approx(spec.theta, abs=1e-12)


def test_rect_volume_examples():
    assert rect_volume(frechet_upper, 0.0, 1.0, 0.0, 1.0) == 1.0
    assert rect_volume(product, 0.2, 0.5, 0.4, 0.9) == pytest.approx(0.15, abs=1e-15)
    assert rect_volume(frechet_lower, 0.25, 0.5, 0.25, 0.5) == 0.0


def test_rect_volume_rejects_inverted_rectangle():
    # float32 0.1 is above 0.1; compared in float32, M's volume was -1.5e-9.
    for corners in ((0.5, 0.2, 0.0, 1.0), (0.0, 1.0, 0.9, 0.4), (np.float32(0.1), 0.1, 0.0, 1.0),
                    (0.0, 1.0, 0.1, np.array(np.float16(0.1)))):
        with pytest.raises(DomainError, match="invalid rectangle"):
            rect_volume(frechet_upper, *corners)


def test_rect_volume_corner_that_is_not_a_number_is_a_domain_error():
    # A comparison would read False and True as 0 and 1, and "0" would raise TypeError.
    for corners in (("0", 1.0, 0.0, 1.0), (False, True, 0.0, 1.0), (0.0, 1.0, None, 1.0),
                    (0.0, 1.0, 0.0, np.bool_(True))):
        with pytest.raises(DomainError, match="rectangle corner .* is not a real number"):
            rect_volume(product, *corners)
    assert rect_volume(product, 0, 1, np.int64(0), np.array(1.0)) == 1.0
    # f is evaluated at the builtin floats of the corners, taken after the
    # range check, so that a huge int is rejected there, not by float().
    volume = rect_volume(product, np.float32(0.1), 0.2, 0.1, 0.3)
    assert type(volume) is float
    assert volume == rect_volume(product, float(np.float32(0.1)), 0.2, 0.1, 0.3)
    with pytest.raises(DomainError, match="invalid rectangle"):
        rect_volume(product, 0, 10**400, 0, 1)


def test_reflection_pointwise_identities():
    nodes = np.linspace(0.0, 1.0, 81)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    refl_m = reflect_first_coordinate(frechet_upper)
    assert np.max(np.abs(refl_m(uu, vv) - frechet_lower(uu, vv))) <= 1e-15
    refl_pi = reflect_first_coordinate(product)
    assert np.max(np.abs(refl_pi(uu, vv) - product(uu, vv))) <= 1e-15


_NUMPY_KINDS = (np.float16, np.float32, np.float64, np.int64, np.uint64)


@st.composite
def _numpy_near(draw, anchor):
    """A numpy scalar of one of _NUMPY_KINDS, or a 0-d array of one: anchor,
    or float32(anchor) or a float32 step either side of it, read by that
    kind (an integer kind takes the nearest integer, and uint64 at least 0)."""
    f32 = np.float32(anchor)
    steps = (f32, np.nextafter(f32, np.float32(-np.inf)), np.nextafter(f32, np.float32(np.inf)))
    x = draw(st.sampled_from([anchor, *map(float, steps)]))
    kind = draw(st.sampled_from(_NUMPY_KINDS))
    if kind in (np.int64, np.uint64):
        x = max(round(x), 0) if kind is np.uint64 else round(x)
    number = kind(x)
    return np.array(number) if draw(st.booleans()) else number


def _bumped_lattice():
    """M on the order-4 lattice with node (2, 2) raised by 1e-9: its
    monotonicity step, Lipschitz excess and least cell volume are about
    1e-9 off, so a tolerance about 1e-9 decides its verdicts."""
    values = LatticeFunction.from_evaluator(frechet_upper, 4).values.copy()
    values[2, 2] += 1e-9
    return LatticeFunction(4, values)


_BUMPED = _bumped_lattice()

# Each entry point with one argument a numpy number x, and the anchors x is
# drawn about, given the unit coordinates a and b: the range ends, the other
# corner of a rectangle, and min(a, b) and W(a, b) past PointBoundSpec's slack.
_NUMPY_CASES = {
    "classify_upper": (lambda x, a, b: classify_upper(x), lambda a, b: (-1.0, 0.0, 1.0)),
    "upper_bound-u": (lambda x, a, b: upper_bound(x, b, 0.3), lambda a, b: (0.0, 1.0)),
    "upper_bound-t": (lambda x, a, b: upper_bound(a, b, x), lambda a, b: (-1.0, 0.0, 1.0)),
    "lower_bound-v": (lambda x, a, b: lower_bound(a, x, -0.3), lambda a, b: (0.0, 1.0)),
    "rect_volume-u1": (lambda x, a, b: rect_volume(frechet_upper, x, a, 0.0, 1.0),
                       lambda a, b: (0.0, a)),
    "rect_volume-v2": (lambda x, a, b: rect_volume(frechet_upper, 0.0, 1.0, b, x),
                       lambda a, b: (b, 1.0)),
    "PointBoundSpec-a": (lambda x, a, b: PointBoundSpec(x, b, 0.0), lambda a, b: (0.0, 1.0)),
    "PointBoundSpec-theta": (
        lambda x, a, b: PointBoundSpec(a, b, x),
        lambda a, b: (min(a, b) - 1e-12, min(a, b) + 1e-12, max(0.0, a + b - 1.0) - 1e-12),
    ),
    "check_properties-tol": (lambda x, a, b: check_properties(_BUMPED, tol=x),
                             lambda a, b: (0.0, 1e-9)),
}


def _outcome(f, *args):
    """f(*args), a float as its hex, or DomainError if f raises one."""
    try:
        out = f(*args)
    except DomainError:
        return DomainError
    return out.hex() if isinstance(out, float) else out


# Unit coordinates, with decimal fractions that a float32 cannot hold.
_COORD = st.one_of(UNIT, st.sampled_from((0.1, 0.3, 0.7)))


@pytest.mark.parametrize("case", list(_NUMPY_CASES))
@settings(max_examples=150, deadline=None)
@given(a=_COORD, b=_COORD, data=st.data())
def test_numpy_number_gets_the_verdict_and_bits_of_its_python_number(case, a, b, data):
    # A float16 or float32 compared raw with a Python float was compared in
    # its own precision: rect_volume took the inverted rectangle
    # [float32(0.1), 0.1] x [0, 1], and PointBoundSpec a theta past min(a, b).
    f, anchors = _NUMPY_CASES[case]
    x = data.draw(_numpy_near(data.draw(st.sampled_from(anchors(a, b)))))
    assert _outcome(f, x, a, b) == _outcome(f, x.item(), a, b), x
