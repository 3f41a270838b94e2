"""Pointwise best-possible bounds on copulas with a prescribed Gini's gamma.

The upper envelope at (u, v) is min(u, v, largest admissible theta), where
theta ranges over up to five closed-form candidates.  Candidate i is the
largest root of the i-th branch of the piecewise gamma of the lower
point-bound copula (see pointgamma); it is *active* when

  - its radicand is nonnegative (the root exists),
  - it does not exceed min(u, v) (a copula value at (u, v) cannot), and
  - the branch condition holds at the root itself.

These three checks are the region-membership inequalities in direct form;
rearranging them into explicit curves u -> v reintroduces vanishing
denominators and nonexistent square roots, so the direct form is used
everywhere.  With no active candidate the constraint is absent and the
envelope equals min(u, v).

The lower envelope is the reflection v - upper(1-u, v, -t).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .core import (
    PointBoundSpec,
    UnitPoint,
    _check_order,
    _check_point,
    _check_points,
    check_t,
    frechet_lower,
    frechet_upper,
    point_bound_lower,
)
from .errors import DomainError, InternalError
from .pointgamma import branch_condition, branch_form, branch_value, lower_point_bound_gamma
from .quadrature import _certify_gamma

# Clamping the final value into [W, M] by more than this is flagged: it
# guards boundary float noise without hiding region-logic errors.
CLAMP_ALARM = 1e-12

# Activation comparisons tolerate this much rounding noise.  Candidate
# values carry about one ulp of error, and at distinguished t (for example
# t = -1, where the envelope degenerates to the lower Frechet bound) whole
# lattice lines sit exactly on region boundaries, so exact comparisons
# would flip membership on float noise.  Admitting a candidate that misses
# a boundary by <= 1e-13 moves the envelope by at most a comparable amount,
# far below the 1e-12 identity tolerances.
ACTIVATION_EPS = 1e-13

# Region i (the points where candidate i binds) is non-empty exactly for
# t <= REGION_EMPTY_ABOVE[i - 1]; region_nonempty reads this table, and both
# array passes, the envelope and region_masks, prune by it.  Acceptance
# criterion 07 pins these values.
REGION_EMPTY_ABOVE = (-3.0 / 4.0, -4.0 / 9.0, -4.0 / 13.0, -4.0 / 13.0, 1.0 / 2.0)
_ALL_CANDIDATES = (0, 1, 2, 3, 4)

# Both array passes, the envelope and region_masks, skip a candidate when t
# exceeds its emptiness threshold by more than this.  ACTIVATION_EPS lets a
# region outlive its threshold, but by about 1e-13 in t (tests/test_bounds.py
# draws points at the vanishing points to show it), so a skipped candidate
# would have been inactive everywhere: it could only have added -inf to the
# envelope's max, and its region mask is all False.
_PRUNE_MARGIN = 1e-9

# Points per block of the array kernel: each float64 temporary is 128 KiB
# and stays in L2 cache; 16k was the fastest of 4k to 64k on a 401^2 lattice.
_BLOCK = 16384

_WITNESS_VALUE_TOL = 1e-9


@dataclass(frozen=True)
class ThetaReport:
    """Per-point record of the upper-envelope computation.

    theta[i] is None when the candidate's radicand is negative; active[i]
    marks candidates that bind; inner_max is the largest active candidate
    (None when no candidate is active and the envelope is min(u, v)).
    Every field is a builtin float, bool or None, whatever the input types.
    """

    u: float
    v: float
    t: float
    theta: tuple[Optional[float], ...]
    active: tuple[bool, ...]
    inner_max: Optional[float]
    bound: float
    clamped: bool


class BoundClassification(enum.Enum):
    FRECHET_LOWER = "FrechetLower"
    PROPER_QUASI_COPULA = "ProperQuasiCopula"
    PROPER_COPULA_STRICT = "ProperCopulaStrict"
    FRECHET_UPPER = "FrechetUpper"


_REFLECTED_CLASS = {
    BoundClassification.FRECHET_LOWER: BoundClassification.FRECHET_UPPER,
    BoundClassification.FRECHET_UPPER: BoundClassification.FRECHET_LOWER,
}


def _active_masks(x, m, t, live):
    """Values and activity masks of the candidates in ``live``, on arrays.

    ``live`` lists candidate indices 0..4 in increasing order, and the
    results follow it; a value is garbage where its candidate is absent.
    A root is (offset + sqrt) / den where offset >= 0, and the equal
    gap / (sqrt - offset) elsewhere, so that neither form cancels: near
    (1/2, 1/2) at t = -1, where every radicand nearly vanishes, the 401^2
    lattice of the envelope is within 6.1e-16 of W.
    """
    ceiling = m + ACTIVATION_EPS
    thetas, active = [], []
    for i in live:
        rad, gap, offset, den = branch_form(i + 1, x, m, t)
        exists = rad >= 0.0
        sq = np.sqrt(np.maximum(rad, 0.0))
        del rad
        th = np.asarray((offset + sq) / den)
        # One divide per point: where offset >= 0, sq - offset may be 0.
        np.divide(gap, sq - offset, out=th, where=offset < 0.0)
        # Freed before the masks, so numpy reuses their still-cached memory:
        # with them alive, the upper and lower 401^2 lattices at six t took
        # 83-97 ms, not 81-94 ms (fastest of 15 rounds, 2 vCPUs).
        del gap, offset, sq
        thetas.append(th)
        active.append(
            exists & (th <= ceiling) & branch_condition(i + 1, x, m, th, ACTIVATION_EPS)
        )
    return thetas, active


def _live_candidates(t: float) -> tuple[int, ...]:
    """Indices of the candidates whose region can be non-empty at t.

    The thresholds increase, so these are always a suffix of 0..4."""
    return tuple(
        i for i, thr in enumerate(REGION_EMPTY_ABOVE) if t <= thr + _PRUNE_MARGIN
    )


def _check_index(i: int, kind: str) -> None:
    """DomainError unless i is a candidate or region index: an integer (not bool) in 1..5."""
    _check_order(i, f"{kind} index")
    if i > 5:
        raise DomainError(f"{kind} index must be <= 5, got {i}")


def theta_candidate(i: int, u: float, v: float, t: float) -> Optional[float]:
    """Candidate theta_i at (u, v); None when its radicand is negative."""
    _check_index(i, "candidate")
    return upper_bound(u, v, t).theta[i - 1]


def region_contains(i: int, u: float, v: float, t: float) -> bool:
    """Whether candidate i binds at (u, v): exists, <= min(u,v), condition holds."""
    _check_index(i, "region")
    return upper_bound(u, v, t).active[i - 1]


def region_nonempty(i: int, t: float) -> bool:
    """Whether region i has a point at t: exactly t <= REGION_EMPTY_ABOVE[i - 1].

    One comparison against the closed-form thresholds; both array passes,
    the envelope and region_masks, prune by the same table, with the margin
    _PRUNE_MARGIN of _live_candidates.
    """
    _check_index(i, "region")
    return check_t(t) <= REGION_EMPTY_ABOVE[i - 1]


def region_masks(u, v, t) -> tuple:
    """Membership masks of regions 1..5 at the points (u, v); u, v may be arrays.

    Only the candidates live at t (_live_candidates) are evaluated, as in the
    envelope; the masks of the pruned ones are all False.
    """
    t = check_t(t)
    u, v = np.broadcast_arrays(*_check_points(u, v))
    masks = np.zeros((5,) + u.shape, dtype=bool)
    flat = masks.reshape(5, -1)
    live = _live_candidates(t)
    for block, x, m in _blocks(u, v) if live else ():
        flat[live[0]:, block] = _active_masks(x, m, t, live)[1]
    return tuple(masks)


def _blocks(u, v):
    """(slice, max, min) of each _BLOCK-sized piece of the flattened points.

    u and v are arrays of one shape.  Every step of the array kernel is
    elementwise, so blocking changes no bit of its results.
    """
    flat_u, flat_v = u.ravel(), v.ravel()
    for start in range(0, flat_u.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        bu, bv = flat_u[block], flat_v[block]
        yield block, np.maximum(bu, bv), np.minimum(bu, bv)


def _upper_values(u, v, t):
    """The vectorized upper envelope on points and t already checked.

    Per block, with x = max(u, v) and m = min(u, v): raw starts as m; the
    largest active candidate among those live at t, where there is one,
    caps it; and one maximum with W(x, m) clamps it into [W, M].
    """
    u, v = np.broadcast_arrays(u, v)
    out = np.empty(u.shape)
    flat_out = out.reshape(-1)
    live = _live_candidates(t)
    for block, x, m in _blocks(u, v):
        raw = m
        if live:
            # The largest active candidate, -inf where none is; bound to raw
            # itself, so that no block's roots and masks outlive the block.
            raw = reduce(np.maximum, (
                np.where(act, th, -np.inf) for th, act in zip(*_active_masks(x, m, t, live))
            ))
            raw = np.where(raw > -np.inf, np.minimum(m, raw), m)
        # raw <= m = M(u, v) and W <= M, so this clamps raw into [W, M]; W(x, m)
        # is W(u, v) bit for bit, since x + m == u + v exactly.
        flat_out[block] = np.maximum(raw, frechet_lower(x, m))
    return out[()]


def upper_bound_values(u, v, t):
    """Vectorized upper envelope; u, v may be arrays (a 0-d input gives a
    numpy.float64)."""
    t = check_t(t)
    return _upper_values(*_check_points(u, v), t)


def lower_bound_values(u, v, t):
    """Vectorized lower envelope via the reflection identity."""
    t = check_t(t)
    # Checked before reflecting: 1 - u rounds u = -1e-20 into the square.
    u, v = _check_points(u, v)
    return v - _upper_values(1.0 - u, v, -t)


def upper_bound(u: float, v: float, t: float) -> ThetaReport:
    """Upper envelope at one point, with the full candidate/region record.

    A plain-float walk over the branch table (pointgamma.branch_form):
    numpy's functions cost about 1 us a call on scalars, several times the
    arithmetic here.  It reaches the array kernel's bits: bound, lower_bound
    and active equal upper_bound_values, lower_bound_values and
    region_masks, numpy-scalar inputs included, since it computes on the
    builtin floats _check_point returns as the kernel does on float64
    arrays.  It computes every candidate it reports; theta_candidate and
    region_contains read its record.
    """
    u, v = _check_point(u, v)
    t = check_t(t)
    x, m = max(u, v), min(u, v)
    ceiling = m + ACTIVATION_EPS
    thetas, active = [], []
    inner = None
    for i in _ALL_CANDIDATES:
        rad, gap, offset, den = branch_form(i + 1, x, m, t)
        if rad >= 0.0:
            sq = math.sqrt(rad)
            th = (offset + sq) / den if offset >= 0.0 else gap / (sq - offset)
            act = th <= ceiling and branch_condition(i + 1, x, m, th, ACTIVATION_EPS)
            if act and (inner is None or th > inner):
                inner = th
        else:
            th, act = None, False
        thetas.append(th)
        active.append(act)
    raw = m if inner is None else min(m, inner)
    # The clamp into [W, M] = [max(0, u + v - 1), m].
    bound = min(max(raw, 0.0, u + v - 1.0), m)
    return ThetaReport(
        u=u,
        v=v,
        t=t,
        theta=tuple(thetas),
        active=tuple(active),
        inner_max=inner,
        bound=bound,
        clamped=abs(bound - raw) > CLAMP_ALARM,
    )


def _reflected_upper_bound(u: float, v: float, t: float) -> ThetaReport:
    """upper_bound's record at (1-u, v, -t); v minus its bound is the lower envelope."""
    # Checked before reflecting: 1 - u rounds u = -1e-20 into the square.
    u, v = _check_point(u, v)
    return upper_bound(1.0 - u, v, -check_t(t))


def lower_bound(u: float, v: float, t: float) -> float:
    """Lower envelope at one point: v - upper(1-u, v, -t), on the record's v."""
    report = _reflected_upper_bound(u, v, t)
    return report.v - report.bound


def classify_upper(t: float) -> BoundClassification:
    """Nature of the upper envelope as a function of t."""
    t = check_t(t)
    if t == -1.0:
        return BoundClassification.FRECHET_LOWER
    if t < 0.0:
        return BoundClassification.PROPER_QUASI_COPULA
    if t < 0.5:
        return BoundClassification.PROPER_COPULA_STRICT
    return BoundClassification.FRECHET_UPPER


def classify_lower(t: float) -> BoundClassification:
    """Nature of the lower envelope as a function of t.

    The lower envelope is the reflection v - upper(1-u, v, -t), which
    negates gamma, maps M to W and W to M, and keeps (quasi-)copulas.
    """
    cls = classify_upper(-check_t(t))
    return _REFLECTED_CLASS.get(cls, cls)


def _hyperbolic_excess(u: float, v: float, t: float) -> float:
    """t - gamma_5(min(u, v)), equal to (u+v)^2 + 2uv - 6 min(u, v) + (1 + t).

    The hyperbolic set is where it is <= 0, that is where the fifth candidate
    is at most m = min(u, v): branch 5 is convex in theta with its vertex at
    (x + m - 1)/2 <= m, and its radicand is never negative, so its largest
    root is <= m exactly when gamma_5(m) >= t.
    """
    x, m = max(u, v), min(u, v)
    return t - branch_value(5, x, m, m)


def hyperbolic_set_contains(u: float, v: float, t: float) -> bool:
    """Whether (u+v)^2 + 2uv - 6*min(u,v) <= -1 - t.

    This is the set where the fifth candidate lies below min(u, v); its
    boundary consists of two hyperbolic arcs symmetric about the diagonal.
    """
    u, v = _check_point(u, v)
    t = check_t(t)
    return _hyperbolic_excess(u, v, t) <= 0.0


def hyperbolic_corner_points(t: float) -> tuple[UnitPoint, UnitPoint]:
    """Diagonal points where the two hyperbolic arcs meet; defined for t <= 1/2."""
    t = check_t(t)
    rad = 3.0 - 6.0 * t
    if rad < 0.0:
        raise DomainError(f"corner points undefined for t={t} > 1/2")
    root = math.sqrt(rad)
    p1, p2 = (3.0 + root) / 6.0, (3.0 - root) / 6.0
    return UnitPoint(p1, p1), UnitPoint(p2, p2)


def mixed_partial_density(u: float, v: float, t: float) -> float:
    """Second mixed derivative of the fifth-candidate surface inside the set.

    Closed form 3*((t + 1) - 3(2u - 1)(2v - 1)) / rad^1.5, rad being the fifth
    candidate's radicand 9(u + v - 1)^2 + 6((u - v)^2 + (t + 1)) read from
    pointgamma.branch_form; both keep (t + 1) whole, so they keep their
    precision near t = -1;
    at the corner points this equals t/3, which is negative exactly when
    the upper envelope is a proper quasi-copula.  Its minimum over the set
    is lens_density_floor(t), which equals t/3 only for -2/3 <= t < 0.
    """
    u, v = _check_point(u, v)
    t = check_t(t)
    # Closure membership with rounding slack: the corner points themselves
    # satisfy the boundary equation only to one ulp in floats.
    if _hyperbolic_excess(u, v, t) > 1e-12:
        raise DomainError(
            f"({u}, {v}) lies outside the closure of the hyperbolic set at t={t}"
        )
    g = (t + 1.0) - 3.0 * (2.0 * u - 1.0) * (2.0 * v - 1.0)
    rad = branch_form(5, max(u, v), min(u, v), t)[0]
    if rad <= 0.0:
        raise DomainError(
            f"density undefined at ({u}, {v}, t={t}): vanishing denominator"
        )
    return 3.0 * g / rad**1.5


def lens_density_floor(t: float) -> tuple[float, tuple[float, float]]:
    """Minimum D*(t) of mixed_partial_density over the lens, and where it is.

    Defined for -1 < t < 0; returns D*(t) and the u of the two diagonal
    points (u, u) attaining it.  On u = v, with s = 12u^2 - 12u, the density
    is 3(t - 2 - s) / (3(s + 2t + 5))^1.5 on the lens -3 <= s <= -2 - 2t.
    Its only stationary point, a minimum at s = 7t + 4, lies in the lens iff
    t <= -2/3: there D* = -2 / (9 sqrt(3(1 + t))) at
    u = (1 +- sqrt(7(1 + t)/3)) / 2.  For -2/3 < t < 0 the density falls
    towards the lens edge, the corner points, where D* = t/3.
    """
    t = check_t(t)
    if not -1.0 < t < 0.0:
        raise DomainError(f"the lens density floor is defined for -1 < t < 0, got t={t}")
    if t <= -2.0 / 3.0:
        half = math.sqrt(7.0 * (1.0 + t) / 3.0) / 2.0
        return -2.0 / (9.0 * math.sqrt(3.0 * (1.0 + t))), (0.5 - half, 0.5 + half)
    p1, p2 = hyperbolic_corner_points(t)
    return t / 3.0, (p2.u, p1.u)


def witness_copula(u: float, v: float, t: float) -> Callable:
    """A copula attaining the upper envelope at (u, v) with gamma equal to t.

    Blends the upper Frechet bound into the lower point-bound copula pinned
    at the envelope value; gamma is affine under mixtures, so the weight is
    solved exactly.  Where a candidate binds, the pinned copula has gamma t
    and the weight is 0 up to rounding; where none binds, the pin is
    min(u, v), which the blend keeps.  Post-conditions are verified at run
    time by quadrature.
    """
    report = upper_bound(u, v, t)
    # The record's builtin floats: a numpy float32 pin would make the
    # witness compute in float32 at Python-float points.
    u, v, t = report.u, report.v, report.t
    pinned = PointBoundSpec(u, v, report.bound)
    gamma0 = lower_point_bound_gamma(pinned).value
    alpha = min(max((t - gamma0) / (1.0 - gamma0), 0.0), 1.0)
    base = point_bound_lower(pinned)

    def witness(uu, vv):
        return alpha * frechet_upper(uu, vv) + (1.0 - alpha) * base(uu, vv)

    gamma_hat, certified = _certify_gamma(witness, t)
    value = float(witness(u, v))
    if not certified or abs(value - report.bound) > _WITNESS_VALUE_TOL:
        raise InternalError(
            "witness post-condition failed at "
            f"(u={u}, v={v}, t={t}): quadrature gamma={gamma_hat}, "
            f"value={value}, envelope={report.bound}; "
            "this indicates a branch/region bug"
        )
    return witness
