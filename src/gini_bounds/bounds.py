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
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .core import (
    PointBoundSpec,
    UnitPoint,
    _check_points,
    check_t,
    frechet_lower,
    frechet_upper,
    point_bound_lower,
)
from .errors import DomainError, InternalError
from .pointgamma import branch_condition, lower_point_bound_gamma
from .quadrature import gamma_quadrature

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

# Region i (the points where candidate i binds) is empty for every t above
# REGION_EMPTY_ABOVE[i - 1]; acceptance criterion 07 pins these values.
REGION_EMPTY_ABOVE = (-3.0 / 4.0, -4.0 / 9.0, -4.0 / 13.0, -4.0 / 13.0, 1.0 / 2.0)
_ALL_CANDIDATES = (0, 1, 2, 3, 4)

# The array envelope skips a candidate when t exceeds its emptiness
# threshold by more than this.  ACTIVATION_EPS lets a region outlive its
# threshold, but by about 1e-13 in t (tests/test_bounds.py draws points at
# the vanishing points to show it), so a skipped candidate could only have
# added -inf to the max and the envelope is unchanged.
_PRUNE_MARGIN = 1e-9

# Points per block of the array kernel: each float64 temporary is 128 KiB
# and stays in L2 cache; 16k was the fastest of 4k to 64k on a 401^2 lattice.
_BLOCK = 16384

_WITNESS_GAMMA_TOL = 1e-6
_WITNESS_VALUE_TOL = 1e-9


@dataclass(frozen=True)
class ThetaReport:
    """Per-point record of the upper-envelope computation.

    theta[i] is None when the candidate's radicand is negative; active[i]
    marks candidates that bind; inner_max is the largest active candidate
    (None when no candidate is active and the envelope is min(u, v)).
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


def _lens_radicand(x, m, t):
    """The fifth candidate's radicand; mixed_partial_density's denominator is its 3/2 power."""
    return 3.0 * (
        5.0 * (x * x) + 5.0 * (m * m) - 6.0 * x - 6.0 * m + 2.0 * (x * m) + (2.0 * t + 5.0)
    )


def _form(i, x, m, s, t):
    """(radicand, offset, denominator) of candidate i + 1 at (x, m), s = x + m.

    The one table of the candidates: candidate i + 1 is
    (offset + sqrt(radicand)) / denominator, the largest root of gamma
    branch i + 1, and exists where the radicand is nonnegative.  Works on
    floats and elementwise on arrays.
    """
    # The constant-plus-t groups are parenthesized so that they are exact at
    # the distinguished targets (t+1 = 0 at t = -1, and so on); this keeps
    # the candidates bit-exact where the envelope degenerates to W.  Squares
    # are products: on a float, ** calls libm pow, which can round an ulp away
    # from x * x (numpy's square on arrays), and the scalar record would then
    # differ from the array kernel.
    if i == 0:
        return (s - 1.0) * (s - 1.0) + (t + 1.0), s - 1.0, 2.0
    if i == 1:
        return s * s + 4.0 * (1.0 - x) * (1.0 - m) + 2.0 * t, 3.0 * x + m - 2.0, 4.0
    if i == 2:
        return (
            16.0 * (x * x) + 4.0 * (m * m) - 24.0 * x - 12.0 * m + 16.0 * (x * m)
            + (7.0 * t + 16.0),
            4.0 * x + 2.0 * m - 3.0,
            7.0,
        )
    if i == 3:
        return (
            4.0 * (x * x) + 16.0 * (m * m) - 12.0 * x - 24.0 * m + 16.0 * (x * m)
            + (7.0 * t + 16.0),
            5.0 * x + 3.0 * m - 4.0,
            7.0,
        )
    return _lens_radicand(x, m, t), 3.0 * (s - 1.0), 6.0


def _active_masks(x, m, t, live=_ALL_CANDIDATES):
    """Values and activity masks of the candidates in ``live``, on arrays.

    ``live`` lists candidate indices 0..4 in increasing order, and the
    results follow it; a value is garbage where its candidate is absent.
    """
    s = x + m
    ceiling = m + ACTIVATION_EPS
    thetas, active = [], []
    for i in live:
        rad, offset, den = _form(i, x, m, s, t)
        exists = rad >= 0.0
        th = (offset + np.sqrt(np.maximum(rad, 0.0))) / den
        # Freed before the masks: numpy then reuses their memory, and a 401^2
        # region_masks call ran about 20% slower with them alive.
        del rad, offset
        thetas.append(th)
        active.append(
            exists & (th <= ceiling) & branch_condition(i + 1, x, m, th, ACTIVATION_EPS)
        )
    return thetas, active


def _live_candidates(t: float) -> tuple[int, ...]:
    """Indices of the candidates whose region can be non-empty at t."""
    return tuple(
        i for i, thr in enumerate(REGION_EMPTY_ABOVE) if t <= thr + _PRUNE_MARGIN
    )


def _check_index(i: int, kind: str) -> None:
    if not (isinstance(i, numbers.Integral) and 1 <= i <= 5):
        raise DomainError(f"{kind} index {i} is not an integer in 1..5")


def theta_candidate(i: int, u: float, v: float, t: float) -> Optional[float]:
    """Candidate theta_i at (u, v); None when its radicand is negative."""
    _check_index(i, "candidate")
    return upper_bound(u, v, t).theta[i - 1]


def region_contains(i: int, u: float, v: float, t: float) -> bool:
    """Whether candidate i binds at (u, v): exists, <= min(u,v), condition holds."""
    _check_index(i, "region")
    return upper_bound(u, v, t).active[i - 1]


def region_nonempty(i: int, t: float, samples: int = 40000) -> bool:
    """Dense-grid search for any point of region i; samples >= 10^4 required."""
    _check_index(i, "region")
    if samples < 10**4:
        raise DomainError(f"need at least 10^4 samples, got {samples}")
    side = int(np.ceil(np.sqrt(samples)))
    nodes = np.linspace(0.0, 1.0, side)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    return bool(np.any(region_masks(uu, vv, t)[i - 1]))


def region_masks(u, v, t) -> tuple:
    """Membership masks of regions 1..5 at the points (u, v); u, v may be arrays."""
    t = check_t(t)
    u, v = _check_points(u, v)
    return tuple(_active_masks(np.maximum(u, v), np.minimum(u, v), t)[1])


def _upper_values(u, v, t):
    """The vectorized upper envelope on points and t already checked.

    The broadcast points are evaluated in blocks of _BLOCK into one output.
    Every step is elementwise, so blocking changes no bit of the result.
    """
    u, v = np.broadcast_arrays(u, v)
    out = np.empty(u.shape)
    flat_u, flat_v, flat_out = u.ravel(), v.ravel(), out.reshape(-1)
    live = _live_candidates(t)
    for start in range(0, flat_out.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        flat_out[block] = _upper_block(flat_u[block], flat_v[block], t, live)
    return out[()]


def _upper_block(u, v, t, live):
    """The upper envelope on one block of 1-D points, over the candidates in live."""
    x, m = np.maximum(u, v), np.minimum(u, v)
    if live:
        thetas, active = _active_masks(x, m, t, live)
        inner = reduce(
            np.maximum, (np.where(act, th, -np.inf) for th, act in zip(thetas, active))
        )
        raw = np.where(inner > -np.inf, np.minimum(m, inner), m)
    else:
        raw = m
    # raw <= m = M(u, v) and W <= M, so this clamps raw into [W, M].
    return np.maximum(raw, frechet_lower(u, v))


def upper_bound_values(u, v, t):
    """Vectorized upper envelope; u, v may be arrays."""
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

    A plain-float walk over the candidate table: numpy's functions cost
    about 1 us a call on scalars, several times the arithmetic here.
    """
    UnitPoint(u, v)
    # Coerced once: int, bool or numpy inputs leave only builtin floats and
    # bools in the record.
    u, v = float(u), float(v)
    t = check_t(t)
    x, m = max(u, v), min(u, v)
    s = x + m
    ceiling = m + ACTIVATION_EPS
    thetas, active = [], []
    inner = None
    for i in _ALL_CANDIDATES:
        rad, offset, den = _form(i, x, m, s, t)
        if rad >= 0.0:
            th = (offset + math.sqrt(rad)) / den
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
    UnitPoint(u, v)
    return upper_bound(1.0 - u, v, -check_t(t))


def lower_bound(u: float, v: float, t: float) -> float:
    """Lower envelope at one point: v - upper(1-u, v, -t)."""
    return float(v - _reflected_upper_bound(u, v, t).bound)


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
    """(u+v)^2 + 2uv - 6 min(u, v) + (1 + t): the hyperbolic set is where it is <= 0."""
    return (u + v) ** 2 + 2.0 * u * v - 6.0 * min(u, v) + (1.0 + t)


def hyperbolic_set_contains(u: float, v: float, t: float) -> bool:
    """Whether (u+v)^2 + 2uv - 6*min(u,v) <= -1 - t.

    This is the set where the fifth candidate lies below min(u, v); its
    boundary consists of two hyperbolic arcs symmetric about the diagonal.
    """
    UnitPoint(u, v)
    t = check_t(t)
    return bool(_hyperbolic_excess(u, v, t) <= 0.0)


def hyperbolic_corner_points(t: float) -> tuple[UnitPoint, UnitPoint]:
    """Diagonal points where the two hyperbolic arcs meet; defined for t <= 1/2."""
    t = check_t(t)
    rad = 3.0 - 6.0 * t
    if rad < 0.0:
        raise DomainError(f"corner points undefined for t={t} > 1/2")
    root = np.sqrt(rad)
    p1 = float((3.0 + root) / 6.0)
    p2 = float((3.0 - root) / 6.0)
    return UnitPoint(p1, p1), UnitPoint(p2, p2)


def mixed_partial_density(u: float, v: float, t: float) -> float:
    """Second mixed derivative of the fifth-candidate surface inside the set.

    Closed form 3*(t - 12uv + 6u + 6v - 2) / (3*(5u^2+5v^2-6u-6v+2uv+2t+5))^1.5;
    at the corner points this equals t/3, which is negative exactly when
    the upper envelope is a proper quasi-copula.  Its minimum over the set
    is lens_density_floor(t), which equals t/3 only for -2/3 <= t < 0.
    """
    UnitPoint(u, v)
    t = check_t(t)
    # Closure membership with rounding slack: the corner points themselves
    # satisfy the boundary equation only to one ulp in floats.
    if _hyperbolic_excess(u, v, t) > 1e-12:
        raise DomainError(
            f"({u}, {v}) lies outside the closure of the hyperbolic set at t={t}"
        )
    g = t - 12.0 * u * v + 6.0 * u + 6.0 * v - 2.0
    rad = _lens_radicand(max(u, v), min(u, v), t)
    if rad <= 0.0:
        raise DomainError(
            f"density undefined at ({u}, {v}, t={t}): vanishing denominator"
        )
    return float(3.0 * g / rad**1.5)


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
        half = float(np.sqrt(7.0 * (1.0 + t) / 3.0)) / 2.0
        return -2.0 / (9.0 * float(np.sqrt(3.0 * (1.0 + t)))), (0.5 - half, 0.5 + half)
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
    t = report.t
    pinned = PointBoundSpec(u, v, report.bound)
    gamma0 = lower_point_bound_gamma(pinned).value
    alpha = min(max((t - gamma0) / (1.0 - gamma0), 0.0), 1.0)
    base = point_bound_lower(pinned)

    def witness(uu, vv):
        return alpha * frechet_upper(uu, vv) + (1.0 - alpha) * base(uu, vv)

    gamma_hat = gamma_quadrature(witness, 4000)
    value = float(witness(u, v))
    if abs(gamma_hat - t) > _WITNESS_GAMMA_TOL or abs(value - report.bound) > _WITNESS_VALUE_TOL:
        raise InternalError(
            "witness post-condition failed at "
            f"(u={u}, v={v}, t={t}): quadrature gamma={gamma_hat}, "
            f"value={value}, envelope={report.bound}; "
            "this indicates a branch/region bug"
        )
    return witness
