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
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .core import (
    PointBoundSpec,
    UnitPoint,
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

_WITNESS_GAMMA_TOL = 1e-6
_WITNESS_VALUE_TOL = 1e-9


def _check_points(u, v) -> None:
    # One vectorized check (NaN fails every comparison); the scalar entry
    # points keep UnitPoint's cheaper chained comparison.
    u, v = np.asarray(u), np.asarray(v)
    if not np.all((0.0 <= u) & (u <= 1.0) & (0.0 <= v) & (v <= 1.0)):
        raise DomainError("a point (u, v) lies outside the unit square or is NaN")


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

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "t": self.t,
            "theta": list(self.theta),
            "active": list(self.active),
            "inner_max": self.inner_max,
            "bound": self.bound,
            "clamped": self.clamped,
        }


class BoundClassification(enum.Enum):
    FRECHET_LOWER = "FrechetLower"
    PROPER_QUASI_COPULA = "ProperQuasiCopula"
    PROPER_COPULA_STRICT = "ProperCopulaStrict"
    FRECHET_UPPER = "FrechetUpper"


def _radicands(x, m, t):
    # The constant-plus-t groups are parenthesized so that they are exact at
    # the distinguished targets (t+1 = 0 at t = -1, and so on); this keeps
    # the candidates bit-exact where the envelope degenerates to W.
    s = x + m
    pr = x * m
    return (
        (s - 1.0) ** 2 + (t + 1.0),
        s**2 + 4.0 * (1.0 - x) * (1.0 - m) + 2.0 * t,
        16.0 * x**2 + 4.0 * m**2 - 24.0 * x - 12.0 * m + 16.0 * pr + (7.0 * t + 16.0),
        4.0 * x**2 + 16.0 * m**2 - 12.0 * x - 24.0 * m + 16.0 * pr + (7.0 * t + 16.0),
        3.0 * (5.0 * x**2 + 5.0 * m**2 - 6.0 * x - 6.0 * m + 2.0 * pr + (2.0 * t + 5.0)),
    )


def _candidates(x, m, t):
    """Candidate values and existence masks; values are garbage where absent."""
    rads = _radicands(x, m, t)
    exists = tuple(r >= 0.0 for r in rads)
    roots = tuple(np.sqrt(np.maximum(r, 0.0)) for r in rads)
    s = x + m
    thetas = (
        ((s - 1.0) + roots[0]) / 2.0,
        (3.0 * x + m - 2.0 + roots[1]) / 4.0,
        (4.0 * x + 2.0 * m - 3.0 + roots[2]) / 7.0,
        (5.0 * x + 3.0 * m - 4.0 + roots[3]) / 7.0,
        (3.0 * (s - 1.0) + roots[4]) / 6.0,
    )
    return thetas, exists


def _active_masks(x, m, t):
    thetas, exists = _candidates(x, m, t)
    active = tuple(
        exists[i]
        & (thetas[i] <= m + ACTIVATION_EPS)
        & branch_condition(i + 1, x, m, thetas[i], ACTIVATION_EPS)
        for i in range(5)
    )
    return thetas, exists, active


def theta_candidate(i: int, u: float, v: float, t: float) -> Optional[float]:
    """Candidate theta_i at (u, v); None when its radicand is negative."""
    if i not in (1, 2, 3, 4, 5):
        raise DomainError(f"candidate index {i} not in 1..5")
    UnitPoint(u, v)
    t = check_t(t)
    x, m = max(u, v), min(u, v)
    thetas, exists = _candidates(x, m, t)
    if not bool(exists[i - 1]):
        return None
    return float(thetas[i - 1])


def region_contains(i: int, u: float, v: float, t: float) -> bool:
    """Whether candidate i binds at (u, v): exists, <= min(u,v), condition holds."""
    if i not in (1, 2, 3, 4, 5):
        raise DomainError(f"region index {i} not in 1..5")
    UnitPoint(u, v)
    t = check_t(t)
    x, m = max(u, v), min(u, v)
    _, _, active = _active_masks(x, m, t)
    return bool(active[i - 1])


def region_nonempty(i: int, t: float, samples: int = 40000) -> bool:
    """Dense-grid search for any point of region i; samples >= 10^4 required."""
    if i not in (1, 2, 3, 4, 5):
        raise DomainError(f"region index {i} not in 1..5")
    if samples < 10**4:
        raise DomainError(f"need at least 10^4 samples, got {samples}")
    side = int(np.ceil(np.sqrt(samples)))
    nodes = np.linspace(0.0, 1.0, side)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    return bool(np.any(region_masks(uu, vv, t)[i - 1]))


def region_masks(u, v, t) -> tuple:
    """Membership masks of regions 1..5 at the points (u, v); u, v may be arrays."""
    t = check_t(t)
    _check_points(u, v)
    _, _, active = _active_masks(np.maximum(u, v), np.minimum(u, v), t)
    return active


def _upper_values(u, v, t):
    """The vectorized upper envelope on points and t already checked."""
    x, m = np.maximum(u, v), np.minimum(u, v)
    thetas, _, active = _active_masks(x, m, t)
    inner = reduce(
        np.maximum, (np.where(act, th, -np.inf) for th, act in zip(thetas, active))
    )
    raw = np.where(inner > -np.inf, np.minimum(m, inner), m)
    return np.minimum(np.maximum(raw, frechet_lower(u, v)), frechet_upper(u, v))


def upper_bound_values(u, v, t):
    """Vectorized upper envelope; u, v may be arrays."""
    t = check_t(t)
    _check_points(u, v)
    return _upper_values(u, v, t)


def lower_bound_values(u, v, t):
    """Vectorized lower envelope via the reflection identity."""
    t = check_t(t)
    # Checked before reflecting: 1 - u rounds u = -1e-20 into the square.
    _check_points(u, v)
    return v - _upper_values(1.0 - np.asarray(u, dtype=float), v, -t)


def upper_bound(u: float, v: float, t: float) -> ThetaReport:
    """Upper envelope at one point, with the full candidate/region record."""
    UnitPoint(u, v)
    t = check_t(t)
    x, m = max(u, v), min(u, v)
    thetas, exists, active = _active_masks(x, m, t)
    theta_out = tuple(
        float(th) if bool(ex) else None for th, ex in zip(thetas, exists)
    )
    active_out = tuple(bool(a) for a in active)
    if any(active_out):
        inner: Optional[float] = max(
            float(th) for th, act in zip(thetas, active_out) if act
        )
        raw = min(u, v, inner)
    else:
        inner = None
        raw = min(u, v)
    lo = float(frechet_lower(u, v))
    hi = float(frechet_upper(u, v))
    bound = min(max(raw, lo), hi)
    return ThetaReport(
        u=float(u),
        v=float(v),
        t=t,
        theta=theta_out,
        active=active_out,
        inner_max=inner,
        bound=bound,
        clamped=abs(bound - raw) > CLAMP_ALARM,
    )


def lower_bound(u: float, v: float, t: float) -> float:
    """Lower envelope at one point: v - upper(1-u, v, -t)."""
    UnitPoint(u, v)
    t = check_t(t)
    return float(v - upper_bound(1.0 - u, v, -t).bound)


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
    """Nature of the lower envelope as a function of t."""
    t = check_t(t)
    if t == 1.0:
        return BoundClassification.FRECHET_UPPER
    if t > 0.0:
        return BoundClassification.PROPER_QUASI_COPULA
    if t > -0.5:
        return BoundClassification.PROPER_COPULA_STRICT
    return BoundClassification.FRECHET_LOWER


def hyperbolic_set_contains(u: float, v: float, t: float) -> bool:
    """Whether (u+v)^2 + 2uv - 6*min(u,v) <= -1 - t.

    This is the set where the fifth candidate lies below min(u, v); its
    boundary consists of two hyperbolic arcs symmetric about the diagonal.
    """
    UnitPoint(u, v)
    t = check_t(t)
    return bool((u + v) ** 2 + 2.0 * u * v - 6.0 * min(u, v) <= -1.0 - t)


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
    excess = (u + v) ** 2 + 2.0 * u * v - 6.0 * min(u, v) + (1.0 + t)
    if excess > 1e-12:
        raise DomainError(
            f"({u}, {v}) lies outside the closure of the hyperbolic set at t={t}"
        )
    g = t - 12.0 * u * v + 6.0 * u + 6.0 * v - 2.0
    h = 5.0 * u**2 + 5.0 * v**2 - 6.0 * u - 6.0 * v + 2.0 * u * v + 2.0 * t + 5.0
    if h <= 0.0:
        raise DomainError(
            f"density undefined at ({u}, {v}, t={t}): vanishing denominator"
        )
    return float(3.0 * g / (3.0 * h) ** 1.5)


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

    Returns the lower point-bound copula pinned at the envelope value when
    that already has gamma t; otherwise blends the upper Frechet bound with
    the point-bound copula pinned at min(u, v) (gamma is affine under
    mixtures, so the blend weight is solved exactly).  Post-conditions are
    verified at run time by quadrature.
    """
    UnitPoint(u, v)
    t = check_t(t)
    report = upper_bound(u, v, t)
    m = min(u, v)
    theta_star = m if report.inner_max is None else min(report.inner_max, m)
    theta_star = max(theta_star, float(frechet_lower(u, v)))
    pinned = PointBoundSpec(u, v, theta_star)
    if abs(lower_point_bound_gamma(pinned).value - t) <= 1e-9:
        witness = point_bound_lower(pinned)
    else:
        base_spec = PointBoundSpec(u, v, m)
        gamma0 = lower_point_bound_gamma(base_spec).value
        alpha = min(max((t - gamma0) / (1.0 - gamma0), 0.0), 1.0)
        base = point_bound_lower(base_spec)

        def witness(uu, vv, _alpha=alpha, _base=base):
            return _alpha * frechet_upper(uu, vv) + (1.0 - _alpha) * _base(uu, vv)

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
