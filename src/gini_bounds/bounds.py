"""Pointwise best-possible bounds on copulas with a prescribed Gini's gamma.

The upper envelope at (u, v) is min(u, v, largest admissible theta), where
theta ranges over up to five closed-form candidates.  Candidate i is the
largest root of the i-th branch of the piecewise gamma of the lower
point-bound copula (see pointgamma); it is *active* when

  - its radicand is nonnegative (the root exists; the array kernel's root
    is NaN where the radicand is negative),
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

# How far a value the package computes may sit from the exact envelope before
# a check calls it a defect: the clamp into [W, M] (ThetaReport.clamped), the
# witness's value at its point, envelope_audit's reflection and sandwich
# verdicts, and oracle's LP soundness checks.  Each sees only the rounding of
# the closed-form envelope, and the largest seen were clamp moves of 5.55e-16
# (200,000 points, a third on the 1/64 grid, half at 13 distinguished t),
# reflection and sandwich errors of 5.0e-16 and 2.2e-16 (14 t at orders 37,
# 200 and 400), a witness value 1.4e-17 from its bound (600 seeded points) and
# an LP optimum, one rounding of an exact rational, 1e-15 past an envelope.
ENVELOPE_TOL = 1e-12

# Activation comparisons tolerate this much rounding noise.  Candidate
# values carry about one ulp of error, and at distinguished t (for example
# t = -1, where the envelope degenerates to the lower Frechet bound) whole
# lattice lines sit exactly on region boundaries, so exact comparisons
# would flip membership on float noise.  Admitting a candidate that misses
# a boundary by <= 1e-13 moves the envelope by at most a comparable amount,
# far below ENVELOPE_TOL.
ACTIVATION_EPS = 1e-13

# Region i (the points where candidate i binds) is non-empty exactly for
# t <= REGION_EMPTY_ABOVE[i - 1]; region_nonempty reads this table, and both
# block entries, _envelope_block and _region_block, prune by it
# (_live_candidates).  Acceptance criterion 07 pins these values.
REGION_EMPTY_ABOVE = (-3.0 / 4.0, -4.0 / 9.0, -4.0 / 13.0, -4.0 / 13.0, 1.0 / 2.0)
_ALL_CANDIDATES = (0, 1, 2, 3, 4)

# Both block entries, the envelope's and the masks', skip a candidate when t
# exceeds its emptiness threshold by more than this.  ACTIVATION_EPS lets a
# region outlive its threshold, but by about 1e-13 in t (tests/test_bounds.py
# draws points at the vanishing points to show it), so a skipped candidate
# would have been inactive everywhere: it could only have added NaN to the
# envelope's max, which passes over it, and its region mask is all False.
_PRUNE_MARGIN = 1e-9

# Points per block of the array kernel: each float64 array of a block is
# 128 KiB and stays in L2 cache, whether a temporary of the branch table or a
# buffer that _active_masks and _envelope_block write in place (a root, its
# radicand's buffer, the fold of the roots); 16k was the fastest of 4k to 64k
# on a 401^2 lattice.
_BLOCK = 16384

# mixed_partial_density's slack on _hyperbolic_excess, the set's closure: at
# hyperbolic_corner_points(t), on the boundary, the excess lies within 8.9e-16
# of 0 on 20,001 t in [-1, 1/2].
_CLOSURE_SLACK = 1e-12


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
    results follow it; a value is NaN where its radicand is negative (the
    root does not exist), and a NaN root fails every activation comparison.
    A root is (offset + sqrt) / den where offset >= 0, and the equal
    gap / (sqrt - offset) elsewhere, so that neither form cancels: near
    (1/2, 1/2) at t = -1, where every radicand nearly vanishes, the 401^2
    lattice of the envelope is within 6.1e-16 of W.
    """
    ceiling = m + ACTIVATION_EPS
    thetas, active = [], []
    for i in live:
        rad, gap, offset, den = branch_form(i + 1, x, m, t)
        # The root is taken into the radicand's buffer, an array even where
        # the points are Python floats or 0-d, as out= takes no scalar.  The
        # square root of a negative radicand is NaN, by intent.
        sq = np.asarray(rad)
        with np.errstate(invalid="ignore"):
            np.sqrt(sq, out=sq)
        th = np.asarray(offset + sq)
        th /= den
        # One divide per point: where offset >= 0, sq - offset may be 0.
        np.divide(gap, np.subtract(sq, offset, out=sq), out=th, where=offset < 0.0)
        # Freed before the masks, whose temporaries can then take their memory.
        del rad, gap, offset, sq
        thetas.append(th)
        # numpy 1.24 may warn on ordering a NaN root; the answer is False.
        with np.errstate(invalid="ignore"):
            active.append((th <= ceiling) & branch_condition(i + 1, x, m, th, ACTIVATION_EPS))
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

    One comparison against the closed-form thresholds; both block entries,
    _envelope_block and _region_block, prune by the same table, with the
    margin _PRUNE_MARGIN of _live_candidates.
    """
    _check_index(i, "region")
    return check_t(t) <= REGION_EMPTY_ABOVE[i - 1]


def _envelope_block(x, m, t):
    """The upper envelope at the points with max x and min m (x >= m), on
    arrays and a t already checked.

    The largest active candidate among those live at t (_live_candidates)
    caps m, and one maximum with W(x, m) clamps the result into [W, M].  An
    inactive candidate counts as NaN, which np.fmax and np.fmin pass over,
    so a point with no active candidate keeps m.  With no live candidate
    the result is a copy of m, as the clamp would leave it, since
    W(x, m) <= m.  One of the two block entries of _blockwise, with
    _region_block; the envelope lattices (lattice._envelope_lattices) call
    it on their quarter directly.
    """
    live = _live_candidates(t)
    if not live:
        return m.copy()
    # One buffer, NaN at first, takes each active root by np.fmax in live
    # order: the bits of reduce(np.fmax) over np.where(act, th, nan), as
    # np.fmax(nan, th) is th.  No block's roots and masks outlive the fold.
    raw = np.full_like(m, np.nan)
    for th, act in zip(*_active_masks(x, m, t, live)):
        np.fmax(raw, th, out=raw, where=act)
    del th, act
    np.fmin(m, raw, out=raw)
    # raw <= m = M(u, v) and W <= M, so this clamps raw into [W, M]; W(x, m)
    # is W(u, v) bit for bit, since x + m == u + v exactly.
    return np.maximum(raw, frechet_lower(x, m), out=raw)


def _region_block(x, m, t):
    """The masks of regions 1..5, shape (5,) + m.shape, at the points with
    max x and min m (x >= m), on arrays and a t already checked.

    Only the candidates live at t (_live_candidates) are evaluated, as in
    _envelope_block; the masks of the pruned ones are all False.  The other
    block entry of _blockwise; the region atlas (lattice._region_atlas)
    calls it on its quarter directly.
    """
    masks = np.zeros((5,) + m.shape, dtype=bool)
    live = _live_candidates(t)
    if live:
        masks[live[0]:] = _active_masks(x, m, t, live)[1]
    return masks


def _blockwise(entry, u, v, t, lead=(), dtype=float):
    """entry(x, m, t) on each _BLOCK-sized piece of the flattened points
    u, v (checked, as t is), with x = max(u, v) and m = min(u, v), gathered
    into an array of shape lead + the points' broadcast shape.

    entry is a block entry, _envelope_block or _region_block, whose results
    have the leading axes lead.  Every step of either is elementwise, so
    blocking changes no bit of its results.
    """
    u, v = np.broadcast_arrays(u, v)
    out = np.empty(lead + u.shape, dtype)
    flat_out, flat_u, flat_v = out.reshape(lead + (-1,)), u.ravel(), v.ravel()
    for start in range(0, flat_u.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        bu, bv = flat_u[block], flat_v[block]
        flat_out[..., block] = entry(np.maximum(bu, bv), np.minimum(bu, bv), t)
    return out


def region_masks(u, v, t) -> tuple:
    """Membership masks of regions 1..5 at the points (u, v); u, v may be arrays.

    Only the candidates live at t are evaluated (_region_block); the masks
    of the pruned ones are all False.
    """
    t = check_t(t)
    return tuple(_blockwise(_region_block, *_check_points(u, v), t, (5,), bool))


def upper_bound_values(u, v, t):
    """Vectorized upper envelope; u, v may be arrays (a 0-d input gives a
    numpy.float64)."""
    t = check_t(t)
    return _blockwise(_envelope_block, *_check_points(u, v), t)[()]


def lower_bound_values(u, v, t):
    """Vectorized lower envelope via the reflection identity."""
    t = check_t(t)
    # Checked before reflecting: 1 - u rounds u = -1e-20 into the square.
    u, v = _check_points(u, v)
    return v - _blockwise(_envelope_block, 1.0 - u, v, -t)[()]


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
        clamped=abs(bound - raw) > ENVELOPE_TOL,
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
    if _hyperbolic_excess(u, v, t) > _CLOSURE_SLACK:
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

    # The blend as a step from the pinned copula towards M: it stays in
    # [W, M], where alpha*M + (1 - alpha)*base can round out of it.
    def witness(uu, vv):
        low = base(uu, vv)
        return low + alpha * (frechet_upper(uu, vv) - low)

    gamma_hat, certified = _certify_gamma(witness, t)
    value = float(witness(u, v))
    if not certified or abs(value - report.bound) > ENVELOPE_TOL:
        raise InternalError(
            "witness post-condition failed at "
            f"(u={u}, v={v}, t={t}): quadrature gamma={gamma_hat}, "
            f"value={value}, envelope={report.bound}; "
            "this indicates a branch/region bug"
        )
    return witness
