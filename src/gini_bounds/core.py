"""Fundamental copula evaluators and single-point bound copulas.

Evaluators are plain functions ``f(u, v) -> value`` on the unit square.
They accept scalars or numpy arrays (broadcasting elementwise), are pure,
and are safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class UnitPoint:
    """A point (u, v) of the unit square; coordinates validated on construction."""

    u: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.u <= 1.0 and 0.0 <= self.v <= 1.0):
            raise DomainError(
                f"point ({self.u}, {self.v}) is outside the unit square"
            )

    def as_tuple(self) -> tuple[float, float]:
        return (self.u, self.v)


def check_t(t: float) -> float:
    """A Gini's gamma target as a float; DomainError outside [-1, 1] or NaN."""
    t = float(t)
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"gamma target t={t} outside [-1, 1]")
    return t


@dataclass(frozen=True)
class PointBoundSpec:
    """Prescription "the copula takes value theta at (a, b)".

    Only admissible values are accepted: theta must lie between the
    Frechet-Hoeffding bounds at (a, b).  Rejection is strict; values are
    never clamped.  The comparison allows one part in 1e12 of rounding so
    that exact boundary prescriptions (theta equal to a Frechet bound) are
    not rejected over representation noise.
    """

    a: float
    b: float
    theta: float

    _ROUNDING = 1e-12

    def __post_init__(self):
        UnitPoint(self.a, self.b)
        lo = max(0.0, self.a + self.b - 1.0)
        hi = min(self.a, self.b)
        if self.theta < lo - self._ROUNDING:
            raise DomainError(
                f"theta={self.theta} violates the lower Frechet inequality "
                f"theta >= max(0, a+b-1) = {lo} at (a, b)=({self.a}, {self.b})"
            )
        if self.theta > hi + self._ROUNDING:
            raise DomainError(
                f"theta={self.theta} violates the upper Frechet inequality "
                f"theta <= min(a, b) = {hi} at (a, b)=({self.a}, {self.b})"
            )


def frechet_lower(u, v):
    """Lower Frechet-Hoeffding bound W(u,v) = max(0, u+v-1)."""
    return np.maximum(0.0, u + v - 1.0)


def frechet_upper(u, v):
    """Upper Frechet-Hoeffding bound M(u,v) = min(u, v)."""
    return np.minimum(u, v)


def product(u, v):
    """Independence copula u*v (test fixture with Gini gamma 0)."""
    return u * v


def point_bound_lower(spec: PointBoundSpec) -> Evaluator:
    """Best-possible lower bound copula among copulas with C(a,b) = theta.

    Pointwise max(0, u+v-1, theta - (a-u)^+ - (b-v)^+); evaluates to theta
    at (a, b) and is itself a copula.
    """
    a, b, theta = spec.a, spec.b, spec.theta

    def f(u, v):
        hinge = theta - np.maximum(a - u, 0.0) - np.maximum(b - v, 0.0)
        return np.maximum(np.maximum(0.0, u + v - 1.0), hinge)

    return f


def point_bound_upper(spec: PointBoundSpec) -> Evaluator:
    """Best-possible upper bound copula among copulas with C(a,b) = theta.

    Pointwise min(u, v, theta + (u-a)^+ + (v-b)^+).
    """
    a, b, theta = spec.a, spec.b, spec.theta

    def f(u, v):
        hinge = theta + np.maximum(u - a, 0.0) + np.maximum(v - b, 0.0)
        return np.minimum(np.minimum(u, v), hinge)

    return f


def rect_volume(f: Evaluator, u1, u2, v1, v2):
    """Volume assigned by f to the rectangle [u1,u2] x [v1,v2].

    Nonnegativity of every rectangle volume is the 2-increasing property
    that separates copulas from proper quasi-copulas.
    """
    if not (0.0 <= u1 <= u2 <= 1.0 and 0.0 <= v1 <= v2 <= 1.0):
        raise DomainError(
            f"invalid rectangle [{u1},{u2}]x[{v1},{v2}]: need "
            "0 <= u1 <= u2 <= 1 and 0 <= v1 <= v2 <= 1"
        )
    return f(u2, v2) - f(u2, v1) - f(u1, v2) + f(u1, v1)


def reflect_first_coordinate(f: Evaluator) -> Evaluator:
    """Evaluator of the copula of (1-X, Y) when f is the copula of (X, Y).

    Maps f to (u, v) -> v - f(1-u, v).  Negates Gini's gamma: the two
    diagonal sections swap and reverse orientation.
    """

    def g(u, v):
        return v - f(1.0 - u, v)

    return g
