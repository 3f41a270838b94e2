"""Fundamental copula evaluators and single-point bound copulas.

Evaluators are plain functions ``f(u, v) -> value`` on the unit square.
They accept scalars or numpy arrays (broadcasting elementwise), are pure,
and are safe for concurrent use.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class UnitPoint:
    """A point (u, v) of the unit square; coordinates validated on construction
    and stored as the builtin floats _check_point returns."""

    u: float
    v: float

    def __post_init__(self):
        u, v = _check_point(self.u, self.v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


def _check_real(x, name: str) -> numbers.Real:
    """x as the Python number it is; DomainError naming x unless it is a
    real number.  The one rule for a scalar number.

    Python and numpy ints and floats (and Fraction) and 0-d arrays of them
    are real; a bool (Python or numpy), a string, None, a sequence and a
    complex number are not, though a comparison would read True as 1.

    A numpy number ends here, as the Python number its .item() gives (a
    longdouble, whose .item() is itself, as its nearest float).  Every
    scalar range check compares the number returned: exactly, in Python
    arithmetic, where numpy compares a float32 with a Python float in
    float32; and before any float(), which overflows on a huge int.
    """
    # A builtin float, the common case, takes one test.
    if type(x) is float:
        return x
    if isinstance(x, (np.generic, np.ndarray)) and x.ndim == 0:
        x = float(x) if x.dtype == np.longdouble else x.item()
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name}={x!r} is not a real number")
    return x


def _check_point(u, v) -> tuple[float, float]:
    """(float(u), float(v)); DomainError unless u and v are real numbers
    (_check_real) and (u, v) lies in the unit square, where a NaN coordinate
    fails the chained comparison.

    The one scalar point check.  The scalar entry points call it without
    building a UnitPoint and compute on the builtin floats it returns, so
    that a numpy float32 input computes in double as the array path does;
    UnitPoint and PointBoundSpec store them.
    """
    u, v = _check_real(u, "point coordinate u"), _check_real(v, "point coordinate v")
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"point ({u}, {v}) is outside the unit square")
    return float(u), float(v)


def _real_array(x, name: str) -> np.ndarray:
    """x as a float array; DomainError naming x unless its dtype is int or float.

    The dtype is checked before the cast, which would read bools as 0 and 1
    and "0.3" as 0.3.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise DomainError(f"{name} is not real: dtype {x.dtype}")
    return x.astype(float, copy=False)


def _check_points(u, v) -> tuple[np.ndarray, np.ndarray]:
    """The points (u, v) as float arrays; DomainError outside the unit square.

    Shapes that do not broadcast together are a DomainError too.  One
    vectorized check (NaN fails every comparison) for the array entry
    points; the scalar ones keep _check_point's cheaper chained comparison.
    """
    u, v = _real_array(u, "point coordinate u"), _real_array(v, "point coordinate v")
    try:
        np.broadcast_shapes(u.shape, v.shape)
    except ValueError:
        raise DomainError(f"point shapes {u.shape} and {v.shape} do not broadcast") from None
    if not np.all((0.0 <= u) & (u <= 1.0) & (0.0 <= v) & (v <= 1.0)):
        raise DomainError("a point (u, v) lies outside the unit square or is NaN")
    return u, v


def check_t(t: float) -> float:
    """A Gini's gamma target as a float; DomainError outside [-1, 1] or NaN.

    A t that is not a real number (_check_real) is a DomainError too, as
    float() would read True as 1 and "0.3" as 0.3.
    """
    t = _check_real(t, "gamma target t")
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"gamma target t={t} outside [-1, 1]")
    return float(t)


def _check_order(n: int, kind: str, least: int = 1) -> int:
    """int(n); DomainError unless the order n is an integer (Python or numpy,
    not bool) >= least.

    The one order check: 2.0, 2.5 and True are DomainErrors.  The builtin
    int leaves only builtin numbers in what is computed from it.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{kind} must be an integer, got {n}")
    if n < least:
        raise DomainError(f"{kind} must be >= {least}, got {n}")
    return int(n)


def _open_utf8(path, prefix: str) -> io.TextIOWrapper:
    """The file at path as a text stream, read whole and decoded as UTF-8.

    The one decode rule for the files the package reads as text: the rank
    CSV, a lattice CSV that the fixed-width byte reader leaves (one out of
    to_csv's fixed-width layout, or whose node fields are not the writer's
    own texts), and the checkerboard JSON.  Bytes that are not all ASCII
    are decoded once whole, only to validate them, before any of them is
    parsed, so a bad byte is reported before a wrong header: bytes that are
    not UTF-8 are a DomainError of prefix plus Python's message, whose
    position is then the offset in the file.  ASCII bytes are UTF-8 as they are, so they skip
    that decode and its copy of the file.  The stream decodes the bytes as
    it is read, so that the file is held as bytes, not as an io.StringIO,
    which CPython holds at 4 bytes a character once it is read by lines.
    Line ends are kept as they are, as open(path, newline="") keeps them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.isascii() or data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{prefix}{exc}") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


@dataclass(frozen=True)
class PointBoundSpec:
    """Prescription "the copula takes value theta at (a, b)".

    Only admissible values are accepted: theta must lie between the
    Frechet-Hoeffding bounds at (a, b).  Rejection is strict; values are
    never clamped.  The comparison allows _ROUNDING of slack so that exact
    boundary prescriptions (theta equal to a Frechet bound) are not rejected
    over representation noise.
    """

    a: float
    b: float
    theta: float

    # For decimal prescriptions on a bound: PointBoundSpec(0.9, 0.2, 0.1) has
    # theta below W, which is 0.10000000000000009 in floats and, exactly for
    # these doubles, 0.10000000000000003, so an exact check would reject it too.
    _ROUNDING = 1e-12

    def __post_init__(self):
        a, b = _check_point(self.a, self.b)
        theta = _check_real(self.theta, "theta")
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        # Negated so that a NaN theta fails them.
        if not theta >= lo - self._ROUNDING:
            raise DomainError(
                f"theta={theta} violates the lower Frechet inequality "
                f"theta >= max(0, a+b-1) = {lo} at (a, b)=({a}, {b})"
            )
        if not theta <= hi + self._ROUNDING:
            raise DomainError(
                f"theta={theta} violates the upper Frechet inequality "
                f"theta <= min(a, b) = {hi} at (a, b)=({a}, {b})"
            )
        # Builtin floats, so that the evaluators and gamma of a spec given
        # numpy float32 inputs compute in double precision like any other.
        for name, x in (("a", a), ("b", b), ("theta", float(theta))):
            object.__setattr__(self, name, x)


def frechet_lower(u, v):
    """Lower Frechet-Hoeffding bound W(u,v) = max(0, u+v-1).

    Clamped by M = min(u, v): with u = 1, u+v-1 can round one ulp above v.
    """
    return np.minimum(np.maximum(0.0, u + v - 1.0), np.minimum(u, v))


def frechet_upper(u, v):
    """Upper Frechet-Hoeffding bound M(u,v) = min(u, v)."""
    return np.minimum(u, v)


def product(u, v):
    """Independence copula u*v (test fixture with Gini gamma 0)."""
    return u * v


def point_bound_lower(spec: PointBoundSpec) -> Evaluator:
    """Best-possible lower bound copula among copulas with C(a,b) = theta.

    Pointwise max(W(u,v), theta - (a-u)^+ - (b-v)^+); evaluates to theta
    at (a, b) and is itself a copula.  W is read from frechet_lower, which
    keeps it at or below M on the edges u = 1 and v = 1.
    """
    a, b, theta = spec.a, spec.b, spec.theta

    def f(u, v):
        hinge = theta - np.maximum(a - u, 0.0) - np.maximum(b - v, 0.0)
        return np.maximum(frechet_lower(u, v), hinge)

    return f


def point_bound_upper(spec: PointBoundSpec) -> Evaluator:
    """Best-possible upper bound copula among copulas with C(a,b) = theta.

    Pointwise min(M(u,v), theta + (u-a)^+ + (v-b)^+), M read from
    frechet_upper.
    """
    a, b, theta = spec.a, spec.b, spec.theta

    def f(u, v):
        hinge = theta + np.maximum(u - a, 0.0) + np.maximum(v - b, 0.0)
        return np.minimum(frechet_upper(u, v), hinge)

    return f


def rect_volume(f: Evaluator, u1, u2, v1, v2):
    """Volume assigned by f to the rectangle [u1,u2] x [v1,v2].

    Nonnegativity of every rectangle volume is the 2-increasing property
    that separates copulas from proper quasi-copulas.  The corners must be
    real numbers (_check_real), and f is evaluated at their builtin floats.
    """
    u1, u2, v1, v2 = (_check_real(x, f"rectangle corner {name}")
                      for name, x in (("u1", u1), ("u2", u2), ("v1", v1), ("v2", v2)))
    if not (0.0 <= u1 <= u2 <= 1.0 and 0.0 <= v1 <= v2 <= 1.0):
        raise DomainError(
            f"invalid rectangle [{u1},{u2}]x[{v1},{v2}]: need "
            "0 <= u1 <= u2 <= 1 and 0 <= v1 <= v2 <= 1"
        )
    u1, u2, v1, v2 = map(float, (u1, u2, v1, v2))
    return f(u2, v2) - f(u2, v1) - f(u1, v2) + f(u1, v1)


def reflect_first_coordinate(f: Evaluator) -> Evaluator:
    """Evaluator of the copula of (1-X, Y) when f is the copula of (X, Y).

    Maps f to (u, v) -> v - f(1-u, v).  Negates Gini's gamma: the two
    diagonal sections swap and reverse orientation.
    """

    def g(u, v):
        return v - f(1.0 - u, v)

    return g
