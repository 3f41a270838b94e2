"""Checkerboard copulas: piecewise-uniform mass on an n x n grid.

A checkerboard copula is determined by a nonnegative n x n mass matrix
with all row and column sums equal to 1/n.  Its CDF is bilinear on each
cell, C(u, v) = sum_ij mass[i][j] * ramp_i(u) * ramp_j(v), where
ramp_i(z) = clip(n*z - i, 0, 1) is the fraction of cell i covered by
[0, z].  Gini's gamma is an affine functional of the mass matrix whose
coefficients integrate the per-cell ramps along both diagonals in closed
form, so gamma of a checkerboard is exact up to float rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import _check_order, _check_points, _open_utf8, _real_array
from .errors import DomainError

# The margins' slack: the row and column sums of the package's boards (152 LP
# arguments of orders 2 to 64, uniform boards of orders 1 to 400) stray from
# 1/n by at most 5.6e-17; the rest is headroom for masses written by hand.
MARGIN_TOL = 1e-12


def cell_ramps(n: int, z):
    """ramp_i(z) = clip(n*z - i, 0, 1) for i < n, on a new trailing axis."""
    z = np.asarray(z, dtype=float)
    return np.clip(n * z[..., None] - np.arange(n, dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class Checkerboard:
    """Order n and mass matrix with uniform 1/n margins (validated)."""

    n: int
    mass: np.ndarray

    def __post_init__(self):
        # A builtin int, so that to_json can write a numpy-integer order.
        object.__setattr__(self, "n", _check_order(self.n, "checkerboard order"))
        mass = _real_array(self.mass, "mass")
        if mass.shape != (self.n, self.n):
            raise DomainError(
                f"mass shape {mass.shape} does not match order n={self.n}"
            )
        # The checks are negated so that a NaN mass fails them.
        if not np.all(mass >= -MARGIN_TOL):
            raise DomainError(f"mass has negative or NaN entries (min {mass.min()})")
        target = 1.0 / self.n
        row_err = float(np.abs(mass.sum(axis=1) - target).max())
        col_err = float(np.abs(mass.sum(axis=0) - target).max())
        if not (row_err <= MARGIN_TOL and col_err <= MARGIN_TOL):
            raise DomainError(
                f"margins are not uniform: row error {row_err:.3e}, "
                f"column error {col_err:.3e} (tolerance {MARGIN_TOL})"
            )
        object.__setattr__(self, "mass", mass)

    def cdf(self, u, v):
        """CDF at (u, v); accepts scalars or arrays that broadcast together."""
        u, v = _check_points(u, v)
        ramp_u, ramp_v = cell_ramps(self.n, u), cell_ramps(self.n, v)
        out = np.einsum("...i,ij,...j->...", ramp_u, self.mass, ramp_v)
        return float(out) if out.ndim == 0 else out

    def to_json(self, path) -> None:
        payload = {"n": self.n, "mass": [float(x) for x in self.mass.ravel()]}
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "Checkerboard":
        """Read a board written by to_json; malformed input is a DomainError.

        That is a file that is not UTF-8 (core._open_utf8), malformed JSON, a
        mass that is not a list (a string such as "1" included), a mass entry
        that is not a JSON number (true, "1.0", null), an n that is not an
        integer (2.7, true), and any board the constructor rejects.
        """
        # Decoded outside the try: its DomainError is a ValueError too.
        fh = _open_utf8(path, "malformed checkerboard JSON: ")
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"malformed checkerboard JSON: {exc}") from None
        try:
            n, mass = payload["n"], payload["mass"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"checkerboard JSON must have fields n, mass: {exc}") from None
        if not isinstance(mass, list):
            raise DomainError(
                f"checkerboard JSON must have fields n, mass with mass an array, "
                f"got {type(mass).__name__}"
            )
        for x in mass:
            # JSON numbers only: float() would read true as 1.0 and "1.0" as 1.0.
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise DomainError(f"checkerboard JSON mass entry {x!r} is not a number")
        n = _check_order(n, "checkerboard order")
        if len(mass) != n * n:
            raise DomainError(
                f"mass array has {len(mass)} entries, expected n^2 = {n * n}"
            )
        return cls(n, np.reshape(mass, (n, n)))


def gamma_numerators(n: int, i, j):
    """K = 3n/2 * g[i, j] at index arrays i and j: integers (g = gamma_coefficients(n)).

    g[i, j] = 4 * (diag[i, j] + anti[i, j]), where diag integrates
    ramp_i(z) * ramp_j(z) and anti integrates ramp_i(z) * ramp_j(1 - z).  Both
    ramps are 1 past cell max(i, j); on that cell the product is a ramp
    (square when i == j), contributing 1/(2n) (resp. 1/(3n)), so
    6n * diag[i, j] = 6n - 6 max(i, j) - 3 - [i = j].  Using
    ramp_j(1 - z) = 1 - ramp_{n-1-j}(z), anti[i, j] = mean_i - diag[i, n-1-j],
    where 6n * mean_i = 6n - 6i - 3 integrates ramp_i.  A permutation board's
    gamma is therefore 2 G / (3n^2) - 2, with the integer G = sum_i K[i, pi(i)].
    """
    i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
    mirror = n - 1 - j
    return (
        6 * n - 6 * i - 3 + 6 * (np.maximum(i, mirror) - np.maximum(i, j))
        + (i == mirror) - (i == j)
    )


def gamma_coefficients(n: int) -> np.ndarray:
    """Matrix g with gamma(checkerboard) = sum_ij g[i,j]*mass[i,j] - 2.

    g[i, j] = 2K / (3n) with the integers K of gamma_numerators, rounded once.
    """
    n = _check_order(n, "order")
    idx = np.arange(n)
    return 2 * gamma_numerators(n, idx[:, None], idx) / (3 * n)


def gamma_checkerboard_exact(cb: Checkerboard) -> float:
    """Gini's gamma of a checkerboard via the exact affine functional."""
    return float(np.sum(gamma_coefficients(cb.n) * cb.mass) - 2.0)
