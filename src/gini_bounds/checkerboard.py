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

from .errors import DomainError

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
        if self.n < 1:
            raise DomainError(f"checkerboard order must be >= 1, got {self.n}")
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.n, self.n):
            raise DomainError(
                f"mass shape {mass.shape} does not match order n={self.n}"
            )
        if np.any(mass < -MARGIN_TOL):
            raise DomainError(f"mass has negative entries (min {mass.min()})")
        target = 1.0 / self.n
        row_err = float(np.abs(mass.sum(axis=1) - target).max())
        col_err = float(np.abs(mass.sum(axis=0) - target).max())
        if row_err > MARGIN_TOL or col_err > MARGIN_TOL:
            raise DomainError(
                f"margins are not uniform: row error {row_err:.3e}, "
                f"column error {col_err:.3e} (tolerance {MARGIN_TOL})"
            )
        object.__setattr__(self, "mass", mass)

    def cdf(self, u, v):
        """CDF at (u, v); accepts scalars or equal-shape arrays."""
        ramp_u, ramp_v = cell_ramps(self.n, u), cell_ramps(self.n, v)
        out = np.einsum("...i,ij,...j->...", ramp_u, self.mass, ramp_v)
        return float(out) if out.ndim == 0 else out

    def as_evaluator(self):
        return lambda u, v: self.cdf(u, v)

    def to_json(self, path) -> None:
        payload = {"n": self.n, "mass": [float(x) for x in self.mass.ravel()]}
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "Checkerboard":
        with open(path) as fh:
            payload = json.load(fh)
        try:
            n = int(payload["n"])
            flat = payload["mass"]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"checkerboard JSON must have fields n, mass: {exc}")
        if len(flat) != n * n:
            raise DomainError(
                f"mass array has {len(flat)} entries, expected n^2 = {n * n}"
            )
        return cls(n, np.asarray(flat, dtype=float).reshape(n, n))


def _ramp_products(n: int) -> np.ndarray:
    """D[i, j] = integral_0^1 ramp_i(z) * ramp_j(z) dz, exact per cell.

    Both ramps are 1 past cell max(i, j); on that cell the product is a
    ramp (square when i == j), contributing 1/(2n) (resp. 1/(3n)).
    """
    idx = np.arange(n, dtype=float)
    hi = np.maximum(idx[:, None], idx[None, :])
    d = 1.0 - (hi + 1.0) / n + 1.0 / (2.0 * n)
    np.fill_diagonal(d, 1.0 - (idx + 1.0) / n + 1.0 / (3.0 * n))
    return d


def gamma_coefficients(n: int) -> np.ndarray:
    """Matrix g with gamma(checkerboard) = sum_ij g[i,j]*mass[i,j] - 2.

    g[i,j] = 4 * (diag[i,j] + anti[i,j]), where diag integrates
    ramp_i(u)*ramp_j(u) and anti integrates ramp_i(u)*ramp_j(1-u); using
    ramp_j(1-u) = 1 - ramp_{n-1-j}(u), both reduce to the same exact
    per-cell integrals.
    """
    if n < 1:
        raise DomainError(f"order must be >= 1, got {n}")
    d = _ramp_products(n)
    idx = np.arange(n, dtype=float)
    ramp_mean = 1.0 - (2.0 * idx + 1.0) / (2.0 * n)  # integral of ramp_i
    anti = ramp_mean[:, None] - d[:, ::-1]
    return 4.0 * (d + anti)


def gamma_checkerboard_exact(cb: Checkerboard) -> float:
    """Gini's gamma of a checkerboard via the exact affine functional."""
    return float(np.sum(gamma_coefficients(cb.n) * cb.mass) - 2.0)
