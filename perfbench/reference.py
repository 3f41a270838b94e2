"""Reference computations made apart from the program under test.

Nothing here imports gini_bounds.  The workloads compare the program's
outputs against these values:

- the upper envelope by bisection on theta, with Gini's gamma of the pinned
  lower point-bound copula integrated by Simpson's rule on the exact kinks
  of its (piecewise-linear) diagonal sections; the lower envelope by the
  reflection identity;
- the sample rank statistic in vectorised integer numpy;
- the density floor D*(t) of the upper envelope's negative lens;
- the classification of both envelopes by t;
- a numpy reader for the lattice and region-atlas CSV files.
"""

from __future__ import annotations

import numpy as np

# Bisection halves [W, M] this many times; 2^-64 of a unit interval is below
# one ulp of any theta, so the iteration has converged well before it ends.
_BISECTION_STEPS = 64


def _path_integral(a, b, theta, anti):
    """Integral over s in [0, 1] of C(s, s) or C(s, 1 - s), C the pinned copula.

    C(u, v) = max(0, u + v - 1, theta - (a - u)^+ - (b - v)^+) is piecewise
    linear along either diagonal.  Inside each interval between the hinge
    points u = a and v = b its three arguments are linear, so the maximum can
    only bend where two of them cross.  Adding those crossings as panel edges
    makes every panel linear, where Simpson's rule is exact.
    """
    p = a.shape[0]
    s_b = 1.0 - b if anti else b

    def path(s):
        u = s
        v = 1.0 - s if anti else s
        bb = b[:, None]
        aa = a[:, None]
        th = theta[:, None]
        hinge = th - np.maximum(aa - u, 0.0) - np.maximum(bb - v, 0.0)
        return np.zeros_like(s), u + v - 1.0, hinge

    base = np.sort(
        np.stack([np.zeros(p), np.ones(p), np.clip(a, 0, 1), np.clip(s_b, 0, 1)], axis=1),
        axis=1,
    )
    left, right = base[:, :-1], base[:, 1:]
    fl, fr = path(left), path(right)
    edges = [base]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        dl, dr = fl[i] - fl[j], fr[i] - fr[j]
        crosses = dl * dr < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            at = left + (right - left) * dl / (dl - dr)
        edges.append(np.where(crosses, at, left))
    knots = np.sort(np.concatenate(edges, axis=1), axis=1)
    lo, hi = knots[:, :-1], knots[:, 1:]
    mid = 0.5 * (lo + hi)
    f = [np.max(np.stack(path(x)), axis=0) for x in (lo, mid, hi)]
    return np.sum((hi - lo) * (f[0] + 4.0 * f[1] + f[2]), axis=1) / 6.0


def pinned_gamma(a, b, theta):
    """Gini's gamma of max(0, u+v-1, theta - (a-u)^+ - (b-v)^+), elementwise."""
    a, b, theta = (np.asarray(x, dtype=float).ravel() for x in np.broadcast_arrays(a, b, theta))
    diag = _path_integral(a, b, theta, anti=False)
    anti = _path_integral(a, b, theta, anti=True)
    return 4.0 * (diag + anti) - 2.0


def upper_envelope(u, v, t):
    """Largest theta in [W(u,v), M(u,v)] whose pinned copula has gamma <= t.

    Pinning a copula at (u, v) with value theta, the pointwise smallest such
    copula has the smallest gamma, and gamma grows with theta; so theta is
    attainable under gamma = t exactly when that smallest gamma is <= t.
    """
    u, v, t = (np.asarray(x, dtype=float).ravel() for x in np.broadcast_arrays(u, v, t))
    lo = np.maximum(0.0, u + v - 1.0)
    hi = np.minimum(u, v)
    free = pinned_gamma(u, v, hi) <= t
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        ok = pinned_gamma(u, v, mid) <= t
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    return np.where(free, np.minimum(u, v), lo)


def lower_envelope(u, v, t):
    """Lower envelope by reflection: v - upper(1 - u, v, -t)."""
    u, v, t = (np.asarray(x, dtype=float).ravel() for x in np.broadcast_arrays(u, v, t))
    return v - upper_envelope(1.0 - u, v, -t)


def binding_branch(u, v, t):
    """Which diagonal case the pinned copula is in at the envelope (0: none).

    0 means no candidate binds (the envelope is min(u, v)); 1..5 name the
    case of the diagonal integral at theta* in the paper's order, which is
    the region R1..R5 the point belongs to.  Used to stratify inputs.
    """
    u, v, t = (np.asarray(x, dtype=float).ravel() for x in np.broadcast_arrays(u, v, t))
    x, m = np.maximum(u, v), np.minimum(u, v)
    th = upper_envelope(u, v, t)
    half = (1.0 + th) / 2.0
    conds = [
        x >= 0.5 + th,
        x >= np.maximum(m + th, half),
        (m + th <= x) & (x <= half),
        (half <= x) & (x <= m + th),
    ]
    branch = np.select(conds, [1, 2, 3, 4], default=5)
    return np.where(pinned_gamma(u, v, m) <= t, 0, branch)


def rank_statistic(pairs) -> float:
    """Gini's rank association coefficient of (r, s) pairs, in integer numpy."""
    arr = np.asarray(pairs, dtype=np.int64)
    n = arr.shape[0]
    r, s = arr[:, 0], arr[:, 1]
    total = int(np.sum(np.abs(n + 1 - r - s) - np.abs(r - s)))
    return total / (n * n // 2)


def lens_density_floor(t: float) -> float:
    """Minimum density D*(t) of the upper envelope's lens, for -1 < t < 0.

    t/3 at the corner points for -2/3 <= t < 0; -2 / (9 sqrt(3(1+t))) inside
    the lens for -1 < t < -2/3.  No lattice cell of order N has volume below
    D*/N^2, and the most negative cell approaches it as N grows.
    """
    if not -1.0 < t < 0.0:
        raise ValueError(f"the lens has negative density only for -1 < t < 0, got {t}")
    if t <= -2.0 / 3.0:
        return -2.0 / (9.0 * np.sqrt(3.0 * (1.0 + t)))
    return t / 3.0


def classify(t: float) -> tuple[str, str]:
    """(upper, lower) classification names at t, as the paper states them.

    Upper: W at t = -1, a proper quasi-copula for -1 < t < 0, a copula that
    is neither Frechet bound for 0 <= t < 1/2, and M from t = 1/2.  The lower
    envelope mirrors it through t -> -t.
    """

    def upper(x):
        if x == -1.0:
            return "FrechetLower"
        if x < 0.0:
            return "ProperQuasiCopula"
        if x < 0.5:
            return "ProperCopulaStrict"
        return "FrechetUpper"

    mirror = {
        "FrechetLower": "FrechetUpper",
        "FrechetUpper": "FrechetLower",
        "ProperQuasiCopula": "ProperQuasiCopula",
        "ProperCopulaStrict": "ProperCopulaStrict",
    }
    return upper(t), mirror[upper(-t)]


def read_csv(path, header: list[str]) -> np.ndarray:
    """Rows of a numeric CSV with the given header, as a float array."""
    with open(path) as fh:
        got = fh.readline().rstrip("\n").split(",")
        if got != header:
            raise ValueError(f"{path}: header {got}, expected {header}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)
