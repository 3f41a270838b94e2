"""The one home of the fixtures that more than one test module shares."""

import numpy as np
from hypothesis import strategies as st

from gini_bounds import PointBoundSpec

# The distinguished t and the region thresholds, with their float neighbours.
SEAM_T = (
    -1.0, -1.0 + 2.0**-53, -1.0 + 2.0**-52, -0.9999, -0.9, -3.0 / 4.0,
    -3.0 / 4.0 + 1e-13, -1.0 / 2.0, -4.0 / 9.0, -4.0 / 13.0, -0.3, -0.1, 0.0,
    0.1, 1.0 / 4.0, 1.0 / 2.0, 1.0 / 2.0 + 2.0**-53, 3.0 / 4.0, 1.0,
)

# The fixed points of the benchmark's lp-certify workload.
CERTIFY_POINTS = ((0.5, 0.5, 0.0), (0.3, 0.7, -0.4), (0.6, 0.35, 0.3), (0.7, 0.4, -0.7))
# The soundness grid of acceptance criterion 09.
CRITERION_09_GRID = tuple(
    (u, v, t)
    for t in (-0.5, 0.0, 0.25)
    for u in (0.2, 0.35, 0.5, 0.65, 0.8)
    for v in (0.2, 0.35, 0.5, 0.65, 0.8)
)

UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def lattice(n):
    """The order-n uniform lattice's nodes (i/n, j/n) as two (n+1) x (n+1) arrays."""
    nodes = np.arange(n + 1, dtype=float) / n
    return np.meshgrid(nodes, nodes, indexing="ij")


def bits(values):
    """The float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64)


def pinned_spec(a, b, frac):
    """The spec pinned at (a, b) to the theta frac of the way from W(a, b) to M(a, b)."""
    lo, hi = max(0.0, a + b - 1.0), min(a, b)
    return PointBoundSpec(a, b, lo + frac * (hi - lo))


def random_specs(count, seed):
    """count specs of uniform (a, b, frac), drawn from the seeded numpy generator."""
    rng = np.random.default_rng(seed)
    return [pinned_spec(*rng.random(2), rng.random()) for _ in range(count)]
