"""Composite-Simpson quadrature for Gini's gamma.

gamma(C) = 4 * integral_0^1 [C(u,u) + C(u,1-u)] du - 2.

The integrand of any copula is 2-Lipschitz, and the piecewise-linear
copulas used throughout this package have a handful of kinks, so the
composite rule converges at least quadratically away from kinks and the
kink panels contribute O(1/m^2) in total.  Both certification call sites,
the witness post-condition and the gamma subcommand, call _certify_gamma,
the one statement of the rule: _CERTIFY_PANELS panels, and a gamma within
_CERTIFY_TOL of the exact one.  Convergence is observable by doubling m.
"""

from __future__ import annotations

import numpy as np

from .core import Evaluator, _check_order
from .errors import DomainError

_CERTIFY_PANELS = 4000
_CERTIFY_TOL = 1e-6


def gamma_quadrature(f: Evaluator, panels: int) -> float:
    """Gini's gamma of the evaluator f by composite Simpson with ``panels`` panels.

    ``panels`` must be even and at least 2.  f must accept numpy arrays.
    The result is a builtin float, also for a numpy-integer panel count.
    """
    panels = _check_order(panels, "panels", least=2)
    if panels % 2 != 0:
        raise DomainError(f"panels must be even, got {panels}")
    u = np.arange(panels + 1, dtype=float) / panels
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    g = np.asarray(f(u, u), dtype=float) + np.asarray(f(u, 1.0 - u), dtype=float)
    # np.dot gives a numpy float.
    integral = float(np.dot(weights, g) / (3.0 * panels))
    return 4.0 * integral - 2.0


def _certify_gamma(f: Evaluator, expected: float) -> tuple[float, bool]:
    """Gini's gamma of f by Simpson on _CERTIFY_PANELS panels, and the verdict.

    The verdict is that the gamma lies within _CERTIFY_TOL of expected; a
    NaN fails.
    """
    quadrature = gamma_quadrature(f, _CERTIFY_PANELS)
    return quadrature, abs(quadrature - expected) <= _CERTIFY_TOL
