"""Best-possible pointwise bounds on copulas with a given Gini's gamma.

Closed-form upper/lower envelopes with candidate/region bookkeeping,
point-bound copulas and their exact gamma, lattice axiom checking, the
sample rank statistic, and an exact LP oracle over checkerboard copulas.
"""

from .bounds import (
    BoundClassification,
    ThetaReport,
    classify_lower,
    classify_upper,
    hyperbolic_corner_points,
    hyperbolic_set_contains,
    lens_density_floor,
    lower_bound,
    lower_bound_values,
    mixed_partial_density,
    region_contains,
    region_masks,
    region_nonempty,
    theta_candidate,
    upper_bound,
    upper_bound_values,
    witness_copula,
)
from .checkerboard import Checkerboard, gamma_checkerboard_exact, gamma_coefficients
from .core import (
    PointBoundSpec,
    UnitPoint,
    check_t,
    frechet_lower,
    frechet_upper,
    point_bound_lower,
    point_bound_upper,
    product,
    rect_volume,
    reflect_first_coordinate,
)
from .errors import DomainError, InternalError
from .lattice import LatticeFunction, PropertyReport, check_properties
from .oracle import LpOutcome, gamma_feasible_range, lp_extreme
from .pointgamma import (
    GammaBranchValue,
    i1_closed,
    i2_closed,
    lower_point_bound_gamma,
)
from .quadrature import gamma_quadrature
from .ranks import RankSample, gamma_rank_statistic

__version__ = "0.1.0"

__all__ = [
    "BoundClassification",
    "Checkerboard",
    "DomainError",
    "GammaBranchValue",
    "InternalError",
    "LatticeFunction",
    "LpOutcome",
    "PointBoundSpec",
    "PropertyReport",
    "RankSample",
    "ThetaReport",
    "UnitPoint",
    "check_properties",
    "check_t",
    "classify_lower",
    "classify_upper",
    "frechet_lower",
    "frechet_upper",
    "gamma_checkerboard_exact",
    "gamma_coefficients",
    "gamma_feasible_range",
    "gamma_quadrature",
    "gamma_rank_statistic",
    "hyperbolic_corner_points",
    "hyperbolic_set_contains",
    "lens_density_floor",
    "i1_closed",
    "i2_closed",
    "lower_bound",
    "lower_bound_values",
    "lower_point_bound_gamma",
    "lp_extreme",
    "mixed_partial_density",
    "point_bound_lower",
    "point_bound_upper",
    "product",
    "rect_volume",
    "reflect_first_coordinate",
    "region_contains",
    "region_masks",
    "region_nonempty",
    "theta_candidate",
    "upper_bound",
    "upper_bound_values",
    "witness_copula",
]
