"""Sharp bounds on E[c(X, Y)] when only the marginals of (X, Y) are known.

For costs satisfying a lattice (sub/supermodular) condition the extreme
expectations over all joint laws with fixed marginals are attained by
the two monotone quantile couplings; this package computes them by
adaptive quadrature, validates them by seeded Monte Carlo, and covers
the worked communication scenarios (fading envelopes, multiple-access
rates, collision channels) that motivate treating dependence as the
free parameter.
"""

from .collision import CollisionResult, CollisionSpec, analyze
from .costs import CostFunction, builtin, parse_cost
from .marginals import (
    Exponential,
    LogNormal,
    Marginal,
    Nakagami,
    Rayleigh,
    Rician,
    Uniform,
    parse_marginal,
)
from .monge import MongeReport, check_cross_difference, check_mixed_partial
from .sampler import McEstimate, empirical_correlation, mc_expectation
from .transport import (
    BoundsResult,
    ClassificationError,
    Expectation,
    QuadratureConfig,
    QuadratureError,
    bounds,
    bounds_sweep,
    classified_bounds,
    comonotonic_expectation,
    countermonotonic_expectation,
    independent_expectation,
    working_domain,
)
from .tworay import TwoRayGeometry, envelope, envelope_correlation, envelope_trace, path_lengths

__version__ = "0.1.0"

__all__ = [
    "Marginal", "Exponential", "Uniform", "Rayleigh", "Nakagami", "LogNormal", "Rician",
    "parse_marginal",
    "CostFunction", "builtin", "parse_cost",
    "MongeReport", "check_cross_difference", "check_mixed_partial",
    "QuadratureConfig", "QuadratureError", "ClassificationError", "Expectation", "BoundsResult",
    "comonotonic_expectation", "countermonotonic_expectation", "independent_expectation",
    "bounds", "bounds_sweep", "classified_bounds", "working_domain",
    "McEstimate", "mc_expectation", "empirical_correlation",
    "CollisionSpec", "CollisionResult", "analyze",
    "TwoRayGeometry", "path_lengths", "envelope", "envelope_trace", "envelope_correlation",
    "__version__",
]
