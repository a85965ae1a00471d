"""Sharp bounds on E[c(X, Y)] when only the marginals of (X, Y) are known.

For costs satisfying a lattice (sub/supermodular) condition the extreme
expectations over all joint laws with fixed marginals are attained by
the two monotone quantile couplings; this package computes them by
adaptive quadrature, validates them by seeded Monte Carlo, and covers
the worked communication scenarios (fading envelopes, multiple-access
rates, and collision channels as bounds on two Bernoulli marginals) that
motivate treating dependence as the free parameter.

``import depbound`` loads no submodule and no numpy: a public name or a
submodule imports its module when first read (PEP 562), so a command
pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the submodule that defines it.
_HOME = {name: module for module, names in (
    ("marginals", "Marginal Exponential Uniform Rayleigh Nakagami LogNormal Rician Bernoulli parse_marginal"),
    ("costs", "CostFunction builtin parse_cost"),
    ("monge", "MongeReport check_cross_difference check_mixed_partial"),
    ("transport", "QuadratureError ClassificationError Expectation BoundsResult comonotonic_expectation "
                  "countermonotonic_expectation independent_expectation bounds bounds_sweep classified_bounds "
                  "working_domain"),
    ("sampler", "McEstimate mc_expectation"),
    ("tworay", "TwoRayGeometry path_lengths envelope envelope_trace envelope_correlation empirical_correlation"),
) for name in names.split()}
_SUBMODULES = ("cli", "costs", "errors", "marginals", "monge", "sampler", "transport", "tworay")

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
