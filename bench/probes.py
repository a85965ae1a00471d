"""Fixed layer probes, the same in every traced run whatever the workload.

They reproduce the per-stage figures of ROADMAP's baseline: quantile cost
per family, the nested independent integral on two Rician marginals (with
its exact quantile-point counts), Monte Carlo per 10^6 draws for each
coupling, one adaptive quadrature pass, and the lattice grid.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from depbound import costs, marginals, monge, sampler, transport

from .tracer import Tracer, TracedMarginal

__all__ = ["QUANTILE_FAMILIES", "rician_nested", "run_probes"]

QUANTILE_FAMILIES = {
    "exponential": "exp:1",
    "uniform": "uniform:0,1",
    "rayleigh": "rayleigh:1",
    "nakagami": "nakagami:1.5,1",
    "lognormal": "lognormal:0,1",
    "rician": "rician:8,1",
}


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def rician_nested():
    """Traced ``independent_expectation`` for sinr, rician(8,1) x rician(1.5,0.6).

    Returns (seconds, qy points, distinct qy points); the counts are exact
    and repeat from run to run.
    """
    tracer = Tracer()
    fx = TracedMarginal(marginals.Rician(8.0, 1.0), tracer, "x")
    fy = TracedMarginal(marginals.Rician(1.5, 0.6), tracer, "y")
    tracer.begin_query(0)
    t0 = perf_counter()
    transport.independent_expectation(costs.builtin("sinr"), fx, fy)
    seconds = perf_counter() - t0
    tracer.end_query()
    return seconds, tracer.points_by_key["y"], tracer.distinct_by_key["y"]


def _quadrature_per_panel():
    # Smooth but oscillatory, so the adaptive pass needs a few hundred panels.
    points = []

    def f(x):
        points.append(x.size)
        return np.sin(40.0 * x) ** 2 * np.exp(-0.1 * x)

    transport.adaptive_quadrature(f, 0.0, 10.0)
    panels = sum(points) / 15.0
    seconds = _median_time(lambda: transport.adaptive_quadrature(f, 0.0, 10.0), 5)
    return seconds / panels


def run_probes():
    """Every probe metric, by name."""
    out = {}
    u = np.random.default_rng(0).random(100_000) * (1.0 - 2e-6) + 1e-6
    for family, spec in QUANTILE_FAMILIES.items():
        m = marginals.parse_marginal(spec)
        repeats = 3 if family == "rician" else 7
        out[f"marginals.quantile_ns_per_point.{family}"] = _median_time(lambda: m.quantile(u), repeats) / u.size * 1e9

    seconds, qy_points, qy_distinct = rician_nested()
    out["transport.independent_rician_s"] = seconds
    out["transport.independent_rician_qy_points"] = qy_points
    out["transport.independent_rician_qy_distinct"] = qy_distinct

    cost = costs.builtin("sinr")
    fx, fy = marginals.Exponential(1.0), marginals.Exponential(2.0)
    for coupling in sampler.COUPLINGS:
        run = lambda: sampler.mc_expectation(cost, fx, fy, coupling, 1_000_000, 1729)
        out[f"sampler.mc_ms_per_mdraw.{coupling}"] = _median_time(run, 3) * 1e3

    out["transport.quadrature_us_per_panel"] = _quadrature_per_panel() * 1e6

    box = transport.working_domain(fx, fy)
    for n in (48, 64):
        out[f"monge.cxd_ms.n{n}"] = _median_time(lambda: monge.check_cross_difference(cost, box, n=n), 21) * 1e3
    return out
