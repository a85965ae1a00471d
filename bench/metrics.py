"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests hold the two in step.
"""

from __future__ import annotations

import statistics

from .clisession import SCRIPT
from .probes import QUANTILE_FAMILIES

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "with_units"]

# name -> (unit, better).  An "operation" is one bounds query, one
# mc_expectation call or one CLI command, according to the workload.
END_TO_END = {
    "queries_per_s": ("1/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

PER_LAYER = {
    "marginals.quantile_calls": ("count", "lower"),
    "marginals.quantile_points": ("count", "lower"),
    "marginals.quantile_self_s": ("s", "lower"),
    "marginals.quantile_distinct_frac": ("ratio", "higher"),
    **{f"marginals.quantile_ns_per_point.{f}": ("ns", "lower") for f in QUANTILE_FAMILIES},
    "costs.calls": ("count", "lower"),
    "costs.points": ("count", "lower"),
    "costs.self_s": ("s", "lower"),
    "monge.calls": ("count", "lower"),
    "monge.cells": ("count", "lower"),
    "monge.self_s": ("s", "lower"),
    "monge.cxd_ms.n48": ("ms", "lower"),
    "monge.cxd_ms.n64": ("ms", "lower"),
    "transport.comonotonic_s": ("s", "lower"),
    "transport.countermonotonic_s": ("s", "lower"),
    "transport.independent_s": ("s", "lower"),
    "transport.bounds_self_s": ("s", "lower"),
    "transport.bounds_sweep_s": ("s", "lower"),
    "transport.panels": ("count", "lower"),
    "transport.independent_cost_points": ("count", "lower"),
    "transport.independent_rician_s": ("s", "lower"),
    "transport.independent_rician_qy_points": ("count", "lower"),
    "transport.independent_rician_qy_distinct": ("count", "lower"),
    "transport.quadrature_us_per_panel": ("us", "lower"),
    "sampler.draws": ("count", "higher"),
    "sampler.self_s": ("s", "lower"),
    "sampler.ns_per_draw": ("ns", "lower"),
    **{f"sampler.mc_ms_per_mdraw.{c}": ("ms", "lower")
       for c in ("comonotonic", "countermonotonic", "independent")},
    **{f"cli.process_s.{c['name']}": ("s", "lower") for c in SCRIPT},
    **{f"cli.run_s.{c['name']}": ("s", "lower") for c in SCRIPT},
    "cli.cold_start_s": ("s", "lower"),
    "cli.stdout_diff_cmds": ("count", "lower"),
    "check.max_rel_dev": ("ratio", "lower"),
    "check.err_bar_misses": ("count", "lower"),
    "check.mc_max_z": ("z", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def end_to_end(times, wall, peak_rss_mb, setup_s):
    """The end-to-end metrics from per-operation times and the loop's wall time."""
    return {
        "queries_per_s": len(times) / wall,
        "query_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def with_units(values, table):
    """``{name: {"value": v, "unit": u}}`` for exactly the names in ``table``."""
    missing = set(table) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()}
