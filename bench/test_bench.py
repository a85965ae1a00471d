"""Tests of the benchmark itself: batches, the correctness gate, spans, probes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from depbound import costs, marginals, monge, transport

from bench import run
from bench.checks import CheckTally
from bench.metrics import END_TO_END, PER_LAYER
from bench.probes import rician_nested
from bench.tracer import Tracer, TracedCost, TracedMarginal, patched
from bench.workloads import WORKLOADS, make_batch

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_batch(workload):
    assert make_batch(workload, 7, 2) == make_batch(workload, 7, 2)
    assert make_batch(workload, 7, 2) != make_batch(workload, 8, 2)


class _Scaled:
    """A marginal whose quantile is off by a relative ``factor``."""

    def __init__(self, inner, factor):
        self._inner = inner
        self._factor = factor
        self.name = inner.name

    def quantile(self, u):
        return self._inner.quantile(u) * self._factor


def _gate(op, factor):
    cost = costs.parse_cost(op["cost"])
    fx = _Scaled(marginals.parse_marginal(op["fx"]), factor)
    fy = marginals.parse_marginal(op["fy"])
    report = monge.check_cross_difference(cost, transport.working_domain(fx, fy), n=64)
    result = transport.bounds(cost, fx, fy, report, include_independent=op["independent"])
    outcome = run.Outcome()
    run.check_library([op], [result], CheckTally(), outcome, {})
    return outcome


@pytest.mark.parametrize("op", [
    {"cost": "additive", "fx": "exp:1.5", "fy": "rayleigh:0.7", "independent": True},
    {"cost": "product", "fx": "uniform:0,2", "fy": "uniform:0,1.5", "independent": True},
    {"cost": "additive", "fx": "rician:4,1.2", "fy": "rayleigh:1", "independent": False},
])
def test_gate_trips_on_a_quantile_off_by_one_part_per_million(op):
    assert _gate(op, 1.0).failed == 0
    assert _gate(op, 1.0 + 1e-6).failed == 1


def test_span_self_times_add_up():
    tracer = Tracer()
    with patched(tracer):
        cost = TracedCost(costs.builtin("sinr"), tracer)
        fx = TracedMarginal(marginals.Exponential(1.0), tracer, "x")
        fy = TracedMarginal(marginals.Nakagami(1.5, 1.0), tracer, "y")
        tracer.begin_query(0)
        with tracer.span("query"):
            report = monge.check_cross_difference(cost, transport.working_domain(fx, fy), n=48)
            transport.bounds(cost, fx, fy, report, include_independent=True)
        tracer.end_query()
    assert not hasattr(transport.bounds, "__wrapped__")

    names = {s.name for s in tracer.spans}
    assert {"query", "marginals.quantile", "costs.call", "monge.check_cross_difference",
            "transport.bounds", "transport.independent"} <= names
    children = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    for s in tracer.spans:
        kids = children.get(id(s), [])
        assert s.self_s + sum(k.duration for k in kids) == pytest.approx(s.duration, abs=1e-9)
        assert all(s.start <= k.start and k.end <= s.end for k in kids)
        assert s.self_s >= 0.0
        assert s.query == 0


def test_rician_probe_counts_repeat_exactly():
    _, points, distinct = rician_nested()
    assert (points, distinct) == (912_707, 1_067)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
