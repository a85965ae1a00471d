"""Span tracing at depbound's layer boundaries, recorded from outside the library.

The library is never edited.  A traced run hands it proxy objects (a
marginal whose ``quantile`` records a span, a cost whose ``__call__``
records a span and keeps ``.name``) and, inside ``patched``, swaps the
module attributes of the transport, monge and sampler entry points (and
the names ``cli`` imported from them) for recording wrappers.  Spans stay
in memory; ``layer_metrics`` folds them into per-layer numbers.

A span's self time is its duration minus the durations of its direct
children, so summing self times over a layer never counts a nested call
twice.
"""

from __future__ import annotations

import inspect
import itertools
from contextlib import contextmanager
from time import perf_counter

import numpy as np

__all__ = ["Span", "Tracer", "TracedMarginal", "TracedCost", "patched", "layer_metrics"]


class Span:
    __slots__ = ("name", "parent", "query", "start", "end", "child_s", "points")

    def __init__(self, name, parent, query, points):
        self.name = name
        self.parent = parent
        self.query = query
        self.points = points
        self.child_s = 0.0
        self.start = perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Finished spans plus the quantile points of the query in flight.

    ``begin_query``/``end_query`` bracket one workload query; the points
    every quantile proxy saw during it are reduced to a distinct count at
    ``end_query`` (outside any span) and then dropped, so memory stays
    bounded by one query.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.query = None
        self._pending = {}
        self.points_by_key = {}
        self.distinct_by_key = {}

    @contextmanager
    def span(self, name, points=0):
        s = Span(name, self._stack[-1] if self._stack else None, self.query, points)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()
            if s.parent is not None:
                s.parent.child_s += s.duration
            self.spans.append(s)

    def record_points(self, key, u):
        self._pending.setdefault(key, []).append(np.array(u, dtype=float).ravel())

    def begin_query(self, query_id):
        self.query = query_id

    def end_query(self):
        for key, arrays in self._pending.items():
            flat = np.concatenate(arrays)
            self.points_by_key[key] = self.points_by_key.get(key, 0) + flat.size
            self.distinct_by_key[key] = self.distinct_by_key.get(key, 0) + np.unique(flat).size
        self._pending = {}
        self.query = None


class TracedMarginal:
    """Marginal proxy: ``quantile`` records a span; everything else delegates.

    ``key`` groups points for the distinct count; two proxies with one key
    pool their points, which is how the x and y sides are told apart.
    """

    def __init__(self, inner, tracer, key):
        self._inner = inner
        self._tracer = tracer
        self._key = key
        self.name = inner.name

    def quantile(self, u):
        arr = np.asarray(u, dtype=float)
        with self._tracer.span("marginals.quantile", arr.size):
            out = self._inner.quantile(u)
        self._tracer.record_points(self._key, arr)
        return out

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TracedCost:
    """Cost proxy: ``__call__`` records a span with the broadcast point count."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def __call__(self, x, y):
        points = int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(y))))
        with self._tracer.span("costs.call", points):
            return self._inner(x, y)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _grid_cells(bound):
    n = int(bound.arguments["n"])
    return (n - 1) * (n - 1)


def _wrap(tracer, name, fn, points=None):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        count = 0
        if points is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            count = points(bound)
        with tracer.span(name, count):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def patched(tracer, cli_proxies=False):
    """Swap the layer entry points for span-recording wrappers, then restore.

    Every module attribute (in transport, monge, sampler and cli) that is
    one of the wrapped functions is replaced, because ``transport`` and
    ``cli`` hold their own references to what they imported.  With
    ``cli_proxies`` the cli's spec parsers also return proxies, so an
    in-process ``cli.run`` is traced layer by layer.
    """
    from depbound import cli, monge, sampler, transport

    plan = [
        ("monge.check_cross_difference", monge.check_cross_difference, _grid_cells),
        ("monge.check_mixed_partial", monge.check_mixed_partial, _grid_cells),
        ("transport.comonotonic", transport.comonotonic_expectation, None),
        ("transport.countermonotonic", transport.countermonotonic_expectation, None),
        ("transport.independent", transport.independent_expectation, None),
        ("transport.bounds", transport.bounds, None),
        ("transport.bounds_sweep", transport.bounds_sweep, None),
        ("sampler.mc_expectation", sampler.mc_expectation, lambda b: int(b.arguments["n"])),
    ]
    modules = (transport, monge, sampler, cli)
    saved = []
    for name, fn, points in plan:
        wrapper = _wrap(tracer, name, fn, points)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
    if cli_proxies:
        parse_marginal, parse_cost, builtin = cli.parse_marginal, cli.parse_cost, cli.builtin
        counter = itertools.count()
        replacements = {
            "parse_marginal": lambda text: TracedMarginal(parse_marginal(text), tracer, f"m{next(counter)}"),
            "parse_cost": lambda text: TracedCost(parse_cost(text), tracer),
            "builtin": lambda name, **params: TracedCost(builtin(name, **params), tracer),
        }
        for attr, value in replacements.items():
            saved.append((cli, attr, getattr(cli, attr)))
            setattr(cli, attr, value)
    try:
        yield tracer
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def _sum(spans, attr):
    return float(sum(getattr(s, attr) for s in spans))


def layer_metrics(tracer):
    """Per-layer counts and times from the spans of one traced pass."""
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    quant = by_name.get("marginals.quantile", [])
    cost = by_name.get("costs.call", [])
    monge = by_name.get("monge.check_cross_difference", []) + by_name.get("monge.check_mixed_partial", [])
    mc = by_name.get("sampler.mc_expectation", [])
    coupling_points = sum(
        s.points for s in cost
        if s.parent is not None and s.parent.name in ("transport.comonotonic", "transport.countermonotonic")
    )
    independent_points = sum(
        s.points for s in cost if s.parent is not None and s.parent.name == "transport.independent"
    )
    points = sum(tracer.points_by_key.values())
    distinct = sum(tracer.distinct_by_key.values())
    draws = sum(s.points for s in mc)
    sampler_self = _sum(mc, "self_s")
    return {
        "marginals.quantile_calls": len(quant),
        "marginals.quantile_points": int(sum(s.points for s in quant)),
        "marginals.quantile_self_s": _sum(quant, "self_s"),
        "marginals.quantile_distinct_frac": distinct / points if points else 0.0,
        "costs.calls": len(cost),
        "costs.points": int(sum(s.points for s in cost)),
        "costs.self_s": _sum(cost, "self_s"),
        "monge.calls": len(monge),
        "monge.cells": int(sum(s.points for s in monge)),
        "monge.self_s": _sum(monge, "self_s"),
        "transport.comonotonic_s": _sum(by_name.get("transport.comonotonic", []), "duration"),
        "transport.countermonotonic_s": _sum(by_name.get("transport.countermonotonic", []), "duration"),
        "transport.independent_s": _sum(by_name.get("transport.independent", []), "duration"),
        "transport.bounds_self_s": _sum(by_name.get("transport.bounds", []), "self_s"),
        "transport.bounds_sweep_s": _sum(by_name.get("transport.bounds_sweep", []), "duration"),
        "transport.panels": coupling_points / 15.0,
        "transport.independent_cost_points": int(independent_points),
        "sampler.draws": int(draws),
        "sampler.self_s": sampler_self,
        "sampler.ns_per_draw": sampler_self / draws * 1e9 if draws else 0.0,
    }
