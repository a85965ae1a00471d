"""Sharp dependence bounds on E[c(X, Y)] with fixed marginals.

For a submodular cost the extremes over all joints with the given
marginals are attained by the two monotone couplings: the comonotonic
expectation integral(c(qx(u), qy(u)) du) is the minimum and the
countermonotonic integral(c(qx(u), qy(1-u)) du) the maximum; for a
supermodular cost the roles swap (apply the submodular result to -c).
Everything here reduces to 1-D quadrature of quantile couplings on
(0, 1), plus a nested pass for the independent baseline.

The quadrature engine is an adaptive Gauss-Kronrod 7/15 pair on a
worklist of panels: the 15-point value is kept, the |K15 - G7| gap is
the panel's error estimate, and panels whose gap exceeds the running
tolerance are bisected.  Endpoints are truncated to [eps, 1 - eps] and
the discarded tails are reported as an explicit truncation bound
eps * (|f(eps)| + |f(1 - eps)|) instead of being silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .monge import ClassificationError, MongeReport, check_cross_difference

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "ClassificationError",
    "Expectation",
    "BoundsResult",
    "SweepRow",
    "adaptive_quadrature",
    "unit_quadrature",
    "comonotonic_expectation",
    "countermonotonic_expectation",
    "independent_expectation",
    "bounds",
    "bounds_sweep",
    "classified_bounds",
    "working_domain",
]


class QuadratureError(Exception):
    """Quadrature failed: non-convergence or a non-finite integrand."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    truncation_eps: float = 1e-9
    max_subdivisions: int = 100_000

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("quadrature tolerances must be positive")
        if not 0.0 < self.truncation_eps < 1e-3:
            raise ValueError(f"truncation eps must be in (0, 1e-3), got {self.truncation_eps!r}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class Expectation:
    """An integral value with its error estimate.

    ``error`` already includes ``truncation``, the bound on what the
    [eps, 1-eps] cutoff can have discarded.
    """

    value: float
    error: float
    truncation: float = 0.0


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper: float
    independent: float | None
    lower_err: float
    upper_err: float
    truncation_bound: float
    classification_used: str


@dataclass(frozen=True)
class SweepRow:
    param: float
    result: BoundsResult


# Gauss-Kronrod 7/15 on [-1, 1].  Kronrod nodes/weights; the embedded
# 7-point Gauss rule lives on the odd-index nodes.
_GK_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_WEIGHTS_15 = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GK_WEIGHTS_7 = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _panel_estimates(f, lo, hi):
    """K15 values and |K15 - G7| gaps for a batch of panels."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    points = mid[:, None] + half[:, None] * _GK_NODES
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.asarray(f(points.ravel()), dtype=float).reshape(points.shape)
    if not np.all(np.isfinite(values)):
        bad = points.ravel()[np.flatnonzero(~np.isfinite(values.ravel()))[0]]
        raise QuadratureError(f"integrand returned a non-finite value at u={float(bad)!r}")
    k15 = half * (values @ _GK_WEIGHTS_15)
    g7 = half * (values[:, 1::2] @ _GK_WEIGHTS_7)
    return k15, np.abs(k15 - g7)


def adaptive_quadrature(f, a, b, config=None):
    """Integrate vectorized ``f`` over [a, b]; returns (value, error_estimate).

    Panels whose rule gap exceeds max(abs_tol, rel_tol * |running
    integral|) are bisected, breadth-first, until all pass or the
    subdivision budget is exhausted.
    """
    cfg = config or DEFAULT_CONFIG
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bad integration interval [{a!r}, {b!r}]")
    if a == b:
        return 0.0, 0.0

    lo = np.array([a])
    hi = np.array([b])
    value = 0.0
    error = 0.0
    splits = 0
    while lo.size:
        k15, gap = _panel_estimates(f, lo, hi)
        running = value + float(k15.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(running))
        done = gap <= tol
        value += float(k15[done].sum())
        error += float(gap[done].sum())
        lo, hi = lo[~done], hi[~done]
        if lo.size == 0:
            break
        splits += lo.size
        if splits > cfg.max_subdivisions:
            raise QuadratureError(
                f"no convergence within {cfg.max_subdivisions} subdivisions on [{a}, {b}]"
            )
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise QuadratureError(f"panel width underflow near u={float(lo[np.argmin(hi - lo)])!r}")
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
    return value, error


def _edge_values(f, eps):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        edge = np.abs(np.asarray(f(np.array([eps, 1.0 - eps])), dtype=float))
    if not np.all(np.isfinite(edge)):
        raise QuadratureError(f"integrand is non-finite at a truncation edge (eps={eps!r})")
    return edge


def unit_quadrature(f, config=None):
    """Integrate ``f`` over (0, 1) with endpoint truncation accounting."""
    cfg = config or DEFAULT_CONFIG
    eps = cfg.truncation_eps
    value, error = adaptive_quadrature(f, eps, 1.0 - eps, cfg)
    edge = _edge_values(f, eps)
    truncation = eps * float(edge[0] + edge[1])
    return Expectation(value=value, error=error + truncation, truncation=truncation)


def comonotonic_expectation(cost, fx, fy, config=None):
    """E[c(X, Y)] under the maximal-dependence coupling (qx(U), qy(U))."""
    qx, qy = fx.quantile, fy.quantile
    return unit_quadrature(lambda u: cost(qx(u), qy(u)), config)


def countermonotonic_expectation(cost, fx, fy, config=None):
    """E[c(X, Y)] under the minimal-dependence coupling (qx(U), qy(1-U))."""
    qx, qy = fx.quantile, fy.quantile
    return unit_quadrature(lambda u: cost(qx(u), qy(1.0 - u)), config)


def _batch_unit_quadrature(g, width, cfg):
    """Integrate ``width`` integrands over [eps, 1-eps] in one worklist.

    ``g(points, which)`` evaluates integrand ``which[i]`` at
    ``points[i]``.  Used for the inner axis of the nested independent
    integral so the whole batch stays vectorized.
    """
    eps = cfg.truncation_eps
    lo = np.full(width, eps)
    hi = np.full(width, 1.0 - eps)
    idx = np.arange(width)
    values = np.zeros(width)
    errors = np.zeros(width)
    splits = 0
    while lo.size:
        which = np.repeat(idx, _GK_NODES.size)
        k15, gap = _panel_estimates(lambda v: g(v, which), lo, hi)
        running = np.abs(values[idx] + k15)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * running)
        done = gap <= tol
        np.add.at(values, idx[done], k15[done])
        np.add.at(errors, idx[done], gap[done])
        lo, hi, idx = lo[~done], hi[~done], idx[~done]
        if lo.size == 0:
            break
        splits += lo.size
        if splits > cfg.max_subdivisions:
            raise QuadratureError(
                f"inner quadrature: no convergence within {cfg.max_subdivisions} subdivisions"
            )
        mid = 0.5 * (lo + hi)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        idx = np.concatenate([idx, idx])
    return values, errors


def independent_expectation(cost, fx, fy, config=None):
    """E[c(X, Y)] for independent X, Y by nested adaptive quadrature.

    Outer axis in u (through qx), inner in v (through qy).  The inner
    pass runs 100x tighter than the outer so its residual noise sits
    below the outer acceptance threshold; otherwise the outer worklist
    chases noise it can never integrate away.
    """
    cfg = config or DEFAULT_CONFIG
    inner_cfg = QuadratureConfig(
        rel_tol=cfg.rel_tol * 1e-2,
        abs_tol=cfg.abs_tol * 1e-2,
        truncation_eps=cfg.truncation_eps,
        max_subdivisions=cfg.max_subdivisions,
    )
    qx, qy = fx.quantile, fy.quantile
    eps = cfg.truncation_eps
    y_edges = qy(np.array([eps, 1.0 - eps]))
    state = {"inner_err": 0.0, "inner_trunc": 0.0}

    def outer(u):
        x = qx(u)

        def inner(v, which):
            return cost(x[which], qy(v))

        inner_vals, inner_errs = _batch_unit_quadrature(inner, u.size, inner_cfg)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            edge = np.abs(cost(x, np.full_like(x, y_edges[0]))) + np.abs(
                cost(x, np.full_like(x, y_edges[1]))
            )
        if not np.all(np.isfinite(edge)):
            raise QuadratureError(f"integrand is non-finite at an inner truncation edge (eps={eps!r})")
        state["inner_err"] = max(state["inner_err"], float(inner_errs.max()))
        state["inner_trunc"] = max(state["inner_trunc"], eps * float(edge.max()))
        return inner_vals

    value, outer_err = adaptive_quadrature(outer, eps, 1.0 - eps, cfg)
    outer_edge = _edge_values(outer, eps)
    truncation = eps * float(outer_edge[0] + outer_edge[1]) + state["inner_trunc"]
    error = outer_err + state["inner_err"] + truncation
    return Expectation(value=value, error=error, truncation=truncation)


def bounds(cost, fx, fy, report, config=None, include_independent=False):
    """Assemble the sharp dependence bounds for a classified cost.

    ``report`` must come from one of the lattice checks and classify the
    cost as submodular, supermodular, or modular; anything else raises
    ``ClassificationError`` since the monotone couplings are then not
    known to be extremal.  For modular costs every coupling has the same
    expectation, so one quadrature serves all three roles.
    """
    if not isinstance(report, MongeReport):
        raise TypeError("bounds needs a MongeReport from the lattice checks")
    kind = report.classification
    if kind not in ("submodular", "supermodular", "modular"):
        raise ClassificationError(
            f"cost is classified {kind!r} (violations: {report.violation_count}, "
            f"worst {report.max_violation:.3g}); monotone couplings are not provably extremal"
        )

    if kind == "modular":
        both = comonotonic_expectation(cost, fx, fy, config)
        low = high = both
        independent = both if include_independent else None
    else:
        co = comonotonic_expectation(cost, fx, fy, config)
        counter = countermonotonic_expectation(cost, fx, fy, config)
        low, high = (co, counter) if kind == "submodular" else (counter, co)
        independent = independent_expectation(cost, fx, fy, config) if include_independent else None

    slack = max(low.error + high.error, 1e-12)
    if low.value > high.value + slack:
        raise ClassificationError(
            f"computed bounds are inverted (lower={low.value!r} > upper={high.value!r}); "
            f"the {kind!r} classification likely fails on the marginals' support"
        )
    truncs = [low.truncation, high.truncation] + ([independent.truncation] if independent else [])
    return BoundsResult(
        lower=low.value,
        upper=high.value,
        independent=independent.value if independent else None,
        lower_err=low.error,
        upper_err=high.error,
        truncation_bound=max(truncs),
        classification_used=kind,
    )


def working_domain(fx, fy):
    """Classification box (x0, x1, y0, y1) covering both marginals.

    Essentially the full support, edges trimmed at the 1e-4 quantile
    level to keep extents finite for heavy tails.  A marginal whose
    trimmed edge still overflows raises ``ClassificationError``: no grid
    on an infinite box can certify the cost's structure.
    """
    with np.errstate(over="ignore"):
        box = (
            float(fx.quantile(1e-4)),
            float(fx.quantile(1.0 - 1e-4)),
            float(fy.quantile(1e-4)),
            float(fy.quantile(1.0 - 1e-4)),
        )
    if not np.all(np.isfinite(box)):
        raise ClassificationError(
            f"classification box {box!r} is not finite; the marginals overflow "
            "at the 1e-4 quantile level"
        )
    return box


def classified_bounds(cost, fx, fy, config=None, include_independent=False):
    """Classify ``cost`` on the marginals' working box, then bound it.

    The report comes from cross-differences on a 64 x 64 grid over
    ``working_domain(fx, fy)``; an unusable classification raises
    ``ClassificationError`` exactly as ``bounds`` does.
    """
    report = check_cross_difference(cost, working_domain(fx, fy), n=64)
    return bounds(cost, fx, fy, report, config, include_independent=include_independent)


def bounds_sweep(cost_factory, params, fx, fy, config=None, include_independent=True):
    """One ``classified_bounds`` result per parameter value.

    ``cost_factory(p)`` builds the cost for parameter ``p``; a
    classification of neither/indeterminate aborts the sweep
    (propagated ``ClassificationError``).
    """
    return [
        SweepRow(param=float(p), result=classified_bounds(
            cost_factory(p), fx, fy, config, include_independent=include_independent
        ))
        for p in params
    ]
