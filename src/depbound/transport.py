"""Sharp dependence bounds on E[c(X, Y)] with fixed marginals.

A dependent coupling is a measure-preserving map T of (0, 1), named in
``COUPLING_MAPS``, and its expectation is integral(c(qx(u), qy(T(u))) du).
For a submodular cost the comonotonic coupling gives the minimum over
all joints with the given marginals and the countermonotonic one the
maximum; for a supermodular cost the roles swap (apply the submodular
result to -c).  Everything here reduces to 1-D quadrature of these
couplings on (0, 1), plus a nested pass for the independent baseline.

The quadrature engine is an adaptive Gauss-Kronrod 7/15 pair on one
worklist of panels, which carries a single integral, all the inner
integrals of the nested pass, or one coupling's integrals for every row
of a sweep at once.  Integrands are evaluated per panel: a pass hands
them its panels' (P, 15) nodes, and a sweep, one cost function over a
parameter, costs one cost call per pass.  The 15-point value is kept,
the |K15 - G7| gap is the panel's error estimate, and a panel is
bisected while its gap exceeds rel_tol * (the sum of |K15| over its own
integrand's panels); each row of a sweep has its own subdivision budget.
Each integrand starts on the panels between its cut points, the
``breakpoints`` of its marginals (cdf levels where a quantile steps,
none by default), with a breakpoint b of Y cut at T(b) in a coupled
integral; a step there is integrated exactly.  Endpoints are truncated
to [eps, 1 - eps] and the discarded tails are reported as a truncation
estimate eps * (|f(eps)| + |f(1 - eps)|) from these edge witnesses
instead of being silently dropped; on a heavy upper tail it is no bound
(ROADMAP item 3(a)).  A quantile that overflows at eps or 1 - eps raises
``QuadratureError`` before any pass.  An axis whose marginals all have a
``support`` (Uniform, Bernoulli) has no tail, so the estimate is exact:
it runs over [0, 1] and reports zero truncation, and a node or its image
1 - u that rounds onto 0 or 1 reads the nearest float inside.
``_axis`` holds these rules for one marginal, X's and Y's alike: the
finite-edge check, the cuts, and bounded when supported.  The
tolerance, eps and the budget are fixed module constants; no caller
sets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import CostFunction
from .errors import NumericalError
from .monge import _ROUNDING, ClassificationError, MongeReport, check_cross_difference

__all__ = [
    "QuadratureError",
    "ClassificationError",
    "Expectation",
    "BoundsResult",
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


class QuadratureError(NumericalError):
    """Quadrature failed: non-convergence or a non-finite integrand.

    ``row`` is the worklist group that ran out of subdivisions, or None.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


# Panel tolerance, the [eps, 1 - eps] truncation and the subdivision budget per
# row.  Read at call time, never bound as defaults, so a test can patch them.
_REL_TOL = 1e-8
_EPS = 1e-9
_MAX_SUBDIVISIONS = 100_000

# The dependent couplings as measure-preserving maps T of (0, 1), Y = qy(T(U)), read by
# the quadrature and the Monte Carlo oracle.  A map returns a new array or ``u`` itself
# and never writes into ``u``: a marginal may return its input as x.
COUPLING_MAPS = {"comonotonic": lambda u: u, "countermonotonic": lambda u: 1.0 - u}


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
    independent_err: float | None
    truncation_bound: float
    classification_used: str


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


def _panel_estimates(f, lo, hi, idx):
    """K15 values and |K15 - G7| gaps for a batch of panels of integrands ``idx``."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    points = half[:, None] * _GK_NODES
    points += mid[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = np.asarray(f(points, idx[:, None]), dtype=float).reshape(points.shape)
    if not np.isfinite(values).all():
        bad = points.ravel()[np.flatnonzero(~np.isfinite(values.ravel()))[0]]
        raise QuadratureError(f"integrand returned a non-finite value at u={float(bad)!r}")
    k15 = half * (values @ _GK_WEIGHTS_15)
    g7 = half * (values[:, 1::2] @ _GK_WEIGHTS_7)
    return k15, np.abs(k15 - g7)


def _gk_worklist(f, lo, hi, rel_tol, group=None, owner=None):
    """Integrate one or more integrands on one worklist; returns (values, errors).

    Panel ``k`` is [lo[k], hi[k]] of integrand ``owner[k]``, a
    nondecreasing index from 0 (panel ``k`` of integrand ``k`` when
    None), so an integrand may start on several panels and a step at a
    panel edge is never chased by bisection.  ``f(points, which)`` gets
    one pass's panels at once: ``points`` is (P, 15), the nodes of a
    panel per row, and ``which`` the (P, 1) column of their integrands,
    so per-integrand data broadcasts over the nodes.  A panel is
    accepted once its gap is at most rel_tol times its own integrand's
    mass, the sum of |K15| over that integrand's accepted and in-flight
    panels (|running total| for an integrand of one sign).  The scale
    comes from the integrand, so scaling it scales every value and error
    with it, and an integrand that cancels to 0 still converges.  The rest
    are bisected in place, breadth-first, so ``which`` stays sorted, on
    one ``_MAX_SUBDIVISIONS`` budget per ``group`` label of an integrand
    (one in all).  Running out raises ``QuadratureError`` whose ``row``
    is the first label over budget.
    """
    idx = np.arange(lo.size) if owner is None else owner
    width = int(idx[-1]) + 1
    group = np.zeros(width, dtype=int) if group is None else group
    splits = np.zeros(group.max(initial=0) + 1, dtype=int)
    values = np.zeros(width)
    errors = np.zeros(width)
    mass = np.zeros(width)
    while lo.size:
        k15, gap = _panel_estimates(f, lo, hi, idx)
        size = np.abs(k15)
        done = gap <= rel_tol * (mass + np.bincount(idx, size, minlength=width))[idx]
        closed = idx[done]
        values += np.bincount(closed, k15[done], minlength=width)
        errors += np.bincount(closed, gap[done], minlength=width)
        mass += np.bincount(closed, size[done], minlength=width)
        keep = ~done
        lo, hi, idx = lo[keep], hi[keep], idx[keep]
        if lo.size == 0:
            break
        splits += np.bincount(group[idx], minlength=splits.size)
        if splits.max() > _MAX_SUBDIVISIONS:
            raise QuadratureError(
                f"no convergence within {_MAX_SUBDIVISIONS} subdivisions ({lo.size} panels open)",
                row=int(np.argmax(splits > _MAX_SUBDIVISIONS)),
            )
        mid = 0.5 * (lo + hi)
        if np.any((mid <= lo) | (mid >= hi)):
            raise QuadratureError(f"panel width underflow near u={float(lo[np.argmin(hi - lo)])!r}")
        lo, hi, idx = lo.repeat(2), hi.repeat(2), idx.repeat(2)
        lo[1::2] = hi[::2] = mid
    return values, errors


def adaptive_quadrature(f, a, b):
    """Integrate vectorized ``f`` over [a, b]; returns (value, error_estimate).

    The worklist of ``_gk_worklist`` with one integrand, so the same
    acceptance rule, subdivision budget and underflow check apply.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bad integration interval [{a!r}, {b!r}]")
    if a == b:
        return 0.0, 0.0
    values, errors = _gk_worklist(lambda u, which: f(u.ravel()), np.array([a]), np.array([b]), _REL_TOL)
    return float(values[0]), float(errors[0])


def _axis(marginal, label):
    """(quantile, bounded, edges, cuts) of ``marginal`` on axis ``label``.  ``edges`` are its
    quantiles at [eps, 1 - eps], which bound every node as quantiles are nondecreasing; ``cuts``
    are its ``breakpoints``.  It is ``bounded`` when it has a ``support``, and then its quantile
    reads an argument of 0 or 1, where a node or its image 1 - u can round, as the nearest float
    inside.  Both attributes are read through ``getattr``: a duck-typed marginal has neither."""
    with np.errstate(over="ignore"):
        edges = marginal.quantile(np.array([_EPS, 1.0 - _EPS]))
    if not np.all(np.isfinite(edges)):
        raise QuadratureError(
            f"quantile of {label} ({marginal.name}) overflows inside the integrated range: "
            f"q({_EPS!r}) = {float(edges[0])!r}, q(1 - {_EPS!r}) = {float(edges[1])!r}"
        )
    cuts, q = getattr(marginal, "breakpoints", ()), marginal.quantile
    if getattr(marginal, "support", None) is None:
        return q, False, edges, cuts
    return lambda u: q(np.clip(u, 5e-324, 1.0 - 2.0**-53)), True, edges, cuts


def _start_panels(n, cuts, bounded):
    """First panels (lo, hi, owner) of ``n`` integrands on [0, 1] if ``bounded``, else on
    [eps, 1 - eps], cut at the ``cuts`` inside."""
    eps = 0.0 if bounded else _EPS
    edges = np.array([eps, *sorted({float(c) for c in cuts if eps < c < 1.0 - eps}), 1.0 - eps])
    return np.tile(edges[:-1], n), np.tile(edges[1:], n), np.arange(n).repeat(edges.size - 1)


def _unit_rows(f, n_rows, cuts=(), bounded=False):
    """Integrate ``n_rows`` integrands ``f(u, which)`` over (0, 1), each on its own budget, from
    the panels between ``cuts``; a ``bounded`` integrand runs over [0, 1] with no truncation."""
    eps = _EPS
    idx = np.arange(n_rows)
    lo, hi, owner = _start_panels(n_rows, cuts, bounded)
    values, errors = _gk_worklist(f, lo, hi, _REL_TOL, group=idx, owner=owner)
    truncation = np.zeros(n_rows)
    if not bounded:
        ends = np.tile([eps, 1.0 - eps], (n_rows, 1))
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                edge = np.abs(np.asarray(f(ends, idx[:, None]), dtype=float)).reshape(ends.shape)
        except QuadratureError as exc:
            raise QuadratureError(f"integrand failed at a truncation edge (eps={eps!r}): {exc}", row=exc.row) from None
        if not np.all(np.isfinite(edge)):
            raise QuadratureError(f"integrand is non-finite at a truncation edge (eps={eps!r})")
        truncation = eps * (edge[:, 0] + edge[:, 1])
    return [Expectation(float(v), float(e + t), float(t)) for v, e, t in zip(values, errors, truncation)]


def unit_quadrature(f):
    """Integrate ``f`` over (0, 1) with endpoint truncation accounting."""
    return _unit_rows(lambda u, which: f(u.ravel()), 1)[0]


def _row_cost(costs):
    """``cost(rows, x, y)``: the cost of row k at ``(x, y)`` where ``rows`` (1-D or a (P, 1)
    column) is k, built once per integral.  One cost is called as it is; a sweep's rows share
    one function, so they are one call with each parameter a per-panel column."""
    first = costs[0]
    if len(costs) == 1:
        return lambda rows, x, y: first(x, y)
    columns = {key: np.array([c.params[key] for c in costs]) for key in first.params}
    return lambda rows, x, y: CostFunction(first.name, first.fn, params={k: p[rows] for k, p in columns.items()})(x, y)


def _coupled_rows(costs, fx, fy, coupling):
    """Expectations of ``costs`` under the map ``COUPLING_MAPS[coupling]``."""
    qx, x_bounded, _, x_cuts = _axis(fx, "X")
    qy, y_bounded, _, y_cuts = _axis(fy, "Y")
    t, cost = COUPLING_MAPS[coupling], _row_cost(costs)
    # Y = qy(t(u)) jumps where t(u) is a breakpoint b of Y: at u = t(b), as t is its own inverse.
    cuts = [*x_cuts, *map(t, y_cuts)]
    return _unit_rows(lambda u, which: cost(which, qx(u), qy(t(u))), len(costs), cuts, x_bounded and y_bounded)


def comonotonic_expectation(cost, fx, fy):
    """E[c(X, Y)] under the maximal-dependence coupling (qx(U), qy(U))."""
    return _coupled_rows([cost], fx, fy, "comonotonic")[0]


def countermonotonic_expectation(cost, fx, fy):
    """E[c(X, Y)] under the minimal-dependence coupling (qx(U), qy(1-U))."""
    return _coupled_rows([cost], fx, fy, "countermonotonic")[0]


def _independent_rows(costs, fx, fy):
    """Independent expectations of ``costs``: one outer and one inner worklist for all."""
    qx, x_bounded, _, x_cuts = _axis(fx, "X")
    qy, y_bounded, y_edges, y_cuts = _axis(fy, "Y")
    eps, cost = _EPS, _row_cost(costs)
    inner_err, inner_trunc = np.zeros((2, len(costs)))

    def outer(u, which):
        # One inner integrand per outer node; ``x[inner]`` is a (P, 1) column.
        x = qx(u).ravel()
        rows = np.broadcast_to(which, u.shape).ravel()
        lo, hi, owner = _start_panels(u.size, y_cuts, y_bounded)
        vals, errs = _gk_worklist(
            lambda v, inner: cost(rows[inner], x[inner], qy(v)), lo, hi,
            _REL_TOL * 1e-2, group=rows, owner=owner,
        )
        np.maximum.at(inner_err, rows, errs)
        if not y_bounded:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                edge = sum(np.abs(cost(rows, x, np.full_like(x, y))) for y in y_edges)
            if not np.all(np.isfinite(edge)):
                raise QuadratureError(f"integrand is non-finite at an inner truncation edge (eps={eps!r})")
            np.maximum.at(inner_trunc, rows, eps * edge)
        return vals.reshape(u.shape)

    outer_rows = _unit_rows(outer, len(costs), x_cuts, x_bounded)
    outers = zip(outer_rows, inner_err.tolist(), inner_trunc.tolist())
    return [Expectation(r.value, r.error + err + trunc, r.truncation + trunc) for r, err, trunc in outers]


def independent_expectation(cost, fx, fy):
    """E[c(X, Y)] for independent X, Y by nested adaptive quadrature.

    Outer axis in u (through qx), inner in v (through qy): every outer
    node's inner integral is one integrand on a shared worklist.  The
    inner pass runs 100x tighter than the outer so its residual noise
    sits below the outer acceptance threshold; otherwise the outer
    worklist chases noise it can never integrate away.
    """
    return _independent_rows([cost], fx, fy)[0]


def _bounds_rows(costs, reports, include_independent, co, counter, independent):
    """Check every report, then one ``BoundsResult`` per cost; ``co(costs)`` etc. integrate.  A row is
    inverted if lower - upper > lower_err + upper_err + ``_ROUNDING`` * (|lower| + |upper|), with no absolute floor."""
    kinds = [report.classification for report in reports]
    for kind, report in zip(kinds, reports):
        if kind not in ("submodular", "supermodular", "modular"):
            raise ClassificationError(
                f"cost is classified {kind!r} (violations: {report.violation_count}, "
                f"worst {report.max_violation:.3g}); monotone couplings are not provably extremal"
            )
    paired_at = [i for i, kind in enumerate(kinds) if kind != "modular"]
    paired = [costs[i] for i in paired_at]
    try:
        counters = iter(counter(paired) if paired else ())
        independents = iter(independent(paired) if paired and include_independent else ())
    except QuadratureError as exc:
        # These worklists hold only the paired rows; report the row of ``costs``.
        exc.row = None if exc.row is None else paired_at[exc.row]
        raise
    results = []
    for kind, both in zip(kinds, co(costs)):
        if kind == "modular":
            low = high = both
            ind = both if include_independent else None
        else:
            other = next(counters)
            low, high = (both, other) if kind == "submodular" else (other, both)
            ind = next(independents) if include_independent else None
        gap, slack = low.value - high.value, low.error + high.error + _ROUNDING * (abs(low.value) + abs(high.value))
        if gap > slack:
            raise ClassificationError(
                f"computed bounds are inverted: lower {low.value!r} - upper {high.value!r} = {gap!r} > slack "
                f"{slack!r}; {kind!r} fails on the integrated range, or a bounded axis misses mass above 1 - 2**-53"
            )
        truncs = [low.truncation, high.truncation] + ([ind.truncation] if ind else [])
        results.append(BoundsResult(
            lower=low.value, upper=high.value, independent=ind.value if ind else None, lower_err=low.error,
            upper_err=high.error, independent_err=ind.error if ind else None, truncation_bound=max(truncs),
            classification_used=kind,
        ))
    return results


def bounds(cost, fx, fy, report, include_independent=False):
    """Assemble the sharp dependence bounds for a classified cost.

    ``report`` must come from one of the lattice checks and classify the
    cost as submodular, supermodular, or modular; anything else raises
    ``ClassificationError`` since the monotone couplings are then not
    known to be extremal.  For modular costs every coupling has the same
    expectation, so one quadrature serves all three roles.
    """
    if not isinstance(report, MongeReport):
        raise TypeError("bounds needs a MongeReport from the lattice checks")

    def one(expectation):
        return lambda costs: [expectation(costs[0], fx, fy)]

    return _bounds_rows(
        [cost], [report], include_independent,
        one(comonotonic_expectation), one(countermonotonic_expectation), one(independent_expectation),
    )[0]


def working_domain(fx, fy):
    """Classification box (x0, x1, y0, y1) covering both marginals.

    A marginal with a ``support`` (Uniform, Bernoulli) puts that interval
    in the box, as its own axis integrates all of [0, 1].  Any other
    marginal's edges are its quantiles at the 1e-4 levels, trimmed to
    keep extents finite for heavy tails.  A marginal whose trimmed edge
    still overflows raises ``ClassificationError``: no grid on an
    infinite box can certify the cost's structure.
    """
    with np.errstate(over="ignore"):
        box = tuple(float(v) for m in (fx, fy)
                    for v in getattr(m, "support", None) or (m.quantile(1e-4), m.quantile(1.0 - 1e-4)))
    if not np.all(np.isfinite(box)):
        raise ClassificationError(
            f"classification box {box!r} is not finite; the marginals overflow "
            "at the 1e-4 quantile level"
        )
    return box


def classified_bounds(cost, fx, fy, include_independent=False):
    """Classify ``cost`` on the marginals' working box, then bound it.

    The report comes from cross-differences on a 64 x 64 grid over
    ``working_domain(fx, fy)``; an unusable classification raises
    ``ClassificationError`` exactly as ``bounds`` does.
    """
    report = check_cross_difference(cost, working_domain(fx, fy), n=64)
    return bounds(cost, fx, fy, report, include_independent)


def bounds_sweep(cost_factory, params, fx, fy):
    """One ``classified_bounds`` result per parameter value, in order, integrated together.

    Row ``i`` is ``classified_bounds(cost_factory(params[i]), fx, fy,
    include_independent=True)`` up to the BLAS summation order of a
    panel batch.  A sweep is one cost function with different
    parameters: every row's ``fn`` and parameter names must be the first
    row's, else ``ValueError`` before any classification or quadrature.
    Every build of a builtin shares its ``fn``, so any builtin passes.
    A ``neither`` row aborts the sweep (``ClassificationError``) before
    any quadrature.  Each coupling's integrals of all rows share
    one worklist, each row on its own budget, so a row fails as alone;
    a row that runs out of subdivisions is named by its parameter.
    """
    params = list(params)
    if not params:
        return []
    costs = [cost_factory(p) for p in params]
    first = costs[0]
    for p, cost in zip(params[1:], costs[1:]):
        if cost.fn is not first.fn or cost.params.keys() != first.params.keys():
            raise ValueError(f"a sweep's rows must be one cost function with different parameters; "
                             f"the row for parameter {float(p)!r} is not the first row's function")
    box = working_domain(fx, fy)
    reports = [check_cross_difference(cost, box, n=64) for cost in costs]
    try:
        return _bounds_rows(
            costs, reports, True,
            lambda cs: _coupled_rows(cs, fx, fy, "comonotonic"),
            lambda cs: _coupled_rows(cs, fx, fy, "countermonotonic"),
            lambda cs: _independent_rows(cs, fx, fy),
        )
    except QuadratureError as exc:
        if exc.row is None:
            raise
        raise QuadratureError(f"{exc} in the row for parameter {float(params[exc.row])!r}", row=exc.row) from None
