"""Quadrature engine and coupling expectations against frozen oracles."""

import math

import numpy as np
import pytest

from depbound import marginals, transport
from depbound.costs import CostFunction, builtin
from depbound.marginals import Bernoulli, Exponential, LogNormal, Nakagami, Rayleigh, Rician, Uniform
from depbound.monge import check_cross_difference
from depbound.transport import (
    COUPLING_MAPS,
    BoundsResult,
    ClassificationError,
    QuadratureError,
    _gk_worklist,
    adaptive_quadrature,
    bounds,
    bounds_sweep,
    classified_bounds,
    comonotonic_expectation,
    countermonotonic_expectation,
    independent_expectation,
    unit_quadrature,
    working_domain,
)

E1 = Exponential(1.0)
E2 = Exponential(2.0)


def _mixed_fn(x, y, w):
    # Submodular for w < 0, supermodular for w > 0, modular at w = 0.
    return x + y + w * np.log1p(x) * np.log1p(y)


def _wave_fn(x, y, a):
    return np.sin(a * x) * np.sin(a * y)


def _classified(cost, fx, fy):
    box = (
        float(fx.quantile(1e-4)),
        float(fx.quantile(1 - 1e-4)),
        float(fy.quantile(1e-4)),
        float(fy.quantile(1 - 1e-4)),
    )
    return check_cross_difference(cost, box, n=48)


class TestEngine:
    def test_polynomial_is_exact(self):
        value, err = adaptive_quadrature(lambda x: 3 * x**2, 0.0, 2.0)
        assert value == pytest.approx(8.0, abs=1e-12)
        assert err < 1e-10

    def test_sine(self):
        value, err = adaptive_quadrature(np.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)
        # Over a full period the panels cancel to 0; each is judged against the sum of their
        # |K15|, so the integral still converges, and 0 lies within its error.
        value, err = adaptive_quadrature(np.sin, 0.0, 2.0 * math.pi)
        assert abs(value) <= err < 1e-6

    def test_error_estimate_is_honest(self):
        cases = [
            (lambda x: np.exp(-x) * np.cos(8 * x), 0.0, 5.0,
             (1 - math.exp(-5) * (math.cos(40) - 8 * math.sin(40))) / 65),
            (lambda x: 1.0 / np.sqrt(x), 0.01, 1.0, 2.0 - 0.2),
            (lambda x: np.log(x), 0.001, 1.0, -1.0 - 0.001 * (math.log(0.001) - 1.0)),
        ]
        for f, a, b, exact in cases:
            value, err = adaptive_quadrature(f, a, b)
            assert abs(value - exact) <= max(err, 1e-13) + 1e-13

    def test_integrable_endpoint_singularity(self):
        # log diverges at 0; the [eps, 1-eps] window plus the reported
        # truncation must still cover the true value -1.
        res = unit_quadrature(np.log)
        assert res.value == pytest.approx(-1.0, abs=1e-7)
        assert abs(res.value + 1.0) <= res.error

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            adaptive_quadrature(lambda x: 1.0 / (x - 0.5), 0.0, 1.0)

    def test_subdivision_budget_raises(self, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_SUBDIVISIONS", 4)
        with pytest.raises(QuadratureError, match="subdivisions"):
            adaptive_quadrature(lambda x: np.sign(x - 1 / math.pi) * np.exp(x), 0.0, 1.0)

    @pytest.mark.parametrize("engine", ["adaptive", "batch"])
    def test_panel_width_underflow_raises(self, engine, monkeypatch):
        # A jump at u = 1/2 onto a 1/sqrt spike: the panel that starts at
        # 1/2 never meets this tolerance, so bisection runs it down to
        # one ulp, where its midpoint rounds onto an endpoint.
        def f(v):
            return np.where(v < 0.5, 0.0, 1.0 / np.sqrt(np.maximum(v - 0.5, 0.0) + 2.0**-54))

        monkeypatch.setattr(transport, "_REL_TOL", 1e-12)
        eps = transport._EPS
        with pytest.raises(QuadratureError, match=r"underflow near u=0\.5"):
            if engine == "adaptive":
                adaptive_quadrature(f, eps, 1.0 - eps)
            else:
                lo = np.full(2, eps)
                _gk_worklist(lambda v, which: f(v) * (which + 1), lo, 1.0 - lo, 1e-12)

    def test_batch_row_integrates_as_alone(self):
        # Row k's 1000-scaled sign flip sits at (k+1)/pi, on no panel
        # edge, so the panel across it is bisected pass after pass until
        # its gap is within rel_tol of the row's own mass, the sum of |K15|
        # over the row's panels.  A row in a batch must take the points,
        # and reach the value, that it takes alone.
        def f(v, k):
            return (k + 1) * (1000.0 * np.sign(v - (k + 1) / math.pi) * v * (1.0 - v) + v**1.5)

        lo = np.full(2, transport._EPS)
        batch_points = np.zeros(2, dtype=int)

        def rows(v, which):
            batch_points[:] += np.bincount(which.ravel(), minlength=2) * v.shape[1]
            return f(v, which)

        values, _ = _gk_worklist(rows, lo, 1.0 - lo, transport._REL_TOL)
        for k in range(2):
            alone_points = []

            def g(v):
                alone_points.append(v.size)
                return f(v, k)

            value, _ = adaptive_quadrature(g, lo[k], 1.0 - lo[k])
            assert batch_points[k] == sum(alone_points) > 15 * 6
            assert values[k] == pytest.approx(value, rel=1e-12)

    def test_public_integrands_get_flat_points(self):
        # The engine hands its own integrands (P, 15) panels; a user's f still sees 1-D points.
        shapes = []

        def f(u):
            shapes.append(u.shape)
            return np.log(u)

        adaptive_quadrature(f, 0.1, 1.0)
        unit_quadrature(f)
        assert shapes and all(len(shape) == 1 for shape in shapes)

    def test_empty_interval(self):
        assert adaptive_quadrature(np.exp, 1.0, 1.0) == (0.0, 0.0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(np.exp, 1.0, 0.0)


class TestCouplingExpectations:
    def test_additive_is_coupling_free(self):
        cost = builtin("additive")
        expected = E1.mean() + E2.mean()
        assert comonotonic_expectation(cost, E1, E2).value == pytest.approx(expected, abs=1e-6)
        assert countermonotonic_expectation(cost, E1, E2).value == pytest.approx(expected, abs=1e-6)
        assert independent_expectation(cost, E1, E2).value == pytest.approx(expected, abs=1e-6)
        # E[X - Y] cancels to 0: its panels are judged against the sum of their |K15|, not the total.
        difference = CostFunction(name="difference", fn=lambda x, y: x - y)
        for compute in (countermonotonic_expectation, independent_expectation):
            res = compute(difference, E1, E1)
            assert abs(res.value) <= res.error < 1e-6

    def test_product_exponential_closed_forms(self):
        cost = builtin("product")
        assert comonotonic_expectation(cost, E1, E1).value == pytest.approx(2.0, abs=1e-4)
        assert countermonotonic_expectation(cost, E1, E1).value == pytest.approx(
            2.0 - math.pi**2 / 6.0, abs=1e-3
        )
        assert independent_expectation(cost, E1, E1).value == pytest.approx(1.0, abs=1e-4)

    def test_product_uniform_closed_forms(self):
        cost = builtin("product")
        u01 = Uniform(0.0, 1.0)
        assert comonotonic_expectation(cost, u01, u01).value == pytest.approx(1 / 3, abs=1e-9)
        assert countermonotonic_expectation(cost, u01, u01).value == pytest.approx(1 / 6, abs=1e-9)
        assert independent_expectation(cost, u01, u01).value == pytest.approx(1 / 4, abs=1e-9)

    def test_independent_factorizes_for_product(self):
        cost = builtin("product")
        fx, fy = Exponential(1.3), Rayleigh(0.6)
        expected = fx.mean() * fy.mean()
        assert independent_expectation(cost, fx, fy).value == pytest.approx(expected, rel=1e-7)

    def test_interference_ratio_triple(self):
        cost = builtin("sinr")
        assert comonotonic_expectation(cost, E1, E2).value == pytest.approx(0.555, abs=5e-3)
        assert countermonotonic_expectation(cost, E1, E2).value == pytest.approx(0.870, abs=5e-3)
        assert independent_expectation(cost, E1, E2).value == pytest.approx(0.723, abs=5e-3)

    def test_coupling_symmetry(self):
        for cost in (builtin("sinr"), builtin("mac_rate1", s=0.5)):
            swapped = CostFunction(name="swapped", fn=lambda x, y, c=cost: c(y, x))
            a = countermonotonic_expectation(cost, E1, Rayleigh(1.0)).value
            b = countermonotonic_expectation(swapped, Rayleigh(1.0), E1).value
            assert a == pytest.approx(b, abs=1e-9)

    def test_truncation_consistency(self, monkeypatch):
        # Halving eps must move each value by less than the reported bound.
        def halved(compute, *args):
            with monkeypatch.context() as m:
                m.setattr(transport, "_EPS", 0.5e-9)
                return compute(*args)

        for cost, fx, fy in [
            (builtin("sinr"), E1, E2),
            (builtin("additive"), E1, E2),
            (builtin("product"), E1, E1),
        ]:
            for compute in (comonotonic_expectation, countermonotonic_expectation):
                base = compute(cost, fx, fy)
                moved = halved(compute, cost, fx, fy)
                assert abs(moved.value - base.value) < max(base.truncation, 1e-13)
        base = independent_expectation(builtin("sinr"), E1, E2)
        moved = halved(independent_expectation, builtin("sinr"), E1, E2)
        assert abs(moved.value - base.value) < max(base.truncation, 1e-13)

    def test_error_fields_track_known_gap(self):
        # The truncation part is an edge-witness estimate, so for tails
        # that keep growing past 1-eps it can undercover by a small
        # factor; it must still carry the right order of magnitude.
        res = comonotonic_expectation(builtin("product"), E1, E1)
        gap = abs(res.value - 2.0)
        assert res.truncation <= res.error
        assert gap <= 3.0 * res.error
        assert gap <= 1e-6

    @pytest.mark.parametrize("fx,fy", [(Rician(8.0, 1.0), Rician(1.5, 0.6)), (E1, Nakagami(2.5, 1.0))])
    def test_nested_integral_is_unchanged_by_inverting_each_level_once(self, fx, fy, monkeypatch):
        # Both runs share this process, so the comparison holds whatever the BLAS kernel.
        cost = builtin("sinr")
        shipped = independent_expectation(cost, fx, fy)
        monkeypatch.setattr(marginals, "_per_level", lambda invert, u: invert(u))
        per_point = independent_expectation(cost, fx, fy)
        fields = lambda r: [r.value.hex(), r.error.hex(), r.truncation.hex()]
        assert fields(shipped) == fields(per_point)

    def test_the_coupling_table_is_the_only_source(self, monkeypatch):
        cost = builtin("sinr")
        monkeypatch.setitem(COUPLING_MAPS, "countermonotonic", lambda u, out=None: u)
        assert countermonotonic_expectation(cost, E1, E2) == comonotonic_expectation(cost, E1, E2)

    @pytest.mark.parametrize("name", sorted(COUPLING_MAPS))
    def test_coupling_maps_preserve_the_midpoint_grid(self, name):
        # A measure-preserving map permutes the midpoints u_i = (i - 1/2)/N,
        # stays strictly inside (0, 1), and leaves its argument untouched,
        # also when it writes into ``out``.
        u = (np.arange(1, 1025) - 0.5) / 1024
        image = np.asarray(COUPLING_MAPS[name](u), dtype=float)
        assert np.array_equal(COUPLING_MAPS[name](u, out=np.empty_like(u)), image)
        assert np.array_equal(u, (np.arange(1, 1025) - 0.5) / 1024)
        assert np.all((image > 0.0) & (image < 1.0))
        np.testing.assert_allclose(np.sort(image), u, rtol=0.0, atol=1e-15)

    def test_independent_error_covers_its_truncation(self):
        # The nested error is the outer error (outer truncation included)
        # plus the inner worklists' worst error and worst truncation.
        for cost in (builtin("sinr"), builtin("product")):
            res = independent_expectation(cost, E1, E2)
            assert 0.0 < res.truncation <= res.error

    def test_non_finite_cost_at_a_truncation_edge_raises(self):
        # x + y, but inf exactly at the eps-quantile of one axis: no Gauss-Kronrod
        # node reaches it, only the truncation witness does, outer or inner.
        q = float(E1.quantile(transport._EPS))

        def edge(axis):
            return CostFunction(name="edge", fn=lambda x, y: np.where((x, y)[axis] == q, np.inf, x + y))

        with pytest.raises(QuadratureError, match="non-finite at a truncation edge"):
            comonotonic_expectation(edge(0), E1, E1)
        with pytest.raises(QuadratureError, match="non-finite at an inner truncation edge"):
            independent_expectation(edge(1), E1, E1)
        # At the outer edge u = eps, the inner pass meets the inf at one of its own nodes.
        with pytest.raises(QuadratureError, match="truncation edge"):
            independent_expectation(edge(0), E1, E1)

    @pytest.mark.parametrize("expectation", [comonotonic_expectation, independent_expectation])
    def test_overflowing_quantile_names_x_before_y(self, expectation):
        fat = LogNormal(0.0, 150.0)
        with pytest.raises(QuadratureError, match=r"^quantile of X \(lognormal"):
            expectation(builtin("product"), fat, fat)
        with pytest.raises(QuadratureError, match=r"^quantile of Y \(lognormal"):
            expectation(builtin("product"), E1, fat)


class TestBreakpoints:
    """Integrands start on the panels between their cut points; a bounded axis is not truncated."""

    @staticmethod
    def _passes(monkeypatch):
        passes = []
        estimates = transport._panel_estimates

        def counting(f, lo, hi, idx):
            passes.append(lo.size)
            return estimates(f, lo, hi, idx)

        monkeypatch.setattr(transport, "_panel_estimates", counting)
        return passes

    def test_declared_step_is_exact_in_one_pass(self, monkeypatch):
        def step(u, which):
            return (u > 0.3).astype(float)

        eps = transport._EPS
        passes = self._passes(monkeypatch)
        cut = transport._unit_rows(step, 1, (0.3,))[0]
        assert passes == [2]
        assert cut.value == pytest.approx(0.7 - eps, rel=0.0, abs=1e-15)
        assert cut.truncation == eps
        passes.clear()
        bounded = transport._unit_rows(step, 1, (0.3,), bounded=True)[0]
        assert passes == [2]
        assert (bounded.value, bounded.truncation) == (pytest.approx(0.7, rel=0.0, abs=1e-15), 0.0)
        assert bounded.error <= 1e-15
        # Undeclared, the step is chased by bisection and still missed.
        passes.clear()
        chased = transport._unit_rows(step, 1)[0]
        assert len(passes) > 20
        assert abs(chased.value - (0.7 - eps)) > 1e-9

    @pytest.mark.parametrize("px, py", [(0.3, 0.6), (0.9, 0.5), (0.25, 0.25), (0.0, 0.4), (1.0, 0.7), (0.5, 1.0),
                                        (1e-5, 0.5), (1.0 - 1e-5, 0.5)])
    def test_builtins_on_bernoulli_pairs_are_two_point_sums(self, px, py):
        fx, fy = Bernoulli(px), Bernoulli(py)
        both = {
            "comonotonic": min(px, py),
            "countermonotonic": max(0.0, px + py - 1.0),
            "independent": px * py,
        }
        compute = {
            "comonotonic": comonotonic_expectation,
            "countermonotonic": countermonotonic_expectation,
            "independent": independent_expectation,
        }
        for name in ("sinr", "mac_rate1", "sum_rate", "secret_key", "prop_fair", "product", "additive"):
            cost = builtin(name, s=0.5) if name == "mac_rate1" else builtin(name)
            sums = {}
            for coupling, p11 in both.items():
                law = {(1.0, 1.0): p11, (1.0, 0.0): px - p11, (0.0, 1.0): py - p11, (0.0, 0.0): 1.0 - px - py + p11}
                sums[coupling] = expected = sum(p * float(cost(x, y)) for (x, y), p in law.items())
                res = compute[coupling](cost, fx, fy)
                assert res.value == pytest.approx(expected, rel=1e-12, abs=1e-15), (name, coupling)
                assert res.truncation == 0.0
            # The classify-then-bound path takes the monotone couplings' sums as its ends.
            res = classified_bounds(cost, fx, fy, include_independent=True)
            ends = sorted((sums["comonotonic"], sums["countermonotonic"]))
            assert [res.lower, res.upper, res.independent] == pytest.approx(
                [*ends, sums["independent"]], rel=1e-12, abs=1e-15), name
            assert res.truncation_bound == 0.0
        # A sweep over a Bernoulli pair is its rows' classified bounds.
        params = [0.1, 0.5, 2.0]
        rows = bounds_sweep(lambda s: builtin("mac_rate1", s=s), params, fx, fy)
        for s, row in zip(params, rows):
            alone = classified_bounds(builtin("mac_rate1", s=s), fx, fy, include_independent=True)
            assert row.classification_used == alone.classification_used == "submodular"
            got = [row.lower, row.upper, row.independent]
            assert got == pytest.approx([alone.lower, alone.upper, alone.independent], rel=1e-12, abs=1e-15)

    def test_uniform_product_closed_forms_without_truncation(self):
        a, b, c, d = 0.5, 2.0, 1.0, 4.0
        cost = builtin("product")
        res = bounds(cost, Uniform(a, b), Uniform(c, d), _classified(cost, Uniform(a, b), Uniform(c, d)),
                     include_independent=True)
        # E[XY] for X = a + (b - a)u and Y = c + (d - c)u, or d - (d - c)u.
        co = a * c + (a * (d - c) + c * (b - a)) / 2 + (b - a) * (d - c) / 3
        counter = a * d + ((b - a) * d - a * (d - c)) / 2 - (b - a) * (d - c) / 3
        assert res.classification_used == "supermodular"
        assert res.upper == pytest.approx(co, rel=1e-14)
        assert res.lower == pytest.approx(counter, rel=1e-14)
        assert res.independent == pytest.approx((a + b) / 2 * (c + d) / 2, rel=1e-14)
        assert res.truncation_bound == 0.0
        # A marginal with a support puts all of it into the classification box, a step quantile too.
        for p in (0.0, 1e-5, 0.5, 1.0 - 1e-5, 1.0):
            assert working_domain(Uniform(a, b), Bernoulli(p)) == (a, b, 0.0, 1.0)

    def test_countermonotonic_cut_is_at_one_minus_the_breakpoint(self, monkeypatch):
        # Y = qy(1 - u) steps where 1 - u = 0.7, at u = 0.3, so
        # E[XY] = integral of -log(1 - u) over (0, 0.3) on an unbounded X axis.
        starts = []
        worklist = transport._gk_worklist

        def spy(f, lo, hi, *args, **kwargs):
            starts.append(list(lo))
            return worklist(f, lo, hi, *args, **kwargs)

        monkeypatch.setattr(transport, "_gk_worklist", spy)
        res = countermonotonic_expectation(builtin("product"), E1, Bernoulli(0.3))
        assert starts == [[transport._EPS, 1.0 - (1.0 - 0.3)]]
        assert res.value == pytest.approx(0.7 * math.log(0.7) + 0.3, rel=0.0, abs=1e-13)
        assert res.truncation > 0.0

    @pytest.mark.parametrize("px", [1e-15, 1.0 - 1e-15])
    def test_steps_next_to_the_ends_of_a_bounded_axis(self, px):
        # A cut at 1e-15 or 1 - 1e-15 leaves a panel whose nodes, or their images 1 - u,
        # round onto 0 or 1; the quantile there reads the nearest float inside (0, 1).
        fx, fy, cost = Bernoulli(px), Bernoulli(0.5), builtin("product")
        expected = {comonotonic_expectation: min(px, 0.5), countermonotonic_expectation: max(0.0, px - 0.5),
                    independent_expectation: 0.5 * px}
        for compute, value in expected.items():
            for x, y in ((fx, fy), (fy, fx)):
                res = compute(cost, x, y)
                assert (res.value, res.truncation) == (pytest.approx(value, rel=0.0, abs=1e-15), 0.0)

    def test_unbounded_axes_keep_their_truncation(self):
        # One unbounded marginal keeps the coupled axis, and its own nested axis, on [eps, 1 - eps].
        for fx, fy in ((E1, Bernoulli(0.4)), (Bernoulli(0.4), E1)):
            for compute in (comonotonic_expectation, countermonotonic_expectation, independent_expectation):
                assert compute(builtin("product"), fx, fy).truncation > 0.0


class TestBounds:
    def test_interference_ratio_bounds(self):
        cost = builtin("sinr")
        res = bounds(cost, E1, E2, _classified(cost, E1, E2), include_independent=True)
        assert res.classification_used == "submodular"
        assert res.lower == pytest.approx(0.555, abs=5e-3)
        assert res.upper == pytest.approx(0.870, abs=5e-3)
        assert res.independent == pytest.approx(0.723, abs=5e-3)
        assert res.lower <= res.independent <= res.upper
        # The one-call path is the same classification and the same bounds.
        manual = bounds(cost, E1, E2, check_cross_difference(cost, working_domain(E1, E2), n=64),
                        include_independent=True)
        assert classified_bounds(cost, E1, E2, include_independent=True) == manual

    def test_supermodular_swaps_roles(self):
        cost = builtin("prop_fair")
        res = bounds(cost, E1, E1, _classified(cost, E1, E1), include_independent=True)
        assert res.classification_used == "supermodular"
        assert res.lower == pytest.approx(countermonotonic_expectation(cost, E1, E1).value, abs=1e-9)
        assert res.upper == pytest.approx(comonotonic_expectation(cost, E1, E1).value, abs=1e-9)
        assert res.lower < res.independent < res.upper
        # At the 1e-10 scale a fixed 1e-9 tolerance read product as
        # modular and printed the comonotonic 2e-10 for all three.
        small = Exponential(1e5)
        res = classified_bounds(builtin("product"), small, small, include_independent=True)
        assert res.classification_used == "supermodular"
        assert res.lower < res.independent < res.upper
        assert res.lower == pytest.approx((2.0 - math.pi ** 2 / 6.0) * 1e-10, abs=res.lower_err)
        # E[X^2] over the integrated range u in [eps, 1 - eps]: with w = 1 - u it is
        # 1e-10 * integral(ln^2 w dw), whose antiderivative is w ln^2 w - 2 w ln w + 2 w.
        eps = transport._EPS

        def antiderivative(w, log_w):
            return w * log_w**2 - 2.0 * w * log_w + 2.0 * w

        truncated = 1e-10 * (antiderivative(1.0 - eps, math.log1p(-eps)) - antiderivative(eps, math.log(eps)))
        assert res.upper == pytest.approx(truncated, abs=res.upper_err)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the truncation bound eps * |f(eps)| misses the "
                                           "upper tail E[X^2; X > q(1 - eps)] of E[X^2] = 2 / lam^2 for "
                                           "X ~ Exp(lam)")
    @pytest.mark.parametrize("lam", [1.0, 1e5])
    def test_comonotonic_second_moment_within_error(self, lam):
        fx = Exponential(lam)
        res = classified_bounds(builtin("product"), fx, fx, include_independent=True)
        assert res.upper == pytest.approx(2.0 / lam**2, abs=res.upper_err)

    @pytest.mark.parametrize("lam", [1e-8, 1e-3, 1e3, 1e5, 1e10])
    @pytest.mark.parametrize("name, fy, power", [
        ("product", lambda rate: Exponential(2.0 * rate), 2),
        ("sinr", lambda rate: E2, 1),
    ], ids=["product", "sinr"])
    def test_scaling_a_marginal_scales_the_bounds(self, lam, name, fy, power):
        # The quadrature judges each panel against its own integrand's size, so X -> X / lam scales
        # every bound by lam^-power to rounding.
        def triple(rate):
            res = classified_bounds(builtin(name), Exponential(rate), fy(rate), include_independent=True)
            return [res.lower, res.upper, res.independent]

        unit = triple(1.0)
        assert triple(lam) == pytest.approx([v * lam**-power for v in unit], rel=1e-14, abs=0.0)

    def test_small_scale_upper_meets_its_reference(self):
        # A lognormal signal near 2e-9 against interference of mean 1e6: sinr's upper bound, the
        # countermonotonic E[X / (1 + Y)], is about 1e-12.  The reference integrates the same range
        # u in [eps, 1 - eps] with scipy, on w = 1 - u = e^-t.
        from scipy import integrate, special

        eps = transport._EPS

        def integrand(t):
            w = math.exp(-t)
            return math.exp(-20.0 - special.ndtri(w)) / (1.0 + 1e6 * -math.log1p(-w)) * w

        reference, _ = integrate.quad(integrand, -math.log1p(-eps), -math.log(eps),
                                      epsabs=0.0, epsrel=1e-12, limit=200)
        res = classified_bounds(builtin("sinr"), LogNormal(-20.0, 1.0), Exponential(1e-6), include_independent=True)
        assert res.upper == pytest.approx(reference, abs=res.upper_err)

    def test_modular_collapses(self):
        cost = builtin("additive")
        res = bounds(cost, E1, E2, _classified(cost, E1, E2), include_independent=True)
        assert res.classification_used == "modular"
        assert res.lower == res.upper == res.independent
        assert res.lower_err == res.upper_err == res.independent_err
        assert res.lower == pytest.approx(1.5, abs=1e-6)

    def test_requires_report(self):
        with pytest.raises(TypeError):
            bounds(builtin("sinr"), E1, E2, None)

    def test_refuses_unusable_classification(self):
        wave = CostFunction(name="wave", fn=lambda x, y: np.sin(x) * np.sin(y))
        report = check_cross_difference(wave, (0.0, 10.0, 0.0, 10.0), n=32)
        with pytest.raises(ClassificationError, match="neither"):
            bounds(wave, E1, E2, report)

    @staticmethod
    def _kinked(scale):
        # -xy on the 1e-4 classification box of Exp(1)^2, whose top is 9.21; above 9.3 in both
        # inputs a supermodular term takes over, so the comonotonic lower end lands above the upper.
        return CostFunction(name="kinked", fn=lambda x, y: scale * (
            -x * y + 1e5 * np.maximum(x - 9.3, 0.0) * np.maximum(y - 9.3, 0.0)))

    @pytest.mark.parametrize("scale", [1e100, 1e10, 1.0, 1e-6, 1e-14, 1e-100, 1e-200])
    def test_refuses_inverted_bounds(self, scale):
        # lower 16.27 > upper -0.355 times the scale: the box reads submodular, the support does not.
        # The slack has no absolute floor, so the refusal must not depend on the scale.
        with pytest.raises(ClassificationError, match="inverted"):
            classified_bounds(self._kinked(scale), E1, E1)

    @pytest.mark.parametrize("spec, fx, fy, must_return", [
        ("sum_rate", Bernoulli(0.0), Bernoulli(1e-15), False),
        ("sum_rate", Bernoulli(1e-300), Bernoulli(1e-15), False),
        ("sum_rate", Bernoulli(1e-17), Bernoulli(1e-15), False),
        ("sum_rate", Bernoulli(1e-16), Bernoulli(1e-15), False),
        ("sum_rate", Uniform(0.0, 1e-12), Bernoulli(1e-15), False),
        ("product", Bernoulli(0.9999999999999999), Uniform(0.0, 1e7), True),
        ("mac_rate1:s=0.5", Uniform(0.0, 1e-12), Bernoulli(1e-16), True),
    ], ids=["sum_rate-bern0", "sum_rate-bern1e-300", "sum_rate-bern1e-17", "sum_rate-bern1e-16",
            "sum_rate-unif1e-12", "product-1ulp-at-5e6", "mac_rate1-2ulp-at-1.4e-12"])
    def test_inversion_slack_is_errors_plus_rounding(self, spec, fx, fy, must_return):
        # An interval is returned only if lower - upper <= lower_err + upper_err + 8 eps (|lower| +
        # |upper|).  The sum_rate cases lose mass above 1 - 2^-53 on a bounded axis (ROADMAP item
        # 15(d)) and compute intervals inverted by 5.55e-17 against errors of at most 7.3e-24; the last
        # two are inverted by one and two ulps with errors of 0 and 2e-28, which only the rounding term
        # admits.
        try:
            res = classified_bounds(builtin(spec), fx, fy)
        except ClassificationError as exc:
            assert not must_return and "inverted" in str(exc)
            return
        slack = res.lower_err + res.upper_err + 8 * np.finfo(float).eps * (abs(res.lower) + abs(res.upper))
        assert res.lower - res.upper <= slack

    def test_independent_omitted_by_default(self):
        cost = builtin("sinr")
        res = bounds(cost, E1, E2, _classified(cost, E1, E2))
        assert res.independent is res.independent_err is None

    @pytest.mark.parametrize("fx, expected", [
        (LogNormal(0.0, 1.0), math.exp(1.0)),
        (LogNormal(0.0, 1.5), math.exp(2.25)),
        (LogNormal(0.0, 2.0), math.exp(4.0)),
        (Exponential(1e5), 1e-10),
    ], ids=["lognormal-1", "lognormal-1.5", "lognormal-2", "exp-1e5"])
    def test_independent_error_covers_the_closed_form(self, fx, expected):
        # E[XY] = E[X]^2 for independent copies; the printed error must reach the truth.
        res = classified_bounds(builtin("product"), fx, fx, include_independent=True)
        assert abs(res.independent - expected) <= res.independent_err

    def test_ordering_across_battery(self):
        battery = [Exponential(1.0), Uniform(0.2, 3.0), Rayleigh(1.0), Nakagami(2.0, 1.5), LogNormal(0.0, 0.5)]
        costs = [builtin(n) if n != "mac_rate1" else builtin(n, s=1.0) for n in
                 ("sinr", "mac_rate1", "sum_rate", "prop_fair", "product")]
        for cost in costs:
            for fx, fy in zip(battery, battery[1:] + battery[:1]):
                res = bounds(cost, fx, fy, _classified(cost, fx, fy), include_independent=True)
                slack = res.lower_err + res.upper_err
                assert res.lower <= res.independent + slack
                assert res.independent <= res.upper + slack


class TestSweep:
    def test_rate_sweep_rows(self):
        rows = bounds_sweep(
            lambda p: builtin("mac_rate1", snr_db=p), [-5.0, 0.0, 5.0], E1, E1
        )
        assert len(rows) == 3
        for res in rows:
            assert isinstance(res, BoundsResult)
            assert res.lower < res.independent < res.upper
        lows = [r.lower for r in rows]
        highs = [r.upper for r in rows]
        inds = [r.independent for r in rows]
        for series in (lows, highs, inds):
            assert all(a < b for a, b in zip(series, series[1:]))

    def test_vanishing_signal_limit(self):
        (res,) = bounds_sweep(lambda p: builtin("mac_rate1", s=p), [1e9], E1, E1)
        assert max(abs(res.lower), abs(res.upper), abs(res.independent)) < 1e-8

    @staticmethod
    def _mixed(p):
        # One function whose weight w cycles in sign through -, + and 0, so the
        # rows cycle through a submodular, a supermodular and a modular cost.
        return CostFunction(name="mixed", fn=_mixed_fn, params={"w": (1.0 + p) * (-1.0, 1.0, 0.0)[int(p) % 3]})

    def test_each_row_matches_classified_bounds(self):
        params = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        fy = Rayleigh(0.8)
        rows = bounds_sweep(self._mixed, params, E1, fy)
        assert len(rows) == len(params)
        assert {r.classification_used for r in rows} == {"submodular", "supermodular", "modular"}
        for p, got in zip(params, rows):
            alone = classified_bounds(self._mixed(p), E1, fy, include_independent=True)
            assert got.classification_used == alone.classification_used
            assert got.lower == pytest.approx(alone.lower, rel=1e-12)
            assert got.upper == pytest.approx(alone.upper, rel=1e-12)
            assert got.independent == pytest.approx(alone.independent, rel=1e-12)
            assert got.lower_err == pytest.approx(alone.lower_err, rel=1e-6)
            assert got.upper_err == pytest.approx(alone.upper_err, rel=1e-6)
            assert got.independent_err == pytest.approx(alone.independent_err, rel=1e-6)
            assert got.truncation_bound == pytest.approx(alone.truncation_bound, rel=1e-6)

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 7.5, 20.0])
    @pytest.mark.parametrize("fx, fy", [
        (E1, E1), (E1, Rayleigh(0.8)), (Uniform(0.0, 2.0), LogNormal(0.0, 0.5)), (Bernoulli(0.3), E2),
        (Rician(1.5, 0.6), Nakagami(1.5, 1.0)),
    ], ids=["exp-exp", "exp-rayleigh", "uniform-lognormal", "bernoulli-exp", "rician-nakagami"])
    def test_one_row_sweep_is_its_single_query(self, fx, fy, snr_db):
        # A row alone on each worklist is integrated panel for panel as the single query is.
        def cost(p):
            return builtin("mac_rate1", snr_db=p)

        single = classified_bounds(cost(snr_db), fx, fy, include_independent=True)
        assert bounds_sweep(cost, [snr_db], fx, fy) == [single]

    def test_sweep_of_a_fixed_builtin(self):
        # Every build of a builtin shares its function, so the one-function
        # rule passes; the two rows share a panel batch, hence rel 1e-12.
        rows = bounds_sweep(lambda p: builtin("sinr"), [0.0, 1.0], E1, E2)
        assert len(rows) == 2
        alone = classified_bounds(builtin("sinr"), E1, E2, include_independent=True)
        for got in rows:
            assert got.classification_used == alone.classification_used
            for key in ("lower", "upper", "independent"):
                assert getattr(got, key) == pytest.approx(getattr(alone, key), rel=1e-12)

    def test_empty_sweep(self):
        assert bounds_sweep(self._mixed, [], E1, E1) == []

    def test_one_unclassified_row_aborts(self):
        # sin(a x) sin(a y) rises on the working box for a = 0.1 and 0.15
        # (supermodular) and swings for a = 1 (neither).
        def factory(a):
            return CostFunction(name="wave", fn=_wave_fn, params={"a": a})

        assert classified_bounds(factory(0.1), E1, E1).classification_used == "supermodular"
        with pytest.raises(ClassificationError, match="neither"):
            bounds_sweep(factory, [0.1, 0.15, 1.0, 0.12], E1, E1)

    @pytest.mark.parametrize("other", [
        CostFunction(name="mixed", fn=lambda x, y, w: x + y + w * np.log1p(x) * np.log1p(y), params={"w": 1.0}),
        CostFunction(name="mixed", fn=_mixed_fn, params={"v": 1.0}),
    ], ids=["function", "parameter-names"])
    def test_rows_of_two_cost_functions_fail_before_any_work(self, monkeypatch, other):
        def no_work(*args, **kwargs):
            raise AssertionError("classified or integrated a sweep of two cost functions")

        monkeypatch.setattr(transport, "check_cross_difference", no_work)
        monkeypatch.setattr(transport, "_gk_worklist", no_work)
        with pytest.raises(ValueError, match=r"^a sweep's rows must be one cost function with different "
                                             r"parameters; the row for parameter 2\.0 "):
            bounds_sweep(lambda p: other if p == 2.0 else self._mixed(p), [0.0, 1.0, 2.0, 3.0], E1, E1)

    def test_subdivision_budget_is_per_row(self, monkeypatch):
        # Each row fits the budget alone but needs more than half of it,
        # so the three rows together need more than one budget holds.
        monkeypatch.setattr(transport, "_MAX_SUBDIVISIONS", 700)
        rate = builtin("mac_rate1", s=1.0).fn

        def factory(s):
            # mac_rate1's function throughout; at s = 0 it takes s = inf,
            # the rate at zero SNR, which is the constant 0: a modular cost.
            return CostFunction(name="mac_rate1", fn=rate, params={"s": s or math.inf})

        params = [0.1, 1.0, 10.0]
        alone = [classified_bounds(factory(s), E1, E1, include_independent=True) for s in params]
        with monkeypatch.context() as half:
            half.setattr(transport, "_MAX_SUBDIVISIONS", 350)
            for s in params:
                with pytest.raises(QuadratureError, match="subdivisions"):
                    classified_bounds(factory(s), E1, E1, include_independent=True)
        rows = bounds_sweep(factory, params, E1, E1)
        for row, res in zip(rows, alone):
            assert row.independent == pytest.approx(res.independent, rel=1e-12)
        # A row that cannot converge alone still fails inside the sweep, and
        # the sweep names it; the modular row (0) sits only on the
        # comonotonic worklist, so the failing independent worklist
        # numbers its rows differently from ``params``.
        with pytest.raises(QuadratureError, match=r"subdivisions \(\d+ panels open\)$"):
            classified_bounds(factory(0.01), E1, E1, include_independent=True)
        with pytest.raises(QuadratureError, match=r"subdivisions .* in the row for parameter 0\.01$"):
            bounds_sweep(factory, [0.0] + params + [0.01], E1, E1)

    def test_failure_of_no_row_is_reraised_unchanged(self):
        # A non-finite integrand is no row's budget running out: the sweep re-raises it as it is.
        def wall(x, y, a):
            return np.where(x > 10.0, np.inf, a * x + y)

        with pytest.raises(QuadratureError, match=r"^integrand returned a non-finite value at u=0\.99996\d*$") as info:
            bounds_sweep(lambda a: CostFunction("wall", wall, params={"a": a}), [1.0, 2.0], E1, E1)
        assert info.value.row is None

    @pytest.mark.xfail(strict=True, reason="_panel_estimates sums K15 and G7 with BLAS dgemv, so a panel's "
                                           "rounding depends on its row in the batch and on the kernel")
    def test_fig2_rows_are_bit_identical_to_their_single_calls(self):
        # The sweep of `reproduce fig2`: each row shares its worklist with
        # the other 25, and should still equal the bound computed alone.
        params = [float(p) for p in range(-5, 21)]
        rows = bounds_sweep(lambda p: builtin("mac_rate1", snr_db=p), params, E1, E1)
        differing = [
            p for p, row in zip(params, rows)
            if row != classified_bounds(builtin("mac_rate1", snr_db=p), E1, E1, include_independent=True)
        ]
        assert differing == []

    def test_sweep_of_one_builtin_calls_its_cost_once_per_pass(self, monkeypatch):
        # 26 rows sharing one function: each worklist pass evaluates all of
        # its open rows with one call and a per-panel column of s, not one
        # call per row.  Outer passes of the nested integral hold the inner
        # worklists' passes and are not counted themselves.
        calls = []
        call = CostFunction.__call__

        def counted(cost, x, y):
            calls.append(cost)
            return call(cost, x, y)

        per_pass = []
        estimates = transport._panel_estimates

        def counting_estimates(*args):
            before, nested = len(calls), len(per_pass)
            result = estimates(*args)
            if len(per_pass) == nested:
                per_pass.append(len(calls) - before)
            return result

        monkeypatch.setattr(CostFunction, "__call__", counted)
        monkeypatch.setattr(transport, "_panel_estimates", counting_estimates)
        rows = bounds_sweep(lambda p: builtin("mac_rate1", snr_db=p), np.arange(-5.0, 21.0), E1, E1)
        assert len(rows) == 26
        assert len(per_pass) > 400
        assert set(per_pass) == {1}

    def test_mac_rate1_takes_a_parameter_column(self):
        rng = np.random.default_rng(3)
        x, y = rng.exponential(size=(2, 4, 15))
        s = np.array([[0.01], [0.5], [1.0], [30.0]])
        column = CostFunction("mac_rate1", builtin("mac_rate1", s=1.0).fn, params={"s": s})(x, y)
        for k in range(4):
            assert (column[k] == builtin("mac_rate1", s=float(s[k, 0]))(x[k], y[k])).all()
