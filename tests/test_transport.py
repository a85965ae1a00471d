"""Quadrature engine and coupling expectations against frozen oracles."""

import math

import numpy as np
import pytest

from depbound.costs import CostFunction, builtin
from depbound.marginals import Exponential, LogNormal, Nakagami, Rayleigh, Uniform
from depbound.monge import check_cross_difference
from depbound.transport import (
    BoundsResult,
    ClassificationError,
    QuadratureConfig,
    QuadratureError,
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

    def test_subdivision_budget_raises(self):
        cfg = QuadratureConfig(max_subdivisions=4)
        with pytest.raises(QuadratureError, match="subdivisions"):
            adaptive_quadrature(lambda x: np.sign(x - 1 / math.pi) * np.exp(x), 0.0, 1.0, cfg)

    def test_empty_interval(self):
        assert adaptive_quadrature(np.exp, 1.0, 1.0) == (0.0, 0.0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(np.exp, 1.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_eps=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(truncation_eps=0.01)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)


class TestCouplingExpectations:
    def test_additive_is_coupling_free(self):
        cost = builtin("additive")
        expected = E1.mean() + E2.mean()
        assert comonotonic_expectation(cost, E1, E2).value == pytest.approx(expected, abs=1e-6)
        assert countermonotonic_expectation(cost, E1, E2).value == pytest.approx(expected, abs=1e-6)
        assert independent_expectation(cost, E1, E2).value == pytest.approx(expected, abs=1e-6)

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

    def test_truncation_consistency(self):
        # Halving eps must move each value by less than the reported bound.
        half = QuadratureConfig(truncation_eps=0.5e-9)
        for cost, fx, fy in [
            (builtin("sinr"), E1, E2),
            (builtin("additive"), E1, E2),
            (builtin("product"), E1, E1),
        ]:
            for compute in (comonotonic_expectation, countermonotonic_expectation):
                base = compute(cost, fx, fy)
                moved = compute(cost, fx, fy, half)
                assert abs(moved.value - base.value) < max(base.truncation, 1e-13)
        base = independent_expectation(builtin("sinr"), E1, E2)
        moved = independent_expectation(builtin("sinr"), E1, E2, half)
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

    def test_modular_collapses(self):
        cost = builtin("additive")
        res = bounds(cost, E1, E2, _classified(cost, E1, E2), include_independent=True)
        assert res.classification_used == "modular"
        assert res.lower == res.upper == res.independent
        assert res.lower == pytest.approx(1.5, abs=1e-6)

    def test_requires_report(self):
        with pytest.raises(TypeError):
            bounds(builtin("sinr"), E1, E2, None)

    def test_refuses_unusable_classification(self):
        wave = CostFunction(name="wave", fn=lambda x, y: np.sin(x) * np.sin(y))
        report = check_cross_difference(wave, (0.0, 10.0, 0.0, 10.0), n=32)
        with pytest.raises(ClassificationError, match="neither"):
            bounds(wave, E1, E2, report)

    def test_independent_omitted_by_default(self):
        cost = builtin("sinr")
        res = bounds(cost, E1, E2, _classified(cost, E1, E2))
        assert res.independent is None

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
        assert [r.param for r in rows] == [-5.0, 0.0, 5.0]
        for row in rows:
            res = row.result
            assert isinstance(res, BoundsResult)
            assert res.lower < res.independent < res.upper
        lows = [r.result.lower for r in rows]
        highs = [r.result.upper for r in rows]
        inds = [r.result.independent for r in rows]
        for series in (lows, highs, inds):
            assert all(a < b for a, b in zip(series, series[1:]))

    def test_vanishing_signal_limit(self):
        rows = bounds_sweep(
            lambda p: builtin("mac_rate1", s=p), [1e9], E1, E1, include_independent=True
        )
        res = rows[0].result
        assert max(abs(res.lower), abs(res.upper), abs(res.independent)) < 1e-8
