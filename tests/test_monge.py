"""Lattice checks: classifications, dual routes, edge handling."""

import dataclasses
import math

import numpy as np
import pytest

from depbound.costs import CostFunction, builtin
from depbound.monge import (
    ClassificationError,
    check_cross_difference,
    check_mixed_partial,
)

BOX = (0.0, 10.0, 0.0, 10.0)

EXPECTED = [
    ("sinr", {}, "submodular"),
    ("mac_rate1", {"s": 0.1}, "submodular"),
    ("mac_rate1", {"s": 1.0}, "submodular"),
    ("mac_rate1", {"s": 10.0}, "submodular"),
    ("sum_rate", {}, "submodular"),
    ("secret_key", {}, "submodular"),
    ("prop_fair", {}, "supermodular"),
    ("product", {}, "supermodular"),
    ("additive", {}, "modular"),
]


# A label is a property of the cost, not of its units: a fixed tolerance
# read 1e-12 * product as modular and 1e12 * additive as neither.
SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)


def _scaled(cost, scale):
    partial = cost.mixed_partial
    return CostFunction(
        name=cost.name,
        fn=lambda x, y, **p: scale * cost.fn(x, y, **p),
        mixed_partial=None if partial is None else lambda x, y, **p: scale * partial(x, y, **p),
        params=cost.params,
    )


@pytest.mark.parametrize("check", [check_cross_difference, check_mixed_partial], ids=["cross", "partial"])
@pytest.mark.parametrize("name,params,expected", EXPECTED, ids=lambda v: str(v))
def test_builtin_classifications(check, name, params, expected):
    for scale in SCALES:
        report = check(_scaled(builtin(name, **params), scale), BOX, n=32)
        assert report.classification == expected, scale
        assert report.violation_count == 0
        assert report.max_violation <= report.tolerance


def test_cost_without_partial_gets_cross_report():
    # A cost without an analytic partial has one route: the cross-difference report, unchanged.
    for box in (BOX, (0.0, 1e5, 0.0, 1.0), (0.0, 1.0, 0.0, 1e5)):
        for name, params, expected in EXPECTED:
            for scale in SCALES:
                cost = _scaled(dataclasses.replace(builtin(name, **params), mixed_partial=None), scale)
                report = check_mixed_partial(cost, box, n=24)
                assert report == check_cross_difference(cost, box, n=24), (box, name, scale)
                assert report.classification == expected, (box, name, scale)
    # Values near 1e-20 on cells whose area, about 2e-322, is subnormal.
    big = CostFunction(name="big", fn=lambda x, y: 1e300 * x * y)
    tiny = (0.0, 1e-160, 0.0, 1e-160)
    report = check_mixed_partial(big, tiny, n=24)
    assert report == check_cross_difference(big, tiny, n=24)
    assert report.classification == "supermodular"


def test_thin_box_keeps_its_interval():
    # On (0.5, 0.5 + 1e-7) x (0, 1) a stencil on cells 2e-4 of each side read sum_rate as modular,
    # and bounds collapsed the interval to a point; the true interval is about 6e-9 wide.
    from depbound.marginals import Uniform
    from depbound.transport import bounds, working_domain

    fx, fy = Uniform(0.5, 0.5 + 1e-7), Uniform(0.0, 1.0)
    cost = dataclasses.replace(builtin("sum_rate"), mixed_partial=None)
    report = check_mixed_partial(cost, working_domain(fx, fy))
    assert report.classification == "submodular"
    result = bounds(cost, fx, fy, report)
    assert result.upper - result.lower > result.lower_err + result.upper_err


def _wave():
    return CostFunction(
        name="wave",
        fn=lambda x, y: np.sin(x) * np.sin(y),
        mixed_partial=lambda x, y: np.cos(x) * np.cos(y),
    )


def test_mixed_signs_in_bulk_is_neither():
    for check in (check_cross_difference, check_mixed_partial):
        report = check(_wave(), BOX, n=64)
        assert report.classification == "neither"
        assert report.violation_count > 0
        assert report.max_violation > 0.0


def test_sparse_minority_sign_is_neither():
    # Uniformly negative cross-difference except one localized step cell:
    # a sign far above rounding is structure, however few cells carry it.
    def fn(x, y):
        bump = ((np.asarray(x) > 5.0) & (np.asarray(y) > 5.0)).astype(float)
        return -1e-6 * x * y + bump

    report = check_cross_difference(CostFunction(name="spike", fn=fn), BOX, n=64)
    assert report.classification == "neither"
    assert 0 < report.violation_count <= 4


def test_bounds_refusal_message_comes_from_classification():
    from depbound.marginals import Exponential
    from depbound.transport import bounds

    report = check_cross_difference(_wave(), BOX, n=32)
    with pytest.raises(ClassificationError):
        bounds(_wave(), Exponential(1.0), Exponential(1.0), report)


def test_cross_difference_sign_convention():
    # product has cross-difference dx*dy > 0: increasing both inputs
    # together beats mixing, the supermodular signature.
    report = check_cross_difference(builtin("product"), (0, 1, 0, 1), n=8)
    assert report.classification == "supermodular"


def test_modular_reports_largest_excursion():
    report = check_cross_difference(builtin("additive"), BOX, n=16)
    assert report.classification == "modular"
    assert report.max_violation < 1e-12


@pytest.mark.parametrize("partial", [None, lambda x, y: 0.0], ids=["no_partial", "analytic"])
@pytest.mark.parametrize("check", [check_cross_difference, check_mixed_partial], ids=["cross", "partial"])
def test_constant_cost_is_modular(check, partial):
    # The cross-difference check indexed the constant's scalar value as
    # a grid and raised TypeError.
    const = CostFunction(name="const", fn=lambda x, y: 1.0, mixed_partial=partial)
    report = check(const, BOX, n=16)
    assert (report.classification, report.max_violation) == ("modular", 0.0)


def test_overflowing_grid_raises_classification_error():
    with pytest.raises(ClassificationError):
        check_cross_difference(builtin("product"), (0.0, 1e200, 0.0, 1e200), n=8)


@pytest.mark.parametrize(
    "domain,n",
    [((1.0, 0.0, 0.0, 1.0), 8), ((0.0, 1.0, 1.0, 1.0), 8), ((0.0, 1.0, 0.0, 1.0), 2), ((0, 1), 8)],
)
def test_grid_validation(domain, n):
    with pytest.raises(ValueError):
        check_cross_difference(builtin("sinr"), domain, n=n)


def test_report_records_grid_metadata():
    report = check_cross_difference(builtin("sinr"), BOX, n=16)
    assert report.domain == BOX
    assert report.resolution == 16
    # The largest cell's rounding bound: sinr peaks at c(10, 0) = 10.
    assert 0.0 < report.tolerance < 8 * np.finfo(float).eps * 4 * 10.0
    assert report.method == "cross_difference"


@pytest.mark.parametrize("n", [64.9, "48"])
def test_grid_resolution_must_be_an_integer(n):
    with pytest.raises(ValueError, match="integer"):
        check_cross_difference(builtin("sinr"), (0, 1, 0, 1), n=n)


def test_numpy_integer_resolution_is_a_python_int():
    report = check_mixed_partial(builtin("sinr"), (0, 1, 0, 1), n=np.int64(48))
    assert report == check_mixed_partial(builtin("sinr"), (0, 1, 0, 1), n=48)
    assert type(report.resolution) is int


def test_modular_worst_on_negative_zeros_is_positive_zero():
    flat = CostFunction("flat", lambda x, y: x + y, lambda x, y: -0.0)
    report = check_mixed_partial(flat, (0, 1, 0, 1))
    assert (report.classification, report.max_violation, report.violation_count) == ("modular", 0.0, 0)
    assert math.copysign(1.0, report.max_violation) == 1.0


def test_neither_reports_the_rarer_sign_and_its_excursion():
    # d2c/dxdy = x - 2y: on the 3x3 grid of the unit box two nodes are
    # positive (largest 1) and five negative (smallest -2).
    cost = CostFunction("mixed", lambda x, y: x * x * y / 2 - x * y * y, lambda x, y: x - 2 * y)
    report = check_mixed_partial(cost, (0, 1, 0, 1), n=3)
    assert (report.classification, report.violation_count, report.max_violation) == ("neither", 2, 1.0)
