"""Builtin cost functions: values, partials, parsing, domain checks."""

import math

import numpy as np
import pytest

from depbound.costs import CostFunction, builtin, parse_cost

ALL_NAMES = ["sinr", "mac_rate1", "sum_rate", "secret_key", "prop_fair", "product", "additive"]


def _make(name):
    return builtin(name, s=1.0) if name == "mac_rate1" else builtin(name)


def test_point_values():
    assert _make("sinr")(1.0, 1.0) == pytest.approx(0.5)
    assert _make("sinr")(3.0, 0.0) == pytest.approx(3.0)
    assert _make("mac_rate1")(1.0, 0.0) == pytest.approx(1.0)
    assert _make("mac_rate1")(3.0, 0.0) == pytest.approx(2.0)
    assert _make("sum_rate")(1.0, 2.0) == pytest.approx(2.0)
    assert _make("prop_fair")(math.e - 1.0, math.e - 1.0) == pytest.approx(1.0)
    assert _make("product")(3.0, 4.0) == 12.0
    assert _make("additive")(3.0, 4.0) == 7.0


def test_secret_key_equals_unit_noise_mac_rate():
    sk = _make("secret_key")
    mac = builtin("mac_rate1", s=1.0)
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 20, 200)
    y = rng.uniform(0, 20, 200)
    np.testing.assert_array_equal(sk(x, y), mac(x, y))
    np.testing.assert_array_equal(sk.cross_partial(x, y), mac.cross_partial(x, y))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_each_builtin_is_built_from_one_function(name):
    # Two builds share their function objects, so a sweep of a fixed
    # builtin passes bounds_sweep's one-function rule.
    first, second = _make(name), _make(name)
    assert first.fn is second.fn
    assert first.mixed_partial is second.mixed_partial


def test_mac_rate1_snr_db_parameterization():
    assert builtin("mac_rate1", snr_db=0.0).params["s"] == pytest.approx(1.0)
    assert builtin("mac_rate1", snr_db=10.0).params["s"] == pytest.approx(0.1)
    assert builtin("mac_rate1", snr_db=-10.0).params["s"] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        builtin("mac_rate1")
    with pytest.raises(ValueError):
        builtin("mac_rate1", s=1.0, snr_db=0.0)
    with pytest.raises(ValueError):
        builtin("mac_rate1", s=0.0)
    with pytest.raises(ValueError):
        builtin("mac_rate1", s=-2.0)


@pytest.mark.parametrize("snr_db", [-4000.0, -3090.0, -math.inf, math.nan, 4000.0])
def test_snr_db_beyond_float_range_is_value_error(snr_db):
    # 10**(-snr_db/10) overflows a float, is NaN or underflows to 0: a
    # ValueError naming snr_db, not the OverflowError of the power nor an
    # s the caller never passed.
    with pytest.raises(ValueError, match="snr_db"):
        builtin("mac_rate1", snr_db=snr_db)


def test_infinite_s_is_refused_as_not_finite():
    with pytest.raises(ValueError, match="s must be positive and finite, got inf"):
        builtin("mac_rate1", s=math.inf)


@pytest.mark.parametrize(
    "cost",
    [pytest.param(_make(name), id=name) for name in ALL_NAMES]
    + [pytest.param(builtin("mac_rate1", s=0.5), id="mac_rate1-s0.5")],
)
def test_analytic_mixed_partial_matches_finite_difference(cost):
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 9.0, 50)
    y = rng.uniform(0.5, 9.0, 50)
    h = 1e-4
    fd = (cost(x + h, y + h) - cost(x + h, y - h) - cost(x - h, y + h) + cost(x - h, y - h)) / (
        4.0 * h * h
    )
    analytic = cost.cross_partial(x, y)
    np.testing.assert_allclose(analytic, fd, atol=1e-6, rtol=1e-4)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_vectorized_matches_scalar(name):
    cost = _make(name)
    xs = np.array([0.0, 0.3, 2.0, 11.0])
    ys = np.array([0.5, 0.0, 7.0, 0.1])
    vec = cost(xs, ys)
    for i in range(xs.size):
        assert vec[i] == pytest.approx(cost(float(xs[i]), float(ys[i])), rel=1e-15)


def test_cross_partial_without_a_partial_raises():
    with pytest.raises(ValueError, match="has no analytic mixed partial"):
        CostFunction("c", lambda x, y: x * y).cross_partial(1.0, 2.0)


def test_results_broadcast_over_the_arguments():
    # A value or partial that ignores an argument still gives one value per point.
    x = np.linspace(0.0, 1.0, 3)[:, None]
    y = np.linspace(0.0, 1.0, 4)[None, :]
    const = CostFunction(name="const", fn=lambda x, y: 2.5, mixed_partial=lambda x, y: 0.0)
    sinr, product = _make("sinr"), _make("product")
    for values, expected in [
        (const(x, y), 2.5),
        (const.cross_partial(x, y), 0.0),
        (product.cross_partial(x, y), 1.0),
        (sinr.cross_partial(x, y), -1.0 / (1.0 + y) ** 2),
    ]:
        assert np.shape(values) == (3, 4)
        np.testing.assert_array_equal(values, np.broadcast_to(expected, (3, 4)))
    assert np.shape(const(1.0, 2.0)) == ()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_domain_validation(name):
    cost = _make(name)
    for bad_pair in [(-1.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.inf)]:
        with pytest.raises(ValueError):
            cost(*bad_pair)
    with pytest.raises(ValueError):
        cost(np.array([1.0, -0.5]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("x, y, message", [
    ([1.0, -0.5], [1.0, 1.0], "nonnegative"),
    ([1.0, 1.0], [2.0, -0.0, -1e-300], "nonnegative"),
    ([1.0, np.nan], [1.0, 1.0], "finite"),
    ([1.0, 1.0], [np.nan, 2.0], "finite"),
    # Finiteness is checked first: a NaN beside a negative value, in
    # either argument, is reported as non-finite.
    ([np.nan, 1.0], [1.0, -1.0], "finite"),
    ([1.0, -1.0], [2.0, np.nan], "finite"),
    ([-1.0, np.nan], [1.0, 1.0], "finite"),
    ([np.inf, 1.0], [1.0, 1.0], "finite"),
    ([1.0, 1.0], [-np.inf, 1.0], "finite"),
    ([-np.inf], [1.0], "finite"),
])
def test_domain_check_message(x, y, message):
    with pytest.raises(ValueError, match=f"arguments must be {message}"):
        builtin("product")(np.array(x), np.array(y))


def test_domain_check_passes_empty_and_zero():
    cost = builtin("additive")
    assert cost(np.array([]), np.array([])).size == 0
    assert cost(np.zeros(3), -np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    # An empty argument checks nothing, but its partner is still checked.
    with pytest.raises(ValueError, match="nonnegative"):
        cost(np.array([]), -1.0)


def test_parse_cost():
    for parse in (parse_cost, builtin):
        assert parse("sinr").name == "sinr"
        assert parse("mac_rate1:s=0.5").params["s"] == 0.5
        assert parse("mac_rate1:snr_db=3").params["s"] == pytest.approx(10 ** (-0.3))
        assert parse("SINR").name == "sinr"


@pytest.mark.parametrize("text", ["nope", "mac_rate1:s", "mac_rate1:s=x", "sinr:k=1", "mac_rate1:q=1"])
def test_parse_cost_rejects(text):
    for parse in (parse_cost, builtin):
        with pytest.raises(ValueError):
            parse(text)


@pytest.mark.parametrize("key", ["s", "params"])
def test_a_fixed_cost_takes_no_parameters(key):
    # Not even a keyword of CostFunction itself.
    with pytest.raises(ValueError, match=rf"^cost 'sinr' does not take parameters \['{key}'\]$"):
        builtin(f"sinr:{key}=1")


def test_parse_cost_is_builtin():
    assert parse_cost is builtin


def test_spec_and_keyword_parameters_join():
    assert builtin("MAC_RATE1", snr_db=3).params == builtin("mac_rate1:snr_db=3").params
    # A swept keyword the spec also sets would otherwise be overridden on every row.
    with pytest.raises(ValueError, match="'snr_db' is given twice"):
        builtin("mac_rate1:snr_db=3", snr_db=5)
    with pytest.raises(ValueError, match="'s' is given twice"):
        builtin("mac_rate1:s=1,s=2")


def test_repr_mentions_parameters():
    assert "s=0.5" in repr(builtin("mac_rate1", s=0.5))
    assert "sinr" in repr(builtin("sinr"))


# Each builtin finished in place, against its textbook expression: the same
# IEEE operations in the same order, so the same bits on every shape.
_TEXTBOOK_COSTS = {
    "sinr": lambda x, y: x / (1.0 + y),
    "sum_rate": lambda x, y: np.log1p(x + y) / math.log(2.0),
    "secret_key": lambda x, y: np.log1p(x / (1.0 + y)) / math.log(2.0),
    "mac_rate1": lambda x, y: np.log1p(x / (0.37 + y)) / math.log(2.0),
    "prop_fair": lambda x, y: np.log1p(x) * np.log1p(y),
}


def _in_place_builtin(name):
    return builtin(name, s=0.37) if name == "mac_rate1" else builtin(name)


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def _gains(shape, seed):
    g = np.random.default_rng(seed).exponential(2.0, shape)
    g.flat[:3] = 0.0, 1e-300, 1e300
    return g


@pytest.mark.parametrize("name", sorted(_TEXTBOOK_COSTS))
@pytest.mark.parametrize("x_shape, y_shape", [((1000,), (1000,)), ((40, 15), (40, 15)), ((40, 1), (40, 15)),
                                              ((40, 15), (40, 1))], ids=str)
def test_builtin_is_its_textbook_expression_bit_for_bit(name, x_shape, y_shape):
    x, y = _gains(x_shape, 1), _gains(y_shape, 2)
    before = x.copy(), y.copy()
    got, want = _in_place_builtin(name)(x, y), _TEXTBOOK_COSTS[name](x, y)
    assert isinstance(got, np.ndarray) and got.shape == want.shape == np.broadcast(x, y).shape
    assert _hex(got) == _hex(want)
    # A builtin writes only into the array it allocated.
    np.testing.assert_array_equal(x, before[0])
    np.testing.assert_array_equal(y, before[1])


@pytest.mark.parametrize("name", sorted(_TEXTBOOK_COSTS))
@pytest.mark.parametrize("wrap", [float, np.asarray], ids=["float", "0-d"])
def test_scalar_builtin_is_its_textbook_expression_and_a_scalar(name, wrap):
    x, y = wrap(0.3), wrap(2.5)
    got = _in_place_builtin(name)(x, y)
    # numpy's scalar, as ufuncs return it for 0-d input; a Python float is one too.
    assert type(got) is np.float64
    assert float.hex(got) == float.hex(float(_TEXTBOOK_COSTS[name](x, y)))
