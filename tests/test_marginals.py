"""Marginal families: round trips, closed-form moments, sampling."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import special

from depbound.marginals import (
    Bernoulli,
    Exponential,
    LogNormal,
    Nakagami,
    Rayleigh,
    Rician,
    Uniform,
    parse_marginal,
)
from depbound.transport import unit_quadrature

FAMILIES = [
    Exponential(1.0),
    Exponential(2.7),
    Uniform(-1.0, 3.0),
    Uniform(0.0, 1.0),
    Rayleigh(0.7),
    Nakagami(0.5, 1.0),
    Nakagami(2.0, 1.5),
    LogNormal(0.2, 0.8),
    Rician(0.0, 1.0),
    Rician(1.5, 0.6),
    Rician(8.0, 1.0),
]

@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: f"{d.name}-{hash(d) & 0xffff:04x}")
def test_quantile_cdf_round_trip(dist):
    u = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    x = dist.quantile(u)
    assert np.all(np.diff(x) >= 0.0)
    back_u = dist.cdf(x)
    assert np.max(np.abs(back_u - u)) < 1e-9
    x2 = dist.quantile(back_u)
    rel = np.abs(x2 - x) / np.maximum(np.abs(x), 1e-12)
    assert np.max(rel) < 1e-9


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
def test_quantile_rejects_boundary(dist):
    for bad in (0.0, 1.0, -0.2, 1.3, np.nan, np.inf, -np.inf, [0.5, 1.0], [0.0, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="open interval"):
            dist.quantile(bad)
    assert dist.quantile(np.array([])).size == 0
    assert isinstance(dist.quantile(0.5), float)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
def test_cdf_rejects_non_finite(dist):
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            dist.cdf(bad)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
def test_cdf_below_support_is_zero(dist):
    assert dist.cdf(-5.0) == 0.0 or isinstance(dist, Uniform)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: d.name)
def test_quantile_integral_matches_mean(dist):
    integral = unit_quadrature(dist.quantile).value
    assert integral == pytest.approx(dist.mean(), rel=1e-6)


@pytest.mark.parametrize("dist", FAMILIES, ids=lambda d: f"{d.name}-{hash(d) & 0xffff:04x}")
def test_sample_mean_clt(dist):
    # The Monte Carlo oracle's draw: uniforms floored at 2^-53, then quantile.
    u = np.maximum(np.random.default_rng(90125).random(1_000_000), 2.0**-53)
    draws = dist.quantile(u)
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - dist.mean()) < 4.0 * stderr


def test_rician_k_zero_is_rayleigh():
    ric = Rician(0.0, 0.8)
    ray = Rayleigh(0.8)
    x = np.linspace(0.01, 5.0, 200)
    np.testing.assert_allclose(ric.cdf(x), ray.cdf(x), atol=1e-12)
    u = np.linspace(1e-6, 1.0 - 1e-6, 200)
    np.testing.assert_allclose(ric.quantile(u), ray.quantile(u), rtol=1e-10)


@pytest.mark.parametrize("k,scale", [(0.5, 1.0), (1.5, 1.0), (4.0, 0.7)])
def test_rician_mean_matches_bessel_form(k, scale):
    # E[X] = scale * sqrt(pi/2) * exp(-k/2) * ((1+k) I0(k/2) + k I1(k/2))
    half = k / 2.0
    expected = (
        scale
        * math.sqrt(math.pi / 2.0)
        * math.exp(-half)
        * ((1.0 + k) * special.iv(0, half) + k * special.iv(1, half))
    )
    assert Rician(k, scale).mean() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k,scale", [(1.5, 0.6), (8.0, 1.0)])
def test_rician_left_tail_matches_asymptote(k, scale):
    # For small x, F(x) ~ exp(-k) x^2 / (2 scale^2), so the quantile at
    # tiny u is scale * sqrt(2 u e^k) up to relative corrections of order u e^k.
    u = 1e-12
    expected = scale * math.sqrt(2.0 * u * math.exp(k))
    assert Rician(k, scale).quantile(u) == pytest.approx(expected, rel=1e-7)


def test_nakagami_m_one_is_rayleigh():
    nak = Nakagami(1.0, 2.0)
    ray = Rayleigh(1.0)
    x = np.linspace(0.01, 6.0, 300)
    np.testing.assert_allclose(nak.cdf(x), ray.cdf(x), rtol=1e-12, atol=1e-15)
    assert nak.mean() == pytest.approx(ray.mean(), rel=1e-12)


@pytest.mark.parametrize("dist,inverse", [(Rician(8.0, 1.0), "chndtrix"), (Nakagami(2.5, 1.0), "gammaincinv")])
def test_iterative_quantiles_invert_each_distinct_level_once(dist, inverse, monkeypatch):
    # The nested independent integral hands qy one row of inner levels per outer node.
    tile = np.tile(np.linspace(0.02, 0.98, 15), (40, 1))
    expected = np.array([[dist.quantile(float(u)) for u in row] for row in tile])
    sizes = []
    real = getattr(special, inverse)
    monkeypatch.setattr(special, inverse, lambda *args: sizes.append(np.broadcast(*args).size) or real(*args))
    got = dist.quantile(tile)
    assert sizes == [15]
    assert got.shape == tile.shape
    assert got.tobytes() == expected.tobytes()


def test_lognormal_mean():
    assert LogNormal(0.3, 1.1).mean() == pytest.approx(math.exp(0.3 + 1.1**2 / 2), rel=1e-14)


@pytest.mark.parametrize(
    "text,cls,attrs",
    [
        ("exp:1.5", Exponential, {"rate": 1.5}),
        ("uniform:-1,2", Uniform, {"low": -1.0, "high": 2.0}),
        ("rayleigh:0.9", Rayleigh, {"sigma": 0.9}),
        ("nakagami:2,1.5", Nakagami, {"m": 2.0, "omega": 1.5}),
        ("lognormal:0.1,0.7", LogNormal, {"mu": 0.1, "sigma": 0.7}),
        ("rician:2,0.5", Rician, {"k": 2.0, "scale": 0.5}),
        ("EXP:1", Exponential, {"rate": 1.0}),
    ],
)
def test_parse_marginal(text, cls, attrs):
    dist = parse_marginal(text)
    assert isinstance(dist, cls)
    for key, val in attrs.items():
        assert getattr(dist, key) == val


@pytest.mark.parametrize(
    "text",
    ["weibull:1", "exp", "exp:", "exp:a", "exp:1,2", "uniform:3", "uniform:2,1", "rician:-1,1"],
)
def test_parse_marginal_rejects(text):
    with pytest.raises(ValueError):
        parse_marginal(text)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Uniform(2.0, 2.0),
        lambda: Rayleigh(0.0),
        lambda: Nakagami(0.3, 1.0),
        lambda: Nakagami(1.0, 0.0),
        lambda: LogNormal(0.0, 0.0),
        lambda: Rician(-0.1, 1.0),
        lambda: Rician(1.0, 0.0),
        lambda: Exponential(float("nan")),
        lambda: Bernoulli(-0.1),
        lambda: Bernoulli(1.5),
        lambda: Bernoulli(float("nan")),
        lambda: Uniform(0.0, float("inf")),
        lambda: LogNormal(float("nan"), 1.0),
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize(
    "dist",
    [Exponential(1.0), Uniform(0.0, 1.0), Rayleigh(1.0), Nakagami(1.0, 1.0),
     LogNormal(0.0, 1.0), Rician(1.0, 1.0), Bernoulli(0.5)],
    ids=lambda dist: dist.name,
)
def test_invalid_parameters_raise_on_infinity(dist, value):
    # Each parameter in turn: the message names the family, the parameter
    # and the rule, which always starts with "finite".
    for field in fields(dist):
        with pytest.raises(ValueError, match=rf"^{dist.name}: {field.name} must be finite\b.*got {value!r}$"):
            replace(dist, **{field.name: value})


def test_bernoulli_steps_at_its_breakpoint():
    b = Bernoulli(0.3)
    assert b.breakpoints == (0.7,) and b.support == (0.0, 1.0) and b.mean() == 0.3
    assert b.quantile(np.array([1e-12, 0.7, np.nextafter(0.7, 1.0), 1.0 - 1e-12])).tolist() == [0, 0, 1, 1]
    assert b.cdf(np.array([-1.0, 0.0, 0.5, 1.0, 3.0])).tolist() == [0.0, 0.7, 0.7, 1.0, 1.0]
    assert isinstance(b.quantile(0.5), float)
    # A point mass has no step inside (0, 1).
    assert Bernoulli(0.0).breakpoints == Bernoulli(1.0).breakpoints == ()
    assert Bernoulli(0.0).quantile(1.0 - 1e-12) == 0.0 and Bernoulli(1.0).quantile(1e-12) == 1.0
    assert unit_quadrature(b.quantile).value == pytest.approx(0.3, abs=1e-8)


# Each quantile finished in place, against its textbook expression: the
# same IEEE operations, so the same bits on every shape a caller passes.
# Nakagami, Rician and Bernoulli compute apart and copy into ``out``.
_TEXTBOOK_QUANTILES = [
    pytest.param(dist, textbook, id=dist.name)
    for dist, textbook in [
        (Exponential(2.7), lambda d, u: -np.log1p(-u) / d.rate),
        (Uniform(-1.0, 3.0), lambda d, u: d.low + (d.high - d.low) * u),
        (Rayleigh(0.7), lambda d, u: d.sigma * np.sqrt(-2.0 * np.log1p(-u))),
        (LogNormal(0.2, 0.8), lambda d, u: np.exp(d.mu + d.sigma * special.ndtri(u))),
        (Nakagami(1.7, 0.9), lambda d, u: np.sqrt(d.omega / d.m * special.gammaincinv(d.m, u))),
        (Rician(2.5, 0.6), lambda d, u: d.scale * np.sqrt(special.chndtrix(u, 2.0, 2.0 * d.k))),
        (Bernoulli(0.3), lambda d, u: (u > 1.0 - d.p).astype(float)),
    ]
]


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


@pytest.mark.parametrize("dist, textbook", _TEXTBOOK_QUANTILES)
@pytest.mark.parametrize("shape", [(1000,), (40, 15), (40, 1)], ids=str)
def test_quantile_is_its_textbook_expression_bit_for_bit(dist, textbook, shape):
    u = np.maximum(np.random.default_rng(5).random(shape), 2.0**-53)
    u.flat[:3] = 2.0**-53, 0.5, 1.0 - 2.0**-53
    before = u.copy()
    got, want = dist.quantile(u), textbook(dist, u)
    assert isinstance(got, np.ndarray) and got.shape == want.shape == shape
    assert _hex(got) == _hex(want)
    buf = np.empty(shape)
    assert dist.quantile(u, out=buf) is buf
    assert _hex(buf) == _hex(got)
    np.testing.assert_array_equal(u, before)


@pytest.mark.parametrize("dist, textbook", _TEXTBOOK_QUANTILES)
@pytest.mark.parametrize("level", [0.3, np.asarray(0.3), 2.0**-53, np.asarray(1.0 - 2.0**-53)], ids=repr)
def test_scalar_quantile_is_its_textbook_expression_and_a_float(dist, textbook, level):
    got = dist.quantile(level)
    assert type(got) is float
    assert float.hex(got) == float.hex(float(textbook(dist, np.asarray(level))))
