"""Marginal families: round trips, closed-form moments, sampling."""

import math

import numpy as np
import pytest
from scipy import special

from depbound.marginals import (
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
    for bad in (0.0, 1.0, -0.2, 1.3, np.nan):
        with pytest.raises(ValueError):
            dist.quantile(bad)
    with pytest.raises(ValueError):
        dist.quantile(np.array([0.5, 1.0]))


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
    rng = np.random.default_rng(90125)
    draws = dist.sample(rng, 1_000_000)
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - dist.mean()) < 4.0 * stderr


def test_sample_is_deterministic_given_generator_state():
    a = Rayleigh(1.3).sample(np.random.default_rng(7), 1000)
    b = Rayleigh(1.3).sample(np.random.default_rng(7), 1000)
    np.testing.assert_array_equal(a, b)


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
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(ValueError):
        bad()
