"""Parametric marginal distributions with exact quantile transforms.

Every family exposes the same small surface: ``cdf``, ``quantile``,
``mean``, and inverse-transform ``sample``.  The quantile functions are
the workhorse of the whole package: both the coupling integrals and the
Monte Carlo sampler are built on ``quantile(u)`` for uniform ``u``, so
cdf/quantile round-trips have to be tight (1e-9 relative or better away
from the support edges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "Marginal",
    "Exponential",
    "Uniform",
    "Rayleigh",
    "Nakagami",
    "LogNormal",
    "Rician",
    "parse_marginal",
]

# Smallest u passed to quantile() by sample(); keeps ndtri and log1p finite.
_U_FLOOR = 1e-300


def _as_array(x):
    return np.asarray(x, dtype=float)


def _scalar_like(result, *inputs):
    # Return a bare float when every input was scalar; arrays pass through.
    if all(np.ndim(v) == 0 for v in inputs):
        return float(result)
    return result


class Marginal:
    """Common behaviour for one-dimensional marginal families.

    Subclasses implement ``_cdf`` and ``_quantile`` on float arrays and a
    ``mean`` method.  ``quantile`` is the exact inverse of ``cdf`` on the
    interior of the support, which is what makes the coupling constructions
    downstream exact rather than approximate.
    """

    name = "marginal"

    def cdf(self, x):
        """P(X <= x).  Defined on all finite reals; 0 below the support."""
        arr = _as_array(x)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{self.name}: cdf argument must be finite")
        return _scalar_like(self._cdf(arr), x)

    def quantile(self, u):
        """Inverse cdf.  ``u`` must lie strictly inside (0, 1)."""
        arr = _as_array(u)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise ValueError(f"{self.name}: quantile argument must be in the open interval (0, 1)")
        return _scalar_like(self._quantile(arr), u)

    def sample(self, rng, n):
        """Draw ``n`` i.i.d. values by inverse transform of ``rng.random``."""
        if n < 1:
            raise ValueError("sample size must be positive")
        u = np.maximum(rng.random(int(n)), _U_FLOOR)
        return self._quantile(u)

    def mean(self):
        raise NotImplementedError

    def _cdf(self, x):
        raise NotImplementedError

    def _quantile(self, u):
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(Marginal):
    """Exponential with rate ``rate`` (mean ``1/rate``)."""

    rate: float
    name = "exponential"

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError(f"exponential: rate must be positive, got {self.rate!r}")

    def _cdf(self, x):
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def _quantile(self, u):
        # -log1p(-u) keeps full precision for u near 0.
        return -np.log1p(-u) / self.rate

    def mean(self):
        return 1.0 / self.rate


@dataclass(frozen=True)
class Uniform(Marginal):
    """Uniform on the closed interval [low, high]."""

    low: float
    high: float
    name = "uniform"

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("uniform: bounds must be finite")
        if not self.low < self.high:
            raise ValueError(f"uniform: need low < high, got [{self.low}, {self.high}]")

    def _cdf(self, x):
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def _quantile(self, u):
        return self.low + (self.high - self.low) * u

    def mean(self):
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class Rayleigh(Marginal):
    """Rayleigh with scale ``sigma`` (mode), mean ``sigma * sqrt(pi/2)``."""

    sigma: float
    name = "rayleigh"

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"rayleigh: sigma must be positive, got {self.sigma!r}")

    def _cdf(self, x):
        z = np.maximum(x, 0.0) / self.sigma
        return np.where(x > 0.0, -np.expm1(-0.5 * z * z), 0.0)

    def _quantile(self, u):
        return self.sigma * np.sqrt(-2.0 * np.log1p(-u))

    def mean(self):
        return self.sigma * math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class Nakagami(Marginal):
    """Nakagami-m fading envelope.

    Parameters
    ----------
    m : float
        Shape (fading figure), m >= 0.5.  m = 1 is Rayleigh with
        sigma = sqrt(omega/2).
    omega : float
        Spread, the second moment E[X^2].
    """

    m: float
    omega: float
    name = "nakagami"

    def __post_init__(self):
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError(f"nakagami: m must be >= 0.5, got {self.m!r}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"nakagami: omega must be positive, got {self.omega!r}")

    def _cdf(self, x):
        z = np.maximum(x, 0.0)
        return np.where(x > 0.0, special.gammainc(self.m, self.m * z * z / self.omega), 0.0)

    def _quantile(self, u):
        return np.sqrt(self.omega / self.m * special.gammaincinv(self.m, u))

    def mean(self):
        # Gamma(m + 1/2) / Gamma(m) in log space; the ratio overflows early otherwise.
        ratio = math.exp(special.gammaln(self.m + 0.5) - special.gammaln(self.m))
        return ratio * math.sqrt(self.omega / self.m)


@dataclass(frozen=True)
class LogNormal(Marginal):
    """Log-normal: log X ~ Normal(mu, sigma^2)."""

    mu: float
    sigma: float
    name = "lognormal"

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("lognormal: mu must be finite")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"lognormal: sigma must be positive, got {self.sigma!r}")

    def _cdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = special.ndtr((np.log(x[pos]) - self.mu) / self.sigma)
        return out

    def _quantile(self, u):
        return np.exp(self.mu + self.sigma * special.ndtri(u))

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma * self.sigma)


@dataclass(frozen=True)
class Rician(Marginal):
    """Rician fading envelope.

    Parameters
    ----------
    k : float
        Shape factor, the ratio of line-of-sight power to diffuse power,
        k >= 0.  k = 0 reduces exactly to ``Rayleigh(scale)``.
    scale : float
        Per-component sigma of the underlying Gaussian pair.  The
        line-of-sight amplitude is ``scale * sqrt(2 k)``.

    (X / scale)^2 is noncentral chi-square with 2 degrees of freedom and
    noncentrality 2k, so cdf and quantile are scipy's ``chndtr`` and
    ``chndtrix`` on that scale.
    """

    k: float
    scale: float
    name = "rician"

    def __post_init__(self):
        if not (self.k >= 0.0 and math.isfinite(self.k)):
            raise ValueError(f"rician: k must be >= 0, got {self.k!r}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"rician: scale must be positive, got {self.scale!r}")

    @property
    def los_amplitude(self):
        return self.scale * math.sqrt(2.0 * self.k)

    def _cdf(self, x):
        return special.chndtr((np.maximum(x, 0.0) / self.scale) ** 2, 2.0, 2.0 * self.k)

    def _quantile(self, u):
        return self.scale * np.sqrt(special.chndtrix(u, 2.0, 2.0 * self.k))

    def mean(self):
        # scale * sqrt(pi/2) * exp(-k/2) * ((1+k) I0(k/2) + k I1(k/2)), with
        # the exponential folded into the scaled Bessel functions.
        half = 0.5 * self.k
        bessel = (1.0 + self.k) * special.i0e(half) + self.k * special.i1e(half)
        return float(self.scale * math.sqrt(math.pi / 2.0) * bessel)


_FAMILIES = {
    "exp": (Exponential, 1),
    "uniform": (Uniform, 2),
    "rayleigh": (Rayleigh, 1),
    "nakagami": (Nakagami, 2),
    "lognormal": (LogNormal, 2),
    "rician": (Rician, 2),
}


def parse_marginal(text):
    """Build a marginal from a spec string like ``"exp:1.0"``.

    Format is ``family:p1[,p2]`` with families ``exp`` (rate),
    ``uniform`` (low, high), ``rayleigh`` (sigma), ``nakagami`` (m, omega),
    ``lognormal`` (mu, sigma), ``rician`` (k, scale).
    """
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(f"unknown marginal family {name!r} (known: {known})")
    cls, arity = _FAMILIES[name]
    if not sep:
        raise ValueError(f"marginal {name!r} needs {arity} parameter(s), e.g. 'exp:1.0'")
    try:
        params = [float(p) for p in rest.split(",")]
    except ValueError:
        raise ValueError(f"could not parse marginal parameters from {rest!r}") from None
    if len(params) != arity:
        raise ValueError(f"marginal {name!r} takes {arity} parameter(s), got {len(params)}")
    return cls(*params)
