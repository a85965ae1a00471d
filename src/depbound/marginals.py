"""Parametric marginal distributions with exact quantile transforms.

Every family exposes the same small surface: ``cdf``, ``quantile`` and
``mean``, plus two attributes the quadrature reads: ``breakpoints``, the
cdf levels in (0, 1) where the quantile jumps (none by default), and
``support``, a bounded interval (low, high) holding all the mass (Uniform,
Bernoulli; None by default), so no tail needs truncating.  The quantile
functions are the workhorse of the whole package: both the coupling
integrals and the Monte Carlo sampler are built on ``quantile(u)`` for
uniform ``u``, so cdf/quantile round-trips have to be tight (1e-9
relative or better away from the support edges).
Draws come from ``sampler.mc_expectation``, which runs its parts on a
thread pool, so ``quantile`` may be called from two threads at once.

Nakagami, LogNormal and Rician reach ``scipy.special`` only through
``_special()``, which imports it on first use: importing scipy costs more
than most CLI commands compute, and ``import depbound`` loads no submodule
(see the package docstring), so commands on other families never pay for
it.  Nakagami and Rician quantiles invert by iteration, and the nested
independent integral repeats its inner levels, so ``_per_level`` inverts
each distinct level once.  Every cdf and mean, and LogNormal's ``ndtri``,
stay per point: ``np.unique`` costs more than ``ndtri`` per Monte Carlo draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Marginal",
    "Exponential",
    "Uniform",
    "Rayleigh",
    "Nakagami",
    "LogNormal",
    "Rician",
    "Bernoulli",
    "parse_marginal",
]

def _special():
    from scipy import special

    return special


def _per_level(invert, u):
    levels, where = np.unique(u, return_inverse=True)
    return invert(levels)[where].reshape(u.shape)


def _scalar_like(result, *inputs):
    # Return a bare float when every input was scalar; arrays pass through.
    if all(np.ndim(v) == 0 for v in inputs):
        return float(result)
    return result


class Marginal:
    """Common behaviour for one-dimensional marginal families.

    Subclasses implement ``_cdf`` and ``_quantile`` on float arrays, the
    latter at least 1-d and not to be written into, and a ``mean`` method.
    ``quantile`` is the exact inverse of ``cdf`` on the interior of the
    support, which is what makes the coupling constructions downstream
    exact rather than approximate.
    """

    name = "marginal"
    breakpoints = ()
    support = None
    # Parameter name -> (lower bound, whether the bound itself is allowed).
    _lower = {}

    def __post_init__(self):
        """Every parameter must be finite, and one named in ``_lower`` above its bound."""
        for field in fields(self):
            value = getattr(self, field.name)
            bound, allowed = self._lower.get(field.name, (-math.inf, False))
            if not (math.isfinite(value) and (value >= bound if allowed else value > bound)):
                rule = f" and {'>=' if allowed else '>'} {bound:g}" if field.name in self._lower else ""
                raise ValueError(f"{self.name}: {field.name} must be finite{rule}, got {value!r}")

    def cdf(self, x):
        """P(X <= x).  Defined on all finite reals; 0 below the support."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{self.name}: cdf argument must be finite")
        return _scalar_like(self._cdf(arr), x)

    def quantile(self, u):
        """Inverse cdf.  ``u`` must lie strictly inside (0, 1)."""
        arr = np.asarray(u, dtype=float)
        # min and max are NaN when any element is, and NaN fails both tests.
        if arr.size and not (np.minimum.reduce(arr, axis=None) > 0.0 and np.maximum.reduce(arr, axis=None) < 1.0):
            raise ValueError(f"{self.name}: quantile argument must be in the open interval (0, 1)")
        # At least 1-d, so ufuncs return arrays that _quantile can finish in place.
        return _scalar_like(self._quantile(np.atleast_1d(arr)).reshape(arr.shape), u)


@dataclass(frozen=True)
class Exponential(Marginal):
    """Exponential with rate ``rate`` (mean ``1/rate``)."""

    rate: float
    name = "exponential"
    _lower = {"rate": (0.0, False)}

    def _cdf(self, x):
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def _quantile(self, u):
        # -log1p(-u) / rate keeps full precision for u near 0; log1p(-u)
        # divided by -rate is the same IEEE result, finished in one array.
        out = np.negative(u)
        return np.divide(np.log1p(out, out=out), -self.rate, out=out)

    def mean(self):
        return 1.0 / self.rate


@dataclass(frozen=True)
class Uniform(Marginal):
    """Uniform on the closed interval [low, high], its ``support`` unless high - low overflows."""

    low: float
    high: float
    name = "uniform"

    def __post_init__(self):
        super().__post_init__()
        if not self.low < self.high:
            raise ValueError(f"uniform: need low < high, got [{self.low}, {self.high}]")

    @property
    def support(self):
        return (self.low, self.high) if math.isfinite(self.high - self.low) else None

    def _cdf(self, x):
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def _quantile(self, u):
        out = np.multiply(u, self.high - self.low)
        return np.add(out, self.low, out=out)

    def mean(self):
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class Rayleigh(Marginal):
    """Rayleigh with scale ``sigma`` (mode), mean ``sigma * sqrt(pi/2)``."""

    sigma: float
    name = "rayleigh"
    _lower = {"sigma": (0.0, False)}

    def _cdf(self, x):
        z = np.maximum(x, 0.0) / self.sigma
        return np.where(x > 0.0, -np.expm1(-0.5 * z * z), 0.0)

    def _quantile(self, u):
        # sigma * sqrt(-2 log1p(-u)), finished in its one array.
        out = np.negative(u)
        np.multiply(np.log1p(out, out=out), -2.0, out=out)
        return np.multiply(np.sqrt(out, out=out), self.sigma, out=out)

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
    _lower = {"m": (0.5, True), "omega": (0.0, False)}

    def _cdf(self, x):
        z = np.maximum(x, 0.0)
        return np.where(x > 0.0, _special().gammainc(self.m, self.m * z * z / self.omega), 0.0)

    def _quantile(self, u):
        return _per_level(lambda v: np.sqrt(self.omega / self.m * _special().gammaincinv(self.m, v)), u)

    def mean(self):
        # Gamma(m + 1/2) / Gamma(m) in log space; the ratio overflows early otherwise.
        ratio = math.exp(_special().gammaln(self.m + 0.5) - _special().gammaln(self.m))
        return ratio * math.sqrt(self.omega / self.m)


@dataclass(frozen=True)
class LogNormal(Marginal):
    """Log-normal: log X ~ Normal(mu, sigma^2)."""

    mu: float
    sigma: float
    name = "lognormal"
    _lower = {"sigma": (0.0, False)}

    def _cdf(self, x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = _special().ndtr((np.log(x[pos]) - self.mu) / self.sigma)
        return out

    def _quantile(self, u):
        out = _special().ndtri(u)
        return np.exp(np.add(np.multiply(out, self.sigma, out=out), self.mu, out=out), out=out)

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
    _lower = {"k": (0.0, True), "scale": (0.0, False)}

    def _cdf(self, x):
        return _special().chndtr((np.maximum(x, 0.0) / self.scale) ** 2, 2.0, 2.0 * self.k)

    def _quantile(self, u):
        return _per_level(lambda v: self.scale * np.sqrt(_special().chndtrix(v, 2.0, 2.0 * self.k)), u)

    def mean(self):
        # scale * sqrt(pi/2) * exp(-k/2) * ((1+k) I0(k/2) + k I1(k/2)), with
        # the exponential folded into the scaled Bessel functions.
        half = 0.5 * self.k
        bessel = (1.0 + self.k) * _special().i0e(half) + self.k * _special().i1e(half)
        return float(self.scale * math.sqrt(math.pi / 2.0) * bessel)


@dataclass(frozen=True)
class Bernoulli(Marginal):
    """1 with probability ``p``, else 0: the quantile 1{u > 1 - p} steps at 1 - p."""

    p: float
    name = "bernoulli"
    support = (0.0, 1.0)

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"bernoulli: p must be in [0, 1], got {self.p!r}")

    @property
    def breakpoints(self):
        return (1.0 - self.p,) if 0.0 < self.p < 1.0 else ()

    def _cdf(self, x):
        return np.where(x < 0.0, 0.0, np.where(x < 1.0, 1.0 - self.p, 1.0))

    def _quantile(self, u):
        return (u > 1.0 - self.p).astype(float)

    def mean(self):
        return self.p


_FAMILIES = {
    "exp": Exponential,
    "uniform": Uniform,
    "rayleigh": Rayleigh,
    "nakagami": Nakagami,
    "lognormal": LogNormal,
    "rician": Rician,
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
    cls = _FAMILIES[name]
    arity = len(fields(cls))
    if not sep:
        raise ValueError(f"marginal {name!r} needs {arity} parameter(s), e.g. 'exp:1.0'")
    try:
        params = [float(p) for p in rest.split(",")]
    except ValueError:
        raise ValueError(f"could not parse marginal parameters from {rest!r}") from None
    if len(params) != arity:
        raise ValueError(f"marginal {name!r} takes {arity} parameter(s), got {len(params)}")
    return cls(*params)
