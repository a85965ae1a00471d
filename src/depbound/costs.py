"""Bivariate performance functions c(x, y) on the nonnegative quadrant.

Each builtin is declared once, with its analytic mixed partial d2c/dxdy,
whose exact sign ``check_mixed_partial`` reads as the second lattice
route beside the cross-differences: ``mac_rate1`` by its factory, every
other builtin as one row of ``_FIXED``.  Arguments must be nonnegative
(channel gains or envelopes); negative input raises rather than clamps,
since a negative gain always means a caller bug.  A builtin writes only
into the one temporary it allocates (``_fresh``), never into its input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CostFunction", "builtin", "parse_cost", "BUILTIN_COSTS"]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CostFunction:
    """A named c(x, y) with optional analytic mixed partial.

    ``fn`` and ``mixed_partial`` must accept scalars or broadcastable
    arrays of nonnegative floats, and take ``params`` as keyword
    arguments.  Call the instance directly; the call validates the domain
    once, delegates, and broadcasts a result that ignores an argument (a
    constant, or f(y) alone) to the arguments' broadcast shape.  The
    builtins write only into temporaries they allocate themselves.
    """

    name: str
    fn: object
    mixed_partial: object = None
    params: dict = field(default_factory=dict)

    def __call__(self, x, y):
        _check_domain(self.name, x, y)
        return _broadcast(self.fn(x, y, **self.params), x, y)

    def cross_partial(self, x, y):
        """Analytic d2c/dxdy.  Raises if this cost does not define one."""
        if self.mixed_partial is None:
            raise ValueError(f"cost {self.name!r} has no analytic mixed partial")
        _check_domain(self.name, x, y)
        return _broadcast(self.mixed_partial(x, y, **self.params), x, y)

    def __repr__(self):
        if self.params:
            inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            return f"CostFunction({self.name}: {inner})"
        return f"CostFunction({self.name})"


def _check_domain(name, x, y):
    # numpy's min and max return NaN when any element is NaN, so the four
    # extremes are finite exactly when every element is.
    ends = []
    for arg in (np.asarray(x, dtype=float), np.asarray(y, dtype=float)):
        if arg.size:
            ends += (np.minimum.reduce(arg, axis=None), np.maximum.reduce(arg, axis=None))
    if not all(map(math.isfinite, ends)):
        raise ValueError(f"cost {name!r}: arguments must be finite")
    if min(ends, default=0.0) < 0.0:
        raise ValueError(f"cost {name!r}: arguments must be nonnegative")


def _broadcast(value, x, y):
    shape = np.broadcast(x, y).shape
    return value if np.shape(value) == shape else np.broadcast_to(value, shape)


def _fresh(x, y, fill):
    # ``fill(t)`` on a new array t of the (x, y) broadcast shape, where a builtin finishes its
    # textbook expression with the same IEEE operations in the same order; a scalar if that is ().
    return fill(np.empty(np.broadcast(x, y).shape))[()]


def _mac_rate1(x, y, s):
    # log2(1 + x/(s+y)) written as a log difference; log1p(x/(s+y))
    # loses nothing here and avoids a huge intermediate for tiny s.
    def fill(t):
        np.divide(x, np.add(s, y, out=t), out=t)
        return np.divide(np.log1p(t, out=t), _LN2, out=t)

    return _fresh(x, y, fill)


def _mac_rate1_partial(x, y, s):
    return -1.0 / ((s + x + y) ** 2 * _LN2)


def _make_mac_rate1(s=None, snr_db=None):
    """Rate of user 1 in a two-user multiple-access channel.

    c(x, y) = log2(1 + x / (s + y)) with ``s`` the inverse signal-to-noise
    ratio, s > 0.  Pass either ``s`` directly or ``snr_db`` with
    s = 10**(-snr_db/10).
    """
    if (s is None) == (snr_db is None):
        raise ValueError("mac_rate1: pass exactly one of s or snr_db")
    if snr_db is not None:
        try:
            s = 10.0 ** (-float(snr_db) / 10.0)
        except OverflowError:
            s = math.inf
    s = float(s)
    if not (s > 0.0 and math.isfinite(s)):
        # An snr_db too high underflows s to 0; too low, it overflows.
        given = "s" if snr_db is None else f"s = 10**(-snr_db/10) at snr_db={snr_db!r}"
        raise ValueError(f"mac_rate1: {given} must be positive and finite, got {s!r}")

    return CostFunction(name="mac_rate1", fn=_mac_rate1, mixed_partial=_mac_rate1_partial, params={"s": s})


_unit_noise_partial = functools.partial(_mac_rate1_partial, s=1.0)

# Each builtin without parameters, once: name -> (c(x, y), d2c/dxdy).
_FIXED = {
    # Signal power x against interference power y on unit noise.
    "sinr": (lambda x, y: _fresh(x, y, lambda t: np.divide(x, np.add(1.0, y, out=t), out=t)),
             lambda x, y: -1.0 / (1.0 + y) ** 2),
    "sum_rate": (lambda x, y: _fresh(x, y, lambda t: np.divide(np.log1p(np.add(x, y, out=t), out=t), _LN2, out=t)),
                 _unit_noise_partial),
    # log2((1+x+y)/(1+y)): what the pair can agree on minus what the
    # second channel leaks, i.e. mac_rate1 at s = 1; its one log1p(x/(1+y))
    # keeps the digits a difference of two logs cancels when x << y.
    "secret_key": (functools.partial(_mac_rate1, s=1.0), _unit_noise_partial),
    "prop_fair": (lambda x, y: _fresh(x, y, lambda t: np.multiply(np.log1p(x, out=t), np.log1p(y), out=t)),
                  lambda x, y: 1.0 / ((1.0 + x) * (1.0 + y))),
    "product": (lambda x, y: x * y, lambda x, y: 1.0),
    "additive": (lambda x, y: x + y, lambda x, y: 0.0),
}


def _fixed(name, fn, mixed_partial):
    # No parameters, so ``builtin`` reports any key, even a CostFunction field, as not taken.
    return lambda: CostFunction(name, fn, mixed_partial)


BUILTIN_COSTS = {"mac_rate1": _make_mac_rate1, **{name: _fixed(name, *row) for name, row in _FIXED.items()}}


def builtin(spec, **params):
    """Build a builtin cost from a spec ``name[:key=value,...]``, e.g. ``"mac_rate1:s=0.5"``.

    The name may be in any case; see ``BUILTIN_COSTS``.  The spec's keys
    (only ``mac_rate1`` takes any) and ``params`` together are the factory's
    keyword arguments; a key given twice raises ``ValueError``.
    """
    name, sep, rest = spec.partition(":")
    name = name.strip().lower()
    if sep and rest.strip():
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"cost parameter {piece!r} is not of the form key=value")
            if key in params:
                raise ValueError(f"cost parameter {key!r} is given twice")
            try:
                params[key] = float(value)
            except ValueError:
                raise ValueError(f"cost parameter {key!r} has non-numeric value {value!r}") from None
    try:
        factory = BUILTIN_COSTS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_COSTS))
        raise ValueError(f"unknown cost {name!r} (known: {known})") from None
    try:
        return factory(**params)
    except TypeError:
        raise ValueError(f"cost {name!r} does not take parameters {sorted(params)}") from None


# One function under the name the library's callers and the benchmark use.
parse_cost = builtin
