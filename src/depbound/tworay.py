"""Two-path (line-of-sight plus ground reflection) envelope model.

Two receive antennas sit on a mast at heights h1 and h1 + dh; the
reflected path comes from mirroring the transmitter below the ground
plane, so both path lengths are plain hypotenuses.  The squared
envelope at each antenna is a1^2 + a2^2 + 2 a1 a2 cos(omega dtau) with
dtau the path delay difference; amplitudes stay constant and the
reflection adds no phase, so all distance dependence enters through
dtau.  A few centimeters of antenna spacing already decide whether the
two envelopes swing together or against each other, which is the whole
point: the dependence between the antennas is a free parameter of the
environment, not of the marginals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericalError

__all__ = ["SPEED_OF_LIGHT", "EnvelopeError", "MomentError", "TwoRayGeometry", "path_lengths", "envelope",
           "envelope_trace", "envelope_correlation", "empirical_correlation"]

SPEED_OF_LIGHT = 299792458.0


class EnvelopeError(NumericalError):
    """The geometry's envelope is not finite at a distance of the grid."""


class MomentError(NumericalError, ValueError):
    """A sample's second moments do not fit a float."""


@dataclass(frozen=True)
class TwoRayGeometry:
    """Mast geometry and carrier: amplitudes a1 (direct), a2 (reflected),
    carrier frequency f in Hz, transmitter height h_tx, lower antenna
    height h1, antenna spacing dh (antenna 2 sits at h1 + dh), all in
    meters."""

    a1: float
    a2: float
    f: float
    h_tx: float
    h1: float
    dh: float

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite, got {getattr(self, field.name)!r}")
        if not (self.a1 >= 0.0 and self.a2 >= 0.0):
            raise ValueError("amplitudes must be nonnegative")
        if not self.f > 0.0:
            raise ValueError(f"carrier frequency must be positive, got {self.f!r}")
        if not (self.h_tx > 0.0 and self.h1 > 0.0):
            raise ValueError("antenna heights must be positive")
        if not self.h1 + self.dh > 0.0:
            raise ValueError(f"upper antenna height h1+dh must be positive, got {self.h1 + self.dh!r}")

    def antenna_height(self, antenna):
        if antenna not in (1, 2):
            raise ValueError(f"antenna must be 1 or 2, got {antenna!r}")
        return self.h1 + (antenna - 1) * self.dh

    def envelope_range(self):
        """Attainable [min, max] of the squared envelope (cosine extremes), in float64
        without warnings, as in ``envelope``: inf where it leaves the float range."""
        a1, a2 = np.float64(self.a1), np.float64(self.a2)
        with np.errstate(over="ignore"):
            return float((a1 - a2) ** 2), float((a1 + a2) ** 2)


def _check_distance(d):
    arr = np.asarray(d, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("ground distance must be positive and finite")
    return arr


def path_lengths(geom, d, antenna):
    """Direct and reflected path lengths at ground distance ``d``.

    The reflected length is the straight line to the transmitter's
    mirror image below the ground, so it always exceeds the direct one.
    """
    arr = _check_distance(d)
    h = geom.antenna_height(antenna)
    s_los = np.hypot(arr, geom.h_tx - h)
    s_nlos = np.hypot(arr, geom.h_tx + h)
    if np.ndim(d) == 0:
        return float(s_los), float(s_nlos)
    return s_los, s_nlos


def envelope(geom, d, antenna):
    """Squared envelope X_antenna(d) = a1^2 + a2^2 + 2 a1 a2 cos(omega dtau),
    in float64 without warnings: inf or NaN where it leaves the float range."""
    s_los, s_nlos = path_lengths(geom, d, antenna)
    a1, a2, f = np.float64(geom.a1), np.float64(geom.a2), np.float64(geom.f)
    with np.errstate(over="ignore", invalid="ignore"):
        dtau = (np.asarray(s_los) - np.asarray(s_nlos)) / SPEED_OF_LIGHT
        x = a1**2 + a2**2 + 2.0 * a1 * a2 * np.cos(2.0 * math.pi * f * dtau)
    return float(x) if np.ndim(d) == 0 else x


def envelope_trace(geom, d_grid):
    """Envelopes at both antennas over an increasing grid of distances.

    Returns (d, x1, x2) as parallel arrays, one row per grid point.  A
    non-finite envelope raises ``EnvelopeError`` naming its first distance.
    """
    d = _check_distance(d_grid)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distance grid must be a nonempty 1-D array")
    if d.size > 1 and not np.all(np.diff(d) > 0.0):
        raise ValueError("distance grid must be strictly increasing")
    x1, x2 = envelope(geom, d, 1), envelope(geom, d, 2)
    bad = ~(np.isfinite(x1) & np.isfinite(x2))
    if bad.any():
        raise EnvelopeError(f"envelope is not finite at distance {float(d[bad.argmax()])!r}")
    return d, x1, x2


def envelope_correlation(geom, d_low, d_high, n):
    """Pearson correlation of the two envelopes for d uniform on [d_low, d_high].

    Evaluated on a deterministic n-point uniform grid (a Riemann
    estimate of the uniform-distribution correlation), so identical
    inputs give identical output with no sampling noise.
    """
    if not (0.0 < d_low < d_high):
        raise ValueError(f"need 0 < d_low < d_high, got [{d_low!r}, {d_high!r}]")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 100:
        raise ValueError(f"grid point count must be an integer >= 100, got {n!r}")
    n = int(n)
    _, x1, x2 = envelope_trace(geom, np.linspace(d_low, d_high, n))
    return empirical_correlation(x1, x2)


def empirical_correlation(x, y):
    """Pearson correlation of two equally long samples.

    Degenerate input (fewer than two points, a non-finite value, zero
    variance in either coordinate) raises ``ValueError`` rather than
    returning NaN; moments that do not fit a float raise ``MomentError``,
    a ``NumericalError``.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two pairs")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("sample holds a non-finite value")
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x - x.mean()
        dy = y - y.mean()
        vx = float(dx @ dx)
        vy = float(dy @ dy)
        if vx == 0.0 or vy == 0.0:
            raise ValueError("degenerate sample: zero variance in a coordinate")
        cxy = float(dx @ dy)
        scale = float(np.sqrt(vx) * np.sqrt(vy))
    if not (np.isfinite(cxy) and 0.0 < scale < np.inf):
        raise MomentError(f"moments do not fit a float: var_x={vx!r}, var_y={vy!r}, cov={cxy!r}")
    return float(np.clip(cxy / scale, -1.0, 1.0))
