"""Lattice-condition checks for bivariate costs.

A cost is submodular when c(x', y') + c(x, y) <= c(x, y') + c(x', y)
for every x <= x', y <= y'; on a grid, rectangle inequalities telescope
into adjacent-cell ones.  Two independent routes classify: the
cross-difference of adjacent grid cells, and the mixed partial d2c/dxdy,
analytic when the cost carries one and otherwise the same four-term
difference on a small cell around each grid point.  A four-term
difference d of costs z has a sign only where |d| > _ROUNDING * sum |z|,
its own rounding bound (Higham 2002, section 4.2), so no verdict depends
on the units of the cost or of the box; an analytic partial is judged by
its exact sign.  Bound construction refuses to run without a usable
classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "MongeReport",
    "ClassificationError",
    "check_cross_difference",
    "check_mixed_partial",
]


class ClassificationError(NumericalError):
    """No usable lattice classification could be established."""

# Relative rounding of a four-term difference: three additions plus a few
# ulps in each cost evaluation.
_ROUNDING = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class MongeReport:
    """Outcome of a lattice check on one rectangular grid.

    classification
        One of ``submodular``, ``supermodular``, ``modular``, ``neither``.
        A cell whose value lies within its rounding bound has no sign;
        ``modular`` means no cell has one, ``neither`` that both signs
        appear.
    max_violation
        Largest excursion outside the region consistent with the
        reported class (0 for a clean one-sided pass; for mixed-sign
        grids, the smaller of the two one-sided excursions, i.e. how far
        the best one-sided hypothesis misses).
    violation_count
        Number of offending cells: 0 for the three clean classes, the
        minority-sign cell count for ``neither``.
    tolerance
        Largest rounding bound on the grid (0 for an analytic partial).
    """

    classification: str
    max_violation: float
    violation_count: int
    domain: tuple
    resolution: int
    tolerance: float
    method: str


def _validate_grid(domain, n):
    try:
        x0, x1, y0, y1 = (float(v) for v in domain)
    except (TypeError, ValueError):
        raise ValueError(f"domain must be (x0, x1, y0, y1), got {domain!r}") from None
    if not (np.isfinite([x0, x1, y0, y1]).all() and x0 < x1 and y0 < y1):
        raise ValueError(f"domain must have x0 < x1 and y0 < y1, got {domain!r}")
    n = int(n)
    if n < 3:
        raise ValueError(f"grid resolution must be at least 3, got {n}")
    return (x0, x1, y0, y1), n


def _classify(values, bound, domain, n, method):
    """Label the grid by the signs of ``values`` that exceed ``bound`` (per cell or scalar)."""
    values = np.asarray(values, dtype=float)
    tolerance = float(np.max(bound))
    if not (np.all(np.isfinite(values)) and np.isfinite(tolerance)):
        raise ClassificationError(
            f"{method}: cost evaluations overflow on this domain; no classification possible"
        )
    npos = int(np.count_nonzero(values > bound))
    nneg = int(np.count_nonzero(values < -bound))

    if npos == 0 and nneg == 0:
        label = "modular"
        worst = float(np.max(np.abs(values))) if values.size else 0.0
        count = 0
    elif npos == 0:
        label = "submodular"
        worst = float(max(np.max(values), 0.0))
        count = 0
    elif nneg == 0:
        label = "supermodular"
        worst = float(max(-np.min(values), 0.0))
        count = 0
    else:
        label = "neither"
        # Best one-sided hypothesis: excursion of whichever sign is rarer.
        worst = float(min(np.max(values), -np.min(values)))
        count = min(npos, nneg)
    return MongeReport(
        classification=label,
        max_violation=worst,
        violation_count=count,
        domain=domain,
        resolution=n,
        tolerance=tolerance,
        method=method,
    )


def _four_term(z, lo, hi):
    """Each cell's z11 + z00 - z01 - z10 and its rounding bound, with z11 = z[hi, hi], z00 = z[lo, lo]."""
    a = np.abs(z)
    a = a[hi] + a[lo]
    return z[hi, hi] + z[lo, lo] - z[lo, hi] - z[hi, lo], _ROUNDING * (a[:, hi] + a[:, lo])


def check_cross_difference(cost, domain, n=64):
    """Classify ``cost`` by the sign of adjacent-cell cross-differences.

    For grid points x_i < x_{i+1}, y_j < y_{j+1} the cross-difference is
    c(x_{i+1}, y_{j+1}) + c(x_i, y_j) - c(x_i, y_{j+1}) - c(x_{i+1}, y_j);
    nowhere above its rounding bound means submodular, nowhere below
    minus it supermodular.
    """
    domain, n = _validate_grid(domain, n)
    x0, x1, y0, y1 = domain
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = cost(xs[:, None], ys[None, :])
        d, bound = _four_term(z, slice(None, -1), slice(1, None))
    return _classify(d, bound, domain, n, method="cross_difference")


def check_mixed_partial(cost, domain, n=64):
    """Classify ``cost`` by the sign of d2c/dxdy on a grid.

    Uses the cost's analytic mixed partial when present, judged by its
    exact sign.  Otherwise each point (x, y) of a grid inset by hx = 1e-4
    (x1 - x0), hy = 1e-4 (y1 - y0) gets the cross-difference of the cell
    [x - hx, x + hx] x [y - hy, y + hy], whose sign is that of d2c/dxdy.
    """
    domain, n = _validate_grid(domain, n)
    x0, x1, y0, y1 = domain
    if cost.mixed_partial is not None:
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = cost.cross_partial(xs[:, None], ys[None, :])
        return _classify(m, 0.0, domain, n, method="mixed_partial")

    hx, hy = 1e-4 * (x1 - x0), 1e-4 * (y1 - y0)
    # Each inset grid point x becomes the pair x - hx, x + hx: even entries pair with odd ones.
    xs = (np.linspace(x0 + hx, x1 - hx, n)[:, None] + [-hx, hx]).ravel()
    ys = (np.linspace(y0 + hy, y1 - hy, n)[:, None] + [-hy, hy]).ravel()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = cost(xs[:, None], ys[None, :])
        d, bound = _four_term(z, slice(0, None, 2), slice(1, None, 2))
    return _classify(d, bound, domain, n, method="mixed_partial_fd")
