"""Lattice-condition checks for bivariate costs.

A cost is submodular when c(x', y') + c(x, y) <= c(x, y') + c(x', y)
for every x <= x', y <= y'.  On a rectangular grid it is enough to test
adjacent cells: rectangle inequalities telescope into sums of cell
inequalities, so a clean pass on every 1-cell rectangle certifies the
grid.  Two independent routes are provided, sign checks on the
cross-difference and sign checks on the mixed partial d2c/dxdy
(analytic when the cost carries one, centered finite differences
otherwise).  Downstream bound construction refuses to run unless one of
these produced a usable classification.  A four-term difference d of
costs z has a sign only where |d| > _ROUNDING * sum |z|, its own rounding
bound (Higham 2002, section 4.2), so no verdict depends on the cost's
units; an analytic partial is judged by its exact sign.
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
        d = z[1:, 1:] + z[:-1, :-1] - z[:-1, 1:] - z[1:, :-1]
        a = np.abs(z)
        a = a[1:] + a[:-1]
        bound = _ROUNDING * (a[:, 1:] + a[:, :-1])
    return _classify(d, bound, domain, n, method="cross_difference")


def check_mixed_partial(cost, domain, n=64):
    """Classify ``cost`` by the sign of d2c/dxdy on a grid.

    Uses the cost's analytic mixed partial when present, judged by its
    exact sign, otherwise the centered stencil (c(x+h, y+h) - c(x+h, y-h)
    - c(x-h, y+h) + c(x-h, y-h)) / (4 h^2) with h = 1e-4 times the larger
    domain extent, judged against its rounding bound.  The grid is inset
    by h so the stencil never leaves the domain.
    """
    domain, n = _validate_grid(domain, n)
    x0, x1, y0, y1 = domain
    if cost.mixed_partial is not None:
        xs = np.linspace(x0, x1, n)
        ys = np.linspace(y0, y1, n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = cost.cross_partial(xs[:, None], ys[None, :])
        return _classify(m, 0.0, domain, n, method="mixed_partial")

    h = 1e-4 * max(x1 - x0, y1 - y0)
    if not (h > 0.0 and 2.0 * h < min(x1 - x0, y1 - y0)):
        raise ValueError(f"finite-difference step {h!r} does not fit inside the domain")
    xs = np.linspace(x0 + h, x1 - h, n)[:, None]
    ys = np.linspace(y0 + h, y1 - h, n)[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = (cost(xs + h, ys + h), cost(xs + h, ys - h), cost(xs - h, ys + h), cost(xs - h, ys - h))
        m = (c[0] - c[1] - c[2] + c[3]) / (4.0 * h * h)
        bound = _ROUNDING * sum(map(np.abs, c)) / (4.0 * h * h)
    return _classify(m, bound, domain, n, method="mixed_partial_fd")
