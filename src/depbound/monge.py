"""Lattice-condition checks for bivariate costs.

A cost is submodular when c(x', y') + c(x, y) <= c(x, y') + c(x', y)
for every x <= x', y <= y'; on a grid, rectangle inequalities telescope
into adjacent-cell ones.  Two routes classify: the cross-difference of
adjacent grid cells, and the cost's analytic mixed partial d2c/dxdy.  A
cost without an analytic partial has one route, the cross-difference.
A four-term difference d of costs z has a sign only where
|d| > _ROUNDING * sum |z|, its own rounding bound (Higham 2002, section
4.2), so no verdict depends on the units of the cost or of the box; an
analytic partial is judged by its exact sign.  Bound construction
refuses to run without a usable classification.
"""

from __future__ import annotations

import numbers
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
# ulps in each cost evaluation; transport's check for inverted bounds too.
_ROUNDING = 8 * 2.0**-52


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


def _grid(domain, n):
    """Check the box and resolution; return them with the grid's x axis as a column, y as a row."""
    try:
        x0, x1, y0, y1 = (float(v) for v in domain)
    except (TypeError, ValueError):
        raise ValueError(f"domain must be (x0, x1, y0, y1), got {domain!r}") from None
    if not (np.isfinite([x0, x1, y0, y1]).all() and x0 < x1 and y0 < y1):
        raise ValueError(f"domain must have x0 < x1 and y0 < y1, got {domain!r}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 3:
        raise ValueError(f"grid resolution must be an integer >= 3, got {n!r}")
    n = int(n)
    return (x0, x1, y0, y1), n, np.linspace(x0, x1, n)[:, None], np.linspace(y0, y1, n)[None, :]


def _classify(values, bound, domain, n, method):
    """Label by the signs of ``values`` beyond ``bound`` (per cell or scalar): the signs present
    pick the label, the cells of the rarer sign are the violations, and the worst is the excursion
    past the side the label allows, read off hi = max and lo = -min (a magnitude if modular)."""
    values = np.asarray(values, dtype=float)
    tolerance = float(np.max(bound))
    if not (np.all(np.isfinite(values)) and np.isfinite(tolerance)):
        raise ClassificationError(
            f"{method}: cost evaluations overflow on this domain; no classification possible"
        )
    npos = int(np.count_nonzero(values > bound))
    nneg = int(np.count_nonzero(values < -bound))
    hi, lo = float(np.max(values)), float(-np.min(values))
    label, worst = {
        (False, False): ("modular", abs(max(hi, lo))),
        (False, True): ("submodular", max(hi, 0.0)),
        (True, False): ("supermodular", max(lo, 0.0)),
        (True, True): ("neither", min(hi, lo)),
    }[npos > 0, nneg > 0]
    return MongeReport(
        classification=label,
        max_violation=worst,
        violation_count=min(npos, nneg),
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
    domain, n, x, y = _grid(domain, n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        z = cost(x, y)
        a = np.abs(z)
        a = a[1:] + a[:-1]
        d = z[1:, 1:] + z[:-1, :-1] - z[:-1, 1:] - z[1:, :-1]
        bound = _ROUNDING * (a[:, 1:] + a[:, :-1])
    return _classify(d, bound, domain, n, method="cross_difference")


def check_mixed_partial(cost, domain, n=64):
    """Classify ``cost`` by the exact sign of its analytic d2c/dxdy on a grid.

    A cost without an analytic partial gets ``check_cross_difference``'s
    report, whose ``method`` names that route.
    """
    if cost.mixed_partial is None:
        return check_cross_difference(cost, domain, n)
    domain, n, x, y = _grid(domain, n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = cost.cross_partial(x, y)
    return _classify(m, 0.0, domain, n, method="mixed_partial")
