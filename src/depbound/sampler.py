"""Seedable Monte Carlo oracle for the three canonical couplings.

The dependent couplings ride a single uniform stream: comonotonic draws
are (qx(u), qy(u)), countermonotonic (qx(u), qy(1 - u)), so runs that
share a seed are antithetic by construction.  Independence uses two
streams spawned from the root seed.  Moments accumulate in one pass
with exact pairwise merging, so the estimate is stable out to n = 1e8
and independent of the batch partition.

The batch (``batch_size`` draws) is the unit of that merge; the part is
the unit of threading; the chunk (``_CHUNK`` draws) is the unit of
evaluation.  Each batch is cut into up to ``_PARTS`` contiguous parts on
chunk boundaries: the calling thread evaluates the first and one thread
each evaluates the others.  A part that starts at draw ``a`` of the
sample draws from its own PCG64 generator advanced by ``a`` steps, which
is exactly the stream a sequential pass reaches at ``a``.  Each chunk
draws its uniforms, maps them through the quantiles and writes its costs
into the batch's one buffer, so the temporaries stay cache-sized while
the mean and the squared deviations still run over the whole batch: the
result does not depend on ``_PARTS`` or ``_CHUNK``, bit for bit.  Draws
and costs are checked chunk by chunk and a part's error is re-raised
only when no earlier part failed, so when a sample holds two faults, the
first chunk with a fault decides the error.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COUPLINGS",
    "McEstimate",
    "NonFiniteCostError",
    "mc_expectation",
    "empirical_correlation",
]

COUPLINGS = ("comonotonic", "countermonotonic", "independent")

# rng.random() emits multiples of 2^-53 in [0, 1); pinning exact zeros to
# 2^-53 keeps both u and 1-u strictly inside (0, 1) with no other change.
_U_MIN = 2.0**-53

DEFAULT_BATCH = 1 << 20
# Draws evaluated at once: large enough to amortize numpy's per-call
# overhead, small enough that the temporaries of the chunks in flight,
# one per part, stay in cache.
_CHUNK = 1 << 15
# Parts of a batch evaluated at once, one thread each; numpy and
# scipy.special ufuncs release the GIL, so the parts overlap.
_PARTS = min(2, os.cpu_count() or 1)


class NonFiniteCostError(Exception):
    """A cost evaluation produced NaN/inf during sampling."""


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n: int
    seed: int


class _Moments:
    """Streaming count/mean/M2 with the exact pairwise-merge update."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values):
        """Merge one batch; overwrites ``values`` with its squared deviations."""
        nb = values.size
        if nb == 0:
            return
        mb = float(values.mean())
        np.subtract(values, mb, out=values)
        m2b = float(np.sum(np.square(values, out=values)))
        na = self.n
        total = na + nb
        delta = mb - self.mean
        self.mean += delta * nb / total
        self.m2 += m2b + delta * delta * na * nb / total
        self.n = total


def _check_finite(cost, x, y):
    # Draws can overflow before the cost ever runs (heavy-tailed
    # quantiles); both cases are numerical failures, not usage errors.
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise NonFiniteCostError(
            f"marginal draw overflowed: (x={float(x[i])!r}, y={float(y[i])!r}) before cost {cost.name!r}"
        )
    values = np.asarray(cost(x, y), dtype=float)
    if not np.all(np.isfinite(values)):
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteCostError(
            f"cost {cost.name!r} returned {float(values[i])!r} at (x={float(x[i])!r}, y={float(y[i])!r})"
        )
    return values


def _uniforms(rng, k):
    u = rng.random(k)
    return np.maximum(u, _U_MIN, out=u)


def _evaluate_part(cost, fx, fy, coupling, seqs, offset, values):
    """Fill ``values`` with the costs of the draws from ``offset`` on."""
    rngs = [np.random.Generator(np.random.PCG64(seq).advance(offset)) for seq in seqs]
    for a in range(0, values.size, _CHUNK):
        k = min(_CHUNK, values.size - a)
        if coupling == "independent":
            x = fx.quantile(_uniforms(rngs[0], k))
            y = fy.quantile(_uniforms(rngs[1], k))
        else:
            u = _uniforms(rngs[0], k)
            x = fx.quantile(u)
            # Not in place: a marginal may return its input as x.
            y = fy.quantile(u if coupling == "comonotonic" else 1.0 - u)
        values[a:a + k] = _check_finite(cost, x, y)


def _evaluate_batch(cost, fx, fy, coupling, seqs, start, values):
    """Evaluate one batch as parts on threads; the earliest failing part's error wins."""
    chunks = -(-values.size // _CHUNK)
    parts = min(_PARTS, chunks)
    edges = [min(values.size, i * chunks // parts * _CHUNK) for i in range(parts + 1)]
    errors = [None] * parts

    def work(i):
        try:
            # The error state is per thread: set it as the caller did.
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                _evaluate_part(cost, fx, fy, coupling, seqs, start + edges[i], values[edges[i]:edges[i + 1]])
        except BaseException as exc:  # re-raised by the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, parts)]
    for t in threads:
        t.start()
    try:
        _evaluate_part(cost, fx, fy, coupling, seqs, start, values[:edges[1]])
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def mc_expectation(cost, fx, fy, coupling, n, seed, batch_size=DEFAULT_BATCH):
    """Estimate E[c(X, Y)] under one canonical coupling.

    Returns an ``McEstimate``; identical (seed, n, coupling) reproduce
    it bit for bit.  ``n`` must be at least 100, small enough samples
    say nothing and hide stderr bugs.  ``cost`` and the marginals may be
    called from two threads at once.
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r} (known: {', '.join(COUPLINGS)})")
    n = int(n)
    if n < 100:
        raise ValueError(f"need n >= 100, got {n}")
    if batch_size < 1:
        raise ValueError(f"need batch_size >= 1, got {batch_size}")
    seed = int(seed)

    root = np.random.SeedSequence(seed)
    seqs = root.spawn(2) if coupling == "independent" else [root]
    acc = _Moments()
    # Overflow here is not an anomaly to warn about, it is a checked
    # failure mode: _check_finite and the moment check below turn it
    # into a diagnostic.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, batch_size):
            values = np.empty(min(batch_size, n - start))
            _evaluate_batch(cost, fx, fy, coupling, seqs, start, values)
            acc.add(values)
    if not (np.isfinite(acc.mean) and np.isfinite(acc.m2)):
        raise NonFiniteCostError(
            f"moments of cost {cost.name!r} overflowed: mean={acc.mean!r}, m2={acc.m2!r} over {acc.n} draws"
        )

    stderr = float(np.sqrt(acc.m2 / (acc.n - 1) / acc.n))
    return McEstimate(value=acc.mean, stderr=stderr, n=acc.n, seed=seed)


def empirical_correlation(x, y):
    """Pearson correlation of two equally long samples.

    Degenerate input (fewer than two points, or zero variance in either
    coordinate) raises rather than returning NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least two pairs")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("degenerate sample: zero variance in a coordinate")
    r = float(dx @ dy) / np.sqrt(vx * vy)
    return float(np.clip(r, -1.0, 1.0))
