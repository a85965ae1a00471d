"""Seedable Monte Carlo oracle for the three canonical couplings.

A dependent coupling draws (qx(u), qy(T(u))) from one stream, T from
``transport.COUPLING_MAPS``, so co- and countermonotonic runs sharing a
seed are antithetic.  Independence uses two streams spawned from the root.

The chunk (``_CHUNK`` draws) is the unit of evaluation and of the moment
merge; the part is the unit of threading.  The sample is cut into
chunks and the chunks into up to ``_PARTS`` contiguous parts: the
calling thread evaluates the first part and a thread pool the others.
A part that starts at draw ``a`` of the sample draws from its own PCG64
generator advanced by ``a`` steps, which is exactly the stream a
sequential pass reaches at ``a``.  Each chunk draws its uniforms, maps
them through the quantiles, checks draws and costs, and writes its mean
and M2 into its own row of one ``(chunks, 2)`` array.  Once every part
has finished, the rows are merged in chunk order with the exact pairwise
update of Chan, Golub & LeVeque, so the estimate is stable out to
n = 1e8.  Memory is, per part, its uniform draw buffers and one
deviation scratch buffer, allocated once; per chunk, one temporary for
each quantile and each cost call; and 16 bytes per chunk.  The result
is defined by the chunk size and does not depend on ``_PARTS``, bit for
bit.  The parts' results are read in part order, so when a sample holds
two faults, the first chunk with a fault decides the error.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .transport import COUPLING_MAPS

__all__ = [
    "COUPLINGS",
    "McEstimate",
    "NonFiniteCostError",
    "mc_expectation",
]

COUPLINGS = (*COUPLING_MAPS, "independent")

# rng.random() emits multiples of 2^-53 in [0, 1); pinning exact zeros to
# 2^-53 keeps both u and 1-u strictly inside (0, 1) with no other change.
_U_MIN = 2.0**-53

# Draws evaluated and merged at once: large enough to amortize numpy's
# per-call overhead, small enough that the temporaries of the chunks in
# flight, one per part, stay in cache.  Changing it moves result bits.
_CHUNK = 1 << 15
# Parts of the sample evaluated at once, one thread each; numpy and
# scipy.special ufuncs release the GIL, so the parts overlap.
_PARTS = min(2, os.cpu_count() or 1)


class NonFiniteCostError(NumericalError):
    """A cost evaluation produced NaN/inf during sampling."""


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n: int
    seed: int


def _check_finite(cost, x, y):
    # Draws can overflow before the cost ever runs (heavy-tailed
    # quantiles); both cases are numerical failures, not usage errors.
    # A sum is finite only when every term is, so only a non-finite sum
    # scans for the first bad element; finite costs whose sum overflows
    # pass here, and the moment check in mc_expectation reports them.
    if not (np.isfinite(np.add.reduce(x)) and np.isfinite(np.add.reduce(y))):
        bad = ~(np.isfinite(x) & np.isfinite(y))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise NonFiniteCostError(
                f"marginal draw overflowed: (x={float(x[i])!r}, y={float(y[i])!r}) before cost {cost.name!r}"
            )
    values = np.asarray(cost(x, y), dtype=float)
    total = float(np.add.reduce(values))
    if not np.isfinite(total):
        bad = ~np.isfinite(values)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise NonFiniteCostError(
                f"cost {cost.name!r} returned {float(values[i])!r} at (x={float(x[i])!r}, y={float(y[i])!r})"
            )
    return values, total


def _uniforms(rng, out):
    u = rng.random(out=out)
    return np.maximum(u, _U_MIN, out=u)


def _evaluate_part(cost, fx, fy, t, seqs, n, first, stop, stats):
    """Write the mean and M2 of chunks ``first`` to ``stop - 1`` into ``stats``; ``t`` is None for independence."""
    rngs = [np.random.Generator(np.random.PCG64(seq).advance(first * _CHUNK)) for seq in seqs]
    # Draw buffers and deviation scratch as long as the part's first, longest
    # chunk; nothing is written into an array a quantile or the cost returned.
    size = min(_CHUNK, n - first * _CHUNK)
    draws = [np.empty(size) for _ in rngs]
    scratch = np.empty(size)
    for j in range(first, stop):
        k = min(_CHUNK, n - j * _CHUNK)
        u = _uniforms(rngs[0], draws[0][:k])
        x = fx.quantile(u)
        y = fy.quantile(_uniforms(rngs[1], draws[1][:k]) if t is None else t(u))
        values, total = _check_finite(cost, x, y)
        # np.mean's and np.sum's arithmetic without their Python wrappers,
        # which hold the GIL.
        mean = total / k
        dev = np.subtract(values, mean, out=scratch[:k])
        stats[j] = mean, float(np.add.reduce(np.square(dev, out=dev)))


def _merge(stats, n):
    """Merge per-chunk (mean, M2) rows in chunk order by the exact pairwise update."""
    count, mean, m2 = 0, 0.0, 0.0
    for j, (mb, m2b) in enumerate(stats.tolist()):
        nb = min(_CHUNK, n - j * _CHUNK)
        total = count + nb
        delta = mb - mean
        mean += delta * nb / total
        m2 += m2b + delta * delta * count * nb / total
        count = total
    return mean, m2


def mc_expectation(cost, fx, fy, coupling, n, seed):
    """Estimate E[c(X, Y)] under one canonical coupling.

    Returns an ``McEstimate``; identical (seed, n, coupling) reproduce
    it bit for bit, whatever the number of threads.  ``n`` must be an
    integer of at least 100, small enough samples say nothing and hide
    stderr bugs, and ``seed`` a non-negative integer (``bool`` is neither).
    The sample is evaluated and its moments merged in chunks of
    ``_CHUNK`` draws, which define the result; memory is each part's draw
    and deviation buffers, one temporary per quantile and cost call, and
    16 bytes per chunk.  ``cost`` and the marginals may be called from two
    threads at once, and may return arrays they do not own: the sampler
    never writes into what they return.
    """
    if coupling not in COUPLINGS:
        raise ValueError(f"unknown coupling {coupling!r} (known: {', '.join(COUPLINGS)})")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 100:
        raise ValueError(f"n must be an integer >= 100, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    n, seed = int(n), int(seed)

    t = COUPLING_MAPS.get(coupling)
    root = np.random.SeedSequence(seed)
    seqs = root.spawn(2) if t is None else [root]
    chunks = -(-n // _CHUNK)
    parts = min(_PARTS, chunks)
    edges = [i * chunks // parts for i in range(parts + 1)]
    stats = np.empty((chunks, 2))

    def work(i):
        # Overflow here is not an anomaly to warn about, it is a checked
        # failure mode: _check_finite and the moment check below turn it
        # into a diagnostic.  The error state is per thread.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _evaluate_part(cost, fx, fy, t, seqs, n, edges[i], edges[i + 1], stats)

    # Leaving the block waits for every submitted part, also when one raised.
    with ThreadPoolExecutor(_PARTS) as pool:
        futures = [pool.submit(work, i) for i in range(1, parts)]
        work(0)
        for future in futures:
            future.result()
    mean, m2 = _merge(stats, n)
    if not (np.isfinite(mean) and np.isfinite(m2)):
        raise NonFiniteCostError(
            f"moments of cost {cost.name!r} overflowed: mean={mean!r}, m2={m2!r} over {n} draws"
        )

    stderr = float(np.sqrt(m2 / (n - 1) / n))
    return McEstimate(value=mean, stderr=stderr, n=n, seed=seed)
