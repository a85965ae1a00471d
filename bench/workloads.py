"""The benchmark's four workloads: seeded batches and how one operation runs.

Every workload is an endless sequence of blocks, each a list of
operations.  A block is the unit of balance: it holds a fixed mix of the
input properties that decide an operation's cost (which cost function,
which marginal families, how large the Rician K factor is), so runs that
stop on a block boundary see the same mix whatever the seed.  The seed
draws only the continuous parameters and the order inside each block.
The library receives only the generated spec strings.

Why these workloads:

- ``bounds_light``: full bounds queries with the independence baseline on
  the cheap families.  The nested independent integral does nearly all
  the work; Nakagami inner quantiles form the latency tail.
- ``bounds_rician``: bounds without the baseline (the CLI default) on
  Rician marginals, where the bisection quantile dominates and the
  quadrature serves the coupling integrals only.
- ``mc_oracle``: ``mc_expectation`` at 10^6 draws per call on the cheap
  families, so quantile and cost run in large batches and the sampler's
  own work shows; no quadrature is timed.
- ``cli_session``: real ``python -m depbound`` processes from the README
  examples, where interpreter and import start-up dominate.
"""

from __future__ import annotations

import itertools

import numpy as np
from depbound import costs, marginals, monge, sampler, transport

from .clisession import SCRIPT
from .tracer import TracedCost, TracedMarginal

__all__ = ["WORKLOADS", "MC_DRAWS", "blocks", "make_batch", "execute"]

WORKLOADS = ("bounds_light", "bounds_rician", "mc_oracle", "cli_session")

MC_DRAWS = 1_000_000

# Costs whose quadrature work is alike.  ``additive`` is modular: it needs
# a single coupling integral and costs far less, so the generators place it
# where it does not change a block's mix.
_COUPLED_COSTS = ("sinr", "mac_rate1", "sum_rate", "secret_key", "prop_fair", "product")
_ALL_COSTS = _COUPLED_COSTS + ("additive",)
_LIGHT_FAMILIES = ("exp", "uniform", "rayleigh", "nakagami", "lognormal")
_MC_FAMILIES = ("exp", "uniform", "rayleigh", "lognormal")
_COUPLINGS = ("comonotonic", "countermonotonic", "independent")


# Parameter ranges; uniform's lower end is fixed at 0.
_RANGES = {
    "exp": ((0.5, 2.0),),
    "uniform": ((0.0, 0.0), (0.5, 3.0)),
    "rayleigh": ((0.5, 2.0),),
    "nakagami": ((0.6, 3.0), (0.5, 2.0)),
    "lognormal": ((-0.5, 0.5), (0.25, 1.0)),
    "rician": ((0.0, 10.0), (0.5, 2.0)),
    "mac_rate1": ((-5.0, 20.0),),
}


class _Strata:
    """Stratified parameter draws for one block.

    Each parameter's range is cut into as many equal slices as the block
    has uses of that family; the i-th use takes slice ``i + shift`` (the
    second parameter runs the slices backwards) at a seeded point inside
    it.  Every block thus covers each range evenly and in a pattern that
    does not depend on the seed.
    """

    def __init__(self, rng, skeleton, shift):
        self._rng = rng
        self._shift = shift
        self._counts = {}
        for key in (k for row in skeleton for k in row):
            self._counts[key] = self._counts.get(key, 0) + 1
        self._taken = dict.fromkeys(self._counts, 0)

    def _values(self, key):
        n, i = self._counts[key], self._taken[key]
        self._taken[key] += 1
        out = []
        for p, (lo, hi) in enumerate(_RANGES[key]):
            slot = (i + self._shift) % n if p % 2 == 0 else (n - 1 - i + self._shift) % n
            out.append(lo + (hi - lo) * (slot + self._rng.random()) / n)
        return ",".join(f"{v:.6g}" for v in out)

    def marginal(self, family):
        return f"{family}:{self._values(family)}"

    def cost(self, name):
        return f"mac_rate1:snr_db={self._values(name)}" if name in _RANGES else name


def _fill(rng, skeleton, shift, **extra):
    """Ops for ``(cost, x family, y family)`` rows, in a seeded order."""
    strata = _Strata(rng, skeleton, shift)
    ops = [dict(cost=strata.cost(c), fx=strata.marginal(x), fy=strata.marginal(y), **extra) for c, x, y in skeleton]
    return [ops[k] for k in rng.permutation(len(ops))]


def _bounds_light(rng):
    # The 25 family pairs, each with one coupled cost rotating from block
    # to block; one of the nine pairs that involve the uniform family (all
    # cheap) takes the additive cost instead.  Each block so has the same
    # nine cheap, twelve medium and four Nakagami-y expensive queries.
    uniform_pairs = [(x, y) for x in _LIGHT_FAMILIES for y in _LIGHT_FAMILIES if "uniform" in (x, y)]
    for b in itertools.count():
        skeleton = []
        for i, x in enumerate(_LIGHT_FAMILIES):
            for j, y in enumerate(_LIGHT_FAMILIES):
                cost = _COUPLED_COSTS[(i + 2 * j + b) % len(_COUPLED_COSTS)]
                if (x, y) == uniform_pairs[b % len(uniform_pairs)]:
                    cost = "additive"
                skeleton.append((cost, x, y))
        yield _fill(rng, skeleton, b, independent=True)


def _bounds_rician(rng):
    # Each cost twice against a Rician y and once against a Rayleigh y: 21
    # queries.  K decides the series length, and its range is stratified.
    # Rayleigh-y queries are the cheaper group; keeping them a minority
    # puts the median inside the Rician-y group rather than on the edge
    # between the two, where it would swing with every small slowdown.
    for b in itertools.count():
        skeleton = [(c, "rician", y) for c in _ALL_COSTS for y in ("rician", "rician", "rayleigh")]
        yield _fill(rng, skeleton, b, independent=False)


def _mc_oracle(rng):
    # 16 scenarios (every family pair, costs spread over them) fixed per
    # seed, so the untimed quadrature references stay few; each block runs
    # every scenario under all three couplings with fresh sampler seeds.
    skeleton = [
        (_ALL_COSTS[(i + 2 * j) % len(_ALL_COSTS)], x, y)
        for i, x in enumerate(_MC_FAMILIES)
        for j, y in enumerate(_MC_FAMILIES)
    ]
    scenarios = _fill(rng, skeleton, 0)
    while True:
        ops = [dict(s, coupling=c, seed=int(rng.integers(1 << 31))) for s in scenarios for c in _COUPLINGS]
        yield [ops[k] for k in rng.permutation(len(ops))]


def _cli_session(rng):
    while True:
        yield [dict(SCRIPT[k]) for k in rng.permutation(len(SCRIPT))]


_GENERATORS = {
    "bounds_light": _bounds_light,
    "bounds_rician": _bounds_rician,
    "mc_oracle": _mc_oracle,
    "cli_session": _cli_session,
}


def blocks(workload, seed):
    """Endless, deterministic block stream for ``workload`` under ``seed``."""
    return _GENERATORS[workload](np.random.default_rng([0x6465, int(seed) % (1 << 64)]))


def make_batch(workload, seed, n_blocks):
    """The first ``n_blocks`` blocks, flattened."""
    stream = blocks(workload, seed)
    return [op for _ in range(n_blocks) for op in next(stream)]


def execute(op, tracer=None):
    """Run one bounds or Monte Carlo operation; with ``tracer``, through proxies."""
    cost = costs.parse_cost(op["cost"])
    fx = marginals.parse_marginal(op["fx"])
    fy = marginals.parse_marginal(op["fy"])
    if tracer is not None:
        cost = TracedCost(cost, tracer)
        fx = TracedMarginal(fx, tracer, "x")
        fy = TracedMarginal(fy, tracer, "y")
    if "coupling" in op:
        return sampler.mc_expectation(cost, fx, fy, op["coupling"], MC_DRAWS, op["seed"])
    report = monge.check_cross_difference(cost, transport.working_domain(fx, fy), n=64)
    return transport.bounds(cost, fx, fy, report, include_independent=op["independent"])

