"""Monte Carlo cross-checks: determinism, CLT agreement, coupling structure."""

import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from depbound import sampler
from depbound.costs import CostFunction, builtin
from depbound.marginals import Bernoulli, Exponential, LogNormal, Rayleigh, Uniform, parse_marginal
from depbound.sampler import (
    _CHUNK,
    COUPLINGS,
    McEstimate,
    NonFiniteCostError,
    mc_expectation,
)
from depbound.transport import (
    COUPLING_MAPS,
    comonotonic_expectation,
    countermonotonic_expectation,
    independent_expectation,
)
from depbound.tworay import empirical_correlation

E1 = Exponential(1.0)
E2 = Exponential(2.0)


def _one_shot_draws(fx, fy, coupling, n, seed):
    """All n draws at once, as mc_expectation's streams produce them."""
    root = np.random.SeedSequence(seed)
    with np.errstate(over="ignore"):
        if coupling == "independent":
            seq_x, seq_y = root.spawn(2)
            x = fx.quantile(np.maximum(np.random.default_rng(seq_x).random(n), 2.0**-53))
            y = fy.quantile(np.maximum(np.random.default_rng(seq_y).random(n), 2.0**-53))
            return x, y
        u = np.maximum(np.random.default_rng(root).random(n), 2.0**-53)
        return fx.quantile(u), fy.quantile(u if coupling == "comonotonic" else 1.0 - u)


class _Split:
    """E1, except negative below ``lo`` and overflowing above ``hi``."""

    name = "split"

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def quantile(self, u):
        return np.where(u < self.lo, -1.0, np.where(u > self.hi, np.inf, E1.quantile(u)))


class _Echo:
    """A duck-typed marginal whose quantile returns the array it was given, or a copy."""

    name = "echo"

    def __init__(self, copy):
        self.copy = copy

    def quantile(self, u):
        return np.array(u) if self.copy else u


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cost = builtin("sinr")
        a = mc_expectation(cost, E1, E2, "comonotonic", 50_000, seed=7)
        b = mc_expectation(cost, E1, E2, "comonotonic", 50_000, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        cost = builtin("sinr")
        a = mc_expectation(cost, E1, E2, "independent", 50_000, seed=7)
        b = mc_expectation(cost, E1, E2, "independent", 50_000, seed=8)
        assert a.value != b.value

    @pytest.mark.parametrize("n", [100, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK,
                                   2 * _CHUNK + 1, 3 * _CHUNK + 7, 6 * _CHUNK + 7])
    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_chunks_match_one_shot_evaluation_exactly(self, coupling, n):
        # Chunked evaluation on parts must not move a bit: same draws, same
        # costs, each chunk's mean and M2, merged in chunk order.  Two parts
        # meet at a chunk multiple, so n straddles both kinds of edge.
        cost, fx = builtin("sinr"), LogNormal(0.0, 0.5)
        x, y = _one_shot_draws(fx, E2, coupling, n, seed=n)
        v = cost(x, y)
        count, mean, m2 = 0, 0.0, 0.0
        for a in range(0, n, _CHUNK):
            chunk = v[a:a + _CHUNK]
            mb = float(chunk.mean())
            m2b = float(np.sum((chunk - mb) ** 2))
            nb, total = chunk.size, count + chunk.size
            delta = mb - mean
            mean += delta * nb / total
            m2 += m2b + delta * delta * count * nb / total
            count = total
        est = mc_expectation(cost, fx, E2, coupling, n, seed=n)
        assert est.value == mean
        assert est.stderr == float(np.sqrt(m2 / (n - 1) / n))

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_memory_is_one_buffer_per_batch(self, coupling):
        # 10^6 draws: chunk-sized temporaries plus 16 bytes per chunk, where
        # an 8 MB buffer of all costs alone would break the bound.
        cost = builtin("sinr")
        mc_expectation(cost, E1, E2, coupling, 1_000, seed=1)
        tracemalloc.start()
        try:
            mc_expectation(cost, E1, E2, coupling, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_a_warm_part_allocates_only_the_costs(self, coupling, monkeypatch):
        # With the free list holding a part's buffers, a chunk allocates only
        # sinr's result; the previous chunk's is alive while it is made.
        monkeypatch.setattr(sampler, "_PARTS", 1)
        cost = builtin("sinr")
        mc_expectation(cost, E1, E2, coupling, 1_000, seed=1)
        tracemalloc.start()
        try:
            mc_expectation(cost, E1, E2, coupling, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * _CHUNK + 32 * 1024

    @pytest.mark.parametrize("parts", [1, 2])
    def test_a_call_that_raised_leaves_the_next_call_unchanged(self, parts, monkeypatch):
        # The failing parts put their buffers back mid-sample, dirty; the
        # next call takes those same buffers and must not read what they hold.
        monkeypatch.setattr(sampler, "_PARTS", parts)
        cost, fx = builtin("sinr"), LogNormal(0.0, 0.5)
        n = 3 * _CHUNK + 7
        before = mc_expectation(cost, fx, E2, "countermonotonic", n, seed=11)
        held = sorted(map(id, sampler._FREE_BUFFERS))
        fat = LogNormal(0.0, 1_000.0)
        with pytest.raises(NonFiniteCostError, match="overflow"):
            mc_expectation(builtin("product"), fat, fat, "comonotonic", 4 * _CHUNK, seed=1)
        assert sorted(map(id, sampler._FREE_BUFFERS)) == held
        assert mc_expectation(cost, fx, E2, "countermonotonic", n, seed=11) == before

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_result_does_not_depend_on_the_parts(self, coupling, monkeypatch):
        # Eleven chunks, the last three draws long; three parts put more
        # threads than cores on a two-core host, and a short switch interval
        # makes them interleave often.
        cost, fx = builtin("sinr"), LogNormal(0.0, 0.5)
        n = 10 * _CHUNK + 3
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for parts in (1, 2, 3):
                monkeypatch.setattr(sampler, "_PARTS", parts)
                results.append(mc_expectation(cost, fx, E2, coupling, n, seed=17))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_quantiles_and_costs_may_return_arrays_they_do_not_own(self, coupling, parts, monkeypatch):
        # The sampler writes into no array a quantile or the cost returns:
        # echoing the draws gives what copying them gives, and a cost that
        # returns a view of the caller's array leaves that array as it was.
        monkeypatch.setattr(sampler, "_PARTS", parts)
        n = 3 * _CHUNK + 7
        echo = mc_expectation(CostFunction("id", lambda x, y: x), _Echo(False), _Echo(False), coupling, n, seed=5)
        copy = mc_expectation(CostFunction("id", lambda x, y: x.copy()), _Echo(True), _Echo(True), coupling, n,
                              seed=5)
        assert echo == copy
        held = np.random.default_rng(3).random(_CHUNK)
        kept = held.copy()
        shared = mc_expectation(CostFunction("held", lambda x, y: held[:x.size]), E1, E2, coupling, n, seed=5)
        copied = mc_expectation(CostFunction("held", lambda x, y: held[:x.size].copy()), E1, E2, coupling, n,
                                seed=5)
        assert shared == copied
        np.testing.assert_array_equal(held, kept)

    def test_one_chunk_batches_start_no_thread(self, monkeypatch):
        class NoSubmit(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                raise AssertionError("submitted a part")

        monkeypatch.setattr(sampler, "_PARTS", 2)
        monkeypatch.setattr(sampler, "ThreadPoolExecutor", NoSubmit)
        est = mc_expectation(builtin("sinr"), E1, E2, "comonotonic", _CHUNK, seed=4)
        assert est.n == _CHUNK

    def test_parts_count_the_cpus_the_process_may_run_on(self, monkeypatch):
        # Pinned to one CPU of two, as under `taskset -c 0`, the sampler runs one part.
        assert sampler._PARTS == min(2, sampler._usable_cpus())
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sampler._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert sampler._usable_cpus() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sampler._usable_cpus() == 1

    def test_scalar_cost_broadcasts_over_the_chunk(self):
        const = CostFunction(name="const", fn=lambda x, y: 2.5)
        est = mc_expectation(const, E1, E2, "independent", 2 * _CHUNK + 1, seed=1)
        assert (est.value, est.stderr) == (2.5, 0.0)

    def test_metadata_round_trip(self):
        est = mc_expectation(builtin("additive"), E1, E2, "independent", 1_000, seed=3)
        assert isinstance(est, McEstimate)
        assert est.n == 1_000
        assert est.seed == 3
        assert est.stderr > 0


class TestValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mc_expectation(builtin("additive"), E1, E2, "independent", 99, seed=0)

    @pytest.mark.parametrize("n", [150.7, True, 1e6])
    def test_rejects_an_n_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            mc_expectation(builtin("additive"), E1, E2, "independent", n, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            mc_expectation(builtin("additive"), E1, E2, "independent", 1_000, seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        est = mc_expectation(builtin("additive"), E1, E2, "independent", 1_000, seed=np.int64(3))
        assert est == mc_expectation(builtin("additive"), E1, E2, "independent", 1_000, seed=3)
        assert type(est.seed) is int

    def test_numpy_integer_n_is_accepted(self):
        est = mc_expectation(builtin("additive"), E1, E2, "independent", np.int64(1_000), seed=3)
        assert est == mc_expectation(builtin("additive"), E1, E2, "independent", 1_000, seed=3)
        assert type(est.n) is int

    def test_rejects_unknown_coupling(self):
        with pytest.raises(ValueError, match="coupling"):
            mc_expectation(builtin("additive"), E1, E2, "martingale", 1_000, seed=0)

    def test_coupling_names_registry(self):
        # The table's maps, then independence; the names key the benchmark's probe metrics.
        assert COUPLINGS == (*COUPLING_MAPS, "independent") == ("comonotonic", "countermonotonic", "independent")

    def test_dependent_draws_read_the_coupling_table(self, monkeypatch):
        cost = builtin("sinr")
        monkeypatch.setitem(COUPLING_MAPS, "countermonotonic", lambda u, out=None: u)
        counter = mc_expectation(cost, E1, E2, "countermonotonic", 40_000, seed=5)
        assert counter == mc_expectation(cost, E1, E2, "comonotonic", 40_000, seed=5)

    def test_overflowing_draws_raise(self):
        fat = LogNormal(0.0, 1_000.0)
        with pytest.raises(NonFiniteCostError, match="overflow"):
            mc_expectation(builtin("product"), fat, fat, "comonotonic", 1_000, seed=1)


class TestAgreement:
    QUAD = {
        "comonotonic": comonotonic_expectation,
        "countermonotonic": countermonotonic_expectation,
        "independent": independent_expectation,
    }

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_matches_quadrature_within_4_sigma(self, coupling):
        cost = builtin("sinr")
        exact = self.QUAD[coupling](cost, E1, E2).value
        est = mc_expectation(cost, E1, E2, coupling, 400_000, seed=20260819)
        assert abs(est.value - exact) < 4 * est.stderr

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    def test_bernoulli_pair_matches_quadrature(self, coupling):
        # Step quantiles: the draws take two values, the quadrature splits at the steps.
        fx, fy = Bernoulli(0.3), Bernoulli(0.6)
        cost = builtin("sinr")
        exact = self.QUAD[coupling](cost, fx, fy).value
        est = mc_expectation(cost, fx, fy, coupling, 200_000, seed=11)
        assert est.stderr > 0.0
        assert abs(est.value - exact) <= 6 * est.stderr

    def test_additive_all_couplings_share_mean(self):
        cost = builtin("additive")
        target = E1.mean() + E2.mean()
        for coupling in sorted(COUPLINGS):
            est = mc_expectation(cost, E1, E2, coupling, 200_000, seed=5)
            assert abs(est.value - target) < 4 * est.stderr

    def test_dependent_couplings_share_stream(self):
        # Same seed, same uniforms: the two dependent estimates for an
        # additive cost must reconstruct from mirrored marginal draws.
        cost = builtin("additive")
        n, seed = 65_536, 424242
        co = mc_expectation(cost, E1, E2, "comonotonic", n, seed=seed)
        counter = mc_expectation(cost, E1, E2, "countermonotonic", n, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        u = np.maximum(rng.random(n), 2.0**-53)
        expect_co = np.mean(E1.quantile(u) + E2.quantile(u))
        expect_counter = np.mean(E1.quantile(u) + E2.quantile(1.0 - u))
        assert co.value == pytest.approx(float(expect_co), rel=1e-12)
        assert counter.value == pytest.approx(float(expect_counter), rel=1e-12)

    def test_extreme_coupling_brackets_independent(self):
        cost = builtin("prop_fair")
        lo = mc_expectation(cost, E1, E1, "countermonotonic", 300_000, seed=90)
        mid = mc_expectation(cost, E1, E1, "independent", 300_000, seed=91)
        hi = mc_expectation(cost, E1, E1, "comonotonic", 300_000, seed=92)
        guard = 4 * (lo.stderr + mid.stderr + hi.stderr)
        assert lo.value - guard < mid.value < hi.value + guard


class TestCorrelation:
    def test_perfect_lines(self):
        x = np.linspace(0.0, 5.0, 1_000)
        assert empirical_correlation(x, 2 * x + 1) == pytest.approx(1.0)
        assert empirical_correlation(x, -0.5 * x) == pytest.approx(-1.0)

    def test_degenerate_inputs_rejected(self):
        x = np.linspace(0.0, 5.0, 100)
        with pytest.raises(ValueError):
            empirical_correlation(x, np.full(100, 2.0))
        with pytest.raises(ValueError):
            empirical_correlation(x, x[:50])
        with pytest.raises(ValueError):
            empirical_correlation(x[:1], x[:1])

    @pytest.mark.parametrize("bad", ["inf", "nan", "huge"])
    def test_non_finite_input_or_moments_rejected(self, bad):
        # Each of these returned NaN, or 0.0 for the huge sample, whose
        # squared deviations overflow.
        x = np.linspace(0.0, 5.0, 100)
        y = {"inf": np.r_[x[:-1], np.inf], "nan": np.r_[np.nan, x[1:]], "huge": 1e200 * x}[bad]
        with pytest.raises(ValueError, match="non-finite" if bad != "huge" else "fit a float"):
            empirical_correlation(x, y)
        with pytest.raises(ValueError):
            empirical_correlation(y, x)

    def test_huge_variances_whose_product_overflows(self):
        # Each variance is about 2e202, so vx * vy overflowed and raised.
        x = np.linspace(0.0, 5.0, 100)
        assert empirical_correlation(1e100 * x, 1e100 * x) == 1.0

    def test_countermonotonic_exponential_pair(self):
        # Corr(X, Y) under the opposed coupling of two unit exponentials
        # is 1 - pi^2/6.
        rng = np.random.default_rng(314159)
        u = rng.random(500_000)
        rho = empirical_correlation(E1.quantile(u), E1.quantile(1.0 - u))
        assert rho == pytest.approx(1.0 - math.pi**2 / 6.0, abs=5e-3)

    def test_comonotonic_identical_marginals(self):
        rng = np.random.default_rng(2718)
        u = rng.random(100_000)
        x = Rayleigh(1.0).quantile(u)
        assert empirical_correlation(x, x.copy()) == pytest.approx(1.0)


class TestErrorChannel:
    def test_cost_overflow_names_the_point(self):
        blow = CostFunction(name="blow", fn=lambda x, y: np.exp(x * 500.0) + 0.0 * y)
        with pytest.raises(NonFiniteCostError, match="blow"):
            mc_expectation(blow, Uniform(0.5, 3.0), E1, "independent", 1_000, seed=2)

    def test_single_fault_names_the_first_bad_draw(self):
        # With seed 2 the first NaN is draw 73,354, past the first two chunks
        # of 2^15, so in the second part when the sample has two.
        nan_tail = CostFunction(name="nan_tail", fn=lambda x, y: np.where(x > 11.0, np.nan, x + y))
        n = 3 * _CHUNK + 7
        x, y = _one_shot_draws(E1, E2, "comonotonic", n, seed=2)
        i = int(np.flatnonzero(x > 11.0)[0])
        with pytest.raises(NonFiniteCostError) as info:
            mc_expectation(nan_tail, E1, E2, "comonotonic", n, seed=2)
        assert str(info.value) == f"cost 'nan_tail' returned nan at (x={float(x[i])!r}, y={float(y[i])!r})"

    def test_single_fault_overflowing_draw(self):
        fat = parse_marginal("lognormal:0,400")
        x, y = _one_shot_draws(fat, E1, "comonotonic", 1_000, seed=1729)
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        with pytest.raises(NonFiniteCostError) as info:
            mc_expectation(builtin("product"), fat, E1, "comonotonic", 1_000, seed=1729)
        assert str(info.value) == (
            f"marginal draw overflowed: (x=inf, y={float(y[i])!r}) before cost 'product'"
        )

    def test_single_fault_negative_draw(self):
        with pytest.raises(ValueError, match="^cost 'product': arguments must be nonnegative$"):
            mc_expectation(builtin("product"), parse_marginal("uniform:-1,1"), E1, "comonotonic",
                           3 * _CHUNK + 7, seed=1729)

    def test_overflowing_moments_raise(self):
        # Every draw and cost is finite, but the squared deviations are not.
        with pytest.raises(NonFiniteCostError, match="^moments of cost 'product' overflowed: "):
            mc_expectation(builtin("product"), parse_marginal("lognormal:0,150"), E1, "independent",
                           300_000, seed=3)

    @pytest.mark.parametrize("parts", [1, 2])
    def test_finite_costs_whose_chunk_sum_overflows_raise(self, monkeypatch, parts):
        # Every cost is finite but each chunk's sum is not: the scan for the
        # first bad cost finds none, and the moment check reports the overflow.
        monkeypatch.setattr(sampler, "_PARTS", parts)
        huge = CostFunction(name="huge", fn=lambda x, y: 1e306 * (x + y))
        n = 2 * _CHUNK
        values = huge(*_one_shot_draws(E1, E2, "comonotonic", n, seed=6))
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(values)) and not np.isfinite(np.add.reduce(values[:_CHUNK]))
        with pytest.raises(NonFiniteCostError, match="^moments of cost 'huge' overflowed: "):
            mc_expectation(huge, E1, E2, "comonotonic", n, seed=6)

    @pytest.mark.parametrize("rank, first_part", [(1, 1), (3, 0)], ids=["second-part-only", "both-parts"])
    def test_first_bad_draw_across_parts(self, monkeypatch, rank, first_part):
        # NaN above the rank-th largest draw of the first part: faults in the
        # second part only, or in both, where the first part's must win.
        monkeypatch.setattr(sampler, "_PARTS", 2)
        n, edge = 4 * _CHUNK, 2 * _CHUNK
        x, y = _one_shot_draws(E1, E2, "comonotonic", n, seed=7)
        top = float(np.sort(x[:edge])[-rank])
        bad = np.flatnonzero(x > top)
        i = int(bad[0])
        assert (i >= edge) == bool(first_part) and bad[-1] >= edge
        nan_top = CostFunction(name="nan_top", fn=lambda a, b: np.where(a > top, np.nan, a + b))
        with pytest.raises(NonFiniteCostError) as info:
            mc_expectation(nan_top, E1, E2, "comonotonic", n, seed=7)
        assert str(info.value) == f"cost 'nan_top' returned nan at (x={float(x[i])!r}, y={float(y[i])!r})"

    def test_first_part_error_wins(self, monkeypatch):
        # Negative draws only in the first part, overflowing ones only in the
        # second: the domain check's ValueError wins, as in one sequential pass.
        n, edge = 4 * _CHUNK, 2 * _CHUNK
        root = np.random.SeedSequence(4)
        u = np.maximum(np.random.default_rng(root).random(n), 2.0**-53)
        lo, hi = float(u[edge:].min()), float(u[:edge].max())
        assert u[:edge].min() < lo and u[edge:].max() > hi
        for parts in (1, 2, 3):
            monkeypatch.setattr(sampler, "_PARTS", parts)
            with pytest.raises(ValueError, match="^cost 'product': arguments must be nonnegative$"):
                mc_expectation(builtin("product"), _Split(lo, hi), E2, "comonotonic", n, seed=4)
            with pytest.raises(NonFiniteCostError, match="^marginal draw overflowed: "):
                mc_expectation(builtin("product"), _Split(0.0, hi), E2, "comonotonic", n, seed=4)
