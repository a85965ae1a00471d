"""``depbound collision`` against the channel's closed forms.

Each user picks resource one with probability p_i and a slot succeeds
when the picks differ.  With q_i = 1 - p_i, the joint law of the picks
has one free parameter, p11 = P(both pick resource two), feasible on
[max(0, q1 + q2 - 1), min(q1, q2)].  Success 2 - p1 - p2 - 2 p11 and the
picks' correlation (p11 - q1 q2) / sqrt(p1 q1 p2 q2) are linear in it.
These closed forms are the oracle here; the command computes the p11
range as one coupling integral over two Bernoulli marginals and reads
the other fields off it.
"""

import json
import math

import numpy as np
import pytest

from depbound import cli

GRID = [0.0, 1e-5, 0.05, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99999, 1.0, 0.123456789]


def _closed_form(p1, p2):
    """The oracle: the range payload, and the maps p11 -> u and p11 -> rho."""
    q1, q2 = 1.0 - p1, 1.0 - p2
    lo, hi = max(0.0, q1 + q2 - 1.0), min(q1, q2)
    spread = math.sqrt(p1 * q1 * p2 * q2)

    def u(p11):
        return min(max(2.0 - p1 - p2 - 2.0 * p11, 0.0), 1.0)

    def rho(p11):
        # Held to [-1, 1] as u is to [0, 1]: at p1 = 0.05, p2 = 0.95 it reads -1.0000000000000004.
        return min(max((p11 - q1 * q2) / spread, -1.0), 1.0)

    payload = {"u_independent": p1 * q2 + q1 * p2, "p11_range": [lo, hi], "u_range": [u(hi), u(lo)],
               "rho_range": None if spread == 0.0 else [rho(lo), rho(hi)]}
    return payload, u, rho


def _argv(p1, p2, p11=None):
    return ["collision", "--p1", repr(p1), "--p2", repr(p2), *([] if p11 is None else ["--p11", repr(p11)])]


def _collision(p1, p2, p11=None):
    """The command's payload before its numbers are rounded for printing."""
    _, (payload, _) = cli._call(_argv(p1, p2, p11))
    return payload


def _fails(capsys, argv):
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


class TestPointFormulas:
    def test_symmetric_half(self):
        doc = _collision(0.5, 0.5)
        assert doc["p11_range"] == pytest.approx([0.0, 0.5], abs=1e-15)
        assert doc["u_independent"] == pytest.approx(0.5)
        # Joint idle mass 0: both slots always carry exactly one arrival.
        assert _collision(0.5, 0.5, 0.0)["u"] == pytest.approx(1.0)
        assert _collision(0.5, 0.5, 0.0)["rho"] == pytest.approx(-1.0)
        # Joint idle mass 1/2: slots mirror each other, every arrival collides
        # or the pair is idle.
        assert _collision(0.5, 0.5, 0.5)["u"] == pytest.approx(0.0)
        assert _collision(0.5, 0.5, 0.5)["rho"] == pytest.approx(1.0)
        assert _collision(0.5, 0.5, 0.25)["rho"] == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_example(self):
        doc = _collision(0.9, 0.5)
        assert doc["p11_range"] == pytest.approx([0.0, 0.1])
        assert doc["u_range"] == pytest.approx([0.4, 0.6])
        assert doc["rho_range"] == pytest.approx([-1.0 / 3.0, 1.0 / 3.0])
        # p11 = (1-p1)(1-p2) is the independence point.
        point = _collision(0.9, 0.5, 0.05)
        assert point["rho"] == pytest.approx(0.0, abs=1e-12)
        assert point["u"] == pytest.approx(doc["u_independent"])

    def test_u_formula(self):
        lo, hi = _collision(0.3, 0.6)["p11_range"]
        for p11 in np.linspace(lo, hi, 7):
            assert _collision(0.3, 0.6, float(p11))["u"] == pytest.approx(2.0 - 0.3 - 0.6 - 2.0 * p11)


class TestAnalyze:
    def test_result_schema(self, capsys):
        doc = _collision(0.5, 0.5)
        assert doc["u_range"] == [0.0, 1.0]
        assert doc["rho_range"] == [-1.0, 1.0]
        assert doc["u_independent"] == pytest.approx(0.5)
        assert cli.run(_argv(0.5, 0.5)) == 0
        printed = capsys.readouterr().out
        assert printed == '{"u_independent": 0.5, "p11_range": [0.0, 0.5], "u_range": [0.0, 1.0], ' \
                          '"rho_range": [-1.0, 1.0]}\n'
        assert list(_collision(0.9, 0.5, 0.05)) == ["u_independent", "p11_range", "u_range", "rho_range",
                                                    "p11", "u", "rho"]

    def test_u_range_orientation(self):
        # U falls as joint idling rises, so the range endpoints swap order
        # relative to the p11 endpoints.
        doc = _collision(0.7, 0.4)
        lo11, hi11 = doc["p11_range"]
        assert doc["u_range"][0] == pytest.approx(_collision(0.7, 0.4, hi11)["u"])
        assert doc["u_range"][1] == pytest.approx(_collision(0.7, 0.4, lo11)["u"])
        assert doc["u_range"][0] <= doc["u_independent"] <= doc["u_range"][1]

    def test_degenerate_marginal_has_no_rho(self):
        for p1, p2 in ((1.0, 0.5), (0.0, 0.5), (0.3, 1.0), (0.0, 1.0)):
            doc = _collision(p1, p2)
            assert doc["rho_range"] is None
            assert doc["u_range"][0] == doc["u_range"][1] == pytest.approx(_closed_form(p1, p2)[0]["u_independent"])
            assert _collision(p1, p2, doc["p11_range"][0])["rho"] is None

    def test_monotone_structure_randomized(self):
        rng = np.random.default_rng(60601)
        for _ in range(1_000):
            p1, p2 = (float(p) for p in rng.uniform(0.01, 0.99, size=2))
            doc = _collision(p1, p2)
            lo, hi = doc["p11_range"]
            assert lo <= (1 - p1) * (1 - p2) + 1e-12
            assert (1 - p1) * (1 - p2) <= hi + 1e-12
            points = [_collision(p1, p2, float(t)) for t in np.linspace(lo, hi, 9)]
            u = np.array([point["u"] for point in points])
            rho = np.array([point["rho"] for point in points])
            # U strictly decreasing, rho strictly increasing in the idle mass.
            assert np.all(np.diff(u) < 0)
            assert np.all(np.diff(rho) > 0)
            assert doc["u_range"] == pytest.approx([u[-1], u[0]], abs=1e-12)
            assert doc["rho_range"] == pytest.approx([rho[0], rho[-1]], abs=1e-12)
            assert 0.0 <= doc["u_range"][0] and doc["u_range"][1] <= 1.0

    def test_sharpness_endpoints_are_attained(self):
        # The reported extremes coincide with feasible joint laws, not
        # relaxations: plugging the endpoint p11 back in reproduces them.
        doc = _collision(0.25, 0.8)
        lo11, hi11 = doc["p11_range"]
        assert _collision(0.25, 0.8, lo11)["u"] == pytest.approx(doc["u_range"][1])
        assert _collision(0.25, 0.8, hi11)["u"] == pytest.approx(doc["u_range"][0])


class TestValidation:
    def test_probability_domain(self, capsys):
        for bad in ("-0.1", "1.1", "nan", "inf"):
            err = _fails(capsys, ["collision", "--p1", bad, "--p2", "0.5"])
            assert err.startswith(f"error: p1 must be a probability in [0, 1], got {float(bad)!r}")
            err = _fails(capsys, ["collision", "--p1", "0.5", "--p2", bad])
            assert err.startswith("error: p2 must be a probability")
        _fails(capsys, ["collision", "--p1", "half", "--p2", "0.5"])

    def test_p11_outside_range_rejected(self, capsys):
        assert _fails(capsys, _argv(0.5, 0.5, 0.6)) == "error: p11=0.6 outside the feasible range [0.0, 0.5]\n"
        _fails(capsys, _argv(0.5, 0.5, -1e-6))
        # Within rounding of an end is still feasible; 1e-13 beyond it is not.
        assert _collision(0.5, 0.5, -2.0**-53)["u"] == 1.0
        assert _collision(0.5, 0.5, 0.5 + 2.0**-52)["u"] == 0.0
        _fails(capsys, _argv(0.5, 0.5, -1e-13))
        _fails(capsys, _argv(0.5, 0.5, 0.5 + 1e-13))
        # The range is [0, 1.0003e-13]: an absolute 1e-12 slack took five times its upper end.
        err = _fails(capsys, _argv(0.9999999999999, 0.5, 5e-13))
        assert err.startswith("error: p11=5e-13 outside the feasible range [0.0, 1.000310945187266e-13]")

    def test_p11_range_tightens_with_load(self):
        # Heavier load shrinks the feasible idle-overlap interval.
        wide = _collision(0.2, 0.2)["p11_range"]
        narrow = _collision(0.9, 0.9)["p11_range"]
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])


class TestGrid:
    """Every pair of ``GRID``, alone and at both ends of its p11 range, meets the closed forms."""

    @pytest.mark.parametrize("p1", GRID)
    def test_grid_matches_closed_forms(self, capsys, p1):
        for p2 in GRID:
            oracle, u, rho = _closed_form(p1, p2)
            lo, hi = oracle["p11_range"]
            spread = math.sqrt(p1 * (1.0 - p1) * p2 * (1.0 - p2))
            for p11 in (None, lo, hi):
                doc = _collision(p1, p2, p11)
                for key in ("u_independent", "p11_range", "u_range"):
                    assert doc[key] == pytest.approx(oracle[key], rel=0.0, abs=1e-15), (p1, p2, key)
                if spread == 0.0:
                    assert doc["rho_range"] is None
                else:
                    assert doc["rho_range"] == pytest.approx(oracle["rho_range"], rel=0.0, abs=1e-15 / spread)
                if p11 is not None:
                    assert doc["u"] == u(p11)
                    assert doc["rho"] == (None if spread == 0.0 else rho(p11))
                assert cli.run(_argv(p1, p2, p11)) == 0
                assert capsys.readouterr().err == ""

    def test_loads_within_rounding_of_an_end(self, capsys):
        # Such a load puts a cut within 1e-15 of 0 or 1, and near a degenerate marginal the
        # rounding in p11 swamps the spread of the picks, so rho is held to [-1, 1].
        # u_range is the image of the p11 range, so it is ordered even where the upper end of p11 cannot
        # see an atom above 1 - 2^-53 (0.9999999999999999 against 1 - 1e-15), and the independent
        # success is printed from its closed form (0.0 against 1e-300 is 1e-300, not 0).
        near = [1e-200, 1e-17, 1e-15, 1.0 - 1e-15, 0.9999999999999999]
        for p1, p2 in [(p1, p2) for p1 in near for p2 in GRID + near] + [(0.0, 1e-300)]:
            oracle, _, _ = _closed_form(p1, p2)
            doc = _collision(p1, p2)
            for key in ("u_independent", "p11_range", "u_range"):
                assert doc[key] == pytest.approx(oracle[key], rel=0.0, abs=1e-15), (p1, p2, key)
            assert doc["u_range"][0] <= doc["u_range"][1], (p1, p2, doc["u_range"])
            assert doc["rho_range"] is None or all(-1.0 <= r <= 1.0 for r in doc["rho_range"]), (p1, p2)
            assert cli.run(_argv(p1, p2)) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed = json.loads(captured.out)
            assert printed["u_independent"] == float(f"{oracle['u_independent']:.12g}"), (p1, p2)
        # 1 - 1e-200 is 1.0: X is constant, so every coupling has p11 = q2 and the picks are uncorrelated.
        assert _collision(1e-200, 0.5)["rho_range"] == [0.0, 0.0]

    def test_equal_loads_never_collide_comonotonically(self):
        # The closed form printed 1.11022302463e-16 here for an exact 0:
        # coupled comonotonically, equal picks always agree.
        assert _collision(0.9, 0.9)["u_range"][0] == 0.0
