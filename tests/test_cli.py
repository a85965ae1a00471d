"""End-to-end command-line contract: schemas, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

from depbound.cli import DEFAULT_SEED, run


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("DEPBOUND_SEED", raising=False)


def _ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    return captured.out


def _fail(capsys, argv, code):
    got = run(argv)
    captured = capsys.readouterr()
    assert got == code, captured.err
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.strip().count("\n") == 0
    return captured.err


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestBounds:
    def test_json_schema_and_values(self, capsys):
        out = _ok(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2",
                           "--independent"])
        doc = json.loads(out)
        assert list(doc) == ["lower", "upper", "independent", "lower_err", "upper_err",
                             "truncation_bound", "classification"]
        assert doc["classification"] == "submodular"
        assert doc["lower"] == pytest.approx(0.554685530154, abs=1e-9)
        assert doc["upper"] == pytest.approx(0.870212863218, abs=1e-9)
        assert doc["independent"] == pytest.approx(0.722657216659, abs=1e-9)
        assert doc["lower"] < doc["independent"] < doc["upper"]
        assert 0 <= doc["lower_err"] < 1e-6
        assert 0 <= doc["truncation_bound"] < 1e-6

    def test_independent_omitted_without_flag(self, capsys):
        doc = json.loads(_ok(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1",
                                      "--fy", "exp:2"]))
        assert "independent" not in doc

    def test_twelve_significant_digits(self, capsys):
        doc = json.loads(_ok(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1",
                                      "--fy", "exp:2"]))
        for key in ("lower", "upper"):
            assert doc[key] == float(f"{doc[key]:.12g}")

    def test_csv_format(self, capsys):
        rows = _rows(_ok(capsys, ["bounds", "--cost", "prop_fair", "--fx", "exp:1",
                                  "--fy", "exp:1", "--independent", "--csv"]))
        assert rows[0] == ["lower", "upper", "independent"]
        lo, hi, ind = map(float, rows[1])
        assert lo < ind < hi

    def test_csv_blank_when_independent_skipped(self, capsys):
        rows = _rows(_ok(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1",
                                  "--fy", "exp:2", "--format", "csv"]))
        assert rows[1][2] == ""

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        out = _ok(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2",
                           "--out", str(path)])
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["classification"] == "submodular"

    def test_parameterized_cost_spec(self, capsys):
        doc = json.loads(_ok(capsys, ["bounds", "--cost", "mac_rate1:snr_db=10",
                                      "--fx", "rayleigh:1", "--fy", "rayleigh:1"]))
        assert doc["classification"] == "submodular"
        assert doc["lower"] < doc["upper"]


class TestSweep:
    def test_csv_header_and_monotone_columns(self, capsys):
        rows = _rows(_ok(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1",
                                  "--fy", "exp:1", "--range", "-5:5:5", "--csv"]))
        assert rows[0] == ["snr", "min", "max", "ind"]
        assert len(rows) == 4
        table = [[float(v) for v in row] for row in rows[1:]]
        assert [r[0] for r in table] == [-5.0, 0.0, 5.0]
        for col in (1, 2, 3):
            series = [r[col] for r in table]
            assert series == sorted(series)
        for r in table:
            assert r[1] < r[3] < r[2]

    def test_json_rows(self, capsys):
        doc = json.loads(_ok(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1",
                                      "--fy", "exp:1", "--range", "0:10:10", "--json"]))
        assert [row["param"] for row in doc] == [0.0, 10.0]
        for row in doc:
            assert set(row) == {"param", "lower", "upper", "independent",
                                "lower_err", "upper_err"}
            assert row["lower"] < row["independent"] < row["upper"]

    def test_non_default_parameter_keeps_its_name(self, capsys):
        rows = _rows(_ok(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1",
                                  "--fy", "exp:1", "--param", "s", "--range",
                                  "0.5:1.5:0.5", "--csv"]))
        assert rows[0][0] == "s"
        assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0, 1.5]

    def test_bad_range_is_usage_error(self, capsys):
        _fail(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1",
                       "--range", "5:-5:1"], 1)
        _fail(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1",
                       "--range", "0:10"], 1)


class TestMc:
    def test_json_schema(self, capsys):
        doc = json.loads(_ok(capsys, ["mc", "--cost", "sinr", "--fx", "exp:1",
                                      "--fy", "exp:2", "--coupling", "co",
                                      "--n", "10000", "--seed", "7"]))
        assert set(doc) == {"value", "stderr", "n", "seed"}
        assert doc["n"] == 10000
        assert doc["seed"] == 7
        assert doc["stderr"] > 0

    def test_matches_quadrature(self, capsys):
        doc = json.loads(_ok(capsys, ["mc", "--cost", "sinr", "--fx", "exp:1",
                                      "--fy", "exp:2", "--coupling", "counter",
                                      "--n", "200000", "--seed", "11"]))
        assert abs(doc["value"] - 0.870212863218) < 4 * doc["stderr"]

    def test_default_seed(self, capsys):
        doc = json.loads(_ok(capsys, ["mc", "--cost", "additive", "--fx", "exp:1",
                                      "--fy", "exp:1", "--coupling", "ind", "--n", "1000"]))
        assert doc["seed"] == DEFAULT_SEED

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DEPBOUND_SEED", "555")
        doc = json.loads(_ok(capsys, ["mc", "--cost", "additive", "--fx", "exp:1",
                                      "--fy", "exp:1", "--coupling", "ind", "--n", "1000"]))
        assert doc["seed"] == 555

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DEPBOUND_SEED", "555")
        doc = json.loads(_ok(capsys, ["mc", "--cost", "additive", "--fx", "exp:1",
                                      "--fy", "exp:1", "--coupling", "ind", "--n", "1000",
                                      "--seed", "9"]))
        assert doc["seed"] == 9

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("DEPBOUND_SEED", "not-a-number")
        _fail(capsys, ["mc", "--cost", "additive", "--fx", "exp:1", "--fy", "exp:1",
                       "--coupling", "ind", "--n", "1000"], 1)

    def test_small_n_is_usage_error(self, capsys):
        _fail(capsys, ["mc", "--cost", "additive", "--fx", "exp:1", "--fy", "exp:1",
                       "--coupling", "ind", "--n", "50"], 1)

    def test_overflow_is_numerical_error(self, capsys):
        err = _fail(capsys, ["mc", "--cost", "product", "--fx", "lognormal:0,1000",
                             "--fy", "lognormal:0,1000", "--coupling", "co",
                             "--n", "1000", "--seed", "1"], 2)
        assert "overflow" in err


class TestMonge:
    def test_cross_difference_json(self, capsys):
        doc = json.loads(_ok(capsys, ["monge", "--cost", "prop_fair",
                                      "--domain", "0,10,0,10"]))
        assert doc == {"classification": "supermodular", "max_violation": 0.0,
                       "violation_count": 0}

    def test_partial_method(self, capsys):
        doc = json.loads(_ok(capsys, ["monge", "--cost", "sinr", "--domain", "0,10,0,10",
                                      "--method", "partial", "--grid", "48"]))
        assert doc["classification"] == "submodular"
        assert doc["violation_count"] == 0

    def test_csv_format(self, capsys):
        rows = _rows(_ok(capsys, ["monge", "--cost", "additive", "--domain", "0,5,0,5",
                                  "--csv"]))
        assert rows[0] == ["classification", "max_violation", "violation_count"]
        assert rows[1][0] == "modular"

    def test_overflowing_grid_is_numerical_error(self, capsys):
        _fail(capsys, ["monge", "--cost", "product", "--domain", "0,1e200,0,1e200"], 2)

    def test_malformed_domain(self, capsys):
        _fail(capsys, ["monge", "--cost", "sinr", "--domain", "0,10,0"], 1)
        _fail(capsys, ["monge", "--cost", "sinr", "--domain", "0,ten,0,10"], 1)


class TestCollision:
    def test_full_schema(self, capsys):
        doc = json.loads(_ok(capsys, ["collision", "--p1", "0.5", "--p2", "0.5"]))
        assert doc == {"u_independent": 0.5, "p11_range": [0.0, 0.5],
                       "u_range": [0.0, 1.0], "rho_range": [-1.0, 1.0]}

    def test_point_query(self, capsys):
        doc = json.loads(_ok(capsys, ["collision", "--p1", "0.9", "--p2", "0.5",
                                      "--p11", "0.05"]))
        assert doc["u"] == pytest.approx(0.5)
        assert doc["rho"] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_rho_is_null(self, capsys):
        doc = json.loads(_ok(capsys, ["collision", "--p1", "1", "--p2", "0.5",
                                      "--p11", "0"]))
        assert doc["rho_range"] is None
        assert doc["rho"] is None

    def test_out_of_range_inputs(self, capsys):
        _fail(capsys, ["collision", "--p1", "1.5", "--p2", "0.5"], 1)
        _fail(capsys, ["collision", "--p1", "0.5", "--p2", "0.5", "--p11", "0.9"], 1)


class TestTworay:
    GEOM = ["--f", "2e9", "--htx", "10", "--h1", "1", "--dh", "0.05",
            "--a1", "1", "--a2", "0.5"]

    def test_trace_csv(self, capsys):
        rows = _rows(_ok(capsys, ["tworay", "trace", *self.GEOM, "--d", "20:50:101"]))
        assert rows[0] == ["distance", "x1", "x2"]
        assert len(rows) == 102
        first = [float(v) for v in rows[1]]
        assert first[0] == 20.0
        assert 0.25 - 1e-9 <= first[1] <= 2.25 + 1e-9

    def test_corr_json(self, capsys):
        doc = json.loads(_ok(capsys, ["tworay", "corr", *self.GEOM, "--d", "20:50:100000"]))
        assert set(doc) == {"rho", "n"}
        assert doc["n"] == 100000
        assert doc["rho"] == pytest.approx(0.3105, abs=0.01)

    def test_bad_grid_spec(self, capsys):
        _fail(capsys, ["tworay", "trace", *self.GEOM, "--d", "50:20:100"], 1)
        _fail(capsys, ["tworay", "corr", *self.GEOM, "--d", "20:50:1"], 1)

    def test_bad_geometry(self, capsys):
        argv = ["tworay", "corr", "--f", "2e9", "--htx", "10", "--h1", "1",
                "--dh", "-2", "--a1", "1", "--a2", "0.5", "--d", "20:50:1000"]
        _fail(capsys, argv, 1)


class TestReproduce:
    def test_fig1(self, capsys, tmp_path):
        out = _ok(capsys, ["reproduce", "fig1", "--out-dir", str(tmp_path)])
        doc = json.loads(out)
        assert doc["rho"]["dh=0.05"] == pytest.approx(0.3105, abs=0.01)
        assert doc["rho"]["dh=0.1"] == pytest.approx(-0.6414, abs=0.01)
        for name in ("fig1_dh0.05.csv", "fig1_dh0.1.csv"):
            rows = _rows((tmp_path / name).read_text())
            assert rows[0] == ["distance", "x1", "x2"]
            assert len(rows) == 1002
            assert float(rows[1][0]) == 20.0
            assert float(rows[-1][0]) == 50.0

    def test_fig2(self, capsys, tmp_path):
        out = _ok(capsys, ["reproduce", "fig2", "--out-dir", str(tmp_path)])
        assert json.loads(out)["files"] == [str(tmp_path / "fig2.csv")]
        rows = _rows((tmp_path / "fig2.csv").read_text())
        assert rows[0] == ["snr", "min", "max", "ind"]
        assert len(rows) == 27
        snrs = [float(r[0]) for r in rows[1:]]
        assert snrs == list(range(-5, 21))
        for r in rows[1:]:
            lo, hi, ind = float(r[1]), float(r[2]), float(r[3])
            assert lo < ind < hi

    def test_example1(self, capsys, tmp_path):
        out = _ok(capsys, ["reproduce", "example1", "--out-dir", str(tmp_path)])
        doc = json.loads((tmp_path / "example1.json").read_text())
        assert list(doc) == ["lower", "upper", "independent"]
        assert doc["lower"] == pytest.approx(0.554685530154, abs=1e-9)
        assert doc["upper"] == pytest.approx(0.870212863218, abs=1e-9)
        assert doc["independent"] == pytest.approx(0.722657216659, abs=1e-9)
        echoed = json.loads(out)
        assert echoed["lower"] == doc["lower"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        _fail(capsys, ["frobnicate"], 1)

    def test_missing_required_flag(self, capsys):
        _fail(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1"], 1)

    def test_unknown_cost(self, capsys):
        _fail(capsys, ["bounds", "--cost", "nope", "--fx", "exp:1", "--fy", "exp:1"], 1)

    def test_unknown_marginal(self, capsys):
        _fail(capsys, ["bounds", "--cost", "sinr", "--fx", "cauchy:1", "--fy", "exp:1"], 1)

    def test_conflicting_format_flags(self, capsys):
        _fail(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:1",
                       "--json", "--csv"], 1)

    def test_bad_coupling_choice(self, capsys):
        _fail(capsys, ["mc", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:1",
                       "--coupling", "comonotone", "--n", "1000"], 1)


class TestSubprocess:
    """The installed entry point, exercised as a real process."""

    @staticmethod
    def _invoke(args):
        env = {k: v for k, v in os.environ.items() if k != "DEPBOUND_SEED"}
        return subprocess.run([sys.executable, "-m", "depbound", *args],
                              capture_output=True, env=env)

    def test_reruns_are_byte_identical(self):
        argv = ["mc", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2",
                "--coupling", "ind", "--n", "20000", "--seed", "42"]
        first = self._invoke(argv)
        second = self._invoke(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_quadrature_reruns_are_byte_identical(self):
        argv = ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2",
                "--independent"]
        first = self._invoke(argv)
        second = self._invoke(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("argv", [
        ["bounds", "--cost", "product"],
        ["sweep", "--cost", "mac_rate1", "--range", "0:10:10"],
    ], ids=["bounds", "sweep"])
    def test_overflowing_working_box_is_numerical_error(self, argv):
        # lognormal:0,400 overflows at its upper 1e-4 quantile, so no
        # classification grid exists: one typed error, no leaked warning.
        res = self._invoke([*argv, "--fx", "lognormal:0,400", "--fy", "exp:1"])
        assert res.returncode == 2
        assert res.stdout == b""
        err = res.stderr.decode()
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Warning" not in err

    def test_error_goes_to_stderr_only(self):
        res = self._invoke(["bounds", "--cost", "nope", "--fx", "exp:1", "--fy", "exp:1"])
        assert res.returncode == 1
        assert res.stdout == b""
        assert res.stderr.startswith(b"error: ")
