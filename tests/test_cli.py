"""End-to-end command-line contract: schemas, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from depbound import cli, monge, sampler
from depbound.cli import DEFAULT_SEED, run


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


def _load_clisession():
    # The benchmark's CLI script and its pinned stdout hashes, read from
    # the checkout rather than imported, so no path setup is needed.
    path = Path(__file__).resolve().parent.parent / "bench" / "clisession.py"
    spec = importlib.util.spec_from_file_location("_clisession", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CLISESSION = _load_clisession()


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
                                  "--fy", "exp:2", "--csv"]))
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

    @pytest.mark.parametrize("text", ["1:2:0.28", "0:0.7:0.2", "-1:1:0.3", "0:1:0.1", "-5:20:1"])
    def test_range_is_counted_in_steps(self, text):
        # A slack absolute below |stop| = 1 kept s = 2.12e-15 in 1e-15:2e-15:0.28e-15.
        small = ":".join(f"{v}e-15" for v in text.split(":"))
        for spec in (text, small):
            stop = float(spec.split(":")[1])
            assert all(p <= stop for p in cli._parse_range(spec))
        assert len(cli._parse_range(small)) == len(cli._parse_range(text))

    def test_cost_is_a_spec_as_for_bounds(self, capsys):
        argv = ["--fx", "exp:1", "--fy", "exp:1", "--range", "-5:20:1", "--csv"]
        assert (_ok(capsys, ["sweep", "--cost", "MAC_RATE1", *argv])
                == _ok(capsys, ["sweep", "--cost", "mac_rate1", *argv]))

    def test_swept_parameter_set_in_the_spec_is_usage_error(self, capsys):
        err = _fail(capsys, ["sweep", "--cost", "mac_rate1:snr_db=3", "--param", "snr_db",
                             "--fx", "exp:1", "--fy", "exp:1", "--range", "0:2:1"], 1)
        assert "'snr_db' is given twice" in err

    def test_spec_parameter_beside_the_swept_one_reaches_the_cost(self, capsys):
        err = _fail(capsys, ["sweep", "--cost", "mac_rate1:s=0.5", "--fx", "exp:1", "--fy", "exp:1",
                             "--range", "0:2:1"], 1)
        assert "pass exactly one of s or snr_db" in err

    def test_bad_range_is_usage_error(self, capsys):
        _fail(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1",
                       "--range", "5:-5:1"], 1)
        _fail(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1",
                       "--range", "0:10"], 1)
        err = _fail(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1",
                             "--range", "a:1:1"], 1)
        assert "non-numeric range component in 'a:1:1'" in err


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

    def test_environment_does_not_set_the_seed(self, capsys, monkeypatch):
        # The seed comes from the arguments alone, so no harness has to
        # scrub the environment before it trusts stdout.
        argv = ["mc", "--cost", "additive", "--fx", "exp:1", "--fy", "exp:1",
                "--coupling", "ind", "--n", "1000"]
        monkeypatch.delenv("DEPBOUND_SEED", raising=False)
        unset = _ok(capsys, argv)
        monkeypatch.setenv("DEPBOUND_SEED", "555")
        assert _ok(capsys, argv) == unset
        assert json.loads(unset)["seed"] == DEFAULT_SEED == 1729

    def test_small_n_is_usage_error(self, capsys):
        _fail(capsys, ["mc", "--cost", "additive", "--fx", "exp:1", "--fy", "exp:1",
                       "--coupling", "ind", "--n", "50"], 1)

    def test_negative_seed_is_usage_error(self, capsys):
        err = _fail(capsys, ["mc", "--cost", "additive", "--fx", "exp:1", "--fy", "exp:1",
                             "--coupling", "ind", "--n", "1000", "--seed", "-1"], 1)
        assert "seed" in err

    def test_overflow_is_numerical_error(self, capsys):
        err = _fail(capsys, ["mc", "--cost", "product", "--fx", "lognormal:0,1000",
                             "--fy", "lognormal:0,1000", "--coupling", "co",
                             "--n", "1000", "--seed", "1"], 2)
        assert "overflow" in err

    def test_every_sampler_coupling_has_a_flag(self):
        # A coupling added to the sampler fails here until --coupling can select it.
        assert tuple(cli._COUPLING_FLAGS.values()) == sampler.COUPLINGS


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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1e-3"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        # Each cell is judged against its own rounding; no tolerance is settable.
        err = _fail(capsys, ["monge", "--cost", "product", "--domain", "0,1,0,1", f"--tol={tol}"], 1)
        assert "unrecognized arguments: --tol" in err


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

    def test_corr_csv(self, capsys):
        rows = _rows(_ok(capsys, ["tworay", "corr", *self.GEOM, "--d", "20:50:1000", "--csv"]))
        assert rows[0] == ["rho", "n"]
        assert rows[1][1] == "1000"

    def test_bad_grid_spec(self, capsys):
        _fail(capsys, ["tworay", "trace", *self.GEOM, "--d", "50:20:100"], 1)
        _fail(capsys, ["tworay", "corr", *self.GEOM, "--d", "20:50:1"], 1)

    def test_bad_geometry(self, capsys):
        argv = ["tworay", "corr", "--f", "2e9", "--htx", "10", "--h1", "1",
                "--dh", "-2", "--a1", "1", "--a2", "0.5", "--d", "20:50:1000"]
        _fail(capsys, argv, 1)
        # Infinite fields printed a NaN rho, or non-JSON Infinity/NaN.
        _fail(capsys, ["tworay", "corr", *self.GEOM, "--f", "inf", "--d", "20:50:100"], 1)
        _fail(capsys, ["tworay", "trace", *self.GEOM, "--a1", "inf", "--d", "20:50:11", "--json"], 1)


class TestOutputFormats:
    """Every command with ``--csv`` prints a table there and JSON under ``--json``."""

    @pytest.mark.parametrize("argv", [
        ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2"],
        ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "0:10:10"],
        ["mc", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2", "--coupling", "co", "--n", "1000"],
        ["monge", "--cost", "sinr", "--domain", "0,10,0,10", "--grid", "16"],
        ["tworay", "trace", *TestTworay.GEOM, "--d", "20:50:11"],
        ["tworay", "corr", *TestTworay.GEOM, "--d", "20:50:1000"],
    ], ids=["bounds", "sweep", "mc", "monge", "tworay-trace", "tworay-corr"])
    def test_csv_and_json(self, capsys, argv):
        rows = _rows(_ok(capsys, [*argv, "--csv"]))
        assert len(rows) >= 2
        assert all(len(row) == len(rows[0]) for row in rows)
        json.loads(_ok(capsys, [*argv, "--json"]))

    def test_memory_error_is_usage_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. TiB for an array")

        monkeypatch.setattr(monge, "check_cross_difference", exhausted)
        err = _fail(capsys, ["monge", "--cost", "sinr", "--domain", "0,1,0,1", "--grid", "10000000"], 1)
        assert "Unable to allocate" in err

    def test_bare_memory_error_says_so(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(monge, "check_cross_difference", exhausted)
        err = _fail(capsys, ["monge", "--cost", "sinr", "--domain", "0,1,0,1"], 1)
        assert err == "error: out of memory\n"


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


    def test_fig1_trace_is_tworay_trace(self, capsys, tmp_path):
        _ok(capsys, ["reproduce", "fig1", "--out-dir", str(tmp_path)])
        trace = _ok(capsys, ["tworay", "trace", "--f", "2e9", "--htx", "10", "--h1", "1", "--a1", "1",
                             "--a2", "0.5", "--dh", "0.05", "--d", "20:50:1001"])
        assert (tmp_path / "fig1_dh0.05.csv").read_text() == trace

    def test_fig2_is_sweep_csv(self, capsys, tmp_path):
        _ok(capsys, ["reproduce", "fig2", "--out-dir", str(tmp_path)])
        sweep = _ok(capsys, ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1",
                             "--range", "-5:20:1", "--csv"])
        assert (tmp_path / "fig2.csv").read_text() == sweep

    def test_example1_is_bounds_triple(self, capsys, tmp_path):
        _ok(capsys, ["reproduce", "example1", "--out-dir", str(tmp_path)])
        bounds = json.loads(_ok(capsys, ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2",
                                         "--independent"]))
        example = json.loads((tmp_path / "example1.json").read_text())
        assert example == {key: bounds[key] for key in ("lower", "upper", "independent")}


class TestRewrite:
    """An output file that already holds the bytes to write is left alone."""

    ARGV = ["reproduce", "example1", "--out-dir"]

    @staticmethod
    def _spy_open(monkeypatch):
        modes = []

        def spy(file, mode="r", *args, **kwargs):
            modes.append(mode)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", spy, raising=False)
        return modes

    def test_identical_rerun_only_bumps_mtime(self, capsys, monkeypatch, tmp_path):
        first = _ok(capsys, [*self.ARGV, str(tmp_path)])
        path = tmp_path / "example1.json"
        data, inode = path.read_bytes(), path.stat().st_ino
        os.utime(path, (0, 0))
        modes = self._spy_open(monkeypatch)
        assert _ok(capsys, [*self.ARGV, str(tmp_path)]) == first
        assert not any(set(mode) & set("wax+") for mode in modes), modes
        assert path.read_bytes() == data
        assert path.stat().st_ino == inode
        assert path.stat().st_mtime > 0

    @pytest.mark.parametrize("edit, modes", [
        (lambda data: data.replace(b"0.5", b"0.6", 1), ["rb", "w"]),
        # A file whose length differs is not read.
        (lambda data: data + b" ", ["w"]),
        (lambda data: data[:-2] + b"\n", ["w"]),
    ], ids=["same-length", "longer", "shorter"])
    def test_different_file_is_rewritten(self, capsys, monkeypatch, tmp_path, edit, modes):
        _ok(capsys, [*self.ARGV, str(tmp_path)])
        path = tmp_path / "example1.json"
        data = path.read_bytes()
        stale = edit(data)
        assert stale != data
        path.write_bytes(stale)
        opened = self._spy_open(monkeypatch)
        _ok(capsys, [*self.ARGV, str(tmp_path)])
        assert opened == modes
        assert path.read_bytes() == data

    def test_out_to_a_device(self, capsys):
        out = _ok(capsys, ["collision", "--p1", "0.9", "--p2", "0.5", "--out", os.devnull])
        assert out == ""

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root may write a read-only file")
    def test_identical_read_only_file_still_fails(self, capsys, tmp_path):
        _ok(capsys, [*self.ARGV, str(tmp_path)])
        path = tmp_path / "example1.json"
        path.chmod(0o444)
        with pytest.raises(PermissionError) as denied:
            open(path, "w")
        assert _fail(capsys, [*self.ARGV, str(tmp_path)], 1) == f"error: {denied.value}\n"


class TestPinnedStdout:
    """Every benchmark CLI command prints exactly the bytes its hash pins."""

    @pytest.mark.parametrize("cmd", CLISESSION.SCRIPT, ids=lambda cmd: cmd["name"])
    def test_stdout_matches_its_pinned_hash(self, tmp_path, cmd):
        code, out, err, _ = CLISESSION.run_inprocess(cmd, tmp_path)
        assert code == cmd["exit"], err
        assert CLISESSION.digest(out) == CLISESSION.load_fingerprints()[cmd["name"]]


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

    def test_infinite_marginal_parameter(self, capsys):
        assert "exponential: rate must be finite" in _fail(
            capsys, ["bounds", "--cost", "sinr", "--fx", "exp:inf", "--fy", "exp:1"], 1)

    def test_bad_coupling_choice(self, capsys):
        _fail(capsys, ["mc", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:1",
                       "--coupling", "comonotone", "--n", "1000"], 1)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--cost", "mac_rate1:snr_db=-4000", "--fx", "exp:1", "--fy", "exp:1"],
        ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "-4000:-4000:1"],
    ], ids=["bounds", "sweep"])
    def test_snr_db_beyond_float_range(self, capsys, argv):
        # 10**(-snr_db/10) overflows; it was an OverflowError traceback.
        assert "snr_db=-4000.0" in _fail(capsys, argv, 1)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "0:inf:1"],
        ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "0:1:inf"],
        ["tworay", "trace", *TestTworay.GEOM, "--d", "20:inf:10"],
    ], ids=["sweep-stop", "sweep-step", "tworay-stop"])
    def test_non_finite_range(self, capsys, argv):
        assert "finite" in _fail(capsys, argv, 1)

    @pytest.mark.parametrize("argv, count", [
        (["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "0:1e12:1"],
         "1000000000001"),
        (["tworay", "trace", *TestTworay.GEOM, "--d", "20:50:1000000000000"], "1000000000000"),
    ], ids=["sweep-step", "tworay-count"])
    def test_too_many_range_points(self, capsys, argv, count):
        # Rejected before any grid is built, with the count it would hold.
        assert f"{count} points" in _fail(capsys, argv, 1)


class TestColdStart:
    """Only the Nakagami, LogNormal and Rician families load scipy, on first use."""

    @staticmethod
    def _modules_after(code):
        # Runs ``code`` in a fresh interpreter; reports whether scipy got loaded.
        script = f"import sys\n{code}\nprint('scipy' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout.splitlines()

    def test_import_leaves_scipy_unloaded(self):
        assert self._modules_after("import depbound, depbound.cli") == ["False"]

    def test_package_import_loads_no_submodule_or_numpy(self):
        lines = self._modules_after(
            "import depbound\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('depbound.')))"
        )
        assert lines == ["[]", "False"]

    @pytest.mark.parametrize("argv, unloaded", [
        (["collision", "--p1", "0.9", "--p2", "0.5", "--p11", "0.05"],
         ["scipy", "depbound.sampler", "depbound.tworay"]),
        (["tworay", "trace", "--f", "2e9", "--htx", "10", "--h1", "1", "--a1", "1", "--a2", "0.5", "--dh", "0.05",
          "--d", "20:50:11"], ["depbound.transport", "depbound.sampler", "depbound.monge"]),
        (["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2", "--independent"],
         ["depbound.sampler", "depbound.tworay", "depbound.collision"]),
    ], ids=["collision", "tworay-trace", "bounds-independent"])
    def test_command_imports_only_what_it_runs(self, argv, unloaded):
        lines = self._modules_after(
            "from depbound import cli\n"
            f"sys.argv = ['depbound', *{argv!r}]\n"
            "assert cli.main() == 0\n"
            f"print([name for name in {unloaded!r} if name in sys.modules])"
        )
        assert lines[-2] == "[]"

    def test_every_public_name_resolves(self):
        lines = self._modules_after(
            "import importlib\n"
            "import depbound\n"
            "namespace = {}\n"
            "exec('from depbound import *', namespace)\n"
            "print(sorted(namespace.keys() - {'__builtins__'}) == sorted(depbound.__all__))\n"
            "print(all(namespace[name] is getattr(depbound, name) for name in depbound.__all__))\n"
            "print(depbound.bounds is importlib.import_module('depbound.transport').bounds)\n"
            "print(depbound.tworay is sys.modules['depbound.tworay'])\n"
            "try:\n"
            "    depbound.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)"
        )
        assert lines == ["True", "True", "True", "True", "module 'depbound' has no attribute 'no_such_name'", "False"]

    def test_import_loads_no_executor_or_logging(self):
        # concurrent.futures imports logging; only the sampler, which runs
        # its parts on a thread pool, may load it, and not at import.
        lines = self._modules_after(
            "import depbound, depbound.cli\n"
            "print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
        )
        assert lines == ["False False", "False"]

    def test_two_parts_import_scipy_at_once(self):
        # Both threads of the one batch reach the LogNormal quantile's lazy
        # scipy.special import together; the output is unchanged.
        lines = self._modules_after(
            "from depbound import cli\n"
            "assert cli.run(['mc', '--cost', 'sinr', '--fx', 'lognormal:0,0.5', '--fy', 'exp:1',"
            " '--coupling', 'co', '--n', '1000000']) == 0"
        )
        assert lines == [
            '{"value": 0.554982999043, "stderr": 5.99562024758e-05, "n": 1000000, "seed": 1729}',
            "True",
        ]

    def test_exponential_command_leaves_scipy_unloaded(self):
        lines = self._modules_after(
            "from depbound import cli\n"
            "assert cli.run(['bounds', '--cost', 'sinr', '--fx', 'exp:1', '--fy', 'exp:2',"
            " '--independent']) == 0"
        )
        assert lines[-1] == "False"
        assert set(json.loads(lines[0])) >= {"lower", "upper", "independent"}

    def test_process_entry_freezes_the_imported_heap(self):
        lines = self._modules_after(
            "import gc\n"
            "from depbound import cli\n"
            "sys.argv = ['depbound', 'collision', '--p1', '0.9', '--p2', '0.5', '--p11', '0.05']\n"
            "assert cli.main() == 0\n"
            "print(gc.get_freeze_count() > 0)"
        )
        assert lines[1:] == ["True", "False"]
        assert json.loads(lines[0])["p11"] == 0.05
        # numpy and the quadrature are imported by the handler, after the
        # first freeze; the collection at exit must skip them too.
        numpy_tracked = int(self._modules_after("import gc, numpy\nprint(len(gc.get_objects()))")[0])
        lines = self._modules_after(
            "import gc\n"
            "from depbound import cli\n"
            "sys.argv = ['depbound', 'bounds', '--cost', 'sinr', '--fx', 'exp:1', '--fy', 'exp:2', '--independent']\n"
            "assert cli.main() == 0\n"
            "print(gc.get_freeze_count())"
        )
        assert int(lines[1]) > numpy_tracked

    def test_run_leaves_the_collector_alone(self):
        lines = self._modules_after(
            "import gc\n"
            "from depbound import cli\n"
            "assert cli.run(['collision', '--p1', '0.9', '--p2', '0.5', '--p11', '0.05']) == 0\n"
            "print(gc.get_freeze_count())"
        )
        assert lines[1:] == ["0", "False"]

    @pytest.mark.parametrize("spec, expected", [
        ("nakagami:2,1.5", 0.9072000374931753),
        ("lognormal:0.5,0.8", 1.0838067257408526),
        ("rician:1.5,0.6", 0.9238527090341115),
    ])
    def test_scipy_families_load_it_on_first_quantile(self, spec, expected):
        lines = self._modules_after(
            "from depbound import parse_marginal\n"
            "assert 'scipy' not in sys.modules\n"
            f"print(repr(parse_marginal({spec!r}).quantile(0.3)))"
        )
        assert lines == [repr(expected), "True"]


class TestSubprocess:
    """The installed entry point, exercised as a real process."""

    @staticmethod
    def _invoke(args):
        return subprocess.run([sys.executable, "-m", "depbound", *args], capture_output=True)

    def test_reruns_are_byte_identical(self):
        argv = ["mc", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2",
                "--coupling", "ind", "--n", "20000", "--seed", "42"]
        first = self._invoke(argv)
        second = self._invoke(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")

    def test_quadrature_reruns_are_byte_identical(self, tmp_path):
        # reproduce example1 runs the same bounds and also writes a file.
        # Rounding in additive's costs near 1e7 once exceeded a fixed
        # 1e-9 tolerance, so it read "neither" and exited 2.
        path = tmp_path / "example1.json"
        for argv in (["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2", "--independent"],
                     ["reproduce", "example1", "--out-dir", str(tmp_path)],
                     ["bounds", "--cost", "additive", "--fx", "uniform:0,1e7", "--fy", "uniform:0,1e7"]):
            first = self._invoke(argv)
            written = path.read_bytes() if path.exists() else None
            second = self._invoke(argv)
            assert first.returncode == second.returncode == 0, second.stderr
            assert first.stdout == second.stdout
        assert path.read_bytes() == written
        doc = json.loads(first.stdout)
        assert doc["lower"] == doc["upper"] == pytest.approx(1e7, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["bounds", "--cost", "product", "--fx", "lognormal:0,400"],
        ["sweep", "--cost", "mac_rate1", "--range", "0:10:10", "--fx", "lognormal:0,400"],
        ["bounds", "--cost", "product", "--fx", "uniform:-1e308,1e308"],
    ], ids=["bounds", "sweep", "bounds-uniform"])
    def test_overflowing_working_box_is_numerical_error(self, argv):
        # lognormal:0,400 overflows at its upper 1e-4 quantile, and the
        # width of uniform:-1e308,1e308 overflows, so no classification
        # grid exists: one typed error, no leaked warning.
        res = self._invoke([*argv, "--fy", "exp:1"])
        assert res.returncode == 2
        assert res.stdout == b""
        err = res.stderr.decode()
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Warning" not in err
        if "uniform:-1e308,1e308" in argv:
            from depbound.marginals import Exponential
            box = (math.inf, math.inf, Exponential(1.0).quantile(1e-4), Exponential(1.0).quantile(1.0 - 1e-4))
            assert err == f"error: classification box {box!r} is not finite; the marginals overflow at the 1e-4 quantile level\n"

    @pytest.mark.parametrize("argv", [
        ["bounds", "--cost", "product", "--fx", "lognormal:0,150", "--fy", "exp:1"],
        ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "lognormal:0,150", "--independent"],
        ["sweep", "--cost", "mac_rate1", "--fx", "lognormal:0,150", "--fy", "exp:1", "--range", "0:1:1"],
    ], ids=["bounds", "bounds-independent", "sweep"])
    def test_overflowing_quantile_inside_the_range_is_numerical_error(self, argv):
        # lognormal:0,150 has a finite 1e-4 classification box, but its
        # quantile overflows at 1 - eps, inside the integrated range.
        res = self._invoke(argv)
        assert res.returncode == 2
        assert res.stdout == b""
        err = res.stderr.decode()
        assert err.startswith("error: quantile of ")
        assert err.count("\n") == 1
        assert "Warning" not in err

    @pytest.mark.parametrize("command", ["trace", "corr"])
    @pytest.mark.parametrize("geometry", [
        ["--f", "1e308"], ["--htx", "1e308", "--h1", "1e308"], ["--a1", "1e200", "--a2", "1e200"],
    ], ids=["f", "heights", "amplitudes"])
    def test_non_finite_envelope_is_numerical_error(self, command, geometry):
        # Finite fields whose envelope leaves the float range printed NaN
        # (not JSON) after a RuntimeWarning, or an OverflowError traceback.
        res = self._invoke(["tworay", command, *TestTworay.GEOM, *geometry, "--d", "20:50:101", "--json"])
        assert res.returncode == 2
        assert res.stdout == b""
        assert res.stderr.decode() == "error: envelope is not finite at distance 20.0\n"

    def test_overflowing_envelope_moments_are_numerical_error(self):
        # Every envelope is finite; their squared deviations are not.  This exited 1.
        res = self._invoke(["tworay", "corr", *TestTworay.GEOM[:8], "--a1", "5e153", "--a2", "5e153",
                            "--d", "20:50:1000"])
        assert res.returncode == 2
        assert res.stdout == b""
        assert res.stderr.decode() == "error: moments do not fit a float: var_x=inf, var_y=inf, cov=inf\n"

    def test_overflowing_moments_are_numerical_error(self):
        # Every draw and cost is finite; the squared deviations are not.
        res = self._invoke(["mc", "--cost", "product", "--fx", "lognormal:0,150", "--fy", "exp:1",
                            "--coupling", "ind", "--n", "300000", "--seed", "3"])
        assert res.returncode == 2
        assert res.stdout == b""
        err = res.stderr.decode()
        assert err.startswith("error: moments of cost 'product' overflowed: ")
        assert err.count("\n") == 1

    def test_error_goes_to_stderr_only(self):
        res = self._invoke(["bounds", "--cost", "nope", "--fx", "exp:1", "--fy", "exp:1"])
        assert res.returncode == 1
        assert res.stdout == b""
        assert res.stderr.startswith(b"error: ")
