"""The ``cli_session`` script: README examples run as real CLI processes.

Each command runs as ``python -m depbound`` in a scratch directory inside
the checkout (``reproduce`` writes its files there), with ``PYTHONPATH``
pointing at the checkout's ``src`` and ``DEPBOUND_SEED`` removed so the
Monte Carlo default seed applies.  The same argv can also run in process
through ``depbound.cli.run``; the difference is the cold start.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

__all__ = ["SCRIPT", "FINGERPRINTS", "load_fingerprints", "digest", "cli_env", "run_process", "run_inprocess", "check_output"]

FINGERPRINTS = Path(__file__).with_name("cli_stdout.json")

_TWORAY = ["--f", "2e9", "--htx", "10", "--h1", "1", "--a1", "1", "--a2", "0.5"]

SCRIPT = (
    {"name": "bounds_independent", "format": "json", "exit": 0,
     "argv": ["bounds", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2", "--independent"]},
    {"name": "sweep_mac_rate1", "format": "csv", "exit": 0,
     "argv": ["sweep", "--cost", "mac_rate1", "--fx", "exp:1", "--fy", "exp:1", "--range", "-5:20:1", "--csv"]},
    {"name": "mc_counter", "format": "json", "exit": 0,
     "argv": ["mc", "--cost", "sinr", "--fx", "exp:1", "--fy", "exp:2", "--coupling", "counter", "--n", "1000000"]},
    {"name": "monge", "format": "json", "exit": 0,
     "argv": ["monge", "--cost", "prop_fair", "--domain", "0,5,0,5", "--grid", "64"]},
    {"name": "collision", "format": "json", "exit": 0,
     "argv": ["collision", "--p1", "0.9", "--p2", "0.5", "--p11", "0.05"]},
    {"name": "tworay_trace", "format": "csv", "exit": 0,
     "argv": ["tworay", "trace", *_TWORAY, "--dh", "0.05", "--d", "20:50:1001"]},
    {"name": "tworay_corr", "format": "json", "exit": 0,
     "argv": ["tworay", "corr", *_TWORAY, "--dh", "0.1", "--d", "20:50:100000"]},
    {"name": "reproduce_fig1", "format": "json", "exit": 0, "argv": ["reproduce", "fig1", "--out-dir", "out"]},
    {"name": "reproduce_fig2", "format": "json", "exit": 0, "argv": ["reproduce", "fig2", "--out-dir", "out"]},
    {"name": "reproduce_example1", "format": "json", "exit": 0,
     "argv": ["reproduce", "example1", "--out-dir", "out"]},
    # A numerical failure must exit 2 with one error line and no stdout.
    {"name": "mc_exit2", "format": None, "exit": 2,
     "argv": ["mc", "--cost", "product", "--fx", "lognormal:0,400", "--fy", "exp:1",
              "--coupling", "co", "--n", "1000"]},
)


def load_fingerprints():
    return json.loads(FINGERPRINTS.read_text())


def digest(stdout):
    return hashlib.sha256(stdout.encode()).hexdigest()


def cli_env(src_dir):
    env = dict(os.environ)
    env.pop("DEPBOUND_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    return env


def run_process(cmd, workdir, env):
    """(exit code, stdout, stderr, seconds) for one command as its own process."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "depbound", *cmd["argv"]],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


def run_inprocess(cmd, workdir):
    """The same argv through ``depbound.cli.run`` in this process."""
    from depbound import cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = cli.run(list(cmd["argv"]))
            seconds = perf_counter() - t0
    finally:
        os.chdir(here)
    return rc, out.getvalue(), err.getvalue(), seconds


def check_output(cmd, rc, stdout, stderr):
    """Failure strings for one command's result (empty when it is right)."""
    if rc != cmd["exit"]:
        return [f"{cmd['name']}: exit {rc}, expected {cmd['exit']}: {stderr.strip()[-200:]}"]
    if cmd["format"] is None:
        if stdout or not stderr.startswith("error: ") or stderr.count("\n") != 1:
            return [f"{cmd['name']}: expected one error line and no stdout"]
        return []
    try:
        if cmd["format"] == "json":
            json.loads(stdout)
        else:
            rows = list(csv.reader(io.StringIO(stdout)))
            if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
                raise ValueError("ragged or empty table")
            for row in rows[1:]:
                [float(v) for v in row if v != ""]
    except ValueError as exc:
        return [f"{cmd['name']}: stdout does not parse as {cmd['format']}: {exc}"]
    return []
