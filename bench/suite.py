"""Time one pass of the Tier-1 test suite and list its five slowest tests.

    python3 bench/suite.py

Run from the root of a checkout.  Runs the Tier-1 command (with
``--durations=5`` added) once, prints one JSON object with
``suite.wall_s``, the pytest summary line, the five slowest tests and the
environment, and writes the same object to ``bench/results/suite.json``.
This pass is separate from the timed workloads in ``run.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from bench.run import environment  # noqa: E402

_DURATION = re.compile(r"^\s*([\d.]+)s\s+(call|setup|teardown)\s+(\S+)")


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=5"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800)
    wall = perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in map(_DURATION.match, lines) if m
    ]
    summary = next((ln.strip("= ") for ln in reversed(lines) if " passed" in ln or " failed" in ln), "")
    record = {
        "suite.wall_s": wall,
        "exit_code": proc.returncode,
        "summary": summary,
        "slowest": slowest[:5],
        "env": environment(),
    }
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / "suite.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
