"""Record the sha256 of each cli_session command's stdout into cli_stdout.json.

    python3 bench/record_cli_stdout.py

Run from the root of a checkout.  The stored hashes are the reference the
benchmark's ``cli.stdout_diff_cmds`` counts against; re-record them only
when a change to stdout is intended and documented.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.clisession import FINGERPRINTS, SCRIPT, check_output, cli_env, digest, run_process  # noqa: E402


def main():
    workdir = Path(__file__).resolve().parent / ".work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        hashes = {}
        for cmd in SCRIPT:
            rc, out, err, _ = run_process(cmd, workdir, cli_env(ROOT / "src"))
            failures = check_output(cmd, rc, out, err)
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            hashes[cmd["name"]] = digest(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    FINGERPRINTS.write_text(json.dumps(hashes, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
