"""The README's library quick start runs and prints what its comment says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_start_prints_its_comment():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    lines = block.splitlines()
    # The comment right after the first print is that print's output.
    after_print = next(i for i, line in enumerate(lines) if line.startswith("print(")) + 1
    expected = lines[after_print].removeprefix("# ")
    env = {k: v for k, v in os.environ.items() if k != "DEPBOUND_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == expected
