"""The README's library recipes run and print what their comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_python_block(index):
    text = (ROOT / "README.md").read_text()
    block = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)[index]
    lines = block.splitlines()
    # The comment right after the first print is that print's output.
    after_print = next(i for i, line in enumerate(lines) if line.startswith("print(")) + 1
    expected = lines[after_print].removeprefix("# ")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == expected


def test_quick_start_prints_its_comment():
    _check_python_block(0)


def test_collision_recipe_prints_its_comment():
    _check_python_block(1)


def test_sweep_recipe_prints_its_comment():
    _check_python_block(2)
