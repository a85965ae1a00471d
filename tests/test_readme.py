"""The README's library recipes run and print what their comments say, and its Costs table is the code's."""

import os
import re
import subprocess
import sys
from pathlib import Path

from depbound.costs import BUILTIN_COSTS, builtin
from depbound.monge import check_cross_difference

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


def test_costs_table_lists_each_builtin_with_its_structure():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Costs\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in row.strip("|").split("|")] for row in table.splitlines()[2:]]
    structure = [(name.strip("`"), cell.split()[0]) for name, _, cell in rows]
    assert sorted(name for name, _ in structure) == sorted(BUILTIN_COSTS)
    for name, label in structure:
        cost = builtin(name, s=1.0) if name == "mac_rate1" else builtin(name)
        assert check_cross_difference(cost, (0, 10, 0, 10), n=64).classification == label, name
