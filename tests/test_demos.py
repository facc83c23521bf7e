"""Every script in demos/ runs to completion, and the README quick start prints what it says."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # as pytest's filterwarnings, in the child interpreter
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_prints_its_comment():
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    expected = "".join(line[2:] + "\n" for line in block.splitlines() if line.startswith("# "))
    assert expected
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
