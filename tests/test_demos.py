"""Every demo script and every python block of the README runs to
completion against the package in `src`, and every module attribute the
README names exists."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)
# every backticked `module.name` of a package module, less file names such as `noise.py`
README_NAMES = sorted({
    name for name in re.findall(r"`((?:core|noise|states|unfold|rebalance|analytics|harness)"
                                r"\.\w+)", (ROOT / "README.md").read_text())
    if not name.endswith(".py")
})


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    run_python(["-c", block], tmp_path)


def test_readme_names_code():
    assert len(README_NAMES) >= 10


@pytest.mark.parametrize("name", README_NAMES)
def test_readme_name_resolves(name):
    module, attribute = name.split(".")
    assert hasattr(importlib.import_module(f"readout_rebalance.{module}"), attribute)
