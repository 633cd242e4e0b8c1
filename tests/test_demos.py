"""Smoke test of the scripts in ``demos/``: each runs to completion in a
fresh interpreter with the package on its path.  The README's Python
examples run too."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# text a demo's stdout must contain: the residual bound the de Rham calls check
EXPECTED = {"states_and_actions.py": "< 1e-9"}


def test_all_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
    assert EXPECTED.get(demo.name, "") in proc.stdout


def test_readme_python_blocks_run():
    """The README's ```python blocks run in order in one namespace, and the
    product state example gives the value its comment shows, to rounding."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    psi = namespace["psi_product_state"]
    args = (namespace["f"], 2.0, namespace["AdelicUnit"].one(), namespace["w"], namespace["cat"])
    assert psi(*args) == pytest.approx(-0.5, abs=1e-15)
    assert namespace["diff"] < 1e-12
    assert namespace["alexander_poly_fox"](namespace["p"]).as_list() == [1, -4, 5, -4, 1]
