"""Smoke test of the demo scripts: each runs to completion against the
package sources.

Each demo is copied into a temporary directory and run there in a fresh
interpreter with ``PYTHONPATH`` pointing at ``src``, so files a demo writes
next to itself land in the temporary directory.  All five take about 45 s,
so those runs are marked slow; a quick test checks that every name a demo,
or a ```python block of the README, imports from the package exists.
"""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))
with open(os.path.join(ROOT, "README.md")) as _f:
    README_BLOCKS = {
        f"README.md:python-{i}": code
        for i, code in enumerate(re.findall(r"^```python\n(.*?)^```", _f.read(), re.M | re.S), 1)
    }


def test_all_five_demos_found():
    assert len(DEMOS) == 5


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("demo", DEMOS + list(README_BLOCKS))
def test_demo_imports_resolve(demo):
    if demo in README_BLOCKS:
        source = README_BLOCKS[demo]
    else:
        with open(os.path.join(ROOT, "demos", demo)) as f:
            source = f.read()
    tree = ast.parse(source, demo)
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules, names = [node.module], [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if module.split(".")[0] != "isogeo":
                continue
            mod = importlib.import_module(module)
            missing += [f"{module}.{name}" for name in names if not hasattr(mod, name)]
    assert not missing


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    script = shutil.copy(os.path.join(ROOT, "demos", demo), tmp_path)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    res = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
