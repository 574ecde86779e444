"""Smoke test of the demo scripts: each runs to completion against the
package sources.

Each demo is copied into a temporary directory and run there in a fresh
interpreter with ``PYTHONPATH`` pointing at ``src``, so files a demo writes
next to itself land in the temporary directory.  All five take about 45 s.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo, tmp_path):
    script = shutil.copy(os.path.join(ROOT, "demos", demo), tmp_path)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    res = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
