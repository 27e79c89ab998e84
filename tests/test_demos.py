"""Smoke test of the demo scripts: each runs to completion.

Each demo is copied into a temporary directory and run there, so the files
it writes next to itself land under that directory, not in ``demos/``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import abeltv

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = shutil.copy(demo, tmp_path)
    env = dict(os.environ)
    src = str(Path(abeltv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
