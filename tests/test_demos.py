"""Smoke test: every demo script runs to completion on its own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    # The demos import the package from the source tree and put any scratch
    # output under TMPDIR, so both point away from the working directory.
    # pytest's filterwarnings does not reach a subprocess: -W error does.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, "-W", "error", str(demo)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
