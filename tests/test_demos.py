"""Every demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(script, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""),
        TMPDIR=str(tmp_path),  # demos write their files under a temp dir they remove
    )
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert not any(tmp_path.iterdir()), "the demo left files behind"
