"""Smoke tests: the example scripts run to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/drag_sweep.py", "--h-list", "1e-2,1e-3,1e-4"],
        ["scripts/contact_dichotomy.py"],
    ],
)
def test_script_exits_0(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
