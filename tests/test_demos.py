"""Smoke test: every demo script runs to completion against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
