"""Smoke test: every narrated demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracecheck

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(tmp_path, demo):
    src = str(Path(tracecheck.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
