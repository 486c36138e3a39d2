"""The demo scripts run to completion against the current package."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("kernel_and_envelopes.py", []),
        ("refinement_loop.py", ["1", "2"]),
        ("reach_avoid_2d.py", ["{tmp}"]),
    ],
)
def test_demo_runs(script, args, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
