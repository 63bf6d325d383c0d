"""The sweep scripts run end to end and print their expected slope."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [("wilson_sweep.py", ["--points", "3"]), ("sphere_residual_sweep.py", ["--samples", "8"])],
    ids=["wilson_sweep", "sphere_residual_sweep"],
)
def test_script_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "(expect 2)" in result.stdout
