"""The sweep scripts run end to end and print their expected slope, and the
output comparison script tells a tree from a changed copy of it."""

import os
import pathlib
import shutil
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


def compare_outputs(old_src, new_src, k):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), str(old_src), str(new_src), "-k", k],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    result = compare_outputs(ROOT / "src", ROOT / "src", "test_cli/sphere")
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "0 of 2 cases differ\n"


def test_compare_outputs_reports_a_changed_message(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = changed / "emforms" / "cli.py"
    cli_py.write_text(cli_py.read_text().replace("error: need samples", "error: want samples"))
    result = compare_outputs(ROOT / "src", changed, "bad/samples-0")
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.startswith("bad/samples-0: stderr ")
    assert result.stdout.endswith("1 of 1 cases differ\n")
