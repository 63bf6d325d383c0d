"""The sweep scripts run end to end and print their expected slope, the
output comparison script tells a tree from a changed copy of it and says
how far the numbers of two hand-made trees moved, the verdict audit
names a config whose exit code varies, the exit fuzz prints one line
per config and its histogram, the interleaved A/B timer prints its
four lines for a tree timed against itself, and the reach audit prints
one line per definition that no run calls and their count."""

import os
import pathlib
import re
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
    cli_py.write_text(cli_py.read_text().replace("need samples >= 1", "want samples >= 1"))
    result = compare_outputs(ROOT / "src", changed, "bad/samples-0")
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.startswith("bad/samples-0: stderr ")
    assert result.stdout.endswith("1 of 1 cases differ\n")


# a stand-in for emforms.cli that writes one CSV and one JSON report into
# the --out-dir of its run, with the numbers given here
FAKE_CLI = """import os, sys
out = sys.argv[sys.argv.index("--out-dir") + 1]
os.makedirs(out)
with open(os.path.join(out, "profile.csv"), "w") as fh:
    fh.write("r,e_r,b_r\\n0.5,{e_r},0\\n1,-4,{b_r}\\n")
with open(os.path.join(out, "ver.json"), "w") as fh:
    fh.write('{{"maxwell": {{"regions": {{"vacuum": {{"df_max_rel": {df}}}}}}}, "passed": true, "scales": {scales}}}')
"""


def fake_tree(root, **numbers):
    package = root / "emforms"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(**numbers))
    return root


def test_compare_outputs_shows_how_far_the_numbers_moved(tmp_path):
    old = fake_tree(tmp_path / "old", e_r=2, b_r=0, df=1e-17, scales=[1, 2, 3, 4, 5, 6, 7])
    new = fake_tree(tmp_path / "new", e_r=2.5, b_r=1e-300, df=1.5e-17, scales=[1, 2, 3, 4, 5, 6, 7.5])
    result = compare_outputs(old, new, "test_cli/sphere/full")
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout == (
        "test_cli/sphere/full: out/profile.csv differs (largest |old - new| / largest |old| by column:"
        " e_r 0.12, b_r inf); out/ver.json differs (maxwell.regions.vacuum.df_max_rel 1e-17 -> 1.5e-17;"
        " scales.6 7 -> 7.5)\n"
        "1 of 1 cases differ\n"
    )
    many = fake_tree(tmp_path / "many", e_r=2, b_r=0, df=1e-17, scales=[0, 1, 2, 3, 4, 5, 6])
    result = compare_outputs(old, many, "test_cli/sphere/full")
    assert result.stdout == (
        "test_cli/sphere/full: out/ver.json differs (scales.0 1 -> 0; scales.1 2 -> 1; scales.2 3 -> 2;"
        " scales.3 4 -> 3; scales.4 5 -> 4; 2 more differ)\n"
        "1 of 1 cases differ\n"
    )


AUDIT = ROOT / "scripts" / "verdict_audit.py"


def python(*args, timeout):
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_verdict_audit_passes_two_stable_configs():
    # 60 in-process runs, up to --samples 512, in under 10 s
    result = python(str(AUDIT), "shell/beta-0.9", "metric-floor/shell-r1-1e-14", timeout=10)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "0 of 2 configs vary\n"


def test_verdict_audit_names_a_config_whose_exit_code_varies():
    launcher = (
        "import runpy, sys\n"
        "from emforms import cli\n"
        "# every run exits 0 but those at --samples 512 and seeds 5-9\n"
        "cli.run = lambda path, verify_only, samples, seed, out_dir: 3 * (samples == 512 and seed >= 5)\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "sys.argv = sys.argv[1:2] + sys.argv[3:]\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n"
    )
    result = python("-c", launcher, str(AUDIT), str(AUDIT.parent), "sphere/beta-0.5", timeout=60)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout == (
        "sphere/beta-0.5: exit codes at seeds 0-9\n"
        "  --samples   8: 0 0 0 0 0 0 0 0 0 0\n"
        "  --samples  64: 0 0 0 0 0 0 0 0 0 0\n"
        "  --samples 512: 0 0 0 0 0 3 3 3 3 3\n"
        "1 of 1 configs vary\n"
    )


def test_exit_fuzz_prints_a_line_per_config_and_a_histogram():
    # 100 in-process runs, most of them rejected configs, in under a second
    result = python(str(ROOT / "scripts" / "exit_fuzz.py"), "--count", "100", "--seed", "3", timeout=60)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    runs = [line.split() for line in lines if re.fullmatch(r"\d+ \d+", line)]
    assert [int(index) for index, _ in runs] == list(range(100))
    codes = sorted(code for _, code in runs)
    histogram = [line for line in lines if line.startswith("exit ")]
    assert histogram == [f"exit {code}: {codes.count(code)}" for code in sorted(set(codes))]
    assert not [line for line in lines if "exception" in line]


def test_interleaved_ab_of_a_tree_against_itself_prints_its_four_lines():
    # 2 x 41 in-process shell-verify runs, two blocks of 20 timed pairs
    src = str(ROOT / "src")
    result = python(
        str(ROOT / "scripts" / "interleaved_ab.py"), src, src, "--workload", "shell-verify", "--runs", "40", timeout=60
    )
    assert result.returncode == 0, result.stdout + result.stderr
    number = r"\d+\.\d{3}"
    patterns = [
        rf"A: median {number} ms over 40 runs",
        rf"B: median {number} ms over 40 runs",
        rf"B/A: {number} \[{number}, {number}\] over 2 blocks \(median of the block ratios \[quartiles\]\)",
        r"blocks won by B: [0-2] of 2",
    ]
    lines = result.stdout.splitlines()
    assert len(lines) == len(patterns), result.stdout
    for line, pattern in zip(lines, patterns):
        assert re.fullmatch(pattern, line), line


def test_reach_audit_prints_a_line_per_uncalled_definition_and_a_count():
    # two compare cases and the first 300 fuzz configs, in process, in a few seconds
    audit = str(ROOT / "scripts" / "reach_audit.py")
    result = python(audit, "test_cli/shell/full", "test_cli/sphere/verify-only", timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    *lines, last = result.stdout.splitlines()
    count = re.fullmatch(r"(\d+) of \d+ definitions never called by a run \((\d+) of them only at import\)", last)
    assert count and int(count[1]) == len(lines), last
    files = r"(-|[\w/]+\.py(, [\w/]+\.py)*)"
    for line in lines:
        assert re.fullmatch(rf"src/emforms/\w+\.py:\d+ [\w.]+( \(import only\))?: {files}", line), line
    assert int(count[2]) == sum(" (import only): " in line for line in lines)
    # no run matches, and the index tables are built at import
    assert [line for line in lines if re.match(r"src/emforms/solutions\.py:\d+ match_junctions: ", line)]
    assert [line for line in lines if re.match(r"src/emforms/forms\.py:\d+ basis_indices \(import only\): ", line)]
    result = python(audit, "test_cli/no-such-case", timeout=60)
    assert result.returncode == 2 and result.stderr == "error: no compare case named test_cli/no-such-case\n"
