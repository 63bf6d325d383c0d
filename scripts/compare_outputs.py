"""Compare what two source trees make of one fixed set of CLI runs.

    python scripts/compare_outputs.py OLD_SRC NEW_SRC [-k TEXT]

Each case runs ``python -m emforms.cli run config.json [flags] --out-dir
out`` once with ``PYTHONPATH=OLD_SRC`` and once with ``PYTHONPATH=NEW_SRC``,
each in a fresh directory of its own, so that paths in messages read the
same. A reuse case instead calls ``emforms.cli.main`` twice in one
process, with ``--seed 3 --out-dir out-3`` and then ``--seed 11 --out-dir
out-11``, and exits with the two exit codes as the decimal digits of its
own, the first run's leading; the second run reuses the scenario, the
solution and the forms that the first kept. A case differs when the exit
code, the stderr text or any file written under that directory (name or
bytes) differs. Every differing case
is printed; the exit code is 1 if any case differs, else 0. ``-k TEXT``
keeps the cases whose name contains TEXT.

A differing file is named with how far its numbers moved, where both
sides parse: a CSV of one shape with, for each column that moved, its
largest |old - new| over its largest |old|; a JSON file with up to
``JSON_KEYS_SHOWN`` of the numbers that differ, each as the dotted path
of its keys and list indices with its old and new value, and the count
of the others.

The 104 cases:
  * 14 configs of each benchmark workload (``perfbench/workloads.py``),
    drawn from its stream at seed 7, run with that workload's flags;
  * the shell and sphere configs of ``tests/test_cli.py``, full and
    ``--verify-only``, at ``--samples 8``;
  * the same four runs as reuse cases (``reuse/shell/full`` ...), each
    two runs in one process;
  * 22 bad configs and flags, which exit 2;
  * 3 configs whose floating-point arithmetic fails: two exit 2, one
    exits 3 with its reports written;
  * 2 profiles large enough for the vectorised ``%.17g`` kernel
    (``emforms.g17``), with columns of exact zeros: a shell at 4096 radii,
    whose source columns are 0 outside the medium and 22 of whose values
    take the kernel's ``%`` fallback, and a static sphere on a 64x32 grid,
    whose b columns are 0;
  * 3 spheres and 3 shells rotating so slowly that (a omega / c)^2 or
    (r omega / c)^2 underflows to 0, at ``--samples 8``;
  * the samples file (``outputs.samples_json``) of the shell and the
    sphere at ``--samples 512``;
  * 4 runs whose event arrays or grids span more than one evaluation
    block (``emforms.fields.BLOCK_EVENTS``): the sphere ``--verify-only``
    at ``--samples 10000``, with its samples file, a shell profile at
    10,000 radii, the shell ``--verify-only`` at ``--samples 2100``,
    whose two vacuum regions are evaluated together on 4200 events, and
    a dielectric sphere's profile on a 128x64 grid (8,192 points), whose
    sides are evaluated in sub-grids of whole radial rows;
  * 2 geometries below the metric floor, which exit 2 at every seed: a
    shell with r1 = 1e-14 m and a sphere with a = 1e-13 m, at
    ``--verify-only --samples 64``;
  * 2 configs, a shell and a sphere, with no ``sampling`` or ``outputs``
    section and integer-valued numbers, whose echo holds floats and the
    defaults;
  * 11 edge inputs: 6 that exit 2, where older trees exit 1 with a
    traceback (a config nested too deeply to parse, output names with a
    NUL or a lone surrogate, a shell and a sphere rotating one ulp below
    c / 0.05 m) or exit 2 without naming the file (a UTF-16 config); 2
    runs one ulp below c / 0.04 m, which the rim-speed check accepts; two
    output names for one file once joined to ``--out-dir`` (``ver.json``
    and ``../out/ver.json``), which exit 2, where older trees exit 0 with
    the CSV written over the verification report; and a config whose
    ``scenario`` is a 5,000-digit integer, which the JSON parser rejects
    (exit 2); and the shell at ``omega_rad_per_s: -0.0``, whose reports
    keep the sign of the zero (``"C2": -0.0``).

Standard library only.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402

WORKLOAD_SEED = 7
RUNS_PER_WORKLOAD = 14
# the moved numbers of a differing JSON file printed with their paths
JSON_KEYS_SHOWN = 5
TEST_SAMPLES = ["--samples", "8"]
# the seeds of the two runs of a reuse case
REUSE_SEEDS = (3, 11)
# runs emforms.cli.main once per argument list of the JSON list in argv[1]
IN_ONE_PROCESS = (
    "import json, sys\n"
    "from emforms import cli\n"
    "codes = [cli.main(['run', 'config.json', *args]) for args in json.loads(sys.argv[1])]\n"
    "sys.exit(int(''.join(map(str, codes))))\n"
)

TEST_OUTPUTS = {"profile_csv": "profile.csv", "observables_json": "obs.json", "verification_json": "ver.json"}
SHELL = {
    "scenario": "cylinder",
    "geometry": {"r1_m": 0.02, "r2_m": 0.04},
    "omega_rad_per_s": 100.0,
    "b0_tesla": 1.0,
    "material": {"eps_r": 6.0, "mu_r": 1.0},
    "sampling": {"radial_points": 16, "angular_points": 8, "seed": 3},
    "outputs": TEST_OUTPUTS,
}
SPHERE = {
    "scenario": "sphere",
    "geometry": {"a_m": 0.05},
    "omega_rad_per_s": 200.0,
    "e0_volt_per_m": 1000.0,
    "material": {"eps_r": 1.0, "mu_r": 1.0},
    "sampling": {"radial_points": 5, "angular_points": 4, "seed": 1},
    "outputs": TEST_OUTPUTS,
}

# config overrides that each exit 2
BAD_OVERRIDES = {
    "omega-nan": (SHELL, {"omega_rad_per_s": math.nan}),
    "eps-inf": (SHELL, {"material": {"eps_r": math.inf, "mu_r": 1.0}}),
    "b0-huge-int": (SHELL, {"b0_tesla": 10**400}),
    "radial-float": (SHELL, {"sampling": {"radial_points": 2.7}}),
    "angular-negative": (SHELL, {"sampling": {"angular_points": -3}}),
    "seed-negative": (SHELL, {"sampling": {"seed": -1}}),
    "shell-rows-1e12": (SHELL, {"sampling": {"radial_points": 10**12}}),
    "sphere-rows-1e12": (SPHERE, {"sampling": {"radial_points": 10**6, "angular_points": 10**6}}),
    "scenario-null": (SHELL, {"scenario": None}),
    "scenario-list": (SHELL, {"scenario": ["cylinder"]}),
    "unknown-key": (SHELL, {"bogus_key": 1}),
    "inverted-shell": (SHELL, {"geometry": {"r1_m": 0.04, "r2_m": 0.02}}),
    "outputs-all-same": (SHELL, {"outputs": {"profile_csv": "s.json", "observables_json": "s.json", "verification_json": "s.json"}}),
    "outputs-dot-dot": (SHELL, {"outputs": {"profile_csv": "p.csv", "observables_json": "a/../p.csv"}}),
    "outputs-empty": (SHELL, {"outputs": {"profile_csv": ""}}),
    "outputs-samples-null": (SHELL, {"outputs": {"samples_json": None}}),
}
# finite configs whose arithmetic fails, at ``--samples 8``
ARITHMETIC_OVERRIDES = {
    # eps0 * eps_r underflows to 0; the scenario names material.eps_r: exit 2
    "shell-eps-r-5e-324": (SHELL, {"material": {"eps_r": 5e-324, "mu_r": 1.0}}),
    # a**3 of a Python float overflows; the scenario names geometry.a_m: exit 2
    "sphere-a-1e200-static": (SPHERE, {"geometry": {"a_m": 1e200}, "omega_rad_per_s": 0.0}),
    # numpy overflows in the solve and in the profile: exit 3, no warning lines
    "shell-mu-r-1e-300": (SHELL, {"material": {"eps_r": 6.0, "mu_r": 1e-300}}),
}
# profiles of more than cli.G17_MIN_VALUES values, at ``--samples 8``
LARGE_PROFILE_OVERRIDES = {
    "shell-4096": (SHELL, {"sampling": {"radial_points": 4096, "angular_points": 8, "seed": 3}}),
    "sphere-static-64x32": (
        SPHERE,
        {"omega_rad_per_s": 0.0, "sampling": {"radial_points": 64, "angular_points": 32, "seed": 1}},
    ),
}
# spheres and shells at rotation rates whose squared rim speed underflows, at ``--samples 8``
SLOW_RATES = (1e-200, 1e-300, 5e-324)
SLOW_ROTATION_OVERRIDES = {
    f"omega-{omega!r}": (SPHERE, {"omega_rad_per_s": omega, "material": {"eps_r": 4.0, "mu_r": 2.0}})
    for omega in SLOW_RATES
} | {
    f"shell-omega-{omega!r}": (SHELL, {"omega_rad_per_s": omega, "material": {"eps_r": 6.0, "mu_r": 2.0}})
    for omega in SLOW_RATES
}
SAMPLES_OUTPUTS = {**TEST_OUTPUTS, "samples_json": "samples.json"}
# (base, overrides, flags) of the cases that take flags of their own
FLAGGED_OVERRIDES = {
    "samples-json/shell-512": (SHELL, {"outputs": SAMPLES_OUTPUTS}, ["--samples", "512"]),
    "samples-json/sphere-512": (SPHERE, {"outputs": SAMPLES_OUTPUTS}, ["--samples", "512"]),
    "blocks/sphere-verify-10000": (
        SPHERE,
        {"outputs": SAMPLES_OUTPUTS},
        ["--samples", "10000", "--verify-only"],
    ),
    "blocks/shell-profile-10000": (
        SHELL,
        {"sampling": {"radial_points": 10000, "angular_points": 8, "seed": 3}},
        TEST_SAMPLES,
    ),
    "blocks/shell-verify-2100": (SHELL, {}, ["--samples", "2100", "--verify-only"]),
    "blocks/sphere-profile-128x64": (
        SPHERE,
        {"sampling": {"radial_points": 128, "angular_points": 64, "seed": 1}, "material": {"eps_r": 4.0, "mu_r": 2.0}},
        TEST_SAMPLES,
    ),
    "metric-floor/shell-r1-1e-14": (
        SHELL,
        {"geometry": {"r1_m": 1e-14, "r2_m": 2e-14}},
        ["--samples", "64", "--verify-only"],
    ),
    "metric-floor/sphere-a-1e-13": (SPHERE, {"geometry": {"a_m": 1e-13}}, ["--samples", "64", "--verify-only"]),
}
# configs with no sampling or outputs section and integer-valued numbers
MINIMAL = {
    "shell": {
        "scenario": "cylinder",
        "geometry": {"r1_m": 1, "r2_m": 2},
        "omega_rad_per_s": 100,
        "b0_tesla": 1,
        "material": {"eps_r": 6, "mu_r": 1},
    },
    "sphere": {
        "scenario": "sphere",
        "geometry": {"a_m": 1},
        "omega_rad_per_s": -100,
        "e0_volt_per_m": 1000,
        "material": {"eps_r": 4, "mu_r": 2},
    },
}
# rotation rates one ulp below c / rim, where c*c - (r*r)*(omega*omega) is
# 0.0 at r2 = a = 0.05 m, and 16.0 at 0.04 m
C = 299792458.0
RIM_005 = math.nextafter(C / 0.05, 0.0)
RIM_004 = math.nextafter(C / 0.04, 0.0)
DIELECTRIC = {"material": {"eps_r": 4.0, "mu_r": 2.0}}
# (base, overrides, flags) of output names and rim speeds that exit 2, where
# a tree without their checks exits 1 with a traceback (after writing two
# reports, for the names) or, for two names of one file under ``--out-dir
# out``, exits 0 with one report lost; of the runs one ulp below c / 0.04 m;
# and of the shell at omega -0.0, which compares equal to the shell at 0.0
EDGE_OVERRIDES = {
    "edge/outputs-nul": (SHELL, {"outputs": {"profile_csv": "a\u0000b.csv"}}, TEST_SAMPLES),
    "edge/outputs-same-file-via-out-dir": (
        SHELL,
        {"outputs": {"verification_json": "ver.json", "profile_csv": "../out/ver.json"}},
        TEST_SAMPLES,
    ),
    "edge/outputs-surrogate": (SHELL, {"outputs": {"profile_csv": "\ud800.csv"}}, TEST_SAMPLES),
    "edge/omega-negative-zero": (SHELL, {"omega_rad_per_s": -0.0}, TEST_SAMPLES),
    "edge/rim-ulp/shell-0.05": (
        SHELL,
        {"geometry": {"r1_m": 0.02, "r2_m": 0.05}, "omega_rad_per_s": RIM_005},
        TEST_SAMPLES,
    ),
    "edge/rim-ulp/sphere-0.05": (SPHERE, {"omega_rad_per_s": RIM_005, **DIELECTRIC}, ["--samples", "14"]),
    "edge/rim-ulp/shell-0.04": (SHELL, {"omega_rad_per_s": RIM_004}, TEST_SAMPLES),
    "edge/rim-ulp/sphere-0.04": (
        SPHERE,
        {"geometry": {"a_m": 0.04}, "omega_rad_per_s": RIM_004, **DIELECTRIC},
        ["--samples", "14"],
    ),
}
BAD_FLAGS = {
    "samples-0": ["--samples", "0"],
    "samples-negative": ["--samples", "-5"],
    "samples-1e12": ["--samples", str(10**12)],
    "seed-flag-negative": ["--samples", "8", "--seed", "-1"],
}


def cases() -> list[tuple[str, str | bytes, list[list[str]]]]:
    """(name, config text or bytes, the arguments of each run after the
    config path) of every case, in a fixed order."""
    out = []
    for name, workload in WORKLOADS.items():
        flags = ["--samples", str(workload.samples)] + ["--verify-only"] * workload.verify_only
        stream = workload.runs(WORKLOAD_SEED)
        for k in range(RUNS_PER_WORKLOAD):
            spec = next(stream)
            seed = [] if spec.cli_seed is None else ["--seed", str(spec.cli_seed)]
            out.append((f"{name}/{k:02d}", json.dumps(spec.config), flags + seed))
    for scenario, config in (("shell", SHELL), ("sphere", SPHERE)):
        for mode, extra in (("full", []), ("verify-only", ["--verify-only"])):
            out.append((f"test_cli/{scenario}/{mode}", json.dumps(config), TEST_SAMPLES + extra))
    groups = (
        ("bad", BAD_OVERRIDES),
        ("arithmetic", ARITHMETIC_OVERRIDES),
        ("large", LARGE_PROFILE_OVERRIDES),
        ("slow-rotation", SLOW_ROTATION_OVERRIDES),
    )
    for group, table in groups:
        for name, (base, overrides) in table.items():
            config = copy.deepcopy(base)
            config.update(overrides)
            out.append((f"{group}/{name}", json.dumps(config), TEST_SAMPLES))
    for name, (base, overrides, flags) in (FLAGGED_OVERRIDES | EDGE_OVERRIDES).items():
        config = copy.deepcopy(base)
        config.update(overrides)
        out.append((name, json.dumps(config), flags))
    for name, config in MINIMAL.items():
        out.append((f"minimal/{name}", json.dumps(config), TEST_SAMPLES))
    out.append(("edge/deep-json", "[" * 100_000 + "]" * 100_000, TEST_SAMPLES))
    out.append(("edge/utf-16-bom", b"\xff\xfe" + json.dumps(SHELL).encode("utf-16-le"), TEST_SAMPLES))
    # above Python's int-to-str digit limit, so the JSON parser raises a ValueError
    out.append(("edge/int-5000-digits", '{"scenario": ' + "1" * 5000 + "}", TEST_SAMPLES))
    out.append(("bad/malformed-json", "{not json", TEST_SAMPLES))
    out.append(("bad/missing-sections", json.dumps({"scenario": "cylinder"}), TEST_SAMPLES))
    for name, flags in BAD_FLAGS.items():
        out.append((f"bad/{name}", json.dumps(SHELL), flags))
    runs = [(name, config, [[*flags, "--out-dir", "out"]]) for name, config, flags in out]
    for scenario, config in (("shell", SHELL), ("sphere", SPHERE)):
        for mode, extra in (("full", []), ("verify-only", ["--verify-only"])):
            reuse = [[*TEST_SAMPLES, *extra, "--seed", str(seed), "--out-dir", f"out-{seed}"] for seed in REUSE_SEEDS]
            runs.append((f"reuse/{scenario}/{mode}", json.dumps(config), reuse))
    return runs


def start(src: str, case_dir: str, config: str | bytes, runs: list[list[str]]) -> subprocess.Popen:
    os.makedirs(case_dir)
    with open(os.path.join(case_dir, "config.json"), "wb") as fh:
        fh.write(config if isinstance(config, bytes) else config.encode("utf-8"))
    if len(runs) == 1:
        cmd = [sys.executable, "-m", "emforms.cli", "run", "config.json", *runs[0]]
    else:
        cmd = [sys.executable, "-c", IN_ONE_PROCESS, json.dumps(runs)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.Popen(cmd, cwd=case_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def outcome(proc: subprocess.Popen, case_dir: str) -> tuple[int, bytes, dict[str, bytes]]:
    """Exit code, stderr and every file the run left in its directory."""
    _, stderr = proc.communicate()
    files = {}
    for directory, _, names in os.walk(case_dir):
        for name in names:
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, case_dir)
            if rel != "config.json":
                with open(path, "rb") as fh:
                    files[rel] = fh.read()
    return proc.returncode, stderr, files


def differences(old, new) -> list[str]:
    (old_code, old_err, old_files), (new_code, new_err, new_files) = old, new
    found = []
    if old_code != new_code:
        found.append(f"exit code {old_code} -> {new_code}")
    if old_err != new_err:
        found.append(f"stderr {old_err.decode(errors='replace')!r} -> {new_err.decode(errors='replace')!r}")
    for rel in sorted(old_files.keys() | new_files.keys()):
        if rel not in new_files:
            found.append(f"{rel} not written")
        elif rel not in old_files:
            found.append(f"{rel} newly written")
        elif old_files[rel] != new_files[rel]:
            moved = number_moves(rel, old_files[rel], new_files[rel])
            found.append(f"{rel} differs" + (f" ({moved})" if moved else ""))
    return found


def number_moves(rel: str, old: bytes, new: bytes) -> str | None:
    """How far the numbers of a differing CSV or JSON file moved, or None
    when a side does not parse, two tables differ in shape or no number
    moved."""
    try:
        if rel.endswith(".csv"):
            return csv_moves(old.decode(), new.decode())
        if rel.endswith(".json"):
            return json_moves(json.loads(old), json.loads(new))
    except ValueError:
        pass
    return None


def csv_moves(old: str, new: str) -> str | None:
    """Each column whose values moved, with its largest |old - new| over
    its largest |old|, for two tables of one header and row count."""
    (old_header, *old_rows), (new_header, *new_rows) = old.splitlines(), new.splitlines()
    if old_header != new_header or len(old_rows) != len(new_rows):
        return None
    old_columns = zip(*(map(float, row.split(",")) for row in old_rows))
    new_columns = zip(*(map(float, row.split(",")) for row in new_rows))
    moves = []
    for name, a, b in zip(old_header.split(","), old_columns, new_columns):
        largest_move = max(map(_gap, a, b))
        if largest_move:
            largest_old = max((abs(x) for x in a if not math.isnan(x)), default=0.0)
            moves.append(f"{name} {largest_move / largest_old if largest_old else math.inf:.2g}")
    return "largest |old - new| / largest |old| by column: " + ", ".join(moves) if moves else None


def json_moves(old, new) -> str | None:
    """Up to ``JSON_KEYS_SHOWN`` numbers that differ between two parsed
    JSON documents, as ``path old -> new``, and the count of the others."""
    moved = list(_numbers_moved(old, new, ""))
    shown = [f"{path} {a!r} -> {b!r}" for path, a, b in moved[:JSON_KEYS_SHOWN]]
    if len(moved) > JSON_KEYS_SHOWN:
        shown.append(f"{len(moved) - JSON_KEYS_SHOWN} more differ")
    return "; ".join(shown) or None


def _numbers_moved(old, new, path: str):
    """(dotted path, old, new) of each number found at one path of both
    documents whose value differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(key, old[key], new[key]) for key in old if key in new]
    elif isinstance(old, list) and isinstance(new, list):
        pairs = list(zip(map(str, range(len(old))), old, new))
    else:
        if _is_number(old) and _is_number(new) and _gap(old, new):
            yield path, old, new
        return
    for key, a, b in pairs:
        yield from _numbers_moved(a, b, f"{path}.{key}" if path else key)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _gap(x: float, y: float) -> float:
    """|x - y|: 0 where both are NaN, inf where one is."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    gap = abs(x - y)
    return math.inf if math.isnan(gap) else gap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the src directory of the old tree")
    parser.add_argument("new_src", help="the src directory of the new tree")
    parser.add_argument("-k", default="", metavar="TEXT", help="only the cases whose name contains TEXT")
    args = parser.parse_args(argv)

    selected = [case for case in cases() if args.k in case[0]]
    differing = 0
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        for k, (name, config, runs) in enumerate(selected):
            dirs = [os.path.join(work, side, str(k)) for side in ("old", "new")]
            # the two trees run side by side, each in its own directory
            procs = [start(src, d, config, runs) for src, d in zip((args.old_src, args.new_src), dirs)]
            found = differences(*(outcome(p, d) for p, d in zip(procs, dirs)))
            if found:
                differing += 1
                print(f"{name}: " + "; ".join(found))
    print(f"{differing} of {len(selected)} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
