"""Name every config whose verdict depends on the seed or the sample count.

    PYTHONPATH=src python scripts/verdict_audit.py [NAME ...]

Each config runs through ``emforms.cli.run`` in this process,
``--verify-only``, into a temporary directory, at seeds 0-9 and at
``--samples`` 8, 64 and 512. A config whose exit code is not the same in
all 30 runs is printed with its codes, one line per sample count, seeds
in order; the last line counts the configs that vary, and the exit code
is 1 if any varies, else 0. NAMEs keep only the configs of those names.

The configs:
  * the exact shell r1 = 0.02 m, r2 = 0.04 m, eps_r = 6, mu_r = 2,
    B0 = 1 T, at rim speeds (at r2) of 0.9, 0.98, 0.99 and 0.999 c:
    ``shell/beta-0.9`` ...;
  * the first-order sphere a = 0.05 m, eps_r = 4, mu_r = 2,
    E0 = 1000 V/m, at rim speeds of 0.5 and 0.9 c: ``sphere/beta-0.5``
    and ``sphere/beta-0.9``;
  * geometries near the metric floor, built on the shell and sphere
    configs of ``scripts/compare_outputs.py``: shells with r1 = 1e-14,
    1.9e-14 and 2e-14 m and r2 = 2 r1 (``metric-floor/shell-r1-1e-14``
    ...), spheres with a = 1e-13 and 3e-13 m;
  * the 14 scenario-sweep configs that ``scripts/compare_outputs.py``
    draws, under its names (``scenario-sweep/00`` ...);
  * the 11 spheres among the first 300 of that stream (the first 1,200
    configs) that exit 3 with ``--samples 8`` at their own seed, all with
    eps_r >= 8.16, under their stream index (``scenario-sweep/259`` ...);
  * the four rim speeds one ulp below c of ``scripts/compare_outputs.py``
    (``rim-ulp/shell-0.05`` ...): a shell and a sphere at 0.05 m, which
    the rim-speed check rejects, and at 0.04 m, which it accepts;
  * every other config of the ``scripts/compare_outputs.py`` cases whose
    text parses to a JSON object, once, under the name of its first case
    (``compare/test_cli/shell/full`` ...). Configs listed above and configs
    that differ only in the case's flags are not repeated. A compare config
    that exits 2 in all 30 runs is one the CLI rejects; it is neither
    printed nor counted.

The stderr of the runs is discarded.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import os
import sys
import tempfile

from compare_outputs import EDGE_OVERRIDES, RUNS_PER_WORKLOAD, SHELL, SPHERE, WORKLOAD_SEED, WORKLOADS, cases

from emforms import cli

SEEDS = range(10)
SAMPLES = (8, 64, 512)
C = 299792458.0
# stream indices of the sweep spheres that exit 3 with --samples 8
SWEEP_SPHERES_EXIT_3 = (259, 375, 527, 675, 747, 799, 831, 835, 887, 987, 991)


def _with(base: dict, **overrides) -> dict:
    config = copy.deepcopy(base)
    config.update(overrides)
    return config


def configs() -> dict[str, dict]:
    """Every audited config by name, in a fixed order."""
    out = {}
    for beta in (0.9, 0.98, 0.99, 0.999):
        material = {"eps_r": 6.0, "mu_r": 2.0}
        out[f"shell/beta-{beta}"] = _with(SHELL, omega_rad_per_s=beta * C / 0.04, material=material)
    for beta in (0.5, 0.9):
        material = {"eps_r": 4.0, "mu_r": 2.0}
        out[f"sphere/beta-{beta}"] = _with(SPHERE, omega_rad_per_s=beta * C / 0.05, material=material)
    for r1 in (1e-14, 1.9e-14, 2e-14):
        out[f"metric-floor/shell-r1-{r1!r}"] = _with(SHELL, geometry={"r1_m": r1, "r2_m": 2 * r1})
    for a in (1e-13, 3e-13):
        out[f"metric-floor/sphere-a-{a!r}"] = _with(SPHERE, geometry={"a_m": a})
    stream = WORKLOADS["scenario-sweep"].runs(WORKLOAD_SEED)
    for k in range(SWEEP_SPHERES_EXIT_3[-1] + 1):
        config = next(stream).config
        if k < RUNS_PER_WORKLOAD or k in SWEEP_SPHERES_EXIT_3:
            out[f"scenario-sweep/{k:02d}"] = config
    for name, (base, overrides, _) in EDGE_OVERRIDES.items():
        if name.startswith("edge/rim-ulp/"):
            out[name.removeprefix("edge/")] = _with(base, **overrides)
    seen = {json.dumps(config) for config in out.values()}
    for name, text, _ in cases():
        config = _json_object(text)
        if isinstance(config, dict) and json.dumps(config) not in seen:
            out[f"compare/{name}"] = config
            seen.add(json.dumps(config))
    return out


def _json_object(text: str | bytes):
    """What a compare case's config text parses to, or None when the JSON
    parser rejects it (malformed, nested too deeply, an integer too long)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def exit_codes(config: dict, work: str) -> dict[int, list[int]]:
    """The exit code of each run, by sample count, seeds in order."""
    path = os.path.join(work, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(work, "out")
    with contextlib.redirect_stderr(io.StringIO()):
        return {
            n: [cli.run(path, verify_only=True, samples=n, seed=seed, out_dir=out) for seed in SEEDS]
            for n in SAMPLES
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="audit only the configs of these names")
    args = parser.parse_args(argv)

    table = configs()
    unknown = [name for name in args.names if name not in table]
    if unknown:
        parser.error(f"unknown config name(s): {', '.join(unknown)}")
    selected = args.names or list(table)
    varying = rejected = 0
    with tempfile.TemporaryDirectory(prefix="verdict-audit-") as work:
        for name in selected:
            codes = exit_codes(table[name], work)
            distinct = {code for row in codes.values() for code in row}
            if name.startswith("compare/") and distinct == {2}:
                rejected += 1
            elif len(distinct) > 1:
                varying += 1
                print(f"{name}: exit codes at seeds {SEEDS.start}-{SEEDS.stop - 1}")
                for n, row in codes.items():
                    print(f"  --samples {n:>3}: " + " ".join(map(str, row)))
    print(f"{varying} of {len(selected) - rejected} configs vary")
    return 1 if varying else 0


if __name__ == "__main__":
    sys.exit(main())
