"""Check that the CLI fails closed on configs built from extreme numbers.

    PYTHONPATH=src python scripts/exit_fuzz.py [--count N] [--seed S]

Draws N configs (default 3000) from a generator seeded with S (default 0).
Each is a shell or a sphere whose every number, of the geometry, the
rotation rate, the drive and the material, is its ordinary value (that
of the shell or sphere config of ``scripts/compare_outputs.py``) or, as
often, one drawn from ``EXTREMES``: +-0.0, +-5e-324, +-1e-300,
+-1.7e308, +-c and a few ordinary magnitudes of either sign. Each config
runs once through ``emforms.cli.run`` in this process, at ``--samples 8``
and a seed in 0-9, with full outputs or ``--verify-only`` at random, into
a directory of its own under a temporary directory; the stderr of the
runs is discarded.

Prints one ``index exit-code`` line per config, then one ``exit CODE:
COUNT`` line per exit code. An exception that escapes ``run`` prints
``index exception: TYPE: MESSAGE``, and a report that holds a NaN or an
infinity (``NaN``, ``Infinity``, ``nan`` or ``inf`` as a token) prints
``index non-finite: FILE (exit CODE)``. A run that exits 3 may write
non-finite residuals and profile values, as its verdict has failed; a
run that exits 0 must not. The exit code is 1 if an exception escaped or
a run that exited 0 wrote a non-finite number, else 0.

``config(index, seed)`` rebuilds the config of one line, so that two
trees' outputs can be compared config by config.

Standard library only, besides emforms itself.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import random
import re
import shutil
import sys
import tempfile

from emforms import cli

C = 299792458.0
EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.7e308, -1.7e308, C, -C,
    1e-3, -1e-3, 1.0, -1.0, 1e3, -1e3, 1e6, -1e6,
]
# each number's ordinary value, by scenario and key path
ORDINARY = {
    "cylinder": {
        ("geometry", "r1_m"): 0.02,
        ("geometry", "r2_m"): 0.04,
        ("omega_rad_per_s",): 100.0,
        ("b0_tesla",): 1.0,
        ("material", "eps_r"): 6.0,
        ("material", "mu_r"): 2.0,
    },
    "sphere": {
        ("geometry", "a_m"): 0.05,
        ("omega_rad_per_s",): 200.0,
        ("e0_volt_per_m",): 1000.0,
        ("material", "eps_r"): 4.0,
        ("material", "mu_r"): 2.0,
    },
}
# a small profile, so that a full run stays cheap
SAMPLING = {"cylinder": {"radial_points": 16}, "sphere": {"radial_points": 5, "angular_points": 4}}
NON_FINITE = re.compile(rb"(?<![A-Za-z_])(NaN|Infinity|nan|inf)(?![A-Za-z_])")


def config(index: int, seed: int) -> tuple[dict, bool, int]:
    """The config, ``verify_only`` and the run seed of config ``index`` of
    the stream at ``seed``."""
    rng = random.Random(f"{seed}:{index}")
    kind = rng.choice(sorted(ORDINARY))
    cfg: dict = {"scenario": kind, "sampling": dict(SAMPLING[kind])}
    for path, ordinary in ORDINARY[kind].items():
        value = ordinary if rng.random() < 0.5 else rng.choice(EXTREMES)
        section = cfg
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return cfg, rng.random() < 0.5, rng.randrange(10)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=3000, help="configs to run")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config stream")
    args = parser.parse_args(argv)

    histogram: collections.Counter = collections.Counter()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        for index in range(args.count):
            cfg, verify_only, seed = config(index, args.seed)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            out = os.path.join(tmp, "out")
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run(path, verify_only=verify_only, samples=8, seed=seed, out_dir=out)
                print(f"{index} {code}")
                histogram[code] += 1
            except Exception as exc:  # an escaped exception is what this script looks for
                print(f"{index} exception: {type(exc).__name__}: {exc}")
                code, failed = None, True
            reports = sorted(os.listdir(out)) if os.path.isdir(out) else []
            for name in reports:
                with open(os.path.join(out, name), "rb") as fh:
                    if NON_FINITE.search(fh.read()):
                        print(f"{index} non-finite: {name} (exit {code})")
                        failed |= code == cli.EXIT_OK
            shutil.rmtree(out, ignore_errors=True)
    for code in sorted(histogram):
        print(f"exit {code}: {histogram[code]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
