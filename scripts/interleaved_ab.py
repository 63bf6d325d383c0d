"""Time the ``cli.run`` of two source trees in one process, alternating runs.

    python scripts/interleaved_ab.py SRC_A SRC_B --workload NAME [--runs N] [--seed S]

SRC_A and SRC_B are source directories that hold an ``emforms`` package,
as for ``compare_outputs.py``. Each package is copied into one temporary
directory, as ``emforms_a`` and ``emforms_b``, and both are imported, so
the two trees run in one process and share its state: the interpreter,
numpy, the allocator and the machine's speed from one moment to the next.
Two benchmark runs made one after the other share none of that.

The configs are the stream of the benchmark workload NAME
(``perfbench/workloads.py``, which is only read) at seed S, run with that
workload's flags. Each config is written once and run once by each tree,
each run into a fresh output directory; A goes first in even pairs and B
in odd ones. One untimed run of each tree first pays the one-time costs
(lazy imports, the first solve). Only the ``cli.run`` call is timed.

The N timed pairs fall into blocks of ``BLOCK_RUNS`` consecutive pairs
(the last block may be shorter). Each block gives the ratio of B's median
time to A's. The script prints four lines:

    A: median 2.226 ms over 1000 runs
    B: median 2.107 ms over 1000 runs
    B/A: 0.962 [0.951, 0.967] over 50 blocks (median of the block ratios [quartiles])
    blocks won by B: 49 of 50

A ratio below 1 means B is faster; an A/A run (one tree given twice)
shows the noise of the method. It exits 0, or 1 when the two trees give a
config different exit codes; each such config is printed first.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCK_RUNS = 20


def load_workloads():
    """``perfbench/workloads.py`` as a module of its own name."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def import_trees(sources: list[str], tmp: str) -> list:
    """The ``cli`` module of each source tree, imported under its own name."""
    sys.path.insert(0, tmp)
    clis = []
    for label, src in zip("ab", sources):
        package = f"emforms_{label}"
        shutil.copytree(Path(src) / "emforms", Path(tmp) / package, ignore=shutil.ignore_patterns("__pycache__"))
        clis.append(importlib.import_module(f"{package}.cli"))
    return clis


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=1000, help="timed runs of each tree")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(sorted(workloads))}")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for src in (args.src_a, args.src_b):
        if not (Path(src) / "emforms").is_dir():
            parser.error(f"{src} holds no emforms package")
    workload = workloads[args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        clis = import_trees([args.src_a, args.src_b], tmp)
        stream = workload.runs(args.seed)
        times: list[list[float]] = [[], []]
        mismatched = 0
        for n in range(args.runs + 1):  # the first pair is untimed
            spec = next(stream)
            pair = os.path.join(tmp, "run")
            os.makedirs(pair)
            path = os.path.join(pair, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec.config, fh)
            codes = [None, None]
            for side in (0, 1) if n % 2 == 0 else (1, 0):
                out_dir = os.path.join(pair, f"out-{side}")
                start = time.perf_counter()
                codes[side] = clis[side].run(
                    path,
                    verify_only=workload.verify_only,
                    samples=workload.samples,
                    seed=spec.cli_seed,
                    out_dir=out_dir,
                )
                elapsed = time.perf_counter() - start
                if n:
                    times[side].append(elapsed)
            if codes[0] != codes[1]:
                mismatched += 1
                print(f"run {n}: exit {codes[0]} (A) and {codes[1]} (B) for {json.dumps(spec.config, sort_keys=True)}")
            shutil.rmtree(pair)

    for label, side in zip("AB", times):
        print(f"{label}: median {statistics.median(side) * 1e3:.3f} ms over {len(side)} runs")
    ratios = [
        statistics.median(times[1][k : k + BLOCK_RUNS]) / statistics.median(times[0][k : k + BLOCK_RUNS])
        for k in range(0, args.runs, BLOCK_RUNS)
    ]
    q1, mid, q3 = quartiles(ratios)
    print(f"B/A: {mid:.3f} [{q1:.3f}, {q3:.3f}] over {len(ratios)} blocks (median of the block ratios [quartiles])")
    print(f"blocks won by B: {sum(r < 1.0 for r in ratios)} of {len(ratios)}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
