"""One fresh benchmark worker: set-up, then an optional timed or traced loop.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the BLAS pools pinned to one thread. Prints one JSON object on stdout.

Modes:
  setup  import emforms.cli and make the workload's first run, then exit;
  loop   set-up, then call ``cli.run`` back to back for ``--seconds``, then
         replay the first config and compare its output bytes;
  trace  set-up, then the same fixed run list untraced and traced, then the
         byte-identical replay.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import calibrate
from check import check_run, output_bytes
from workloads import WORKLOADS, RunSpec, Workload


CALIBRATE_EVERY_S = 0.25  # of cli.run time between two reference-speed samples


class Runner:
    """Writes each config, calls ``cli.run`` and checks what it wrote."""

    def __init__(self, workload: Workload, work_dir: str):
        self.workload = workload
        self.work_dir = work_dir
        self.cli = None
        self.attempted = 0
        self.failures: list[str] = []
        self.exit3 = 0

    def prepare(self, spec: RunSpec, tag: str) -> tuple[str, str]:
        out_dir = os.path.join(self.work_dir, tag)
        os.makedirs(out_dir)
        path = os.path.join(out_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec.config, fh)
        return path, out_dir

    def call(self, spec: RunSpec, path: str, out_dir: str) -> tuple[int | str, float]:
        w = self.workload
        start = time.perf_counter()
        try:
            code = self.cli.run(
                path,
                verify_only=w.verify_only,
                samples=w.samples,
                seed=spec.cli_seed,
                out_dir=out_dir,
            )
        except Exception as exc:  # a crash fails this run; the loop goes on
            code = f"{type(exc).__name__}: {exc}"
        return code, time.perf_counter() - start

    def check(self, spec: RunSpec, code: int | str, out_dir: str, tag: str, extra=()) -> None:
        self.attempted += 1
        self.exit3 += code == 3
        w = self.workload
        errors = check_run(spec.config, w.verify_only, w.samples, code, out_dir) + list(extra)
        if errors:
            self.failures.append(f"{tag}: " + "; ".join(errors[:3]))

    def once(self, spec: RunSpec, tag: str) -> float:
        path, out_dir = self.prepare(spec, tag)
        code, elapsed = self.call(spec, path, out_dir)
        self.check(spec, code, out_dir, tag)
        shutil.rmtree(out_dir)
        return elapsed

    def replay(self, spec: RunSpec) -> None:
        """Rerun the first config; outputs that differ from the first pass fail it."""
        path, out_dir = self.prepare(spec, "replay")
        code, _ = self.call(spec, path, out_dir)
        verify_only = self.workload.verify_only
        try:
            first = output_bytes(os.path.join(self.work_dir, "first"), verify_only)
            same = first == output_bytes(out_dir, verify_only)
        except OSError:
            same = False
        self.check(spec, code, out_dir, "replay", () if same else ["outputs differ from the first pass"])

    def result(self, **extra) -> dict:
        return {
            "attempted": self.attempted,
            "failures": self.failures,
            "exit3": self.exit3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **extra,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "loop", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-runs", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.work_dir)
    stream = workload.runs(args.seed)
    first = next(stream)

    path, out_dir = runner.prepare(first, "first")
    cal = calibrate.sample()
    start = time.perf_counter()
    import emforms.cli

    runner.cli = emforms.cli
    code, _ = runner.call(first, path, out_dir)
    setup_s = time.perf_counter() - start
    cal_after = calibrate.sample()
    runner.check(first, code, out_dir, "first")
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s * calibrate.scale(cal, cal_after)}

    if args.mode == "setup":
        print(json.dumps(runner.result(**setup)))
        return 0

    if args.mode == "loop":
        latencies, scaled, block = [], [], []
        cal = cal_after
        deadline = time.perf_counter() + args.seconds
        done = False
        while not done:
            block.append(runner.once(next(stream), f"run{len(latencies) + len(block)}"))
            n = len(latencies) + len(block)
            done = time.perf_counter() >= deadline and n >= args.min_runs
            if done or sum(block) >= CALIBRATE_EVERY_S:
                cal_after = calibrate.sample()
                factor = calibrate.scale(cal, cal_after)
                latencies += block
                scaled += [x * factor for x in block]
                block, cal = [], cal_after
        runner.replay(first)
        print(json.dumps(runner.result(**setup, latencies=latencies, scaled=scaled)))
        return 0

    from tracer import Tracer, install, per_run_metrics

    specs = [next(stream) for _ in range(args.trace_runs)]
    untraced = sum(runner.once(spec, f"plain{i}") for i, spec in enumerate(specs))
    exit3_before = runner.exit3
    tracer = Tracer()
    install(tracer)
    try:
        traced = sum(runner.once(spec, f"traced{i}") for i, spec in enumerate(specs))
    finally:
        tracer.uninstall()
    layers = per_run_metrics(tracer, len(specs))
    layers["cli.exit3"] = (runner.exit3 - exit3_before, "count")
    layers["trace.runs"] = (len(specs), "count")
    # traced over untraced runs_per_s, over the same configs
    layers["trace.overhead_ratio"] = (untraced / traced, "ratio")
    runner.replay(first)
    print(json.dumps(runner.result(**setup, layers=layers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
