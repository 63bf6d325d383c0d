"""emforms benchmark: seeded CLI workloads, end-to-end metrics, per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload shell-verify --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn. Each workload is a closed
loop with one caller: a fresh worker process (one thread, BLAS pools pinned
to 1, ``PYTHONPATH=src``) calls ``emforms.cli.run`` on a seeded stream of
generated configs, one after the other. Every run's exit code and outputs
are checked against closed forms computed here (``check.py``), and the
first config is replayed at the end; outputs that are not byte-identical
fail the replay.

End-to-end metrics (``--trace 0``):
  setup_s      median over fresh workers of the time from just before
               ``import emforms.cli`` to the end of the workload's first run
  runs_per_s   completed ``cli.run`` calls per second of time inside them
  run_p50_s    median ``cli.run`` latency; the first run is excluded
  run_tail_s   highest percentile of ``cli.run`` latency with at least ten
               samples beyond it (its percentile and count are printed)
  peak_rss_mb  ``ru_maxrss`` of the timed worker
The four times are wall times scaled to a reference machine speed that a
fixed kernel measures next to them (``calibrate.py``), because shared VM
cores change Python's speed by up to 2x from minute to minute; the
unscaled wall-clock values are printed beside them. The failed/attempted
ratio is printed and carried by the result's ``failed`` and ``attempted``
fields; it is 0 when all is well, so it is not a bounded metric.

Per-layer metrics (``--trace 1``) come from a separate traced worker that
runs a fixed list of configs untraced, then traced with spans rebound from
``tracer.py``; see that module. ``import.*`` comes from
``python -X importtime -c "import emforms.cli"``. Per-layer times are
unscaled wall times: they are for attribution within one run, not bounded.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The program exits 2 without a result if ``src/emforms`` is absent.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SPACETIME_NOTE, parse_importtime  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_WORKERS = 5  # fresh workers per run whose set-up times give setup_s
IMPORTTIME_REPEATS = 3
MIN_TIMED_RUNS = 20  # so that run_tail_s has ten samples beyond it
TRACE_SHARE = 3.0  # the traced pass runs its configs twice, plus tracing cost
WORKER_TIMEOUT_S = 120
BLAS_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """A worker crashed or timed out; no result can be given."""


def _env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _python(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _worker(workload: str, seed: int, mode: str, work_dir: Path, *extra: str) -> dict:
    proc = _python(
        [
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", mode,
            "--work-dir", str(work_dir),
            *extra,
        ]
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def provenance(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": BLAS_ENV,
        "seed": seed,
    }


def bench_untraced(name: str, seed: int, seconds: int, work: Path):
    results = [_worker(name, seed, "setup", work / f"setup{i}") for i in range(SETUP_WORKERS - 1)]
    loop = _worker(
        name, seed, "loop", work / "loop",
        "--seconds", str(seconds), "--min-runs", str(MIN_TIMED_RUNS),
    )
    results.append(loop)
    wall, lat = loop["latencies"], loop["scaled"]
    tail_s, tail_pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(r["setup_ref_s"] for r in results), "s"),
        "runs_per_s": (len(lat) / sum(lat), "1/s"),
        "run_p50_s": (statistics.median(lat), "s"),
        "run_tail_s": (tail_s, "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    notes = [
        f"run_tail_s is p{tail_pct:.1f} of {n} timed runs",
        "unscaled wall clock: setup_s %.6g s, runs_per_s %.6g 1/s, run_p50_s %.6g s, run_tail_s %.6g s"
        % (
            statistics.median(r["setup_s"] for r in results),
            len(wall) / sum(wall),
            statistics.median(wall),
            tail(wall)[0],
        ),
        f"exit-3 runs: {loop['exit3']} of {loop['attempted']}",
    ]
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    return metrics, attempted, failures, notes


def bench_traced(name: str, seed: int, seconds: int, work: Path):
    imports = [
        parse_importtime(_python(["-X", "importtime", "-c", "import emforms.cli"]).stderr)
        for _ in range(IMPORTTIME_REPEATS)
    ]
    metrics = {key: (statistics.median(d[key] for d in imports), "s") for key in imports[0]}
    runs = max(2, math.ceil(seconds * WORKLOADS[name].nominal_runs_per_s / TRACE_SHARE))
    res = _worker(name, seed, "trace", work / "trace", "--trace-runs", str(runs))
    metrics.update((key, tuple(value)) for key, value in res["layers"].items())
    return metrics, res["attempted"], res["failures"], [SPACETIME_NOTE]


def bench(name: str, seed: int, seconds: int, traced: bool):
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # compile the bytecode caches once, outside every measurement
        _python(["-c", "import emforms.cli"])
        return (bench_traced if traced else bench_untraced)(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emforms" / "cli.py").is_file():
        print(f"error: no emforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, attempted, failures, notes = bench(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"workload {name}: {WORKLOADS[name].why}")
        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}")
        print(f"  failed_ratio = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} runs)")
        for line in notes + failures[:20]:
            print(f"  {line}")
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update(
            (prefix + key, {"value": value, "unit": unit}) for key, (value, unit) in metrics.items()
        )
        result["attempted"] += attempted
        result["failed"] += len(failures)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
