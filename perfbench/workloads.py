"""Seeded config streams for the three benchmark workloads.

Only the standard library is used here, so that generating a config in a
fresh worker does not import numpy before set-up time starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

C = 299792458.0  # m/s

OUTPUTS = {
    "profile_csv": "profile.csv",
    "observables_json": "observables.json",
    "verification_json": "verification.json",
}


@dataclass(frozen=True)
class RunSpec:
    """One `cli.run` call: the config to write and the `--seed` override."""

    config: dict
    cli_seed: int | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verify_only: bool
    samples: int
    stream: Callable[[random.Random], Iterator[RunSpec]]
    # Rough untraced rate on a 2-core x86 VM; it only sizes the traced
    # pass, whose run count must not depend on the machine.
    nominal_runs_per_s: float

    def runs(self, seed: int) -> Iterator[RunSpec]:
        return self.stream(random.Random(seed))


def _cylinder(r1, r2, beta, b0, eps_r, mu_r, radial=64, angular=16, seed=0) -> dict:
    return {
        "scenario": "cylinder",
        "geometry": {"r1_m": r1, "r2_m": r2},
        "omega_rad_per_s": beta * C / r2,
        "b0_tesla": b0,
        "material": {"eps_r": eps_r, "mu_r": mu_r},
        "sampling": {"radial_points": radial, "angular_points": angular, "seed": seed},
        "outputs": dict(OUTPUTS),
    }


def _sphere(a, beta, e0, eps_r, mu_r, radial=64, angular=16, seed=0) -> dict:
    return {
        "scenario": "sphere",
        "geometry": {"a_m": a},
        "omega_rad_per_s": beta * C / a,
        "e0_volt_per_m": e0,
        "material": {"eps_r": eps_r, "mu_r": mu_r},
        "sampling": {"radial_points": radial, "angular_points": angular, "seed": seed},
        "outputs": dict(OUTPUTS),
    }


def _fixed(config: dict) -> Callable[[random.Random], Iterator[RunSpec]]:
    def stream(rng: random.Random) -> Iterator[RunSpec]:
        while True:
            yield RunSpec(config, rng.randrange(2**31))

    return stream


def _sweep(rng: random.Random) -> Iterator[RunSpec]:
    # Parameter ranges of the acceptance suite's random scenarios, unfiltered.
    i = 0
    while True:
        seed = rng.randrange(2**31)
        if i % 4 == 3:
            eps_r, mu_r = rng.uniform(1.1, 10.0), rng.uniform(0.3, 4.0)
            config = _sphere(
                a=rng.uniform(0.01, 0.5),
                beta=rng.uniform(1e-7, 0.05),
                e0=rng.uniform(10.0, 1e5),
                eps_r=eps_r,
                mu_r=mu_r,
                radial=16,
                angular=8,
                seed=seed,
            )
        else:
            r1 = rng.uniform(0.005, 0.05)
            config = _cylinder(
                r1=r1,
                r2=r1 * rng.uniform(1.5, 4.0),
                beta=rng.uniform(1e-6, 0.3),
                b0=rng.uniform(0.1, 5.0),
                eps_r=rng.uniform(1.1, 10.0),
                mu_r=rng.uniform(0.3, 4.0),
                radial=16,
                angular=8,
                seed=seed,
            )
        i += 1
        yield RunSpec(config, None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="shell-verify",
            why="exact shell, --verify-only --samples 512: per-event Maxwell and junction checks dominate",
            verify_only=True,
            samples=512,
            stream=_fixed(_cylinder(0.02, 0.04, 0.1, 1.0, 6.0, 2.0)),
            nominal_runs_per_s=2.4,
        ),
        Workload(
            name="sphere-report",
            why="first-order sphere, full outputs on a 96x32 grid, --samples 128: deep closure trees plus profile and CSV write",
            verify_only=False,
            samples=128,
            stream=_fixed(_sphere(0.05, 0.01, 1000.0, 4.0, 2.0, radial=96, angular=32)),
            nominal_runs_per_s=3.2,
        ),
        Workload(
            name="scenario-sweep",
            why="distinct random scenarios (3 cylinders : 1 sphere), --samples 8: per-scenario fixed costs, no reuse across runs",
            verify_only=False,
            samples=8,
            stream=_sweep,
            nominal_runs_per_s=50.0,
        ),
    )
}
