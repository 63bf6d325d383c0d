"""Command-line front end: JSON scenario config in, CSV/JSON reports out.

Config keys carry their SI units explicitly. Example cylinder config:

    {
      "scenario": "cylinder",
      "geometry": {"r1_m": 0.02, "r2_m": 0.04},
      "omega_rad_per_s": 100.0,
      "b0_tesla": 1.0,
      "material": {"eps_r": 6.0, "mu_r": 1.0},
      "sampling": {"radial_points": 64, "angular_points": 16, "seed": 0},
      "outputs": {"profile_csv": "profile.csv",
                  "observables_json": "observables.json",
                  "verification_json": "verification.json"}
    }

A sphere config uses "geometry": {"a_m": ...} and "e0_volt_per_m".
Unknown keys and non-finite numbers are rejected. Exit codes: 0 on
success; 2 on config errors, including geometry so small that the metric
degenerates (no outputs are written); 3 when residual tolerances are
exceeded (reports are still written); 4 when an output file cannot be
written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .cylinder import (
    CylinderScenario,
    cylinder_bound_sources,
    interface_sample_events,
    pellegrini_swift_field,
    solve_cylinder,
    wilson_wilson_V12,
)
from .forms import DegenerateMetricError, DomainError
from .junction import covariant_jump_residual, gibbs_jump_residual
from .media import EMDecomposition, MaterialParams
from .solutions import (
    EXACT_RESIDUAL_TOL,
    FIRST_ORDER_K_CAP,
    FieldSolution,
    MatchingError,
    verify_solution,
)
from .spacetime import lab_frame
from .sphere import SphereScenario, solve_sphere, sphere_interface_events

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_OUTPUT = 4


class ConfigError(ValueError):
    """Malformed or schema-violating run configuration."""


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _number(section: dict, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    # also rejects NaN, and integers too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def _integer(section: dict, key: str, where: str, default: int, minimum: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{where}.{key} must be an integer >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario configuration; mirrors the JSON schema."""

    kind: str
    r1_m: float | None
    r2_m: float | None
    a_m: float | None
    omega_rad_per_s: float
    b0_tesla: float | None
    e0_volt_per_m: float | None
    eps_r: float
    mu_r: float
    radial_points: int = 64
    angular_points: int = 16
    seed: int = 0
    profile_csv: str = "profile.csv"
    observables_json: str = "observables.json"
    verification_json: str = "verification.json"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        allowed = {"scenario", "geometry", "omega_rad_per_s", "material", "sampling", "outputs"}
        kind = raw.get("scenario")
        if kind == "cylinder":
            allowed |= {"b0_tesla"}
        elif kind == "sphere":
            allowed |= {"e0_volt_per_m"}
        else:
            raise ConfigError(f"scenario must be 'cylinder' or 'sphere', got {kind!r}")
        required = allowed - {"sampling", "outputs"}
        _require_keys(raw, allowed, required, "config")

        geometry = raw["geometry"]
        if kind == "cylinder":
            _require_keys(geometry, {"r1_m", "r2_m"}, {"r1_m", "r2_m"}, "geometry")
            r1, r2, a = _number(geometry, "r1_m", "geometry"), _number(geometry, "r2_m", "geometry"), None
            b0 = _number(raw, "b0_tesla", "config")
            e0 = None
        else:
            _require_keys(geometry, {"a_m"}, {"a_m"}, "geometry")
            r1 = r2 = None
            a = _number(geometry, "a_m", "geometry")
            b0 = None
            e0 = _number(raw, "e0_volt_per_m", "config")

        material = raw["material"]
        _require_keys(material, {"eps_r", "mu_r"}, {"eps_r", "mu_r"}, "material")

        sampling = raw.get("sampling", {})
        _require_keys(sampling, {"radial_points", "angular_points", "seed"}, set(), "sampling")
        outputs = raw.get("outputs", {})
        _require_keys(
            outputs,
            {"profile_csv", "observables_json", "verification_json"},
            set(),
            "outputs",
        )

        return cls(
            kind=kind,
            r1_m=r1,
            r2_m=r2,
            a_m=a,
            omega_rad_per_s=_number(raw, "omega_rad_per_s", "config"),
            b0_tesla=b0,
            e0_volt_per_m=e0,
            eps_r=_number(material, "eps_r", "material"),
            mu_r=_number(material, "mu_r", "material"),
            radial_points=_integer(sampling, "radial_points", "sampling", 64, 1),
            angular_points=_integer(sampling, "angular_points", "sampling", 16, 1),
            seed=_integer(sampling, "seed", "sampling", 0, 0),
            profile_csv=str(outputs.get("profile_csv", "profile.csv")),
            observables_json=str(outputs.get("observables_json", "observables.json")),
            verification_json=str(outputs.get("verification_json", "verification.json")),
        )

    def echo(self) -> dict:
        """Field-for-field echo of the parsed config for the reports."""
        geometry = (
            {"r1_m": self.r1_m, "r2_m": self.r2_m}
            if self.kind == "cylinder"
            else {"a_m": self.a_m}
        )
        out = {
            "scenario": self.kind,
            "geometry": geometry,
            "omega_rad_per_s": self.omega_rad_per_s,
            "material": {"eps_r": self.eps_r, "mu_r": self.mu_r},
            "sampling": {
                "radial_points": self.radial_points,
                "angular_points": self.angular_points,
                "seed": self.seed,
            },
            "outputs": {
                "profile_csv": self.profile_csv,
                "observables_json": self.observables_json,
                "verification_json": self.verification_json,
            },
        }
        if self.kind == "cylinder":
            out["b0_tesla"] = self.b0_tesla
        else:
            out["e0_volt_per_m"] = self.e0_volt_per_m
        return out

    def scenario(self):
        mat = MaterialParams(eps_r=self.eps_r, mu_r=self.mu_r)
        if self.kind == "cylinder":
            return CylinderScenario(
                r1=self.r1_m, r2=self.r2_m, omega=self.omega_rad_per_s, b0=self.b0_tesla, mat=mat
            )
        return SphereScenario(
            a=self.a_m, omega=self.omega_rad_per_s, e0=self.e0_volt_per_m, mat=mat
        )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".emforms-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _by_side(dec_in, dec_out, inside, events, attr: str, idx) -> np.ndarray:
    """One component of a frame field over the events, each decomposition
    evaluated only on its own side (the interior one raises past the light
    cylinder, which the exterior profile may reach)."""
    out = np.empty(len(events))
    for dec, mask in ((dec_in, inside), (dec_out, ~inside)):
        out[mask] = getattr(dec, attr).component(idx).eval_batch(events[mask])
    return out


def cylinder_profile(sc: CylinderScenario, sol: FieldSolution, radial_points: int):
    """Radial profile across all three regions, physical SI components."""
    header = ["r", "e_r", "b_z", "d_r", "h_z", "p_r", "m_z", "rho_bound", "j_bound"]
    metric = sol.chart.metric
    frame = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, metric)
    current, rho, p_form, m_form = cylinder_bound_sources(sc)

    radii = np.linspace(0.5 * sc.r1, 1.5 * sc.r2, radial_points)
    events = np.zeros((radial_points, 4))
    events[:, 1] = radii
    inside = (sc.r1 < radii) & (radii < sc.r2)
    medium = events[inside]
    sources = np.zeros((4, radial_points))  # p_r, m_z, rho_bound, j_bound; zero outside
    sources[0, inside] = p_form.component((1,)).eval_batch(medium)
    sources[1, inside] = m_form.component((3,)).eval_batch(medium)
    # scalar density: rho / (r dr^dth^dz)
    sources[2, inside] = rho.component((1, 2, 3)).eval_batch(medium) / radii[inside]
    # azimuthal flux density on dz^dr
    sources[3, inside] = -current.component((1, 3)).eval_batch(medium)
    columns = [
        radii,
        _by_side(dec_in, dec_out, inside, events, "e", (1,)),
        _by_side(dec_in, dec_out, inside, events, "b", (3,)),
        _by_side(dec_in, dec_out, inside, events, "d", (1,)),
        _by_side(dec_in, dec_out, inside, events, "h", (3,)),
        *sources,
    ]
    return header, np.column_stack(columns).tolist()


def sphere_profile(sc: SphereScenario, sol: FieldSolution, radial_points: int, angular_points: int):
    """(r, theta) grid of orthonormal field components, in SI over c."""
    header = ["r", "theta", "e_r", "e_theta", "b_r", "b_theta"]
    metric = sol.chart.metric
    frame = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, metric)

    radii = np.linspace(0.1 * sc.a, 2.0 * sc.a, radial_points)
    thetas = np.linspace(0.15, math.pi - 0.15, angular_points)
    r = np.repeat(radii, angular_points)  # rows run over theta within each radius
    th = np.tile(thetas, radial_points)
    events = np.column_stack([np.zeros_like(r), r, th, np.zeros_like(r)])
    inside = r < sc.a
    columns = [
        r,
        th,
        _by_side(dec_in, dec_out, inside, events, "e", (1,)),
        _by_side(dec_in, dec_out, inside, events, "e", (2,)) / r,
        _by_side(dec_in, dec_out, inside, events, "b", (1,)),
        _by_side(dec_in, dec_out, inside, events, "b", (2,)) / r,
    ]
    return header, np.column_stack(columns).tolist()


def _junction_reports(sc, sol: FieldSolution, samples: int, seed: int):
    metric = sol.chart.metric
    frame = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, metric)
    covariant, gibbs = [], []
    if isinstance(sc, CylinderScenario):
        radii = (sc.r1, sc.r2)
        event_sets = [interface_sample_events(sc, r, samples, seed) for r in radii]
    else:
        event_sets = [sphere_interface_events(sc, samples, seed)]
    for iface, events in zip(sol.interfaces, event_sets):
        covariant.append(
            covariant_jump_residual(
                sol.f_in, sol.f_out, sol.g_in, sol.g_out, iface, metric, events
            )
        )
        gibbs.append(
            gibbs_jump_residual(dec_in, dec_out, iface, frame, metric, events)
        )
    return covariant, gibbs


def run(
    config_path: str,
    verify_only: bool = False,
    samples: int | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
) -> int:
    """Load a config, solve, verify, and write the reports."""
    try:
        cfg = load_config(config_path)
        sc = cfg.scenario()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = cfg.seed if seed is None else seed
    n_samples = 64 if samples is None else samples
    if n_samples < 1 or seed < 0:
        print(
            f"error: need samples >= 1 and seed >= 0, got {n_samples} and {seed}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    def out_path(name: str) -> str:
        return os.path.join(out_dir, name) if out_dir else name

    try:
        if isinstance(sc, CylinderScenario):
            sol, constants = solve_cylinder(sc, seed=seed)
        else:
            sol, constants = solve_sphere(sc, seed=seed)
        maxwell = verify_solution(sol, samples_per_region=n_samples, seed=seed)
        junctions, gibbs = _junction_reports(sc, sol, n_samples, seed)
    except (MatchingError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateMetricError as exc:
        print(f"error: geometry too small for the metric floor: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if sol.order == "exact":
        junction_tol = EXACT_RESIDUAL_TOL
    else:
        junction_tol = max(FIRST_ORDER_K_CAP * sol.expansion_parameter**2, EXACT_RESIDUAL_TOL)
    junction_ok = all(rep.max_rel <= junction_tol for rep in junctions)
    within_tolerance = maxwell.passed and junction_ok

    verification = {
        "config": cfg.echo(),
        "maxwell": maxwell.to_json_dict(),
        "junction_tolerance_rel": junction_tol,
        "junction": [rep.to_json_dict() for rep in junctions],
        "junction_gibbs": [rep.to_json_dict() for rep in gibbs],
        "within_tolerance": within_tolerance,
    }

    if not verify_only:
        if isinstance(sc, CylinderScenario):
            mid = 0.5 * (sc.r1 + sc.r2)
            observables = {
                "config": cfg.echo(),
                "matching_constants": {"C1": constants.c1, "C2": constants.c2},
                "v12_leading_volts": wilson_wilson_V12(sc, mode="leading"),
                "v12_exact_volts": wilson_wilson_V12(sc, mode="exact"),
                "radial_field_mid_volts_per_m": {
                    "wilson_wilson": sc.mat.mu_r
                    * (1.0 - 1.0 / (sc.mat.mu_r * sc.mat.eps_r))
                    * mid
                    * sc.omega
                    * sc.b0,
                    "pellegrini_swift_falsified": pellegrini_swift_field(sc, mid),
                },
            }
            header, rows = cylinder_profile(sc, sol, cfg.radial_points)
        else:
            observables = {
                "config": cfg.echo(),
                "matching_constants": {
                    "K0": constants.k0,
                    "K1": constants.k1,
                    "P0": constants.p0,
                    "P1": constants.p1,
                },
            }
            header, rows = sphere_profile(sc, sol, cfg.radial_points, cfg.angular_points)

    path = out_path(cfg.verification_json)
    try:
        _write_json(path, verification)
        if not verify_only:
            path = out_path(cfg.observables_json)
            _write_json(path, observables)
            path = out_path(cfg.profile_csv)
            write_csv(path, header, rows)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_OUTPUT

    return EXIT_OK if within_tolerance else EXIT_TOLERANCE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emforms",
        description="Electromagnetics of rotating media: solve, verify, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="solve a scenario config and write reports")
    run_parser.add_argument("config", help="path to a JSON scenario config")
    run_parser.add_argument("--verify-only", action="store_true", help="write only the verification report")
    run_parser.add_argument("--samples", type=int, default=None, help="samples per region/interface")
    run_parser.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    run_parser.add_argument("--out-dir", default=None, help="directory for output files")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(
            args.config,
            verify_only=args.verify_only,
            samples=args.samples,
            seed=args.seed,
            out_dir=args.out_dir,
        )
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
