"""Correctness check of one `cli.run` call, independent of the program.

Nothing here imports emforms: the expected values are closed forms of the
paper's two matched solutions, recomputed from the generated config.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import OUTPUTS

C = 299792458.0  # m/s

CONST_REL_TOL = 1e-10  # matched constants against their closed forms
V12_REL_TOL = 1e-9  # quadrature against the log1p closed form
EXACT_MAXWELL_TOL = 1e-10  # relative Maxwell residuals of the exact shell

CSV_HEADERS = {
    "cylinder": ["r", "e_r", "b_z", "d_r", "h_z", "p_r", "m_z", "rho_bound", "j_bound"],
    "sphere": ["r", "theta", "e_r", "e_theta", "b_r", "b_theta"],
}


def _close(got, want: float, tol: float, scale: float = 0.0) -> bool:
    return (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= tol * max(abs(want), scale)
    )


def cylinder_constants(cfg: dict) -> dict:
    om, b0 = cfg["omega_rad_per_s"], cfg["b0_tesla"]
    eps_r, mu_r = cfg["material"]["eps_r"], cfg["material"]["mu_r"]
    return {"C1": 0.0, "C2": C**3 * b0 * om * (eps_r * mu_r - 1.0) / eps_r}


def cylinder_v12(cfg: dict) -> float:
    om, b0 = cfg["omega_rad_per_s"], cfg["b0_tesla"]
    eps_r, mu_r = cfg["material"]["eps_r"], cfg["material"]["mu_r"]
    if om == 0.0:
        return 0.0
    x1 = (cfg["geometry"]["r1_m"] * om / C) ** 2
    x2 = (cfg["geometry"]["r2_m"] * om / C) ** 2
    return -(C**2 * b0 * (eps_r * mu_r - 1.0) / (2.0 * eps_r * om)) * math.log1p(
        (x1 - x2) / (1.0 - x1)
    )


def sphere_constants(cfg: dict) -> dict:
    a, e0 = cfg["geometry"]["a_m"], cfg["e0_volt_per_m"]
    eps_r, mu_r = cfg["material"]["eps_r"], cfg["material"]["mu_r"]
    k0 = 3.0 * e0 / (eps_r + 2.0)
    k1 = k0 * (eps_r * mu_r - 1.0) / (C**2 * (2.0 * mu_r + 3.0))
    return {
        "K0": k0,
        "P0": -e0 * a**3 * (eps_r - 1.0) / (eps_r + 2.0),
        "K1": k1,
        "P1": a**5 * k1,
    }


def _read_json(path: str, errors: list[str]):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        errors.append(f"{os.path.basename(path)}: {exc}")
        return None


def _check_profile(path: str, cfg: dict, errors: list[str]) -> None:
    kind = cfg["scenario"]
    sampling = cfg["sampling"]
    want_rows = sampling["radial_points"]
    if kind == "sphere":
        want_rows *= sampling["angular_points"]
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        errors.append(f"profile: {exc}")
        return
    if not rows or rows[0] != CSV_HEADERS[kind]:
        errors.append(f"profile: header {rows[:1]}")
        return
    body = rows[1:]
    if len(body) != want_rows:
        errors.append(f"profile: {len(body)} rows, want {want_rows}")
    width = len(CSV_HEADERS[kind])
    for row in body:
        try:
            finite = len(row) == width and all(math.isfinite(float(v)) for v in row)
        except ValueError:
            finite = False
        if not finite:
            errors.append(f"profile: bad row {row}")
            return


def check_run(cfg: dict, verify_only: bool, samples: int, exit_code, out_dir: str) -> list[str]:
    """Return what is wrong with one run's exit code (or exception) and outputs."""
    errors: list[str] = []
    kind = cfg["scenario"]
    if exit_code not in (0, 3):
        return [f"exit code {exit_code!r}"]

    ver = _read_json(os.path.join(out_dir, OUTPUTS["verification_json"]), errors)
    if isinstance(ver, dict):
        if ver.get("within_tolerance") is not (exit_code == 0):
            errors.append(f"exit code {exit_code} but within_tolerance {ver.get('within_tolerance')}")
        if ver.get("config", {}).get("scenario") != kind:
            errors.append("verification: config echo does not name the scenario")
        maxwell = ver.get("maxwell", {})
        if maxwell.get("samples_per_region") != samples:
            errors.append(f"verification: samples_per_region {maxwell.get('samples_per_region')}")
        if len(ver.get("junction", [])) != (2 if kind == "cylinder" else 1):
            errors.append("verification: wrong number of junction reports")
        if kind == "cylinder":
            for name, region in maxwell.get("regions", {}).items():
                for key in ("df_max_rel", "dstar_g_max_rel"):
                    value = region.get(key)
                    if not (isinstance(value, (int, float)) and value <= EXACT_MAXWELL_TOL):
                        errors.append(f"maxwell {name}.{key} = {value}")
    elif not errors:
        errors.append("verification: not a JSON object")

    profile = os.path.join(out_dir, OUTPUTS["profile_csv"])
    observables = os.path.join(out_dir, OUTPUTS["observables_json"])
    if verify_only:
        for path in (profile, observables):
            if os.path.exists(path):
                errors.append(f"--verify-only wrote {os.path.basename(path)}")
        return errors

    _check_profile(profile, cfg, errors)
    obs = _read_json(observables, errors)
    if not isinstance(obs, dict):
        return errors or ["observables: not a JSON object"]
    got = obs.get("matching_constants", {})
    if kind == "cylinder":
        want = cylinder_constants(cfg)
        # C1 vanishes in closed form; compare it on the scale of C2.
        for name in ("C1", "C2"):
            if not _close(got.get(name), want[name], CONST_REL_TOL, abs(want["C2"])):
                errors.append(f"{name} = {got.get(name)}, closed form {want[name]}")
        v12 = cylinder_v12(cfg)
        if not _close(obs.get("v12_exact_volts"), v12, V12_REL_TOL):
            errors.append(f"v12_exact_volts = {obs.get('v12_exact_volts')}, closed form {v12}")
    else:
        want = sphere_constants(cfg)
        for name, value in want.items():
            if not _close(got.get(name), value, CONST_REL_TOL):
                errors.append(f"{name} = {got.get(name)}, closed form {value}")
    return errors


def output_bytes(out_dir: str, verify_only: bool) -> dict[str, bytes]:
    """Raw bytes of a run's outputs, for the byte-identical replay check."""
    names = [OUTPUTS["verification_json"]]
    if not verify_only:
        names += [OUTPUTS["observables_json"], OUTPUTS["profile_csv"]]
    blobs = {}
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs
