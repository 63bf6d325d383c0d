import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from oracles import stdlib_json

import emforms.cli as cli_module
from emforms.cli import MAX_PROFILE_ROWS, MAX_SAMPLES, ConfigError, RunConfig, load_config, run


def cylinder_config(tmp_path, **overrides):
    cfg = {
        "scenario": "cylinder",
        "geometry": {"r1_m": 0.02, "r2_m": 0.04},
        "omega_rad_per_s": 100.0,
        "b0_tesla": 1.0,
        "material": {"eps_r": 6.0, "mu_r": 1.0},
        "sampling": {"radial_points": 16, "angular_points": 8, "seed": 3},
        "outputs": {
            "profile_csv": "profile.csv",
            "observables_json": "obs.json",
            "verification_json": "ver.json",
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def sphere_config(tmp_path, eps_r=1.0, mu_r=1.0, **overrides):
    cfg = {
        "scenario": "sphere",
        "geometry": {"a_m": 0.05},
        "omega_rad_per_s": 200.0,
        "e0_volt_per_m": 1000.0,
        "material": {"eps_r": eps_r, "mu_r": mu_r},
        "sampling": {"radial_points": 5, "angular_points": 4, "seed": 1},
        "outputs": {
            "profile_csv": "profile.csv",
            "observables_json": "obs.json",
            "verification_json": "ver.json",
        },
    }
    cfg.update(overrides)
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


# the test configs' output names plus the opt-in samples file
WITH_SAMPLES = {
    "profile_csv": "profile.csv",
    "observables_json": "obs.json",
    "verification_json": "ver.json",
    "samples_json": "samples.json",
}

# the keys of a Maxwell region entry that are not residuals
FIELD_SCALE_AND_WORST_KEYS = {"f_scale", "star_g_scale", "df_worst_event", "dstar_g_worst_event"}

BOTH_SCENARIOS = pytest.mark.parametrize(
    "make_config", [cylinder_config, sphere_config], ids=["cylinder", "sphere"]
)


def test_cylinder_run_observables(tmp_path):
    path, cfg = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=16, out_dir=str(out)) == 0
    obs = json.loads((out / "obs.json").read_text())
    assert obs["v12_leading_volts"] == pytest.approx(0.05, rel=1e-12)
    assert obs["v12_exact_volts"] == pytest.approx(0.05, rel=1e-7)
    fields = obs["radial_field_mid_volts_per_m"]
    assert fields["wilson_wilson"] == pytest.approx(2.5, rel=1e-12)
    assert fields["pellegrini_swift_falsified"] == pytest.approx(-2.5, rel=1e-12)
    assert fields["wilson_wilson"] != fields["pellegrini_swift_falsified"]
    assert obs["matching_constants"]["C1"] == 0.0


@BOTH_SCENARIOS
def test_config_echo_round_trip(tmp_path, make_config):
    path, cfg = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    ver = json.loads((out / "ver.json").read_text())
    assert ver["config"] == cfg
    obs = json.loads((out / "obs.json").read_text())
    assert obs["config"] == cfg


# configs with no sampling or outputs section and integer-valued numbers,
# and the numbers each echo holds: every one a float
MINIMAL_CONFIGS = {
    "cylinder": (
        {"geometry": {"r1_m": 1, "r2_m": 2}, "omega_rad_per_s": 100, "b0_tesla": 1},
        {"geometry": {"r1_m": 1.0, "r2_m": 2.0}, "omega_rad_per_s": 100.0, "b0_tesla": 1.0},
    ),
    "sphere": (
        {"geometry": {"a_m": 1}, "omega_rad_per_s": -100, "e0_volt_per_m": 1000},
        {"geometry": {"a_m": 1.0}, "omega_rad_per_s": -100.0, "e0_volt_per_m": 1000.0},
    ),
}


@pytest.mark.parametrize("kind", MINIMAL_CONFIGS)
def test_echo_of_a_minimal_config_has_floats_and_the_defaults(tmp_path, kind):
    raw, numbers = MINIMAL_CONFIGS[kind]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": kind, **raw, "material": {"eps_r": 4, "mu_r": 2}}))
    out = tmp_path / "out"
    assert run(str(path), samples=8, out_dir=str(out)) == 0
    outputs = {
        "profile_csv": "profile.csv",
        "observables_json": "observables.json",
        "verification_json": "verification.json",
    }
    expected = {
        "scenario": kind,
        **numbers,
        "material": {"eps_r": 4.0, "mu_r": 2.0},
        "sampling": {"radial_points": 64, "angular_points": 16, "seed": 0},
        "outputs": outputs,
    }
    # json.dumps tells 1 from 1.0, which == does not
    expected_text = json.dumps(expected, indent=2, sort_keys=True)
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs.values())
    for name in ("verification.json", "observables.json"):
        echo = json.loads((out / name).read_text())["config"]
        assert json.dumps(echo, indent=2, sort_keys=True) == expected_text
    digest = json.loads((out / "verification.json").read_text())["provenance"]["config_sha256"]
    assert digest == hashlib.sha256(expected_text.encode("ascii")).hexdigest()
    rows = len((out / "profile.csv").read_text().splitlines()) - 1
    assert rows == (64 if kind == "cylinder" else 64 * 16)


def test_profile_row_count_and_vacuum_gap(tmp_path):
    path, cfg = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    lines = (out / "profile.csv").read_text().splitlines()
    header, rows = lines[0].split(","), lines[1:]
    assert len(rows) == cfg["sampling"]["radial_points"]
    assert header == ["r", "e_r", "b_z", "d_r", "h_z", "p_r", "m_z", "rho_bound", "j_bound"]
    for line in rows:
        vals = dict(zip(header, map(float, line.split(","))))
        if vals["r"] < 0.02 or vals["r"] > 0.04:
            assert vals["e_r"] == 0.0
            assert vals["b_z"] == pytest.approx(1.0, rel=1e-12)
            assert vals["p_r"] == vals["m_z"] == vals["rho_bound"] == vals["j_bound"] == 0.0


def test_sphere_vacuum_constants(tmp_path):
    path, _ = sphere_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=12, out_dir=str(out)) == 0
    obs = json.loads((out / "obs.json").read_text())
    consts = obs["matching_constants"]
    assert consts["K0"] == pytest.approx(1000.0, rel=1e-12)
    assert consts["K1"] == 0.0
    assert consts["P0"] == 0.0
    assert consts["P1"] == 0.0
    lines = (out / "profile.csv").read_text().splitlines()
    assert lines[0] == "r,theta,e_r,e_theta,b_r,b_theta"
    assert len(lines) - 1 == 5 * 4


def test_malformed_json_exits_2_without_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert run(str(bad), out_dir=str(out)) == 2
    assert not out.exists()


def test_unknown_key_rejected(tmp_path):
    path, _ = cylinder_config(tmp_path, bogus_key=1)
    assert run(path) == 2


def test_missing_section_rejected(tmp_path):
    cfg = {"scenario": "cylinder", "geometry": {"r1_m": 0.02, "r2_m": 0.04}}
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg))
    assert run(str(path)) == 2


def test_invalid_geometry_rejected(tmp_path):
    path, _ = cylinder_config(tmp_path, geometry={"r1_m": 0.04, "r2_m": 0.02})
    assert run(path) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        (cylinder_config, {"omega_rad_per_s": math.nan}, None),
        (cylinder_config, {"material": {"eps_r": math.inf, "mu_r": 1.0}}, None),
        (cylinder_config, {"b0_tesla": 10**400}, None),
        (cylinder_config, {"sampling": {"radial_points": 2.7}}, None),
        (cylinder_config, {"sampling": {"angular_points": -3}}, None),
        (cylinder_config, {"sampling": {"seed": -1}}, None),
        # above MAX_PROFILE_ROWS; nothing is allocated
        (cylinder_config, {"sampling": {"radial_points": 10**12}}, None),
        # eps0 * eps_r underflows to 0, which the solution divides by
        (
            cylinder_config,
            {"material": {"eps_r": 5e-324, "mu_r": 1.0}},
            "material.eps_r: eps0 * eps_r underflows to 0 for eps_r = 5e-324",
        ),
        # a**3 of a Python float overflows
        (
            sphere_config,
            {"geometry": {"a_m": 1e200}, "omega_rad_per_s": 0.0},
            "geometry.a_m: a**3 overflows a float for a = 1e+200",
        ),
    ],
)
def test_bad_numbers_exit_2_without_outputs(tmp_path, capsys, overrides):
    """Each exits 2; a number whose arithmetic would fail is named, with
    its config key, in the message."""
    make_config, changes, message = overrides
    path, _ = make_config(tmp_path, **changes)
    out = tmp_path / "out"
    assert run(path, out_dir=str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if message is not None:
        assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", [None, ["cylinder"], {"sphere": 1}])
def test_scenario_name_not_a_known_string_exits_2(tmp_path, name):
    path, _ = cylinder_config(tmp_path, scenario=name)
    out = tmp_path / "out"
    assert run(path, out_dir=str(out)) == 2
    assert not out.exists()


# 10**12 is above MAX_SAMPLES; nothing is allocated
@pytest.mark.parametrize("samples, seed", [(0, None), (-5, None), (8, -1), (10**12, None)])
def test_bad_samples_or_seed_exit_2_without_outputs(tmp_path, samples, seed):
    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=samples, seed=seed, out_dir=str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "make_config, sampling, samples, message",
    [
        (
            cylinder_config,
            {"radial_points": 10**12},
            8,
            f"profile rows (sampling.radial_points) must be at most {MAX_PROFILE_ROWS}, got {10**12}",
        ),
        (
            sphere_config,
            {"radial_points": 10**6, "angular_points": 10**6},
            8,
            "profile rows (sampling.radial_points * sampling.angular_points) "
            f"must be at most {MAX_PROFILE_ROWS}, got {10**12}",
        ),
        (cylinder_config, {}, 10**12, f"samples must be at most {MAX_SAMPLES}, got {10**12}"),
    ],
    ids=["shell-rows", "sphere-rows", "samples"],
)
def test_oversized_sampling_prints_one_error_line(tmp_path, capsys, make_config, sampling, samples, message):
    path, _ = make_config(tmp_path, sampling=sampling)
    out = tmp_path / "out"
    assert run(path, samples=samples, out_dir=str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "make_config, sampling, accepted",
    [
        (cylinder_config, {"radial_points": MAX_PROFILE_ROWS}, True),
        (cylinder_config, {"radial_points": MAX_PROFILE_ROWS + 1}, False),
        # the shell's profile has no angular axis
        (cylinder_config, {"radial_points": 1000, "angular_points": 10**9}, True),
        (sphere_config, {"radial_points": 1000, "angular_points": 100}, True),
        (sphere_config, {"radial_points": 1000, "angular_points": 101}, False),
    ],
)
def test_profile_row_ceiling_counts_the_scenario_grid(tmp_path, make_config, sampling, accepted):
    _, cfg = make_config(tmp_path, sampling=sampling)
    if accepted:
        assert RunConfig.from_dict(cfg).echo["sampling"]["radial_points"] == sampling["radial_points"]
    else:
        with pytest.raises(ConfigError, match="profile rows"):
            RunConfig.from_dict(cfg)


def run_in_child(path: str, out, flags: str) -> tuple[int, int]:
    """Exit code and peak resident set in KiB of ``cli.run(path, <flags>,
    out_dir=out)`` in a fresh interpreter. The child reports its own
    VmHWM; its ru_maxrss would carry over the peak of the process that
    spawned it."""
    import emforms

    src = os.path.dirname(os.path.dirname(os.path.abspath(emforms.__file__)))
    child = (
        "import sys\n"
        "from emforms.cli import run\n"
        f"code = run(sys.argv[1], {flags}, out_dir=sys.argv[2])\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(code, next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", child, path, str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    code, peak_kib = map(int, result.stdout.split())
    return code, peak_kib


def test_profile_at_the_row_ceiling_stays_under_256_mb(tmp_path):
    path, _ = cylinder_config(tmp_path, sampling={"radial_points": MAX_PROFILE_ROWS})
    out = tmp_path / "out"
    code, peak_kib = run_in_child(path, out, "samples=8")
    assert code == 0
    assert peak_kib < 256 * 1024
    with open(out / "profile.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + MAX_PROFILE_ROWS


@pytest.mark.parametrize(
    "make_config, bound_mb",
    [
        # VmHWM before values were cached per batch: 102.8 MB; bound 1.25x, rounded up to 8 MB
        (cylinder_config, 136),
        # VmHWM before values were cached per batch: 84.6 MB; bound 1.25x, rounded up to 8 MB
        (sphere_config, 112),
    ],
    ids=["shell", "sphere"],
)
def test_verify_only_at_the_sample_ceiling_stays_under_its_bound(tmp_path, make_config, bound_mb):
    path, _ = make_config(tmp_path)
    code, peak_kib = run_in_child(path, tmp_path / "out", f"verify_only=True, samples={MAX_SAMPLES}")
    assert code == 0
    assert peak_kib < bound_mb * 1024


def modules_loaded_by_cli_import(package: str) -> str:
    """The modules of ``package`` that ``import emforms.cli`` loads in a
    fresh interpreter, as the text of a sorted list."""
    import emforms

    src = os.path.dirname(os.path.dirname(os.path.abspath(emforms.__file__)))
    code = f"import sys, emforms.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert modules_loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_sympy():
    # sympy serves the symbolic certificates in tests/test_symbolic.py only
    assert modules_loaded_by_cli_import("sympy") == "[]"


@BOTH_SCENARIOS
def test_determinism_byte_identical(tmp_path, make_config):
    path, _ = make_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(path, samples=8, out_dir=str(out1)) == 0
    assert run(path, samples=8, out_dir=str(out2)) == 0
    for name in ("profile.csv", "obs.json", "ver.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_verify_only_writes_verification_only(tmp_path):
    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, verify_only=True, samples=8, out_dir=str(out)) == 0
    assert (out / "ver.json").exists()
    assert not (out / "obs.json").exists()
    assert not (out / "profile.csv").exists()


def test_verification_payload(tmp_path):
    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    ver = json.loads((out / "ver.json").read_text())
    assert ver["within_tolerance"] is True
    assert ver["maxwell"]["passed"] is True
    assert {j["interface"] for j in ver["junction"]} == {"inner", "outer"}
    for rep in ver["junction"]:
        assert rep["max_rel"] <= ver["junction_tolerance_rel"]
    # the 3-vector (Gibbs) cross-check is the tests' oracle, not part of a run
    assert "junction_gibbs" not in ver


def test_tolerance_failure_exits_3_with_reports(tmp_path, monkeypatch):
    # force a failing verification to exercise the tolerance exit path
    import emforms.cli as cli_mod

    real_verify = cli_mod.verify_solution

    def failing_verify(sol, samples_per_region=200, seed=0):
        report = real_verify(sol, samples_per_region=samples_per_region, seed=seed)
        report.passed = False
        return report

    monkeypatch.setattr(cli_mod, "verify_solution", failing_verify)
    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 3
    # reports are still written on tolerance failure
    ver = json.loads((out / "ver.json").read_text())
    assert ver["within_tolerance"] is False
    assert (out / "obs.json").exists()
    assert (out / "profile.csv").exists()


def test_main_entrypoint(tmp_path, capsys):
    from emforms.cli import main

    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", path, "--samples", "8", "--out-dir", str(out)]) == 0
    assert (out / "ver.json").exists()


def test_run_config_parsing_types(tmp_path):
    path, _ = cylinder_config(tmp_path)
    cfg = load_config(path)
    assert isinstance(cfg, RunConfig)
    assert cfg.echo["scenario"] == "cylinder"
    assert cfg.scenario.r1 == 0.02
    sc = cfg.scenario
    assert sc.r2 == 0.04
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"scenario": "triangle"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {
                "scenario": "cylinder",
                "geometry": {"r1_m": "x", "r2_m": 0.04},
                "omega_rad_per_s": 1.0,
                "b0_tesla": 1.0,
                "material": {"eps_r": 2.0, "mu_r": 1.0},
            }
        )


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_outputs_are_stdlib_json_and_17g_csv(tmp_path, make_config, verify_only):
    path, _ = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, verify_only=verify_only, samples=8, out_dir=str(out)) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == (["ver.json"] if verify_only else ["obs.json", "profile.csv", "ver.json"])
    for name in written:
        text = (out / name).read_text(encoding="ascii")
        if name.endswith(".json"):
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        else:
            for line in text.splitlines()[1:]:
                for cell in line.split(","):
                    assert cell == format(float(cell), ".17g")


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_written_json_is_json_dumps_of_the_payload(tmp_path, monkeypatch, make_config, verify_only):
    # a round trip through json.loads cannot tell -0.0 written as 0.0; this compares with
    # the in-memory payloads, whose sample and residual arrays are written as their lists
    import emforms.cli as cli_mod

    written = []
    real_write = cli_mod._write_json

    def capture(path, payload):
        written.append((path, payload))
        real_write(path, payload)

    monkeypatch.setattr(cli_mod, "_write_json", capture)
    path, _ = make_config(tmp_path, outputs=WITH_SAMPLES)
    out = tmp_path / "out"
    assert run(path, verify_only=verify_only, samples=8, out_dir=str(out)) == 0
    names = [os.path.basename(p) for p, _ in written]
    assert names == (["ver.json", "samples.json"] if verify_only else ["ver.json", "samples.json", "obs.json"])
    for file_path, payload in written:
        with open(file_path, encoding="ascii") as fh:
            assert fh.read() == stdlib_json(payload) + "\n"
    samples = written[1][1]["junction"][0]["samples"]
    assert samples.shape == (8, 4) and not samples.flags.writeable


@pytest.mark.parametrize(
    "make_config, overrides",
    [
        (cylinder_config, {"b0_tesla": 0.0}),
        (cylinder_config, {"b0_tesla": 5e-324}),
        (sphere_config, {"e0_volt_per_m": 0.0}),
    ],
    ids=["b0-zero", "b0-subnormal", "e0-zero"],
)
def test_vanishing_field_scale_fails_closed(tmp_path, make_config, overrides):
    # every residual is 0 over a zero (or subnormal) field, so nothing was checked
    path, _ = make_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 3
    ver = json.loads((out / "ver.json").read_text())
    assert ver["within_tolerance"] is False
    assert ver["maxwell"]["passed"] is False
    for region in ver["maxwell"]["regions"].values():
        residuals = {key: v for key, v in region.items() if key not in FIELD_SCALE_AND_WORST_KEYS}
        assert all(v == 0.0 for v in residuals.values())
        # the written scales say why: one of them is not a positive normal float
        assert min(region["f_scale"], region["star_g_scale"]) < sys.float_info.min


def test_tiny_but_normal_field_scale_still_passes(tmp_path):
    path, _ = cylinder_config(tmp_path, b0_tesla=1e-300)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    assert json.loads((out / "ver.json").read_text())["maxwell"]["passed"] is True


@pytest.mark.parametrize(
    "make_config, most", [(cylinder_config, 18), (sphere_config, 80)], ids=["cylinder", "sphere"]
)
def test_derivative_passes_per_run_stay_pruned(tmp_path, monkeypatch, make_config, most):
    # one dual pass per walk of a partial-derivative closure; a derivative along
    # an axis no field reads is a structural zero and costs none
    from emforms import dual

    passes = []
    fresh_tag = dual.fresh_tag
    monkeypatch.setattr(dual, "fresh_tag", lambda: passes.append(None) or fresh_tag())
    path, _ = make_config(tmp_path)
    assert run(path, samples=8, out_dir=str(tmp_path / "out")) == 0
    assert 0 < len(passes) <= most


def test_sphere_tiny_drive_reaches_verification(tmp_path, capsys):
    # matched at unit drive: K1's column unit e0/c^2 would be subnormal at e0 = 1e-300
    path, _ = sphere_config(tmp_path, eps_r=4.0, mu_r=2.0, e0_volt_per_m=1e-300)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 3
    assert capsys.readouterr().err == ""
    maxwell = json.loads((out / "ver.json").read_text())["maxwell"]
    assert maxwell["passed"] is False
    # every residual is within tolerance: the verdict comes from the vanishing
    # field scale, max |star G| being subnormal
    for region in maxwell["regions"].values():
        assert region["df_max_rel"] <= maxwell["tolerance_f"]
        assert region["dstar_g_max_rel"] <= maxwell["tolerance_g"]
        assert 0.0 < region["dstar_g_max_abs"] < sys.float_info.min


def test_sphere_small_normal_drive_still_passes(tmp_path):
    path, _ = sphere_config(tmp_path, eps_r=4.0, mu_r=2.0, e0_volt_per_m=1e-285)
    assert run(path, samples=8, out_dir=str(tmp_path / "out")) == 0


@pytest.mark.parametrize("omega", [1e-200, 1e-300, 5e-324])
def test_slowly_rotating_sphere_writes_the_reports_of_a_static_one(tmp_path, capsys, omega):
    # the match runs at the probe rate, not at omega, whose columns would
    # underflow; beta^2 underflows to 0, so no residual is divided by it
    written = {}
    for rate in (0.0, omega):
        path, _ = sphere_config(tmp_path, eps_r=4.0, mu_r=2.0, omega_rad_per_s=rate)
        out = tmp_path / f"out-{rate!r}"
        assert run(path, samples=8, out_dir=str(out)) == 0
        written[rate] = [json.loads((out / name).read_text()) for name in ("ver.json", "obs.json")]
        assert (out / "profile.csv").stat().st_size > 0
    assert capsys.readouterr().err == ""
    (static_ver, static_obs), (ver, obs) = written[0.0], written[omega]
    assert obs["matching_constants"] == static_obs["matching_constants"]
    assert ver["maxwell"]["regions"].keys() == static_ver["maxwell"]["regions"].keys()
    for name, region in ver["maxwell"]["regions"].items():
        assert region.keys() == static_ver["maxwell"]["regions"][name].keys()
        assert "dstar_g_rel_over_eps2" not in region


def test_slowly_rotating_shell_writes_a_finite_exact_voltage(tmp_path, capsys):
    # at 1e-300 rad/s, (omega / c)^2 underflows to 0 and c^2 / omega overflows
    path, _ = cylinder_config(tmp_path, omega_rad_per_s=1e-300, material={"eps_r": 6.0, "mu_r": 2.0})
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    assert capsys.readouterr().err == ""
    obs = json.loads((out / "obs.json").read_text())
    assert obs["v12_exact_volts"] == pytest.approx(obs["v12_leading_volts"], rel=4e-16)
    assert obs["v12_leading_volts"] == pytest.approx(1.1e-303, rel=1e-15)


def test_overflowing_closed_form_constant_exits_2(tmp_path, capsys):
    # C2 = c^3 B0 omega (eps_r mu_r - 1) / eps_r overflows while every matching row stays finite
    path, _ = cylinder_config(tmp_path, b0_tesla=1e290, omega_rad_per_s=1e9)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 2
    assert "closed-form C2 = inf is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, code, stderr",
    [
        ({"b0_tesla": 1e305}, 2, "error: junction system has non-finite entries\n"),
        # products with 1 / mu_r = 1e300 overflow: the medium's residuals read
        # NaN, and the profile, computed after the solve, overflows too
        ({"material": {"eps_r": 6.0, "mu_r": 1e-300}}, 3, ""),
    ],
    ids=["drive-1e305-exits-2", "mu_r-1e-300-exits-3"],
)
def test_numpy_overflow_prints_no_warning(tmp_path, overrides, code, stderr):
    import emforms

    src = os.path.dirname(os.path.dirname(os.path.abspath(emforms.__file__)))
    path, _ = cylinder_config(tmp_path, **overrides)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "emforms.cli", "run", path, "--samples", "8", "--out-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == code
    assert result.stderr == stderr
    # a config error writes nothing; a tolerance failure writes every report
    written = sorted(os.listdir(out)) if out.exists() else []
    assert written == ([] if code == 2 else ["obs.json", "profile.csv", "ver.json"])


@pytest.mark.parametrize(
    "outputs, message",
    [
        (
            {"profile_csv": "same.json", "observables_json": "same.json", "verification_json": "same.json"},
            "outputs.profile_csv and outputs.observables_json both name 'same.json'",
        ),
        ({"observables_json": "obs.json", "verification_json": "./obs.json"}, "both name 'obs.json'"),
        ({"profile_csv": "p.csv", "observables_json": "a/../p.csv"}, "both name 'p.csv'"),
        ({"profile_csv": ""}, "outputs.profile_csv must be a non-empty string, got ''"),
        ({"profile_csv": 5, "observables_json": None}, "outputs.profile_csv must be a non-empty string, got 5"),
        ({"observables_json": None}, "outputs.observables_json must be a non-empty string, got None"),
        ({"samples_json": ""}, "outputs.samples_json must be a non-empty string, got ''"),
        ({"samples_json": None}, "outputs.samples_json must be a non-empty string, got None"),
        ({"verification_json": "ver.json", "samples_json": "./ver.json"}, "both name 'ver.json'"),
        # the NUL and the lone surrogate once failed with a traceback after two reports were written
        ({"profile_csv": "a\0b.csv"}, "outputs.profile_csv must not hold a NUL character, got 'a\\x00b.csv'"),
        ({"verification_json": "v\0.json"}, "outputs.verification_json must not hold a NUL character"),
        ({"profile_csv": "\ud800.csv"}, "outputs.profile_csv is not encodable as a file name, got '\\ud800.csv'"),
    ],
    ids=[
        "all-same", "dot-slash", "dot-dot", "empty", "number", "null", "samples-empty", "samples-null", "samples-same",
        "nul", "nul-verification", "surrogate",
    ],
)
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_bad_output_names_exit_2_without_outputs(tmp_path, capsys, outputs, message, verify_only):
    path, _ = cylinder_config(tmp_path, outputs=outputs)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out), verify_only=verify_only) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "shape, message",
    [
        ("up-and-back", "outputs.profile_csv and outputs.verification_json both name 'ver.json'"),
        ("absolute-no-out-dir", "outputs.profile_csv and outputs.verification_json both name 'v2.json'"),
        ("absolute-in-out-dir", "outputs.observables_json and outputs.verification_json both name 'v.json'"),
    ],
    ids=["up-and-back", "absolute-no-out-dir", "absolute-in-out-dir"],
)
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_two_names_for_one_file_once_resolved_exit_2_without_outputs(
    tmp_path, monkeypatch, capsys, shape, message, verify_only
):
    # names that differ as text but denote one file once joined to the output directory
    monkeypatch.chdir(tmp_path)
    out_dir, outputs = {
        "up-and-back": ("out", {"verification_json": "ver.json", "profile_csv": "../out/ver.json"}),
        "absolute-no-out-dir": (None, {"verification_json": str(tmp_path / "v2.json"), "profile_csv": "v2.json"}),
        "absolute-in-out-dir": (
            "out",
            {"verification_json": str(tmp_path / "out" / "v.json"), "observables_json": "v.json"},
        ),
    }[shape]
    path, _ = cylinder_config(tmp_path, outputs=outputs)
    assert run(path, samples=8, out_dir=out_dir, verify_only=verify_only) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["config.json"]


def test_range_error_and_warning_print_before_a_name_collision(tmp_path, capsys):
    same = {"observables_json": "obs.json", "verification_json": "./obs.json"}
    path, _ = cylinder_config(tmp_path, geometry={"r1_m": 0.04, "r2_m": 0.02}, outputs=same)
    assert run(path, samples=8, out_dir=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "error: need 0 < r1 < r2, got r1=0.04, r2=0.02\n"
    # rim speed 0.2 c: the config's warning prints ahead of the collision
    path, _ = sphere_config(tmp_path, omega_rad_per_s=0.2 * 299792458.0 / 0.05, outputs=same)
    assert run(path, samples=8, out_dir=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "warning: rim speed above 0.1 c: the first-order solution degrades\n"
        "error: outputs.observables_json and outputs.verification_json both name 'obs.json'\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_value_error_after_the_config_exits_2_with_one_line(tmp_path, monkeypatch, capsys, verify_only):
    import emforms.cli as cli_mod
    from emforms.spacetime import LightConeError

    def guard(*args, **kwargs):
        raise LightConeError("event outside the light cylinder")

    monkeypatch.setattr(cli_mod, "verify_solution", guard)
    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out), verify_only=verify_only) == 2
    assert capsys.readouterr().err == "error: event outside the light cylinder\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b"\xff\xfe" + '{"scenario": "cylinder"}'.encode("utf-16-le"), "'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["deep", "utf-16"],
)
def test_unreadable_config_text_exits_2_naming_the_file(tmp_path, capsys, data, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    out = tmp_path / "out"
    assert run(str(bad), samples=8, out_dir=str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {bad} is not valid JSON: {reason}") and err.count("\n") == 1
    assert not out.exists()


# one ulp below c / 0.05 m, c*c - (r*r)*(omega*omega) rounds to 0.0 at r = 0.05 m
RIM_ULP = math.nextafter(299792458.0 / 0.05, 0.0)


@pytest.mark.parametrize(
    "make_config, overrides, samples",
    [
        (cylinder_config, {"geometry": {"r1_m": 0.02, "r2_m": 0.05}}, 8),
        # a sampled event sits at theta = pi/2, on the rim
        (sphere_config, {"eps_r": 4.0, "mu_r": 2.0}, 14),
    ],
    ids=["cylinder", "sphere"],
)
def test_rim_speed_one_ulp_below_c_exits_2(tmp_path, capsys, make_config, overrides, samples):
    path, _ = make_config(tmp_path, omega_rad_per_s=RIM_ULP, **overrides)
    out = tmp_path / "out"
    assert run(path, samples=samples, out_dir=str(out)) == 2
    assert capsys.readouterr().err == f"error: rim speed {RIM_ULP * 0.05:.3e} m/s reaches light speed\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "make_config, overrides, code",
    [(cylinder_config, {}, 3), (sphere_config, {"geometry": {"a_m": 0.04}, "eps_r": 4.0, "mu_r": 2.0}, 0)],
    ids=["cylinder", "sphere"],
)
def test_rim_speed_one_ulp_below_c_at_0_04_m_keeps_its_verdict(tmp_path, make_config, overrides, code):
    # there c*c - (r*r)*(omega*omega) is 16.0, which the light-speed guard accepts
    omega = math.nextafter(299792458.0 / 0.04, 0.0)
    path, _ = make_config(tmp_path, omega_rad_per_s=omega, **overrides)
    out = tmp_path / "out"
    assert run(path, samples=14, out_dir=str(out)) == code
    assert sorted(p.name for p in out.iterdir()) == ["obs.json", "profile.csv", "ver.json"]


@pytest.mark.parametrize(
    "make_config, geometry, code",
    [
        (cylinder_config, {"r1_m": 1e-14, "r2_m": 2e-14}, 2),
        (cylinder_config, {"r1_m": 1.9e-14, "r2_m": 3.8e-14}, 2),
        # the inner vacuum box starts at r = 1e-15 m, where r*r is the floor itself
        (cylinder_config, {"r1_m": 2e-14, "r2_m": 4e-14}, 0),
        (sphere_config, {"a_m": 1e-13}, 2),
        (sphere_config, {"a_m": 3e-13}, 0),
    ],
    ids=["shell-1e-14", "shell-1.9e-14", "shell-2e-14", "sphere-1e-13", "sphere-3e-13"],
)
def test_metric_floor_verdict_is_the_same_at_every_seed(tmp_path, capsys, make_config, geometry, code):
    # the sampling boxes reach r = 0.05 r1 (0.05 a); a geometry whose box
    # corner is below the metric floor is rejected before any seed is drawn
    path, _ = make_config(tmp_path, geometry=geometry)
    key = next(iter(geometry))
    for seed in range(20):
        out = tmp_path / f"out{seed}"
        assert run(path, verify_only=True, samples=64, seed=seed, out_dir=str(out)) == code, seed
        err = capsys.readouterr().err
        if code:
            assert err.startswith(f"error: geometry.{key}: ") and err.count("\n") == 1
            assert "metric floor" in err
            assert not out.exists()
        else:
            assert err == ""


def test_dot_dot_output_name_is_written_at_its_normalised_path(tmp_path):
    # no directory "a" exists under the output directory; the name still
    # resolves to out/ver.json, as output-name validation reads it
    path, _ = cylinder_config(tmp_path, outputs={"verification_json": "a/../ver.json"})
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "observables.json",
        "profile.csv",
        "ver.json",
    ]


def test_distinct_output_names_in_a_subdirectory_are_accepted(tmp_path):
    outputs = {"profile_csv": "p/profile.csv", "observables_json": "p/obs.json", "verification_json": "ver.json"}
    path, _ = cylinder_config(tmp_path, outputs=outputs)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()) == [
        "p/obs.json",
        "p/profile.csv",
        "ver.json",
    ]


# -- verification summary, opt-in samples file, provenance -------------------


def junction_reports(monkeypatch):
    """The covariant reports that ``cli.run`` builds, in order, under the
    key that both output files give them."""
    import emforms.cli as cli_mod

    reports = {"junction": []}
    real = cli_mod.covariant_jump_residual

    def spy(*args):
        reports["junction"].append(real(*args))
        return reports["junction"][-1]

    monkeypatch.setattr(cli_mod, "covariant_jump_residual", spy)
    return reports


def float_texts(text):
    """A JSON document with every number and NaN/Infinity token kept as its text."""
    return json.loads(text, parse_float=str, parse_int=str, parse_constant=str)


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_samples_file_holds_the_arrays_verification_json_held(tmp_path, monkeypatch, make_config, verify_only):
    # each report's arrays as verification.json wrote them before they moved:
    # the stdlib json text of the lists, compared number by number as text
    reports = junction_reports(monkeypatch)
    path, _ = make_config(tmp_path, outputs=WITH_SAMPLES)
    out = tmp_path / "out"
    assert run(path, verify_only=verify_only, samples=8, out_dir=str(out)) == 0
    expected = {
        key: [
            {
                "interface": rep.interface,
                "samples": rep.samples.tolist(),
                "residuals": {name: v.tolist() for name, v in rep.residuals.items()},
                "residuals_rel": {name: v.tolist() for name, v in rep.residuals_rel.items()},
            }
            for rep in reps
        ]
        for key, reps in reports.items()
    }
    written = float_texts((out / "samples.json").read_text())
    assert written == float_texts(json.dumps(expected))
    assert [len(entry["samples"]) for entry in written["junction"]] == [8] * len(reports["junction"])
    # the summaries in verification.json are those of the same reports
    ver = json.loads((out / "ver.json").read_text())
    assert "junction_gibbs" not in ver and "junction_gibbs" not in written
    for key, reps in reports.items():
        for entry, rep in zip(ver[key], reps, strict=True):
            assert entry["count"] == 8
            assert entry["max_rel"] == rep.max_rel == max(entry["condition_max_rel"].values())
            assert entry["max_abs"] == rep.max_abs == max(entry["condition_max_abs"].values())
            assert entry["worst"]["rel"] == entry["max_rel"]
            assert entry["worst"]["event"] in rep.samples.tolist()


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_a_run_builds_one_chart_and_each_interface_once(tmp_path, monkeypatch, make_config, verify_only):
    # the scenario builds its chart and interfaces on first use and the
    # matcher, the solution, the profile and the junction checks all read them
    import emforms.cli as cli_mod
    from emforms import cylinder, sphere
    from emforms.junction import Interface

    charts, interfaces, solved, checked = [], [], [], []
    for module, name in ((cylinder, "cylindrical_chart"), (sphere, "spherical_chart")):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda c, build=build: charts.append(build(c)) or charts[-1])
    post_init = Interface.__post_init__
    monkeypatch.setattr(Interface, "__post_init__", lambda iface: interfaces.append(iface) or post_init(iface))
    for cls in (cylinder.CylinderScenario, sphere.SphereScenario):
        solve = vars(cls)["solution"].func
        solution = property(lambda sc, solve=solve: solved.append((sc, *solve(sc))) or solved[-1][1:])
        monkeypatch.setattr(cls, "solution", solution)
    covariant = cli_mod.covariant_jump_residual
    monkeypatch.setattr(cli_mod, "covariant_jump_residual", lambda *args: checked.append(args[1]) or covariant(*args))
    path, _ = make_config(tmp_path)
    assert run(path, verify_only=verify_only, samples=8, out_dir=str(tmp_path / "out")) == 0
    ((sc, sol, _),) = solved
    assert len(charts) == 1 and sol.chart is sc.chart is charts[0]
    assert sol.interfaces is sc.interfaces
    assert interfaces == checked == list(sc.interfaces)


@BOTH_SCENARIOS
def test_the_matcher_and_the_checks_draw_through_interface_events(tmp_path, monkeypatch, make_config):
    # a cold run draws each interface's match events and check events by the
    # one Interface.events, and the samples file holds the check events
    from emforms.junction import Interface
    from emforms.solutions import MATCH_SAMPLES

    calls = []
    draw = Interface.events

    def spy(iface, n, seed):
        calls.append((iface, n, seed))
        return draw(iface, n, seed)

    monkeypatch.setattr(Interface, "events", spy)
    path, _ = make_config(tmp_path, outputs=WITH_SAMPLES)
    assert run(path, samples=8, seed=11, out_dir=str(tmp_path / "out")) == 0
    (sc,) = cli_module._kept_scenario.values()
    matched = [(iface, MATCH_SAMPLES, 0) for iface in sc.interfaces]
    assert calls == matched + [(iface, 8, 11) for iface in sc.interfaces]
    written = json.loads((tmp_path / "out" / "samples.json").read_text())
    for entry, iface in zip(written["junction"], sc.interfaces, strict=True):
        assert entry["interface"] == iface.name
        assert np.array_equal(entry["samples"], draw(iface, 8, 11))


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_a_run_of_another_config_frees_the_last_scenario_without_the_cycle_collector(
    tmp_path, make_config, verify_only
):
    # the kept scenario is replaced; its solution and its interfaces, whose
    # sampling grids hold numbers and not the scenario, go with it at once
    path, _ = make_config(tmp_path)
    (tmp_path / "other").mkdir()
    other, _ = make_config(tmp_path / "other", omega_rad_per_s=50.0)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert run(path, verify_only=verify_only, samples=8, out_dir=str(tmp_path / "a")) == 0
        (sc,) = cli_module._kept_scenario.values()
        refs = [weakref.ref(sc), weakref.ref(sc.solution[0]), weakref.ref(sc.interfaces[0])]
        del sc
        assert run(other, verify_only=verify_only, samples=8, out_dir=str(tmp_path / "b")) == 0
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def run_outputs(path, out_dir, **kwargs):
    """The exit code of one run, and every file it wrote under ``out_dir``."""
    code = run(path, out_dir=str(out_dir), **kwargs)
    return code, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}


@pytest.mark.parametrize(
    "make_config, overrides, verify_only, stderr",
    [
        (cylinder_config, {}, False, ""),
        (cylinder_config, {}, True, ""),
        (
            sphere_config,
            {"omega_rad_per_s": 0.2 * 299792458.0 / 0.05},
            False,
            "warning: rim speed above 0.1 c: the first-order solution degrades\n",
        ),
    ],
    ids=["cylinder-full", "cylinder-verify-only", "sphere-rim-0.2c"],
)
def test_a_second_run_in_one_process_writes_what_the_first_wrote(
    tmp_path, capsys, make_config, overrides, verify_only, stderr
):
    # the second run reuses the first run's solution; the config is still
    # validated and the scenario built, so its warning prints again
    path, _ = make_config(tmp_path, **overrides)
    first = run_outputs(path, tmp_path / "a", verify_only=verify_only, samples=8)
    assert capsys.readouterr().err == stderr
    assert run_outputs(path, tmp_path / "b", verify_only=verify_only, samples=8) == first
    assert capsys.readouterr().err == stderr
    assert first[0] == 0 and len(first[1]) == (1 if verify_only else 3)


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)], ids=["zero-first", "minus-zero-first"])
def test_a_shell_at_minus_zero_omega_is_not_the_shell_at_zero(tmp_path, order):
    # the two scenarios compare equal, but a kept scenario is reused only for
    # an equal repr, so each run writes what it writes in a process of its own
    dirs = [tmp_path / repr(omega) for omega in order]
    paths = []
    for directory, omega in zip(dirs, order):
        directory.mkdir()
        paths.append(cylinder_config(directory, omega_rad_per_s=omega)[0])
    alone = []
    for directory, path in zip(dirs, paths):
        cli_module._kept_scenario.clear()  # as in a process of its own
        alone.append(run_outputs(path, directory / "alone", samples=8))
    cli_module._kept_scenario.clear()
    together = [run_outputs(path, directory / "together", samples=8) for directory, path in zip(dirs, paths)]
    assert together == alone
    c2 = [json.loads(files["obs.json"])["matching_constants"]["C2"] for _, files in alone]
    assert [math.copysign(1.0, x) for x in c2] == [math.copysign(1.0, omega) for omega in order]


def test_a_config_whose_solve_raises_fails_the_same_way_on_every_run(tmp_path, capsys):
    # a failed solve is not kept: the next run solves again and fails again
    path, _ = cylinder_config(tmp_path, b0_tesla=1e300)
    for _ in range(2):
        assert run(path, samples=8, out_dir=str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: junction system has non-finite entries\n"
    assert not (tmp_path / "out").exists()


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_a_second_run_of_one_config_builds_no_chart_and_solves_nothing(
    tmp_path, monkeypatch, make_config, verify_only
):
    from emforms import cylinder, sphere

    built = []
    for module, name in (
        (cylinder, "cylindrical_chart"),
        (sphere, "spherical_chart"),
        (cylinder, "solve_cylinder"),
        (sphere, "solve_sphere"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, f=original: built.append(name) or f(*args))
    path, _ = make_config(tmp_path)
    assert run(path, verify_only=verify_only, samples=8, seed=1, out_dir=str(tmp_path / "a")) == 0
    first = list(built)
    assert len(first) == 2
    assert run(path, verify_only=verify_only, samples=8, seed=2, out_dir=str(tmp_path / "b")) == 0
    assert built == first


@BOTH_SCENARIOS
@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_a_second_run_at_a_new_seed_writes_what_a_cold_run_writes(tmp_path, monkeypatch, make_config, verify_only):
    # the checks of the second run evaluate the forms that the first built
    # and kept with the solution, and build none; only the profile builds its
    # own. A cold run, with nothing kept, builds the checks' forms too.
    from emforms.forms import DifferentialForm

    path, _ = make_config(tmp_path, outputs=WITH_SAMPLES)
    assert run(path, verify_only=verify_only, samples=8, seed=3, out_dir=str(tmp_path / "first")) == 0
    built, checking = {True: [], False: []}, [False]
    post_init = DifferentialForm.__post_init__
    monkeypatch.setattr(DifferentialForm, "__post_init__", lambda form: built[checking[0]].append(form) or post_init(form))
    for name in ("verify_solution", "covariant_jump_residual"):
        check = getattr(cli_module, name)

        def spy(*args, check=check, **kwargs):
            checking[0] = True
            try:
                return check(*args, **kwargs)
            finally:
                checking[0] = False

        monkeypatch.setattr(cli_module, name, spy)
    warm = run_outputs(path, tmp_path / "warm", verify_only=verify_only, samples=8, seed=11)
    assert built[True] == []
    assert (built[False] == []) == verify_only
    cli_module._kept_scenario.clear()
    cold = run_outputs(path, tmp_path / "cold", verify_only=verify_only, samples=8, seed=11)
    assert built[True]
    assert warm == cold
    assert warm[0] == 0 and len(warm[1]) == (2 if verify_only else 4)


def test_the_report_names_the_seed_its_events_were_drawn_with(tmp_path):
    path, cfg = cylinder_config(tmp_path)
    assert cfg["sampling"]["seed"] == 3
    assert run(path, samples=8, seed=11, out_dir=str(tmp_path / "out")) == 0
    for name in ("ver.json", "obs.json"):
        assert json.loads((tmp_path / "out" / name).read_text())["config"]["sampling"]["seed"] == 11


def rederived_within_tolerance(ver: dict) -> bool:
    """The gate, from the written verification summary alone."""
    maxwell, tol = ver["maxwell"], ver["junction_tolerance_rel"]
    regions_ok = all(
        region["df_max_rel"] <= maxwell["tolerance_f"]
        and region["dstar_g_max_rel"] <= tol
        and all(sys.float_info.min <= region[key] <= sys.float_info.max for key in ("f_scale", "star_g_scale"))
        for region in maxwell["regions"].values()
    )
    return regions_ok and all(entry["max_rel"] <= tol for entry in ver["junction"])


# a sweep sphere (seed 7) whose covariant junction residual exceeds its gate
# while every Maxwell region passes
JUNCTION_FAILS = {
    "geometry": {"a_m": 0.29889005112896155},
    "omega_rad_per_s": 49255612.78295282,
    "e0_volt_per_m": 62733.27851099963,
    "material": {"eps_r": 9.979579345813026, "mu_r": 0.9422559109723785},
    "sampling": {"radial_points": 4, "angular_points": 4, "seed": 200456201},
}


@pytest.mark.parametrize(
    "make_config, overrides, code",
    [
        (cylinder_config, {}, 0),
        (sphere_config, {}, 0),
        (cylinder_config, {"b0_tesla": 0.0}, 3),
        (cylinder_config, {"b0_tesla": 5e-324}, 3),
        (sphere_config, {"e0_volt_per_m": 0.0}, 3),
        (sphere_config, {"e0_volt_per_m": 1e-300}, 3),
        (sphere_config, JUNCTION_FAILS, 3),
    ],
    ids=["cylinder", "sphere", "b0-zero", "b0-subnormal", "e0-zero", "e0-tiny", "junction-fails"],
)
def test_within_tolerance_is_rederived_from_the_default_file(tmp_path, make_config, overrides, code):
    path, _ = make_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == code
    ver = json.loads((out / "ver.json").read_text())
    assert ver["within_tolerance"] is (code == 0)
    assert rederived_within_tolerance(ver) is ver["within_tolerance"]
    if overrides is JUNCTION_FAILS:
        assert ver["maxwell"]["passed"] is True


C = 299792458.0


@pytest.mark.parametrize(
    "make_config, overrides, floored",
    [
        (cylinder_config, {}, True),
        (sphere_config, {}, True),  # beta = 3.3e-8
        (sphere_config, {"omega_rad_per_s": 0.0}, True),
        (sphere_config, {"omega_rad_per_s": 1e-6 * C / 0.05}, True),
        (sphere_config, {"omega_rad_per_s": 0.01 * C / 0.05}, False),
    ],
    ids=["cylinder", "sphere", "sphere-omega-zero", "sphere-beta-1e-6", "sphere-beta-0.01"],
)
def test_tolerance_g_is_the_gate_applied_to_dstar_g(tmp_path, make_config, overrides, floored):
    path, _ = make_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert run(path, verify_only=True, samples=8, out_dir=str(out)) == 0
    ver = json.loads((out / "ver.json").read_text())
    assert ver["maxwell"]["tolerance_g"] == ver["junction_tolerance_rel"]
    # below beta = 3.2e-6 the first-order gate K beta^2 is under the floor
    assert (ver["maxwell"]["tolerance_g"] == 1e-10) is floored


def test_duplicate_heavy_samples_file_is_its_stdlib_json_text(tmp_path, monkeypatch):
    # one interface radius in every sample, the t = 0 grid and repeated
    # residuals: each value is formatted where it occurs, not once per file
    import emforms.cli as cli_mod

    written = {}
    real_write = cli_mod._write_json

    def capture(path, payload):
        written[os.path.basename(path)] = payload
        real_write(path, payload)

    monkeypatch.setattr(cli_mod, "_write_json", capture)
    path, _ = cylinder_config(tmp_path, outputs=WITH_SAMPLES)
    out = tmp_path / "out"
    assert run(path, verify_only=True, samples=64, out_dir=str(out)) == 0
    payload = written["samples.json"]
    assert list(payload) == ["junction"]
    values = [
        v
        for entry in payload["junction"]
        for arr in (entry["samples"], *entry["residuals"].values(), *entry["residuals_rel"].values())
        for v in arr.ravel().tolist()
    ]
    assert len(set(values)) < len(values) // 4
    assert (out / "samples.json").read_text(encoding="ascii") == stdlib_json(payload) + "\n"


def test_default_shell_verification_file_is_a_summary(tmp_path):
    path, _ = cylinder_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, verify_only=True, samples=512, out_dir=str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == ["ver.json"]
    assert (out / "ver.json").stat().st_size < 16_000
    assert "samples_json" not in json.loads((out / "ver.json").read_text())["config"]["outputs"]


@BOTH_SCENARIOS
def test_samples_file_is_byte_identical_on_rerun(tmp_path, make_config):
    path, cfg = make_config(tmp_path, outputs=WITH_SAMPLES)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(path, samples=8, out_dir=str(out1)) == 0
    assert run(path, samples=8, out_dir=str(out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["obs.json", "profile.csv", "samples.json", "ver.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert json.loads((out1 / "ver.json").read_text())["config"] == cfg


@BOTH_SCENARIOS
def test_provenance_names_the_versions_and_the_config_digest(tmp_path, make_config):
    import hashlib

    import numpy as np

    import emforms

    path, _ = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    ver = json.loads((out / "ver.json").read_text())
    echo_text = json.dumps(ver["config"], indent=2, sort_keys=True)
    assert ver["provenance"] == {
        "emforms": emforms.__version__,
        "numpy": np.__version__,
        "config_sha256": hashlib.sha256(echo_text.encode("ascii")).hexdigest(),
    }


def test_fast_sphere_prints_one_stable_warning_line(tmp_path):
    import emforms

    src = os.path.dirname(os.path.dirname(os.path.abspath(emforms.__file__)))
    # rim speed 0.2 c
    path, _ = sphere_config(tmp_path, eps_r=4.0, mu_r=2.0, omega_rad_per_s=0.2 * 299792458.0 / 0.05)
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "emforms.cli", "run", path, "--samples", "8", "--out-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stderr == "warning: rim speed above 0.1 c: the first-order solution degrades\n"
