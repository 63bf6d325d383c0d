"""Regression tests for CLI exit paths and warning locations."""

import json
import math
import os

import pytest

from emforms.cli import EXIT_CONFIG, EXIT_OUTPUT, run
from emforms.media import MaterialParams
from emforms.sphere import SphereScenario


def write_config(tmp_path, r1, r2, omega=100.0):
    cfg = {
        "scenario": "cylinder",
        "geometry": {"r1_m": r1, "r2_m": r2},
        "omega_rad_per_s": omega,
        "b0_tesla": 1.0,
        "material": {"eps_r": 6.0, "mu_r": 1.0},
        "sampling": {"radial_points": 8, "angular_points": 4, "seed": 0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


# 1e-14 m degenerates the metric in the Maxwell verification, whose 64
# inner-vacuum samples reach down to r = 0.05 r1; 1e-16 m already in the
# junction match.
@pytest.mark.parametrize("r1, r2", [(1e-14, 2e-14), (1e-16, 2e-16)])
def test_degenerate_tiny_geometry_exits_2_without_outputs(tmp_path, capsys, r1, r2):
    out = tmp_path / "out"
    assert run(write_config(tmp_path, r1, r2), out_dir=str(out)) == EXIT_CONFIG
    assert "metric" in capsys.readouterr().err
    assert not out.exists()


def test_profile_reaches_past_the_light_cylinder(tmp_path):
    # rim speed 0.9 c: the profile's outer rows at up to 1.5 r2 lie beyond
    # the light cylinder, where only the exterior fields are defined
    r2 = 0.04
    config = write_config(tmp_path, 0.02, r2, omega=0.9 * MaterialParams.vacuum().c / r2)
    assert run(config, out_dir=str(tmp_path), samples=4) == 0
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 8 and rows[-1][0] == 1.5 * r2
    assert all(math.isfinite(x) for row in rows for x in row)


def test_unwritable_output_dir_exits_4(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / "sub"
    code = run(write_config(tmp_path, 0.02, 0.04), out_dir=str(out), samples=4, verify_only=True)
    assert code == EXIT_OUTPUT == 4
    err = capsys.readouterr().err
    assert os.path.join(str(out), "verification.json") in err
    assert "Not a directory" in err or "not a directory" in err.lower()


def test_rim_speed_warning_points_at_the_caller():
    mat = MaterialParams(4.0, 2.0)
    with pytest.warns(UserWarning, match="rim speed") as record:
        SphereScenario(a=0.05, omega=0.2 * mat.c / 0.05, e0=1000.0, mat=mat)
    assert record[0].filename == __file__


def test_verify_solution_builds_each_star_g_once(monkeypatch):
    import emforms.solutions as solutions
    from emforms.cylinder import CylinderScenario, solve_cylinder

    sc = CylinderScenario(r1=0.02, r2=0.04, omega=100.0, b0=1.0, mat=MaterialParams(eps_r=6.0, mu_r=2.0))
    sol, _ = solve_cylinder(sc)
    built = []
    hodge_star = solutions.hodge_star
    monkeypatch.setattr(solutions, "hodge_star", lambda g, form: built.append(form) or hodge_star(g, form))
    report = solutions.verify_solution(sol, samples_per_region=4)
    assert report.passed
    assert built == [sol.g_in, sol.g_out]  # one star G per side


@pytest.mark.parametrize("verify_only", [False, True], ids=["full", "verify-only"])
def test_a_shell_run_dualizes_each_g_once_for_its_checks(tmp_path, monkeypatch, verify_only):
    # the Maxwell check and both junction checks read the star G of each side
    # that the solution keeps; the second run, which reuses the solution,
    # dualizes nothing. The profile's lab-frame decomposition takes its own
    # dual of G, in media.decompose.
    import sys

    from emforms import cli, forms

    dualized = []
    hodge_star = forms.hodge_star
    for name, module in list(sys.modules.items()):
        if name.startswith("emforms.") and name != "emforms.media" and vars(module).get("hodge_star") is hodge_star:
            monkeypatch.setattr(module, "hodge_star", lambda g, form: dualized.append(form) or hodge_star(g, form))
    path = write_config(tmp_path, 0.02, 0.04)
    for seed in (1, 2):
        assert run(path, verify_only=verify_only, samples=4, seed=seed, out_dir=str(tmp_path / "out")) == 0
    (sc,) = cli._kept_scenario.values()
    sol, _ = sc.solution
    assert [form for form in dualized if form in (sol.g_in, sol.g_out)] == [sol.g_in, sol.g_out]


def test_every_exported_name_resolves():
    import emforms

    assert [name for name in emforms.__all__ if not hasattr(emforms, name)] == []
