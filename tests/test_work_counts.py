"""Ceilings on the Python-level work of one CLI run.

One ``cli.run`` of the shell and of the sphere config of ``test_cli`` at
``--samples 8``, full and ``--verify-only``, is counted under
``sys.setprofile`` twice: a first run, after a run of the other scenario,
which solves the scenario, and a second run of the same config, which
reuses the scenario and its solution. Each counts every Python frame
entered, the ``first_bad_event`` guards among them, the derivative passes
(``dual.fresh_tag`` calls), the generator expressions of ``forms.py`` and
the forms built (``DifferentialForm.__post_init__`` frames). The ceilings
sit about 10 % above the counts of the code as it stands, so that a change
which brings per-evaluation bookkeeping back into the form algebra, a
junction match back into a run (the solvers build from the closed forms;
a match adds about 650 calls, 3 passes and 18 forms to a cold shell run),
one assembly per matched amplitude into the junction matcher, which the
tests call directly and count on their own,
a solve back into a second run of one config, a check form (star G, dF,
d star G or a junction wedge) rebuilt in a second run of one config, a
second chart or a rebuilt interface (a second Hodge table, a second dPhi)
back into a run, a potential differentiated back into a run (the sphere's
F is written from its components; as d of its potentials it adds 13
passes and about 250 calls to a second full sphere run), a lab-frame
excitation decomposed where the profile reads only e and b, a Hodge
coefficient that recomputes sqrt(|det g|) or its guard (one volume node
per metric serves every coefficient; a guard per coefficient adds 4
guards to a second shell ``--verify-only`` run), or the
3-vector junction check or a lab-frame decomposition back into a
``--verify-only`` run, fails here, not only in the benchmark. Counts that fall far below a ceiling are a cue to lower it.
"""

import os
import sys
from collections import Counter

import pytest

from emforms import dual, forms
from emforms.cli import run
from test_cli import cylinder_config, sphere_config

FORMS_PY = forms.__file__
DUAL_PY = dual.__file__
FORM_INIT = forms.DifferentialForm.__post_init__.__code__


def count_frames(fn) -> Counter:
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts["calls"] += 1
            if code is FORM_INIT:
                counts["forms"] += 1
            elif code.co_name == "first_bad_event":
                counts["first_bad_event"] += 1
            elif code.co_name == "fresh_tag" and code.co_filename == DUAL_PY:
                counts["passes"] += 1
            elif code.co_name == "<genexpr>" and code.co_filename == FORMS_PY:
                counts["forms_genexpr"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return counts


# the config whose run pays the one-time costs (lazy imports, cached tables)
# before a config of the other scenario is counted, so that the counted run
# solves its scenario
OTHER_SCENARIO = {cylinder_config: sphere_config, sphere_config: cylinder_config}


@pytest.mark.parametrize(
    "make_config, verify_only, cold, warm",
    [
        # counts of the code as it stands: 2459 calls, 15 guards, 4 passes,
        # 15 generator frames, 48 forms; a second run: 1768 calls, 15
        # guards, 4 passes, 18 forms (the profile's decompositions, G's with
        # the kept star G, and bound sources)
        (
            cylinder_config,
            False,
            {"calls": 2700, "first_bad_event": 17, "passes": 5, "forms_genexpr": 17, "forms": 53},
            {"calls": 1945, "first_bad_event": 17, "passes": 5, "forms": 20},
        ),
        # counts of the code as it stands: 1970 calls, 15 guards, 5 passes,
        # 15 generator frames, 40 forms; a second run: 1213 calls, 15
        # guards, 5 passes, 8 forms (the profile's decompositions of F)
        (
            sphere_config,
            False,
            {"calls": 2165, "first_bad_event": 17, "passes": 6, "forms_genexpr": 17, "forms": 44},
            {"calls": 1335, "first_bad_event": 17, "passes": 6, "forms": 9},
        ),
        # --verify-only builds no profile and no lab-frame decomposition:
        # 1795 calls, 12 guards, 4 passes, 10 generator frames, 30 forms;
        # a second run: 1104 calls, 12 guards, 4 passes, no form
        (
            cylinder_config,
            True,
            {"calls": 1975, "first_bad_event": 13, "passes": 5, "forms_genexpr": 11, "forms": 33},
            {"calls": 1215, "first_bad_event": 13, "passes": 5, "forms": 0},
        ),
        # 1666 calls, 15 guards, 5 passes, 10 generator frames, 32 forms;
        # a second run: 909 calls, 15 guards, 5 passes, no form
        (
            sphere_config,
            True,
            {"calls": 1835, "first_bad_event": 17, "passes": 6, "forms_genexpr": 11, "forms": 35},
            {"calls": 1000, "first_bad_event": 17, "passes": 6, "forms": 0},
        ),
    ],
    ids=["cylinder", "sphere", "cylinder-verify-only", "sphere-verify-only"],
)
def test_python_work_per_run_stays_under_its_ceiling(tmp_path, make_config, verify_only, cold, warm):
    path, _ = make_config(tmp_path)
    other, _ = OTHER_SCENARIO[make_config](tmp_path)
    assert run(other, verify_only=verify_only, samples=8, out_dir=os.path.join(tmp_path, "warm-up")) == 0
    # the first run of the config solves its scenario; the second reuses it
    for label, ceilings in (("cold", cold), ("warm", warm)):
        out = os.path.join(tmp_path, label)
        counts = count_frames(lambda: run(path, verify_only=verify_only, samples=8, out_dir=out))
        assert counts["calls"] > 0
        over = {key: counts[key] for key, most in ceilings.items() if counts[key] > most}
        assert not over, f"{label} run: {over} above the ceilings {ceilings}"


@pytest.mark.parametrize(
    "make_config, ceilings",
    [
        # one junction match of the shell's two amplitudes: 642 calls,
        # 2 guards, 3 passes, 18 forms
        (cylinder_config, {"calls": 706, "first_bad_event": 3, "passes": 3, "forms": 20}),
        # of the sphere's four: 1234 calls, 2 guards, 2 passes, 10
        # generator frames, 40 forms
        (sphere_config, {"calls": 1360, "first_bad_event": 3, "passes": 3, "forms_genexpr": 11, "forms": 44}),
    ],
    ids=["cylinder", "sphere"],
)
def test_python_work_per_junction_match_stays_under_its_ceiling(tmp_path, make_config, ceilings):
    # no run matches, so the matcher is counted on the scenario of a run,
    # whose chart and interfaces are built, after one match pays its
    # one-time costs
    from emforms import cli
    from emforms.cylinder import match_cylinder_amplitudes
    from emforms.sphere import match_sphere_constants

    path, _ = make_config(tmp_path)
    assert run(path, verify_only=True, samples=8, out_dir=os.path.join(tmp_path, "out")) == 0
    (sc,) = cli._kept_scenario.values()
    match = match_cylinder_amplitudes if make_config is cylinder_config else match_sphere_constants
    match(sc)
    counts = count_frames(lambda: match(sc, seed=1))
    assert counts["calls"] > 0
    over = {key: counts[key] for key, most in ceilings.items() if counts[key] > most}
    assert not over, f"{over} above the ceilings {ceilings}"
