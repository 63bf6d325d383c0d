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
which brings per-evaluation bookkeeping back into the form algebra, one
assembly per matched amplitude back into the junction matcher, a solve
back into a second run of one config, a second
chart or a rebuilt interface (a second Hodge table, a second dPhi) back
into a run, or the 3-vector junction check or a lab-frame decomposition
back into a ``--verify-only`` run, fails here, not only in the benchmark. Counts that fall far below a ceiling are a cue
to lower it.
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
        # counts of the code as it stands: 3341 calls, 23 guards, 7 passes,
        # 15 generator frames, 74 forms; a second run: 2266 calls, 19
        # guards, 4 passes, 38 forms
        (
            cylinder_config,
            False,
            {"calls": 3680, "first_bad_event": 26, "passes": 8, "forms_genexpr": 17, "forms": 81},
            {"calls": 2490, "first_bad_event": 21, "passes": 5, "forms": 42},
        ),
        # counts of the code as it stands: 3746 calls, 25 guards, 21 passes,
        # 25 generator frames, 98 forms; a second run: 1991 calls, 21
        # guards, 18 passes, 28 forms
        (
            sphere_config,
            False,
            {"calls": 4130, "first_bad_event": 28, "passes": 22, "forms_genexpr": 28, "forms": 108},
            {"calls": 2190, "first_bad_event": 23, "passes": 20, "forms": 31},
        ),
        # --verify-only builds no profile and no lab-frame decomposition:
        # 2622 calls, 20 guards, 7 passes, 10 generator frames, 54 forms;
        # a second run: 1547 calls, 16 guards, 4 passes, 18 forms
        (
            cylinder_config,
            True,
            {"calls": 2880, "first_bad_event": 22, "passes": 8, "forms_genexpr": 11, "forms": 60},
            {"calls": 1700, "first_bad_event": 18, "passes": 5, "forms": 20},
        ),
        # 3249 calls, 25 guards, 17 passes, 20 generator frames, 82 forms;
        # a second run: 1494 calls, 21 guards, 14 passes, 12 forms
        (
            sphere_config,
            True,
            {"calls": 3570, "first_bad_event": 28, "passes": 19, "forms_genexpr": 22, "forms": 90},
            {"calls": 1640, "first_bad_event": 23, "passes": 16, "forms": 14},
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
