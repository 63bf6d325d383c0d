"""Ceilings on the Python-level work of one CLI run.

One ``cli.run`` of the shell and of the sphere config of ``test_cli`` at
``--samples 8`` is counted under ``sys.setprofile``: every Python frame
entered, the ``first_bad_event`` guards among them, and the generator
expressions of ``forms.py``. The ceilings sit about 10 % above the counts
of the code as it stands, so that a change which brings per-evaluation
bookkeeping back into the form algebra fails here, not only in the
benchmark. Counts that fall far below a ceiling are a cue to lower it.
"""

import os
import sys
from collections import Counter

import pytest

from emforms import forms
from emforms.cli import run
from test_cli import cylinder_config, sphere_config

FORMS_PY = forms.__file__


def count_frames(fn) -> Counter:
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts["calls"] += 1
            if code.co_name == "first_bad_event":
                counts["first_bad_event"] += 1
            elif code.co_name == "<genexpr>" and code.co_filename == FORMS_PY:
                counts["forms_genexpr"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return counts


@pytest.mark.parametrize(
    "make_config, ceilings",
    [
        # counts of the code as it stands: 4663 calls, 84 guards, 25 generator frames
        (cylinder_config, {"calls": 4900, "first_bad_event": 93, "forms_genexpr": 28}),
        # counts of the code as it stands: 5176 calls, 38 guards, 70 generator frames
        (sphere_config, {"calls": 5650, "first_bad_event": 42, "forms_genexpr": 77}),
    ],
    ids=["cylinder", "sphere"],
)
def test_python_work_per_run_stays_under_its_ceiling(tmp_path, make_config, ceilings):
    path, _ = make_config(tmp_path)
    # a first run pays the one-time costs (lazy imports, cached tables)
    assert run(path, samples=8, out_dir=os.path.join(tmp_path, "warm")) == 0
    counts = count_frames(lambda: run(path, samples=8, out_dir=os.path.join(tmp_path, "out")))
    assert counts["calls"] > 0
    over = {key: counts[key] for key, most in ceilings.items() if counts[key] > most}
    assert not over, f"{over} above the ceilings {ceilings}"
