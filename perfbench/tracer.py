"""Outside-in tracing of emforms: spans at the public boundary of each module.

The tracer rebinds public functions in every loaded ``emforms`` module
namespace that holds them (a function imported into five modules is
wrapped in all five), so no file under ``src/`` changes. A span's
self time is its duration minus the time of the spans nested directly in
it. Time of a metric is counted once for recursive or nested calls of the
same metric.

``spacetime`` has no call on the hot path that can be timed from here:
charts and 4-velocities are built inside ``solve_*`` and metric components
are evaluated inside ``fields`` closures.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPACETIME_NOTE = (
    "spacetime: no hot-path call is timed from outside (charts and 4-velocities are "
    "built inside solve_*, metric components are evaluated inside fields closures)"
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._open: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, metric, fn, after=None):
        """Wrap ``fn`` so each call records a span named ``metric``."""

        def traced(*args, **kwargs):
            self.calls[metric] += 1
            self._open[metric] += 1
            children = [0.0]
            self._stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._open[metric] -= 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                if not self._open[metric]:
                    self.total[metric] += elapsed
                self.self_time[metric] += elapsed - children[0]
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def count(self, metric, fn):
        """Wrap ``fn`` so each call is counted without a span."""

        def counted(*args, **kwargs):
            self.calls[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, name, value):
        """Set ``owner.name``, remembering the old value for `uninstall`."""
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every emforms namespace."""
        n = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "emforms" and not mod_name.startswith("emforms."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)
                    n += 1
        if not n:
            raise RuntimeError(f"{original.__qualname__} is bound in no emforms module")

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _add_rows(counts, args, result):
    counts["cli.profile_rows"] += len(result[1])


def _add_bytes(counts, args, result):
    counts["cli.write_bytes"] += os.path.getsize(args[0])


def _add_verify_events(counts, args, result):
    counts["solutions.verify_events"] += result.samples_per_region * len(result.regions)


def _add_junction_events(counts, args, result):
    counts["junction.events"] += len(result.samples)


def install(tracer: Tracer) -> None:
    """Put spans on every layer boundary named in the benchmark."""
    from emforms import cli, cylinder, dual, fields, forms, junction, media, solutions, sphere

    spans = [
        (cli, "run", "cli.run", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "cylinder_profile", "cli.profile", _add_rows),
        (cli, "sphere_profile", "cli.profile", _add_rows),
        (cli, "write_csv", "cli.write", _add_bytes),
        (cli, "_write_json", "cli.write", _add_bytes),
        (cylinder, "solve_cylinder", "cylinder.solve", None),
        (cylinder, "match_cylinder_amplitudes", "cylinder.match", None),
        (cylinder, "wilson_wilson_V12", "cylinder.v12", None),
        (sphere, "solve_sphere", "sphere.solve", None),
        (sphere, "match_sphere_constants", "sphere.match", None),
        (media, "apply_constitutive", "media.constitutive", None),
        (forms, "wedge", "forms.build", None),
        (forms, "exterior_derivative", "forms.build", None),
        (forms, "hodge_star", "forms.build", None),
        (forms, "interior_product", "forms.build", None),
        (forms, "evaluate", "forms.evaluate", None),
        (forms, "component_max", "forms.component_max", None),
        (solutions, "verify_solution", "solutions.verify", _add_verify_events),
        (junction, "covariant_jump_residual", "junction.covariant", _add_junction_events),
        (junction, "gibbs_jump_residual", "junction.gibbs", _add_junction_events),
        (junction, "interface_normal_velocity", "junction.normal_velocity", None),
    ]
    for module, name, metric, after in spans:
        original = getattr(module, name)
        tracer.rebind(original, tracer.span(metric, original, after))

    of = vars(media.EMDecomposition)["of"].__func__
    tracer.patch(media.EMDecomposition, "of", classmethod(tracer.span("media.decompose", of)))
    tracer.patch(fields.ScalarField, "eval", tracer.span("fields.eval", fields.ScalarField.eval))
    # fields and dual reach fresh_tag through the dual module's namespace.
    tracer.patch(dual, "fresh_tag", tracer.count("dual.passes", dual.fresh_tag))


def per_run_metrics(tracer: Tracer, runs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as means per traced run."""
    t, s, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def per_run(x):
        return x / runs

    def rate(events, seconds):
        return events / seconds if seconds > 0.0 else 0.0

    junction_s = t["junction.covariant"] + t["junction.gibbs"]
    return {
        "cli.load_config_s": (per_run(t["cli.load_config"]), "s/run"),
        "cli.profile_s": (per_run(t["cli.profile"]), "s/run"),
        "cli.profile_rows": (per_run(counts["cli.profile_rows"]), "count/run"),
        "cli.write_s": (per_run(t["cli.write"]), "s/run"),
        "cli.write_bytes": (per_run(counts["cli.write_bytes"]), "B/run"),
        "cli.run_self_s": (per_run(s["cli.run"]), "s/run"),
        "cylinder.solve_self_s": (per_run(s["cylinder.solve"]), "s/run"),
        "sphere.solve_self_s": (per_run(s["sphere.solve"]), "s/run"),
        "cylinder.match_s": (per_run(t["cylinder.match"]), "s/run"),
        "sphere.match_s": (per_run(t["sphere.match"]), "s/run"),
        "cylinder.v12_s": (per_run(t["cylinder.v12"]), "s/run"),
        "media.constitutive_s": (per_run(t["media.constitutive"]), "s/run"),
        "media.decompose_s": (per_run(t["media.decompose"]), "s/run"),
        "forms.build_s": (per_run(t["forms.build"]), "s/run"),
        "forms.build_calls": (per_run(calls["forms.build"]), "count/run"),
        "forms.evaluate_calls": (per_run(calls["forms.evaluate"]), "count/run"),
        "forms.component_max_calls": (per_run(calls["forms.component_max"]), "count/run"),
        "solutions.verify_s": (per_run(t["solutions.verify"]), "s/run"),
        "solutions.verify_events": (per_run(counts["solutions.verify_events"]), "count/run"),
        "solutions.verify_events_per_s": (
            rate(counts["solutions.verify_events"], t["solutions.verify"]),
            "1/s",
        ),
        "junction.covariant_s": (per_run(t["junction.covariant"]), "s/run"),
        "junction.gibbs_self_s": (per_run(s["junction.gibbs"]), "s/run"),
        "junction.normal_velocity_s": (per_run(t["junction.normal_velocity"]), "s/run"),
        "junction.events": (per_run(counts["junction.events"]), "count/run"),
        "junction.events_per_s": (rate(counts["junction.events"], junction_s), "1/s"),
        "fields.eval_calls": (per_run(calls["fields.eval"]), "count/run"),
        "fields.eval_s": (per_run(t["fields.eval"]), "s/run"),
        "dual.passes": (per_run(calls["dual.passes"]), "count/run"),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """`import.*` metrics, in seconds, from `python -X importtime` output."""
    own_self = own_total = numpy = scipy_integrate = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue  # the column header
        raw_name = fields[2]
        name = raw_name.strip()
        nested = raw_name[: len(raw_name) - len(raw_name.lstrip())].count(" ") > 1
        ours = name == "emforms" or name.startswith("emforms.")
        if ours:
            own_self += self_us
            if not nested:
                own_total += cumulative_us
        if name == "numpy":
            numpy = cumulative_us
        elif name == "scipy.integrate":
            scipy_integrate = cumulative_us
    return {
        "import.total_s": own_total / 1e6,
        "import.numpy_s": numpy / 1e6,
        "import.scipy.integrate_s": scipy_integrate / 1e6,
        "import.emforms_s": own_self / 1e6,
    }
