"""The benchmark tracer must find every function it wraps, and read what
it counts from their signatures.

``perfbench/tracer.py`` rebinds emforms functions by name; renaming one
would otherwise surface only in a traced benchmark run. It counts
``len(result[1])`` of a profile's return value as its rows and the size of
the file named by ``args[0]`` of each writer as written bytes, so a change
of either signature would skew the benchmark's per-layer numbers.
"""

import importlib.util
import math
import pathlib

import pytest

from emforms import cli, fields, forms, junction

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
    originals = (
        forms.evaluate,
        junction.interface_normal_velocity,
        cli.cylinder_profile,
        fields.ScalarField.eval,
    )
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert forms.evaluate is not originals[0]
    finally:
        t.uninstall()
    restored = (
        forms.evaluate,
        junction.interface_normal_velocity,
        cli.cylinder_profile,
        fields.ScalarField.eval,
    )
    assert all(a is b for a, b in zip(originals, restored))


def test_tracer_counts_the_kernel_calls_of_a_run(tmp_path):
    """A traced run passes through the wrapped evaluators, so their spans
    count the work a run does rather than reading 0."""
    from test_cli import cylinder_config

    tracer = load_tracer()
    path, _ = cylinder_config(tmp_path)
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert cli.run(path, samples=8, out_dir=str(tmp_path / "out")) == 0
    finally:
        t.uninstall()
    for metric in ("solutions.verify", "forms.component_max", "fields.eval", "junction.covariant"):
        assert t.calls[metric] > 0, metric


@pytest.mark.parametrize(
    "config_name, grid_keys",
    [("cylinder_config", ["radial_points"]), ("sphere_config", ["radial_points", "angular_points"])],
    ids=["cylinder", "sphere"],
)
def test_tracer_counts_profile_rows_and_written_bytes(tmp_path, config_name, grid_keys):
    import test_cli

    tracer = load_tracer()
    path, cfg = getattr(test_cli, config_name)(tmp_path)
    out = tmp_path / "out"
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert cli.run(path, samples=8, out_dir=str(out)) == 0
    finally:
        t.uninstall()
    assert t.counts["cli.profile_rows"] == math.prod(cfg["sampling"][key] for key in grid_keys)
    assert t.counts["cli.write_bytes"] == sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
