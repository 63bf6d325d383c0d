"""The evaluation kernel over many events against each event alone.

``evaluate``, ``component_max`` and ``interface_normal_velocity`` walk each
closure tree once with coordinate arrays. The reference here is the same
kernel on the one-row array of each event, so a row that leaks into
another, where batching goes wrong, shows as a difference.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emforms import dual, fields, solutions
from emforms.cylinder import CylinderScenario, solve_cylinder
from emforms.dual import Dual
from emforms.fields import Batch, ScalarField, sin
from emforms.forms import (
    DegenerateMetricError,
    component_max,
    evaluate,
    exterior_derivative,
    form,
    hodge_star,
    zero_form,
)
from emforms.junction import (
    DegenerateInterfaceError,
    Interface,
    InterfaceSampleError,
    covariant_jump_residual,
    gibbs_jump_residual,
    interface_normal_velocity,
)
from emforms.media import EMDecomposition, MaterialParams
from emforms.solutions import sample_box, verify_solution
from emforms.spacetime import (
    LightConeError,
    cartesian_chart,
    cylindrical_chart,
    lab_frame,
    rotating_velocity,
)
from emforms.sphere import SphereScenario, solve_sphere

import one_event
from jumps import jump_residual

C = 299792458.0
REL_TOL = 1e-13


@pytest.fixture(scope="module")
def shell():
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=100.0, b0=1.0, mat=MaterialParams(6.0, 1.0))
    sol, _ = solve_cylinder(sc)
    return sc, sol


def five_events(bad, good=(0.0, 0.03, 0.4, 0.01)):
    """Five events whose middle one is ``bad``."""
    events = np.array([good] * 5, dtype=float)
    events[1:4, 2] = (0.5, 0.6, 0.7)
    events[2] = bad
    return events


# -- kernel ------------------------------------------------------------------


def test_dual_defers_to_reflected_operators_and_abs_is_elementwise():
    tag = dual.fresh_tag()
    x = Dual(np.array([-2.0, 3.0]), 1.0, tag)
    y = np.array([2.0, 2.0]) * x
    assert isinstance(y, Dual)
    assert y.a.tolist() == [-4.0, 6.0]
    z = abs(x)
    assert z.a.tolist() == [2.0, 3.0]
    assert z.b.tolist() == [-1.0, 1.0]


def test_elementary_functions_use_numpy_for_any_non_dual():
    for fn in (dual.sin, dual.cos, dual.sqrt):
        assert isinstance(fn(np.array([0.7])), np.ndarray)
        assert isinstance(fn(0.7), np.float64)


def test_empty_batch(shell):
    _, sol = shell
    out = evaluate(sol.g_in, np.empty((0, 4)))
    assert all(v.shape == (0,) for v in out.values())
    assert component_max(sol.f_in, []).shape == (0,)


def test_constant_metric_hodge_star_over_a_batch():
    """Every metric component of the cartesian chart is constant, so the
    metric-floor guard sees plain floats, not arrays over the batch."""
    cart = cartesian_chart(C)
    x, y = ScalarField.coordinate(1), ScalarField.coordinate(2)
    f = form(2, cart.name, {(0, 1): x * y, (1, 2): 3.0 * y, (2, 3): x})
    star = hodge_star(cart.metric, f)
    events = five_events((0.5, 2.0, -1.0, 0.25))
    vals = evaluate(star, events)
    xs, ys = events[:, 1], events[:, 2]
    # star(dt^dx) = -dy^dz / c, star(dx^dy) = c dt^dz, star(dy^dz) = c dt^dx
    assert np.allclose(vals[(2, 3)], -xs * ys / C, rtol=1e-15, atol=0.0)
    assert np.allclose(vals[(0, 3)], C * 3.0 * ys, rtol=1e-15, atol=0.0)
    assert np.allclose(vals[(0, 1)], C * xs, rtol=1e-15, atol=0.0)
    d_star = evaluate(exterior_derivative(star), events)
    # d(-x y / c dy^dz) = -(y / c) dx^dy^dz; d(3 c y dt^dz) = -3 c dt^dy^dz
    assert np.allclose(d_star[(1, 2, 3)], -ys / C, rtol=1e-15, atol=0.0)
    assert np.allclose(d_star[(0, 2, 3)], np.full(5, -3.0 * C), rtol=1e-15, atol=0.0)
    for k, ev in enumerate(events):
        assert one_event.evaluate(star, ev) == {idx: v[k] for idx, v in vals.items()}


def scenario_forms(sol):
    """(interior, name, form, reference) for F, G, dF and d*G on each side.

    F and G components compare against their own batch maximum; dF and
    d*G, which nearly vanish, against the field scale over the length
    scale (``reference``) that the Maxwell verification divides them by.
    """
    metric = sol.chart.metric
    for interior, (f, g) in ((True, (sol.f_in, sol.g_in)), (False, (sol.f_out, sol.g_out))):
        star_g = hodge_star(metric, g)
        yield interior, "F", f, None
        yield interior, "G", g, None
        yield interior, "dF", exterior_derivative(f), (f, sol.length_scale)
        yield interior, "d*G", exterior_derivative(star_g), (star_g, sol.length_scale)


def assert_batch_matches_reference(sol, seed):
    rng = np.random.default_rng(seed)
    for region in sol.regions:
        events = sample_box(region.box, 6, rng)
        for interior, name, a, parent in scenario_forms(sol):
            if interior != region.interior:
                continue
            got = evaluate(a, events)
            ref = [one_event.evaluate(a, ev) for ev in events]
            if parent is not None:
                parent_form, length = parent
                field_scale = max(one_event.component_max(parent_form, ev) for ev in events) / length
            for idx, values in got.items():
                want = np.array([r[idx] for r in ref])
                scale = np.abs(want).max() if parent is None else field_scale
                err = np.abs(values - want).max()
                assert err <= REL_TOL * max(scale, 1e-300), (region.name, name, idx, err, scale)


@given(
    r1=st.floats(0.005, 0.05),
    ratio=st.floats(1.5, 4.0),
    beta=st.floats(1e-6, 0.3),
    b0=st.floats(0.1, 5.0),
    eps_r=st.floats(1.1, 10.0),
    mu_r=st.floats(0.3, 4.0),
    seed=st.integers(0, 2**31),
)
def test_batch_matches_reference_cylinder(r1, ratio, beta, b0, eps_r, mu_r, seed):
    r2 = r1 * ratio
    sc = CylinderScenario(r1, r2, beta * C / r2, b0, MaterialParams(eps_r, mu_r))
    sol, _ = solve_cylinder(sc)
    assert_batch_matches_reference(sol, seed)


@given(
    a=st.floats(0.01, 0.5),
    beta=st.floats(1e-7, 0.05),
    e0=st.floats(10.0, 1e5),
    eps_r=st.floats(1.1, 10.0),
    mu_r=st.floats(0.3, 4.0),
    seed=st.integers(0, 2**31),
)
def test_batch_matches_reference_sphere(a, beta, e0, eps_r, mu_r, seed):
    sc = SphereScenario(a, beta * C / a, e0, MaterialParams(eps_r, mu_r))
    sol, _ = solve_sphere(sc)
    assert_batch_matches_reference(sol, seed)


def test_normal_velocity_is_the_one_event_batch(shell):
    sc, sol = shell
    iface = sol.interfaces[1]
    frame = lab_frame(sol.chart)
    events = five_events((0.0, sc.r2, 2.0, -0.01), good=(1e-10, sc.r2, 0.4, 0.01))
    normal, v_n = interface_normal_velocity(iface, frame, sol.chart.metric, events)
    for k, ev in enumerate(events):
        one_normal, one_v = one_event.interface_normal_velocity(iface, frame, sol.chart.metric, ev)
        assert one_normal == tuple(n[k] for n in normal)
        assert one_v == v_n[k]


# -- guards name the first offending event --------------------------------------


def assert_names_event(excinfo, event):
    assert repr(tuple(float(x) for x in event)) in str(excinfo.value)


def test_metric_floor_guard_names_event():
    cyl = cylindrical_chart(C)
    f = form(2, cyl.name, {(0, 1): ScalarField.coordinate(3), (1, 2): 1.0})
    events = five_events((0.0, 0.0, 0.6, 0.01))
    for a in (hodge_star(cyl.metric, f), exterior_derivative(hodge_star(cyl.metric, f))):
        with pytest.raises(DegenerateMetricError, match="g_22") as excinfo:
            evaluate(a, events)
        assert_names_event(excinfo, events[2])


def test_light_cone_guard_names_event():
    cyl = cylindrical_chart(C)
    velocity = rotating_velocity(cyl, 1000.0, 2)
    events = five_events((0.0, 2.0 * C / 1000.0, 0.6, 0.01))
    with pytest.raises(LightConeError) as excinfo:
        velocity.components[0].eval(events)
    assert_names_event(excinfo, events[2])


def test_off_interface_guard_names_event(shell):
    sc, sol = shell
    events = five_events((0.0, 1.5 * sc.r1, 0.6, 0.01), good=(0.0, sc.r1, 0.4, 0.01))
    with pytest.raises(InterfaceSampleError) as excinfo:
        covariant_jump_residual(sol, sol.interfaces[0], events)
    assert_names_event(excinfo, events[2])


def test_degenerate_dphi_guards_name_event():
    cyl = cylindrical_chart(C)
    r, z, t = (ScalarField.coordinate(i) for i in (1, 3, 0))
    two = zero_form(2, cyl.name)
    frame = lab_frame(cyl)
    # dPhi = z dr + (r - 1) dz vanishes on r = 1 only where z = 0
    vanishing = Interface(phi=(r - 1.0) * z, chart=cyl.name)
    events = five_events((0.0, 1.0, 0.6, 0.0), good=(0.0, 1.0, 0.4, 0.5))
    with pytest.raises(DegenerateInterfaceError, match="vanishes") as excinfo:
        jump_residual(two, two, two, two, vanishing, cyl, events)
    assert_names_event(excinfo, events[2])
    with pytest.raises(DegenerateInterfaceError, match="vanishes") as excinfo:
        interface_normal_velocity(vanishing, frame, cyl.metric, events)
    assert_names_event(excinfo, events[2])
    # dPhi = dt + z dr + (r - 1) dz is purely temporal on r = 1 where z = 0
    temporal = Interface(phi=(t - 1.0) + (r - 1.0) * z, chart=cyl.name)
    events = five_events((1.0, 1.0, 0.6, 0.0), good=(1.0, 1.0, 0.4, 0.5))
    with pytest.raises(DegenerateInterfaceError, match="purely temporal") as excinfo:
        interface_normal_velocity(temporal, frame, cyl.metric, events)
    assert_names_event(excinfo, events[2])


# -- one NaN event fails its region or interface ------------------------------------


def test_nan_event_fails_its_region(shell, monkeypatch):
    _, sol = shell
    drawn = solutions.sample_box

    def with_nan(box, n, rng):
        events = drawn(box, n, rng)
        events[n // 2, 1] = math.nan
        return events

    monkeypatch.setattr(solutions, "sample_box", with_nan)
    report = verify_solution(sol, samples_per_region=5)
    assert not report.passed
    for entry in report.regions.values():
        assert math.isnan(entry["df_max_rel"])
        assert math.isnan(entry["dstar_g_max_rel"])


def test_nan_event_is_each_region_s_worst_event(shell, monkeypatch):
    _, sol = shell
    drawn = solutions.sample_box
    bad = []

    def with_nan(box, n, rng):
        events = drawn(box, n, rng)
        events[n // 2, 1] = math.nan
        bad.append(events[n // 2])
        return events

    monkeypatch.setattr(solutions, "sample_box", with_nan)
    report = verify_solution(sol, samples_per_region=5)
    named = 0
    for entry, event in zip(report.regions.values(), bad, strict=True):
        for name in ("df", "dstar_g"):
            # a NaN residual names its event; a structurally zero one has none
            if math.isnan(entry[f"{name}_max_abs"]):
                assert np.array_equal(entry[f"{name}_worst_event"], event, equal_nan=True)
                named += 1
    assert named > 0


def test_region_worst_events_and_scales_are_those_of_the_sampled_events(shell, monkeypatch):
    _, sol = shell
    drawn = solutions.sample_box
    sampled = []
    monkeypatch.setattr(solutions, "sample_box", lambda *args: sampled.append(drawn(*args)) or sampled[-1])
    report = verify_solution(sol, samples_per_region=16, seed=2)
    for region, events in zip(sol.regions, sampled, strict=True):
        f, g = (sol.f_in, sol.g_in) if region.interior else (sol.f_out, sol.g_out)
        star_g = hodge_star(sol.chart.metric, g)
        entry = report.regions[region.name]
        assert entry["f_scale"] == component_max(f, events).max()
        assert entry["star_g_scale"] == component_max(star_g, events).max()
        for key, form in (("df_worst_event", exterior_derivative(f)), ("dstar_g_worst_event", exterior_derivative(star_g))):
            values = component_max(form, events)
            assert values[events.tolist().index(entry[key])] == values.max()


def test_nan_event_fails_its_interface(shell):
    sc, sol = shell
    metric = sol.chart.metric
    frame = lab_frame(sol.chart)
    iface = sol.interfaces[0]
    events = five_events((0.0, math.nan, 0.6, 0.01), good=(0.0, sc.r1, 0.4, 0.01))
    covariant = covariant_jump_residual(sol, iface, events)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, metric)
    gibbs = gibbs_jump_residual(dec_in, dec_out, iface, frame, metric, events)
    for report in (covariant, gibbs):
        assert math.isnan(report.max_rel)
        assert not report.max_rel <= 1e-10
        rel = np.array(list(report.residuals_rel.values()))
        assert np.isfinite(rel).all(axis=0).tolist() == [True, True, False, True, True]


# -- the batch cache ----------------------------------------------------------


def polar_field() -> ScalarField:
    r, th = ScalarField.coordinate(1), ScalarField.coordinate(2)
    return r * r * sin(th) + sin(th) / r


def test_a_field_alternating_between_two_event_arrays_gives_each_its_values(rng):
    f = polar_field()
    arrays = [rng.uniform(0.5, 2.0, size=(5, 4)) for _ in range(2)]
    want = [[one_event.value(f, ev) for ev in events] for events in arrays]
    batches = [Batch.of(events) for events in arrays]
    for k in (0, 1, 0, 1):
        assert f.eval(arrays[k]).tolist() == want[k]
        assert f.eval(batches[k]).tolist() == want[k]


def test_a_field_and_its_first_and_second_partials_share_one_batch(rng):
    f = polar_field()
    d1 = f.partial_field(1)
    d2 = d1.partial_field(1)
    events = rng.uniform(0.5, 2.0, size=(6, 4))
    for order in ((f, d1, d2), (d2, d1, f)):
        batch = Batch.of(events)
        for g in order:
            assert g.eval(batch).view(np.int64).tolist() == g.eval(events).view(np.int64).tolist()


def test_a_guard_raises_again_on_a_second_evaluation_of_its_batch(shell):
    _, sol = shell
    metric = sol.chart.metric
    # the interior decomposition past the light cylinder, as a profile may reach it
    dec = EMDecomposition.of(sol.f_in, sol.g_in, lab_frame(sol.chart), metric)
    past = Batch.of(five_events((0.0, 2.0 * C / 100.0, 0.6, 0.01)))
    # the cylindrical metric degenerates at r = 0
    star = hodge_star(metric, form(2, sol.chart.name, {(0, 1): 1.0, (1, 2): 1.0}))
    axis = Batch.of(five_events((0.0, 0.0, 0.6, 0.01)))
    for error, a, batch in ((LightConeError, dec.d, past), (DegenerateMetricError, star, axis)):
        for _ in range(2):
            with pytest.raises(error):
                evaluate(a, batch)


def test_reports_on_blocks_equal_the_report_on_one_block(shell, monkeypatch):
    sc, sol = shell
    metric, frame = sol.chart.metric, lab_frame(sol.chart)
    sides = ((sol.f_in, sol.g_in), (sol.f_out, sol.g_out))
    decs = [EMDecomposition.of(f, g, frame, metric) for f, g in sides]
    iface = sol.interfaces[1]
    events = sc.interface_events(12, seed=2)[1]

    def reports():
        return (
            covariant_jump_residual(sol, iface, events),
            gibbs_jump_residual(*decs, iface, frame, metric, events),
        )

    whole = reports()
    # blocks of 5, 5 and 2 events, each a fresh batch
    monkeypatch.setattr(fields, "BLOCK_EVENTS", 5)
    for got, want in zip(reports(), whole, strict=True):
        assert got.samples.tolist() == want.samples.tolist()
        assert not got.samples.flags.writeable
        assert got.to_json_dict() == want.to_json_dict()
        for attr in ("residuals", "residuals_rel"):
            for name, values in getattr(want, attr).items():
                assert getattr(got, attr)[name].view(np.int64).tolist() == values.view(np.int64).tolist()


def test_cached_nodes_and_batches_are_freed_without_the_cycle_collector(shell, rng):
    """A run builds thousands of nodes; were each a reference cycle, the
    cyclic collector would run many times per run and stretch its tail."""
    _, sol = shell
    events = rng.uniform(0.5, 2.0, size=(6, 4)) * [1.0, 0.03, 1.0, 1.0]
    gc.collect()
    gc.disable()
    try:
        f = polar_field()
        star = hodge_star(sol.chart.metric, sol.g_in)
        batch = Batch.of(events)
        for g in (f, f.partial_field(1).partial_field(2)):
            g.eval(batch)
        evaluate(exterior_derivative(star), batch)
        del f, g, star, batch
        assert gc.collect() == 0
    finally:
        gc.enable()
