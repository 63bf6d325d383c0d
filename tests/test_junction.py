import json
import math

import numpy as np
import pytest

from emforms import junction
from emforms.cli import _json_text
from emforms.fields import ScalarField
from emforms.forms import form, scale, zero_form
from emforms.junction import (
    DegenerateInterfaceError,
    Interface,
    InterfaceSampleError,
    JumpReport,
    covariant_jump_residual,
    gibbs_jump_residual,
)
from emforms.media import EMDecomposition, MaterialParams, recompose
from emforms.solutions import junction_tolerance
from emforms.spacetime import cartesian_chart, cylindrical_chart, lab_frame
from emforms.cylinder import (
    CylinderScenario,
    solve_cylinder,
    _interior_family,
)
from jumps import jump_residual, solution_of
from one_event import evaluate, interface_normal_velocity


C = 299792458.0
EPS0 = MaterialParams.vacuum().eps0


@pytest.fixture(scope="module")
def cyl():
    return cylindrical_chart(C)


@pytest.fixture(scope="module")
def shell():
    mat = MaterialParams(eps_r=6.0, mu_r=1.0)
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=100.0, b0=1.0, mat=mat)
    sol, _ = solve_cylinder(sc)
    return sc, sol


def radial_interface(chart, radius, name="surface"):
    return Interface(phi=ScalarField.coordinate(1) - radius, chart=chart, name=name)


# -- normal and velocity -----------------------------------------------------


def test_normal_static_cylinder(cyl):
    u = lab_frame(cyl)
    iface = radial_interface(cyl.name, 0.04)
    normal, v_n = interface_normal_velocity(iface, u, cyl.metric, (0, 0.04, 0.3, 0.1))
    assert normal == pytest.approx((0.0, 1.0, 0.0, 0.0))
    assert v_n == 0.0


def test_normal_static_sphere():
    from emforms.spacetime import spherical_chart

    sph = spherical_chart(C)
    u = lab_frame(sph)
    iface = radial_interface(sph.name, 0.05)
    normal, v_n = interface_normal_velocity(iface, u, sph.metric, (0, 0.05, 1.1, 0.2))
    assert normal == pytest.approx((0.0, 1.0, 0.0, 0.0))
    assert v_n == 0.0


def test_normal_velocity_of_expanding_interface(cyl):
    # Phi = r - (r0 + w t): direct differentiation oracle gives v_N = w
    w = 123.0
    r0 = 0.5
    phi = ScalarField.coordinate(1) - (r0 + w * ScalarField.coordinate(0))
    iface = Interface(phi=phi, chart=cyl.name, name="moving")
    u = lab_frame(cyl)
    t0 = 1e-3
    normal, v_n = interface_normal_velocity(iface, u, cyl.metric, (t0, r0 + w * t0, 0.3, 0.0))
    assert v_n == pytest.approx(w, rel=1e-12)
    assert normal[1] == pytest.approx(1.0, rel=1e-12)


def test_degenerate_interface(cyl):
    u = lab_frame(cyl)
    iface = Interface(phi=ScalarField.coordinate(0) - 1.0, chart=cyl.name)
    with pytest.raises(DegenerateInterfaceError):
        interface_normal_velocity(iface, u, cyl.metric, (1.0, 0.5, 0.0, 0.0))


# -- covariant residuals ------------------------------------------------------


def test_zero_jump_is_exactly_zero(cyl, rng):
    from oracles import random_form

    f = random_form(rng, 2, cyl.name)
    g = random_form(rng, 2, cyl.name)
    iface = radial_interface(cyl.name, 1.0)
    samples = [(0.0, 1.0, 0.4, 0.2), (0.5, 1.0, 2.0, -0.3)]
    rep = jump_residual(f, f, g, g, iface, cyl, samples)
    assert rep.max_abs == 0.0 and rep.max_rel == 0.0


def test_sample_off_interface_rejected(cyl, rng):
    from oracles import random_form

    f = random_form(rng, 2, cyl.name)
    iface = radial_interface(cyl.name, 1.0)
    with pytest.raises(InterfaceSampleError):
        jump_residual(f, f, f, f, iface, cyl, [(0.0, 1.5, 0.0, 0.0)])


def test_shell_solution_matches_at_both_interfaces(shell):
    _, sol = shell
    for iface in sol.interfaces:
        rep = covariant_jump_residual(sol, iface, iface.events(16, seed=2))
        assert rep.max_rel <= 1e-10


def test_perturbed_constant_breaks_matching(shell):
    sc, sol = shell
    f_basis, g_basis = _interior_family(sc, sc.chart)
    k2 = EPS0 * sc.mat.c * sc.b0
    f_in_bad = scale(1.01 * k2, f_basis[1])
    g_in_bad = scale(1.01 * k2, g_basis[1])
    iface = sol.interfaces[1]
    events = sc.interfaces[1].events(8, seed=2)
    rep = jump_residual(f_in_bad, sol.f_out, g_in_bad, sol.g_out, iface, sol.chart, events)
    # the violated condition lives on the excitation side, scale eps0 c^2 B0
    assert rep.max_abs > 1e-4 * EPS0 * sc.mat.c**2 * abs(sc.b0)
    assert rep.max_rel > 1e-4


def test_residual_scaling_is_homogeneous(shell):
    sc, sol = shell
    iface = sol.interfaces[1]
    events = sc.interfaces[1].events(8, seed=2)
    f_basis, g_basis = _interior_family(sc, sc.chart)
    k2 = EPS0 * sc.mat.c * sc.b0
    f_in_bad = scale(1.01 * k2, f_basis[1])
    g_in_bad = scale(1.01 * k2, g_basis[1])
    lam = 3.5
    rep = jump_residual(f_in_bad, sol.f_out, g_in_bad, sol.g_out, iface, sol.chart, events)
    rep_scaled = jump_residual(
        scale(lam, f_in_bad),
        scale(lam, sol.f_out),
        scale(lam, g_in_bad),
        scale(lam, sol.g_out),
        iface,
        sol.chart,
        events,
    )
    assert rep_scaled.max_abs == pytest.approx(lam * rep.max_abs, rel=1e-12)
    assert rep_scaled.max_rel == pytest.approx(rep.max_rel, rel=1e-12)


def test_report_max_is_order_invariant(shell, rng):
    sc, sol = shell
    iface = sol.interfaces[0]
    events = sc.interfaces[0].events(12, seed=2)
    rep = covariant_jump_residual(sol, iface, events)
    shuffled = list(events)
    rng.shuffle(shuffled)
    rep2 = covariant_jump_residual(sol, iface, shuffled)
    assert rep.max_abs == rep2.max_abs
    assert rep.max_rel == rep2.max_rel


def test_an_interface_of_another_solution_is_rejected(shell, cyl):
    sc, sol = shell
    other = radial_interface(cyl.name, sc.r1, name="inner")
    with pytest.raises(ValueError, match="'inner' is not an interface of the solution"):
        covariant_jump_residual(sol, other, [(0.0, sc.r1, 0.0, 0.0)])


def test_a_junction_form_whose_build_raises_is_not_kept(cyl):
    # a constant metric component below the floor fails the Hodge dual when
    # star G is built; every check of the solution raises again
    from emforms.forms import DegenerateMetricError, DiagonalMetric
    from emforms.spacetime import Chart

    degenerate = Chart(cyl.name, DiagonalMetric((-1e-40, 1.0, 1.0, 1.0)), C)
    two = form(2, cyl.name, {(0, 1): 1.0})
    iface = radial_interface(cyl.name, 1.0)
    sol = solution_of(two, two, two, two, iface, degenerate)
    for _ in range(2):
        with pytest.raises(DegenerateMetricError):
            covariant_jump_residual(sol, iface, [(0.0, 1.0, 0.0, 0.0)])
    assert not {"star_g", "junction_forms"} & set(vars(sol))


def test_report_max_keeps_a_late_nan():
    values = {"f_jump": [1e-20, math.nan], "star_g_jump": [0.0]}
    rep = JumpReport(interface="x", samples=[], residuals=values, residuals_rel=values)
    assert math.isnan(rep.max_abs)
    assert math.isnan(rep.max_rel)


def test_report_serializes(shell):
    sc, sol = shell
    iface = sol.interfaces[0]
    events = sc.interfaces[0].events(4, seed=0)
    rep = covariant_jump_residual(sol, iface, events)
    payload = json.loads(_json_text(rep.to_json_dict()))
    assert payload["interface"] == "inner"
    assert payload["count"] == 4
    assert set(payload["condition_max_rel"]) == {"f_jump", "star_g_jump"}
    assert payload["max_abs"] >= 0.0
    arrays = json.loads(_json_text(rep.arrays_json_dict()))
    assert arrays["interface"] == "inner"
    assert set(arrays["residuals"]) == {"f_jump", "star_g_jump"}
    assert len(arrays["samples"]) == 4


def test_report_maxima_are_computed_once(monkeypatch):
    import emforms.junction as junction

    calls = []
    max_or_nan = junction.max_or_nan

    def counted(values):
        calls.append(1)
        return max_or_nan(values)

    monkeypatch.setattr(junction, "max_or_nan", counted)
    rep = JumpReport(
        interface="x",
        samples=np.array([(0.0, 1.0, 0.0, 0.0), (0.0, 1.0, 0.5, 0.0)]),
        residuals={"f_jump": [1.0, 0.0], "star_g_jump": [math.nan, 2.0]},
        residuals_rel={"f_jump": [0.5, 0.0], "star_g_jump": [0.25, 0.0]},
    )
    for _ in range(3):
        payload = rep.to_json_dict()
        assert math.isnan(rep.max_abs) and rep.max_rel == 0.5
        assert math.isnan(payload["max_abs"]) and payload["max_rel"] == 0.5
    assert len(calls) == 2
    assert rep.arrays_json_dict()["samples"] is rep.samples  # written by the encoder as arrays, not copied


def test_report_summary_names_the_worst_event():
    samples = np.array([(0.0, 1.0, 0.1, 0.0), (0.0, 1.0, 0.2, 0.0), (0.0, 1.0, 0.3, 0.0)])
    rep = JumpReport(
        interface="x",
        samples=samples,
        residuals={"a": np.array([1.0, 4.0, 2.0]), "b": np.array([3.0, 0.0, 5.0])},
        residuals_rel={"a": np.array([0.1, 0.4, 0.2]), "b": np.array([0.3, 0.0, 0.05])},
    )
    summary = rep.to_json_dict()
    assert summary == {
        "interface": "x",
        "count": 3,
        "max_abs": 5.0,
        "max_rel": 0.4,
        "condition_max_abs": {"a": 4.0, "b": 5.0},
        "condition_max_rel": {"a": 0.4, "b": 0.3},
        "worst": {"condition": "a", "event": [0.0, 1.0, 0.2, 0.0], "rel": 0.4},
    }


def test_report_summary_names_the_first_nan_event():
    samples = np.array([(0.0, 1.0, 0.1, 0.0), (0.0, 1.0, 0.2, 0.0), (0.0, 1.0, 0.3, 0.0)])
    rel = {"a": np.array([0.1, 9.0, math.nan]), "b": np.array([0.3, math.nan, 0.0])}
    rep = JumpReport(interface="x", samples=samples, residuals=rel, residuals_rel=rel)
    summary = rep.to_json_dict()
    assert summary["worst"]["condition"] == "b"
    assert summary["worst"]["event"] == [0.0, 1.0, 0.2, 0.0]
    assert math.isnan(summary["worst"]["rel"])
    assert math.isnan(summary["condition_max_rel"]["a"]) and math.isnan(summary["condition_max_rel"]["b"])


def test_report_summary_without_samples():
    # a report over no events has checked nothing: every maximum is NaN
    empty = {"f_jump": np.empty(0), "star_g_jump": np.empty(0)}
    rep = JumpReport(interface="x", samples=np.empty((0, 4)), residuals=empty, residuals_rel=empty)
    summary = rep.to_json_dict()
    assert summary["count"] == 0 and summary["worst"] is None
    assert math.isnan(summary["max_abs"]) and math.isnan(summary["max_rel"])
    for key in ("condition_max_abs", "condition_max_rel"):
        assert list(summary[key]) == ["f_jump", "star_g_jump"]
        assert all(math.isnan(v) for v in summary[key].values())
    assert rep.arrays_json_dict()["samples"].shape == (0, 4)


def test_covariant_report_over_no_events_fails_its_gate(shell):
    sc, sol = shell
    rep = covariant_jump_residual(sol, sol.interfaces[0], np.empty((0, 4)))
    assert rep.to_json_dict()["count"] == 0
    assert not rep.max_rel <= junction_tolerance(sol)
    assert not rep.max_abs <= 0.0


def test_report_arrays_are_read_only(shell):
    sc, sol = shell
    events = sc.interfaces[0].events(6, seed=0)
    u = lab_frame(sol.chart)
    decs = [
        EMDecomposition.of(f, g, u, sol.chart.metric)
        for f, g in ((sol.f_in, sol.g_in), (sol.f_out, sol.g_out))
    ]
    reports = [
        covariant_jump_residual(sol, sol.interfaces[0], events),
        gibbs_jump_residual(*decs, sol.interfaces[0], u, sol.chart.metric, events),
    ]
    for rep in reports:
        max_abs, max_rel = rep.max_abs, rep.max_rel
        assert isinstance(rep.samples, np.ndarray) and rep.samples.shape == (6, 4)
        for values in (rep.samples, *rep.residuals.values(), *rep.residuals_rel.values()):
            assert isinstance(values, np.ndarray)
            with pytest.raises(ValueError):
                values[0] = 1.0
        assert (rep.max_abs, rep.max_rel) == (max_abs, max_rel)
        # the caller's event array is copied, not frozen
        assert rep.samples is not events
    events[0, 0] = 1.0
    assert reports[0].samples[0, 0] == 0.0


# -- Gibbs 3-vector form ------------------------------------------------------


def test_light_front_pins_cross_handedness():
    # A vacuum wavefront moving at c satisfies the covariant conditions
    # exactly; all four 3-vector relations must vanish with it.
    ch = cartesian_chart(C)
    e0 = 7.0
    f_in = form(2, ch.name, {(1, 2): e0 / C, (0, 2): -e0})
    g_in = scale(EPS0, f_in)
    f_out = zero_form(2, ch.name)
    g_out = zero_form(2, ch.name)
    phi = ScalarField.coordinate(1) - C * ScalarField.coordinate(0)
    iface = Interface(phi=phi, chart=ch.name, name="front")
    samples = [(1e-9, C * 1e-9, 0.3, -0.2), (2e-9, C * 2e-9, 1.0, 0.5)]
    u = lab_frame(ch)
    cov = jump_residual(f_in, f_out, g_in, g_out, iface, ch, samples)
    assert cov.max_abs == 0.0
    _, v_n = interface_normal_velocity(iface, u, ch.metric, samples[0])
    assert v_n == pytest.approx(C)
    dec_in = EMDecomposition.of(f_in, g_in, u, ch.metric)
    dec_out = EMDecomposition.of(f_out, g_out, u, ch.metric)
    rep = gibbs_jump_residual(dec_in, dec_out, iface, u, ch.metric, samples)
    assert rep.max_rel <= 1e-15


def test_gibbs_identical_decompositions_vanish(cyl, rng):
    from oracles import random_form

    u = lab_frame(cyl)
    f = random_form(rng, 2, cyl.name)
    g = scale(EPS0, f)
    dec = EMDecomposition.of(f, g, u, cyl.metric)
    iface = radial_interface(cyl.name, 1.0)
    rep = gibbs_jump_residual(dec, dec, iface, u, cyl.metric, [(0, 1.0, 0.5, 0.2)])
    assert rep.max_abs == 0.0


def test_gibbs_requires_a_lab_aligned_frame_at_every_event(cyl, rng):
    from oracles import random_form
    from emforms.forms import VectorField4

    f = random_form(rng, 2, cyl.name)
    dec = EMDecomposition.of(f, scale(EPS0, f), lab_frame(cyl), cyl.metric)
    iface = radial_interface(cyl.name, 1.0)
    # lab-aligned where z = 0.2 only: the first event passes, the second does not
    zero = ScalarField.zero()
    tilted = VectorField4(
        (ScalarField.constant(1.0 / C), zero, zero, ScalarField.coordinate(3) - 0.2), cyl.name
    )
    events = [(0.0, 1.0, 0.5, 0.2), (0.0, 1.0, 0.5, 0.7), (0.0, 1.0, 0.9, 0.9)]
    with pytest.raises(ValueError, match=r"lab-aligned.*\(0\.0, 1\.0, 0\.5, 0\.7\)"):
        gibbs_jump_residual(dec, dec, iface, tilted, cyl.metric, events)
    rep = gibbs_jump_residual(dec, dec, iface, lab_frame(cyl), cyl.metric, events)
    assert rep.max_abs == 0.0


def test_gibbs_shell_solution(shell):
    _, sol = shell
    u = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, u, sol.chart.metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, u, sol.chart.metric)
    for iface in sol.interfaces:
        rep = gibbs_jump_residual(dec_in, dec_out, iface, u, sol.chart.metric, iface.events(12, seed=1))
        assert rep.max_rel <= 1e-10


def test_gibbs_sphere_solution():
    from emforms.sphere import SphereScenario, solve_sphere

    mat = MaterialParams(eps_r=4.0, mu_r=2.0)
    a = 0.05
    sc = SphereScenario(a=a, omega=1e-5 * mat.c / a, e0=1000.0, mat=mat)
    sol, _ = solve_sphere(sc)
    u = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, u, sol.chart.metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, u, sol.chart.metric)
    events = [(0.0, a, th, 0.4) for th in np.linspace(0.3, math.pi - 0.3, 10)]
    rep = gibbs_jump_residual(dec_in, dec_out, sol.interfaces[0], u, sol.chart.metric, events)
    assert rep.max_rel <= 1e-9


# -- the Gibbs relations on stacked arrays against lists of arrays ------------


def assert_gibbs_equals_lists(dec_in, dec_out, iface, frame, metric, events):
    """The normal, v_N and every Gibbs residual of the stacked kernel equal
    those of the list oracle, value for value."""
    from oracles import list_gibbs_residuals, list_normal_velocity

    events = np.array(events, dtype=float)
    normal, v_n = junction.interface_normal_velocity(iface, frame, metric, events)
    want_normal, want_v = list_normal_velocity(iface, frame, metric, events)
    assert normal.shape == (4, len(events))
    for got, want in zip(normal, want_normal):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(v_n, want_v, equal_nan=True)
    rep = gibbs_jump_residual(dec_in, dec_out, iface, frame, metric, events)
    wanted = list_gibbs_residuals(dec_in, dec_out, iface, frame, metric, events)
    for got, want in zip((rep.residuals, rep.residuals_rel), wanted):
        assert list(got) == list(want)
        for name, values in want.items():
            assert np.array_equal(got[name], values, equal_nan=True), name


def side_pairs(sol):
    return (sol.f_in, sol.g_in), (sol.f_out, sol.g_out)


@pytest.mark.parametrize("n", [1, 12, 4097])
def test_stacked_gibbs_equals_lists_on_the_shell(shell, n):
    _, sol = shell
    u = lab_frame(sol.chart)
    decs = [EMDecomposition.of(f, g, u, sol.chart.metric) for f, g in side_pairs(sol)]
    for iface in sol.interfaces:
        assert_gibbs_equals_lists(*decs, iface, u, sol.chart.metric, iface.events(n, seed=1))


@pytest.mark.parametrize("n", [1, 12])
def test_stacked_gibbs_equals_lists_on_the_sphere(n):
    from emforms.sphere import SphereScenario, solve_sphere

    mat = MaterialParams(eps_r=4.0, mu_r=2.0)
    sc = SphereScenario(a=0.05, omega=0.01 * C / 0.05, e0=1000.0, mat=mat)
    sol, _ = solve_sphere(sc)
    u = lab_frame(sol.chart)
    decs = [EMDecomposition.of(f, g, u, sol.chart.metric) for f, g in side_pairs(sol)]
    events = sc.interfaces[0].events(n, seed=4)
    assert_gibbs_equals_lists(*decs, sol.interfaces[0], u, sol.chart.metric, events)


def test_stacked_gibbs_equals_lists_on_a_light_front():
    # the light front of test_light_front_pins_cross_handedness, where v_N = c
    ch = cartesian_chart(C)
    f_in = form(2, ch.name, {(1, 2): 7.0 / C, (0, 2): -7.0})
    u = lab_frame(ch)
    dec_in = EMDecomposition.of(f_in, scale(EPS0, f_in), u, ch.metric)
    dec_out = EMDecomposition.of(zero_form(2, ch.name), zero_form(2, ch.name), u, ch.metric)
    phi = ScalarField.coordinate(1) - C * ScalarField.coordinate(0)
    iface = Interface(phi=phi, chart=ch.name, name="front")
    samples = [(1e-9, C * 1e-9, 0.3, -0.2), (2e-9, C * 2e-9, 1.0, 0.5)]
    assert_gibbs_equals_lists(dec_in, dec_out, iface, u, ch.metric, samples)


def test_stacked_gibbs_equals_lists_on_random_decompositions(cyl, rng):
    from oracles import random_form

    u = lab_frame(cyl)
    iface = radial_interface(cyl.name, 1.0)
    events = [(0, 1.0, 0.5, 0.2), (0.3, 1.0, 2.5, -0.7), (1.0, 1.0, 0.1, 0.9)]
    for _ in range(10):
        f, other = random_form(rng, 2, cyl.name), random_form(rng, 2, cyl.name)
        dec = EMDecomposition.of(f, scale(EPS0, f), u, cyl.metric)
        assert_gibbs_equals_lists(dec, dec, iface, u, cyl.metric, events)
        dec_other = EMDecomposition.of(other, scale(EPS0, other), u, cyl.metric)
        assert_gibbs_equals_lists(dec, dec_other, iface, u, cyl.metric, events)


def test_gibbs_vanishes_on_covariant_kernel(cyl):
    """Equivalence of the covariant and 3-vector forms on a moving interface.

    Jumps are parametrised by transverse (e, b) pairs; both residual sets
    are linear in the jump. Jumps in the numeric kernel of the covariant
    map must also annihilate the 3-vector residuals, and jumps outside it
    must excite them. The analogous excitation block is exercised with
    (d, h) pairs through [star G] ^ dPhi.
    """
    from emforms.forms import basis_indices, wedge

    u = lab_frame(cyl)
    w = 0.4 * C  # subluminal moving interface
    r0 = 1.0
    t0 = 1e-9
    phi = ScalarField.coordinate(1) - (r0 + w * ScalarField.coordinate(0))
    iface = Interface(phi=phi, chart=cyl.name, name="moving")
    ev = (t0, r0 + w * t0, 0.8, 0.3)
    dphi = iface.gradient()
    zero1 = zero_form(1, cyl.name)
    zero2 = zero_form(2, cyl.name)
    dec_zero = EMDecomposition.of(zero2, zero2, u, cyl.metric)

    def pair_forms(weights, block):
        # weights are commensurate: (e, c b) for the field block and
        # (d, h/c) for the excitation block
        comps = list(weights)
        first = form(1, cyl.name, {(i,): comps[i - 1] for i in (1, 2, 3)})
        second = form(1, cyl.name, {(i,): comps[i + 2] for i in (1, 2, 3)})
        if block == "field":
            f_jump = recompose(first, scale(1.0 / C, second), u, cyl.metric)
            g_jump = zero2
        else:
            # d ^ U~ - star((h/c) ^ U~) realised through the same recomposer
            f_jump = zero2
            g_jump = recompose(first, scale(1.0 / C, second), u, cyl.metric)
        return f_jump, g_jump

    for block, jump_form_of, gibbs_names in (
        ("field", lambda f, g: f, ("normal_b", "tangential_e")),
        ("excitation", lambda f, g: g, ("normal_d", "tangential_h")),
    ):
        rows = []
        for j in range(6):
            weights = [0.0] * 6
            weights[j] = 1.0
            f_jump, g_jump = pair_forms(weights, block)
            source = jump_form_of(f_jump, g_jump)
            if block == "excitation":
                from emforms.forms import hodge_star

                source = hodge_star(cyl.metric, source)
            jf = wedge(source, dphi)
            rows.append([evaluate(jf, ev)[k] for k in basis_indices(3)])
        a_cov = np.asarray(rows, dtype=float).T
        row_max = np.abs(a_cov).max(axis=1)
        a_cov = a_cov[row_max > 0.0] / row_max[row_max > 0.0, None]
        _, s, vt = np.linalg.svd(a_cov)
        kernel = [vt[i] for i in range(6) if i >= len(s) or s[i] < 1e-10 * s[0]]
        assert kernel, "covariant map should be rank-deficient on 6 jump dofs"

        def gibbs_rel(weights):
            f_jump, g_jump = pair_forms(weights, block)
            dec_out = EMDecomposition.of(f_jump, g_jump, u, cyl.metric)
            rep = gibbs_jump_residual(dec_zero, dec_out, iface, u, cyl.metric, [ev])
            return max(max(rep.residuals_rel[name]) for name in gibbs_names)

        for vec in kernel:
            assert gibbs_rel(vec) <= 1e-10
        # a tangential jump with no partner is off-kernel and must excite
        assert gibbs_rel([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]) > 1e-3
