import math

import numpy as np
import pytest

from emforms.junction import covariant_jump_residual, sample_box
from emforms.media import EMDecomposition, MaterialParams, apply_constitutive
from emforms import forms, sphere
from emforms.solutions import MatchingError, check_closed_forms, verify_solution
from emforms.spacetime import lab_frame, rotating_velocity
from emforms.sphere import (
    AZIMUTH_AXIS,
    SphereScenario,
    _field_basis,
    closed_form_constants,
    match_sphere_constants,
    solve_sphere,
    truncated_excitation,
)
from one_event import component_max, evaluate, value
from oracles import sphere_potential_basis

C = 299792458.0


def scenario(eps_r=4.0, mu_r=2.0, a=0.05, beta=1e-5, e0=1000.0):
    mat = MaterialParams(eps_r, mu_r)
    return SphereScenario(a=a, omega=beta * mat.c / a, e0=e0, mat=mat)


def random_scenario(rng):
    return scenario(
        eps_r=float(rng.uniform(1.1, 10.0)),
        mu_r=float(rng.uniform(0.3, 4.0)),
        a=float(rng.uniform(0.01, 0.5)),
        beta=float(rng.uniform(1e-7, 0.05)),
        e0=float(rng.uniform(10.0, 1e5)),
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(a=-1.0)
    mat = MaterialParams(2.0, 1.0)
    with pytest.raises(ValueError):
        SphereScenario(a=1.0, omega=mat.c, e0=1.0, mat=mat)
    with pytest.warns(UserWarning):
        SphereScenario(a=1.0, omega=0.2 * mat.c, e0=1.0, mat=mat)


def test_non_finite_constants_raise():
    mat = MaterialParams(4.0, 2.0)
    with pytest.raises(ValueError, match="rotation rate must be finite, got nan"):
        SphereScenario(a=0.05, omega=math.nan, e0=1000.0, mat=mat)
    # 3 E0 overflows in K0 = 3 E0 / (eps_r + 2), the first constant checked
    with pytest.raises(MatchingError, match="closed-form k0 = inf is not finite"):
        solve_sphere(SphereScenario(a=10.0, omega=1.0, e0=1e308, mat=mat))


@pytest.mark.parametrize("name", ["k0", "k1", "p0", "p1"])
def test_closed_form_off_by_5e_9_relative_fails_the_cross_check(name):
    # matched constants agree with their closed forms to about 1e-14; a
    # closed form moved by 5e-9 of itself must not pass as a match
    sc = scenario(beta=0.01)
    matched = vars(match_sphere_constants(sc))
    closed = vars(closed_form_constants(sc))
    scales = vars(sphere._constant_scales(sc, sc.e0))
    check_closed_forms(matched, closed, scales)
    closed[name] *= 1.0 + 5e-9
    with pytest.raises(MatchingError, match=f"matched {name} = .* disagrees with closed form"):
        check_closed_forms(matched, closed, scales)


def test_vacuum_sphere_constants():
    sc = scenario(eps_r=1.0, mu_r=1.0, beta=1e-4)
    matched = match_sphere_constants(sc)
    assert matched.k0 == pytest.approx(sc.e0, rel=1e-12)
    assert abs(matched.k1) <= 1e-12 * sc.e0 / C**2
    assert abs(matched.p0) <= 1e-12 * sc.e0 * sc.a**3
    assert abs(matched.p1) <= 1e-12 * sc.e0 * sc.a**5 / C**2


def test_matched_constants_equal_closed_forms(rng):
    # random spheres, then the corners of the sweep's ranges
    corners = [
        scenario(eps_r=eps_r, mu_r=mu_r, beta=beta)
        for beta in (1e-7, 0.05)
        for eps_r in (1.1, 10.0)
        for mu_r in (0.3, 4.0)
    ]
    for sc in [random_scenario(rng) for _ in range(8)] + corners:
        matched = match_sphere_constants(sc, seed=4)
        closed = closed_form_constants(sc)
        scales = {
            "k0": sc.e0,
            "k1": sc.e0 / C**2,
            "p0": sc.e0 * sc.a**3,
            "p1": sc.e0 * sc.a**5 / C**2,
        }
        for name, ref in scales.items():
            got, want = getattr(matched, name), getattr(closed, name)
            assert abs(got - want) <= 1e-9 * max(abs(want), ref), name


def test_matching_works_at_zero_rotation():
    sc = scenario(beta=0.0)
    assert sc.omega == 0.0
    matched = match_sphere_constants(sc)
    closed = closed_form_constants(sc)
    assert matched.k0 == pytest.approx(closed.k0, rel=1e-12)
    assert matched.k1 == pytest.approx(closed.k1, rel=1e-9)
    assert matched.p0 == pytest.approx(closed.p0, rel=1e-12)
    assert matched.p1 == pytest.approx(closed.p1, rel=1e-9)


def test_rotational_amplitude_matches_classical_magnetostatics():
    # Independent oracle for mu_r = 1: the interior quadrupole of a rotating
    # polarized sphere follows from plain vector-potential matching against
    # the convected bound-surface-charge current K = sigma_b v with
    # sigma_b = P cos(th), P = eps0 (eps_r - 1) E_interior. Matching
    # A_phi = C r^2 sin(th)cos(th) inside to D sin(th)cos(th)/r^3 outside
    # with an H_theta jump of K gives 5 C = mu0 P Omega, i.e.
    # K1 = (eps_r - 1) K0 / (5 c^2).
    sc = scenario(eps_r=7.0, mu_r=1.0, beta=1e-4)
    matched = match_sphere_constants(sc)
    mu0 = MaterialParams.vacuum().mu0
    eps0 = MaterialParams.vacuum().eps0
    p_bound = eps0 * (sc.mat.eps_r - 1.0) * matched.k0
    want_k1 = mu0 * p_bound / 5.0
    assert matched.k1 == pytest.approx(want_k1, rel=1e-10)
    assert matched.p1 == pytest.approx(sc.a**5 * want_k1, rel=1e-10)


def test_interior_fields_first_order(rng):
    sc = scenario(eps_r=4.0, mu_r=2.0, beta=1e-5)
    sol, const = solve_sphere(sc)
    frame = lab_frame(sol.chart)
    dec = EMDecomposition.of(sol.f_in, sol.g_in, frame, sol.chart.metric)
    e_pref = const.k0 / sc.mat.c
    for _ in range(20):
        r = float(rng.uniform(0.05 * sc.a, 0.98 * sc.a))
        th = float(rng.uniform(0.2, math.pi - 0.2))
        ev = (0.0, r, th, float(rng.uniform(0, 2 * math.pi)))
        e_vals = evaluate(dec.e, ev)
        assert e_vals[(1,)] == pytest.approx(-e_pref * math.cos(th), rel=1e-11)
        assert e_vals[(2,)] == pytest.approx(e_pref * math.sin(th) * r, rel=1e-11)
        b_vals = evaluate(dec.b, ev)
        b_pref = sc.omega * const.k1 * r / sc.mat.c
        assert b_vals[(1,)] == pytest.approx(
            b_pref * (3 * math.cos(th) ** 2 - 1), rel=1e-9, abs=1e-9 * abs(b_pref)
        )
        assert b_vals[(2,)] == pytest.approx(
            -3 * b_pref * math.cos(th) * math.sin(th) * r, rel=1e-9, abs=1e-9 * abs(b_pref) * r
        )


def test_exterior_fields_first_order(rng):
    sc = scenario(eps_r=4.0, mu_r=2.0, beta=1e-5)
    sol, const = solve_sphere(sc)
    frame = lab_frame(sol.chart)
    dec = EMDecomposition.of(sol.f_out, sol.g_out, frame, sol.chart.metric)
    c = sc.mat.c
    for _ in range(10):
        r = float(rng.uniform(1.02 * sc.a, 5.0 * sc.a))
        th = float(rng.uniform(0.2, math.pi - 0.2))
        ev = (0.0, r, th, 0.3)
        e_vals = evaluate(dec.e, ev)
        want_r = -sc.e0 * math.cos(th) / c + 2 * const.p0 * math.cos(th) / (c * r**3)
        want_th = sc.e0 * math.sin(th) * r / c + const.p0 * math.sin(th) / (c * r**2)
        assert e_vals[(1,)] == pytest.approx(want_r, rel=1e-11)
        assert e_vals[(2,)] == pytest.approx(want_th, rel=1e-11)
        b_vals = evaluate(dec.b, ev)
        b_pref = sc.omega * const.p1 / (c * r**4)
        assert b_vals[(1,)] == pytest.approx(
            b_pref * (3 * math.cos(th) ** 2 - 1), rel=1e-9, abs=1e-9 * abs(b_pref)
        )
        assert b_vals[(2,)] == pytest.approx(
            2 * b_pref * math.cos(th) * math.sin(th) * r, rel=1e-9, abs=1e-9 * abs(b_pref) * r
        )


def test_quadrupole_decay_law():
    sc = scenario(beta=1e-4)
    sol, _ = solve_sphere(sc)
    frame = lab_frame(sol.chart)
    dec = EMDecomposition.of(sol.f_out, sol.g_out, frame, sol.chart.metric)
    th = 0.9
    near = evaluate(dec.b, (0.0, sc.a, th, 0.0))
    far = evaluate(dec.b, (0.0, 10.0 * sc.a, th, 0.0))
    assert far[(1,)] / near[(1,)] == pytest.approx(1e-4, rel=1e-9)


def test_vacuum_material_kills_multipoles():
    sc = scenario(eps_r=1.0, mu_r=1.0, beta=1e-3)
    sol, const = solve_sphere(sc)
    assert const.k0 == pytest.approx(sc.e0, rel=1e-14)
    assert const.k1 == const.p0 == const.p1 == 0.0
    frame = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, sol.chart.metric)
    dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, sol.chart.metric)
    for r in (0.3 * sc.a, 0.9 * sc.a):
        ev = (0.0, r, 1.0, 0.2)
        e_in = evaluate(dec_in.e, ev)
        e_out = evaluate(dec_out.e, ev)
        ref = sc.e0 / sc.mat.c
        for k in e_in:
            assert abs(e_in[k] - e_out[k]) <= 1e-12 * ref
        assert component_max(dec_in.b, ev) <= 1e-12 * ref / sc.mat.c


def test_field_basis_is_d_of_the_potentials():
    """Each written component of the field basis equals that of d of its
    potential, by dual numbers, at 500 events of each region of a solved
    sphere, to 1e-14 of the component's largest magnitude there."""
    sc = scenario()
    sol, _ = solve_sphere(sc)
    rng = np.random.default_rng(7)
    events = np.concatenate([sample_box(region.box, 500, rng) for region in sol.regions])
    basis = _field_basis(sc.chart)
    potentials = sphere_potential_basis(sc.chart)
    assert basis.keys() == potentials.keys()
    for name, potential in potentials.items():
        want = forms.exterior_derivative(potential)
        assert basis[name].components.keys() == want.components.keys(), name
        got, expected = forms.evaluate(basis[name], events), forms.evaluate(want, events)
        for idx in want.components:
            largest = np.abs(expected[idx]).max()
            assert largest > 0.0, (name, idx)
            assert np.abs(got[idx] - expected[idx]).max() <= 1e-14 * largest, (name, idx)


def test_truncated_excitation_matches_exact_to_second_order():
    sc = scenario(eps_r=3.0, mu_r=1.5, beta=1e-3)
    chart = sc.chart
    basis = _field_basis(chart)
    closed = closed_form_constants(sc)
    from emforms.forms import add, scale

    f0 = add(scale(closed.k0, basis["uniform_t"]), scale(0.0, basis["quad_in"]))
    f1 = scale(closed.k1, basis["quad_in"])
    trunc = truncated_excitation(f0, f1, sc.omega, sc.mat, chart)
    v = rotating_velocity(chart, sc.omega, AZIMUTH_AXIS)
    exact = apply_constitutive(add(f0, scale(sc.omega, f1)), v, sc.mat, chart.metric)
    eps2 = sc.expansion_parameter**2
    for ev in [(0.0, 0.4 * sc.a, 1.1, 0.3), (0.0, 0.9 * sc.a, 2.0, 1.0)]:
        tv, xv = evaluate(trunc, ev), evaluate(exact, ev)
        scale_ref = max(abs(val) for val in xv.values())
        for k in tv:
            assert abs(tv[k] - xv[k]) <= 10.0 * eps2 * scale_ref


def test_junction_residual_scales_quadratically():
    rels = []
    betas = (1e-3, 1e-2)
    for beta in betas:
        sc = scenario(eps_r=4.0, mu_r=2.0, beta=beta)
        sol, _ = solve_sphere(sc)
        events = sc.interfaces[0].events(12, seed=1)
        rep = covariant_jump_residual(sol, sol.interfaces[0], events)
        assert rep.max_rel <= 10.0 * sc.expansion_parameter**2
        rels.append(rep.max_rel)
    assert rels[1] / rels[0] == pytest.approx(100.0, rel=0.05)


def test_maxwell_residual_first_order(rng):
    sc = scenario(eps_r=5.0, mu_r=0.8, beta=1e-3)
    sol, _ = solve_sphere(sc)
    rep = verify_solution(sol, samples_per_region=80, seed=2)
    assert rep.passed
    assert rep.regions["medium"]["df_max_rel"] <= 1e-10
    assert rep.regions["medium"]["dstar_g_max_rel"] <= 10.0 * sc.expansion_parameter**2


def test_interface_events_deterministic():
    sc = scenario()
    a = sc.interfaces[0].events(32, seed=5)
    b = sc.interfaces[0].events(32, seed=5)
    assert np.array_equal(a, b) and len(a) == 32
    assert all(ev[1] == sc.a for ev in a)
    # the seeded half keeps the reference draw order: t, theta, phi per event
    rng = np.random.default_rng(5)
    ref = [
        (float(rng.uniform(0.0, sc.a / sc.mat.c)), sc.a, float(rng.uniform(0.1, math.pi - 0.1)),
         float(rng.uniform(0.0, 2.0 * math.pi)))
        for _ in range(16)
    ]
    assert np.array_equal(a[16:], ref)
    (surface,) = sc.interfaces
    assert value(surface.phi, (0.0, sc.a, 1.0, 0.0)) == 0.0
