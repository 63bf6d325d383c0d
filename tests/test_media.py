import pytest

from emforms.fields import ScalarField
from emforms.forms import (
    exterior_derivative,
    form,
    hodge_star,
    interior_product,
    linear_combine,
    scale,
    zero_form,
)
from emforms.media import (
    EMDecomposition,
    MaterialParams,
    TransversalityError,
    apply_constitutive,
    bound_sources,
    decompose,
    polarization,
    recompose,
)
from emforms.spacetime import cylindrical_chart, lab_frame, rotating_velocity

from one_event import component_max, evaluate, value
from oracles import random_event, random_form, random_poly_trig_field

C = 299792458.0


@pytest.fixture(scope="module")
def cyl():
    return cylindrical_chart(C)


def transverse_pair(rng, chart):
    e = form(1, chart, {(i,): random_poly_trig_field(rng) for i in (1, 2, 3)})
    b = form(1, chart, {(i,): random_poly_trig_field(rng) for i in (1, 2, 3)})
    return e, b


def test_material_params_validation():
    MaterialParams(eps_r=1.0, mu_r=1.0)
    with pytest.raises(ValueError):
        MaterialParams(eps_r=-1.0, mu_r=1.0)
    with pytest.raises(ValueError):
        MaterialParams(eps_r=1.0, mu_r=0.0)
    # the vacuum constants are the fixed SI values, not inputs
    with pytest.raises(TypeError):
        MaterialParams(eps_r=1.0, mu_r=1.0, c=2.0)
    vac = MaterialParams.vacuum()
    assert vac.c**2 * vac.eps0 * vac.mu0 == pytest.approx(1.0, abs=1e-15)


def test_vacuum_constitutive_is_structural(rng, cyl):
    mat = MaterialParams.vacuum()
    u = lab_frame(cyl)
    f = random_form(rng, 2, cyl.name)
    g = apply_constitutive(f, u, mat, cyl.metric)
    # the bracket coefficient vanishes exactly, leaving eps0 F componentwise
    assert set(g.components) == set(f.components)
    for _ in range(5):
        ev = random_event(rng)
        fv, gv = evaluate(f, ev), evaluate(g, ev)
        scale_ref = max(abs(v) for v in fv.values())
        for k in fv:
            assert abs(gv[k] - mat.eps0 * fv[k]) <= 1e-14 * mat.eps0 * scale_ref


def test_constitutive_matches_rotating_medium_closed_form(rng, cyl):
    # alpha dt^dr + beta dr^dth with arbitrary radial profiles, rotating medium
    mat = MaterialParams(eps_r=5.0, mu_r=1.5)
    omega = 2000.0
    em = mat.eps_r * mat.mu_r
    r = ScalarField.coordinate(1)
    from emforms.fields import sin

    alpha, beta = sin(r) * 3.0, r**2 + 1.0
    f = form(2, cyl.name, {(0, 1): alpha, (1, 2): beta})
    v = rotating_velocity(cyl, omega, 2)
    g = apply_constitutive(f, v, mat, cyl.metric)
    for _ in range(10):
        ev = random_event(rng)
        rr = ev[1]
        a_val, b_val = value(alpha, ev), value(beta, ev)
        denom = mat.mu_r * (rr**2 * omega**2 - C**2)
        want_tr = mat.eps0 * (
            a_val * (rr**2 * omega**2 - C**2 * em) + b_val * C**2 * omega * (em - 1.0)
        ) / denom
        want_rth = mat.eps0 * (
            a_val * rr**2 * omega * (1.0 - em) + b_val * (rr**2 * omega**2 * em - C**2)
        ) / denom
        got = evaluate(g, ev)
        assert got[(0, 1)] == pytest.approx(want_tr, rel=1e-12, abs=1e-30)
        assert got[(1, 2)] == pytest.approx(want_rth, rel=1e-12, abs=1e-30)


def test_constitutive_linearity(rng, cyl):
    mat = MaterialParams(eps_r=3.0, mu_r=2.0)
    v = rotating_velocity(cyl, 100.0, 2)
    f1 = random_form(rng, 2, cyl.name)
    f2 = random_form(rng, 2, cyl.name)
    lam = 1.7
    lhs = apply_constitutive(linear_combine([1.0, lam], [f1, f2]), v, mat, cyl.metric)
    rhs = linear_combine(
        [1.0, lam],
        [apply_constitutive(f1, v, mat, cyl.metric), apply_constitutive(f2, v, mat, cyl.metric)],
    )
    for _ in range(5):
        ev = random_event(rng)
        lv, rv = evaluate(lhs, ev), evaluate(rhs, ev)
        scale_ref = max(abs(x) for x in rv.values())
        for k in lv:
            assert abs(lv[k] - rv[k]) <= 1e-12 * scale_ref


def test_static_medium_rest_frame_relations(rng, cyl):
    # with V = U the decomposition obeys d = eps e and h = b / mu
    mat = MaterialParams(eps_r=4.0, mu_r=2.5)
    u = lab_frame(cyl)
    f = random_form(rng, 2, cyl.name)
    g = apply_constitutive(f, u, mat, cyl.metric)
    e, b = decompose(f, u, cyl.metric, "field")
    d, h = decompose(g, u, cyl.metric, "excitation")
    eps = mat.eps_r * mat.eps0
    mu = mat.mu_r * mat.mu0
    for _ in range(5):
        ev = random_event(rng)
        ev_, dv = evaluate(e, ev), evaluate(d, ev)
        bv, hv = evaluate(b, ev), evaluate(h, ev)
        se = max(max(abs(x) for x in ev_.values()), 1e-300)
        sb = max(max(abs(x) for x in bv.values()), 1e-300)
        for k in dv:
            assert abs(dv[k] - eps * ev_[k]) <= 1e-12 * eps * se
            assert abs(hv[k] - bv[k] / mu) <= 1e-12 * sb / mu


def test_decompose_axial_field(cyl):
    b0 = 1.5
    r = ScalarField.coordinate(1)
    f_out = form(2, cyl.name, {(1, 2): C * b0 * r})
    u = lab_frame(cyl)
    e, b = decompose(f_out, u, cyl.metric, "field")
    assert not e.components
    for ev in [(0, 0.5, 0.1, 0), (0, 2.0, 1.0, 0.3)]:
        vals = evaluate(b, ev)
        assert vals[(3,)] == pytest.approx(b0, rel=1e-13)
        assert vals[(1,)] == vals[(2,)] == 0.0
    g_out = scale(MaterialParams.vacuum().eps0, f_out)
    d, h = decompose(g_out, u, cyl.metric, "excitation")
    assert not d.components
    mu0 = MaterialParams.vacuum().mu0
    assert evaluate(h, (0, 1.0, 0, 0))[(3,)] == pytest.approx(b0 / mu0, rel=1e-13)


def test_decompose_zero(cyl):
    u = lab_frame(cyl)
    e, b = decompose(zero_form(2, cyl.name), u, cyl.metric, "field")
    assert not e.components and not b.components
    with pytest.raises(ValueError):
        decompose(zero_form(2, cyl.name), u, cyl.metric, "nonsense")


def test_decompose_transversality(rng, cyl):
    u = lab_frame(cyl)
    events = [random_event(rng) for _ in range(100)]
    for _ in range(50):
        f = random_form(rng, 2, cyl.name)
        kind = "field" if rng.random() < 0.5 else "excitation"
        first, second = decompose(f, u, cyl.metric, kind)
        for part in (first, second):
            res = interior_product(u, part)
            for ev in events:
                scale_ref = max(component_max(part, ev), 1e-300)
                assert abs(value(res.component(()), ev)) <= 1e-12 * scale_ref


def test_recompose_axial(cyl):
    b0 = 2.0
    u = lab_frame(cyl)
    b = form(1, cyl.name, {(3,): b0})
    f = recompose(zero_form(1, cyl.name), b, u, cyl.metric)
    for rr in (0.5, 1.0, 3.0):
        vals = evaluate(f, (0, rr, 0.2, 0))
        assert vals[(1, 2)] == pytest.approx(C * b0 * rr, rel=1e-13)
        others = [v for k, v in vals.items() if k != (1, 2)]
        assert max(abs(v) for v in others) <= 1e-13 * C * b0 * rr


def test_recompose_roundtrip(rng, cyl):
    u = lab_frame(cyl)
    for _ in range(20):
        e, b = transverse_pair(rng, cyl.name)
        f = recompose(e, b, u, cyl.metric)
        e2, b2 = decompose(f, u, cyl.metric, "field")
        for _ in range(3):
            ev = random_event(rng)
            for got, want in ((e2, e), (b2, b)):
                gv, wv = evaluate(got, ev), evaluate(want, ev)
                scale_ref = max(max(abs(v) for v in wv.values()), 1e-300)
                for k in gv:
                    assert abs(gv[k] - wv[k]) <= 1e-11 * scale_ref


def test_decompose_then_recompose_identity(rng, cyl):
    u = lab_frame(cyl)
    for _ in range(10):
        f = random_form(rng, 2, cyl.name)
        e, b = decompose(f, u, cyl.metric, "field")
        f2 = recompose(e, b, u, cyl.metric)
        for _ in range(3):
            ev = random_event(rng)
            fv, gv = evaluate(f, ev), evaluate(f2, ev)
            scale_ref = max(abs(v) for v in fv.values())
            for k in fv:
                assert abs(fv[k] - gv[k]) <= 1e-11 * scale_ref


def test_recompose_transversality_check(rng, cyl):
    u = lab_frame(cyl)
    bad = form(1, cyl.name, {(0,): 1.0, (1,): 1.0})
    good = form(1, cyl.name, {(1,): 1.0})
    events = [random_event(rng) for _ in range(3)]
    with pytest.raises(TransversalityError):
        recompose(bad, good, u, cyl.metric, check_events=events)
    recompose(good, good, u, cyl.metric, check_events=events)


def test_polarization_vacuum(rng, cyl):
    mat = MaterialParams.vacuum()
    u = lab_frame(cyl)
    f = random_form(rng, 2, cyl.name)
    g = apply_constitutive(f, u, mat, cyl.metric)
    pi = polarization(f, g, mat.eps0)
    for _ in range(5):
        ev = random_event(rng)
        scale_ref = mat.eps0 * max(abs(v) for v in evaluate(f, ev).values())
        assert max(abs(v) for v in evaluate(pi, ev).values()) <= 1e-14 * scale_ref


def test_bound_sources_zero(cyl):
    u = lab_frame(cyl)
    current, rho = bound_sources(zero_form(2, cyl.name), u, cyl.metric)
    assert not current.components and not rho.components


def test_bound_sources_reconstruction(rng, cyl):
    # J ^ U~ + rho must rebuild -d star Pi, with both parts U-transverse
    from emforms.forms import add, lower_index, wedge

    u = lab_frame(cyl)
    u_flat = lower_index(cyl.metric, u)
    for _ in range(5):
        pi = random_form(rng, 2, cyl.name)
        current, rho = bound_sources(pi, u, cyl.metric)
        jhat = scale(-1.0, exterior_derivative(hodge_star(cyl.metric, pi)))
        rebuilt = add(wedge(current, u_flat), rho)
        for _ in range(3):
            ev = random_event(rng)
            jv, rv = evaluate(jhat, ev), evaluate(rebuilt, ev)
            scale_ref = max(max(abs(v) for v in jv.values()), 1e-300)
            for k in jv:
                assert abs(jv[k] - rv[k]) <= 1e-12 * scale_ref
            # transversality residual scales with the contraction i_U jhat
            contraction_scale = max(scale_ref / C, 1e-300)
            for part in (current, rho):
                res = interior_product(u, part)
                assert component_max(res, ev) <= 1e-12 * contraction_scale


def test_interior_maxwell_identity_for_shell(cyl):
    # eps0 d star F = -d star Pi inside the source-free rotating shell
    from emforms.cylinder import CylinderScenario, solve_cylinder

    mat = MaterialParams(eps_r=6.0, mu_r=2.0)
    omega = 0.2 * mat.c / 0.04
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=omega, b0=1.0, mat=mat)
    sol, _ = solve_cylinder(sc)
    pi = polarization(sol.f_in, sol.g_in, mat.eps0)
    lhs = scale(mat.eps0, exterior_derivative(hodge_star(cyl.metric, sol.f_in)))
    rhs = scale(-1.0, exterior_derivative(hodge_star(cyl.metric, pi)))
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(10):
        ev = (0.0, float(rng.uniform(sc.r1, sc.r2)), float(rng.uniform(0, 6.0)), 0.1)
        lv, rv = evaluate(lhs, ev), evaluate(rhs, ev)
        scale_ref = max(max(abs(v) for v in rv.values()), 1e-300)
        for k in lv:
            assert abs(lv[k] - rv[k]) <= 1e-10 * scale_ref


def test_decomposition_container(rng, cyl):
    mat = MaterialParams(eps_r=2.0, mu_r=1.0)
    u = lab_frame(cyl)
    f = random_form(rng, 2, cyl.name)
    g = apply_constitutive(f, u, mat, cyl.metric)
    dec = EMDecomposition.of(f, g, u, cyl.metric)
    assert dec.e.grade == dec.b.grade == dec.d.grade == dec.h.grade == 1
    assert dec.frame is u
