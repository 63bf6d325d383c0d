import math
from dataclasses import replace

import numpy as np
import pytest

from emforms.forms import interior_product, hodge_star, scale
from emforms.media import EMDecomposition, MaterialParams, bound_sources, polarization
from emforms.cylinder import (
    CylinderScenario,
    closed_form_constants,
    cylinder_bound_sources,
    match_cylinder_constants,
    nonrelativistic_limit,
    pellegrini_swift_field,
    solve_cylinder,
    wilson_wilson_V12,
)
from emforms.solutions import MatchingError, solve_matching_system, verify_solution
from emforms.spacetime import lab_frame

from one_event import component_max, evaluate
from oracles import v12_quadrature

C = 299792458.0
EPS0 = MaterialParams.vacuum().eps0
MU0 = MaterialParams.vacuum().mu0


def scenario(eps_r=6.0, mu_r=1.0, omega=100.0, r1=0.02, r2=0.04, b0=1.0):
    return CylinderScenario(r1=r1, r2=r2, omega=omega, b0=b0, mat=MaterialParams(eps_r, mu_r))


def random_scenario(rng):
    r1 = float(rng.uniform(0.005, 0.05))
    r2 = r1 * float(rng.uniform(1.5, 4.0))
    beta = float(rng.uniform(1e-6, 0.3))
    return CylinderScenario(
        r1=r1,
        r2=r2,
        omega=beta * C / r2,
        b0=float(rng.uniform(0.1, 5.0)),
        mat=MaterialParams(float(rng.uniform(1.1, 10.0)), float(rng.uniform(0.3, 4.0))),
    )


def closed_decompositions(sc):
    """Frozen interior/exterior 1-form profiles of the matched solution."""
    c, om, b0 = sc.mat.c, sc.omega, sc.b0
    er, mr, mu0 = sc.mat.eps_r, sc.mat.mu_r, sc.mat.mu0
    em = er * mr
    return {
        "e_in": lambda r: {(1,): -(c**2) * b0 * om * (em - 1) * r / (er * (r**2 * om**2 - c**2))},
        "b_in": lambda r: {(3,): (r**2 * om**2 - em * c**2) * b0 / (er * (r**2 * om**2 - c**2))},
        "d_in": lambda r: {},
        "h_in": lambda r: {(3,): b0 / mu0},
        "e_out": lambda r: {},
        "b_out": lambda r: {(3,): b0},
        "d_out": lambda r: {},
        "h_out": lambda r: {(3,): b0 / mu0},
    }


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(r1=0.04, r2=0.02)
    with pytest.raises(ValueError):
        scenario(r1=-0.01)
    with pytest.raises(ValueError):
        scenario(omega=C / 0.04)


def test_constants_closed_form():
    sc = scenario(eps_r=6.0, mu_r=2.0)
    const = closed_form_constants(sc)
    assert const.c1 == 0.0
    assert const.c2 == pytest.approx(C**3 * sc.b0 * sc.omega * 11.0 / 6.0, rel=1e-15)


def test_matched_constants_equal_closed_forms(rng):
    for _ in range(8):
        sc = random_scenario(rng)
        matched = match_cylinder_constants(sc, seed=3)
        closed = closed_form_constants(sc)
        c_scale = max(abs(closed.c2), C**3 * abs(sc.b0 * sc.omega))
        assert abs(matched.c1) <= 1e-9 * c_scale * sc.r2**2
        assert abs(matched.c2 - closed.c2) <= 1e-9 * c_scale


def test_matched_constants_degenerate_cases():
    # omega = 0 and eps_r mu_r = 1 make the substituted constants trivial
    static = scenario(omega=0.0)
    m = match_cylinder_constants(static)
    assert m.c1 == pytest.approx(0.0, abs=1e-20)
    assert m.c2 == pytest.approx(0.0, abs=1e-12)
    impedance_matched = scenario(eps_r=2.0, mu_r=0.5)
    m2 = match_cylinder_constants(impedance_matched)
    closed = closed_form_constants(impedance_matched)
    assert closed.c2 == 0.0
    assert abs(m2.c2) <= 1e-9 * C**3 * impedance_matched.b0 * impedance_matched.omega


def test_decomposed_fields_match_closed_forms(rng):
    for _ in range(5):
        sc = random_scenario(rng)
        sol, _ = solve_cylinder(sc, seed=1)
        frame = lab_frame(sol.chart)
        dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, sol.chart.metric)
        dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, sol.chart.metric)
        closed = closed_decompositions(sc)
        scale_e = abs(C * sc.b0)
        scale_b = abs(sc.b0)
        for _ in range(10):
            inside = rng.random() < 0.5
            r = float(rng.uniform(sc.r1, sc.r2)) if inside else float(
                rng.uniform(sc.r2 * 1.01, sc.r2 * 2.0)
            )
            ev = (0.0, r, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-1, 1)))
            dec = dec_in if inside else dec_out
            tag = "in" if inside else "out"
            for name, part, fallback in (
                ("e", dec.e, scale_e),
                ("b", dec.b, scale_b),
                ("d", dec.d, EPS0 * scale_e),
                ("h", dec.h, scale_b / MU0),
            ):
                want = closed[f"{name}_{tag}"](r)
                got = evaluate(part, ev)
                for idx, value in got.items():
                    target = want.get(idx, 0.0)
                    tol = 1e-10 * max(abs(target), fallback)
                    assert abs(value - target) <= tol, (name, tag, idx)


def test_interior_excitation_equals_exterior(rng):
    sc = random_scenario(rng)
    sol, _ = solve_cylinder(sc, seed=1)
    chi = sc.mat.eps_r + 1.0 / sc.mat.mu_r
    for _ in range(10):
        r = float(rng.uniform(sc.r1, sc.r2))
        ev = (0.0, r, 1.0, 0.0)
        gi = evaluate(sol.g_in, ev)
        go = evaluate(sol.g_out, ev)
        ref = EPS0 * C * abs(sc.b0) * r
        # cancelling components compare against the magnitude of the
        # constitutive terms that produce them, not the surviving one
        term_scale = EPS0 * chi * 2.0 * component_max(sol.f_in, ev)
        assert abs(go[(1, 2)] - EPS0 * C * sc.b0 * r) <= 1e-12 * ref
        for k in gi:
            assert abs(gi[k] - go[k]) <= 1e-12 * max(ref, term_scale)


def test_vacuum_material_collapses_interior():
    sc = scenario(eps_r=1.0, mu_r=1.0, omega=1000.0)
    sol, const = solve_cylinder(sc)
    assert const.c2 == 0.0
    for r in (0.021, 0.03, 0.039):
        ev = (0.0, r, 0.3, 0.1)
        fi, fo = evaluate(sol.f_in, ev), evaluate(sol.f_out, ev)
        ref = C * abs(sc.b0) * r
        for k in fi:
            assert abs(fi[k] - fo[k]) <= 1e-12 * ref


def test_unit_index_product_kills_electric_part():
    # eps_r mu_r = 1 removes the induced interior e field entirely;
    # the magnetic part still rescales by mu_r = 1/eps_r
    sc = scenario(eps_r=2.0, mu_r=0.5, omega=1000.0)
    sol, _ = solve_cylinder(sc)
    frame = lab_frame(sol.chart)
    dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, sol.chart.metric)
    for r in (0.021, 0.03, 0.039):
        ev = (0.0, r, 0.3, 0.1)
        e_vals = evaluate(dec_in.e, ev)
        assert max(abs(v) for v in e_vals.values()) <= 1e-12 * C * sc.b0
        fo = evaluate(sol.f_out, ev)
        fi = evaluate(sol.f_in, ev)
        assert fi[(1, 2)] == pytest.approx(fo[(1, 2)] / sc.mat.eps_r, rel=1e-12)


def test_maxwell_residuals_exact(rng):
    sc = random_scenario(rng)
    sol, _ = solve_cylinder(sc, seed=5)
    report = verify_solution(sol, samples_per_region=100, seed=11)
    assert report.passed
    for entry in report.regions.values():
        assert entry["df_max_rel"] <= 1e-10
        assert entry["dstar_g_max_rel"] <= 1e-10


def test_non_finite_samples_fail_verification():
    sol, _ = solve_cylinder(scenario())
    report = verify_solution(replace(sol, f_in=scale(math.nan, sol.f_in)), samples_per_region=8)
    assert not report.passed
    assert math.isnan(report.regions["medium"]["df_max_rel"])
    assert report.regions["vacuum_outer"]["df_max_rel"] <= 1e-10


def test_non_finite_matching_rows_raise():
    with pytest.raises(MatchingError, match="non-finite"):
        solve_matching_system([[1.0, 0.0], [0.0, 1.0], [math.nan, 1.0]], [1.0, 2.0, 3.0], "test")
    with pytest.raises(MatchingError):
        solve_cylinder(scenario(omega=math.nan))


def test_non_finite_closed_form_constant_raises():
    # omega enters neither dPhi = dr nor the excitation basis, so the matching
    # rows stay finite and only the closed-form C2 carries the NaN
    with pytest.raises(MatchingError, match="closed-form C2 = nan is not finite"):
        solve_cylinder(scenario(omega=math.nan))


def test_exterior_field_is_closed_exactly():
    sc = scenario()
    sol, _ = solve_cylinder(sc)
    from emforms.forms import exterior_derivative

    df = exterior_derivative(sol.f_out)
    for ev in [(0.0, 0.01, 0.3, 0.0), (0.0, 0.1, 2.0, 0.5)]:
        assert all(v == 0.0 for v in evaluate(df, ev).values())


# -- bound sources -----------------------------------------------------------


def test_bound_sources_closed_vs_module(rng):
    mat = MaterialParams(eps_r=6.0, mu_r=2.0)
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=0.2 * C / 0.04, b0=1.0, mat=mat)
    sol, _ = solve_cylinder(sc)
    frame = lab_frame(sol.chart)
    pi = polarization(sol.f_in, sol.g_in, mat.eps0)
    current_m, rho_m = bound_sources(pi, frame, sol.chart.metric)
    current_c, rho_c, p_c, m_c = cylinder_bound_sources(sc)
    p_m = interior_product(frame, pi)
    m_m = scale(mat.c, interior_product(frame, hodge_star(sol.chart.metric, pi)))
    for _ in range(20):
        r = float(rng.uniform(sc.r1, sc.r2))
        ev = (0.0, r, float(rng.uniform(0, 2 * math.pi)), 0.0)
        for got, want, key in (
            (current_m, current_c, (1, 3)),
            (rho_m, rho_c, (1, 2, 3)),
            (p_m, p_c, (1,)),
            (m_m, m_c, (3,)),
        ):
            gv, wv = evaluate(got, ev)[key], evaluate(want, ev)[key]
            assert abs(gv - wv) <= 1e-10 * abs(wv), key


def test_bound_sources_static_limits():
    sc = scenario(eps_r=3.0, mu_r=2.0, omega=0.0)
    current, rho, p, m = cylinder_bound_sources(sc)
    ev = (0.0, 0.03, 0.0, 0.0)
    assert evaluate(p, ev)[(1,)] == 0.0
    assert evaluate(current, ev)[(1, 3)] == 0.0
    assert evaluate(rho, ev)[(1, 2, 3)] == 0.0
    # static magnetization survives: m_z = eps0 c^2 B0 (mu_r - 1) / mu_r ... via closed form
    want = EPS0 * C**2 * sc.b0 * (C**2 * sc.mat.eps_r * (sc.mat.mu_r - 1.0)) / (
        sc.mat.eps_r * (-(C**2))
    )
    assert evaluate(m, ev)[(3,)] == pytest.approx(want, rel=1e-13)


def test_bound_sources_impedance_matched():
    sc = scenario(eps_r=2.0, mu_r=0.5, omega=500.0)
    _, rho, _, _ = cylinder_bound_sources(sc)
    assert evaluate(rho, (0.0, 0.03, 0.0, 0.0))[(1, 2, 3)] == 0.0


# -- observables ---------------------------------------------------------------


def test_v12_leading_reference_value():
    # mu_r (1 - 1/(mu_r eps_r)) (Omega/2) B0 (r2^2 - r1^2)
    #   = (5/6) * 50 * 0.0012 = 0.05 V for the reference geometry
    sc = scenario()
    assert wilson_wilson_V12(sc, "leading") == pytest.approx(0.05, rel=1e-14)


def test_v12_exact_against_log_oracle():
    for beta in (1e-4, 0.05, 0.3):
        sc = scenario(eps_r=6.0, mu_r=2.0, omega=beta * C / 0.04)
        c, om, b0 = sc.mat.c, sc.omega, sc.b0
        em = sc.mat.eps_r * sc.mat.mu_r
        oracle = (c * c * b0 * (em - 1) / (2 * om * sc.mat.eps_r)) * math.log1p(
            (sc.r2**2 - sc.r1**2) * om**2 / (c * c - sc.r2**2 * om**2)
        )
        assert wilson_wilson_V12(sc, "exact") == pytest.approx(oracle, rel=1e-11)


@pytest.mark.parametrize(
    "eps_r, mu_r, r1",
    [(6.0, 2.0, 0.02), (1.5, 0.5, 0.02), (10.0, 1.0, 0.005), (2.0, 3.0, 0.0399)],
)
def test_v12_closed_form_against_quadrature(eps_r, mu_r, r1):
    for beta in (0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.9, 0.99, 0.999):
        sc = scenario(eps_r=eps_r, mu_r=mu_r, omega=beta * C / 0.04, r1=r1)
        assert wilson_wilson_V12(sc, "exact") == pytest.approx(v12_quadrature(sc), rel=1e-12)


def test_v12_zero_rotation_and_antisymmetry():
    assert wilson_wilson_V12(scenario(omega=0.0), "exact") == 0.0
    sc_plus = scenario(omega=4000.0)
    sc_minus = scenario(omega=-4000.0)
    assert wilson_wilson_V12(sc_plus, "exact") == pytest.approx(
        -wilson_wilson_V12(sc_minus, "exact"), rel=1e-13
    )


def test_v12_exact_vs_leading_small_rotation():
    sc = scenario(omega=1e-4 * C / 0.04)
    exact = wilson_wilson_V12(sc, "exact")
    leading = wilson_wilson_V12(sc, "leading")
    assert abs(exact - leading) / abs(leading) <= 1e-7


@pytest.mark.parametrize("omega", [1e-146, 1e-150, 1e-155, 1e-160, 1e-200, 1e-300, 5e-324])
def test_v12_exact_at_tiny_rotation_is_the_leading_term(omega):
    # (omega / c)^2 is subnormal or 0 here, so log1p loses digits or returns 0,
    # and below about 1e-292 rad/s c^2 / omega overflows (inf * 0 is NaN)
    for sign in (1.0, -1.0):
        sc = scenario(eps_r=6.0, mu_r=2.0, omega=sign * omega)
        exact, leading = wilson_wilson_V12(sc, "exact"), wilson_wilson_V12(sc, "leading")
        assert math.isfinite(exact) and abs(exact - leading) <= 4e-16 * abs(leading)
        assert (exact == 0.0) == (omega == 5e-324)


def test_v12_mode_validation():
    with pytest.raises(ValueError):
        wilson_wilson_V12(scenario(), "wrong")


def test_pellegrini_swift_values():
    sc = scenario()
    assert pellegrini_swift_field(sc, 0.03) == pytest.approx(-2.5, rel=1e-14)
    vac = scenario(eps_r=1.0, mu_r=1.0)
    assert pellegrini_swift_field(vac, 0.03) == 0.0
    with pytest.raises(ValueError):
        pellegrini_swift_field(sc, 0.05)


def test_comparator_differs_by_algebraic_factor():
    sc = scenario(eps_r=6.0, mu_r=2.0)
    r = 0.03
    ww = sc.mat.mu_r * (1 - 1 / (sc.mat.mu_r * sc.mat.eps_r)) * r * sc.omega * sc.b0
    ps = pellegrini_swift_field(sc, r)
    factor = -sc.mat.mu_r * (sc.mat.eps_r - 1) / (sc.mat.eps_r * sc.mat.mu_r - 1)
    assert ps / ww == pytest.approx(factor, rel=1e-13)
    assert ps != pytest.approx(ww)


def test_nonrelativistic_limit_fields():
    sc = scenario(eps_r=6.0, mu_r=2.0, omega=300.0)
    e_lead, b_lead = nonrelativistic_limit(sc)
    r = 0.03
    ev = (0.0, r, 0.0, 0.0)
    want_ratio = sc.mat.mu_r * (1 - 1 / (sc.mat.mu_r * sc.mat.eps_r))
    assert evaluate(e_lead, ev)[(1,)] / (r * sc.omega * sc.b0) == pytest.approx(
        want_ratio, rel=1e-14
    )
    assert evaluate(b_lead, ev)[(3,)] == pytest.approx(sc.mat.mu_r * sc.b0)
    static_e, static_b = nonrelativistic_limit(scenario(eps_r=6.0, mu_r=2.0, omega=0.0))
    assert evaluate(static_e, ev)[(1,)] == 0.0
    assert evaluate(static_b, ev)[(3,)] == pytest.approx(sc.mat.mu_r * sc.b0)


def test_halving_rotation_quarters_discrepancy():
    sols = {}
    for beta in (0.2, 0.1):
        sc = scenario(eps_r=6.0, mu_r=2.0, omega=beta * C / 0.04)
        e_lead, _ = nonrelativistic_limit(sc)
        sol, _ = solve_cylinder(sc)
        frame = lab_frame(sol.chart)
        dec = EMDecomposition.of(sol.f_in, sol.g_in, frame, sol.chart.metric)
        r = 0.03
        ev = (0.0, r, 0.0, 0.0)
        exact = evaluate(dec.e, ev)[(1,)]
        lead = evaluate(e_lead, ev)[(1,)]
        sols[beta] = abs(exact - lead) / abs(lead)
    ratio = sols[0.2] / sols[0.1]
    # discrepancy is quadratic in the rim speed
    assert ratio == pytest.approx(4.0, rel=0.05)


def test_interface_samples_deterministic():
    sc = scenario()
    a = sc.interfaces[1].events(64, seed=9)
    b = sc.interfaces[1].events(64, seed=9)
    assert np.array_equal(a, b)
    assert len(a) == 64
    assert all(ev[1] == sc.r2 for ev in a)
    # the seeded half keeps the reference draw order: t, theta, z per event
    rng = np.random.default_rng(9)
    ref = [
        (float(rng.uniform(0.0, sc.r2 / C)), sc.r2, float(rng.uniform(0.0, 2.0 * math.pi)),
         float(rng.uniform(-sc.r2, sc.r2)))
        for _ in range(32)
    ]
    assert np.array_equal(a[32:], ref)
