"""Acceptance suite: one test per shipping criterion, fixed seeds.

Each test prints a PASS line after its assertions so a -s run shows the
criterion-by-criterion record.
"""

import math
import time

import numpy as np
import pytest

from emforms.forms import (
    basis_indices,
    exterior_derivative,
    form,
    hodge_star,
    interior_product,
    linear_combine,
    wedge,
)
from emforms.media import (
    EMDecomposition,
    MaterialParams,
    bound_sources,
    decompose,
    polarization,
    recompose,
)
from emforms.cylinder import (
    CylinderScenario,
    closed_form_constants as cylinder_closed_constants,
    cylinder_bound_sources,
    match_cylinder_constants,
    pellegrini_swift_field,
    solve_cylinder,
    wilson_wilson_V12,
)
from emforms.solutions import verify_solution
from emforms.spacetime import cylindrical_chart, lab_frame, spherical_chart
from emforms.sphere import (
    SphereScenario,
    closed_form_constants as sphere_closed_constants,
    match_sphere_constants,
    solve_sphere,
)

from one_event import component_max, evaluate
from oracles import hodge_star_oracle, random_event, random_form, random_poly_trig_field

C = 299792458.0
EPS0 = MaterialParams.vacuum().eps0
MU0 = MaterialParams.vacuum().mu0


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def _random_cylinder(rng, beta_range=(1e-6, 0.3)):
    r1 = float(rng.uniform(0.005, 0.05))
    r2 = r1 * float(rng.uniform(1.5, 4.0))
    beta = float(rng.uniform(*beta_range))
    return CylinderScenario(
        r1=r1,
        r2=r2,
        omega=beta * C / r2,
        b0=float(rng.uniform(0.1, 5.0)),
        mat=MaterialParams(float(rng.uniform(1.1, 10.0)), float(rng.uniform(0.3, 4.0))),
    )


def _random_sphere(rng):
    mat = MaterialParams(float(rng.uniform(1.1, 10.0)), float(rng.uniform(0.3, 4.0)))
    a = float(rng.uniform(0.01, 0.5))
    return SphereScenario(
        a=a,
        omega=float(rng.uniform(1e-7, 0.05)) * mat.c / a,
        e0=float(rng.uniform(10.0, 1e5)),
        mat=mat,
    )


def test_criterion_1_wilson_wilson_reproduction():
    start = time.perf_counter()
    mat = MaterialParams(eps_r=6.0, mu_r=2.0)
    r1, r2, b0 = 0.02, 0.04, 1.0

    def scenario(beta):
        return CylinderScenario(r1=r1, r2=r2, omega=beta * C / r2, b0=b0, mat=mat)

    # slow rotation: exact integral agrees with the leading closed form
    sc = scenario(1e-4)
    exact = wilson_wilson_V12(sc, "exact")
    leading = wilson_wilson_V12(sc, "leading")
    assert abs(exact - leading) / abs(leading) <= 1e-7

    # fast rotation: quadratic departure of known size and slope
    def deviation(beta):
        s = scenario(beta)
        return abs(
            wilson_wilson_V12(s, "exact") - wilson_wilson_V12(s, "leading")
        ) / abs(wilson_wilson_V12(s, "leading"))

    d_fast = deviation(0.1)
    assert 1e-3 <= d_fast <= 1e-1
    slope = math.log(deviation(0.1) / deviation(0.05)) / math.log(2.0)
    assert abs(slope - 2.0) <= 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"V12 exact/leading agreement and (Omega r2/c)^2 scaling ({elapsed:.2f}s)")


def test_criterion_2_closed_form_field_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(20):
        sc = _random_cylinder(rng)
        sol, _ = solve_cylinder(sc, seed=1)
        frame = lab_frame(sol.chart)
        metric = sol.chart.metric
        dec_in = EMDecomposition.of(sol.f_in, sol.g_in, frame, metric)
        dec_out = EMDecomposition.of(sol.f_out, sol.g_out, frame, metric)
        c, om, b0 = sc.mat.c, sc.omega, sc.b0
        er, mr = sc.mat.eps_r, sc.mat.mu_r
        em = er * mr
        scale_e, scale_b = abs(c * b0), abs(b0)
        for _ in range(100):
            inside = rng.random() < 0.5
            if inside:
                r = float(rng.uniform(sc.r1, sc.r2))
            else:
                r = float(rng.uniform(1.01 * sc.r2, 2.0 * sc.r2))
            ev = (0.0, r, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-1, 1)))
            dec = dec_in if inside else dec_out
            denom = er * (r**2 * om**2 - c**2)
            want = {
                "e": {(1,): -(c**2) * b0 * om * (em - 1) * r / denom} if inside else {},
                "b": {(3,): ((r**2 * om**2 - em * c**2) * b0 / denom) if inside else b0},
                "d": {},
                "h": {(3,): b0 / MU0},
            }
            for name, part, fallback in (
                ("e", dec.e, scale_e),
                ("b", dec.b, scale_b),
                ("d", dec.d, EPS0 * scale_e),
                ("h", dec.h, scale_b / MU0),
            ):
                got = evaluate(part, ev)
                for idx, value in got.items():
                    target = want[name].get(idx, 0.0)
                    assert abs(value - target) <= 1e-10 * max(abs(target), fallback)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"decomposed shell fields match closed forms, 20 scenarios ({elapsed:.2f}s)")


def test_criterion_3_matching_constant_oracle_equivalence():
    rng = np.random.default_rng(202)
    for _ in range(50):
        sc = _random_cylinder(rng)
        matched = match_cylinder_constants(sc, seed=2)
        closed = cylinder_closed_constants(sc)
        scale_c2 = max(abs(closed.c2), C**3 * abs(sc.b0 * sc.omega))
        assert abs(matched.c1 - closed.c1) <= 1e-9 * scale_c2 * sc.r2**2
        assert abs(matched.c2 - closed.c2) <= 1e-9 * scale_c2
    for _ in range(50):
        sc = _random_sphere(rng)
        matched = match_sphere_constants(sc, seed=2)
        closed = sphere_closed_constants(sc)
        scales = {
            "k0": sc.e0,
            "k1": sc.e0 / C**2,
            "p0": sc.e0 * sc.a**3,
            "p1": sc.e0 * sc.a**5 / C**2,
        }
        for name, ref in scales.items():
            got, want = getattr(matched, name), getattr(closed, name)
            assert abs(got - want) <= 1e-9 * max(abs(want), ref), name
    _report(3, "numerically matched constants equal closed forms, 50+50 scenarios")


def test_criterion_4_maxwell_residuals():
    # exact shell: machine-level residuals at 1000 events per region
    rng = np.random.default_rng(303)
    sc = _random_cylinder(rng, beta_range=(0.05, 0.3))
    sol, _ = solve_cylinder(sc, seed=3)
    report = verify_solution(sol, samples_per_region=1000, seed=17)
    assert report.passed
    for entry in report.regions.values():
        assert entry["df_max_rel"] <= 1e-10
        assert entry["dstar_g_max_rel"] <= 1e-10

    # first-order sphere: excitation residual scales as (a Omega / c)^2
    mat = MaterialParams(eps_r=4.0, mu_r=2.0)
    a = 0.05
    betas = (1e-4, 1e-3, 1e-2, 1e-1)
    rels = []
    for beta in betas:
        sp = SphereScenario(a=a, omega=beta * mat.c / a, e0=1000.0, mat=mat)
        ssol, _ = solve_sphere(sp, seed=3)
        srep = verify_solution(ssol, samples_per_region=60, seed=23)
        rels.append(srep.regions["medium"]["dstar_g_max_rel"])
    slope = np.polyfit(np.log(betas), np.log(rels), 1)[0]
    assert abs(slope - 2.0) <= 0.05
    _report(4, f"dF, d*G residuals exact<=1e-10; sphere slope {slope:.3f}")


def test_criterion_5_bound_source_equivalence():
    rng = np.random.default_rng(404)
    mat = MaterialParams(eps_r=6.0, mu_r=2.0)
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=0.2 * C / 0.04, b0=1.0, mat=mat)
    sol, _ = solve_cylinder(sc)
    frame = lab_frame(sol.chart)
    metric = sol.chart.metric
    pi = polarization(sol.f_in, sol.g_in, mat.eps0)
    current_m, rho_m = bound_sources(pi, frame, metric)
    current_c, rho_c, _, _ = cylinder_bound_sources(sc)
    for _ in range(50):
        r = float(rng.uniform(sc.r1, sc.r2))
        ev = (0.0, r, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(-1, 1)))
        for got, want, key in ((current_m, current_c, (1, 3)), (rho_m, rho_c, (1, 2, 3))):
            gv = evaluate(got, ev)[key]
            wv = evaluate(want, ev)[key]
            assert abs(gv - wv) <= 1e-10 * abs(wv)
    _report(5, "module-path bound sources match closed forms at 50 radii")


def test_criterion_6_kernel_property_suite():
    rng = np.random.default_rng(505)
    cyl = cylindrical_chart(C)
    sph = spherical_chart(C)

    # d of d vanishes: 200 random polynomial/trigonometric 0- and 1-forms,
    # each checked at 50 random events
    events = [random_event(rng) for _ in range(50)]
    checked = 0
    for grade in (0, 1):
        for _ in range(100):
            a = random_form(rng, grade, cyl.name)
            dda = exterior_derivative(exterior_derivative(a))
            assert all(
                max(abs(v) for v in evaluate(dda, ev).values()) <= 1e-10
                for ev in events
            )
            checked += 1
    assert checked == 200

    # star star sign on every grade, both charts
    for chart in (cyl, sph):
        for grade in range(5):
            a = random_form(rng, grade, chart.name)
            ssa = hodge_star(chart.metric, hodge_star(chart.metric, a))
            sign = (-1.0) ** (grade * (4 - grade) + 1)
            for _ in range(3):
                ev = random_event(rng)
                av, sv = evaluate(a, ev), evaluate(ssa, ev)
                ref = max(abs(v) for v in av.values())
                for k in av:
                    assert abs(sv[k] - sign * av[k]) <= 1e-12 * ref

    # Leibniz rules for d and i_v
    from emforms.forms import VectorField4

    v = VectorField4(tuple(random_poly_trig_field(rng) for _ in range(4)), cyl.name)
    for pa, pb in ((0, 1), (1, 1), (1, 2)):
        a = random_form(rng, pa, cyl.name)
        b = random_form(rng, pb, cyl.name)
        d_lhs = exterior_derivative(wedge(a, b))
        d_rhs = linear_combine(
            [1.0, (-1.0) ** pa],
            [wedge(exterior_derivative(a), b), wedge(a, exterior_derivative(b))],
        )
        if pa >= 1:
            i_lhs = interior_product(v, wedge(a, b))
            i_rhs = linear_combine(
                [1.0, (-1.0) ** pa],
                [wedge(interior_product(v, a), b), wedge(a, interior_product(v, b))],
            )
        for _ in range(4):
            ev = random_event(rng)
            for lhs, rhs in ((d_lhs, d_rhs),) + (((i_lhs, i_rhs),) if pa >= 1 else ()):
                lv, rv = evaluate(lhs, ev), evaluate(rhs, ev)
                ref = max(1.0, max(abs(x) for x in rv.values()))
                for k in lv:
                    assert abs(lv[k] - rv[k]) <= 1e-10 * ref

    # closed-form Hodge rule against the Levi-Civita permutation sum
    for chart in (cyl, sph):
        for grade in range(5):
            for idx in basis_indices(grade):
                a = form(grade, chart.name, {idx: 1.0})
                sa = hodge_star(chart.metric, a)
                for _ in range(5):
                    ev = random_event(rng)
                    got = evaluate(sa, ev)
                    want = hodge_star_oracle(chart.metric, a, ev)
                    ref = max(max(abs(x) for x in want.values()), 1e-300)
                    for k in got:
                        assert abs(got[k] - want[k]) <= 1e-12 * ref

    # decompose / recompose identity in both directions
    u = lab_frame(cyl)
    for _ in range(25):
        e = form(1, cyl.name, {(i,): random_poly_trig_field(rng) for i in (1, 2, 3)})
        b = form(1, cyl.name, {(i,): random_poly_trig_field(rng) for i in (1, 2, 3)})
        f = recompose(e, b, u, cyl.metric)
        e2, b2 = decompose(f, u, cyl.metric, "field")
        f_back = recompose(e2, b2, u, cyl.metric)
        for _ in range(2):
            ev = random_event(rng)
            for got, want in ((e2, e), (b2, b), (f_back, f)):
                gv, wv = evaluate(got, ev), evaluate(want, ev)
                ref = max(max(abs(x) for x in wv.values()), 1e-300)
                for k in gv:
                    assert abs(gv[k] - wv[k]) <= 1e-11 * ref
    _report(6, "kernel identities: dd, star-star, Leibniz, Hodge oracle, roundtrip")


def test_criterion_7_falsified_comparator():
    rng = np.random.default_rng(606)
    for _ in range(10):
        sc = _random_cylinder(rng)
        if abs(sc.mat.eps_r * sc.mat.mu_r - 1.0) < 1e-6:
            continue
        r = 0.5 * (sc.r1 + sc.r2)
        ww = (
            sc.mat.mu_r
            * (1 - 1 / (sc.mat.mu_r * sc.mat.eps_r))
            * r
            * sc.omega
            * sc.b0
        )
        ps = pellegrini_swift_field(sc, r)
        factor = -sc.mat.mu_r * (sc.mat.eps_r - 1) / (sc.mat.eps_r * sc.mat.mu_r - 1)
        assert ps / ww == pytest.approx(factor, rel=1e-12)
        assert ps != ww
    # the CLI report carries both predictions under distinct keys
    import json
    from emforms.cli import run as cli_run

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "c.json")
        with open(cfg_path, "w") as fh:
            json.dump(
                {
                    "scenario": "cylinder",
                    "geometry": {"r1_m": 0.02, "r2_m": 0.04},
                    "omega_rad_per_s": 100.0,
                    "b0_tesla": 1.0,
                    "material": {"eps_r": 6.0, "mu_r": 1.0},
                },
                fh,
            )
        assert cli_run(cfg_path, samples=8, out_dir=tmp) == 0
        obs = json.load(open(os.path.join(tmp, "observables.json")))
        fields = obs["radial_field_mid_volts_per_m"]
        assert "wilson_wilson" in fields and "pellegrini_swift_falsified" in fields
        assert fields["wilson_wilson"] != fields["pellegrini_swift_falsified"]
    _report(7, "comparator differs by the exact algebraic factor and is flagged")


def test_criterion_8_vacuum_reductions():
    # cylinder: interior collapses onto the exterior field
    mat = MaterialParams(eps_r=1.0, mu_r=1.0)
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=2000.0, b0=1.5, mat=mat)
    sol, const = solve_cylinder(sc)
    assert const.c1 == const.c2 == 0.0
    rng = np.random.default_rng(707)
    for _ in range(20):
        r = float(rng.uniform(sc.r1, sc.r2))
        ev = (0.0, r, float(rng.uniform(0, 2 * math.pi)), 0.0)
        fi, fo = evaluate(sol.f_in, ev), evaluate(sol.f_out, ev)
        gi, go = evaluate(sol.g_in, ev), evaluate(sol.g_out, ev)
        ref_f = C * abs(sc.b0) * r
        for k in fi:
            assert abs(fi[k] - fo[k]) <= 1e-12 * ref_f
            assert abs(gi[k] - go[k]) <= 1e-12 * EPS0 * ref_f

    # sphere: all induced multipoles die
    spm = MaterialParams(eps_r=1.0, mu_r=1.0)
    sp = SphereScenario(a=0.05, omega=1e-3 * C / 0.05, e0=500.0, mat=spm)
    ssol, sconst = solve_sphere(sp)
    assert sconst.k0 == pytest.approx(sp.e0, rel=1e-12)
    assert sconst.k1 == sconst.p0 == sconst.p1 == 0.0
    frame = lab_frame(ssol.chart)
    dec_in = EMDecomposition.of(ssol.f_in, ssol.g_in, frame, ssol.chart.metric)
    dec_out = EMDecomposition.of(ssol.f_out, ssol.g_out, frame, ssol.chart.metric)
    ref_e = sp.e0 / C
    for _ in range(20):
        r = float(rng.uniform(0.1 * sp.a, 0.95 * sp.a))
        ev = (0.0, r, float(rng.uniform(0.2, math.pi - 0.2)), 0.0)
        e_in, e_out = evaluate(dec_in.e, ev), evaluate(dec_out.e, ev)
        for k in e_in:
            assert abs(e_in[k] - e_out[k]) <= 1e-12 * ref_e
        assert component_max(dec_in.b, ev) <= 1e-12 * ref_e / C
        assert component_max(dec_out.b, ev) <= 1e-12 * ref_e / C
    _report(8, "eps_r = mu_r = 1 collapses interior fields and kills multipoles")
