"""Symbolic certificates of the shell and the sphere.

Every parameter is a sympy symbol (``symbolic.Sym``), and the forms are
built by the library's own functions, the same way the solvers build
them; the closures of ``hodge_star``, ``exterior_derivative`` and
``wedge`` then evaluate to exact expressions, so the identities below are
decided exactly instead of sampled. The vacuum constants become symbols
through ``monkeypatch`` alone, so no symbol outlives its test.

A zero test cancels the expression as a rational function of its
symbols, with sin(theta), cos(theta) and |sin(theta)| as generators, and
failing that in the half-angle u = tan(theta / 2) > 0, which reads
|sin(theta)| as sin(theta) on 0 < theta < pi and makes
sin^2 + cos^2 = 1 exact.

The sphere is first order in beta = omega a / c. Its Taylor coefficients
in beta come from repeated ``diff`` and ``subs(beta, 0)``. Its field
basis is written from its components; a certificate checks each against
d of its multipole potential (``oracles.sphere_potential_basis``), so
that dF = 0 tests what the solver writes rather than d^2 = 0.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from emforms import cli, cylinder, forms, media, sphere
from emforms.fields import ScalarField, cos
from emforms.forms import (
    add,
    exterior_derivative,
    form,
    hodge_star,
    linear_combine,
    scale,
    subtract,
    wedge,
)
from emforms.junction import field_jumps
from emforms.media import MaterialParams
from emforms.spacetime import rotating_velocity, spherical_chart

from oracles import sphere_potential_basis
from symbolic import Sym, components
from test_cli import sphere_config

C, EPS0, OMEGA, B0, E0, EPS_R, MU_R, R1, DELTA, A, BETA = sympy.symbols(
    "c epsilon_0 omega B_0 E_0 epsilon_r mu_r r_1 Delta a beta", positive=True
)
T, THETA, AZ = sympy.symbols("t theta azimuth", real=True)
R = sympy.Symbol("r", positive=True)
EVENT = (T, R, THETA, AZ)

_U = sympy.Symbol("u", positive=True)
_HALF_ANGLE = {sympy.sin(THETA): 2 * _U / (1 + _U**2), sympy.cos(THETA): (1 - _U**2) / (1 + _U**2)}


def make_vacuum_symbolic(monkeypatch):
    monkeypatch.setattr(MaterialParams, "c", Sym(C))
    monkeypatch.setattr(MaterialParams, "eps0", Sym(EPS0))
    monkeypatch.setattr(MaterialParams, "mu0", Sym(1 / (EPS0 * C**2)))


@pytest.fixture
def symbolic_vacuum(monkeypatch):
    make_vacuum_symbolic(monkeypatch)


def vanishes(expr) -> bool:
    expr = sympy.factor(expr)
    return expr == 0 or sympy.cancel(expr.subs(_HALF_ANGLE)) == 0


def residuals(form, radius=None) -> dict:
    """The form's components as expressions in ``EVENT``, at r = ``radius``
    when one is given."""
    comps = components(form, EVENT)
    return comps if radius is None else {idx: e.subs(R, radius) for idx, e in comps.items()}


def failing(conditions: dict) -> list:
    """The names of the conditions, each a (form, radius) pair, that do not
    vanish identically."""
    return [
        name
        for name, (form, radius) in conditions.items()
        if not all(vanishes(e) for e in residuals(form, radius).values())
    ]


# -- the shell ---------------------------------------------------------------


def symbolic_shell():
    mat = MaterialParams(eps_r=Sym(EPS_R), mu_r=Sym(MU_R))
    return cylinder.CylinderScenario(
        r1=Sym(R1), r2=Sym(R1 + DELTA), omega=Sym(OMEGA), b0=Sym(B0), mat=mat
    )


def shell_forms(sc, k2):
    """(f_in, f_out, g_in, g_out) as ``solve_cylinder`` builds them, with the
    interior family at the amplitudes (0, k2), and the family excitation."""
    chart = sc.chart
    f_basis, g_basis = cylinder._interior_family(sc, chart)
    f_in = linear_combine((0.0, k2), f_basis)
    velocity = rotating_velocity(chart, sc.omega, cylinder.AZIMUTH_AXIS)
    g_in = media.apply_constitutive(f_in, velocity, sc.mat, chart.metric)
    f_out = cylinder.exterior_maxwell_form(sc)
    return (f_in, f_out, g_in, scale(sc.mat.eps0, f_out)), linear_combine((0.0, k2), g_basis)


def shell_conditions(sc, k2) -> dict:
    (f_in, f_out, g_in, g_out), g_family = shell_forms(sc, k2)
    metric = sc.chart.metric
    conditions = {
        "dF_in": (exterior_derivative(f_in), None),
        "d*G_in": (exterior_derivative(hodge_star(metric, g_in)), None),
        "G_in - family": (subtract(g_in, g_family), None),
    }
    jumps = field_jumps(f_in, f_out, hodge_star(metric, g_in), hodge_star(metric, g_out))
    for iface, radius in zip(sc.interfaces, (R1, R1 + DELTA)):
        for name, jump in zip(("[F]", "[*G]"), jumps):
            conditions[f"{name}^dPhi at {iface.name}"] = (wedge(jump, iface.gradient()), radius)
    return conditions


def shell_constants_differ(sc, k2) -> bool:
    """Whether the closed-form C1, C2 differ from the constants of the
    family amplitudes (0, k2)."""
    want = cylinder._amplitudes_to_constants(sc, 0.0, k2)
    got = cylinder.closed_form_constants(sc)
    return not (vanishes((got.c1 - want.c1).expr) and vanishes((got.c2 - want.c2).expr))


def closed_k2(sc):
    return sc.mat.eps0 * sc.mat.c * sc.b0


def test_shell_is_exact(symbolic_vacuum):
    sc = symbolic_shell()
    assert failing(shell_conditions(sc, closed_k2(sc))) == []
    assert not shell_constants_differ(sc, closed_k2(sc))


# -- the sphere --------------------------------------------------------------


def symbolic_sphere():
    """The sphere's parameters and chart as a plain namespace:
    ``SphereScenario`` guards its rotation rate with ``math.isfinite``,
    which takes no symbol."""
    mat = MaterialParams(eps_r=Sym(EPS_R), mu_r=Sym(MU_R))
    chart = spherical_chart(mat.c)
    return SimpleNamespace(a=Sym(A), omega=Sym(BETA * C / A), e0=Sym(E0), mat=mat, chart=chart)


def sphere_forms(sc):
    """(f_in, f_out, g_in, g_out) as ``solve_sphere`` builds them."""
    chart = sc.chart
    closed = sphere.closed_form_constants(sc)
    basis = sphere._field_basis(chart)
    f_in = add(scale(closed.k0, basis["uniform_t"]), scale(sc.omega * closed.k1, basis["quad_in"]))
    f_out = add(
        add(scale(sc.e0, basis["uniform_t"]), scale(closed.p0, basis["dipole_t"])),
        scale(sc.omega * closed.p1, basis["quad_out"]),
    )
    velocity = rotating_velocity(chart, sc.omega, sphere.AZIMUTH_AXIS)
    g_in = media.apply_constitutive(f_in, velocity, sc.mat, chart.metric)
    return f_in, f_out, g_in, scale(sc.mat.eps0, f_out)


def sphere_conditions(sc) -> dict:
    metric = sc.chart.metric
    f_in, f_out, g_in, g_out = sphere_forms(sc)
    jumps = field_jumps(f_in, f_out, hodge_star(metric, g_in), hodge_star(metric, g_out))
    (surface,) = sphere.SphereScenario.interfaces.func(sc)  # the scenario's own r = a
    return {
        "dF_in": (exterior_derivative(f_in), None),
        "d*G_in": (exterior_derivative(hodge_star(metric, g_in)), None),
        "[F]^dPhi": (wedge(jumps[0], surface.gradient()), A),
        "[*G]^dPhi": (wedge(jumps[1], surface.gradient()), A),
    }


def taylor(expr, order: int) -> list:
    """The coefficients of beta^0 .. beta^order in ``expr``."""
    coefficients = [expr.subs(BETA, 0)]
    for k in range(1, order + 1):
        expr = expr.diff(BETA)
        coefficients.append(expr.subs(BETA, 0) / sympy.factorial(k))
    return coefficients


def sphere_coefficients(conditions: dict, order: int) -> dict:
    """(condition, component) -> its Taylor coefficients in beta."""
    return {
        (name, idx): taylor(expr, order)
        for name, (form, radius) in conditions.items()
        for idx, expr in residuals(form, radius).items()
    }


# The beta^2 coefficients, from which a first-order gate in eps_r and mu_r is derived
SIN, COS = sympy.sin(THETA), sympy.cos(THETA)
_MATERIAL = (EPS_R + 2) * (2 * MU_R + 3)
BETA2 = {
    ("d*G_in", (1, 2, 3)): 12 * EPS0 * E0 * R**3 * (EPS_R * MU_R - 1) ** 2 * COS * SIN
    / (A**2 * C * MU_R * _MATERIAL),
    ("[*G]^dPhi", (1, 2, 3)): -3 * EPS0 * E0 * A**2 * (EPS_R * MU_R - 1) * (3 * EPS_R + 2) * SIN**3 * COS
    / (C * _MATERIAL),
}


def test_sphere_is_first_order_with_the_derived_beta2_residual(symbolic_vacuum):
    conditions = sphere_conditions(symbolic_sphere())
    # F's written components are those of d of a potential, and the surface
    # potential is continuous: exact at every order
    assert failing({name: conditions.pop(name) for name in ("dF_in", "[F]^dPhi")}) == []
    coefficients = sphere_coefficients(conditions, 2)
    assert set(BETA2) <= set(coefficients)
    for key, (b0, b1, b2) in coefficients.items():
        assert vanishes(b0) and vanishes(b1), key
        assert vanishes(b2 - BETA2.get(key, 0)), key


def field_basis_conditions(chart) -> dict:
    """Each sphere field basis form minus d of its potential, and d of the
    form, as conditions over all events."""
    basis = sphere._field_basis(chart)
    conditions = {}
    for name, potential in sphere_potential_basis(chart).items():
        conditions[f"{name} - dA"] = (subtract(basis[name], exterior_derivative(potential)), None)
        conditions[f"d {name}"] = (exterior_derivative(basis[name]), None)
    return conditions


def test_sphere_field_basis_is_d_of_its_potentials(symbolic_vacuum):
    """With r and theta symbolic, each written component of the four basis
    forms equals that of d of its potential exactly, and each form is
    closed, so dF = 0 holds of the written F on both sides."""
    conditions = field_basis_conditions(symbolic_sphere().chart)
    assert len(conditions) == 8
    assert failing(conditions) == []


# -- the certified forms are the solvers' forms --------------------------------


def _exact_value(expr, values: dict, event) -> float:
    exact = {symbol: sympy.Rational(x) for symbol, x in [*values.items(), *zip(EVENT, event)]}
    return float(expr.subs(exact))


def test_certified_forms_are_the_shipped_forms(monkeypatch):
    """The forms the certificates build, at the parameters of a numeric
    scenario, take the values of the forms its solver returns, to 1e-12
    of the largest component in the orthonormal frame: a component that
    cancels, as the shell's G_tr does, keeps only its rounding."""
    mat = MaterialParams(eps_r=6.0, mu_r=2.0)
    vacuum = {C: mat.c, EPS0: mat.eps0, EPS_R: 6.0, MU_R: 2.0}
    shell = cylinder.CylinderScenario(r1=0.02, r2=0.04, omega=3e9, b0=1.0, mat=mat)
    ball = sphere.SphereScenario(a=0.05, omega=0.01 * mat.c / 0.05, e0=1000.0, mat=mat)
    shipped = [
        (cylinder.solve_cylinder(shell)[0], {**vacuum, R1: 0.02, DELTA: 0.02, OMEGA: 3e9, B0: 1.0}),
        (sphere.solve_sphere(ball)[0], {**vacuum, A: 0.05, BETA: 0.01, E0: 1000.0}),
    ]
    event = (1e-11, 0.03, 1.2, 0.4)

    make_vacuum_symbolic(monkeypatch)
    shell_sc = symbolic_shell()
    certified = [shell_forms(shell_sc, closed_k2(shell_sc))[0], sphere_forms(symbolic_sphere())]
    for (sol, values), built in zip(shipped, certified):
        row = np.array([event])
        unit = [abs(g.eval(row)[0]) ** 0.5 for g in sol.chart.metric.diag]
        for want, got in zip((sol.f_in, sol.f_out, sol.g_in, sol.g_out), built):
            assert set(got.components) == set(want.components)
            expected = {
                idx: v[0] / np.prod([unit[i] for i in idx]) for idx, v in forms.evaluate(want, row).items()
            }
            scale = max(abs(v) for v in expected.values())
            for idx, expr in residuals(got).items():
                value = _exact_value(expr, values, event) / np.prod([unit[i] for i in idx])
                assert value == pytest.approx(expected[idx], rel=1e-12, abs=1e-12 * scale), (sol.order, idx)


# -- mutations: each breaks a certificate ----------------------------------------


def _negate_k1(closed_form_constants):
    def mutated(sc):
        k = closed_form_constants(sc)
        return sphere.SphereConstants(k0=k.k0, k1=-k.k1, p0=k.p0, p1=k.p1)

    return mutated


def _wrong_eps_r(apply_constitutive):
    def mutated(F, V, mat, g):
        return apply_constitutive(F, V, MaterialParams(eps_r=mat.eps_r * 2, mu_r=mat.mu_r), g)

    return mutated


def _wrong_c2(closed_form_constants):
    def mutated(sc):
        k = closed_form_constants(sc)
        return cylinder.CylinderConstants(c1=k.c1, c2=k.c2 * sc.mat.mu_r)

    return mutated


def _nudged_dipole(field_basis):
    """The field basis with the 2 of dipole_t's dt^dr component, 2 cos(theta)
    / r^3, moved by 1e-6 of itself."""

    def mutated(chart):
        basis = field_basis(chart)
        r, cth = ScalarField.coordinate(1), cos(ScalarField.coordinate(2))
        dipole = basis["dipole_t"].components
        basis["dipole_t"] = form(2, chart.name, {**dipole, (0, 1): 2.000002 * cth / r**3})
        return basis

    return mutated


def test_a_nudged_dipole_coefficient_breaks_df(symbolic_vacuum, monkeypatch):
    monkeypatch.setattr(sphere, "_field_basis", _nudged_dipole(sphere._field_basis))
    sc = symbolic_sphere()
    assert failing(field_basis_conditions(sc.chart)) == ["dipole_t - dA", "d dipole_t"]
    f_out = sphere_forms(sc)[1]
    assert failing({"dF_out": (exterior_derivative(f_out), None)}) == ["dF_out"]


def test_a_nudged_dipole_coefficient_fails_every_run(monkeypatch, tmp_path):
    """The nudge fails the sampled dF check of the vacuum of a dielectric
    sphere at every seed; it also moves the normal D, which the exterior d
    star G and the junction check see at most seeds. Unnudged, the run
    passes."""
    path, _ = sphere_config(tmp_path, eps_r=4.0, mu_r=2.0)
    monkeypatch.setattr(cli, "_kept_scenario", {})
    assert cli.run(path, samples=8, out_dir=str(tmp_path / "unchanged")) == 0
    monkeypatch.setattr(cli, "_kept_scenario", {})
    monkeypatch.setattr(sphere, "_field_basis", _nudged_dipole(sphere._field_basis))
    for seed in range(10):
        out = tmp_path / str(seed)
        assert cli.run(path, samples=8, seed=seed, out_dir=str(out)) == 3, seed
        maxwell = json.loads((out / "ver.json").read_text())["maxwell"]
        assert maxwell["regions"]["vacuum"]["df_max_rel"] > maxwell["tolerance_f"], seed


def test_a_wrong_sign_on_the_sphere_k1_breaks_the_first_order(symbolic_vacuum, monkeypatch):
    monkeypatch.setattr(sphere, "closed_form_constants", _negate_k1(sphere.closed_form_constants))
    conditions = sphere_conditions(symbolic_sphere())
    first_order = sphere_coefficients({"[*G]^dPhi": conditions["[*G]^dPhi"]}, 1)
    assert not all(vanishes(b1) for _, b1 in first_order.values())


def test_a_wrong_eps_r_in_the_constitutive_map_breaks_the_shell(symbolic_vacuum, monkeypatch):
    monkeypatch.setattr(media, "apply_constitutive", _wrong_eps_r(media.apply_constitutive))
    sc = symbolic_shell()
    conditions = shell_conditions(sc, closed_k2(sc))
    assert failing({"G_in - family": conditions["G_in - family"]}) == ["G_in - family"]


def test_a_wrong_shell_c2_breaks_the_shell(symbolic_vacuum, monkeypatch):
    sc = symbolic_shell()
    # the forms at a wrong closed k2 violate the junction conditions ...
    conditions = shell_conditions(sc, closed_k2(sc) * sc.mat.eps_r)
    outer = {name: cond for name, cond in conditions.items() if name.startswith("[*G]")}
    assert failing(outer) == list(outer)
    # ... and a wrong closed-form C2 is not the constant of the exact amplitudes
    monkeypatch.setattr(cylinder, "closed_form_constants", _wrong_c2(cylinder.closed_form_constants))
    assert shell_constants_differ(sc, closed_k2(sc))
