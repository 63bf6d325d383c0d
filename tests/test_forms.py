import pytest
from hypothesis import given, strategies as st

from emforms.fields import ScalarField
from emforms.forms import (
    ChartMismatchError,
    DegenerateMetricError,
    DifferentialForm,
    GradeMismatchError,
    VectorField4,
    basis_indices,
    exterior_derivative,
    form,
    hodge_star,
    interior_product,
    linear_combine,
    lower_index,
    scale,
    subtract,
    wedge,
    zero_form,
)
from emforms.spacetime import cylindrical_chart, lab_frame, spherical_chart

from one_event import evaluate
from oracles import hodge_star_oracle, random_event, random_form, random_poly_trig_field

C = 299792458.0


@pytest.fixture(scope="module")
def cyl():
    return cylindrical_chart(C)


@pytest.fixture(scope="module")
def sph():
    return spherical_chart(C)


# -- wedge ----------------------------------------------------------------


def test_wedge_basis(cyl):
    dt = form(1, cyl.name, {(0,): 1.0})
    dr = form(1, cyl.name, {(1,): 1.0})
    w = wedge(dt, dr)
    assert evaluate(w, (0, 1, 0, 0)) == {k: (1.0 if k == (0, 1) else 0.0) for k in basis_indices(2)}
    assert not wedge(dt, dt).components


def test_wedge_coefficient(cyl):
    r = ScalarField.coordinate(1)
    a = form(1, cyl.name, {(0,): r * r})
    dr = form(1, cyl.name, {(1,): 1.0})
    # alpha(r) dt ^ dr with alpha = r^2: direct multiplication oracle at r=2
    assert evaluate(wedge(a, dr), (0, 2.0, 0, 0))[(0, 1)] == pytest.approx(4.0)


def test_wedge_graded_commutativity_exact(rng, cyl):
    for pa, pb in [(1, 1), (1, 2), (2, 2), (0, 3), (2, 1)]:
        a = random_form(rng, pa, cyl.name)
        b = random_form(rng, pb, cyl.name)
        sign = (-1.0) ** (pa * pb)
        diff = subtract(wedge(a, b), scale(sign, wedge(b, a)))
        for _ in range(5):
            ev = random_event(rng)
            # float multiplication commutes, so the difference is exactly zero
            assert all(v == 0.0 for v in evaluate(diff, ev).values())


def test_wedge_past_top_grade_is_zero(rng, cyl):
    a = random_form(rng, 2, cyl.name)
    b = random_form(rng, 3, cyl.name)
    out = wedge(a, b)
    assert out.grade == 4 and not out.components


def test_wedge_chart_mismatch(cyl, sph):
    a = form(1, cyl.name, {(0,): 1.0})
    b = form(1, sph.name, {(0,): 1.0})
    with pytest.raises(ChartMismatchError):
        wedge(a, b)


# -- exterior derivative ----------------------------------------------------


def test_d_product_rule_example(cyl):
    r = ScalarField.coordinate(1)
    a = form(1, cyl.name, {(2,): r * r})
    da = exterior_derivative(a)
    assert evaluate(da, (0, 3.0, 0, 0))[(1, 2)] == pytest.approx(6.0)


def test_d_gradient_bilinear(cyl):
    t, r = ScalarField.coordinate(0), ScalarField.coordinate(1)
    f = form(0, cyl.name, {(): t * r})
    df = exterior_derivative(f)
    vals = evaluate(df, (5.0, 3.0, 0.2, 0.1))
    assert vals[(0,)] == pytest.approx(3.0)
    assert vals[(1,)] == pytest.approx(5.0)
    assert vals[(2,)] == vals[(3,)] == 0.0


def test_d_of_top_grade_is_zero(rng, cyl):
    a = random_form(rng, 4, cyl.name)
    out = exterior_derivative(a)
    assert out.grade == 4 and not out.components


def test_dd_zero(rng, cyl):
    for grade in (0, 1):
        for _ in range(10):
            a = random_form(rng, grade, cyl.name)
            dda = exterior_derivative(exterior_derivative(a))
            for _ in range(5):
                ev = random_event(rng)
                assert max(abs(v) for v in evaluate(dda, ev).values()) <= 1e-10


def test_d_leibniz(rng, cyl):
    for pa, pb in [(0, 1), (1, 1), (1, 2)]:
        a = random_form(rng, pa, cyl.name)
        b = random_form(rng, pb, cyl.name)
        lhs = exterior_derivative(wedge(a, b))
        rhs = linear_combine(
            [1.0, (-1.0) ** pa],
            [wedge(exterior_derivative(a), b), wedge(a, exterior_derivative(b))],
        )
        for _ in range(5):
            ev = random_event(rng)
            lv, rv = evaluate(lhs, ev), evaluate(rhs, ev)
            scale_ref = max(1.0, max(abs(v) for v in rv.values()))
            for k in lv:
                assert abs(lv[k] - rv[k]) <= 1e-10 * scale_ref


def test_stationary_radial_ansatz_is_closed(cyl):
    # alpha(r) dt^dr + beta(r) dr^dtheta is closed for any smooth alpha, beta
    from emforms.fields import sin

    r = ScalarField.coordinate(1)
    a = form(2, cyl.name, {(0, 1): sin(r), (1, 2): r**3})
    da = exterior_derivative(a)
    for ev in [(0, 1.0, 0.3, 0.2), (1.0, 2.5, 2.0, -1.0)]:
        assert all(v == 0.0 for v in evaluate(da, ev).values())


# -- interior product -------------------------------------------------------


def test_interior_lab_frame(cyl):
    u = lab_frame(cyl)
    dt_dr = form(2, cyl.name, {(0, 1): 1.0})
    out = evaluate(interior_product(u, dt_dr), (0, 1, 0, 0))
    assert out[(1,)] == pytest.approx(1.0 / C)
    assert out[(0,)] == out[(2,)] == out[(3,)] == 0.0


def test_interior_nilpotent(rng, cyl):
    v = VectorField4(tuple(random_poly_trig_field(rng) for _ in range(4)), cyl.name)
    a = random_form(rng, 2, cyl.name)
    out = interior_product(v, interior_product(v, a))
    for _ in range(5):
        ev = random_event(rng)
        scale_ref = max(1.0, max(abs(x) for x in evaluate(a, ev).values()))
        assert max(abs(x) for x in evaluate(out, ev).values()) <= 1e-12 * scale_ref


def test_interior_leibniz(rng, cyl):
    v = VectorField4(tuple(random_poly_trig_field(rng) for _ in range(4)), cyl.name)
    for pa, pb in [(1, 1), (1, 2), (2, 1)]:
        a = random_form(rng, pa, cyl.name)
        b = random_form(rng, pb, cyl.name)
        lhs = interior_product(v, wedge(a, b))
        rhs = linear_combine(
            [1.0, (-1.0) ** pa],
            [wedge(interior_product(v, a), b), wedge(a, interior_product(v, b))],
        )
        for _ in range(5):
            ev = random_event(rng)
            lv, rv = evaluate(lhs, ev), evaluate(rhs, ev)
            scale_ref = max(1.0, max(abs(x) for x in rv.values()))
            for k in lv:
                assert abs(lv[k] - rv[k]) <= 1e-10 * scale_ref


def test_interior_of_scalar_is_zero(cyl):
    u = lab_frame(cyl)
    f = form(0, cyl.name, {(): 3.0})
    out = interior_product(u, f)
    assert out.grade == 0 and not out.components


def test_frame_contraction_roundtrip(cyl):
    # i_U(e ^ U~) = e for transverse e, since U~(U) = -1
    u = lab_frame(cyl)
    u_flat = lower_index(cyl.metric, u)
    r = ScalarField.coordinate(1)
    e = form(1, cyl.name, {(1,): r * r, (3,): 2.0})
    out = interior_product(u, wedge(e, u_flat))
    for ev in [(0, 1.5, 0.3, 0.2), (0.5, 2.5, 1.0, -0.4)]:
        got, want = evaluate(out, ev), evaluate(e, ev)
        for k in got:
            assert got[k] == pytest.approx(want[k], rel=1e-13, abs=1e-13)


# -- hodge star -------------------------------------------------------------


def test_star_volume_form(cyl):
    one = form(0, cyl.name, {(): 1.0})
    vol = hodge_star(cyl.metric, one)
    assert evaluate(vol, (0, 2.0, 0, 0))[(0, 1, 2, 3)] == pytest.approx(2.0 * C)


def test_star_dt_dr(cyl):
    a = form(2, cyl.name, {(0, 1): 1.0})
    vals = evaluate(hodge_star(cyl.metric, a), (0, 2.0, 0, 0))
    assert vals[(2, 3)] == pytest.approx(-2.0 / C)
    assert sum(1 for v in vals.values() if v != 0.0) == 1


def test_star_star_identity(rng, cyl, sph):
    for chart in (cyl, sph):
        for grade in range(5):
            a = random_form(rng, grade, chart.name)
            ssa = hodge_star(chart.metric, hodge_star(chart.metric, a))
            want_sign = (-1.0) ** (grade * (4 - grade) + 1)
            for _ in range(4):
                ev = random_event(rng)
                av, sv = evaluate(a, ev), evaluate(ssa, ev)
                scale_ref = max(abs(v) for v in av.values())
                for k in av:
                    assert abs(sv[k] - want_sign * av[k]) <= 1e-12 * scale_ref


def test_star_against_levi_civita_oracle(rng, cyl, sph):
    for chart in (cyl, sph):
        for grade in range(5):
            for idx in basis_indices(grade):
                a = form(grade, chart.name, {idx: 1.0})
                sa = hodge_star(chart.metric, a)
                for _ in range(20):
                    ev = random_event(rng)
                    got = evaluate(sa, ev)
                    want = hodge_star_oracle(chart.metric, a, ev)
                    scale_ref = max(max(abs(v) for v in want.values()), 1e-300)
                    for k in got:
                        assert abs(got[k] - want[k]) <= 1e-12 * scale_ref


def test_star_degenerate_metric(cyl):
    a = hodge_star(cyl.metric, form(2, cyl.name, {(0, 1): 1.0}))
    with pytest.raises(DegenerateMetricError):
        evaluate(a, (0.0, 1e-200, 0.0, 0.0))


# -- linear combination and evaluation --------------------------------------


def test_linear_combine(rng, cyl):
    a = random_form(rng, 1, cyl.name)
    out = linear_combine([1.0, -1.0], [a, a])
    assert all(v == 0.0 for v in evaluate(out, random_event(rng)).values())
    dt = form(1, cyl.name, {(0,): 1.0})
    combo = linear_combine([2.0, 3.0], [dt, dt])
    assert evaluate(combo, (0, 1, 0, 0))[(0,)] == pytest.approx(5.0)


def test_linear_combine_validation(cyl, sph):
    a = form(1, cyl.name, {(0,): 1.0})
    b = form(2, cyl.name, {(0, 1): 1.0})
    with pytest.raises(GradeMismatchError):
        linear_combine([1.0, 1.0], [a, b])
    c = form(1, sph.name, {(0,): 1.0})
    with pytest.raises(ChartMismatchError):
        linear_combine([1.0, 1.0], [a, c])
    with pytest.raises(GradeMismatchError):
        linear_combine([], [])


def test_evaluate_zero_form(cyl):
    z = zero_form(2, cyl.name)
    assert all(v == 0.0 for v in evaluate(z, (0, 1, 0, 0)).values())


def test_scale_by_exact_zero_is_structural(rng, cyl):
    a = random_form(rng, 2, cyl.name)
    assert not scale(0.0, a).components


def test_component_validation(cyl):
    with pytest.raises(GradeMismatchError):
        DifferentialForm(2, {(1, 0): ScalarField.constant(1.0)}, cyl.name)
    with pytest.raises(GradeMismatchError):
        DifferentialForm(2, {(1,): ScalarField.constant(1.0)}, cyl.name)
    with pytest.raises(GradeMismatchError):
        DifferentialForm(1, {(4,): ScalarField.constant(1.0)}, cyl.name)


@given(st.integers(min_value=0, max_value=4))
def test_zero_form_grades(grade):
    z = zero_form(grade, "cylindrical")
    assert z.grade == grade and not z.components


coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@given(a0=coeff, a1=coeff, b0=coeff, b2=coeff, c3=coeff)
def test_wedge_associativity(a0, a1, b0, b2, c3):
    name = "cylindrical"
    a = form(1, name, {(0,): a0, (1,): a1})
    b = form(1, name, {(0,): b0, (2,): b2})
    c = form(1, name, {(3,): c3})
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    ev = (0.7, 1.3, 0.9, -0.4)
    lv, rv = evaluate(lhs, ev), evaluate(rhs, ev)
    ref = max(1.0, max(abs(v) for v in rv.values()))
    for k in lv:
        assert abs(lv[k] - rv[k]) <= 1e-13 * ref


@given(x=coeff, y=coeff)
def test_star_is_linear(x, y):
    chart = cylindrical_chart(C)
    a = form(2, chart.name, {(0, 1): 1.0, (2, 3): -2.0})
    b = form(2, chart.name, {(1, 2): 3.0, (0, 3): 0.5})
    combo = hodge_star(chart.metric, linear_combine([x, y], [a, b]))
    split = linear_combine(
        [x, y], [hodge_star(chart.metric, a), hodge_star(chart.metric, b)]
    )
    ev = (0.1, 1.7, 1.1, 0.2)
    cv, sv = evaluate(combo, ev), evaluate(split, ev)
    ref = max(1.0, max(abs(v) for v in sv.values()))
    for k in cv:
        assert abs(cv[k] - sv[k]) <= 1e-13 * ref
