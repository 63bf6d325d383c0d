import math

import pytest

from emforms import dual
from emforms.fields import ScalarField, coerce, cos, sin, sqrt

from one_event import partial, partials, value
from oracles import central_difference_partials, random_event, random_poly_trig_field


def test_constant_and_coordinate():
    c = ScalarField.constant(4.5)
    assert value(c, (1, 2, 3, 4)) == 4.5
    assert partials(c, (1, 2, 3, 4)) == (0.0, 0.0, 0.0, 0.0)
    r = ScalarField.coordinate(1)
    assert value(r, (0, 2.0, 0, 0)) == 2.0
    assert partial(r, 1, (0, 2.0, 0, 0)) == 1.0
    assert partial(r, 2, (0, 2.0, 0, 0)) == 0.0


def test_arithmetic_closure():
    t, r = ScalarField.coordinate(0), ScalarField.coordinate(1)
    f = (2.0 * t + r * r) / (1.0 + r) - t**2
    ev = (1.5, 2.0, 0.0, 0.0)
    assert value(f, ev) == pytest.approx((3.0 + 4.0) / 3.0 - 2.25, rel=1e-15)
    g = sin(r) * cos(t) + sqrt(1.0 + r * r)
    assert partial(g, 1, ev) == pytest.approx(
        central_difference_partials(g, ev)[1], rel=1e-8
    )


def test_partials_match_central_differences(rng):
    for _ in range(25):
        f = random_poly_trig_field(rng)
        ev = random_event(rng)
        exact = partials(f, ev)
        approx = central_difference_partials(f, ev)
        for a, b in zip(exact, approx):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


def test_eval_deterministic(rng):
    f = random_poly_trig_field(rng)
    ev = random_event(rng)
    assert value(f, ev) == value(f, ev)
    assert partials(f, ev) == partials(f, ev)


def test_structural_zero_propagation():
    z = ScalarField.zero()
    r = ScalarField.coordinate(1)
    assert (z * r).is_zero
    assert (r * 0.0).is_zero
    assert (z + z).is_zero
    assert not (z + r).is_zero
    assert (z + r) is r
    assert ScalarField.constant(3.0).partial_field(2).is_zero


def test_constant_folding():
    a = ScalarField.constant(2.0) * ScalarField.constant(3.0)
    assert a.const == 6.0
    b = sin(ScalarField.constant(0.0))
    assert b.const == 0.0
    assert (ScalarField.constant(5.0) / 2.0).const == 2.5


def test_power_validation():
    r = ScalarField.coordinate(1)
    with pytest.raises(ValueError):
        r ** (-1)
    assert (r**0).const == 1.0


@pytest.mark.parametrize("x", [1j, "1.0", None])
def test_coerce_rejects_what_is_not_a_real_number(x):
    with pytest.raises(TypeError):
        coerce(x)


@pytest.mark.parametrize("x", [3, 0, True, False, 2.5, 0.0, -0.0])
def test_int_bool_and_float_give_the_constant_of_their_float(x):
    field = coerce(x)
    assert field.const == float(x)
    assert field.is_zero == (x == 0)
    r = ScalarField.coordinate(1)
    ev = (0.0, 1.5, 0.0, 0.0)
    got = value(field, ev)
    assert type(got) is float and got == float(x)
    assert value(field * r + field, ev) == float(x) * 1.5 + float(x)


@pytest.mark.parametrize("lifted, folded", [(sin, math.sin), (cos, math.cos), (sqrt, math.sqrt)])
@pytest.mark.parametrize("x", [0.7, 2])
def test_lifted_functions_fold_a_builtin_constant_through_math(lifted, folded, x):
    const = lifted(ScalarField.constant(x)).const
    assert type(const) is float and const == folded(x)


def test_sqrt_of_a_negative_float_constant_raises_when_built():
    with pytest.raises(ValueError):
        sqrt(ScalarField.constant(-1.0))


def test_a_constant_holding_a_dual_is_not_zero_and_lifts_through_dual():
    tag = dual.fresh_tag()
    field = ScalarField.constant(dual.Dual(0.0, 1.0, tag))
    assert not field.is_zero and field.deps == 0
    lifted = sin(field).const
    assert isinstance(lifted, dual.Dual) and (lifted.a, lifted.b) == (0.0, 1.0)
