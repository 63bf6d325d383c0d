import pytest

from emforms.fields import ScalarField, cos, sin, sqrt

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
