import math

import pytest

from emforms.forms import interior_product, form, lower_index
from emforms.spacetime import (
    LightConeError,
    cartesian_chart,
    cylindrical_chart,
    lab_frame,
    rotating_velocity,
    spherical_chart,
)

from one_event import evaluate, value
from oracles import lowered_components, metric_contraction, random_event

C = 299792458.0


def test_cylindrical_metric_values():
    ch = cylindrical_chart(C)
    ev = (0.0, 2.0, 0.0, 0.0)
    assert value(ch.metric.diag[2], ev) == pytest.approx(4.0)
    det = math.prod(value(g, (0.0, 1.0, 0.0, 0.0)) for g in ch.metric.diag)
    assert det == pytest.approx(-C * C)


def test_spherical_metric_values():
    ch = spherical_chart(C)
    assert value(ch.metric.diag[3], (0, 2.0, math.pi / 2, 0)) == pytest.approx(4.0)
    det = math.prod(value(g, (0, 1.0, math.pi / 2, 0)) for g in ch.metric.diag)
    assert det == pytest.approx(-C * C)


def test_invalid_light_speed():
    for builder in (cartesian_chart, cylindrical_chart, spherical_chart):
        with pytest.raises(ValueError):
            builder(0.0)
        with pytest.raises(ValueError):
            builder(-1.0)


def test_lab_frame_unit_timelike(rng):
    for ch in (cylindrical_chart(C), spherical_chart(C), cartesian_chart(C)):
        u = lab_frame(ch)
        for _ in range(20):
            ev = random_event(rng)
            assert metric_contraction(ch.metric, u, u, ev) == pytest.approx(-1.0, abs=1e-12)


def test_lab_frame_contractions():
    ch = cylindrical_chart(C)
    u = lab_frame(ch)
    dt = form(1, ch.name, {(0,): 1.0})
    dr = form(1, ch.name, {(1,): 1.0})
    ev = (0.0, 1.0, 0.0, 0.0)
    assert evaluate(interior_product(u, dt), ev)[()] == pytest.approx(1.0 / C)
    assert evaluate(interior_product(u, dr), ev)[()] == 0.0


def test_rotating_velocity_zero_omega_is_lab():
    ch = cylindrical_chart(C)
    v = rotating_velocity(ch, 0.0, 2)
    u = lab_frame(ch)
    ev = (0.0, 1.7, 0.3, 0.1)
    for a in range(4):
        assert value(v.components[a], ev) == value(u.components[a], ev)


def test_rotating_velocity_unit_timelike(rng):
    omega = 1000.0
    cyl = cylindrical_chart(C)
    v = rotating_velocity(cyl, omega, 2)
    r_half = 0.5 * C / omega
    assert metric_contraction(cyl.metric, v, v, (0, r_half, 0.3, 0)) == pytest.approx(
        -1.0, abs=1e-12
    )
    for _ in range(50):
        ev = random_event(rng)
        assert metric_contraction(cyl.metric, v, v, ev) == pytest.approx(-1.0, abs=1e-12)
    sph = spherical_chart(C)
    vs = rotating_velocity(sph, omega, 3)
    for _ in range(50):
        ev = random_event(rng)
        assert metric_contraction(sph.metric, vs, vs, ev) == pytest.approx(-1.0, abs=1e-12)


def test_rotating_velocity_light_cylinder():
    # omega = 1 puts the light cylinder at r = C exactly in floating point
    ch = cylindrical_chart(C)
    v = rotating_velocity(ch, 1.0, 2)
    with pytest.raises(LightConeError):
        value(v.components[0], (0.0, C, 0.0, 0.0))
    with pytest.raises(LightConeError):
        value(v.components[2], (0.0, 2.0 * C, 0.0, 0.0))


def test_metric_dual_lab():
    ch = cylindrical_chart(C)
    u = lab_frame(ch)
    u_flat = lower_index(ch.metric, u)
    ev = (0.0, 1.2, 0.4, 0.0)
    vals = evaluate(u_flat, ev)
    assert vals[(0,)] == pytest.approx(-C)
    assert vals[(1,)] == vals[(2,)] == vals[(3,)] == 0.0
    assert evaluate(interior_product(u, u_flat), ev)[()] == pytest.approx(-1.0)


def test_metric_dual_rotating_closed_form():
    omega = 500.0
    ch = cylindrical_chart(C)
    v = rotating_velocity(ch, omega, 2)
    v_flat = lower_index(ch.metric, v)
    for r in (1.0, 2.0, 100.0):
        ev = (0.0, r, 0.7, 0.2)
        vals = evaluate(v_flat, ev)
        root = math.sqrt(C * C - r * r * omega * omega)
        assert vals[(0,)] == pytest.approx(-C * C / root, rel=1e-13)
        assert vals[(2,)] == pytest.approx(r * r * omega / root, rel=1e-13)
        # componentwise lowering oracle
        want = lowered_components(ch.metric, v, ev)
        for a in range(4):
            assert vals[(a,)] == pytest.approx(want[a], rel=1e-13, abs=1e-300)


def test_metric_dual_roundtrip(rng):
    ch = spherical_chart(C)
    v = rotating_velocity(ch, 800.0, 3)
    v_flat = lower_index(ch.metric, v)
    for _ in range(10):
        ev = random_event(rng)
        vals = evaluate(v_flat, ev)
        for a in range(4):
            g_aa = value(ch.metric.diag[a], ev)
            assert vals[(a,)] / g_aa == pytest.approx(
                value(v.components[a], ev), rel=1e-13, abs=1e-300
            )
