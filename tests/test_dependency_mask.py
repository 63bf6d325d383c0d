"""Dependency masks: which coordinates a field reads, and the structural
zeros they make of the partial derivatives along the others."""

import numpy as np
import pytest

from emforms.cylinder import CylinderScenario, solve_cylinder
from emforms.fields import ALL_AXES, ZERO, ScalarField, cos, sin, sqrt
from emforms.forms import basis_indices, form, hodge_star
from emforms.media import MaterialParams
from emforms.solutions import sample_box
from emforms.sphere import SphereScenario, solve_sphere

from one_event import partial, partials
from oracles import dense_partial

C = MaterialParams.vacuum().c

T, R, THETA, Z = (ScalarField.coordinate(k) for k in range(4))


def test_masks_of_coordinates_constants_and_arithmetic():
    assert [x.deps for x in (T, R, THETA, Z)] == [0b0001, 0b0010, 0b0100, 0b1000]
    assert ScalarField.constant(2.5).deps == 0
    assert ScalarField.zero().deps == ScalarField.one().deps == 0
    assert (R + 1.0).deps == (-R).deps == (2.0 / R).deps == (R**3).deps == 0b0010
    assert (R * sin(THETA)).deps == (R / THETA).deps == (R - THETA).deps == 0b0110
    for fn in (sin, cos, sqrt):
        assert fn(T + Z).deps == 0b1001
    assert sin(ScalarField.constant(0.5)).deps == 0


def test_partial_along_an_unread_axis_is_the_structural_zero():
    f = R * sin(THETA)
    assert f.partial_field(0) is ZERO
    assert f.partial_field(3) is ZERO
    # a derivative reads at most what its field reads, so d(d .) prunes too
    assert f.partial_field(1).deps == 0b0110
    assert R.partial_field(1).partial_field(2) is ZERO
    assert partial(f, 0, (1.0, 2.0, 0.3, 4.0)) == 0.0
    assert partial(f, 2, (1.0, 2.0, 0.3, 4.0)) == pytest.approx(2.0 * np.cos(0.3), rel=1e-15)


def test_raw_closure_reports_all_four_axes():
    f = ScalarField(lambda ev: ev[0] * ev[3])
    assert f.deps == ALL_AXES == 0b1111
    assert all(f.partial_field(k) is not ZERO for k in range(4))
    assert partials(f, (2.0, 5.0, 7.0, 3.0)) == (3.0, 0.0, 0.0, 2.0)


def shell():
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=0.2 * C / 0.04, b0=1.0, mat=MaterialParams(6.0, 2.0))
    return solve_cylinder(sc)[0], 0b0010  # stationary, axisymmetric, z-invariant: r only


def sphere():
    sc = SphereScenario(a=0.05, omega=0.01 * C / 0.05, e0=1000.0, mat=MaterialParams(4.0, 2.0))
    return solve_sphere(sc)[0], 0b0110  # stationary and axisymmetric: (r, theta)


def differentiated_fields(sol):
    """(name, field, side) of every component of F, G, star G, the medium
    4-velocity, the metric diagonal, the Hodge coefficients of 2-forms and
    each Phi; ``side`` is True for the interior, False for the exterior and
    None for both."""
    metric = sol.chart.metric
    out = []
    for interior, (f, g) in ((True, (sol.f_in, sol.g_in)), (False, (sol.f_out, sol.g_out))):
        for name, a in (("F", f), ("G", g), ("*G", hodge_star(metric, g))):
            out += [(f"{name}{idx}", comp, interior) for idx, comp in a.components.items()]
    out += [(f"V^{k}", comp, True) for k, comp in enumerate(sol.medium_velocity.components)]
    out += [(f"g_{k}{k}", comp, None) for k, comp in enumerate(metric.diag)]
    for idx in basis_indices(2):
        (comp,) = hodge_star(metric, form(2, sol.chart.name, {idx: 1.0})).components.values()
        out.append((f"*dx{idx}", comp, None))
    out += [(f"Phi[{iface.name}]", iface.phi, None) for iface in sol.interfaces]
    return out


@pytest.mark.parametrize("solved", [shell, sphere], ids=["shell", "sphere"])
def test_pruned_partials_equal_dense_partials_exactly(solved):
    sol, reads = solved()
    rng = np.random.default_rng(7)
    events = {
        side: np.concatenate(
            [sample_box(reg.box, 16, rng) for reg in sol.regions if side in (None, reg.interior)]
        )
        for side in (True, False, None)
    }
    checked_zero = 0
    for name, field, side in differentiated_fields(sol):
        assert field.deps & ~reads == 0, f"{name} reads axes {field.deps:04b}"
        for axis in range(4):
            dense = dense_partial(field, axis, events[side])
            pruned = field.partial_field(axis)
            if field.deps >> axis & 1:
                assert np.array_equal(pruned.eval(events[side]), dense), (name, axis)
            else:
                assert pruned is ZERO
                assert (dense == 0.0).all(), (name, axis)
                checked_zero += 1
    assert checked_zero > 0
    for iface in sol.interfaces:
        assert set(iface.gradient().components) == {(1,)}  # dPhi = dr, nothing else
