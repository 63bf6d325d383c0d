"""Charts on flat Minkowski spacetime, observer frames and rotation fields.

Coordinate order is fixed: index 0 is always the time coordinate t; the
azimuthal coordinate sits at index 2 (cylindrical theta) or index 3
(spherical phi). Positive orientation is the listed coordinate order.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dual
from .dual import real
from .fields import ScalarField, first_bad_event, sin
from .forms import DiagonalMetric, VectorField4


class LightConeError(ValueError):
    """Rigid rotation evaluated at or beyond the light cylinder."""


@dataclass(frozen=True, eq=False)
class Chart:
    """A named coordinate chart with its metric."""

    name: str
    metric: DiagonalMetric
    light_speed: float


def _require_positive_c(c: float) -> float:
    if c <= 0.0:
        raise ValueError(f"speed of light must be positive, got {c}")
    return c


def cartesian_chart(c: float) -> Chart:
    """(t, x, y, z) with metric diag(-c^2, 1, 1, 1)."""
    c = _require_positive_c(c)
    metric = DiagonalMetric((ScalarField.constant(-c * c), 1.0, 1.0, 1.0))
    return Chart("cartesian", metric, c)


def cylindrical_chart(c: float) -> Chart:
    """(t, r, theta, z) with metric diag(-c^2, 1, r^2, 1), valid for r > 0."""
    c = _require_positive_c(c)
    r = ScalarField.coordinate(1)
    metric = DiagonalMetric((ScalarField.constant(-c * c), 1.0, r * r, 1.0))
    return Chart("cylindrical", metric, c)


def spherical_chart(c: float) -> Chart:
    """(t, r, theta, phi), metric diag(-c^2, 1, r^2, r^2 sin^2 theta).

    Valid for r > 0 and 0 < theta < pi; the metric degenerates on the axis.
    """
    c = _require_positive_c(c)
    r = ScalarField.coordinate(1)
    rs = r * sin(ScalarField.coordinate(2))
    metric = DiagonalMetric((ScalarField.constant(-c * c), 1.0, r * r, rs * rs))
    return Chart("spherical", metric, c)


def lab_frame(chart: Chart) -> VectorField4:
    """Inertial laboratory observer (1/c) d/dt; unit timelike."""
    inv_c = ScalarField.constant(1.0 / chart.light_speed)
    zero = ScalarField.zero()
    return VectorField4((inv_c, zero, zero, zero), chart.name)


def check_rim_speed(omega: float, radius: float, c: float) -> None:
    """Raise ValueError unless rigid rotation at ``omega`` stays below light
    speed out to ``radius``: ``|omega| radius < c``, and the argument of the
    :func:`rotating_velocity` root there, ``c*c - (radius*radius)*(omega*omega)``,
    is positive. One ulp below ``c / radius`` the second can round to 0
    while the first holds."""
    if abs(omega) * radius >= c or c * c - (radius * radius) * (omega * omega) <= 0.0:
        raise ValueError(f"rim speed {abs(omega) * radius:.3e} m/s reaches light speed")


def rotating_velocity(chart: Chart, omega: float, azimuth_axis: int) -> VectorField4:
    """Unit 4-velocity of rigid rotation about the chart's axis.

    ``(d/dt + omega d/d<azimuth>) / sqrt(c^2 - g_aa omega^2)``. Evaluation
    where the rotation speed reaches c raises :class:`LightConeError`.
    """
    if azimuth_axis not in (1, 2, 3):
        raise ValueError(f"azimuth axis must be spatial (1..3), got {azimuth_axis}")
    if omega == 0.0:
        return lab_frame(chart)
    c = chart.light_speed
    g_az = chart.metric.diag[azimuth_axis]
    g_fn = g_az.fn

    def root(event):
        arg = c * c - g_fn(event) * (omega * omega)
        where = first_bad_event(real(arg) <= 0.0, event)
        if where is not None:
            raise LightConeError(f"rotation reaches light speed at event {where}")
        return dual.sqrt(arg)

    # one node, so that both components share its value on a batch
    root_field = ScalarField(root, deps=g_az.deps)
    comps = [ScalarField.zero()] * 4
    comps[0] = 1.0 / root_field
    comps[azimuth_axis] = omega / root_field
    return VectorField4(tuple(comps), chart.name)
