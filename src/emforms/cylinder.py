"""Infinite dielectric shell rigidly rotating in an axial magnetic field.

The exterior field is the applied uniform induction B0 along z, written
F_out = c B0 r dr^dtheta. The interior admits a two-parameter family of
stationary axisymmetric solutions; imposing the covariant junction
conditions at both radii fixes the parameters and yields the exact
interior solution in closed form. Constants are also matched numerically
by least squares on sampled junction residuals and cross-checked against
the closed forms before a solution is returned.

Observables: the radial potential difference across the shell (exact
closed form and its non-relativistic leading term) and, for
side-by-side reporting only, the historically falsified rotating-frame
comparator field.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .fields import ScalarField
from .forms import _METRIC_FLOOR, DifferentialForm, form, linear_combine, scale
from .junction import Interface
from .media import MaterialParams, apply_constitutive
from .solutions import (
    INNER_BOX_FRACTION,
    CylinderConstants,
    FieldSolution,
    Region,
    by_side,
    check_closed_forms,
    match_junctions,
    require_finite,
)
from .spacetime import Chart, check_rim_speed, cylindrical_chart, rotating_velocity

AZIMUTH_AXIS = 2  # theta slot of the cylindrical chart


@dataclass(frozen=True)
class CylinderScenario:
    """Rotating shell geometry, drive field and material, strict SI."""

    GEOMETRY_KEYS: ClassVar[dict[str, str]] = {"r1_m": "r1", "r2_m": "r2"}
    DRIVE_KEY: ClassVar[tuple[str, str]] = ("b0_tesla", "b0")
    PROFILE_GRID: ClassVar[tuple[str, ...]] = ("radial_points",)

    r1: float
    r2: float
    omega: float
    b0: float
    mat: MaterialParams

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2:
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        r = INNER_BOX_FRACTION * self.r1  # where the inner vacuum region starts
        if r * r < _METRIC_FLOOR:
            raise ValueError(
                f"geometry.r1_m: r1 = {self.r1!r} m is too small for the metric floor: the inner vacuum "
                f"region reaches r = {r!r} m, where g_22 = r*r = {r * r!r} < {_METRIC_FLOOR!r}"
            )
        if not self.mat.eps0 * self.mat.eps_r > 0.0:  # the solution divides by it
            raise ValueError(f"material.eps_r: eps0 * eps_r underflows to 0 for eps_r = {self.mat.eps_r}")
        check_rim_speed(self.omega, self.r2, self.mat.c)

    @cached_property
    def chart(self) -> Chart:
        """The cylindrical chart of every form of the scenario, built on first use."""
        return cylindrical_chart(self.mat.c)

    @cached_property
    def interfaces(self) -> tuple[Interface, Interface]:
        """The interfaces r = r1 ("inner") and r = r2 ("outer"), built on
        first use, each sampled on an angular/axial grid and in its box."""
        r, r2 = ScalarField.coordinate(1), self.r2  # a grid holds numbers, never the scenario

        def on(radius, name):
            def grid(j, half):
                return (0.0, radius, 2.0 * math.pi * j / half, r2 * np.where(j % 2, -1.0, 1.0))

            box = _sampling_box(self, radius)
            return Interface(phi=r - radius, chart=self.chart.name, name=name, box=box, grid=grid)

        return on(self.r1, "inner"), on(self.r2, "outer")

    @cached_property
    def solution(self) -> tuple[FieldSolution, CylinderConstants]:
        """The matched solution and its constants, solved on first use by
        :func:`solve_cylinder` at its fixed match events (seed 0)."""
        return solve_cylinder(self)

    def profile(self, sol: FieldSolution, radial_points: int):
        return cylinder_profile(self, sol, radial_points)

    def observables(self, constants: CylinderConstants) -> dict:
        """Matched constants, the shell voltage V12 (leading and exact) and
        the mid-shell radial field next to the falsified comparator."""
        mid = 0.5 * (self.r1 + self.r2)
        mu_r, eps_r = self.mat.mu_r, self.mat.eps_r
        return {
            "matching_constants": {"C1": constants.c1, "C2": constants.c2},
            "v12_leading_volts": wilson_wilson_V12(self, mode="leading"),
            "v12_exact_volts": wilson_wilson_V12(self, mode="exact"),
            "radial_field_mid_volts_per_m": {
                "wilson_wilson": mu_r * (1.0 - 1.0 / (mu_r * eps_r)) * mid * self.omega * self.b0,
                "pellegrini_swift_falsified": pellegrini_swift_field(self, mid),
            },
        }


def exterior_maxwell_form(sc: CylinderScenario) -> DifferentialForm:
    """Uniform axial induction: F_out = c B0 r dr^dtheta."""
    r = ScalarField.coordinate(1)
    return form(2, sc.chart.name, {(1, 2): sc.mat.c * sc.b0 * r})


def _sampling_box(sc: CylinderScenario, radius) -> tuple:
    """Coordinate box of sampled events: one light crossing of r2 in time,
    a full turn, |z| <= r2, and the given radius (fixed or a range)."""
    return ((0.0, sc.r2 / sc.mat.c), radius, (0.0, 2.0 * math.pi), (-sc.r2, sc.r2))


def _interior_family(sc: CylinderScenario, chart: Chart):
    """Basis of the stationary axisymmetric interior family.

    The source-free excitation must satisfy r G_tr = k1 and G_rtheta / r = k2
    with constant amplitudes (k1, k2); inverting the constitutive map gives
    the matching Maxwell-form basis. Parametrising by (k1, k2) stays
    regular at omega = 0 and at eps_r mu_r = 1, where the substituted
    integration constants become indeterminate.
    """
    c, om = sc.mat.c, sc.omega
    eps_r, eps0 = sc.mat.eps_r, sc.mat.eps0
    em = eps_r * sc.mat.mu_r
    r = ScalarField.coordinate(1)
    s = r * r * (om * om)
    d = s - c * c
    pref = 1.0 / (eps0 * eps_r)

    g_basis = (
        form(2, chart.name, {(0, 1): 1.0 / r}),
        form(2, chart.name, {(1, 2): r}),
    )
    f_basis = (
        form(
            2,
            chart.name,
            {
                (0, 1): pref * (s * em - c * c) / (r * d),
                (1, 2): pref * r * om * (em - 1.0) / d,
            },
        ),
        form(
            2,
            chart.name,
            {
                (0, 1): pref * (-c * c * om * (em - 1.0)) * r / d,
                (1, 2): pref * r * (s - c * c * em) / d,
            },
        ),
    )
    return f_basis, g_basis


def match_cylinder_amplitudes(sc: CylinderScenario, seed: int = 0) -> tuple[float, float]:
    """Least-squares junction match of the interior family amplitudes
    (k1, k2) at ``MATCH_SAMPLES`` events on each radius, at the scenario's
    own B0, by :func:`~emforms.solutions.match_junctions`, from one
    assembly of the family basis at the matcher's amplitude fields.

    The events are ``iface.events(MATCH_SAMPLES, seed)`` of each of
    ``sc.interfaces``; the CLI matches at seed 0, so a scenario's match
    does not depend on the run's ``--seed``."""
    f_basis, g_basis = _interior_family(sc, sc.chart)
    f_out = exterior_maxwell_form(sc)
    g_out = scale(sc.mat.eps0, f_out)

    def build(k, drive):
        return (
            linear_combine(k, f_basis),
            scale(drive, f_out),
            linear_combine(k, g_basis),
            scale(drive, g_out),
        )

    # one physical unit of each amplitude
    unit = sc.mat.eps0 * sc.mat.c * abs(sc.b0)
    k1, k2 = match_junctions(build, (unit * sc.r2, unit), sc.interfaces, seed, sc.chart.metric, "junction")
    return float(k1), float(k2)


def _amplitudes_to_constants(sc: CylinderScenario, k1: float, k2: float) -> CylinderConstants:
    c, om = sc.mat.c, sc.omega
    eps_r, eps0 = sc.mat.eps_r, sc.mat.eps0
    em = eps_r * sc.mat.mu_r
    c1 = k1 * c * c / (eps0 * eps_r)
    c2 = ((em - 1.0) * c**4 * om * k2 / (eps0 * eps_r) - c1 * em * om * om) / (c * c)
    return CylinderConstants(c1=c1, c2=c2)


def match_cylinder_constants(sc: CylinderScenario, seed: int = 0) -> CylinderConstants:
    """Numerically matched integration constants, no closed forms used."""
    k1, k2 = match_cylinder_amplitudes(sc, seed)
    return _amplitudes_to_constants(sc, k1, k2)


def closed_form_constants(sc: CylinderScenario) -> CylinderConstants:
    em = sc.mat.eps_r * sc.mat.mu_r
    return CylinderConstants(
        c1=0.0,
        c2=sc.mat.c**3 * sc.b0 * sc.omega * (em - 1.0) / sc.mat.eps_r,
    )


def solve_cylinder(sc: CylinderScenario, seed: int = 0) -> tuple[FieldSolution, CylinderConstants]:
    """Exact matched solution of the rotating shell.

    The integration constants come out of the numeric junction match and
    are cross-checked against their closed forms; disagreement raises
    :class:`MatchingError`, and so does a matched amplitude or a closed-form
    constant that is not finite. The interior Maxwell form is the interior
    family at the closed-form amplitudes (k1, k2) = (0, eps0 c B0), and the
    returned excitation is its constitutive image. ``seed`` picks the match
    events (:func:`match_cylinder_amplitudes`); the CLI solves at the
    default, through ``CylinderScenario.solution``.
    """
    chart = sc.chart
    metric = chart.metric
    velocity = rotating_velocity(chart, sc.omega, AZIMUTH_AXIS)

    k1, k2 = match_cylinder_amplitudes(sc, seed)
    closed_k = (0.0, sc.mat.eps0 * sc.mat.c * sc.b0)
    unit = abs(closed_k[1])
    check_closed_forms(
        {"k1": k1, "k2": k2}, {"k1": closed_k[0], "k2": closed_k[1]}, {"k1": unit, "k2": unit}
    )
    constants = closed_form_constants(sc)
    require_finite("closed-form", C1=constants.c1, C2=constants.c2)

    f_basis, _ = _interior_family(sc, chart)
    f_in = linear_combine(closed_k, f_basis)
    g_in = apply_constitutive(f_in, velocity, sc.mat, metric)
    f_out = exterior_maxwell_form(sc)
    g_out = scale(sc.mat.eps0, f_out)
    r1, r2 = sc.r1, sc.r2

    solution = FieldSolution(
        chart=chart,
        f_in=f_in,
        g_in=g_in,
        f_out=f_out,
        g_out=g_out,
        interfaces=sc.interfaces,
        order="exact",
        regions=(
            Region("medium", True, _sampling_box(sc, (1.001 * r1, 0.999 * r2))),
            Region("vacuum_inner", False, _sampling_box(sc, (INNER_BOX_FRACTION * r1, 0.999 * r1))),
            Region("vacuum_outer", False, _sampling_box(sc, (1.001 * r2, 3.0 * r2))),
        ),
        length_scale=r2,
        expansion_parameter=0.0,
    )
    return solution, constants


def wilson_wilson_V12(sc: CylinderScenario, mode: str = "exact") -> float:
    """Radial potential difference across the shell, in volts.

    ``mode="leading"`` evaluates the non-relativistic closed form
    mu_r (1 - 1/(mu_r eps_r)) (omega/2) B0 (r2^2 - r1^2). ``mode="exact"``
    is the line integral of the exact interior radial field from r1 to r2,
    in closed form:

        -(c^2 B0 (eps_r mu_r - 1) / (2 eps_r omega)) log1p((x1 - x2) / (1 - x1))

    with xi = (ri omega / c)^2; it is 0 at omega = 0. Where x1 - x2 or
    (omega / c)^2 is below the smallest normal float, log1p would lose
    digits or return 0 and c^2 / omega may overflow, so the limit
    -(B0 (eps_r mu_r - 1) / (2 eps_r)) (r1 - r2)(r1 + r2) omega / (1 - x1)
    is returned there: log1p(y) / y is 1 to double precision at such y.
    """
    mu_r, eps_r = sc.mat.mu_r, sc.mat.eps_r
    if mode == "leading":
        return mu_r * (1.0 - 1.0 / (mu_r * eps_r)) * 0.5 * sc.omega * sc.b0 * (
            sc.r2**2 - sc.r1**2
        )
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'leading', got {mode!r}")
    if sc.omega == 0.0:
        return 0.0
    c, om = sc.mat.c, sc.omega
    x1 = (sc.r1 * om / c) ** 2
    # x1 - x2 factored so that a thin shell keeps full relative precision
    x1_minus_x2 = (sc.r1 - sc.r2) * (sc.r1 + sc.r2) * (om / c) ** 2
    if min(abs(x1_minus_x2), (om / c) ** 2) < sys.float_info.min:
        lead = sc.b0 * (eps_r * mu_r - 1.0) / (2.0 * eps_r)
        return -lead * (sc.r1 - sc.r2) * (sc.r1 + sc.r2) * om / (1.0 - x1)
    pref = c * c * sc.b0 * (eps_r * mu_r - 1.0) / (2.0 * eps_r * om)
    return -pref * math.log1p(x1_minus_x2 / (1.0 - x1))


def pellegrini_swift_field(sc: CylinderScenario, r: float) -> float:
    """Rotating-frame comparator field mu_r (1/eps_r - 1) r omega B0.

    This is the historically falsified alternative to the measured radial
    field; it is exposed only for side-by-side reporting.
    """
    if not sc.r1 <= r <= sc.r2:
        raise ValueError(f"radius {r} outside shell [{sc.r1}, {sc.r2}]")
    return sc.mat.mu_r * (1.0 / sc.mat.eps_r - 1.0) * r * sc.omega * sc.b0


def cylinder_profile(sc: CylinderScenario, sol: FieldSolution, radial_points: int):
    """Radial profile across all three regions, physical SI components of
    the solution's lab-frame fields: the header, the field columns at each
    radius, and the axes ``(radii,)``."""
    header = ["r", "e_r", "b_z", "d_r", "h_z", "p_r", "m_z", "rho_bound", "j_bound"]
    current, rho, p_form, m_form = cylinder_bound_sources(sc)

    radii = np.linspace(0.5 * sc.r1, 1.5 * sc.r2, radial_points)
    events = np.zeros((radial_points, 4))
    events[:, 1] = radii
    inside = (sc.r1 < radii) & (radii < sc.r2)
    medium = events[inside]
    sources = np.zeros((4, radial_points))  # p_r, m_z, rho_bound, j_bound; zero outside
    sources[0, inside] = p_form.component((1,)).eval(medium)
    sources[1, inside] = m_form.component((3,)).eval(medium)
    # scalar density: rho / (r dr^dth^dz)
    sources[2, inside] = rho.component((1, 2, 3)).eval(medium) / radii[inside]
    # azimuthal flux density on dz^dr
    sources[3, inside] = -current.component((1, 3)).eval(medium)
    columns = by_side(sol, inside, events, [("e", (1,)), ("b", (3,)), ("d", (1,)), ("h", (3,))])
    return header, np.column_stack([*columns, *sources]), (radii,)


def cylinder_bound_sources(
    sc: CylinderScenario,
) -> tuple[DifferentialForm, DifferentialForm, DifferentialForm, DifferentialForm]:
    """Closed-form bound current, bound charge, polarization, magnetization.

    Returns (current 2-form, charge 3-form, p 1-form, m 1-form) in the
    shell interior. These match the module path (bound_sources applied to
    the interior polarization) and are what the CSV profiles report.
    """
    chart = sc.chart
    c, om, b0 = sc.mat.c, sc.omega, sc.b0
    eps_r, mu_r, eps0 = sc.mat.eps_r, sc.mat.mu_r, sc.mat.eps0
    em = eps_r * mu_r
    r = ScalarField.coordinate(1)
    d = r * r * (om * om) - c * c

    p = form(
        1,
        chart.name,
        {(1,): (mu_r - 1.0 / eps_r) * (c * c * om * eps0 * b0) * r / d},
    )
    m = form(
        1,
        chart.name,
        {
            (3,): (eps0 * c * c * b0 / eps_r)
            * (c * c * eps_r * (mu_r - 1.0) + r * r * (om * om) * (eps_r - 1.0))
            / d
        },
    )
    rho = form(
        3,
        chart.name,
        {(1, 2, 3): (-2.0 * c**4 * om * eps0 * b0 * (em - 1.0) / eps_r) * r / (d * d)},
    )
    current = form(
        2,
        chart.name,
        {(1, 3): (2.0 * eps0 * c**3 * b0 * om * om * (em - 1.0) / eps_r) * r / (d * d)},
    )
    return current, rho, p, m


def nonrelativistic_limit(sc: CylinderScenario) -> tuple[DifferentialForm, DifferentialForm]:
    """Leading-order interior fields for rim speeds far below c.

    e ~ B0 (eps_r mu_r - 1) r omega dr / eps_r and b ~ mu_r B0 dz; the
    exact solution approaches these with a relative defect of order
    (r omega / c)^2.
    """
    chart = sc.chart
    em = sc.mat.eps_r * sc.mat.mu_r
    r = ScalarField.coordinate(1)
    e_leading = form(
        1,
        chart.name,
        {(1,): (sc.b0 * (em - 1.0) * sc.omega / sc.mat.eps_r) * r},
    )
    b_leading = form(1, chart.name, {(3,): sc.mat.mu_r * sc.b0})
    return e_leading, b_leading
