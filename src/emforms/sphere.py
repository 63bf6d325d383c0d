"""Dielectric sphere rotating uniformly about a static electric field axis.

Solved perturbatively to first order in the rim speed a*omega/c, after
the standard multipole strategy: a uniform interior field plus an
interior magnetostatic quadrupole, matched at r = a against the applied
field, an exterior electrostatic dipole and an exterior magnetostatic
quadrupole. The potential ansatz is

    A_in  = K0 r cos(th) dt + omega K1 r^3 cos(th) sin^2(th) dphi
    A_out = E0 r cos(th) dt + P0 cos(th)/r^2 dt
            + omega P1 cos(th) sin^2(th)/r^2 dphi

with (K0, K1, P0, P1) independent of omega. Matching uses the excitation
truncated to first order in omega; the shipped solution carries the full
constitutive excitation, so its residuals scale as (a omega / c)^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .fields import ScalarField, cos, sin
from .forms import (
    _METRIC_FLOOR,
    DifferentialForm,
    VectorField4,
    add,
    exterior_derivative,
    form,
    interior_product,
    lower_index,
    scale,
    wedge,
)
from .junction import Interface
from .media import MaterialParams, apply_constitutive
from .solutions import (
    INNER_BOX_FRACTION,
    FieldSolution,
    Region,
    SphereConstants,
    by_side,
    check_closed_forms,
    match_junctions,
)
from .spacetime import Chart, check_rim_speed, lab_frame, rotating_velocity, spherical_chart

AZIMUTH_AXIS = 3  # phi slot of the spherical chart

_POLE_MARGIN = 0.1  # radians kept clear of the coordinate axis


@dataclass(frozen=True)
class SphereScenario:
    """Rotating sphere geometry, drive field and material, strict SI."""

    GEOMETRY_KEYS: ClassVar[dict[str, str]] = {"a_m": "a"}
    DRIVE_KEY: ClassVar[tuple[str, str]] = ("e0_volt_per_m", "e0")
    PROFILE_GRID: ClassVar[tuple[str, ...]] = ("radial_points", "angular_points")

    a: float
    omega: float
    e0: float
    mat: MaterialParams

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError(f"radius must be positive, got {self.a}")
        # where the medium region starts, at its polar margin
        r = INNER_BOX_FRACTION * self.a
        rs = r * math.sin(_POLE_MARGIN)
        if rs * rs < _METRIC_FLOOR:
            raise ValueError(
                f"geometry.a_m: a = {self.a!r} m is too small for the metric floor: the medium region "
                f"reaches r = {r!r} m at theta = {_POLE_MARGIN!r}, where g_33 = (r*sin(theta))**2 = "
                f"{rs * rs!r} < {_METRIC_FLOOR!r}"
            )
        if not math.isfinite(self.omega):
            raise ValueError(f"rotation rate must be finite, got {self.omega}")
        for power in (3, 5):  # the scales of the multipole amplitudes
            try:
                self.a**power
            except OverflowError:
                raise ValueError(f"geometry.a_m: a**{power} overflows a float for a = {self.a}") from None
        check_rim_speed(self.omega, self.a, self.mat.c)
        if abs(self.omega) * self.a > 0.1 * self.mat.c:
            # level 2 is the generated dataclass __init__; 3 is its caller
            warnings.warn(
                "rim speed above 0.1 c: the first-order solution degrades",
                stacklevel=3,
            )

    @cached_property
    def chart(self) -> Chart:
        """The spherical chart of every form of the scenario, built on first use."""
        return spherical_chart(self.mat.c)

    @cached_property
    def interfaces(self) -> tuple[Interface]:
        """The one interface, the surface r = a, built on first use and
        sampled on a polar grid and in its box."""
        a = self.a  # the grid holds the radius, never the scenario

        def grid(j, half):
            theta = _POLE_MARGIN + (math.pi - 2.0 * _POLE_MARGIN) * (j + 0.5) / half
            return (0.0, a, theta, 2.0 * math.pi * j / half)

        phi = ScalarField.coordinate(1) - a
        return (Interface(phi=phi, chart=self.chart.name, name="surface", box=_sampling_box(self, a), grid=grid),)

    @property
    def expansion_parameter(self) -> float:
        return abs(self.omega) * self.a / self.mat.c

    @cached_property
    def solution(self) -> tuple[FieldSolution, SphereConstants]:
        """The matched solution and its constants, solved on first use by
        :func:`solve_sphere` at its fixed match events (seed 0)."""
        return solve_sphere(self)

    def profile(self, sol: FieldSolution, radial_points: int, angular_points: int):
        return sphere_profile(self, sol, radial_points, angular_points)

    def observables(self, constants: SphereConstants) -> dict:
        """The matched multipole amplitudes."""
        return {
            "matching_constants": {
                "K0": constants.k0,
                "K1": constants.k1,
                "P0": constants.p0,
                "P1": constants.p1,
            },
        }


def _potential_basis(chart: Chart) -> dict[str, DifferentialForm]:
    """omega-stripped 1-form potentials of the multipole ansatz."""
    r = ScalarField.coordinate(1)
    cth = cos(ScalarField.coordinate(2))
    sth = sin(ScalarField.coordinate(2))
    name = chart.name
    return {
        "uniform_t": form(1, name, {(0,): r * cth}),
        "quad_in": form(1, name, {(3,): r**3 * cth * sth**2}),
        "dipole_t": form(1, name, {(0,): cth / (r * r)}),
        "quad_out": form(1, name, {(3,): cth * sth**2 / (r * r)}),
    }


def _field_basis(chart: Chart) -> dict[str, DifferentialForm]:
    return {k: exterior_derivative(v) for k, v in _potential_basis(chart).items()}


def truncated_excitation(
    f0: DifferentialForm,
    f1: DifferentialForm,
    omega: float,
    mat: MaterialParams,
    chart: Chart,
) -> DifferentialForm:
    """Constitutive excitation expanded through first order in omega.

    ``f0`` and ``f1`` are the omega^0 and omega^1 parts of F. The first
    order in the medium velocity enters through V ~ U + (omega/c) d/dphi,
    so the correction picks up the contraction along d/dphi and the
    lowered azimuthal leg.
    """
    g = chart.metric
    u = lab_frame(chart)
    u_flat = lower_index(g, u)
    w = VectorField4(
        (ScalarField.zero(), ScalarField.zero(), ScalarField.zero(), ScalarField.one()),
        chart.name,
    )
    w_flat = lower_index(g, w)
    f_total = add(f0, scale(omega, f1))
    base = wedge(interior_product(u, f_total), u_flat)
    correction = add(
        wedge(interior_product(w, f0), u_flat),
        wedge(interior_product(u, f0), w_flat),
    )
    chi = mat.eps_r - 1.0 / mat.mu_r
    bracket = scale(chi, add(base, scale(omega / chart.light_speed, correction)))
    return scale(mat.eps0, add(bracket, scale(1.0 / mat.mu_r, f_total)))


def _sampling_box(sc: SphereScenario, radius) -> tuple:
    """Coordinate box of sampled events: one light crossing of a in time,
    polar angles clear of the axis, a full turn, and the given radius
    (fixed or a range)."""
    return (
        (0.0, sc.a / sc.mat.c),
        radius,
        (_POLE_MARGIN, math.pi - _POLE_MARGIN),
        (0.0, 2.0 * math.pi),
    )


def match_sphere_constants(sc: SphereScenario, seed: int = 0) -> SphereConstants:
    """Least-squares junction match of (K0, K1, P0, P1) at ``MATCH_SAMPLES``
    events on r = a, by :func:`~emforms.solutions.match_junctions`.

    The junction residual is affine in the four amplitudes because the
    truncated excitation is linear in the potentials, so the builder is
    called once, with the matcher's amplitude fields, and its forms give
    the applied field and all four columns. The constants do not
    depend on the rotation rate, but the first-order amplitudes decouple
    from the data at omega = 0 and their columns underflow at a tiny
    omega, so every sphere is matched at the probe rate a omega / c = 0.01.
    The system is linear in the drive, so it is matched at unit drive and
    the amplitudes are scaled by E0: a tiny drive would otherwise make the
    column units (K1's is E0/c^2) subnormal.

    The events are ``iface.events(MATCH_SAMPLES, seed)`` of the surface;
    the CLI matches at seed 0, so a scenario's match does not depend on the
    run's ``--seed``.
    """
    chart = sc.chart
    basis = _field_basis(chart)
    omega = 0.01 * sc.mat.c / sc.a

    def build(amplitudes, drive):
        k0, k1, p0, p1 = amplitudes
        f0_in = scale(k0, basis["uniform_t"])
        f1_in = scale(k1, basis["quad_in"])
        f0_out = add(scale(drive, basis["uniform_t"]), scale(p0, basis["dipole_t"]))
        f1_out = scale(p1, basis["quad_out"])
        g_in = truncated_excitation(f0_in, f1_in, omega, sc.mat, chart)
        g_out = scale(sc.mat.eps0, add(f0_out, scale(omega, f1_out)))
        f_in = add(f0_in, scale(omega, f1_in))
        f_out = add(f0_out, scale(omega, f1_out))
        return f_in, f_out, g_in, g_out

    units = list(vars(_constant_scales(sc, 1.0)).values())
    matched = match_junctions(build, units, sc.interfaces, seed, chart.metric, "sphere junction")
    return SphereConstants(*(float(x) * sc.e0 for x in matched))


def closed_form_constants(sc: SphereScenario) -> SphereConstants:
    """Amplitudes that satisfy the junction conditions analytically.

    K0 and P0 are the textbook dielectric-sphere values. The rotational
    amplitudes follow from normal-b and tangential-h continuity at r = a:
    the l = 2 magnetostatic matching gives K1 a (2 mu_r + 3) denominator
    (interior quadrupole plus the exterior quadrupole's reaction), with
    P1 = a^5 K1. The mu_r = 1 case reduces to the classical rotating
    polarized sphere driven by its convected bound surface charge.
    """
    eps_r, mu_r, c = sc.mat.eps_r, sc.mat.mu_r, sc.mat.c
    k0 = 3.0 * sc.e0 / (eps_r + 2.0)
    k1 = k0 * (eps_r * mu_r - 1.0) / (c * c * (2.0 * mu_r + 3.0))
    return SphereConstants(
        k0=k0,
        k1=k1,
        p0=-sc.e0 * sc.a**3 * (eps_r - 1.0) / (2.0 + eps_r),
        p1=sc.a**5 * k1,
    )


def _constant_scales(sc: SphereScenario, e0: float) -> SphereConstants:
    """One physical unit of each amplitude at drive ``e0``."""
    c = sc.mat.c
    e0 = abs(e0)
    return SphereConstants(
        k0=e0,
        k1=e0 / (c * c),
        p0=e0 * sc.a**3,
        p1=e0 * sc.a**5 / (c * c),
    )


def solve_sphere(sc: SphereScenario, seed: int = 0) -> tuple[FieldSolution, SphereConstants]:
    """First-order matched solution of the rotating sphere.

    Constants are matched numerically and cross-checked against their
    closed forms; a constant that is not finite raises
    :class:`MatchingError`. The shipped interior excitation uses the exact
    constitutive map with the exact rotation 4-velocity, so Maxwell and
    junction residuals of the returned solution are O((a omega / c)^2).
    ``seed`` picks the match events (:func:`match_sphere_constants`); the
    CLI solves at the default, through ``SphereScenario.solution``.
    """
    chart = sc.chart
    metric = chart.metric
    matched = match_sphere_constants(sc, seed)
    closed = closed_form_constants(sc)
    check_closed_forms(vars(matched), vars(closed), vars(_constant_scales(sc, sc.e0)))

    basis = _field_basis(chart)
    f_in = add(
        scale(closed.k0, basis["uniform_t"]),
        scale(sc.omega * closed.k1, basis["quad_in"]),
    )
    f_out = add(
        add(scale(sc.e0, basis["uniform_t"]), scale(closed.p0, basis["dipole_t"])),
        scale(sc.omega * closed.p1, basis["quad_out"]),
    )
    velocity = rotating_velocity(chart, sc.omega, AZIMUTH_AXIS)
    g_in = apply_constitutive(f_in, velocity, sc.mat, metric)
    g_out = scale(sc.mat.eps0, f_out)

    solution = FieldSolution(
        chart=chart,
        f_in=f_in,
        g_in=g_in,
        f_out=f_out,
        g_out=g_out,
        interfaces=sc.interfaces,
        order="first-order",
        regions=(
            Region("medium", True, _sampling_box(sc, (INNER_BOX_FRACTION * sc.a, 0.999 * sc.a))),
            Region("vacuum", False, _sampling_box(sc, (1.001 * sc.a, 10.0 * sc.a))),
        ),
        length_scale=sc.a,
        expansion_parameter=sc.expansion_parameter,
    )
    return solution, closed


def sphere_profile(sc: SphereScenario, sol: FieldSolution, radial_points: int, angular_points: int):
    """(r, theta) grid of orthonormal components of the solution's lab-frame
    fields, in SI over c: the header, the field columns at each grid point
    (theta fastest), and the axes ``(radii, thetas)``."""
    header = ["r", "theta", "e_r", "e_theta", "b_r", "b_theta"]
    radii = np.linspace(0.1 * sc.a, 2.0 * sc.a, radial_points)
    thetas = np.linspace(0.15, math.pi - 0.15, angular_points)
    r = np.repeat(radii, angular_points)  # rows run over theta within each radius
    th = np.tile(thetas, radial_points)
    events = np.column_stack([np.zeros_like(r), r, th, np.zeros_like(r)])
    inside = r < sc.a
    e_r, e_th, b_r, b_th = by_side(sol, inside, events, [("e", (1,)), ("e", (2,)), ("b", (1,)), ("b", (2,))])
    return header, np.column_stack([e_r, e_th / r, b_r, b_th / r]), (radii, thetas)
