"""Constitutive relation of moving isotropic media and 3+1 decompositions.

The covariant constitutive map for a simple isotropic medium with bulk
4-velocity V is

    G = eps0 * [ (eps_r - 1/mu_r) (i_V F) ^ V~  +  (1/mu_r) F ]

which reduces to d = eps e and h = b/mu in the medium rest frame. Frame
decompositions follow the conventions

    e = i_U F          c b = i_U star F
    d = i_U G          h/c = i_U star G

so all four 1-forms are annihilated by i_U. The c placements are pinned
by the cylinder and sphere regression tests; do not move them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .fields import ScalarField, event_array, sqrt
from .forms import (
    ChartMismatchError,
    DiagonalMetric,
    DifferentialForm,
    GradeMismatchError,
    VectorField4,
    add,
    component_max,
    exterior_derivative,
    hodge_star,
    interior_product,
    linear_combine,
    lower_index,
    max_or_nan,
    scale,
    subtract,
    wedge,
)

SPEED_OF_LIGHT = 299792458.0  # m/s
VACUUM_PERMEABILITY = 4.0e-7 * math.pi  # H/m
VACUUM_PERMITTIVITY = 1.0 / (VACUUM_PERMEABILITY * SPEED_OF_LIGHT**2)  # F/m


class TransversalityError(ValueError):
    """Frame-decomposition inputs are not orthogonal to the frame."""


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic material constants, strict SI; the vacuum constants are
    the fixed SI values."""

    eps0: ClassVar[float] = VACUUM_PERMITTIVITY
    mu0: ClassVar[float] = VACUUM_PERMEABILITY
    c: ClassVar[float] = SPEED_OF_LIGHT

    eps_r: float
    mu_r: float

    def __post_init__(self):
        if self.eps_r <= 0.0:
            raise ValueError(f"eps_r must be positive, got {self.eps_r}")
        if self.mu_r <= 0.0:
            raise ValueError(f"mu_r must be positive, got {self.mu_r}")

    @classmethod
    def vacuum(cls) -> "MaterialParams":
        return cls(eps_r=1.0, mu_r=1.0)


def light_speed_field(g: DiagonalMetric) -> ScalarField:
    """sqrt(-g_00), the local light speed implied by the metric."""
    return sqrt(-g.diag[0])


def apply_constitutive(
    F: DifferentialForm,
    V: VectorField4,
    mat: MaterialParams,
    g: DiagonalMetric,
) -> DifferentialForm:
    """Excitation 2-form G of a moving isotropic medium."""
    if F.grade != 2:
        raise GradeMismatchError(f"constitutive input must be a 2-form, got grade {F.grade}")
    chi = mat.eps_r - 1.0 / mat.mu_r
    bracket = scale(chi, wedge(interior_product(V, F), lower_index(g, V)))
    return scale(mat.eps0, add(bracket, scale(1.0 / mat.mu_r, F)))


def decompose(
    two_form: DifferentialForm,
    frame: VectorField4,
    g: DiagonalMetric,
    kind: str,
) -> tuple[DifferentialForm, DifferentialForm]:
    """Split a 2-form into its frame-relative 1-form pair.

    ``kind="field"`` returns (e, b); ``kind="excitation"`` returns (d, h).
    """
    if two_form.grade != 2:
        raise GradeMismatchError(f"can only decompose 2-forms, got grade {two_form.grade}")
    first = interior_product(frame, two_form)
    star_part = interior_product(frame, hodge_star(g, two_form))
    c_field = light_speed_field(g)
    if kind == "field":
        return first, scale(1.0 / c_field, star_part)
    if kind == "excitation":
        return first, scale(c_field, star_part)
    raise ValueError(f"kind must be 'field' or 'excitation', got {kind!r}")


def recompose(
    e: DifferentialForm,
    b: DifferentialForm,
    frame: VectorField4,
    g: DiagonalMetric,
    check_events=None,
) -> DifferentialForm:
    """Rebuild F = e ^ U~ - star(c b ^ U~) from a transverse (e, b) pair.

    When ``check_events`` is given, i_U-transversality of the inputs is
    verified there and a :class:`TransversalityError` raised on failure.
    """
    if e.grade != 1 or b.grade != 1:
        raise GradeMismatchError("recompose expects two 1-forms")
    if check_events is not None and len(check_events):
        events = event_array(check_events)
        scale_ref = max(
            max_or_nan(np.maximum(component_max(e, events), component_max(b, events))),
            1e-300,
        )
        res_e = np.abs(interior_product(frame, e).component(()).eval(events))
        res_b = np.abs(interior_product(frame, b).component(()).eval(events))
        residual = np.maximum(res_e, res_b)
        bad = ~(residual <= 1e-9 * scale_ref)  # a NaN residual or scale fails too
        if bad.any():
            k = int(bad.argmax())
            raise TransversalityError(
                f"inputs not frame-transverse at {tuple(events[k].tolist())}: "
                f"residual {residual[k]:.3e}"
            )
    u_flat = lower_index(g, frame)
    cb = scale(light_speed_field(g), b)
    return subtract(wedge(e, u_flat), hodge_star(g, wedge(cb, u_flat)))


@dataclass(frozen=True, eq=False)
class EMDecomposition:
    """Frame-relative 1-form fields (e, b, d, h) of an (F, G) pair."""

    e: DifferentialForm
    b: DifferentialForm
    d: DifferentialForm
    h: DifferentialForm
    frame: VectorField4

    @classmethod
    def of(
        cls,
        F: DifferentialForm,
        G: DifferentialForm,
        frame: VectorField4,
        g: DiagonalMetric,
    ) -> "EMDecomposition":
        e, b = decompose(F, frame, g, "field")
        d, h = decompose(G, frame, g, "excitation")
        return cls(e=e, b=b, d=d, h=h, frame=frame)


def polarization(F: DifferentialForm, G: DifferentialForm, eps0: float) -> DifferentialForm:
    """Polarization 2-form Pi = G - eps0 F; zero in vacuum."""
    if F.grade != 2 or G.grade != 2:
        raise GradeMismatchError("polarization expects two 2-forms")
    if F.chart != G.chart:
        raise ChartMismatchError(f"chart mismatch: {F.chart!r} vs {G.chart!r}")
    return linear_combine([1.0, -eps0], [G, F])


def bound_sources(
    Pi: DifferentialForm,
    frame: VectorField4,
    g: DiagonalMetric,
) -> tuple[DifferentialForm, DifferentialForm]:
    """Bound current 2-form and bound charge 3-form of a polarization field.

    The bound 4-current 3-form is j_b = -d star Pi; it splits uniquely as
    j_b = J ^ U~ + rho with i_U J = 0 and i_U rho = 0, which forces
    J = -i_U j_b and rho = j_b + (i_U j_b) ^ U~.
    """
    if Pi.grade != 2:
        raise GradeMismatchError(f"polarization must be a 2-form, got grade {Pi.grade}")
    j_bound = scale(-1.0, exterior_derivative(hodge_star(g, Pi)))
    contracted = interior_product(frame, j_bound)
    current = scale(-1.0, contracted)
    rho = add(j_bound, wedge(contracted, lower_index(g, frame)))
    return current, rho
