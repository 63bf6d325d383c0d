"""Junction conditions on moving interfaces between media.

An interface is the zero set of a spacetime function Phi; the side with
Phi < 0 is labelled "inside". The covariant matching conditions are

    [F] ^ dPhi |_{Phi=0} = 0        [star G] ^ dPhi |_{Phi=0} = 0

and this module evaluates their residuals at sampled interface events.
The equivalent 3-vector (Gibbs) relations

    N . [d] = 0        v_N [d] + N x [h] = 0
    N . [b] = 0        v_N [b] - N x [e] = 0

are computed independently in the orthonormal spatial frame of a
lab-aligned observer as a cross-check, with N the outward unit normal
(pointing from Phi < 0 to Phi > 0) and v_N the normal interface speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .fields import Event, ScalarField, coerce, event_array, first_bad_event
from .forms import (
    DiagonalMetric,
    DifferentialForm,
    GradeMismatchError,
    VectorField4,
    component_max,
    evaluate,
    exterior_derivative,
    hodge_star,
    max_or_nan,
    subtract,
    wedge,
)

ON_INTERFACE_TOL = 1e-12

# Handedness of the spatial cross product in the 3-vector relations.
# Fixed so that the four relations vanish exactly whenever the covariant
# conditions do under the (t, x1, x2, x3) chart orientation; the
# light-front regression test pins this value.
_CROSS_SIGN = -1.0

_SCALE_FLOOR = 1e-300


class InterfaceSampleError(ValueError):
    """A sample event does not lie on the interface."""


class DegenerateInterfaceError(ValueError):
    """dPhi vanishes or is purely temporal at a sample event."""


@dataclass(frozen=True, eq=False)
class Interface:
    """Hypersurface Phi = 0; the Phi < 0 side is the medium interior."""

    phi: ScalarField
    chart: str
    name: str = "interface"

    def __post_init__(self):
        object.__setattr__(self, "phi", coerce(self.phi))

    def gradient(self) -> DifferentialForm:
        return exterior_derivative(DifferentialForm(0, {(): self.phi}, self.chart))


@dataclass
class JumpReport:
    """Sampled junction-condition residuals on one interface.

    ``samples`` is the (N, 4) event array and each residual an array over
    those events. The residual functions store them read-only, so the
    maxima and the summary, computed once on first use, cannot go stale.
    :meth:`to_json_dict` is the summary that ``verification.json`` holds;
    :meth:`arrays_json_dict` the per-sample arrays of the opt-in samples
    output.
    """

    interface: str
    samples: np.ndarray
    residuals: dict[str, np.ndarray]
    residuals_rel: dict[str, np.ndarray]

    @cached_property
    def max_abs(self) -> float:
        return max_or_nan(np.concatenate(list(self.residuals.values())))

    @cached_property
    def max_rel(self) -> float:
        return max_or_nan(np.concatenate(list(self.residuals_rel.values())))

    def to_json_dict(self) -> dict:
        """The maxima, overall and per condition, and the worst event: the
        condition and event at the largest relative residual, where the
        first NaN in event order wins so that a NaN event is named (None
        without samples)."""
        names = list(self.residuals)
        # (absolute, relative) x condition x event, reduced over the events at once
        stacked = np.array([list(self.residuals.values()), list(self.residuals_rel.values())], dtype=float)
        maxima = stacked.max(axis=2, initial=0.0).tolist()
        worst = None
        if stacked.shape[2]:
            event, condition = divmod(int(stacked[1].T.argmax()), len(names))
            worst = {
                "condition": names[condition],
                "event": self.samples[event].tolist(),
                "rel": float(stacked[1, condition, event]),
            }
        return {
            "interface": self.interface,
            "count": len(self.samples),
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "condition_max_abs": dict(zip(names, maxima[0])),
            "condition_max_rel": dict(zip(names, maxima[1])),
            "worst": worst,
        }

    def arrays_json_dict(self) -> dict:
        """The per-sample event and residual arrays, written as they are."""
        return {
            "interface": self.interface,
            "samples": self.samples,
            "residuals": self.residuals,
            "residuals_rel": self.residuals_rel,
        }


def _on_interface(iface: Interface, samples) -> np.ndarray:
    """``samples`` as a new (N, 4) event array, each checked to lie on the interface."""
    events = event_array(np.array(samples, dtype=float))
    phi = iface.phi.eval(events)
    off = np.abs(phi) > ON_INTERFACE_TOL
    if off.any():
        k = int(off.argmax())
        raise InterfaceSampleError(
            f"event {tuple(events[k].tolist())} is off interface {iface.name!r}: "
            f"Phi = {phi[k]:.3e}"
        )
    return events


def _require_nondegenerate(bad: np.ndarray, events: np.ndarray, what: str) -> None:
    where = first_bad_event(bad, events.T)
    if where is not None:
        raise DegenerateInterfaceError(f"dPhi {what} at {where}")


def interface_normal_velocity(
    iface: Interface,
    frame: VectorField4,
    g: DiagonalMetric,
    events,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Unit spatial normal 1-form (coordinate components) and normal speed
    at the rows of an (N, 4) event array, each an array over the events.

    N is the frame-orthogonal projection of dPhi, normalised in the
    induced spatial metric; v_N = -(i_U dPhi) c / |projection| is positive
    for an interface moving toward the Phi > 0 side.
    """
    events = event_array(events)
    u_vec = [frame.components[a].eval(events) for a in range(4)]
    g_vec = [g.diag[a].eval(events) for a in range(4)]
    dphi = evaluate(iface.gradient(), events)
    dphi_vec = [dphi[(a,)] for a in range(4)]
    scale_dphi = np.max(np.abs(dphi_vec), axis=0)
    _require_nondegenerate(scale_dphi <= 0.0, events, "vanishes")
    contracted = sum(d * u for d, u in zip(dphi_vec, u_vec))
    u_flat = [gv * uv for gv, uv in zip(g_vec, u_vec)]
    projected = [d + contracted * uf for d, uf in zip(dphi_vec, u_flat)]
    norm_sq = sum(p * p / gv for p, gv in zip(projected, g_vec))
    _require_nondegenerate(norm_sq <= (1e-14 * scale_dphi) ** 2, events, "is purely temporal")
    norm = norm_sq**0.5
    c = (-g_vec[0]) ** 0.5
    normal = [p / norm for p in projected]
    v_n = -contracted * c / norm
    return normal, v_n


def field_jumps(
    f_in: DifferentialForm,
    f_out: DifferentialForm,
    star_g_in: DifferentialForm,
    star_g_out: DifferentialForm,
) -> tuple[DifferentialForm, DifferentialForm]:
    """The jumps [F] and [star G] across an interface, outside minus inside."""
    return subtract(f_out, f_in), subtract(star_g_out, star_g_in)


def covariant_jump_residual(
    f_in: DifferentialForm,
    f_out: DifferentialForm,
    g_in: DifferentialForm,
    g_out: DifferentialForm,
    iface: Interface,
    metric: DiagonalMetric,
    samples: Sequence[Event],
) -> JumpReport:
    """Residuals of [F] ^ dPhi and [star G] ^ dPhi at interface events.

    Relative residuals are normalised per condition by the exterior-field
    scale at each sample: |F_out| |dPhi| for the first condition and
    |star G_out| |dPhi| for the second.
    """
    for f in (f_in, f_out, g_in, g_out):
        if f.grade != 2:
            raise GradeMismatchError("junction conditions expect grade-2 forms")
    dphi = iface.gradient()
    star_g_out = hodge_star(metric, g_out)
    jumps = field_jumps(f_in, f_out, hodge_star(metric, g_in), star_g_out)
    jump_f, jump_g = [wedge(jump, dphi) for jump in jumps]

    events = _on_interface(iface, samples)
    dphi_scale = component_max(dphi, events)
    _require_nondegenerate(dphi_scale <= 0.0, events, "vanishes")
    rf = component_max(jump_f, events)
    rg = component_max(jump_g, events)
    sf = component_max(f_out, events) * dphi_scale
    sg = component_max(star_g_out, events) * dphi_scale
    return _report(
        iface,
        events,
        {"f_jump": rf, "star_g_jump": rg},
        {
            "f_jump": rf / np.maximum(sf, _SCALE_FLOOR),
            "star_g_jump": rg / np.maximum(sg, _SCALE_FLOOR),
        },
    )


def _report(
    iface: Interface, events: np.ndarray, residuals: dict, residuals_rel: dict
) -> JumpReport:
    for values in (events, *residuals.values(), *residuals_rel.values()):
        values.setflags(write=False)
    return JumpReport(
        interface=iface.name,
        samples=events,
        residuals=residuals,
        residuals_rel=residuals_rel,
    )


def _require_lab_aligned(u_vec, events: np.ndarray) -> None:
    """Raise unless the frame components ``u_vec`` have no spatial part at any event."""
    bad = np.max(np.abs(u_vec[1:]), axis=0) > 1e-12 * np.abs(u_vec[0])
    where = first_bad_event(bad, events.T)
    if where is not None:
        raise ValueError(
            "Gibbs residuals are implemented for lab-aligned frames only; "
            f"the frame is not lab-aligned at {where}"
        )


def _orthonormal_spatial(one_form: DifferentialForm, events, g_vec) -> list[np.ndarray]:
    vals = evaluate(one_form, events)
    return [vals[(i,)] / g_vec[i] ** 0.5 for i in (1, 2, 3)]


def _cross(x: Sequence, y: Sequence) -> list:
    rh = [
        x[1] * y[2] - x[2] * y[1],
        x[2] * y[0] - x[0] * y[2],
        x[0] * y[1] - x[1] * y[0],
    ]
    return [_CROSS_SIGN * v for v in rh]


def gibbs_jump_residual(
    dec_in,
    dec_out,
    iface: Interface,
    frame: VectorField4,
    g: DiagonalMetric,
    samples: Sequence[Event],
) -> JumpReport:
    """3-vector jump relations evaluated in the observer's spatial frame.

    Both decompositions must use the same lab-aligned frame. Relative
    residuals are normalised per condition by the larger of the two
    sides' field scales at the sample.
    """
    events = _on_interface(iface, samples)
    u_vec = [frame.components[a].eval(events) for a in range(4)]
    _require_lab_aligned(u_vec, events)
    g_vec = [g.diag[a].eval(events) for a in range(4)]
    c = (-g_vec[0]) ** 0.5
    normal, v_n = interface_normal_velocity(iface, frame, g, events)
    n_hat = [normal[i] / g_vec[i] ** 0.5 for i in (1, 2, 3)]

    def jump_and_scale(attr):
        a = _orthonormal_spatial(getattr(dec_in, attr), events, g_vec)
        b = _orthonormal_spatial(getattr(dec_out, attr), events, g_vec)
        jump = [bv - av for av, bv in zip(a, b)]
        scale = np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0))
        return jump, scale

    je, se = jump_and_scale("e")
    jb, sb = jump_and_scale("b")
    jd, sd = jump_and_scale("d")
    jh, sh = jump_and_scale("h")

    normal_d = abs(sum(n * v for n, v in zip(n_hat, jd)))
    tang_h = np.max([abs(v_n * dv + cv) for dv, cv in zip(jd, _cross(n_hat, jh))], axis=0)
    normal_b = abs(sum(n * v for n, v in zip(n_hat, jb)))
    tang_e = np.max([abs(v_n * bv - cv) for bv, cv in zip(jb, _cross(n_hat, je))], axis=0)

    # Unified field-pair scales: d and h/c share units, so do e and c b.
    # Normalising per condition against the pair keeps the relative
    # residual meaningful when one field vanishes identically.
    scale_g = np.maximum(sd, sh / c)
    scale_f = np.maximum(se, c * sb)
    return _report(
        iface,
        events,
        {
            "normal_d": normal_d,
            "tangential_h": tang_h,
            "normal_b": normal_b,
            "tangential_e": tang_e,
        },
        {
            "normal_d": normal_d / np.maximum(scale_g, _SCALE_FLOOR),
            "tangential_h": tang_h / np.maximum(c * scale_g, _SCALE_FLOOR),
            "normal_b": normal_b / np.maximum(scale_f / c, _SCALE_FLOOR),
            "tangential_e": tang_e / np.maximum(scale_f, _SCALE_FLOOR),
        },
    )
