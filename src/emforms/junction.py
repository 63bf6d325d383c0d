"""Junction conditions on moving interfaces between media.

An interface is the zero set of a spacetime function Phi; the side with
Phi < 0 is labelled "inside". The covariant matching conditions are

    [F] ^ dPhi |_{Phi=0} = 0        [star G] ^ dPhi |_{Phi=0} = 0

and this module evaluates their residuals at sampled interface events.
The equivalent 3-vector (Gibbs) relations

    N . [d] = 0        v_N [d] + N x [h] = 0
    N . [b] = 0        v_N [b] - N x [e] = 0

are computed independently in the orthonormal spatial frame of a
lab-aligned observer, with N the outward unit normal (pointing from
Phi < 0 to Phi > 0) and v_N the normal interface speed. They are a library
cross-check and the oracle the tests hold the covariant residuals to; a CLI
run checks and reports the covariant conditions only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .fields import Batch, Event, ScalarField, blockwise, coerce, event_array, first_bad_event
from .forms import (
    DiagonalMetric,
    DifferentialForm,
    GradeMismatchError,
    VectorField4,
    component_max,
    evaluate,
    exterior_derivative,
    max_or_nan,
    subtract,
)

if TYPE_CHECKING:
    from .solutions import FieldSolution

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


# One coordinate slot of a sampling box: a fixed value or a (lo, hi) range.
BoxSlot = float | tuple[float, float]


def sample_box(box: Sequence[BoxSlot], n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` events drawn uniformly from a coordinate box, as an (n, 4) array.

    Ranges are drawn in slot order, one event after another; a fixed slot
    draws no random number, so pinning a coordinate leaves the draws of the
    others unchanged. One ``rng.random`` draw of shape (n, number of
    ranges), mapped as ``lo + (hi - lo) * u``, gives the same numbers as one
    ``rng.uniform(lo, hi)`` call per range and event.
    """
    draws = iter(rng.random((n, sum(isinstance(s, tuple) for s in box))).T)
    events = np.empty((n, len(box)))
    for i, s in enumerate(box):
        if isinstance(s, tuple):
            lo, hi = s
            events[:, i] = lo + (hi - lo) * next(draws)
        else:
            events[:, i] = s
    return events


@dataclass(frozen=True, eq=False)
class Interface:
    """Hypersurface Phi = 0; the Phi < 0 side is the medium interior. Its
    scenario declares where it is sampled, ``grid`` and ``box``, which
    :meth:`events` draws from."""

    phi: ScalarField
    chart: str
    name: str = "interface"
    box: tuple[BoxSlot, ...] | None = None
    grid: Callable[[np.ndarray, int], tuple] | None = None

    def __post_init__(self):
        object.__setattr__(self, "phi", coerce(self.phi))

    def events(self, n: int, seed: int) -> np.ndarray:
        """``n`` deterministic events on the interface as an (n, 4) array:
        the four coordinates ``grid(j, half)`` gives for ``j =
        np.arange(half)``, ``half = n // 2``, each an array over ``j`` or a
        scalar, then ``n - half`` drawn from ``box`` by :func:`sample_box`
        with a generator seeded by ``seed``."""
        half = n // 2
        gridded = np.empty((half, 4))
        for axis, values in enumerate(self.grid(np.arange(half), half)):
            gridded[:, axis] = values
        return np.concatenate([gridded, sample_box(self.box, n - half, np.random.default_rng(seed))])

    def gradient(self) -> DifferentialForm:
        """dPhi, built once, so that every check on a batch shares its nodes."""
        return self._gradient

    @cached_property
    def _gradient(self) -> DifferentialForm:
        return exterior_derivative(DifferentialForm(0, {(): self.phi}, self.chart))


@dataclass
class JumpReport:
    """Sampled junction-condition residuals on one interface.

    ``samples`` is the (N, 4) event array and each residual an array over
    those events. The residual functions store them read-only, so the
    maxima and the summary, computed once on first use, cannot go stale.
    Over no events every maximum is NaN, so that no gate on the report
    passes: such a report has checked nothing.
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
        return _max_over_events(self.residuals)

    @cached_property
    def max_rel(self) -> float:
        return _max_over_events(self.residuals_rel)

    def to_json_dict(self) -> dict:
        """The maxima, overall and per condition, and the worst event: the
        condition and event at the largest relative residual, where the
        first NaN in event order wins so that a NaN event is named (None
        without samples)."""
        names = list(self.residuals)
        # (absolute, relative) x condition x event, reduced over the events at once
        stacked = np.array([list(self.residuals.values()), list(self.residuals_rel.values())], dtype=float)
        maxima = [[np.nan] * len(names)] * 2
        worst = None
        if stacked.shape[2]:
            maxima = stacked.max(axis=2, initial=0.0).tolist()
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


def _max_over_events(residuals: dict[str, np.ndarray]) -> float:
    """The largest residual, NaN when any is NaN or when there is none."""
    values = np.concatenate(list(residuals.values()))
    return max_or_nan(values) if values.size else np.nan


def _on_interface(iface: Interface, samples: Sequence[Event]) -> np.ndarray:
    """``samples`` as a new (N, 4) event array, each event checked to lie
    on the interface."""
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


def _require_nondegenerate(bad: np.ndarray, batch: Batch, what: str) -> None:
    where = first_bad_event(bad, batch)
    if where is not None:
        raise DegenerateInterfaceError(f"dPhi {what} at {where}")


def interface_normal_velocity(
    iface: Interface,
    frame: VectorField4,
    g: DiagonalMetric,
    events,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit spatial normal 1-form (coordinate components, a (4, N) array)
    and normal speed at the events of a batch or the rows of an (N, 4)
    event array.

    N is the frame-orthogonal projection of dPhi, normalised in the
    induced spatial metric; v_N = -(i_U dPhi) c / |projection| is positive
    for an interface moving toward the Phi > 0 side.
    """
    return blockwise(partial(_normal_velocity, iface, frame, g), events)


def _normal_velocity(iface, frame, g, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    u_vec = [u.eval(batch) for u in frame.components]
    g_vec = [gi.eval(batch) for gi in g.diag]
    dphi = evaluate(iface.gradient(), batch)
    dphi_vec = [dphi[(a,)] for a in range(4)]
    scale_dphi = np.max(np.abs(dphi_vec), axis=0)
    _require_nondegenerate(scale_dphi <= 0.0, batch, "vanishes")
    contracted = sum(d * u for d, u in zip(dphi_vec, u_vec))
    projected = [d + contracted * (gv * uv) for d, gv, uv in zip(dphi_vec, g_vec, u_vec)]
    norm_sq = sum(p * p / gv for p, gv in zip(projected, g_vec))
    _require_nondegenerate(norm_sq <= (1e-14 * scale_dphi) ** 2, batch, "is purely temporal")
    norm = norm_sq**0.5
    c = (-g_vec[0]) ** 0.5
    normal = np.array([p / norm for p in projected])
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


def covariant_jump_residual(sol: FieldSolution, iface: Interface, samples: Sequence[Event]) -> JumpReport:
    """Residuals of [F] ^ dPhi and [star G] ^ dPhi of a solution at events
    of one of its interfaces, ``samples`` being a sequence of events or an
    (N, 4) event array.

    The forms evaluated are the solution's ``junction_forms`` of the
    interface and its exterior ``star_g``; none is built here. Relative
    residuals are normalised per condition by the exterior-field scale at
    each sample: |F_out| |dPhi| for the first condition and
    |star G_out| |dPhi| for the second.
    """
    for f in (sol.f_in, sol.f_out, sol.g_in, sol.g_out):
        if f.grade != 2:
            raise GradeMismatchError("junction conditions expect grade-2 forms")
    if iface not in sol.interfaces:
        raise ValueError(f"interface {iface.name!r} is not an interface of the solution")
    dphi = iface.gradient()
    star_g_out = sol.star_g[1]
    jump_f, jump_g = sol.junction_forms[iface]

    def residuals(batch):
        dphi_scale = component_max(dphi, batch)
        _require_nondegenerate(dphi_scale <= 0.0, batch, "vanishes")
        rf = component_max(jump_f, batch)
        rg = component_max(jump_g, batch)
        sf = component_max(sol.f_out, batch) * dphi_scale
        sg = component_max(star_g_out, batch) * dphi_scale
        return (
            {"f_jump": rf, "star_g_jump": rg},
            {
                "f_jump": rf / np.maximum(sf, _SCALE_FLOOR),
                "star_g_jump": rg / np.maximum(sg, _SCALE_FLOOR),
            },
        )

    events = _on_interface(iface, samples)
    return _report(iface.name, events, *blockwise(residuals, events))


def _report(
    interface: str, events: np.ndarray, residuals: dict, residuals_rel: dict
) -> JumpReport:
    for values in (events, *residuals.values(), *residuals_rel.values()):
        values.setflags(write=False)
    return JumpReport(
        interface=interface,
        samples=events,
        residuals=residuals,
        residuals_rel=residuals_rel,
    )


def _require_lab_aligned(u_vec: list[np.ndarray], batch: Batch) -> None:
    """Raise unless the frame components ``u_vec`` have no spatial part at any event."""
    bad = np.max(np.abs(u_vec[1:]), axis=0) > 1e-12 * np.abs(u_vec[0])
    where = first_bad_event(bad, batch)
    if where is not None:
        raise ValueError(
            "Gibbs residuals are implemented for lab-aligned frames only; "
            f"the frame is not lab-aligned at {where}"
        )


def _orthonormal_spatial(one_form: DifferentialForm, batch: Batch, root_g: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal spatial components of a 1-form, three arrays; ``root_g`` holds sqrt(g_ii), i = 1..3."""
    vals = evaluate(one_form, batch)
    return [vals[(i,)] / rg for i, rg in zip((1, 2, 3), root_g)]


def _cross(x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
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
    """3-vector jump relations evaluated in the observer's spatial frame,
    ``samples`` being a sequence of events or an (N, 4) event array.

    Both decompositions must use the same lab-aligned frame. Relative
    residuals are normalised per condition by the larger of the two
    sides' field scales at the sample.
    """
    events = _on_interface(iface, samples)
    residuals = partial(_gibbs_residuals, dec_in, dec_out, iface, frame, g)
    return _report(iface.name, events, *blockwise(residuals, events))


def _gibbs_residuals(dec_in, dec_out, iface, frame, g, batch: Batch) -> tuple[dict, dict]:
    u_vec = [u.eval(batch) for u in frame.components]
    _require_lab_aligned(u_vec, batch)
    g_vec = [gi.eval(batch) for gi in g.diag]
    c = (-g_vec[0]) ** 0.5
    normal, v_n = interface_normal_velocity(iface, frame, g, batch)
    root_g = [gv**0.5 for gv in g_vec[1:]]
    n_hat = [n / rg for n, rg in zip(normal[1:], root_g)]

    def jump_and_scale(attr):
        a = _orthonormal_spatial(getattr(dec_in, attr), batch, root_g)
        b = _orthonormal_spatial(getattr(dec_out, attr), batch, root_g)
        scale = np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0))
        return [bv - av for av, bv in zip(a, b)], scale

    je, se = jump_and_scale("e")
    jb, sb = jump_and_scale("b")
    jd, sd = jump_and_scale("d")
    jh, sh = jump_and_scale("h")

    normal_d = np.abs(sum(n * v for n, v in zip(n_hat, jd)))
    tang_h = np.max([np.abs(v_n * dv + cv) for dv, cv in zip(jd, _cross(n_hat, jh))], axis=0)
    normal_b = np.abs(sum(n * v for n, v in zip(n_hat, jb)))
    tang_e = np.max([np.abs(v_n * bv - cv) for bv, cv in zip(jb, _cross(n_hat, je))], axis=0)

    # Unified field-pair scales: d and h/c share units, so do e and c b.
    # Normalising per condition against the pair keeps the relative
    # residual meaningful when one field vanishes identically.
    scale_g = np.maximum(sd, sh / c)
    scale_f = np.maximum(se, c * sb)
    return (
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
