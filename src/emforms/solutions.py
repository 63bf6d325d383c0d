"""Matched field solutions and their Maxwell-residual verification."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

import numpy as np

from . import dual
from .fields import Batch, ScalarField, blockwise
from .forms import (
    DiagonalMetric,
    DifferentialForm,
    basis_indices,
    component_max,
    exterior_derivative,
    hodge_star,
    max_or_nan,
    wedge,
)
from .junction import BoxSlot, Interface, field_jumps, sample_box
from .media import EMDecomposition
from .spacetime import Chart, lab_frame

EXACT_RESIDUAL_TOL = 1e-10
# Dimensionless ceiling on (residual / expansion_parameter^2) accepted for
# solutions truncated at first order in the rotation rate.
FIRST_ORDER_K_CAP = 10.0
# Largest equilibrated least-squares residual accepted from a junction match.
MATCH_RESIDUAL_TOL = 1e-8
# Events sampled on each interface for a junction match.
MATCH_SAMPLES = 16
# Largest deviation of a matched constant from its closed form, relative to
# the larger of the closed form and one physical unit of the constant.
CLOSED_FORM_REL_TOL = 1e-9

# (amplitudes, drive) -> (f_in, f_out, g_in, g_out), linear in both together;
# the amplitudes are fields, the drive a number.
Builder = Callable[[list[ScalarField], float], tuple[DifferentialForm, ...]]

# Inner edge of the sampling box of the region that reaches toward the axis
# (the shell's inner vacuum) or the centre (the sphere's medium), as a
# fraction of the inner radius; each scenario checks the metric there.
INNER_BOX_FRACTION = 0.05


class MatchingError(RuntimeError):
    """The junction matching system failed or disagreed with closed forms."""


@dataclass(frozen=True)
class CylinderConstants:
    """Integration constants of the rotating-shell interior family."""

    c1: float
    c2: float


@dataclass(frozen=True)
class SphereConstants:
    """Multipole amplitudes of the rotating-sphere potentials."""

    k0: float
    k1: float
    p0: float
    p1: float


@dataclass(frozen=True, eq=False)
class Region:
    """A named spacetime region, sampled uniformly over a coordinate box."""

    name: str
    interior: bool
    box: tuple[BoxSlot, BoxSlot, BoxSlot, BoxSlot]


def by_side(sol: FieldSolution, inside: np.ndarray, events: np.ndarray, components) -> np.ndarray:
    """Components of the lab-frame fields of a solution over the events,
    one row per ``(attr, idx)`` of ``components``, each side's
    :class:`~emforms.media.EMDecomposition` evaluated only on its own side
    (the interior one raises past the light cylinder, which a profile may
    reach), with all components of a side evaluated on one batch per
    block."""
    frame, metric = lab_frame(sol.chart), sol.chart.metric
    sides = ((sol.f_in, sol.g_in), (sol.f_out, sol.g_out))
    decs = [EMDecomposition.of(f, g, frame, metric) for f, g in sides]
    out = np.empty((len(components), len(events)))
    for dec, mask in zip(decs, (inside, ~inside)):
        fields = [getattr(dec, attr).component(idx) for attr, idx in components]
        out[:, mask] = blockwise(lambda batch: [f.eval(batch) for f in fields], events[mask])
    return out


def solve_matching_system(rows, rhs, what: str) -> np.ndarray:
    """Least-squares solution of an overdetermined junction system.

    Each row and its right-hand side are divided by the row's largest
    entry, and rows that vanish identically are dropped; with no row left
    the solution is zero. Raises :class:`MatchingError` when an entry is
    not finite, or when the system is rank-deficient or its residual does
    not vanish; it is never regularised.
    """
    a = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        # equilibration would drop a NaN row as if it vanished
        raise MatchingError(f"{what} system has non-finite entries")
    unknowns = a.shape[1]
    row_scale = np.maximum(np.abs(a).max(axis=1), np.abs(b))
    keep = row_scale > 0.0
    if not keep.any():
        return np.zeros(unknowns)
    a, b = a[keep] / row_scale[keep, None], b[keep] / row_scale[keep]
    solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < unknowns:
        raise MatchingError(f"{what} system rank {rank} < {unknowns}")
    residual = np.abs(a @ solution - b).max()
    if residual > MATCH_RESIDUAL_TOL:
        raise MatchingError(f"{what} residual {residual:.3e} did not vanish")
    return solution


def match_junctions(
    build: Builder,
    units: Sequence[float],
    interfaces: Sequence[Interface],
    seed: int,
    metric: DiagonalMetric,
    what: str,
) -> np.ndarray:
    """Amplitudes that zero [F] ^ dPhi and [star G] ^ dPhi at the
    ``MATCH_SAMPLES`` events ``Interface.events`` draws on each interface
    at ``seed``.

    ``build(amplitudes, drive)`` is linear in both together, so the jumps
    are those of the applied piece (drive 1, every amplitude 0) plus, for
    each amplitude, its value in ``units`` times one column of the
    Jacobian in the amplitudes. One assembly at drive 1 gives them all:
    amplitude j is a constant field holding a dual number of value 0, under
    one fresh tag, with an (n, 1) column holding ``units[j]`` in row j as
    its dual part. The jumps, formed once and wedged with each interface's
    dPhi at its events, then carry the applied piece as their value and the
    columns as their dual part; the products are those of one assembly per
    piece, the other amplitudes adding exact zeros. Columns carry one
    physical unit of each amplitude, floored at 1e-300, so that every row's
    entries are commensurate; otherwise a weak coupling falls below working
    precision after row equilibration. Rows run event by event, then condition, then 3-form
    component. Solved by :func:`solve_matching_system`, which names
    ``what`` in its errors.
    """
    units = [max(u, 1e-300) for u in units]
    tag = dual.fresh_tag()
    seeds = np.diag(units)
    amplitudes = [ScalarField.constant(dual.Dual(0.0, seeds[:, [j]], tag)) for j in range(len(units))]
    f_in, f_out, g_in, g_out = build(amplitudes, 1.0)
    jumps = field_jumps(f_in, f_out, hodge_star(metric, g_in), hodge_star(metric, g_out))
    blocks = []
    for iface in interfaces:
        dphi = iface.gradient()
        wedges = [wedge(jump, dphi) for jump in jumps]
        # (piece, condition, component, event) -> event-major rows, a column per piece
        values = blockwise(partial(_pieces, wedges, tag, len(units)), iface.events(MATCH_SAMPLES, seed))
        blocks.append(values.transpose(3, 1, 2, 0).reshape(-1, len(units) + 1))
    rows = np.concatenate(blocks)
    # residual(x) = applied + sum_j x_j column_j; move the applied piece right
    return solve_matching_system(rows[:, 1:], -rows[:, 0], what) * units


def _pieces(wedges, tag: int, n: int, batch: Batch) -> np.ndarray:
    """Each wedge's 3-form components on a batch as a (1 + n, condition,
    component, event) array: the value, then the ``n`` rows of the dual
    part under ``tag``; absent components and every zero are 0.0."""
    idxs = basis_indices(3)
    out = np.zeros((1 + n, len(wedges), len(idxs), len(batch.events)))
    for c, w in enumerate(wedges):
        for k, idx in enumerate(idxs):
            f = w.components.get(idx)
            if f is not None:
                y = f.fn(batch)
                out[0, c, k] = dual.real(y)
                out[1:, c, k] = dual.extract(y, tag)
    # -0.0 left by the other pieces' zero terms becomes the 0.0 of an absent
    # term, as the least-squares solution can depend on the sign of a zero
    return out + 0.0


def require_finite(what: str, **constants: float) -> None:
    """Raise :class:`MatchingError` when a named constant is NaN or infinite.

    A tolerance comparison against a NaN is false, so without this a
    non-finite constant would pass its cross-check.
    """
    for name, value in constants.items():
        if not math.isfinite(value):
            raise MatchingError(f"{what} {name} = {value!r} is not finite")


def check_closed_forms(
    matched: Mapping[str, float], closed: Mapping[str, float], scales: Mapping[str, float]
) -> None:
    """Raise :class:`MatchingError` unless every matched constant is finite
    and lies within ``CLOSED_FORM_REL_TOL`` of its finite closed form,
    relative to the larger of the closed form, the constant's physical unit
    in ``scales`` and 1e-300."""
    require_finite("matched", **matched)
    require_finite("closed-form", **closed)
    for name, got in matched.items():
        want = closed[name]
        if abs(got - want) > CLOSED_FORM_REL_TOL * max(abs(want), scales[name], 1e-300):
            raise MatchingError(
                f"matched {name} = {got:.9e} disagrees with closed form {want:.9e}"
            )


@dataclass(frozen=True, eq=False)
class FieldSolution:
    """Matched (F, G) pair on interior and exterior regions.

    ``order`` is "exact" or "first-order"; for first-order solutions
    ``expansion_parameter`` holds the peripheral speed over c, and the
    excitation residual scales with its square.

    The forms that the checks evaluate depend on the solution alone, so
    each is built on first use and kept with it, as the cached attributes
    ``star_g``, ``maxwell_forms`` and ``junction_forms``: a solution that a
    scenario keeps is checked again without building a form. A build that
    raises keeps nothing.
    """

    chart: Chart
    f_in: DifferentialForm
    g_in: DifferentialForm
    f_out: DifferentialForm
    g_out: DifferentialForm
    interfaces: tuple[Interface, ...]
    order: str
    regions: tuple[Region, ...]
    length_scale: float
    expansion_parameter: float = 0.0

    @cached_property
    def star_g(self) -> tuple[DifferentialForm, DifferentialForm]:
        """star G inside, then outside."""
        metric = self.chart.metric
        return hodge_star(metric, self.g_in), hodge_star(metric, self.g_out)

    @cached_property
    def maxwell_forms(self) -> dict[bool, tuple[DifferentialForm, ...]]:
        """dF, F, d star G and star G of each side, under the
        ``Region.interior`` flag of its regions."""
        sides = ((True, self.f_in, self.star_g[0]), (False, self.f_out, self.star_g[1]))
        return {interior: (exterior_derivative(f), f, exterior_derivative(sg), sg) for interior, f, sg in sides}

    @cached_property
    def junction_forms(self) -> dict[Interface, tuple[DifferentialForm, DifferentialForm]]:
        """[F] ^ dPhi and [star G] ^ dPhi of each interface, from one pair of jumps."""
        jump_f, jump_g = field_jumps(self.f_in, self.f_out, *self.star_g)
        return {iface: (wedge(jump_f, iface.gradient()), wedge(jump_g, iface.gradient())) for iface in self.interfaces}


def junction_tolerance(sol: FieldSolution) -> float:
    """The gate on the relative d star G residual and on the relative
    covariant junction residual: ``EXACT_RESIDUAL_TOL`` for an exact
    solution, ``FIRST_ORDER_K_CAP`` times the squared expansion parameter
    for a first-order one, never below ``EXACT_RESIDUAL_TOL``."""
    if sol.order == "exact":
        return EXACT_RESIDUAL_TOL
    return max(FIRST_ORDER_K_CAP * sol.expansion_parameter**2, EXACT_RESIDUAL_TOL)


@dataclass
class MaxwellReport:
    """Per-region residuals of dF = 0 and d star G = 0."""

    order: str
    expansion_parameter: float
    samples_per_region: int
    regions: dict[str, dict]
    tolerance_f: float
    tolerance_g: float
    passed: bool

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def verify_solution(
    sol: FieldSolution,
    samples_per_region: int = 200,
    seed: int = 0,
) -> MaxwellReport:
    """Sample dF and d star G residuals over every region of a solution.

    Residuals are made dimensionless by normalising with the sampled
    field scale and the solution's length scale. The dF residual must sit
    below ``EXACT_RESIDUAL_TOL``, and the d star G residual below
    :func:`junction_tolerance`, which is reported as ``tolerance_g``. A
    non-finite sample fails its region, and so does a region whose sampled
    field scale, max |F| or max |star G|, is not a positive normal float:
    residuals over a vanishing field check nothing.
    Each region's entry holds its maxima, both field scales and the event
    of the largest dF and d star G residual, so that its verdict can be
    re-derived from the entry and the tolerances alone.
    Every region's events are drawn first, in region order; the regions
    on one side of the interfaces are then evaluated together, on one
    array of their events, so a guard that regions of one side reach
    names the first offending event of that array. The forms evaluated
    are the solution's ``maxwell_forms``; none is built here.
    """
    rng = np.random.default_rng(seed)
    tol_f = EXACT_RESIDUAL_TOL
    tol_g = junction_tolerance(sol)

    events = [sample_box(region.box, samples_per_region, rng) for region in sol.regions]
    # regions on one side share their fields, so each side is evaluated on
    # one array of its regions' events, sides in the order of their first region
    values: list = [None] * len(sol.regions)
    for interior in dict.fromkeys(region.interior for region in sol.regions):
        # the four forms on one batch per block, sharing their nodes' values
        forms = sol.maxwell_forms[interior]
        members = [k for k, region in enumerate(sol.regions) if region.interior == interior]
        pooled = blockwise(
            lambda batch: [component_max(form, batch) for form in forms],
            np.concatenate([events[k] for k in members]),
        )
        for i, k in enumerate(members):
            values[k] = [v[i * samples_per_region : (i + 1) * samples_per_region] for v in pooled]

    regions: dict[str, dict] = {}
    passed = True
    for region, at, region_values in zip(sol.regions, events, values):
        max_df, max_f, max_dsg, max_sg = map(max_or_nan, region_values)
        rel_df = sol.length_scale * max_df / max(max_f, 1e-300)
        rel_dsg = sol.length_scale * max_dsg / max(max_sg, 1e-300)
        entry = {
            "df_max_abs": max_df,
            "df_max_rel": rel_df,
            "dstar_g_max_abs": max_dsg,
            "dstar_g_max_rel": rel_dsg,
            "f_scale": max_f,
            "star_g_scale": max_sg,
            # argmax names the first NaN event, as the maxima keep a NaN
            "df_worst_event": at[region_values[0].argmax()].tolist() if len(at) else None,
            "dstar_g_worst_event": at[region_values[2].argmax()].tolist() if len(at) else None,
        }
        # the square of a tiny expansion parameter underflows to 0
        if sol.order != "exact" and sol.expansion_parameter**2 > 0.0:
            entry["dstar_g_rel_over_eps2"] = rel_dsg / sol.expansion_parameter**2
        regions[region.name] = entry
        if not (rel_df <= tol_f and rel_dsg <= tol_g):
            passed = False
        if not all(sys.float_info.min <= scale <= sys.float_info.max for scale in (max_f, max_sg)):
            passed = False
    return MaxwellReport(
        order=sol.order,
        expansion_parameter=sol.expansion_parameter,
        samples_per_region=samples_per_region,
        regions=regions,
        tolerance_f=tol_f,
        tolerance_g=tol_g,
        passed=passed,
    )
