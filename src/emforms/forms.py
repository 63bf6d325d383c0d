"""Grade-graded exterior algebra over scalar fields on a 4D chart.

Conventions
-----------
* Components live on strictly increasing multi-indices; an absent index
  is zero. Grade-0 forms use the empty index ``()``.
* The metric is diagonal with signature ``(-, +, +, +)``. The positive
  volume form is ``sqrt(|det g|) dx^0 ^ dx^1 ^ dx^2 ^ dx^3``, in
  coordinate order.
* Hodge dual of a basis form:
  ``star(dx^I) = sgn(sigma) * sqrt(|det g|) / prod_{i in I} g_ii * dx^J``
  with ``J`` the increasing complement of ``I`` and ``sigma`` the
  permutation ``(I, J)``. The test suite checks this closed form against
  a brute-force Levi-Civita sum.
  ``sqrt(|det g|)`` is one node of the metric, which every coefficient
  shares, so a batch computes it once. A constant diagonal component is
  checked against the metric floor once, when the dual is built; the
  others once per batch, in that node, which names the first bad event.
* Degenerate grades stay total: wedges past grade 4, the exterior
  derivative of a 4-form and the interior product of a 0-form all return
  the appropriate zero form.

Structurally zero components (zero-constant coefficient fields) are
dropped from the component map; numeric zeros discovered by sampling are
never dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .dual import real
from .dual import sqrt as dual_sqrt
from .fields import Batch, ScalarField, blockwise, coerce, first_bad_event

DIM = 4

MultiIndex = tuple[int, ...]

_METRIC_FLOOR = 1e-30


class ChartMismatchError(ValueError):
    """Operands live on different charts."""


class GradeMismatchError(ValueError):
    """Operands have incompatible grades."""


class DegenerateMetricError(ValueError):
    """A diagonal metric component vanished at an evaluation event."""


def basis_indices(grade: int) -> tuple[MultiIndex, ...]:
    return tuple(itertools.combinations(range(DIM), grade))


def perm_parity(seq: Sequence[int], reference: Sequence[int]) -> int:
    """Sign of the permutation taking ``reference`` order to ``seq``."""
    pos = [reference.index(s) for s in seq]
    inversions = sum(
        1 for i in range(len(pos)) for j in range(i + 1, len(pos)) if pos[i] > pos[j]
    )
    return -1 if inversions % 2 else 1


# The index algebra as tables, built once at import: each grade's valid
# increasing indices, mapped to themselves so that one lookup validates an
# index and returns it as a tuple of ints; the increasing merge and the sign
# of dx^I ^ dx^J for every disjoint pair (I, J); and the increasing
# complement J of each I with that sign for (I, J).
_VALID: tuple[dict[MultiIndex, MultiIndex], ...] = tuple(
    {idx: idx for idx in basis_indices(grade)} for grade in range(DIM + 1)
)
_MERGE: dict[tuple[MultiIndex, MultiIndex], tuple[MultiIndex, int]] = {
    (ia, ib): (tuple(sorted(ia + ib)), perm_parity(ia + ib, range(DIM)))
    for valid in _VALID
    for ia in valid
    for grade in range(DIM + 1 - len(ia))
    for ib in _VALID[grade]
    if not set(ia) & set(ib)
}
_COMPLEMENT: dict[MultiIndex, tuple[MultiIndex, int]] = {
    ia: (ib, sign) for (ia, ib), (merged, sign) in _MERGE.items() if len(merged) == DIM
}


@dataclass(frozen=True, eq=False)
class DifferentialForm:
    """Antisymmetric grade-p field stored over increasing multi-indices."""

    grade: int
    components: Mapping[MultiIndex, ScalarField]
    chart: str

    def __post_init__(self):
        if not 0 <= self.grade <= DIM:
            raise GradeMismatchError(f"grade must be 0..{DIM}, got {self.grade}")
        valid = _VALID[self.grade]
        cleaned: dict[MultiIndex, ScalarField] = {}
        for idx, f in self.components.items():
            key = valid.get(idx)
            if key is None:  # not a valid index as it stands: normalise it or say why
                key = tuple(int(i) for i in idx)
                if len(key) != self.grade:
                    raise GradeMismatchError(
                        f"index {key} has length {len(key)}, expected grade {self.grade}"
                    )
                if any(not 0 <= i < DIM for i in key):
                    raise GradeMismatchError(f"index {key} out of range 0..{DIM - 1}")
                if any(key[k] >= key[k + 1] for k in range(len(key) - 1)):
                    raise GradeMismatchError(f"index {key} is not strictly increasing")
            if not isinstance(f, ScalarField):
                f = coerce(f)
            if not f.is_zero:
                cleaned[key] = f
        object.__setattr__(self, "components", cleaned)

    def component(self, idx: MultiIndex) -> ScalarField:
        return self.components.get(tuple(idx), ScalarField.zero())


@dataclass(frozen=True, eq=False)
class VectorField4:
    """Contravariant 4-vector field in the chart's coordinate basis."""

    components: tuple[ScalarField, ScalarField, ScalarField, ScalarField]
    chart: str

    def __post_init__(self):
        comps = tuple(coerce(c) for c in self.components)
        if len(comps) != DIM:
            raise GradeMismatchError("a 4-vector needs exactly 4 components")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True, eq=False)
class DiagonalMetric:
    """Diagonal spacetime metric, signature (-, +, +, +).

    ``_hodge`` holds the Hodge coefficient field of each multi-index, built
    once, so that every dual taken with the metric shares its nodes.
    """

    diag: tuple[ScalarField, ScalarField, ScalarField, ScalarField]
    _hodge: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        diag = tuple(coerce(g) for g in self.diag)
        if len(diag) != DIM:
            raise GradeMismatchError("a diagonal 4-metric needs 4 components")
        object.__setattr__(self, "diag", diag)

    @cached_property
    def volume(self) -> ScalarField:
        """``sqrt(|g00 g11 g22 g33|)``, the one node that every Hodge
        coefficient of the metric divides, guarded against degeneracy.

        A constant component below the metric floor raises here, when the
        first dual is built; the others are checked each time the node is
        evaluated, once per batch, naming the first bad event.
        """
        consts = [gi.const for gi in self.diag]
        for i, v in enumerate(consts):
            if v is not None and abs(v) < _METRIC_FLOOR:
                raise DegenerateMetricError(f"metric component g_{i}{i} = {v!r} vanishes")
        varying = [(i, gi.fn) for i, gi in enumerate(self.diag) if gi.const is None]
        # a constant of exactly 1 is left out of the product: x * 1 is x, bit for bit
        factors = [i for i, v in enumerate(consts) if v != 1.0] or [0]

        def fn(event):
            vals = consts.copy()
            for i, f in varying:
                vals[i] = f(event)
            for i, _ in varying:
                where = first_bad_event(abs(real(vals[i])) < _METRIC_FLOOR, event)
                if where is not None:
                    raise DegenerateMetricError(
                        f"metric component g_{i}{i} vanishes at event {where}"
                    )
            det = vals[factors[0]]
            for i in factors[1:]:
                det = det * vals[i]
            return dual_sqrt(abs(det))

        diag = self.diag
        return ScalarField(fn, deps=diag[0].deps | diag[1].deps | diag[2].deps | diag[3].deps)


def form(grade: int, chart: str, components: Mapping[MultiIndex, object]) -> DifferentialForm:
    """Build a form, coercing numeric component values to constants."""
    return DifferentialForm(grade, {tuple(k): coerce(v) for k, v in components.items()}, chart)


def zero_form(grade: int, chart: str) -> DifferentialForm:
    return DifferentialForm(grade, {}, chart)


def _same_chart(a, b) -> str:
    if a.chart != b.chart:
        raise ChartMismatchError(f"chart mismatch: {a.chart!r} vs {b.chart!r}")
    return a.chart


def _accumulate(comps: dict, idx: MultiIndex, term: ScalarField) -> None:
    if idx in comps:
        comps[idx] = comps[idx] + term
    else:
        comps[idx] = term


# -- operations ---------------------------------------------------------


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Graded-antisymmetric product; grades past 4 collapse to zero.

    Per-component terms are summed in a canonical order independent of
    operand order, so graded commutativity holds exactly in floating
    point, not merely to rounding.
    """
    chart = _same_chart(a, b)
    total = a.grade + b.grade
    if total > DIM:
        return zero_form(DIM, chart)
    gathered: dict[MultiIndex, dict] = {}
    for ia, fa in a.components.items():
        for ib, fb in b.components.items():
            merge = _MERGE.get((ia, ib))
            if merge is None:  # the indices overlap
                continue
            merged, sign = merge
            term = fa * fb
            if sign < 0:
                term = -term
            # Contributions from (ia, ib) and (ib, ia) are exact mirror
            # terms; group them under an unordered token and sum inside
            # the group first (two-float addition commutes exactly),
            # then fold groups in token order.
            token = (ia, ib) if ia <= ib else (ib, ia)
            groups = gathered.setdefault(merged, {})
            groups[token] = term if token not in groups else groups[token] + term
    comps: dict[MultiIndex, ScalarField] = {}
    for key, groups in gathered.items():
        total_field = None
        for token in sorted(groups):
            total_field = groups[token] if total_field is None else total_field + groups[token]
        comps[key] = total_field
    return DifferentialForm(total, comps, chart)


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d: grade p -> p+1; the derivative of a 4-form is the zero 4-form."""
    if a.grade >= DIM:
        return zero_form(DIM, a.chart)
    comps: dict[MultiIndex, ScalarField] = {}
    for idx, f in a.components.items():
        for axis in range(DIM):
            if axis in idx:
                continue
            df = f.partial_field(axis)
            if df.is_zero:
                continue
            merged, sign = _MERGE[(axis,), idx]  # dx^axis ^ dx^idx
            _accumulate(comps, merged, df if sign > 0 else -df)
    return DifferentialForm(a.grade + 1, comps, a.chart)


def interior_product(v: VectorField4, a: DifferentialForm) -> DifferentialForm:
    """Contraction i_v: grade p -> p-1; nilpotent, graded Leibniz."""
    chart = _same_chart(v, a)
    if a.grade == 0:
        return zero_form(0, chart)
    comps: dict[MultiIndex, ScalarField] = {}
    for idx, f in a.components.items():
        for pos, k in enumerate(idx):
            vk = v.components[k]
            if vk.is_zero:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = vk * f
            _accumulate(comps, rest, term if pos % 2 == 0 else -term)
    return DifferentialForm(a.grade - 1, comps, chart)


def _hodge_coefficient(g: DiagonalMetric, idx: MultiIndex) -> ScalarField:
    """sqrt(|det g|) / prod_{i in idx} g_ii: the metric's volume node
    (:attr:`DiagonalMetric.volume`), whose degeneracy guard it shares,
    divided by each g_ii in turn; the same field object for the same
    metric and index."""
    coefficient = g._hodge.get(idx)
    if coefficient is None:
        coefficient = g._hodge[idx] = _build_hodge_coefficient(g, idx)
    return coefficient


def _build_hodge_coefficient(g: DiagonalMetric, idx: MultiIndex) -> ScalarField:
    volume = g.volume.fn
    # as in the volume, a constant of exactly 1 divides nothing: x / 1 is x
    divisors = [(g.diag[i].const, g.diag[i].fn) for i in idx if g.diag[i].const != 1.0]

    def fn(event):
        out = volume(event)
        for const, f in divisors:
            out = out / (f(event) if const is None else const)
        return out

    return ScalarField(fn, deps=g.volume.deps)


def hodge_star(g: DiagonalMetric, a: DifferentialForm) -> DifferentialForm:
    """Hodge dual in coordinate orientation; grade p -> 4-p."""
    comps: dict[MultiIndex, ScalarField] = {}
    for idx, f in a.components.items():
        comp, sign = _COMPLEMENT[idx]
        term = _hodge_coefficient(g, idx) * f
        _accumulate(comps, comp, term if sign > 0 else -term)
    return DifferentialForm(DIM - a.grade, comps, a.chart)


def linear_combine(coeffs: Sequence[float], forms: Sequence[DifferentialForm]) -> DifferentialForm:
    """Pointwise linear combination of same-grade, same-chart forms."""
    if not forms or len(coeffs) != len(forms):
        raise GradeMismatchError("need matching, non-empty coefficient and form lists")
    grade, chart = forms[0].grade, forms[0].chart
    comps: dict[MultiIndex, ScalarField] = {}
    for c, a in zip(coeffs, forms):
        if a.grade != grade:
            raise GradeMismatchError(f"grade mismatch: {a.grade} vs {grade}")
        if a.chart != chart:
            raise ChartMismatchError(f"chart mismatch: {a.chart!r} vs {chart!r}")
        c = coerce(c)
        if c.is_zero:
            continue
        for idx, f in a.components.items():
            _accumulate(comps, idx, c * f)
    return DifferentialForm(grade, comps, chart)


def scale(coeff, a: DifferentialForm) -> DifferentialForm:
    """Multiply every component by a number or a scalar field."""
    c = coerce(coeff)
    if c.is_zero:
        return zero_form(a.grade, a.chart)
    return DifferentialForm(a.grade, {idx: c * f for idx, f in a.components.items()}, a.chart)


def add(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return linear_combine([1.0, 1.0], [a, b])


def subtract(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    return linear_combine([1.0, -1.0], [a, b])


def evaluate(a: DifferentialForm, events) -> dict[MultiIndex, np.ndarray]:
    """Component values at the events of a batch, arrays of its grid's
    shape, or at the rows of an (N, 4) event array, zeros for absent
    indices; every component of a block is evaluated on one batch."""
    return blockwise(partial(_evaluate, a), events)


def _evaluate(a: DifferentialForm, batch: Batch) -> dict[MultiIndex, np.ndarray]:
    out: dict[MultiIndex, np.ndarray] = {}
    for idx in _VALID[a.grade]:
        f = a.components.get(idx)
        out[idx] = np.zeros(batch.shape) if f is None else f.eval(batch)
    return out


def max_or_nan(values: np.ndarray) -> float:
    """Largest of an array's values and 0.0, or NaN when any value is NaN.

    The builtin ``max`` keeps a NaN only when it comes first, which would
    let a non-finite residual pass a tolerance check.
    """
    return float(values.max(initial=0.0))


def component_max(a: DifferentialForm, events) -> np.ndarray:
    """Largest absolute component value at each event of a batch or row of
    an (N, 4) event array, in the batch's grid shape; NaN where any
    component is NaN."""
    return blockwise(partial(_component_max, a), events)


def _component_max(a: DifferentialForm, batch: Batch) -> np.ndarray:
    out = np.zeros(batch.shape)
    for k, f in enumerate(a.components.values()):
        value = real(f.fn(batch))
        if k:
            np.maximum(out, np.abs(value), out=out)  # propagates NaN
        else:  # max(0, |x|) is |x|, a NaN included
            np.abs(value, out=out)
    return out


def lower_index(g: DiagonalMetric, v: VectorField4) -> DifferentialForm:
    """Metric dual of a vector field: component a is g_aa * v^a."""
    comps = {}
    for i in range(DIM):
        comps[(i,)] = g.diag[i] * v.components[i]
    return DifferentialForm(1, comps, v.chart)

