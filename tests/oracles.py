"""Independent numerical oracles used to pin expected values.

Everything here deliberately avoids the package's production code paths:
finite differences instead of dual numbers, a dual pass on the raw closure
instead of the dependency-pruned partial derivative, the full Levi-Civita
permutation sum instead of the closed-form diagonal Hodge rule, plain
componentwise arithmetic for metric contractions, adaptive quadrature
instead of the closed-form shell voltage, the stdlib ``json`` encoder
instead of the report writer, a profile's full table with every grid axis
repeated to one value per row instead of the CSV writer's per-axis row
prefixes, arithmetic nodes that call both operand
closures instead of captured constants, the inversion count instead of the
index tables, the interface grids one event at a time instead of one array
expression, the shell's per-basis rows, the sphere's five full assemblies
and one assembly per matching piece, each laid out one event at a time,
instead of the shared junction matcher's one dual-seeded assembly, each
region's Maxwell residuals on its own events instead of the regions of a
side on one array, the Gibbs relations on lists of per-component
arrays instead of stacked ones, the sphere's multipole potentials,
whose exterior derivatives the written components of its field basis
must equal, each Hodge coefficient recomputing sqrt(|det g|) and its
guard instead of dividing the metric's one volume node, component
maxima folded from a fresh copy of each component instead of in place,
and a profile's lab-frame fields decomposed afresh and evaluated at the
flattened rows of its grid, one event per row, instead of the kept
decompositions on the grid itself.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.integrate import quad

from emforms import dual
from emforms.fields import Batch, ScalarField, cos, event_array, sin
from emforms.forms import DifferentialForm, basis_indices, form
from one_event import value


def central_difference_partials(field: ScalarField, event) -> tuple[float, ...]:
    """Second-order central differences with coordinate-scaled steps."""
    out = []
    for axis in range(4):
        h = 1e-6 * max(1.0, abs(event[axis]))
        plus = list(event)
        minus = list(event)
        plus[axis] += h
        minus[axis] -= h
        out.append((value(field, plus) - value(field, minus)) / (2.0 * h))
    return tuple(out)


def dense_partial(field: ScalarField, axis: int, events) -> np.ndarray:
    """The partial along ``axis`` at the rows of an (N, 4) event array, by one
    dual pass seeded on ``field.fn`` itself. The field's dependency mask is
    ignored, so an axis it declares unread is differentiated all the same."""
    events = event_array(events)
    tag = dual.fresh_tag()
    seeded = list(events.T)
    seeded[axis] = dual.Dual(seeded[axis], 1.0, tag)
    out = np.empty(len(events))
    out[...] = dual.real(dual.extract(field.fn(Batch(seeded, out.shape)), tag))
    return out


def levi_civita_symbol() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


_EPS4 = levi_civita_symbol()


def hodge_star_oracle(metric, form: DifferentialForm, event) -> dict:
    """Brute-force Hodge dual via the full permutation sum.

    Builds the antisymmetric component tensor, raises all indices with
    the inverse diagonal metric, contracts against the Levi-Civita
    symbol and re-reads the increasing components of the result.
    """
    p = form.grade
    q = 4 - p
    g_vals = np.array([value(metric.diag[i], event) for i in range(4)])
    det = float(np.prod(g_vals))
    root = math.sqrt(abs(det))

    tensor = np.zeros((4,) * p) if p else np.array(value(form.component(()), event))
    if p:
        for idx in basis_indices(p):
            comp = value(form.component(idx), event)
            if comp == 0.0:
                continue
            for perm in itertools.permutations(range(p)):
                sign = 1
                pl = list(perm)
                for i in range(p):
                    for j in range(i + 1, p):
                        if pl[i] > pl[j]:
                            sign = -sign
                tensor[tuple(idx[k] for k in perm)] = sign * comp

    # raise indices with the inverse diagonal metric
    raised = np.array(tensor, dtype=float)
    for axis in range(p):
        shape = [1] * p
        shape[axis] = 4
        raised = raised / g_vals.reshape(shape)

    out = {}
    for jdx in basis_indices(q):
        total = 0.0
        if p == 0:
            total = float(raised) * _EPS4[(Ellipsis,) + jdx] if q == 4 else 0.0
            if q == 4:
                total = float(raised) * _EPS4[jdx]
        else:
            for idx in itertools.product(range(4), repeat=p):
                total += raised[idx] * _EPS4[idx + jdx]
            total /= math.factorial(p)
        out[jdx] = root * total
    return out


def metric_contraction(metric, u, v, event) -> float:
    """g(u, v) for two 4-vectors by direct componentwise summation."""
    total = 0.0
    for a in range(4):
        total += (
            value(metric.diag[a], event)
            * value(u.components[a], event)
            * value(v.components[a], event)
        )
    return total


def lowered_components(metric, v, event) -> tuple[float, ...]:
    return tuple(
        value(metric.diag[a], event) * value(v.components[a], event) for a in range(4)
    )


def v12_quadrature(sc) -> float:
    """Shell voltage: adaptive quadrature of the exact interior radial field.

    e_r(r) = c^2 B0 omega (eps_r mu_r - 1) r / (eps_r (c^2 - r^2 omega^2)),
    integrated from r1 to r2 at 1e-12 relative tolerance.
    """
    c, om, b0 = sc.mat.c, sc.omega, sc.b0
    eps_r, em = sc.mat.eps_r, sc.mat.eps_r * sc.mat.mu_r

    def e_r(r: float) -> float:
        return c * c * b0 * om * (em - 1.0) * r / (eps_r * (c * c - r * r * om * om))

    value, abserr = quad(e_r, sc.r1, sc.r2, epsabs=0.0, epsrel=1e-12, limit=200)
    if abserr > 1e-12 * abs(value) + 1e-300:
        raise RuntimeError(f"quadrature did not converge: {value:.6e} +- {abserr:.3e}")
    return value


# -- random smooth fields and forms --------------------------------------


def random_poly_trig_field(rng: np.random.Generator) -> ScalarField:
    """Low-order polynomial plus trigonometric terms in all coordinates."""
    x = [ScalarField.coordinate(a) for a in range(4)]
    from emforms.fields import cos, sin

    f = ScalarField.constant(float(rng.uniform(-1.0, 1.0)))
    for _ in range(int(rng.integers(2, 5))):
        c0 = float(rng.uniform(-2.0, 2.0))
        kind = int(rng.integers(0, 3))
        i, j = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        if kind == 0:
            f = f + c0 * x[i] ** int(rng.integers(1, 3)) * x[j] ** int(rng.integers(0, 3))
        elif kind == 1:
            f = f + c0 * sin(float(rng.uniform(0.5, 2.0)) * x[i] + float(rng.uniform(0, 3)))
        else:
            f = f + c0 * x[i] * cos(float(rng.uniform(0.5, 2.0)) * x[j])
    return f


def random_form(rng: np.random.Generator, grade: int, chart: str) -> DifferentialForm:
    comps = {idx: random_poly_trig_field(rng) for idx in basis_indices(grade)}
    return DifferentialForm(grade, comps, chart)


def random_event(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """Events inside the common valid box of all three charts."""
    return (
        float(rng.uniform(0.0, 1.0)),
        float(rng.uniform(0.5, 2.0)),
        float(rng.uniform(0.4, 2.7)),
        float(rng.uniform(-1.0, 1.0)),
    )


def _array_as_list(o):
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def stdlib_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` with each ndarray
    written as its ``tolist()``: the text a report file must hold."""
    return json.dumps(value, indent=2, sort_keys=True, default=_array_as_list)


def profile_table(values, axes=()) -> np.ndarray:
    """The full profile table of a grid: each axis repeated to one value
    per row with ``np.repeat`` and ``np.tile`` (C order, the last axis
    fastest), then the ``values`` columns. Without axes, ``values``."""
    lengths = [len(axis) for axis in axes]
    columns = [
        np.tile(np.repeat(np.asarray(axis, dtype=np.float64), math.prod(lengths[k + 1 :])), math.prod(lengths[:k]))
        for k, axis in enumerate(axes)
    ]
    return np.column_stack([*columns, np.asarray(values, dtype=np.float64)])


def per_event_cylinder_grid(sc, radius: float, half: int) -> list[tuple[float, ...]]:
    """The shell's interface grid at ``radius``, one scalar event per ``j``."""
    return [
        (0.0, radius, 2.0 * math.pi * j / half, sc.r2 * (-1.0 if j % 2 else 1.0))
        for j in range(half)
    ]


def per_event_sphere_grid(sc, half: int, pole_margin: float) -> list[tuple[float, ...]]:
    """The sphere's polar grid on r = a, one scalar event per ``j``."""
    return [
        (
            0.0,
            sc.a,
            pole_margin + (math.pi - 2.0 * pole_margin) * (j + 0.5) / half,
            2.0 * math.pi * j / half,
        )
        for j in range(half)
    ]


# -- the algebra that constant capture, index tables and per-amplitude
#    matching replace --------------------------------------------------------


def _two_closure_add(a: ScalarField, b: ScalarField) -> ScalarField:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.const is not None and b.const is not None:
        return ScalarField.constant(a.const + b.const)
    f, g = a.fn, b.fn
    return ScalarField(lambda event: f(event) + g(event), deps=a.deps | b.deps)


def _two_closure_neg(a: ScalarField) -> ScalarField:
    if a.const is not None:
        return ScalarField.constant(-a.const)
    f = a.fn
    return ScalarField(lambda event: -f(event), deps=a.deps)


def _two_closure_mul(a: ScalarField, b: ScalarField) -> ScalarField:
    if a.is_zero or b.is_zero:
        return ScalarField.zero()
    if a.const is not None and b.const is not None:
        return ScalarField.constant(a.const * b.const)
    if a.const == 1.0:
        return b
    if b.const == 1.0:
        return a
    f, g = a.fn, b.fn
    return ScalarField(lambda event: f(event) * g(event), deps=a.deps | b.deps)


def _two_closure_div(a: ScalarField, b: ScalarField) -> ScalarField:
    if b.const is not None:
        return _two_closure_mul(a, ScalarField.constant(1.0 / b.const))
    if a.is_zero:
        return ScalarField.zero()
    f, g = a.fn, b.fn
    return ScalarField(lambda event: f(event) / g(event), deps=a.deps | b.deps)


def _two_closure_rdiv(number: ScalarField, a: ScalarField) -> ScalarField:
    if number.is_zero:
        return ScalarField.zero()
    if a.const is not None:
        return ScalarField.constant(number.const / a.const)
    f, g = number.fn, a.fn
    return ScalarField(lambda event: f(event) / g(event), deps=a.deps | number.deps)


def two_closure_op(op: str, a, b) -> ScalarField:
    """``a op b`` for ``op`` in ``+ - * /``, where ``a`` or ``b`` may be a
    plain number: the field arithmetic with every binary node calling both
    operand closures, a constant's included. The folding rules and operand
    orders are the field class's, reflected operators included (``k + f``
    is ``f + k``, ``k - f`` is ``k + (-f)``, and two constants fold)."""
    if not isinstance(a, ScalarField):
        k = ScalarField.constant(a)
        return {
            "+": lambda: _two_closure_add(b, k),
            "-": lambda: _two_closure_add(k, _two_closure_neg(b)),
            "*": lambda: _two_closure_mul(b, k),
            "/": lambda: _two_closure_rdiv(k, b),
        }[op]()
    if not isinstance(b, ScalarField):
        b = ScalarField.constant(b)
    return {
        "+": lambda: _two_closure_add(a, b),
        "-": lambda: _two_closure_add(a, _two_closure_neg(b)),
        "*": lambda: _two_closure_mul(a, b),
        "/": lambda: _two_closure_div(a, b),
    }[op]()


def merge_by_inversions(ia, ib) -> tuple[tuple[int, ...], int]:
    """The increasing merge of two disjoint indices and the sign of
    dx^ia ^ dx^ib, from the parity of the inversions between them."""
    inversions = sum(1 for x in ia for y in ib if x > y)
    return tuple(sorted(ia + ib)), -1 if inversions % 2 else 1


def _per_event_rows(conditions, n_events: int):
    """Matching rows and right-hand sides built one event at a time.

    ``conditions`` holds one ``(columns, target)`` pair per junction
    condition, each an ``evaluate`` result: for each event, then each
    condition, then each 3-form component, one row of the columns' values
    and the target's value.
    """
    rows, rhs = [], []
    for e in range(n_events):
        for columns, target in conditions:
            for idx in basis_indices(3):
                rows.append([col[idx][e] for col in columns])
                rhs.append(target[idx][e])
    return np.array(rows), np.array(rhs)


def per_basis_cylinder_rows(sc, seed: int = 0):
    """The shell's junction rows one basis form at a time: at
    ``MATCH_SAMPLES`` events on each radius, each interior basis form at one
    unit of its amplitude, wedged with dPhi for [F] and Hodge-dualised first
    for [star G], against the exterior field's, with the interior family on
    the left-hand side."""
    from emforms.cylinder import _interior_family
    from emforms.fields import ScalarField
    from emforms.forms import evaluate, form, hodge_star, scale, wedge
    from emforms.junction import Interface
    from emforms.solutions import MATCH_SAMPLES
    from emforms.spacetime import cylindrical_chart

    chart = cylindrical_chart(sc.mat.c)
    metric = chart.metric
    r = ScalarField.coordinate(1)
    f_basis, g_basis = _interior_family(sc, chart)
    f_out = form(2, chart.name, {(1, 2): sc.mat.c * sc.b0 * r})
    g_out = scale(sc.mat.eps0, f_out)
    unit = sc.mat.eps0 * sc.mat.c * abs(sc.b0)
    units = (max(unit * sc.r2, 1e-300), max(unit, 1e-300))
    rows, rhs = [], []
    for radius, iface in zip((sc.r1, sc.r2), sc.interfaces):
        events = iface.events(MATCH_SAMPLES, seed)
        dphi = Interface(phi=r - radius, chart=chart.name).gradient()
        conditions = [
            (
                [evaluate(wedge(scale(u, fb), dphi), events) for u, fb in zip(units, f_basis)],
                evaluate(wedge(f_out, dphi), events),
            ),
            (
                [
                    evaluate(wedge(hodge_star(metric, scale(u, gb)), dphi), events)
                    for u, gb in zip(units, g_basis)
                ],
                evaluate(wedge(hodge_star(metric, g_out), dphi), events),
            ),
        ]
        iface_rows, iface_rhs = _per_event_rows(conditions, len(events))
        rows.append(iface_rows)
        rhs.append(iface_rhs)
    return np.concatenate(rows), np.concatenate(rhs)


def sphere_potential_basis(chart) -> dict[str, DifferentialForm]:
    """omega-stripped 1-form potentials of the sphere's multipole ansatz,
    under the names of ``sphere._field_basis``, whose forms are their
    exterior derivatives written out."""
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


def five_assembly_sphere_rows(sc, seed: int = 0):
    """The sphere's junction rows and right-hand sides at ``MATCH_SAMPLES``
    events from five full assemblies: one at zero amplitudes and one at one
    unit of each amplitude, each column taken as its assembly minus the
    first."""
    from emforms.fields import ScalarField
    from emforms.forms import add, evaluate, hodge_star, scale, subtract, wedge
    from emforms.junction import Interface
    from emforms.solutions import MATCH_SAMPLES
    from emforms.spacetime import spherical_chart
    from emforms.sphere import _constant_scales, _field_basis, truncated_excitation

    chart = spherical_chart(sc.mat.c)
    metric = chart.metric
    basis = _field_basis(chart)
    omega = 0.01 * sc.mat.c / sc.a
    dphi = Interface(phi=ScalarField.coordinate(1) - sc.a, chart=chart.name).gradient()
    events = sc.interfaces[0].events(MATCH_SAMPLES, seed)

    def assemble(k0, k1, p0, p1):
        f0_in = scale(k0, basis["uniform_t"])
        f1_in = scale(k1, basis["quad_in"])
        f0_out = add(basis["uniform_t"], scale(p0, basis["dipole_t"]))
        f1_out = scale(p1, basis["quad_out"])
        g_in = truncated_excitation(f0_in, f1_in, omega, sc.mat, chart)
        g_out = scale(sc.mat.eps0, add(f0_out, scale(omega, f1_out)))
        f_in = add(f0_in, scale(omega, f1_in))
        f_out = add(f0_out, scale(omega, f1_out))
        return (
            wedge(subtract(f_out, f_in), dphi),
            wedge(subtract(hodge_star(metric, g_out), hodge_star(metric, g_in)), dphi),
        )

    units = _constant_scales(sc, 1.0)
    unit_vec = [max(u, 1e-300) for u in (units.k0, units.k1, units.p0, units.p1)]
    base = assemble(0.0, 0.0, 0.0, 0.0)
    columns = [assemble(*(u if k == j else 0.0 for k, u in enumerate(unit_vec))) for j in range(4)]
    conditions = []
    for cond in range(2):
        base_vals = evaluate(base[cond], events)
        col_vals = [evaluate(col[cond], events) for col in columns]
        conditions.append(
            (
                [{idx: v - base_vals[idx] for idx, v in cv.items()} for cv in col_vals],
                {idx: -v for idx, v in base_vals.items()},
            )
        )
    return _per_event_rows(conditions, len(events))


def per_piece_match_rows(build, units, junctions, metric):
    """The matching rows and right-hand side from one assembly per piece:
    the applied piece (drive 1, every amplitude 0) and, for each amplitude,
    one of its ``units`` (floored at 1e-300) alone at drive 0, with
    constant amplitudes. Each piece's jumps are wedged with each
    interface's dPhi and evaluated; rows run event by event, then
    condition, then 3-form component, one column per amplitude, with the
    applied piece moved to the right-hand side."""
    from emforms.forms import evaluate, hodge_star, wedge
    from emforms.junction import field_jumps

    units = [max(u, 1e-300) for u in units]
    zeros = [0.0] * len(units)
    pieces = [build(zeros, 1.0)] + [
        build([u if k == j else 0.0 for k, u in enumerate(units)], 0.0) for j in range(len(units))
    ]
    jumps = [
        field_jumps(f_in, f_out, hodge_star(metric, g_in), hodge_star(metric, g_out))
        for f_in, f_out, g_in, g_out in pieces
    ]
    rows, rhs = [], []
    for iface, events in junctions:
        dphi = iface.gradient()
        values = [[evaluate(wedge(jump, dphi), events) for jump in pair] for pair in jumps]
        for e in range(len(events)):
            for condition in range(2):
                for idx in basis_indices(3):
                    rows.append([values[j][condition][idx][e] for j in range(1, len(pieces))])
                    rhs.append(-values[0][condition][idx][e])
    return np.array(rows), np.array(rhs)


def per_region_verify_solution(sol, samples_per_region: int, seed: int = 0):
    """The Maxwell report of a solution with each region evaluated on its
    own events, one region after another, every form built up front."""
    import sys

    from emforms.fields import blockwise
    from emforms.forms import component_max, exterior_derivative, hodge_star, max_or_nan
    from emforms.solutions import EXACT_RESIDUAL_TOL, MaxwellReport, junction_tolerance, sample_box

    metric = sol.chart.metric
    rng = np.random.default_rng(seed)
    tol_f = EXACT_RESIDUAL_TOL
    tol_g = junction_tolerance(sol)
    pairs = {True: (sol.f_in, sol.g_in), False: (sol.f_out, sol.g_out)}
    star_g = {interior: hodge_star(metric, g) for interior, (_, g) in pairs.items()}
    derivatives = {
        interior: (exterior_derivative(f), exterior_derivative(star_g[interior]))
        for interior, (f, _) in pairs.items()
    }
    regions = {}
    passed = True
    for region in sol.regions:
        f_form, _ = pairs[region.interior]
        df, dsg = derivatives[region.interior]
        forms = (df, f_form, dsg, star_g[region.interior])
        events = sample_box(region.box, samples_per_region, rng)
        values = blockwise(lambda batch: [component_max(form, batch) for form in forms], events)
        max_df, max_f, max_dsg, max_sg = map(max_or_nan, values)
        rel_df = sol.length_scale * max_df / max(max_f, 1e-300)
        rel_dsg = sol.length_scale * max_dsg / max(max_sg, 1e-300)
        entry = {
            "df_max_abs": max_df,
            "df_max_rel": rel_df,
            "dstar_g_max_abs": max_dsg,
            "dstar_g_max_rel": rel_dsg,
            "f_scale": max_f,
            "star_g_scale": max_sg,
            "df_worst_event": events[values[0].argmax()].tolist() if len(events) else None,
            "dstar_g_worst_event": events[values[2].argmax()].tolist() if len(events) else None,
        }
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


# -- the Gibbs relations on lists of per-component arrays ---------------------


def list_normal_velocity(iface, frame, g, events):
    """The unit normal 1-form, as a list of four arrays, and v_N at the rows
    of an (N, 4) event array, on one batch, with every sum over components
    a Python ``sum``."""
    from emforms.forms import evaluate
    from emforms.junction import _require_nondegenerate

    batch = Batch.of(event_array(events))
    u_vec = [frame.components[a].eval(batch) for a in range(4)]
    g_vec = [g.diag[a].eval(batch) for a in range(4)]
    dphi = evaluate(iface.gradient(), batch)
    dphi_vec = [dphi[(a,)] for a in range(4)]
    scale_dphi = np.max(np.abs(dphi_vec), axis=0)
    _require_nondegenerate(scale_dphi <= 0.0, batch, "vanishes")
    contracted = sum(d * u for d, u in zip(dphi_vec, u_vec))
    u_flat = [gv * uv for gv, uv in zip(g_vec, u_vec)]
    projected = [d + contracted * uf for d, uf in zip(dphi_vec, u_flat)]
    norm_sq = sum(p * p / gv for p, gv in zip(projected, g_vec))
    _require_nondegenerate(norm_sq <= (1e-14 * scale_dphi) ** 2, batch, "is purely temporal")
    norm = norm_sq**0.5
    c = (-g_vec[0]) ** 0.5
    return [p / norm for p in projected], -contracted * c / norm


def list_gibbs_residuals(dec_in, dec_out, iface, frame, g, events) -> tuple[dict, dict]:
    """The absolute and relative Gibbs residuals at the rows of an (N, 4)
    event array, on one batch, with each 3-vector a list of three arrays."""
    from emforms.forms import evaluate
    from emforms.junction import _CROSS_SIGN, _SCALE_FLOOR

    batch = Batch.of(event_array(events))
    g_vec = [g.diag[a].eval(batch) for a in range(4)]
    c = (-g_vec[0]) ** 0.5
    normal, v_n = list_normal_velocity(iface, frame, g, events)
    n_hat = [normal[i] / g_vec[i] ** 0.5 for i in (1, 2, 3)]

    def spatial(one_form):
        vals = evaluate(one_form, batch)
        return [vals[(i,)] / g_vec[i] ** 0.5 for i in (1, 2, 3)]

    def cross(x, y):
        rh = [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
        return [_CROSS_SIGN * v for v in rh]

    def jump_and_scale(attr):
        a = spatial(getattr(dec_in, attr))
        b = spatial(getattr(dec_out, attr))
        jump = [bv - av for av, bv in zip(a, b)]
        return jump, np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0))

    je, se = jump_and_scale("e")
    jb, sb = jump_and_scale("b")
    jd, sd = jump_and_scale("d")
    jh, sh = jump_and_scale("h")
    normal_d = abs(sum(n * v for n, v in zip(n_hat, jd)))
    tang_h = np.max([abs(v_n * dv + cv) for dv, cv in zip(jd, cross(n_hat, jh))], axis=0)
    normal_b = abs(sum(n * v for n, v in zip(n_hat, jb)))
    tang_e = np.max([abs(v_n * bv - cv) for bv, cv in zip(jb, cross(n_hat, je))], axis=0)
    scale_g = np.maximum(sd, sh / c)
    scale_f = np.maximum(se, c * sb)
    return (
        {"normal_d": normal_d, "tangential_h": tang_h, "normal_b": normal_b, "tangential_e": tang_e},
        {
            "normal_d": normal_d / np.maximum(scale_g, _SCALE_FLOOR),
            "tangential_h": tang_h / np.maximum(c * scale_g, _SCALE_FLOOR),
            "normal_b": normal_b / np.maximum(scale_f / c, _SCALE_FLOOR),
            "tangential_e": tang_e / np.maximum(scale_f, _SCALE_FLOOR),
        },
    )


# -- the per-batch work that the metric's volume node and the in-place
#    component maxima replace ---------------------------------------------------


def per_coefficient_hodge(g, idx) -> ScalarField:
    """sqrt(|g00 g11 g22 g33|) / prod_{i in idx} g_ii as one closure that
    reads every diagonal component, guards each coordinate-dependent one
    against the metric floor, forms the product, its absolute value and
    square root, then divides by each g_ii in turn, on every evaluation."""
    from emforms.dual import real
    from emforms.dual import sqrt as dual_sqrt
    from emforms.fields import first_bad_event
    from emforms.forms import _METRIC_FLOOR, DegenerateMetricError

    consts = [gi.const for gi in g.diag]
    for i, v in enumerate(consts):
        if v is not None and abs(v) < _METRIC_FLOOR:
            raise DegenerateMetricError(f"metric component g_{i}{i} = {v!r} vanishes")
    varying = [(i, gi.fn) for i, gi in enumerate(g.diag) if gi.const is None]

    def fn(event):
        vals = consts.copy()
        for i, f in varying:
            vals[i] = f(event)
        for i, _ in varying:
            where = first_bad_event(abs(real(vals[i])) < _METRIC_FLOOR, event)
            if where is not None:
                raise DegenerateMetricError(f"metric component g_{i}{i} vanishes at event {where}")
        out = dual_sqrt(abs(vals[0] * vals[1] * vals[2] * vals[3]))
        for i in idx:
            out = out / vals[i]
        return out

    deps = 0
    for gi in g.diag:
        deps |= gi.deps
    return ScalarField(fn, deps=deps)


def copying_component_max(a: DifferentialForm, batch: Batch) -> np.ndarray:
    """The largest absolute component value at each event of a batch, with
    each component evaluated into a fresh array and a new maximum array
    made per component."""
    out = np.zeros(batch.shape)
    for f in a.components.values():
        out = np.maximum(out, np.abs(f.eval(batch)))
    return out


def flattened_by_side(sol, inside: np.ndarray, events: np.ndarray, components) -> np.ndarray:
    """The lab-frame field components of a solution at the rows of an
    (N, 4) event array, one row per ``(attr, idx)`` of ``components``: each
    side's F and G decomposed afresh, each component evaluated at the rows
    of its side (``inside`` holds one bool per row) on the rows' own
    batches."""
    from emforms.media import decompose
    from emforms.spacetime import lab_frame

    frame, metric = lab_frame(sol.chart), sol.chart.metric
    out = np.empty((len(components), len(events)))
    for (f, g), mask in (((sol.f_in, sol.g_in), inside), ((sol.f_out, sol.g_out), ~inside)):
        parts = dict(zip("eb", decompose(f, frame, metric, "field")))
        parts.update(zip("dh", decompose(g, frame, metric, "excitation")))
        for row, (attr, idx) in enumerate(components):
            out[row, mask] = parts[attr].component(idx).eval(events[mask])
    return out
