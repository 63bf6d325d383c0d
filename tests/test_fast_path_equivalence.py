"""The interpreter-level fast paths against the algebra they replace.

Constant operands captured in closures, the index tables of ``forms``,
metric constants checked once, the Hodge coefficients sharing one volume
node per metric, component maxima folded in place, the interface grids built as array
expressions, the values cached on a shared batch and the regions of a side
verified on one array must give what the generic construction gives: bit
for bit where the floating-point operations are the same. The shared
junction matcher's rows must equal each scenario's own to rounding, as
its columns are no longer differences of full assemblies or per-basis
forms.
"""

import dataclasses
import itertools
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforms import fields, forms, solutions, sphere
from emforms.cli import _json_text
from emforms.cylinder import CylinderScenario, match_cylinder_amplitudes
from emforms.fields import Batch, ScalarField, blockwise
from emforms.forms import (
    DegenerateMetricError,
    GradeMismatchError,
    basis_indices,
    evaluate,
    exterior_derivative,
    form,
    hodge_star,
    perm_parity,
)
from emforms.media import EMDecomposition, MaterialParams
from emforms.solutions import MATCH_SAMPLES, Region
from emforms.spacetime import cartesian_chart, cylindrical_chart, lab_frame, spherical_chart
from emforms.sphere import SphereScenario, match_sphere_constants
from oracles import (
    copying_component_max,
    dense_partial,
    five_assembly_sphere_rows,
    merge_by_inversions,
    per_basis_cylinder_rows,
    per_coefficient_hodge,
    per_event_cylinder_grid,
    per_event_sphere_grid,
    per_region_verify_solution,
    two_closure_op,
)

C = MaterialParams.vacuum().c

# -- constant operands captured in closures ----------------------------------

numbers = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 1e-300, 1e300]) | st.floats(-4.0, 4.0)
leaves = st.integers(0, 3).map(lambda axis: ("x", axis)) | numbers.map(lambda k: ("c", k))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children),
        st.tuples(st.sampled_from("+-*/"), numbers, children),  # reflected: k op f
        st.tuples(st.sampled_from("+-*/"), children, numbers),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("twice"), st.sampled_from("+-*/"), children),  # f op f, one subtree
        st.tuples(st.just("d"), st.integers(0, 3), children),  # a partial derivative
    ),
    max_leaves=12,
)


def build(tree, binary, built=None):
    """The field of ``tree``; ``binary(op, a, b)`` combines two operands.
    Every field built on the way, the last one included, is appended to
    the list ``built`` when one is given."""
    if tree[0] == "x":
        field = ScalarField.coordinate(tree[1])
    elif tree[0] == "c":
        field = ScalarField.constant(tree[1])
    elif tree[0] == "neg":
        field = -build(tree[1], binary, built)
    elif tree[0] == "twice":
        sub = build(tree[2], binary, built)
        field = binary(tree[1], sub, sub)
    elif tree[0] == "d":
        field = build(tree[2], binary, built).partial_field(tree[1])
    else:
        op, a, b = tree
        a = a if isinstance(a, float) else build(a, binary, built)
        b = b if isinstance(b, float) else build(b, binary, built)
        field = binary(op, a, b)
    if built is not None:
        built.append(field)
    return field


def python_operator(op, a, b):
    """``a op b`` with Python's operators, reflected ones included."""
    return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](a, b)


def outcome(tree, binary, events):
    """(field, values) of ``tree``, or the type of the error that building
    or evaluating it raised."""
    try:
        field = build(tree, binary)
        return field, field.eval(events)
    except ZeroDivisionError as exc:
        return type(exc), None


def bits(values: np.ndarray) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=300)
@given(trees, arrays(np.float64, (5, 4), elements=st.floats(-3.0, 3.0)))
def test_captured_constants_match_two_closure_nodes_bit_for_bit(tree, events):
    with np.errstate(all="ignore"):
        fast, fast_values = outcome(tree, python_operator, events)
        slow, slow_values = outcome(tree, two_closure_op, events)
        if fast_values is None or slow_values is None:
            assert fast is slow is ZeroDivisionError
            return
        assert (fast.const, fast.deps) == (slow.const, slow.deps)
        assert bits(fast_values) == bits(slow_values)
        for axis in range(4):
            if fast.deps >> axis & 1:
                got = fast.partial_field(axis).eval(events)
                assert bits(got) == bits(dense_partial(slow, axis, events))


def int64_bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=150)
@given(st.lists(trees, min_size=1, max_size=3), arrays(np.float64, (5, 4), elements=st.floats(-3.0, 3.0)))
def test_fields_sharing_one_batch_equal_each_on_a_fresh_batch(forest, events):
    with np.errstate(all="ignore"):
        built = []
        for tree in forest:
            try:
                build(tree, python_operator, built)
            except ZeroDivisionError:
                pass
        built += [f.partial_field(axis) for f in list(built) for axis in range(4)]
        shared = Batch.of(events)
        # the largest trees first, so that their walks fill the cache that
        # the subtrees evaluated after them read
        for f in reversed(built):
            assert np.array_equal(int64_bits(f.eval(shared)), int64_bits(f.eval(events)))


def test_a_constant_operand_is_not_called_at_evaluation():
    calls = []
    k = ScalarField.constant(2.0)
    k.fn = lambda event: calls.append(None) or 2.0
    x = ScalarField.coordinate(1)
    fields = [x + k, k + x, x * k, k * x, k / x, x - k, k - x, 3.0 / x, x / 4.0]
    events = np.array([[0.0, 1.5, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0]])
    for f in fields:
        f.eval(events)
    assert calls == []


# -- index tables ----------------------------------------------------------

ALL_INDICES = [idx for grade in range(5) for idx in basis_indices(grade)]


def test_merge_table_equals_the_inversion_count():
    for ia, ib in itertools.product(ALL_INDICES, repeat=2):
        if set(ia) & set(ib):
            assert (ia, ib) not in forms._MERGE
        else:
            assert forms._MERGE[ia, ib] == merge_by_inversions(ia, ib)
    assert len(forms._MERGE) == 3**4  # each axis in ia, in ib or in neither


def test_hodge_table_equals_perm_parity():
    table = forms._COMPLEMENT
    assert sorted(table) == sorted(ALL_INDICES)
    for idx in ALL_INDICES:
        comp = tuple(i for i in range(4) if i not in idx)
        assert table[idx] == (comp, perm_parity(idx + comp, range(4)))


@pytest.mark.parametrize(
    "grade, idx, message",
    [
        (2, (0,), "index (0,) has length 1, expected grade 2"),
        (1, (4,), "index (4,) out of range 0..3"),
        (2, (2, 1), "index (2, 1) is not strictly increasing"),
        (2, (1, 1), "index (1, 1) is not strictly increasing"),
    ],
)
def test_an_index_the_table_misses_keeps_its_error(grade, idx, message):
    with pytest.raises(GradeMismatchError) as excinfo:
        form(grade, "cartesian", {idx: 1.0})
    assert str(excinfo.value) == message


def test_a_valid_index_is_stored_as_a_tuple_of_ints():
    a = forms.DifferentialForm(2, {(np.int64(0), np.int64(3)): 1.0, (1.0, 2.0): 2.0}, "cartesian")
    assert list(a.components) == [(0, 3), (1, 2)]
    assert all(type(i) is int for idx in a.components for i in idx)


# -- metric constants checked once ---------------------------------------------


def count_guard_calls(monkeypatch):
    calls = []
    guard = forms.first_bad_event
    monkeypatch.setattr(forms, "first_bad_event", lambda bad, event: calls.append(None) or guard(bad, event))
    return calls


def test_constant_metric_makes_no_guard_call_per_evaluation(monkeypatch, rng):
    calls = count_guard_calls(monkeypatch)
    events = rng.uniform(0.5, 2.0, size=(6, 4))
    cart = cartesian_chart(C)
    comps = {idx: ScalarField.coordinate(1) + float(k) for k, idx in enumerate(basis_indices(2))}
    star = hodge_star(cart.metric, form(2, cart.name, comps))
    evaluate(star, events)
    assert calls == []
    # on a chart with a coordinate-dependent component, only that one is
    # guarded, once per batch, in the volume node that every coefficient shares
    cyl = cylindrical_chart(C)
    evaluate(hodge_star(cyl.metric, form(2, cyl.name, comps)), events)
    assert len(calls) == 1


def test_constant_metric_component_below_the_floor_fails_when_the_dual_is_built():
    cart = cartesian_chart(1e-16)  # g_tt = -1e-32
    with pytest.raises(DegenerateMetricError, match="g_00"):
        hodge_star(cart.metric, form(1, cart.name, {(1,): 1.0}))


# -- one volume node per metric, shared by every Hodge coefficient ---------------

CHARTS = {"cartesian": cartesian_chart, "cylindrical": cylindrical_chart, "spherical": spherical_chart}
ALL_COEFFICIENT_INDICES = [idx for grade in range(5) for idx in basis_indices(grade)]


def chart_events(rng, n: int) -> np.ndarray:
    """Events off every chart's axis: r in [0.01, 2], theta in [0.1, 3]."""
    return np.column_stack(
        [rng.uniform(-1.0, 1.0, n), rng.uniform(0.01, 2.0, n), rng.uniform(0.1, 3.0, n), rng.uniform(-3.0, 3.0, n)]
    )


def varying_time_metric(c: float) -> forms.DiagonalMetric:
    """A metric whose first factor is an array and whose ones are ints."""
    r = ScalarField.coordinate(1)
    return forms.DiagonalMetric((-(c * c) * (1.0 + r * r), 1, r * r, 1))


METRICS = {
    **{name: lambda c, chart=chart: chart(c).metric for name, chart in CHARTS.items()},
    "varying-time": varying_time_metric,
}


@pytest.mark.parametrize("metric", list(METRICS))
def test_hodge_coefficients_equal_the_per_coefficient_closure_bit_for_bit(metric, rng):
    # constants of exactly 1 are left out of the products and quotients
    metric = METRICS[metric](C)
    events = chart_events(rng, 257)
    coefficients = {idx: forms._hodge_coefficient(metric, idx) for idx in ALL_COEFFICIENT_INDICES}
    batch = Batch.of(events)  # every coefficient on one shared batch, as a run evaluates them
    for idx, coefficient in coefficients.items():
        want = per_coefficient_hodge(metric, idx)
        assert bits(coefficient.eval(batch)) == bits(want.eval(events)), idx
        # the derivative passes, first and second, where the metric varies
        for axis in range(4):
            got_d, want_d = coefficient.partial_field(axis), want.partial_field(axis)
            assert bits(got_d.eval(batch)) == bits(want_d.eval(events)), (idx, axis)
            for second in range(4):
                got_dd = got_d.partial_field(second).eval(batch)
                assert bits(got_dd) == bits(want_d.partial_field(second).eval(events)), (idx, axis, second)


def test_one_batch_evaluates_the_volume_node_once(monkeypatch, rng):
    roots = []
    root = forms.dual_sqrt
    monkeypatch.setattr(forms, "dual_sqrt", lambda x: roots.append(None) or root(x))
    metric = spherical_chart(C).metric  # g_22 and g_33 vary: two guards per evaluation
    guards = count_guard_calls(monkeypatch)
    coefficients = [forms._hodge_coefficient(metric, idx) for idx in ALL_COEFFICIENT_INDICES]
    batch = Batch.of(chart_events(rng, 64))
    for coefficient in coefficients:
        coefficient.eval(batch)
    assert (len(roots), len(guards)) == (1, 2)
    # the derivative pass along r seeds one batch of its own, which the
    # coefficients' partials share
    for coefficient in coefficients:
        coefficient.partial_field(1).eval(batch)
    assert (len(roots), len(guards)) == (2, 4)


@pytest.mark.parametrize(
    "chart, bad_rows, message",
    [
        ("cylindrical", {3: (1, 0.0)}, "g_22 vanishes at event"),
        ("spherical", {5: (2, 0.0), 2: (2, math.pi)}, "g_33 vanishes at event"),
        # g_22 is checked before g_33 over the whole batch, whichever event comes first
        ("spherical", {1: (2, 0.0), 4: (1, 0.0)}, "g_22 vanishes at event"),
    ],
)
def test_a_degenerate_metric_names_the_component_and_event_the_per_coefficient_closure_names(
    chart, bad_rows, message, rng
):
    metric = CHARTS[chart](C).metric
    events = chart_events(rng, 8)
    for row, (column, value) in bad_rows.items():
        events[row, column] = value
    # the values, and the derivative pass along each axis the metric reads
    axes = [None] + [axis for axis in range(4) if metric.volume.deps >> axis & 1]
    for idx, axis in itertools.product(ALL_COEFFICIENT_INDICES, axes):
        got, want = forms._hodge_coefficient(metric, idx), per_coefficient_hodge(metric, idx)
        if axis is not None:
            got, want = got.partial_field(axis), want.partial_field(axis)
        with pytest.raises(DegenerateMetricError) as expected:
            want.eval(events)
        with pytest.raises(DegenerateMetricError) as raised:
            got.eval(events)
        assert str(raised.value) == str(expected.value)
        assert message in str(raised.value)


def test_a_constant_component_below_the_floor_raises_what_the_per_coefficient_closure_raises():
    metric = forms.DiagonalMetric((-1e-40, 1.0, ScalarField.coordinate(1), 1.0))
    with pytest.raises(DegenerateMetricError) as expected:
        per_coefficient_hodge(metric, (1,))
    for _ in range(2):  # nothing is kept from a failed build
        with pytest.raises(DegenerateMetricError) as raised:
            hodge_star(metric, form(1, "cartesian", {(1,): 1.0}))
        assert str(raised.value) == str(expected.value) == "metric component g_00 = -1e-40 vanishes"


# -- component maxima folded in place --------------------------------------------


def component_max_cases():
    x, y = ScalarField.coordinate(1), ScalarField.coordinate(2)
    nan_where_negative = fields.sqrt(x) * 0.0 + 1.0  # NaN at x < 0, else 1
    inf_where_zero = 1.0 / x  # +-inf at x = +-0
    return {
        "constant": form(2, "cartesian", {(0, 1): -2.5, (1, 2): x * y}),
        "only-constants": form(2, "cartesian", {(0, 1): -2.5, (2, 3): 3}),  # an int broadcasts too
        "nan": form(1, "cartesian", {(0,): x, (1,): nan_where_negative, (3,): -y}),
        "nan-last": form(1, "cartesian", {(0,): y * 1e300, (2,): nan_where_negative}),
        "inf": form(1, "cartesian", {(1,): inf_where_zero, (2,): -y}),
        "signed-zeros": form(1, "cartesian", {(0,): x - x, (1,): -(x - x)}),
    }


COMPONENT_MAX_EVENTS = {
    "mixed": np.array(
        [
            [0.0, 1.0, 2.0, 0.0],
            [0.0, -1.0, -3.0, 0.0],
            [0.0, 0.0, np.inf, 0.0],
            [0.0, -0.0, -np.inf, 0.0],
            [0.0, np.nan, 1.0, 0.0],
            [0.0, 4.0, np.nan, 0.0],
        ]
    ),
    "one-event": np.array([[0.0, -2.0, 0.5, 1.0]]),
    "empty": np.empty((0, 4)),
}


@pytest.mark.parametrize("events", list(COMPONENT_MAX_EVENTS))
@pytest.mark.parametrize("case", list(component_max_cases()))
def test_in_place_component_max_equals_the_copying_fold_bit_for_bit(case, events):
    a = component_max_cases()[case]
    events = COMPONENT_MAX_EVENTS[events]
    with np.errstate(all="ignore"):
        got = forms.component_max(a, events)
        want = copying_component_max(a, Batch.of(events))
        values = [f.eval(events) for f in a.components.values()]
    assert got.shape == (len(events),) and got.dtype == np.float64
    assert bits(got) == bits(want)
    # NaN wherever any component is NaN
    assert np.isnan(got).tolist() == np.isnan(np.array(values)).any(axis=0).tolist()


# -- the shared junction matcher's rows against each scenario's own ------------


def matcher_rows(monkeypatch, match):
    """The rows and right-hand side that the shared junction matcher hands
    to ``solve_matching_system`` while ``match()`` runs."""
    original = solutions.solve_matching_system
    seen = []

    def spy(rows, rhs, what):
        seen.append((rows, rhs))
        return original(rows, rhs, what)

    monkeypatch.setattr(solutions, "solve_matching_system", spy)
    match()
    ((rows, rhs),) = seen
    return rows, rhs


def assert_rows_close(rows, rhs, want_rows, want_rhs):
    """Equal shapes, and every column and the right-hand side within 1e-12
    of the reference relative to that column's largest entry."""
    assert rows.shape == want_rows.shape and rhs.shape == want_rhs.shape
    for got, want in [*zip(rows.T, want_rows.T), (rhs, want_rhs)]:
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(got - want).max() <= 1e-12 * scale


# (eps_r, mu_r) across the range the matchers are held to
MATCH_MATERIALS = list(itertools.product([1.0, 6.0, 50.0], [0.05, 2.0, 20.0]))


@pytest.mark.parametrize("eps_r, mu_r", [(4.0, 2.0), *MATCH_MATERIALS])
@pytest.mark.parametrize(
    "beta",
    [0.01, 0.0, 1e-300, 0.3, 0.9],
    ids=["rotating", "probe-rate", "slow-rotation", "fast-rotation", "near-light"],
)
def test_per_amplitude_sphere_rows_equal_five_assembly_rows(monkeypatch, beta, eps_r, mu_r):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rim speeds above 0.1 c
        sc = SphereScenario(a=0.05, omega=beta * C / 0.05, e0=1000.0, mat=MaterialParams(eps_r, mu_r))
    rows, rhs = matcher_rows(monkeypatch, lambda: match_sphere_constants(sc, seed=2))
    want_rows, want_rhs = five_assembly_sphere_rows(sc, seed=2)
    assert rows.shape == (MATCH_SAMPLES * 2 * 4, 4)
    assert_rows_close(rows, rhs, want_rows, want_rhs)


@pytest.mark.parametrize("eps_r, mu_r", MATCH_MATERIALS)
@pytest.mark.parametrize(
    "beta", [0.3, 0.0, 1e-300, 0.9], ids=["rotating", "static", "slow-rotation", "near-light"]
)
def test_shared_cylinder_rows_equal_per_basis_rows(monkeypatch, beta, eps_r, mu_r):
    sc = CylinderScenario(
        r1=0.02, r2=0.04, omega=beta * C / 0.04, b0=1.5, mat=MaterialParams(eps_r, mu_r)
    )
    rows, rhs = matcher_rows(monkeypatch, lambda: match_cylinder_amplitudes(sc, seed=3))
    want_rows, want_rhs = per_basis_cylinder_rows(sc, seed=3)
    assert rows.shape == (2 * MATCH_SAMPLES * 2 * 4, 2)
    # the per-basis system keeps the interior family on the left and the
    # applied field on the right; the shared one moves the applied piece
    # right instead, so the same equations carry the opposite sign
    assert_rows_close(rows, rhs, -want_rows, -want_rhs)


# -- interface grids as one array expression -----------------------------------

GRID_HALVES = [0, 1, 2, 4, 8, 12, 256]


def assert_grid_bits(events: np.ndarray, half: int, want: list) -> None:
    grid = events[:half]
    assert grid.shape == (half, 4) and grid.dtype == np.float64
    assert bits(grid) == bits(np.array(want, dtype=float).reshape(half, 4))


@pytest.mark.parametrize("half", GRID_HALVES)
def test_array_grids_equal_the_per_event_grids_bit_for_bit(half):
    rng = np.random.default_rng(half)
    for _ in range(40):
        r1 = float(rng.uniform(1e-3, 10.0))
        r2 = r1 * float(rng.uniform(1.0 + 1e-6, 2.0))
        shell = CylinderScenario(
            r1=r1, r2=r2, omega=rng.uniform(-0.9, 0.9) * C / r2, b0=1.0, mat=MaterialParams(4.0, 1.0)
        )
        # an odd count puts one more event in the random half only
        for n in (2 * half, 2 * half + 1):
            for radius, iface in zip((r1, r2), shell.interfaces):
                assert_grid_bits(iface.events(n, seed=3), half, per_event_cylinder_grid(shell, radius, half))
        a = float(rng.uniform(1e-3, 10.0))
        ball = SphereScenario(a=a, omega=rng.uniform(0.0, 0.05) * C / a, e0=1.0, mat=MaterialParams(4.0, 1.0))
        events = ball.interfaces[0].events(2 * half, seed=3)
        assert_grid_bits(events, half, per_event_sphere_grid(ball, half, sphere._POLE_MARGIN))


# -- every component of a solution on one shared batch -------------------------

CACHE_SCENARIOS = {
    "cylinder": CylinderScenario(
        r1=0.02, r2=0.04, omega=0.3 * C / 0.04, b0=1.5, mat=MaterialParams(6.0, 2.0)
    ),
    "sphere": SphereScenario(a=0.05, omega=0.01 * C / 0.05, e0=1000.0, mat=MaterialParams(4.0, 2.0)),
}


def side_components(sol, interior: bool) -> list:
    """((form name, index), field) of every component of F, G, star G, dF,
    d star G and the lab-frame e, b, d, h on one side of a solution."""
    metric = sol.chart.metric
    f, g = (sol.f_in, sol.g_in) if interior else (sol.f_out, sol.g_out)
    star_g = hodge_star(metric, g)
    dec = EMDecomposition.of(f, g, lab_frame(sol.chart), metric)
    named = {
        "F": f,
        "G": g,
        "star_G": star_g,
        "dF": exterior_derivative(f),
        "dstar_G": exterior_derivative(star_g),
        **{name: getattr(dec, name) for name in "ebdh"},
    }
    return [((name, idx), comp) for name, a in named.items() for idx, comp in a.components.items()]


@pytest.mark.parametrize("n", [64, fields.BLOCK_EVENTS + 1], ids=["one-block", "block-plus-one"])
@pytest.mark.parametrize("scenario", list(CACHE_SCENARIOS))
def test_solution_components_on_one_shared_batch_equal_each_alone(scenario, n):
    sol, _ = CACHE_SCENARIOS[scenario].solution
    rng = np.random.default_rng(4)
    for region in sol.regions:
        events = solutions.sample_box(region.box, n, rng)
        comps = side_components(sol, region.interior)
        # every component on one batch per block, against each alone on one
        # fresh batch over all the events
        together = blockwise(lambda batch: [f.eval(batch) for _, f in comps], events)
        assert {name for (name, _), _ in comps} >= {"F", "G", "star_G", "dstar_G", "b", "h"}
        for (name, f), values in zip(comps, together):
            alone = f.eval(Batch.of(events))
            assert np.array_equal(int64_bits(values), int64_bits(alone)), (region.name, name)


# -- the regions of a side on one array against each region alone ---------------


@pytest.mark.parametrize("samples", [8, 512, 2100])
@pytest.mark.parametrize("scenario", list(CACHE_SCENARIOS))
def test_pooled_verification_equals_per_region_verification(scenario, samples):
    # at 2100 the shell's two vacuum regions span two blocks together, one each alone
    sol, _ = CACHE_SCENARIOS[scenario].solution
    got = solutions.verify_solution(sol, samples, seed=6)
    want = per_region_verify_solution(sol, samples, seed=6)
    assert _json_text(got.to_json_dict()) == _json_text(want.to_json_dict())


@pytest.mark.parametrize("pinned", ["vacuum_inner", "vacuum_outer"])
def test_pooled_verification_raises_what_the_degenerate_region_raises(pinned):
    # r = 0 in one exterior region only: g_22 = r^2 vanishes at its events
    sol, _ = CACHE_SCENARIOS["cylinder"].solution
    regions = tuple(
        Region(r.name, r.interior, (r.box[0], 0.0, *r.box[2:])) if r.name == pinned else r
        for r in sol.regions
    )
    sol = dataclasses.replace(sol, regions=regions)
    with pytest.raises(DegenerateMetricError) as want:
        per_region_verify_solution(sol, 16, seed=6)
    with pytest.raises(DegenerateMetricError) as got:
        solutions.verify_solution(sol, 16, seed=6)
    assert str(got.value) == str(want.value)
    assert "g_22 vanishes at event (" in str(got.value)
