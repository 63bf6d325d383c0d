"""The interpreter-level fast paths against the algebra they replace.

Constant operands captured in closures, the index tables of ``forms``,
metric constants checked once, the interface grids built as array
expressions and the shared junction matcher's rows must give what the
generic construction gives: bit for bit where the floating-point
operations are the same, to rounding where the matcher's columns are no
longer differences of full assemblies or per-basis forms.
"""

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforms import forms, solutions, sphere
from emforms.cylinder import CylinderScenario, interface_sample_events, match_cylinder_amplitudes
from emforms.fields import ScalarField
from emforms.forms import (
    DegenerateMetricError,
    GradeMismatchError,
    basis_indices,
    evaluate,
    form,
    hodge_star,
    perm_parity,
)
from emforms.media import MaterialParams
from emforms.solutions import MATCH_SAMPLES
from emforms.spacetime import cartesian_chart, cylindrical_chart
from emforms.sphere import SphereScenario, match_sphere_constants, sphere_interface_events
from oracles import (
    dense_partial,
    five_assembly_sphere_rows,
    merge_by_inversions,
    per_basis_cylinder_rows,
    per_event_cylinder_grid,
    per_event_sphere_grid,
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
    ),
    max_leaves=12,
)


def build(tree, binary):
    """The field of ``tree``; ``binary(op, a, b)`` combines two operands."""
    if tree[0] == "x":
        return ScalarField.coordinate(tree[1])
    if tree[0] == "c":
        return ScalarField.constant(tree[1])
    if tree[0] == "neg":
        return -build(tree[1], binary)
    op, a, b = tree
    a = a if isinstance(a, float) else build(a, binary)
    b = b if isinstance(b, float) else build(b, binary)
    return binary(op, a, b)


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
    # on a chart with a coordinate-dependent component, only that one is guarded
    cyl = cylindrical_chart(C)
    evaluate(hodge_star(cyl.metric, form(2, cyl.name, comps)), events)
    assert len(calls) == len(comps)  # one guarded component (g_22) per coefficient walk


def test_constant_metric_component_below_the_floor_fails_when_the_dual_is_built():
    cart = cartesian_chart(1e-16)  # g_tt = -1e-32
    with pytest.raises(DegenerateMetricError, match="g_00"):
        hodge_star(cart.metric, form(1, cart.name, {(1,): 1.0}))


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


@pytest.mark.parametrize("beta", [0.01, 0.0, 1e-300], ids=["rotating", "probe-rate", "slow-rotation"])
def test_per_amplitude_sphere_rows_equal_five_assembly_rows(monkeypatch, beta):
    sc = SphereScenario(a=0.05, omega=beta * C / 0.05, e0=1000.0, mat=MaterialParams(4.0, 2.0))
    rows, rhs = matcher_rows(monkeypatch, lambda: match_sphere_constants(sc, seed=2))
    want_rows, want_rhs = five_assembly_sphere_rows(sc, seed=2)
    assert rows.shape == (MATCH_SAMPLES * 2 * 4, 4)
    assert_rows_close(rows, rhs, want_rows, want_rhs)


@pytest.mark.parametrize("beta", [0.3, 0.0], ids=["rotating", "static"])
def test_shared_cylinder_rows_equal_per_basis_rows(monkeypatch, beta):
    sc = CylinderScenario(
        r1=0.02, r2=0.04, omega=beta * C / 0.04, b0=1.5, mat=MaterialParams(6.0, 2.0)
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
        for radius in (r1, r2):
            # an odd count puts one more event in the random half only
            for n in (2 * half, 2 * half + 1):
                events = interface_sample_events(shell, radius, n, seed=3)
                assert_grid_bits(events, half, per_event_cylinder_grid(shell, radius, half))
        a = float(rng.uniform(1e-3, 10.0))
        ball = SphereScenario(a=a, omega=rng.uniform(0.0, 0.05) * C / a, e0=1.0, mat=MaterialParams(4.0, 1.0))
        events = sphere_interface_events(ball, 2 * half, seed=3)
        assert_grid_bits(events, half, per_event_sphere_grid(ball, half, sphere._POLE_MARGIN))
