"""The interpreter-level fast paths against the algebra they replace.

Constant operands captured in closures, the index tables of ``forms``,
metric constants checked once, the interface grids built as array
expressions, the shared junction matcher's rows from one dual-seeded
assembly, the values cached on a shared batch and the regions of a side
verified on one array must give what the generic construction gives: bit
for bit where the floating-point operations are the same, to rounding
where the matcher's columns are no longer differences of full assemblies
or per-basis forms.
"""

import dataclasses
import itertools
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforms import cylinder, fields, forms, solutions, sphere
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
from emforms.spacetime import cartesian_chart, cylindrical_chart, lab_frame
from emforms.sphere import SphereScenario, match_sphere_constants
from oracles import (
    dense_partial,
    five_assembly_sphere_rows,
    merge_by_inversions,
    per_basis_cylinder_rows,
    per_event_cylinder_grid,
    per_event_sphere_grid,
    per_piece_match_rows,
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


# -- the one dual-seeded assembly against one assembly per piece -----------------

match_rates = st.sampled_from([0.0, 1e-300, 0.3]) | st.floats(0.0, 0.9)
match_materials = st.tuples(st.floats(1.0, 50.0), st.floats(0.05, 20.0))


def matcher_call(mp, module, match):
    """The arguments of the one ``match_junctions`` call that ``match()``
    makes through ``module``, the rows and right-hand side it hands to
    ``solve_matching_system``, and the amplitudes it returns."""
    calls = []

    def spy(*args):
        amplitudes = solutions.match_junctions(*args)
        calls.append((args, amplitudes))
        return amplitudes

    mp.setattr(module, "match_junctions", spy)
    rows, rhs = matcher_rows(mp, match)
    ((args, amplitudes),) = calls
    return args, rows, rhs, amplitudes


def assert_one_assembly_equals_per_piece(module, match):
    with pytest.MonkeyPatch.context() as mp:
        (build, units, interfaces, seed, metric, what), rows, rhs, amplitudes = matcher_call(mp, module, match)
    junctions = [(iface, iface.events(MATCH_SAMPLES, seed)) for iface in interfaces]
    want_rows, want_rhs = per_piece_match_rows(build, units, junctions, metric)
    # ==, under which zeros of either sign are equal; the constants are compared bit for bit
    assert rows.shape == want_rows.shape and np.array_equal(rows, want_rows)
    assert rhs.shape == want_rhs.shape and np.array_equal(rhs, want_rhs)
    want = solutions.solve_matching_system(want_rows, want_rhs, what) * [max(u, 1e-300) for u in units]
    assert bits(amplitudes) == bits(want)


@settings(max_examples=30)
@given(material=match_materials, beta=match_rates)
def test_one_assembly_shell_matcher_equals_one_assembly_per_piece(material, beta):
    sc = CylinderScenario(r1=0.02, r2=0.04, omega=beta * C / 0.04, b0=1.5, mat=MaterialParams(*material))
    assert_one_assembly_equals_per_piece(cylinder, lambda: match_cylinder_amplitudes(sc, seed=3))


@settings(max_examples=30)
@given(material=match_materials, beta=match_rates)
def test_one_assembly_sphere_matcher_equals_one_assembly_per_piece(material, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # rim speeds above 0.1 c
        sc = SphereScenario(a=0.05, omega=beta * C / 0.05, e0=1000.0, mat=MaterialParams(*material))
    assert_one_assembly_equals_per_piece(sphere, lambda: match_sphere_constants(sc, seed=2))


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
