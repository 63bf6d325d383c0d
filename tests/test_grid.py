"""A profile's grid evaluated as a grid against its flattened rows.

``by_side`` evaluates each side of a profile on a :class:`Batch` whose
coordinates broadcast to the (r, theta) grid: a node that reads only r
takes one value per radius, a node that reads only theta one per angle.
The reference is the evaluation the grid replaces: the lab-frame fields
decomposed afresh and evaluated at the rows of the flattened grid
(``oracles.flattened_by_side``). Every grid point goes through the same
IEEE operations as its row, so the two must agree bit for bit, and a guard
must name the same event.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emforms import cli, fields
from emforms.cylinder import CylinderScenario, cylinder_bound_sources
from emforms.fields import Batch, blockwise
from emforms.forms import DegenerateMetricError, evaluate
from emforms.media import MaterialParams, decompose
from emforms.solutions import by_side
from emforms.spacetime import LightConeError, lab_frame
from emforms.sphere import SphereScenario
from oracles import flattened_by_side

C = MaterialParams.vacuum().c
SHELL = CylinderScenario(r1=0.02, r2=0.04, omega=0.3 * C / 0.04, b0=1.5, mat=MaterialParams(6.0, 2.0))
SPHERE = SphereScenario(a=0.05, omega=0.01 * C / 0.05, e0=1000.0, mat=MaterialParams(4.0, 2.0))
COMPONENTS = [(attr, (i,)) for attr in "ebdh" for i in (1, 2, 3)]


def grid_of(radii, thetas) -> Batch:
    """The (r, theta) grid of a profile: r along the first axis, theta along
    the second, t and the last coordinate 0."""
    fixed = np.zeros((1, 1))
    return Batch((fixed, radii[:, None], thetas[None, :], fixed), (len(radii), len(thetas)))


def rows_of(radii, thetas) -> np.ndarray:
    """The grid's events as an (N, 4) array, theta fastest."""
    r, th = np.repeat(radii, len(thetas)), np.tile(thetas, len(radii))
    return np.column_stack([np.zeros_like(r), r, th, np.zeros_like(r)])


def inside_of(sc, radii) -> np.ndarray:
    if isinstance(sc, CylinderScenario):
        return (sc.r1 < radii) & (radii < sc.r2)
    return radii < sc.a


# radii spanning both sides, only the outside and only the inside
SPANS = {
    "shell": {"both": (0.01, 0.06), "outside": (0.045, 0.06), "inside": (0.021, 0.039)},
    "sphere": {"both": (0.005, 0.1), "outside": (0.051, 0.1), "inside": (0.005, 0.049)},
}
SCENARIOS = {"shell": SHELL, "sphere": SPHERE}


def assert_grid_equals_rows(name: str, radii, thetas) -> None:
    sc = SCENARIOS[name]
    sol, _ = sc.solution
    inside = inside_of(sc, radii)
    got = by_side(sol, inside, grid_of(radii, thetas), COMPONENTS)
    assert got.shape == (len(COMPONENTS), len(radii), len(thetas))
    want = flattened_by_side(sol, np.repeat(inside, len(thetas)), rows_of(radii, thetas), COMPONENTS)
    assert np.array_equal(got.reshape(len(COMPONENTS), -1).view(np.uint64), want.view(np.uint64))


@given(
    name=st.sampled_from(sorted(SCENARIOS)),
    span=st.sampled_from(["both", "outside", "inside"]),
    n_radii=st.integers(0, 9),
    n_thetas=st.integers(1, 9),
    block=st.sampled_from([1, 2, 3, 5, 8, 4096]),
)
def test_by_side_on_a_grid_equals_its_flattened_rows_bit_for_bit(name, span, n_radii, n_thetas, block):
    # a small block splits the grid into runs of whole radial rows, and a
    # block shorter than one row splits each row along theta
    radii = np.linspace(*SPANS[name][span], n_radii)
    thetas = np.linspace(0.15, math.pi - 0.15, n_thetas)
    with mock.patch.object(fields, "BLOCK_EVENTS", block):
        assert_grid_equals_rows(name, radii, thetas)


@pytest.mark.parametrize(
    "name, span, shape",
    [
        ("sphere", "both", (1, 40)),
        ("sphere", "both", (40, 1)),
        ("shell", "both", (1, 40)),
        ("shell", "both", (40, 1)),
        ("sphere", "outside", (12, 5)),
        ("shell", "inside", (12, 5)),
        ("sphere", "both", (130, 64)),  # the outside side alone spans two blocks
        ("shell", "outside", (1, fields.BLOCK_EVENTS + 3)),  # one row longer than a block
    ],
    ids=["sphere-1xN", "sphere-Nx1", "shell-1xN", "shell-Nx1", "sphere-no-inside", "shell-no-outside",
         "sphere-two-blocks", "shell-row-past-a-block"],
)
def test_by_side_on_chosen_grids_equals_its_flattened_rows(name, span, shape):
    radii = np.linspace(*SPANS[name][span], shape[0])
    thetas = np.linspace(0.15, math.pi - 0.15, shape[1])
    assert_grid_equals_rows(name, radii, thetas)


def interior_d(sol):
    """The lab-frame d inside a shell, which raises past its light cylinder."""
    return decompose(sol.g_in, lab_frame(sol.chart), sol.chart.metric, "excitation")[0]


def raised_or_bits(fn):
    """The type and message of what ``fn()`` raises, or the bits of each
    component it returns."""
    try:
        values = fn()
    except (DegenerateMetricError, LightConeError) as exc:
        return type(exc), str(exc)
    return {idx: v.reshape(-1).view(np.uint64).tolist() for idx, v in values.items()}


@given(
    radii=st.lists(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.2]), min_size=1, max_size=6),
    thetas=st.lists(st.sampled_from([0.0, 0.4, 1.2, math.pi]), min_size=1, max_size=6),
    block=st.sampled_from([1, 4, 4096]),
)
def test_a_guard_on_a_grid_names_the_event_its_flattened_rows_name(radii, thetas, block):
    # the sphere's metric degenerates where r = 0 (g_22 and g_33) and where
    # sin(theta) is 0 or tiny (g_33); the shell's interior excitation raises
    # past its light cylinder, r = 0.133 m, and its metric at r = 0. Each
    # form reaches one guard, so blocks of whole rows and blocks of rows of
    # the flattened grid, which end at different events, name the same one
    radii, thetas = np.array(radii), np.array(thetas)
    sphere, _ = SPHERE.solution
    shell, _ = SHELL.solution
    cases = [(sphere.star_g[1], "volume"), (interior_d(shell), "light cone"), (shell.star_g[1], "volume")]
    with mock.patch.object(fields, "BLOCK_EVENTS", block):
        for a, _ in cases:
            got = raised_or_bits(lambda: evaluate(a, grid_of(radii, thetas)))
            want = raised_or_bits(lambda: evaluate(a, rows_of(radii, thetas)))
            assert got == want


def test_the_guards_are_reached_on_grids():
    # the property above is not vacuous: each guard raises on some grid
    sphere, _ = SPHERE.solution
    shell, _ = SHELL.solution
    thetas = np.array([0.4, 0.0, 1.2])
    with pytest.raises(DegenerateMetricError, match=r"at event \(0\.0, 0\.03, 0\.0, 0\.0\)"):
        evaluate(sphere.star_g[1], grid_of(np.array([0.03, 0.1]), thetas))
    with pytest.raises(LightConeError, match=r"at event \(0\.0, 0\.2, 0\.4, 0\.0\)"):
        evaluate(interior_d(shell), grid_of(np.array([0.03, 0.2, 0.3]), thetas))


def test_a_node_that_reads_only_r_is_evaluated_once_per_radius(monkeypatch):
    sol, _ = SPHERE.solution
    made = []
    sub = Batch.sub
    monkeypatch.setattr(Batch, "sub", lambda batch, *index: made.append(sub(batch, *index)) or made[-1])
    radii, thetas = np.linspace(0.005, 0.1, 24), np.linspace(0.15, math.pi - 0.15, 16)
    inside = radii < SPHERE.a
    by_side(sol, inside, grid_of(radii, thetas), [("e", (1,)), ("b", (2,))])
    g_22, g_33 = sol.chart.metric.diag[2], sol.chart.metric.diag[3]
    assert g_22.deps == 0b0010 and g_33.deps == 0b0110
    assert [batch.shape for batch in made] == [(inside.sum(), 16), ((~inside).sum(), 16)]
    for batch in made:
        kept = len(batch.cache)
        # read from the cache that by_side filled: r^2 on one value per
        # radius, r^2 sin^2(theta) on every point of the side's grid
        assert np.shape(g_22.fn(batch)) == (batch.shape[0], 1)
        assert np.shape(g_33.fn(batch)) == batch.shape
        assert len(batch.cache) == kept
        assert {np.size(v) for v in batch.cache.values()} == {16, batch.shape[0], math.prod(batch.shape)}


def test_a_batch_over_one_block_is_the_callers_and_a_larger_one_is_split(monkeypatch):
    grid = grid_of(np.arange(1.0, 6.0), np.arange(1.0, 4.0))
    seen = []

    def fn(batch):
        seen.append(batch)
        return {"r": np.broadcast_to(batch[1], batch.shape) + 0.0}

    assert blockwise(fn, grid)["r"].shape == (5, 3) and seen == [grid]
    monkeypatch.setattr(fields, "BLOCK_EVENTS", 2)
    seen.clear()
    out = blockwise(fn, grid)["r"]
    # five rows of three points: each row longer than a block, split along theta
    assert [batch.shape for batch in seen] == [(1, 2), (1, 1)] * 5
    assert out.tolist() == [[r] * 3 for r in range(1, 6)]


def test_shell_profile_sources_equal_each_form_on_the_medium_rows():
    sol, _ = SHELL.solution
    header, values, (radii,) = SHELL.profile(sol, 200)
    current, rho, p, m = cylinder_bound_sources(SHELL)
    inside = (SHELL.r1 < radii) & (radii < SHELL.r2)
    medium = rows_of(radii[inside], np.zeros(1))
    want = [
        p.component((1,)).eval(medium),
        m.component((3,)).eval(medium),
        rho.component((1, 2, 3)).eval(medium) / radii[inside],
        -current.component((1, 3)).eval(medium),
    ]
    got = values[:, header.index("p_r") - 1 :]
    assert np.array_equal(got[inside].T.view(np.uint64), np.array(want).view(np.uint64))
    assert not got[~inside].any()


def test_write_csv_hands_its_blocks_to_the_file_unjoined(tmp_path, monkeypatch):
    written = []
    write = cli._atomic_write
    monkeypatch.setattr(cli, "_atomic_write", lambda path, *chunks: written.append(chunks) or write(path, *chunks))
    values = np.linspace(-1.0, 1.0, 3 * cli.G17_BLOCK_VALUES).reshape(-1, 2)
    path = tmp_path / "p.csv"
    cli.write_csv(str(path), ["x", "y", "z"], values, (np.arange(len(values), dtype=float),))
    (chunks,) = written
    # the header, then one chunk per block of the kernel
    assert len(chunks) == 1 + 3
    assert path.read_bytes() == b"".join(chunks)
