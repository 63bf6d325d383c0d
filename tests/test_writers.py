"""The report writers against the stdlib formatting they replace.

``cli._json_text`` must give exactly ``json.dumps(v, indent=2,
sort_keys=True)``, with each float64 array written as its ``tolist()``,
and ``cli.write_csv`` exactly the per-cell ``format(float(x), ".17g")``
join of the full table, also when it is given as a grid whose axis values
it formats once (``oracles.profile_table`` builds the full table). Both
format a whole array or table in one pass; the duplicate-heavy strategies
below keep signed zeros, NaN payloads and infinities that repeat within
one file. ``g17.format_g17``, which formats the tables of at least
``cli.G17_MIN_VALUES`` values, must give ``'%.17g' % x`` for every bit
pattern, and take its integer fast path for nearly every normal value.
"""

import json
import math
import os
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforms import cli, g17
from emforms.cli import _atomic_write, _json_text, _write_json, run, write_csv
from oracles import profile_table, stdlib_json
from test_cli import BOTH_SCENARIOS

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7]

floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)
float_lists = st.lists(floats, max_size=8)
rows = st.lists(float_lists | st.tuples(floats, floats, floats, floats), max_size=6)
leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | floats
    | st.text(max_size=6)  # non-ASCII and control characters included
)
json_values = st.recursive(
    leaves | float_lists | rows,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=150)
@given(json_values)
def test_json_text_equals_json_dumps(value):
    assert _json_text(value) == stdlib(value)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [[], [1.0], []],
        [(0.5, -0.0, 5e-324, math.nan)],
        [[1.0], 2.0],  # a row, then a float
        [1.0, [2.0]],  # a float, then a row
        [[1.0, "x"]],
        [[1.0], [2]],  # an int in a row
        [1.0, True],  # bool is no float
        [[[1.0, math.inf]], [[-math.inf]]],
        [np.float64(0.1), np.float64(math.nan)],
        {"é": " \x00\"\\", "b": [None, False, 10**30]},
    ],
)
def test_json_text_edge_cases(value):
    assert _json_text(value) == stdlib(value)


class Text(str):
    """A str subclass, which a dict value of exact type str does not match."""


@pytest.mark.parametrize(
    "value",
    [
        np.float64(0.1),  # a float subclass: written through the recursive path
        np.float64(-0.0),
        np.float64(math.nan),
        Text("é\x00\""),
        True,
        False,
        math.nan,
        math.inf,
        -math.inf,
        -0.0,
        "é\x00\"\\",
    ],
    ids=repr,
)
def test_json_text_of_a_dict_leaf_equals_json_dumps(value):
    payload = {"b": value, "a": [value], "c": {"d": value}}
    assert _json_text(payload) == stdlib(payload)


@pytest.mark.parametrize("value", [{1: 0.0}, {None: 1}, {1.5: 1}, {"a": [{(1, 2): 1}]}])
def test_json_text_rejects_non_str_keys(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, [np.int64(3)], [[1.0], [np.bool_(True)]]])
def test_json_text_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        _json_text(value)


def test_write_json_file_is_json_dumps_and_a_newline(tmp_path):
    payload = {"samples": [(0.0, 0.02, 1.5, -0.0)], "r": {"f": [1e-300, math.nan]}, "ok": True}
    path = tmp_path / "out.json"
    _write_json(str(path), payload)
    assert path.read_bytes() == (stdlib(payload) + "\n").encode("ascii")


def csv_reference(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format(float(x), ".17g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"


csv_cells = (
    floats
    | st.integers(min_value=-(2**60), max_value=2**60)
    | st.floats(min_value=-1e-307, max_value=1e-307)  # subnormals
    | st.floats(allow_nan=True, allow_infinity=True).map(np.float64)
)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda width: st.lists(st.lists(csv_cells, min_size=width, max_size=width), max_size=6).map(
        lambda rows: ([f"c{k}" for k in range(width)], rows)
    )
))
def test_write_csv_equals_per_cell_format(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    write_csv(str(path), header, rows)
    assert path.read_text(encoding="utf-8") == csv_reference(header, rows)


@pytest.mark.parametrize("row", [[1.0], [1.0, 2.0, 3.0]])
def test_write_csv_rejects_a_row_of_the_wrong_width(tmp_path, row):
    with pytest.raises(TypeError, match="rows must have"):
        write_csv(str(tmp_path / "p.csv"), ["a", "b"], [[0.0, 1.0], row])


# -- float64 arrays, duplicate-heavy ------------------------------------------


def nan_with_payload(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


POOL = [
    0.0,
    -0.0,
    math.nan,
    nan_with_payload(0x7FF8000000000001),
    nan_with_payload(0xFFF8000000000000),  # sign bit set
    math.inf,
    -math.inf,
    5e-324,
    0.02,
]
pool_floats = st.sampled_from(POOL)
array_floats = floats | pool_floats
vectors = arrays(np.float64, st.integers(0, 12), elements=array_floats)
duplicate_vectors = arrays(np.float64, st.integers(0, 12), elements=pool_floats)
events = arrays(np.float64, st.tuples(st.integers(0, 6), st.just(4)), elements=array_floats)
duplicate_events = arrays(np.float64, st.tuples(st.integers(0, 6), st.just(4)), elements=pool_floats)
float_arrays = vectors | duplicate_vectors | events | duplicate_events


@settings(max_examples=150)
@given(float_arrays)
def test_json_text_of_an_array_equals_json_dumps_of_its_list(arr):
    assert _json_text(arr) == stdlib(arr.tolist())


@settings(max_examples=100)
@given(st.dictionaries(st.text(max_size=3), float_arrays | float_lists | floats, max_size=5))
def test_json_text_of_a_payload_of_arrays_lists_and_floats_equals_stdlib_json(payload):
    assert _json_text(payload) == stdlib_json(payload)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_json_text_keeps_signed_zeros_apart_across_arrays(first, second):
    payload = {"a": np.array([first]), "b": np.array([[second, first, 0.5, second]])}
    assert _json_text(payload) == stdlib_json(payload)


def test_nan_payloads_and_infinities_share_the_json_tokens():
    arr = np.array([POOL[2], POOL[3], POOL[4], math.inf, -math.inf, POOL[3]])
    assert _json_text(arr) == stdlib(arr.tolist())
    assert "NaN" in _json_text(arr) and "nan" not in _json_text(arr)


@pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0), (2, 3, 2)])
def test_json_text_of_empty_and_higher_rank_arrays(shape):
    arr = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) - 1.5
    assert _json_text(arr) == stdlib(arr.tolist())


@pytest.mark.parametrize("arr", [np.arange(3), np.zeros(2, dtype=np.float32), np.array(1.0)])
def test_json_text_rejects_other_arrays(arr):
    with pytest.raises(TypeError):
        _json_text({"a": arr})


@settings(max_examples=150)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda width: arrays(
            np.float64, st.tuples(st.integers(0, 8), st.just(width)), elements=array_floats
        )
    )
)
def test_write_csv_of_an_array_equals_per_cell_format(tmp_path_factory, table):
    header = [f"c{k}" for k in range(table.shape[1])]
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    write_csv(str(path), header, table)
    assert path.read_text(encoding="utf-8") == csv_reference(header, table.tolist())


def test_write_csv_keeps_signed_zeros_apart(tmp_path):
    table = np.array([[0.0, -0.0], [-0.0, 0.0], [POOL[3], math.nan]])
    path = tmp_path / "p.csv"
    write_csv(str(path), ["a", "b"], table)
    assert path.read_text(encoding="utf-8") == "a,b\n0,-0\n-0,0\nnan,nan\n"


@pytest.mark.parametrize(
    "rows",
    [[[0.0, 1.0], [1.0]], [[0.0], [1.0, 2.0]], np.zeros((2, 3)), np.zeros(4)],
    ids=["short-row", "long-row", "wide-array", "flat-array"],
)
def test_write_csv_rejects_a_ragged_or_wrong_width_table(tmp_path, rows):
    with pytest.raises(TypeError, match="rows must have"):
        write_csv(str(tmp_path / "p.csv"), ["a", "b"], rows)


# -- profile grids: axis values formatted once ----------------------------------


@settings(max_examples=150)
@given(st.data())
def test_write_csv_of_a_grid_equals_per_cell_format_of_its_full_table(tmp_path_factory, data):
    n_axes = data.draw(st.integers(0, 2), label="n_axes")
    axes = tuple(
        data.draw(arrays(np.float64, st.integers(0, 5), elements=array_floats), label=f"axis{k}")
        for k in range(n_axes)
    )
    rows = math.prod([len(axis) for axis in axes]) if axes else data.draw(st.integers(0, 5), label="rows")
    width = data.draw(st.integers(1, 4), label="width")
    values = data.draw(arrays(np.float64, (rows, width), elements=array_floats), label="values")
    header = [f"c{k}" for k in range(n_axes + width)]
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    write_csv(str(path), header, values, axes)
    assert path.read_text(encoding="utf-8") == csv_reference(header, profile_table(values, axes).tolist())


def test_write_csv_of_a_grid_keeps_special_axis_values_apart(tmp_path):
    axes = (np.array([-0.0, POOL[4], 5e-324]), np.array([0.0, -math.inf]))
    values = np.array([[POOL[3]], [-0.0], [math.inf], [0.0], [-5e-324], [1e16]])
    path = tmp_path / "p.csv"
    write_csv(str(path), ["r", "t", "v"], values, axes)
    assert path.read_text(encoding="utf-8") == (
        "r,t,v\n-0,0,nan\n-0,-inf,-0\nnan,0,inf\nnan,-inf,0\n"
        "4.9406564584124654e-324,0,-4.9406564584124654e-324\n4.9406564584124654e-324,-inf,10000000000000000\n"
    )


@pytest.mark.parametrize(
    "values, axes",
    [
        (np.zeros((5, 1)), (np.zeros(2), np.zeros(3))),  # fewer rows than grid points
        (np.zeros((7, 1)), (np.zeros(2), np.zeros(3))),  # more
        (np.zeros((6, 2)), (np.zeros(2), np.zeros(3))),  # too wide for the header
        (np.zeros((1, 1)), (np.zeros(0),)),  # a row for an empty grid
    ],
    ids=["short", "long", "wide", "empty-grid"],
)
def test_write_csv_rejects_values_that_do_not_fit_the_grid(tmp_path, values, axes):
    with pytest.raises(TypeError, match="rows must have|one row per grid point"):
        write_csv(str(tmp_path / "p.csv"), ["r", "t", "v"], values, axes)
    assert not (tmp_path / "p.csv").exists()


@BOTH_SCENARIOS
def test_profile_csv_is_the_per_cell_text_of_the_full_table(tmp_path, monkeypatch, make_config):
    grids = []
    real = cli.write_csv

    def capture(path, header, values, axes=()):
        grids.append((header, values, axes))
        real(path, header, values, axes)

    monkeypatch.setattr(cli, "write_csv", capture)
    path, cfg = make_config(tmp_path)
    out = tmp_path / "out"
    assert run(path, samples=8, out_dir=str(out)) == 0
    ((header, values, axes),) = grids
    sampling = cfg["sampling"]
    grid = [sampling["radial_points"]] + ([sampling["angular_points"]] if cfg["scenario"] == "sphere" else [])
    assert [len(axis) for axis in axes] == grid
    assert values.shape == (math.prod(grid), len(header) - len(axes))
    assert (out / "profile.csv").read_text(encoding="utf-8") == csv_reference(
        header, profile_table(values, axes).tolist()
    )


# -- the %.17g kernel and the tables above its crossover ---------------------------


def assert_g17_is_percent_17g(values: np.ndarray) -> None:
    """Each of the kernel's rows for ``values``, less its 0 bytes, is
    ``'%.17g' % x``; the first few values that differ are reported."""
    rows = g17.format_g17(values)
    assert rows.shape == (len(values), g17.WIDTH) and not rows[:, -1].any()
    rows[:, -1] = ord("\n")
    got = rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    differ = [(x, text, "%.17g" % x) for x, text in zip(values.tolist(), got) if text != "%.17g" % x]
    assert len(got) == len(values) and not differ, differ[:5]


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_g17_equals_percent_17g_on_a_million_random_bit_patterns():
    rng = np.random.default_rng(20_261_019)
    for _ in range(20):  # in parts, so that the test process stays small
        assert_g17_is_percent_17g(from_bits(rng.integers(0, 2**64, 50_000, dtype=np.uint64)))


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_g17_equals_percent_17g_on_any_bit_pattern(bits):
    assert_g17_is_percent_17g(from_bits(bits))


def ulps_around(values, ulps: int) -> np.ndarray:
    """``values`` and their neighbours up to ``ulps`` steps either side."""
    out, up, down = [values], values, values
    with np.errstate(over="ignore"):  # the largest double steps to inf
        for _ in range(ulps):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
            out += [up, down]
    return np.concatenate(out)


def exact_ties() -> np.ndarray:
    """Dyadic fractions whose exact decimal has 18 significant digits,
    the last a 5: halfway between two 17-digit texts."""
    from decimal import Decimal

    ties = []
    for exponent in range(1, 80):
        for odd in range(1, 400, 2):
            x = math.ldexp(odd, -exponent)
            digits = Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    assert len(ties) > 100
    return np.array(ties)


def near_integer_ties() -> np.ndarray:
    """Integers of 18 to 20 digits (from about 2**57), where rounding
    sees only the digits beyond the 17th: random multiples of the spacing
    of doubles, and the doubles nearest to 17 digits followed by a 5."""
    rng = np.random.default_rng(57)
    spaced = [float(2**57 + 2**5 * int(k)) for k in rng.integers(0, 2**40, 500)]
    spaced += [float(int(k) << 11) for k in rng.integers(2**53, 2**53 + 2**30, 500)]
    halves = [float(int(d) * 10**j + 5 * 10 ** (j - 1)) for d in rng.integers(10**16, 10**17, 300) for j in (1, 2, 3)]
    return np.array(spaced + halves)


TARGETED = {
    "powers-of-ten": ulps_around(np.array([float(f"1e{k}") for k in range(-310, 309)]), 3),
    "exact-ties": ulps_around(exact_ties(), 1),
    "near-integer-ties": near_integer_ties(),
    "layout-boundaries": ulps_around(np.array([1e-5, 1e-4, 0.1, 1.0, 1e15, 1e16, 1e17, 1e100, 1e-100]), 3),
    "extremes": np.concatenate(
        [
            ulps_around(np.array([sys.float_info.max, sys.float_info.min, 5e-324, 1e-310]), 2),
            np.array([0.0, math.inf, math.nan]),
            from_bits([0x7FF0000000000001, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF]),
        ]
    ),
}


@pytest.mark.parametrize("name", sorted(TARGETED))
def test_g17_equals_percent_17g_on_targeted_values(name):
    # the sign bit, also of 0, inf and NaN payloads
    assert_g17_is_percent_17g(np.concatenate([TARGETED[name], -TARGETED[name]]))


@pytest.mark.parametrize("offset", [-1e-12, 1e-12])
def test_g17_stays_exact_when_log10_misses_the_decimal_exponent(monkeypatch, offset):
    """``log10`` may round across an integer near a power of ten, either
    way; the digits then fall outside [10**16, 10**17) or carry to 10**17,
    and the value falls back or moves to the next exponent."""
    real = np.log10
    monkeypatch.setattr(np, "log10", lambda a: real(a) + offset)
    assert_g17_is_percent_17g(TARGETED["powers-of-ten"])


def test_g17_fast_path_takes_nearly_every_normal_value():
    """A kernel that sent every value to the ``%`` fallback would pass the
    byte tests above while being slow."""
    bits = np.random.default_rng(99).integers(0, 2**64, 200_000, dtype=np.uint64)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    values = from_bits(bits[(exponent != 0) & (exponent != 0x7FF)])
    digits, X, ok = g17._digits(values)
    assert ok.mean() >= 0.99


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_write_csv_above_the_crossover_equals_per_cell_format_of_its_full_table(tmp_path_factory, data):
    """Tables from just below ``G17_MIN_VALUES`` values to past one block
    boundary of the kernel, built from a small drawn pool of cells."""
    pool = data.draw(st.lists(csv_cells, min_size=1, max_size=12), label="pool")
    n_axes = data.draw(st.integers(0, 2), label="n_axes")
    width = data.draw(st.integers(1, 4), label="width")
    size = data.draw(st.integers(cli.G17_MIN_VALUES - 8, cli.G17_BLOCK_VALUES + 600), label="values")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lengths = [max(1, -(-size // width))]
    if n_axes == 2:
        inner = data.draw(st.integers(1, 9), label="inner")
        lengths = [-(-lengths[0] // inner), inner]
    rows = math.prod(lengths)
    values = [[pool[k] for k in rng.integers(0, len(pool), width)] for _ in range(rows)]
    axes = tuple(np.array([float(pool[k]) for k in rng.integers(0, len(pool), n)]) for n in lengths[:n_axes])
    header = [f"c{k}" for k in range(len(axes) + width)]
    path = tmp_path_factory.mktemp("csv") / "profile.csv"
    write_csv(str(path), header, values, axes)
    expected = csv_reference(header, profile_table(np.array(values, dtype=np.float64), axes).tolist())
    assert path.read_text(encoding="utf-8") == expected


# -- the file a writer leaves ------------------------------------------------------


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_report_mode_is_0o666_less_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        _write_json(str(tmp_path / "ver.json"), {"a": [1.0]})
        write_csv(str(tmp_path / "profile.csv"), ["x"], [[1.0]])
    finally:
        os.umask(previous)
    for name in ("ver.json", "profile.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_replaces_an_existing_target(tmp_path):
    target = tmp_path / "ver.json"
    target.write_text("old contents that are longer than the new ones")
    _atomic_write(str(target), "new \u00e9".encode("utf-8"))
    assert target.read_bytes() == "new \u00e9".encode("utf-8")
    assert os.listdir(tmp_path) == ["ver.json"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "ver.json"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        _atomic_write(str(target), b"data")
    assert os.listdir(tmp_path) == ["ver.json"]
    assert os.listdir(target) == []
