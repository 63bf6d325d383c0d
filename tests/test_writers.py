"""The report writers against the stdlib formatting they replace.

``cli._json_text`` must give exactly ``json.dumps(v, indent=2,
sort_keys=True)``, with each float64 array written as its ``tolist()``,
and ``cli.write_csv`` exactly the per-cell ``format(float(x), ".17g")``
join. Both format a whole array or table in one pass; the duplicate-heavy
strategies below keep signed zeros, NaN payloads and infinities that
repeat within one file.
"""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emforms.cli import _atomic_write, _json_text, _write_json, write_csv
from oracles import stdlib_json

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
    with pytest.raises(TypeError):
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
def test_arrays_in_one_payload_share_a_memo(payload):
    assert _json_text(payload) == stdlib_json(payload)


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zeros_stay_apart_under_one_memo(first, second):
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
    with pytest.raises(TypeError):
        write_csv(str(tmp_path / "p.csv"), ["a", "b"], rows)


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
    _atomic_write(str(target), "new \u00e9")
    assert target.read_bytes() == "new \u00e9".encode("utf-8")
    assert os.listdir(tmp_path) == ["ver.json"]


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "ver.json"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        _atomic_write(str(target), "data")
    assert os.listdir(tmp_path) == ["ver.json"]
    assert os.listdir(target) == []
