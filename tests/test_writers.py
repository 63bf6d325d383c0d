"""The report writers against the stdlib formatting they replace.

``cli._json_text`` must give exactly ``json.dumps(v, indent=2,
sort_keys=True)``, and ``cli.write_csv`` exactly the per-cell
``format(float(x), ".17g")`` join.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emforms.cli import _json_text, _write_json, write_csv

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
