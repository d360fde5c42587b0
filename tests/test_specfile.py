"""The spec-file edge on its own: the canonical writer against the stdlib
encoder, and the dense-row parser against its definition."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamecalc.errors import SpecFileError
from tamecalc.linalg import Scalar, scalar_from_json
from tamecalc.specfile import _sparse_from_json, dumps_canonical


def stdlib_canonical(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# strings that need escaping (quotes, backslashes, control characters,
# non-ASCII including an astral character) next to arbitrary text
TEXT = st.text(st.one_of(st.sampled_from('"\\\x00\x08\n\x1f\x7f é€ \U0001d11e'),
                         st.characters()), max_size=8)
LEAVES = st.one_of(
    st.none(), st.booleans(), TEXT, st.sampled_from(["0", "1", "-3/2"]),
    st.integers(), st.integers(min_value=-10**60, max_value=10**60),
    st.floats(allow_nan=True, allow_infinity=True),
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=6),
                               st.lists(children, max_size=6).map(tuple),
                               st.dictionaries(TEXT, children, max_size=6)),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_dumps_canonical_is_the_stdlib_indent_form(value):
    assert dumps_canonical(value) == stdlib_canonical(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [[], {}, ()], "", 0, -1, 10**200, True, None, 1.5,
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 0.1],
    [["0", "0", "1/2"], ["0", {"re": "1", "im": "-1"}, "0", "2"]],
    {"b": [1, "x", None, "y", "z", False], "a": ["\"\\", "\té"]},
])
def test_dumps_canonical_edge_cases(value):
    assert dumps_canonical(value) == stdlib_canonical(value)


@pytest.mark.parametrize("value", [
    {1: "a"}, {None: 0}, {True: 1}, {2.5: "x"}, {"a": [{"b": {3: []}}]},
])
def test_non_str_dict_key_raises_type_error(value):
    with pytest.raises(TypeError):
        dumps_canonical(value)


def test_unserializable_leaf_raises_type_error():
    with pytest.raises(TypeError):
        dumps_canonical({"a": [Scalar(1)]})


def _sparse_reference(obj):
    """Definition: every entry parsed, the zeros dropped."""
    return {j: v for j, v in enumerate(map(scalar_from_json, obj)) if not v.is_zero()}


@pytest.mark.parametrize("row", [
    ["0", "0", "0"],
    ["0", "1/2", "0"],
    ["0/5", {"re": "0", "im": "0"}, 0],
    ["-3", {"re": "1", "im": "-1"}, "0", 2, "4/6"],
    [],
])
def test_sparse_rows_parse_to_their_nonzero_entries(row):
    assert _sparse_from_json(row, len(row), "row") == _sparse_reference(row)


@pytest.mark.parametrize("row, message", [
    (["0", "1"], "row: expected a vector of length 3"),
    ({"0": "1"}, "row: expected a vector of length 3"),
    (["0", "x", "0"], "row: bad scalar ("),
    (["1/0", "0", "0"], "row: bad scalar ("),
    (["0", True, "0"], "row: bad scalar (not a scalar: True)"),
])
def test_bad_sparse_rows_name_the_place(row, message):
    with pytest.raises(SpecFileError) as err:
        _sparse_from_json(row, 3, "row")
    assert str(err.value).startswith(message)
