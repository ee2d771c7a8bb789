"""jsonout.dumps writes exactly the text of json.dumps(obj, indent=2)."""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.jsonout import dumps

_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                   1.7976931348623157e308, math.inf, -math.inf, math.nan]
# Quotes, backslashes, control characters, DEL, non-ASCII and astral characters.
_TRICKY = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ \U0001F600')

_strings = st.text(alphabet=_TRICKY | st.characters(), max_size=12)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(_SPECIAL_FLOATS) | _strings)
_values = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_strings, kids, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_dumps_is_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_dumps_writes_empty_and_nested_containers_as_json_does():
    for value in ([[[]], {}, ()], {"": {"": [{}]}}, (1, (2.5, [None])), 2**70, -(2**70)):
        assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [object(), [{1, 2}], {"a": b"x"}])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as ours:
        dumps(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


class _Level(enum.IntEnum):
    HIGH = 3


@pytest.mark.parametrize("value", [{1: 2}, {None: 0}, _Level.HIGH, [_Level.HIGH]])
def test_dumps_refuses_non_str_keys_and_scalar_subclasses(value):
    # json would convert these; fpcert's reports hold none, so the writer
    # refuses them rather than guess.
    with pytest.raises(TypeError):
        dumps(value)
