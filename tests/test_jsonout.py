"""jsonout.dumps writes exactly the text of json.dumps(obj, indent=2), and
jsonout.evidence the text dumps writes for the evidence entries' dicts."""

import collections
import enum
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcert.certify import EvidenceEntry, certify_problem
from fpcert.interval import Box
from fpcert.jsonout import Raw, dumps, evidence

from corpus import (random_cone_problem, random_cylinder_problem, random_holed_ball_problem,
                    random_rect_problem)

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


class _Row(list):
    pass


class _Pair(tuple):
    pass


class _Real(float):
    pass


def test_container_subclasses_are_written_like_their_base():
    value = collections.OrderedDict([("b", _Row([1.5, _Pair((2.5, None))])), ("a", _Pair())])
    assert dumps(value) == json.dumps(value, indent=2)
    assert dumps(_Row([0.5, -0.0])) == json.dumps([0.5, -0.0], indent=2)


@pytest.mark.parametrize("value", [{"a": _Level.HIGH}, (1.0, _Level.HIGH), [_Real(1.0)],
                                   [1.0, _Real(2.0)], _Real(0.5)])
def test_scalar_subclasses_are_refused_inside_containers_too(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_only_lists_of_exact_floats_take_one_join():
    for value in ([True, 1.0], [1, 2.0], [1.0, None], [1.0, "1.0"], [0.0, -0.0, 0.0],
                  [math.inf, -math.inf, math.nan, 1.0], (2.0, 2.0, 3.0)):
        assert dumps(value) == json.dumps(value, indent=2)
    assert dumps([True, 1.0]).split() == ["[", "true,", "1.0", "]"]


@pytest.mark.parametrize("depth", [31, 32, 33, 60, 150])
def test_nesting_past_the_indent_table_is_written_as_json_does(depth):
    value = 1.5
    for level in range(depth):
        value = [value, -0.0] if level % 2 else {"k": value, "z": [2.5]}
    assert dumps(value) == json.dumps(value, indent=2)


def test_raw_text_is_written_as_it_stands():
    assert dumps({"a": Raw("[1,2]"), "b": [Raw("x")]}) == '{\n  "a": [1,2],\n  "b": [\n    x\n  ]\n}'


def _entry_dict(e):
    return {"face": e.face, "box": e.box.bounds(),
            "bound": None if e.bound is None else list(e.bound),
            "relation": e.relation, "threshold": e.threshold}


def test_evidence_is_what_dumps_writes_for_the_entry_dicts():
    rng = random.Random(39)
    certificates = []
    for _ in range(25):
        for make in (random_rect_problem, random_cylinder_problem, random_cone_problem):
            m, domain, *_rest = make(rng)
            certificates.append(certify_problem(m, domain, max_depth=8))
        m, domain = random_holed_ball_problem(rng, 2)
        certificates.append(certify_problem(m, domain, max_depth=8))
    odd = [EvidenceEntry("x1-", Box.from_bounds([(-0.0, 0.0), (1.0, 2.0)]), None, "in", 0),
           EvidenceEntry("base", Box.from_bounds([(0.1, 0.1)]), (-math.inf, math.nan), "<=",
                         -0.0),
           EvidenceEntry("hole 0", Box.from_bounds([(3.0, 3.5)]), (1, 2.0), "unresolved", True)]
    entries = [cert.evidence for cert in certificates] + [odd, odd[:1], []]
    assert sum(map(len, entries)) > 200
    for es in entries:
        want = dumps({"evidence": [_entry_dict(e) for e in es]})
        assert dumps({"evidence": evidence(es)}) == want
        assert want == json.dumps({"evidence": [_entry_dict(e) for e in es]}, indent=2)
