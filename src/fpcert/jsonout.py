"""``json.dumps(obj, indent=2)``, byte for byte, at a lower cost.

CPython's C encoder does not indent, so ``json.dumps`` with ``indent`` runs
the pure-Python encoder.  ``dumps`` writes the same text for dicts with str
keys, lists, tuples, str, int, float, bool and None; dict, list and tuple
subclasses are written like their base, as in ``json.dumps``, and a scalar
subclass (an ``IntEnum``) raises TypeError.  ``Raw`` text is written as it
stands, such as a certificate's ``evidence``, most of its report, written
from the records.  A call writes each nonzero float's repr once, scalars in
their container's loop, and a list of exact floats with one join.
"""

from json.encoder import encode_basestring_ascii as _string

_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


class _Floats(dict):
    """float -> its text, for one call (0.0 == -0.0, so zeros are not kept)."""

    def __missing__(self, x):
        r = float.__repr__(x)
        text = _NONFINITE.get(r, r)
        if x:
            self[x] = text
        return text


class Raw(str):
    """Text that dumps writes as it stands."""


_LINES = ["\n" + "  " * depth for depth in range(32)]  # a line break and its indent
_SCALARS = {str: _string, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null", Raw: str.__str__}


def dumps(obj) -> str:
    """The text of json.dumps(obj, indent=2)."""
    floats = _Floats()
    scalars = {**_SCALARS, float: floats.__getitem__}

    def write(obj, depth):  # a container whose first line is at depth
        nl = _LINES[depth] if depth < len(_LINES) else "\n" + "  " * depth
        inner = nl + "  "
        if isinstance(obj, dict):
            items = [f"{_string(k)}: " + (write(v, depth + 1) if scalar is None else scalar(v))
                     for k, v in obj.items() for scalar in (scalars.get(type(v)),)]
            brackets = "{}"
        elif isinstance(obj, (list, tuple)):
            items = map(floats.__getitem__, obj) if set(map(type, obj)) == {float} else [
                write(v, depth + 1) if scalar is None else scalar(v)
                for v in obj for scalar in (scalars.get(type(v)),)]
            brackets = "[]"
        else:
            raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
        if not obj:
            return brackets
        return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]

    scalar = scalars.get(type(obj))
    return write(obj, 0) if scalar is None else scalar(obj)


def evidence(entries) -> Raw:
    """A certificate's evidence list (certify.EvidenceEntry records) as
    dumps writes it at depth 1, each entry a dict of its fields in order
    (its box as its bounds, its bound as a list), without the dicts."""
    floats = _Floats()
    l1, l2, l3, l4, l5 = _LINES[1:6]

    def num(x):
        return floats[x] if type(x) is float else dumps(x)

    rows = [f'{{{l3}"face": {_string(e.face)},{l3}"box": [{l4}'
            + ("," + l4).join([f"[{l5}{num(c.lo)},{l5}{num(c.hi)}{l4}]" for c in e.box.coords])
            + f'{l3}],{l3}"bound": '
            + ("null" if e.bound is None else f"[{l4}{num(e.bound[0])},{l4}{num(e.bound[1])}{l3}]")
            + f',{l3}"relation": {_string(e.relation)},{l3}"threshold": {num(e.threshold)}{l2}}}'
            for e in entries]
    return Raw("[" + l2 + ("," + l2).join(rows) + l1 + "]" if rows else "[]")
