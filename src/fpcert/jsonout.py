"""``json.dumps(obj, indent=2)``, byte for byte, at a lower cost.

CPython's C encoder does not indent, so ``json.dumps`` with ``indent`` runs
the pure-Python encoder.  ``dumps`` writes the same text for what fpcert's
reports hold: dicts with str keys, lists, tuples, str, int, float, bool and
None (these exact types: a subclass of one of them raises TypeError).
"""

from json.encoder import encode_basestring_ascii as _string

_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _float(x: float) -> str:
    r = float.__repr__(x)
    return _NONFINITE.get(r, r)


_SCALARS = {str: _string, float: _float, int: int.__repr__,
            bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


def dumps(obj, nl: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2).  Lines after the first start
    with nl: a line break and the indentation of obj's own line."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [f"{_string(k)}: {dumps(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
