"""Certificate domains and the explicit constructions attached to them.

Rectangles carry their faces, cylinders a height interval over a box base,
cone shells live in the nonnegative orthant between two level sets of a
functional (the coordinate sum, the sup norm or the euclidean norm), and
holed balls are planar disks minus disjoint holes.  No map is built here:
the height flip of the cylinder duality is `mapdsl.flip_coordinates`.

The enclosures the certifiers take over boxes, the squared distance to a
point (`dist2_pair`) and a shell functional (`Functional.value_pair`), work
on ``(lo, hi)`` endpoint pairs with the pair kernels of ``interval``, so a
caller can pass a box's coordinates or a map's component pairs
(``MapSpec.eval_pairs``) without building an ``Interval`` per step.  Each
step checks its pair as ``Interval(lo, hi)`` would, so results and errors
equal those of the ``Interval``-operator formulas bit for bit.

The region tests of the curved domains (`Functional.level_tests`,
`HoledBallSpec.circles`) sit next to the enclosures they filter, as
closures over floats computed once per certificate.  A relevance test first
decides in round-to-nearest floats that lie inside the directed enclosure's
ends (Shewchuk 1997), below _GUARD; anywhere else the directed test
decides, so every decision and every error is that of the directed test.

Axis indices are 0-based throughout; the DSL surface (x1, g1, ...) is
1-based and is translated at parse time.
"""

from __future__ import annotations

import math
import re

from .interval import (
    Box,
    Interval,
    Record,
    abs_pair,
    add_down,
    add_up,
    interval_error,
    max_pair,
    mul_down,
    mul_up,
    sqr_pair,
    sqrt_pair,
    sub_down,
    sub_up,
)
from .mapdsl import NUMBER, ParseError


_INF = math.inf
_GUARD = 1e300  # the float filters of the region tests decide below it only


# ---------------------------------------------------------------------------
# Rectangles and faces
# ---------------------------------------------------------------------------


class RectDomain(Record):
    __slots__ = ("box",)

    def __init__(self, box: Box):
        for i, c in enumerate(box.coords):
            if not c.hi > c.lo:
                raise ValueError(f"rectangle coordinate {i} must have positive width")
        self.box = box

    @property
    def dim(self):
        return self.box.dim

    def to_json_dict(self):
        return {"type": "rect", "bounds": self.box.bounds()}


def face(box: Box, axis: int, sign: str) -> Box:
    """The face of the box on which coordinate `axis` is pinned to its
    lower ('-') or upper ('+') bound: a rectangle's face, or a cylinder's
    base (axis 0 of its full box)."""
    if not 0 <= axis < box.dim:
        raise IndexError(f"axis {axis} out of range for dimension {box.dim}")
    if sign not in ("-", "+"):
        raise ValueError("sign must be '-' or '+'")
    c = box.coords[axis]
    pinned = c.lo if sign == "-" else c.hi
    return box.replace_coord(axis, Interval(pinned))


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------


class CylinderSpec(Record):
    __slots__ = ("t_range", "base")

    def __init__(self, t_range: Interval, base: Box):
        if not t_range.hi > t_range.lo:
            raise ValueError("cylinder height interval must have positive width")
        for i, c in enumerate(base.coords):
            if not c.hi > c.lo:
                raise ValueError(f"cylinder base coordinate {i} must have positive width")
        self.t_range = t_range
        self.base = base

    @property
    def dim(self):
        return 1 + self.base.dim

    def full_box(self) -> Box:
        return Box((self.t_range,) + self.base.coords)

    def to_json_dict(self):
        return {
            "type": "cylinder",
            "t": [self.t_range.lo, self.t_range.hi],
            "base": self.base.bounds(),
        }


# ---------------------------------------------------------------------------
# Functionals on the orthant cone
# ---------------------------------------------------------------------------


def _bisect_segment(p, q, below):
    """The point of the segment from p to q where `below` turns false."""
    s0, s1 = 0.0, 1.0
    for _ in range(80):
        sm = 0.5 * (s0 + s1)
        if below([a + sm * (b - a) for a, b in zip(p, q)]):
            s0 = sm
        else:
            s1 = sm
    sm = 0.5 * (s0 + s1)
    return tuple(a + sm * (b - a) for a, b in zip(p, q))


class Functional(Record):
    """Positively homogeneous functional, strictly positive on the orthant
    minus the origin: the euclidean norm, the sup norm, or the coordinate
    sum (kind 'linear', the domain line's l=sum)."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("euclid", "sup", "linear"):
            raise ValueError(f"unknown functional kind {kind!r}")
        self.kind = kind  # 'euclid' | 'sup' | 'linear'

    def value(self, p) -> float:
        if self.kind == "euclid":
            return math.hypot(*p)
        if self.kind == "sup":
            return max(abs(x) for x in p)
        return sum(p)

    def value_pair(self, pairs):
        """Enclosure (lo, hi) of the functional over the box whose
        coordinates are the (lo, hi) pairs, accumulated coordinate by
        coordinate from 0 (the sup norm: from the first |x_i|)."""
        if self.kind == "euclid":
            lo = hi = 0.0
            for a, b in pairs:
                s_lo, s_hi = sqr_pair(a, b)
                if not -_INF < s_lo <= s_hi < _INF:
                    raise interval_error(s_lo, s_hi)
                lo, hi = add_down(lo, s_lo), add_up(hi, s_hi)
                if not -_INF < lo <= hi < _INF:
                    raise interval_error(lo, hi)
            return sqrt_pair(lo, hi)
        if self.kind == "sup":
            # |x| and max of finite pairs are finite pairs: nothing to check.
            pairs = iter(pairs)
            lo, hi = abs_pair(*next(pairs))
            for a, b in pairs:
                lo, hi = max_pair(lo, hi, *abs_pair(a, b))
            return lo, hi
        lo = hi = 0.0
        for a, b in pairs:
            lo, hi = add_down(lo, a), add_up(hi, b)
            if not -_INF < lo <= hi < _INF:
                raise interval_error(lo, hi)
        return lo, hi

    def level_tests(self, lo: float, hi: float, target: float) -> dict:
        """relevant, meets and witness for the shell part lo <= l <= hi.

        On the orthant l grows in each coordinate: over a box it is least
        at the lower corner and greatest at the upper one, where meets
        evaluates it.  The witness is the point of the box diagonal at the
        level `target` clamped to the box's guaranteed level range."""
        sup, euclid = self.kind == "sup", self.kind == "euclid"
        value, value_pair = self.value, self.value_pair

        def corner_levels(coords):
            # A bracket of value_pair's ends, or None off the orthant or
            # where a sum reaches _GUARD.
            a = b = 0.0
            for c in coords:
                if c.lo < 0.0:
                    return None
                if sup:
                    a, b = max(a, c.lo), max(b, c.hi)
                elif euclid:
                    a, b = a + c.lo * c.lo, b + c.hi * c.hi
                else:
                    a, b = a + c.lo, b + c.hi
            ends = (math.sqrt(a), math.sqrt(b)) if euclid else (a, b)
            return ends if b < _GUARD else None

        def relevant(box):
            ends = corner_levels(box.coords)
            if ends and ends[0] <= hi and ends[1] >= lo:
                return True
            l_lo, l_hi = value_pair([(c.lo, c.hi) for c in box.coords])
            return not (l_hi < lo or l_lo > hi)

        def corner_pairs(box):
            return (value_pair([(c.lo, c.lo) for c in box.coords]),
                    value_pair([(c.hi, c.hi) for c in box.coords]))

        def meets(box):
            (_, min_hi), (max_lo, _) = corner_pairs(box)
            return min_hi <= hi and max_lo >= lo

        def witness(box):
            (_, min_hi), (max_lo, _) = corner_pairs(box)
            level = min(max(target, min_hi), max_lo)
            return _bisect_segment([c.lo for c in box.coords], [c.hi for c in box.coords],
                                   lambda p: value(p) < level)

        return {"relevant": relevant, "meets": meets, "witness": witness}


class ConeShellSpec(Record):
    """Slice of the nonnegative orthant between the a- and b-level sets."""

    __slots__ = ("dim", "functional", "a", "b")

    def __init__(self, dim: int, functional: Functional, a: float, b: float):
        if dim < 1:
            raise ValueError("cone shell needs dimension >= 1")
        if not -_INF < a < b < _INF:
            raise ValueError("cone shell needs finite a < b")
        if functional.kind == "linear":
            if a < 0.0:
                raise ValueError("linear-functional shell needs a >= 0")
        elif a <= 0.0:
            raise ValueError("norm shell needs 0 < a")
        self.dim = dim
        self.functional = functional
        self.a = a
        self.b = b

    def bounding_box(self) -> Box:
        return Box((Interval(0.0, self.b),) * self.dim)

    def to_json_dict(self):
        d = {
            "type": "coneshell",
            "functional": self.functional.kind,
            "a": self.a,
            "b": self.b,
            "dim": self.dim,
        }
        if self.functional.kind == "linear":
            d["coeffs"] = [1.0] * self.dim  # the sum's unit weights, as certificate JSON lists them
        return d


# ---------------------------------------------------------------------------
# Holed balls and annuli (the annulus is recognized but refused downstream)
# ---------------------------------------------------------------------------


def dist2_pair(a: float, b: float, c: float, d: float, cx: float, cy: float):
    """Enclosure (lo, hi) of the squared distance from the planar box
    [a, b] x [c, d] to the point (cx, cy), whose coordinates are finite.

    The stages are those of (x - cx)^2 + (y - cy)^2 in interval arithmetic:
    the two differences, the two squares, the sum, each checked in turn.
    """
    x_lo, x_hi = sub_down(a, cx), sub_up(b, cx)
    y_lo, y_hi = sub_down(c, cy), sub_up(d, cy)
    if not -_INF < x_lo <= x_hi < _INF:
        raise interval_error(x_lo, x_hi)
    if not -_INF < y_lo <= y_hi < _INF:
        raise interval_error(y_lo, y_hi)
    x_lo, x_hi = sqr_pair(x_lo, x_hi)
    y_lo, y_hi = sqr_pair(y_lo, y_hi)
    if not -_INF < x_lo <= x_hi < _INF:
        raise interval_error(x_lo, x_hi)
    if not -_INF < y_lo <= y_hi < _INF:
        raise interval_error(y_lo, y_hi)
    lo, hi = add_down(x_lo, y_lo), add_up(x_hi, y_hi)
    if not -_INF < lo <= hi < _INF:
        raise interval_error(lo, hi)
    return lo, hi


def _filtered(box: Box, cx: float, cy: float, near_max: float, far_min: float) -> bool:
    """The float filter in front of a directed distance test.  The squared
    distances near and far from the planar box to (cx, cy), in
    round-to-nearest floats, bracket `dist2_pair`'s ends (near >= lo, far
    <= hi).  True when near <= near_max and far_min <= far < _GUARD, so the
    directed test passes and cannot overflow; False leaves the box to that
    test."""
    x, y = box.coords
    xa, xb, ya, yb = x.lo - cx, x.hi - cx, y.lo - cy, y.hi - cy
    nx = xa if xa > 0.0 else -xb if xb < 0.0 else 0.0
    ny = ya if ya > 0.0 else -yb if yb < 0.0 else 0.0
    fx, fy = (xb if xb > -xa else -xa), (yb if yb > -ya else -ya)
    return nx * nx + ny * ny <= near_max and far_min <= fx * fx + fy * fy < _GUARD


def _radial_segment(box: Box, cx: float, cy: float):
    """The nearest and the farthest point of the box from (cx, cy)."""
    near = tuple(min(max(c0, c.lo), c.hi) for c, c0 in zip(box.coords, (cx, cy)))
    far = tuple(
        c.lo if abs(c.lo - c0) >= abs(c.hi - c0) else c.hi
        for c, c0 in zip(box.coords, (cx, cy))
    )
    return near, far


def _circle_tests(cx: float, cy: float, r: float, r2_lo: float, r2_hi: float) -> dict:
    """relevant, meets and witness for the circle of centre (cx, cy) and
    radius r, r^2 rounded to [r2_lo, r2_hi]: a box meets the circle where
    its radial segment crosses it, and the witness is that crossing."""

    def relevant(box):
        if _filtered(box, cx, cy, r2_hi, r2_lo):
            return True
        x, y = box.coords
        d2_lo, d2_hi = dist2_pair(x.lo, x.hi, y.lo, y.hi, cx, cy)
        return not (d2_hi < r2_lo or d2_lo > r2_hi)

    def meets(box):
        (nx, ny), (fx, fy) = _radial_segment(box, cx, cy)
        return (dist2_pair(nx, nx, ny, ny, cx, cy)[1] <= r2_lo
                and dist2_pair(fx, fx, fy, fy, cx, cy)[0] >= r2_hi)

    def witness(box):
        return _bisect_segment(*_radial_segment(box, cx, cy),
                               lambda p: math.hypot(p[0] - cx, p[1] - cy) < r)

    return {"relevant": relevant, "meets": meets, "witness": witness}


def _scaled(values) -> list:
    """The finite floats as integers over one common power-of-two
    denominator, so that their sums, products and comparisons are exact."""
    ratios = [v.as_integer_ratio() for v in values]
    q = max(d for _, d in ratios)
    return [n * (q // d) for n, d in ratios]


class HoledBallSpec(Record):
    """Planar closed ball of radius R minus a collection of open holes.

    Holes must be pairwise disjoint closed balls inside B[0, R].  A single
    hole is representable but certification refuses it: the fixed point
    count 1 - n vanishes for n = 1 and the constant map onto the hole's
    centre shows the boundary conditions alone prove nothing.
    """

    __slots__ = ("radius", "holes")

    def __init__(self, radius: float, holes: tuple):
        # Containment and disjointness are decided exactly, on squared
        # distances: rounded sums of hypot can let a hole leave the ball.
        if not 0.0 < radius < _INF:
            raise ValueError("outer radius must be positive and finite")
        for cx, cy, r in holes:
            if not (0.0 < r < _INF and math.isfinite(cx) and math.isfinite(cy)):
                raise ValueError("hole centre must be finite, its radius positive and finite")
            R, x, y, s = _scaled((radius, cx, cy, r))
            if s > R or x * x + y * y > (R - s) ** 2:
                raise ValueError(f"hole at ({cx}, {cy}) not contained in the ball")
        for i in range(len(holes)):
            for j in range(i + 1, len(holes)):
                xi, yi, ri, xj, yj, rj = _scaled(holes[i] + holes[j])
                if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ri + rj) ** 2:
                    raise ValueError(f"holes {i} and {j} are not disjoint")
        self.radius = radius
        self.holes = holes  # of (cx, cy, r)

    @property
    def dim(self):
        return 2

    def circles(self) -> list:
        """The outer circle, then each hole's, as ((cx, cy, r), r^2 rounded
        (down, up), region tests).  The outer tests: relevant, the box is
        neither outside the ball nor strictly inside an open hole; meets,
        its centre lies in L."""
        R = self.radius
        R2_lo, R2_hi = mul_down(R, R), mul_up(R, R)
        holes = [(cx, cy, r, mul_down(r, r), mul_up(r, r)) for cx, cy, r in self.holes]

        def in_domain(box):
            if _filtered(box, 0.0, 0.0, R2_hi, 0.0) and all(
                    _filtered(box, cx, cy, _INF, r2_lo) for cx, cy, _, r2_lo, _ in holes):
                return True
            x, y = box.coords
            return dist2_pair(x.lo, x.hi, y.lo, y.hi, 0.0, 0.0)[0] <= R2_hi and all(
                dist2_pair(x.lo, x.hi, y.lo, y.hi, cx, cy)[1] >= r2_lo
                for cx, cy, _, r2_lo, _ in holes)

        def centre_in_domain(box):
            x, y = box.midpoint()
            return dist2_pair(x, x, y, y, 0.0, 0.0)[1] <= R2_lo and all(
                dist2_pair(x, x, y, y, cx, cy)[0] >= r2_hi for cx, cy, _, _, r2_hi in holes)

        outer = {"relevant": in_domain, "meets": centre_in_domain}
        return [((0.0, 0.0, R), (R2_lo, R2_hi), outer)] + [
            ((cx, cy, r), (lo, hi), _circle_tests(cx, cy, r, lo, hi)) for cx, cy, r, lo, hi in holes]

    def to_json_dict(self):
        return {
            "type": "holedball",
            "R": self.radius,
            "holes": [list(h) for h in self.holes],
        }


class AnnulusSpec(Record):
    __slots__ = ("r1", "r2")

    def __init__(self, r1: float, r2: float):
        if not 0.0 < r1 < r2 < _INF:
            raise ValueError("annulus needs 0 < r1 < r2 < inf")
        self.r1 = r1
        self.r2 = r2

    @property
    def dim(self):
        return 2

    def to_json_dict(self):
        return {"type": "annulus", "r1": self.r1, "r2": self.r2}


# ---------------------------------------------------------------------------
# Domain line parsing (the `domain ...` line of the DSL)
# ---------------------------------------------------------------------------

# A number is a map literal (mapdsl.NUMBER) with an optional sign.
# Whitespace may stand between any two tokens; before a word it must,
# unless punctuation precedes the word.
_NUM = rf"\s*([-+]?{NUMBER})"
_WORD = r"(?:\s+|(?<![\w.]))"
_PAIR = rf"\s*\[{_NUM}\s*,{_NUM}\s*\]"
_KIND = re.compile(r"\s*domain\s+(\w+)")

# kind: (usage, the fixed part after the kind, the part that repeats);
# each part captures its numbers, in order.
_FORMS = {
    "rect": ("[lo,hi] ...", "", _PAIR),
    "cylinder": ("[a,b] base [lo,hi] ...", rf"{_PAIR}{_WORD}base", _PAIR),
    "coneshell": ("l=<sum|sup|euclid> a=<v> b=<v>",
                  rf"{_WORD}l\s*=\s*(sum|sup|euclid){_WORD}a\s*={_NUM}{_WORD}b\s*={_NUM}", None),
    "holedball": ("R=<v> hole (cx,cy,r) ...", rf"{_WORD}R\s*={_NUM}",
                  rf"{_WORD}hole\s*\({_NUM}\s*,{_NUM}\s*,{_NUM}\s*\)"),
    "annulus": ("r1=<v> r2=<v>", rf"{_WORD}r1\s*={_NUM}{_WORD}r2\s*={_NUM}", None),
}
_FORMS = {kind: (usage, re.compile(fixed), unit and re.compile(unit))
          for kind, (usage, fixed, unit) in _FORMS.items()}


def _floats(texts) -> tuple:
    values = tuple(map(float, texts))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"number past the float range in ({', '.join(texts)})")
    return values


def _build(kind: str, dim: int, texts: list):
    """The domain object from the text that a line's parts captured, in
    order."""
    if kind == "coneshell":
        f = Functional("linear" if texts[0] == "sum" else texts[0])
        return ConeShellSpec(dim, f, *_floats(texts[1:]))
    v = _floats(texts)
    if kind == "rect":
        return RectDomain(Box.from_bounds(zip(v[::2], v[1::2])))
    if kind == "cylinder":
        return CylinderSpec(Interval(v[0], v[1]), Box.from_bounds(zip(v[2::2], v[3::2])))
    if kind == "holedball":
        return HoledBallSpec(v[0], tuple(zip(v[1::3], v[2::3], v[3::3])))
    return AnnulusSpec(*v)


def parse_domain(line: str, map_dim: int, line_no: int = 0):
    """Parse one `domain ...` line (the forms are in _FORMS) into its
    domain object; every error is a ParseError that names the line."""
    m = _KIND.match(line)
    kind = m and m[1]
    if kind not in _FORMS:
        raise ParseError(f"expected 'domain <{'|'.join(_FORMS)}> ...'", line_no)
    usage, fixed, unit = _FORMS[kind]
    texts, end, m = [], None, fixed.match(line, m.end())
    while m:
        texts += m.groups()
        end = m.end()
        m = unit and unit.match(line, end)
    if end is None or line[end:].strip():
        raise ParseError(f"expected 'domain {kind} {usage}'", line_no)
    try:
        domain = _build(kind, map_dim, texts)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None
    if domain.dim != map_dim:
        raise ParseError(f"{kind} domain of dim {domain.dim} for a map of dim {map_dim}", line_no)
    return domain
