"""Certificate domains and the explicit constructions attached to them.

Rectangles carry their faces, cylinders a height interval over a box base,
cone shells live in the nonnegative orthant between two level sets of a
positive functional, and holed balls are planar disks minus disjoint holes.
The module also builds the coordinate-flip of a map (2*x_i - g_i), the
cylinder duality transform on the height coordinate, the level-set
retraction of the orthant cone, and the shell-to-cylinder homeomorphism
h(x) = (l(x), x / l(x)).

The enclosures the certifiers take over boxes, the squared distance to a
point (`dist2_pair`) and a shell functional (`Functional.value_pair`), work
on ``(lo, hi)`` endpoint pairs with the pair kernels of ``interval``, so a
caller can pass a box's coordinates or a map's component pairs
(``MapSpec.eval_pairs``) without building an ``Interval`` per step.  Each
step checks its pair as ``Interval(lo, hi)`` would, so results and errors
equal those of the ``Interval``-operator formulas bit for bit.

Axis indices are 0-based throughout; the DSL surface (x1, g1, ...) is
1-based and is translated at parse time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .interval import (
    Box,
    DimensionMismatchError,
    Interval,
    abs_pair,
    add_down,
    add_up,
    div_up,
    interval_error,
    max_pair,
    mul_pair,
    pow_int_pair,
    sqrt_pair,
    sub_down,
    sub_up,
)
from .mapdsl import (
    BinOp,
    MapSpec,
    ParseError,
    Var,
    float_const,
)


_INF = math.inf


class OutsideShellError(ValueError):
    """Point offered to the shell homeomorphism lies outside the shell."""


# ---------------------------------------------------------------------------
# Rectangles and faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RectDomain:
    box: Box

    def __post_init__(self):
        for i, c in enumerate(self.box.coords):
            if not c.hi > c.lo:
                raise ValueError(f"rectangle coordinate {i} must have positive width")

    @property
    def dim(self):
        return self.box.dim

    def to_json_dict(self):
        return {"type": "rect", "bounds": self.box.bounds()}


@dataclass(frozen=True)
class Face:
    parent: RectDomain
    axis: int
    sign: str  # '-' or '+'
    as_box: Box


def face(rect: RectDomain, axis: int, sign: str) -> Face:
    if not 0 <= axis < rect.dim:
        raise IndexError(f"axis {axis} out of range for dimension {rect.dim}")
    if sign not in ("-", "+"):
        raise ValueError("sign must be '-' or '+'")
    c = rect.box.coords[axis]
    pinned = c.lo if sign == "-" else c.hi
    return Face(rect, axis, sign, rect.box.replace_coord(axis, Interval(pinned)))


def clamp_projection(point, rect: RectDomain):
    """Componentwise clamp into the rectangle; identity on interior points."""
    if len(point) != rect.dim:
        raise DimensionMismatchError(
            f"point of dimension {len(point)} for rectangle of dimension {rect.dim}"
        )
    return tuple(
        min(c.hi, max(float(x), c.lo)) for x, c in zip(point, rect.box.coords)
    )


# ---------------------------------------------------------------------------
# Coordinate flips and the cylinder duality transform
# ---------------------------------------------------------------------------


def _flip_component(expr, axis: int):
    # Unwrapping 2*x_i - e back to e makes the flip an exact involution.
    if (
        isinstance(expr, BinOp)
        and expr.op == "-"
        and isinstance(expr.left, BinOp)
        and expr.left.op == "*"
        and getattr(expr.left.left, "value", None) == 2.0
        and isinstance(expr.left.right, Var)
        and expr.left.right.index == axis
    ):
        return expr.right
    return BinOp("-", BinOp("*", float_const(2.0), Var(axis)), expr)


def flip_coordinates(m: MapSpec, flip_axes) -> MapSpec:
    """Replace g_i by 2*x_i - g_i for each i in flip_axes (0-based).

    Fixed points are preserved exactly, and applying the same flip twice
    returns a map that evaluates identically to the original.
    """
    axes = set(flip_axes)
    for axis in axes:
        if not 0 <= axis < m.dim:
            raise IndexError(f"axis {axis} out of range for dimension {m.dim}")
    comps = tuple(
        _flip_component(c, i) if i in axes else c for i, c in enumerate(m.components)
    )
    return MapSpec(m.dim, comps, m.has_param)


def compressive_to_expansive(m: MapSpec) -> MapSpec:
    """Reflect the height component: S1 = 2*x1 - T1, S2 = T2.

    Fixed points of the result coincide with those of the input, and the
    compressive boundary conditions for the input become the expansive ones
    for the result.
    """
    return flip_coordinates(m, {0})


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderSpec:
    t_range: Interval
    base: Box

    def __post_init__(self):
        if not self.t_range.hi > self.t_range.lo:
            raise ValueError("cylinder height interval must have positive width")
        for i, c in enumerate(self.base.coords):
            if not c.hi > c.lo:
                raise ValueError(f"cylinder base coordinate {i} must have positive width")

    @property
    def dim(self):
        return 1 + self.base.dim

    def full_box(self) -> Box:
        return Box((self.t_range,) + self.base.coords)

    def left_base(self) -> Box:
        return Box((Interval(self.t_range.lo),) + self.base.coords)

    def right_base(self) -> Box:
        return Box((Interval(self.t_range.hi),) + self.base.coords)

    def to_json_dict(self):
        return {
            "type": "cylinder",
            "t": [self.t_range.lo, self.t_range.hi],
            "base": self.base.bounds(),
        }


# ---------------------------------------------------------------------------
# Functionals on the orthant cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Functional:
    """Positively homogeneous functional, strictly positive on the orthant
    minus the origin: the euclidean norm, the sup norm, or a linear form
    with strictly positive coefficients."""

    kind: str  # 'euclid' | 'sup' | 'linear'
    coeffs: "tuple | None" = None

    def __post_init__(self):
        if self.kind not in ("euclid", "sup", "linear"):
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind == "linear":
            if not self.coeffs or any(c <= 0.0 for c in self.coeffs):
                raise ValueError("linear functional needs strictly positive coefficients")

    def value(self, p) -> float:
        if self.kind == "euclid":
            return math.hypot(*p)
        if self.kind == "sup":
            return max(abs(x) for x in p)
        return sum(c * x for c, x in zip(self.coeffs, p))

    def value_pair(self, pairs):
        """Enclosure (lo, hi) of the functional over the box whose
        coordinates are the (lo, hi) pairs, accumulated coordinate by
        coordinate from 0 (the sup norm: from the first |x_i|)."""
        if self.kind == "euclid":
            lo = hi = 0.0
            for a, b in pairs:
                s_lo, s_hi = pow_int_pair(a, b, 2)
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
        for coef, (a, b) in zip(self.coeffs, pairs):
            k = float(coef)  # the coefficient's point interval
            if not -_INF < k < _INF:
                raise interval_error(k, k)
            p_lo, p_hi = mul_pair(k, k, a, b)
            if not -_INF < p_lo <= p_hi < _INF:
                raise interval_error(p_lo, p_hi)
            lo, hi = add_down(lo, p_lo), add_up(hi, p_hi)
            if not -_INF < lo <= hi < _INF:
                raise interval_error(lo, hi)
        return lo, hi

    @classmethod
    def euclid(cls):
        return cls("euclid")

    @classmethod
    def sup(cls):
        return cls("sup")

    @classmethod
    def linear(cls, coeffs):
        return cls("linear", tuple(float(c) for c in coeffs))

    @classmethod
    def ones(cls, dim):
        return cls("linear", (1.0,) * dim)


@dataclass(frozen=True)
class ConeShellSpec:
    """Slice of the nonnegative orthant between the a- and b-level sets."""

    dim: int
    functional: Functional
    a: float
    b: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("cone shell needs dimension >= 1")
        if not self.a < self.b:
            raise ValueError("cone shell needs a < b")
        if self.functional.kind == "linear":
            if self.a < 0.0:
                raise ValueError("linear-functional shell needs a >= 0")
            if len(self.functional.coeffs) != self.dim:
                raise DimensionMismatchError("coefficient count must match dimension")
        elif self.a <= 0.0:
            raise ValueError("norm shell needs 0 < a")

    def bounding_box(self) -> Box:
        f = self.functional
        if f.kind == "linear":
            coords = tuple(Interval(0.0, div_up(self.b, c)) for c in f.coeffs)
        else:
            coords = tuple(Interval(0.0, self.b) for _ in range(self.dim))
        return Box(coords)

    def to_json_dict(self):
        d = {
            "type": "coneshell",
            "functional": self.functional.kind,
            "a": self.a,
            "b": self.b,
            "dim": self.dim,
        }
        if self.functional.kind == "linear":
            d["coeffs"] = list(self.functional.coeffs)
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
    x_lo, x_hi = pow_int_pair(x_lo, x_hi, 2)
    y_lo, y_hi = pow_int_pair(y_lo, y_hi, 2)
    if not -_INF < x_lo <= x_hi < _INF:
        raise interval_error(x_lo, x_hi)
    if not -_INF < y_lo <= y_hi < _INF:
        raise interval_error(y_lo, y_hi)
    lo, hi = add_down(x_lo, y_lo), add_up(x_hi, y_hi)
    if not -_INF < lo <= hi < _INF:
        raise interval_error(lo, hi)
    return lo, hi


@dataclass(frozen=True)
class HoledBallSpec:
    """Planar closed ball of radius R minus a collection of open holes.

    Holes must be pairwise disjoint closed balls inside B[0, R].  A single
    hole is representable but certification refuses it: the fixed point
    count 1 - n vanishes for n = 1 and the constant map onto the hole's
    centre shows the boundary conditions alone prove nothing.
    """

    radius: float
    holes: tuple  # of (cx, cy, r)

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("outer radius must be positive")
        for cx, cy, r in self.holes:
            if r <= 0.0:
                raise ValueError("hole radius must be positive")
            if math.hypot(cx, cy) + r > self.radius:
                raise ValueError(f"hole at ({cx}, {cy}) not contained in the ball")
        for i in range(len(self.holes)):
            for j in range(i + 1, len(self.holes)):
                xi, yi, ri = self.holes[i]
                xj, yj, rj = self.holes[j]
                if math.hypot(xi - xj, yi - yj) <= ri + rj:
                    raise ValueError(f"holes {i} and {j} are not disjoint")

    @property
    def dim(self):
        return 2

    def to_json_dict(self):
        return {
            "type": "holedball",
            "R": self.radius,
            "holes": [list(h) for h in self.holes],
        }


@dataclass(frozen=True)
class AnnulusSpec:
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.r1 < self.r2:
            raise ValueError("annulus needs 0 < r1 < r2")

    def to_json_dict(self):
        return {"type": "annulus", "r1": self.r1, "r2": self.r2}


# ---------------------------------------------------------------------------
# Cone retraction and the shell homeomorphism
# ---------------------------------------------------------------------------


def cone_retraction(p, a: float, spec: ConeShellSpec, y):
    """Retract a cone point onto the a-level set of the shell functional.

    Implements r_a(x) = a * (x + (a - l(x))^2 y) / l(x + (a - l(x))^2 y)
    for a direction y in the cone with l(y) > 0.  Exact identity on points
    already at level a.
    """
    f = spec.functional
    if a <= 0.0:
        raise ValueError("retraction level must be positive")
    if any(v < 0.0 for v in p) or any(v < 0.0 for v in y):
        raise ValueError("retraction operates on points of the orthant cone")
    if f.value(y) <= 0.0:
        raise ValueError("direction point must have positive functional value")
    lx = f.value(p)
    if lx == a:
        return tuple(float(v) for v in p)
    s = (a - lx) ** 2
    shifted = tuple(v + s * w for v, w in zip(p, y))
    denom = f.value(shifted)
    if denom <= 0.0:
        raise ZeroDivisionError("degenerate retraction denominator")
    return tuple(a * v / denom for v in shifted)


def shell_homeomorphism(p, spec: ConeShellSpec):
    """Map a shell point to (level, unit-level point): h(x) = (l(x), x/l(x))."""
    f = spec.functional
    t = f.value(p)
    if not spec.a <= t <= spec.b:
        raise OutsideShellError(
            f"functional value {t} outside shell [{spec.a}, {spec.b}]"
        )
    if t <= 0.0:
        raise OutsideShellError("homeomorphism needs a strictly positive level")
    return t, tuple(float(v) / t for v in p)


def shell_homeomorphism_inv(t: float, u, spec: ConeShellSpec, unit_tol: float = 1e-9):
    """Inverse of the shell homeomorphism: (t, u) -> t*u with l(u) = 1."""
    if not spec.a <= t <= spec.b:
        raise OutsideShellError(f"level {t} outside shell [{spec.a}, {spec.b}]")
    lu = spec.functional.value(u)
    if abs(lu - 1.0) > unit_tol:
        raise OutsideShellError(f"functional value of u is {lu}, expected 1")
    return tuple(t * float(v) for v in u)


# ---------------------------------------------------------------------------
# Domain line parsing (the `domain ...` line of the DSL)
# ---------------------------------------------------------------------------


def _parse_bracket_pairs(text: str, line_no: int):
    pairs = []
    rest = text.strip()
    while rest.startswith("["):
        end = rest.find("]")
        if end < 0:
            raise ParseError("unterminated '[' in domain line", line_no)
        inner = rest[1:end]
        parts = inner.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected [lo,hi], found [{inner}]", line_no)
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"bad number in [{inner}]", line_no) from None
        rest = rest[end + 1 :].strip()
    return pairs, rest


def _parse_kv(tokens, line_no):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, found {tok!r}", line_no)
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def parse_domain(line: str, map_dim: int, line_no: int = 0):
    """Parse one `domain ...` line into its domain object."""
    body = line.strip()
    if not body.startswith("domain"):
        raise ParseError("domain line must start with 'domain'", line_no)
    body = body[len("domain") :].strip()
    if not body:
        raise ParseError("empty domain line", line_no)
    kind, _, rest = body.partition(" ")

    if kind == "rect":
        pairs, leftover = _parse_bracket_pairs(rest, line_no)
        if leftover:
            raise ParseError(f"unexpected text {leftover!r} in rect domain", line_no)
        if len(pairs) != map_dim:
            raise DimensionMismatchError(
                f"rect domain has {len(pairs)} coordinates for a map of dim {map_dim}"
            )
        return RectDomain(Box.from_bounds(pairs))

    if kind == "cylinder":
        pairs, leftover = _parse_bracket_pairs(rest, line_no)
        if len(pairs) != 1:
            raise ParseError("cylinder expects one [a,b] height range", line_no)
        if not leftover.startswith("base"):
            raise ParseError("cylinder expects 'base' after the height range", line_no)
        base_pairs, leftover = _parse_bracket_pairs(leftover[len("base") :], line_no)
        if leftover:
            raise ParseError(f"unexpected text {leftover!r} in cylinder domain", line_no)
        if 1 + len(base_pairs) != map_dim:
            raise DimensionMismatchError(
                f"cylinder of dim {1 + len(base_pairs)} for a map of dim {map_dim}"
            )
        return CylinderSpec(Interval(*pairs[0]), Box.from_bounds(base_pairs))

    if kind == "coneshell":
        kv = _parse_kv(rest.split(), line_no)
        missing = {"l", "a", "b"} - kv.keys()
        if missing:
            raise ParseError(f"coneshell missing {sorted(missing)}", line_no)
        lname = kv["l"]
        if lname == "sum":
            functional = Functional.ones(map_dim)
        elif lname == "sup":
            functional = Functional.sup()
        elif lname == "euclid":
            functional = Functional.euclid()
        else:
            raise ParseError(f"unknown functional {lname!r} (sum|sup|euclid)", line_no)
        return ConeShellSpec(map_dim, functional, float(kv["a"]), float(kv["b"]))

    if kind == "holedball":
        tokens = rest.split()
        if not tokens or not tokens[0].startswith("R="):
            raise ParseError("holedball expects R=<radius> first", line_no)
        radius = float(tokens[0][2:])
        holes = []
        i = 1
        while i < len(tokens):
            if tokens[i] != "hole":
                raise ParseError(f"expected 'hole', found {tokens[i]!r}", line_no)
            if i + 1 >= len(tokens):
                raise ParseError("hole needs (cx,cy,r)", line_no)
            spec = tokens[i + 1].strip()
            if not (spec.startswith("(") and spec.endswith(")")):
                raise ParseError(f"hole expects (cx,cy,r), found {spec!r}", line_no)
            parts = spec[1:-1].split(",")
            if len(parts) != 3:
                raise ParseError(f"hole expects three numbers, found {spec!r}", line_no)
            holes.append(tuple(float(p) for p in parts))
            i += 2
        if map_dim != 2:
            raise DimensionMismatchError("holedball domains need a map of dim 2")
        return HoledBallSpec(radius, tuple(holes))

    if kind == "annulus":
        kv = _parse_kv(rest.split(), line_no)
        missing = {"r1", "r2"} - kv.keys()
        if missing:
            raise ParseError(f"annulus missing {sorted(missing)}", line_no)
        return AnnulusSpec(float(kv["r1"]), float(kv["r2"]))

    raise ParseError(f"unknown domain kind {kind!r}", line_no)
