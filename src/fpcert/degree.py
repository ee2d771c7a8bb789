"""Fixed point index via the degree of Id - f, in dimensions one and two.

In dimension one the index is the Bolzano sign rule on F = Id - f at the
endpoints, each sign proven by a point interval evaluation.  In dimension
two the winding number of F along a closed curve is computed by quadrant
transition accumulation.  The curve is a list of pieces, each a parameter
interval with a map to plane boxes that enclose its part of the curve: a
rectangle boundary is four edges, a circle one arc in the angle.  Each
piece is covered with ``adaptive_cover`` until every leaf's interval image
box excludes the origin (equivalently, lies in one of the four open axis
half-planes); signed quarter-turn transitions between consecutive leaves
telescope to four times the winding number.  The integer bookkeeping is
exact, so a returned value is rigorous whenever every leaf was classified.
A leaf whose evaluation raises (a denominator whose naive enclosure holds
zero, say) is undecided and split like one whose image meets the origin;
smaller leaves may evaluate.

The field F = Id - f is evaluated on ``(lo, hi)`` endpoint pairs: the map's
component pairs (``MapSpec.eval_pairs``) are subtracted from the box
coordinates with the pair kernels of ``interval``, each difference checked
as ``Interval`` subtraction checks it, so enclosures and errors equal those
of the ``Interval``-operator formula bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .geometry import HoledBallSpec, RectDomain
from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    add_down,
    add_up,
    cos_pair,
    interval_error,
    mul_down,
    mul_up,
    next_up,
    sin_pair,
    sub_down,
    sub_up,
)
from .mapdsl import MapSpec, blend_with_parameter
from .subdivision import UNKNOWN, VERIFIED, adaptive_cover


class BoundaryZeroError(ArithmeticError):
    """Id - f could not be proven nonvanishing on the domain boundary."""


@dataclass
class DegreeResult:
    value: int
    verified: bool
    segments: int
    depth: int

    def to_json_dict(self):
        return {
            "value": self.value,
            "verified": self.verified,
            "segments": self.segments,
            "depth": self.depth,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


_INF = math.inf
_TWO_PI_UP = 2.0 * next_up(math.pi)  # math.pi rounds below pi


def _field_pairs(f: MapSpec, box: Box, t=None) -> list:
    """Enclosure of F = Id - f over a box, one (lo, hi) pair per coordinate."""
    out = []
    for x, (g_lo, g_hi) in zip(box.coords, f.eval_pairs(box, t)):
        lo, hi = sub_down(x.lo, g_hi), sub_up(x.hi, g_lo)
        if not -_INF < lo <= hi < _INF:
            raise interval_error(lo, hi)
        out.append((lo, hi))
    return out


def degree_1d(f: MapSpec, domain) -> DegreeResult:
    """Bolzano sign degree of Id - f on an interval domain."""
    if f.dim != 1:
        raise DimensionMismatchError("degree_1d needs a map of dimension 1")
    if isinstance(domain, RectDomain):
        iv = domain.box.coords[0]
    elif isinstance(domain, Interval):
        iv = domain
    else:
        iv = Interval(*domain)

    signs = []
    for endpoint in (iv.lo, iv.hi):
        (lo, hi), = _field_pairs(f, Box((Interval(endpoint),)))
        if hi < 0.0:
            signs.append(-1)
        elif lo > 0.0:
            signs.append(+1)
        else:
            raise BoundaryZeroError(
                f"Id - f not provably nonzero at endpoint {endpoint}"
            )
    if signs == [-1, +1]:
        value = +1
    elif signs == [+1, -1]:
        value = -1
    else:
        value = 0
    return DegreeResult(value, True, segments=2, depth=0)


# Half-plane codes, counterclockwise: x>0, y>0, x<0, y<0.
_EAST, _NORTH, _WEST, _SOUTH = 0, 1, 2, 3


def _half_plane(field):
    (x_lo, x_hi), (y_lo, y_hi) = field
    if x_lo > 0.0:
        return _EAST
    if y_lo > 0.0:
        return _NORTH
    if x_hi < 0.0:
        return _WEST
    if y_hi < 0.0:
        return _SOUTH
    return None


def _rect_pieces(rect: RectDomain) -> list:
    """The rectangle boundary, counterclockwise, as four edge pieces whose
    parameter is the moving coordinate."""
    (x, y) = rect.box.coords

    def edge(moving, fixed, fix_axis, reverse):
        def enclose(param):
            p = param.coords[0]
            return Box((fixed, p) if fix_axis == 0 else (p, fixed))
        return Box((moving,)), enclose, reverse

    return [
        edge(x, Interval(y.lo), 1, False),  # bottom, left to right
        edge(y, Interval(x.hi), 0, False),  # right, bottom to top
        edge(x, Interval(y.hi), 1, True),  # top, right to left
        edge(y, Interval(x.lo), 0, True),  # left, top to bottom
    ]


def _circle_pieces(cx: float, cy: float, r: float) -> list:
    """The circle of radius r > 0 about (cx, cy), counterclockwise, as one
    arc in the angle.  The arc ends at a float above 2 pi, so its leaves
    cover the whole circle, and the last leaf shares the point at angle 0
    with the first."""

    def enclose(param):
        t = param.coords[0]
        c_lo, c_hi = cos_pair(t.lo, t.hi)
        s_lo, s_hi = sin_pair(t.lo, t.hi)
        return Box((
            Interval(add_down(cx, mul_down(r, c_lo)), add_up(cx, mul_up(r, c_hi))),
            Interval(add_down(cy, mul_down(r, s_lo)), add_up(cy, mul_up(r, s_hi))),
        ))

    return [(Box((Interval(0.0, _TWO_PI_UP),)), enclose, False)]


def _winding(f: MapSpec, pieces, max_depth: int, max_boxes: int) -> DegreeResult:
    """Winding number of Id - f along the closed curve made of the pieces.

    A piece is (seed, enclose, reverse): the seed box of its parameter, a
    map from a parameter box to a plane box enclosing that part of the
    curve, and whether the curve runs down the parameter.  One budget of
    max_boxes serves all pieces.
    """
    ordered = []  # half-plane code of each leaf, along the curve
    depth = 0
    budget = max_boxes
    for seed, enclose, reverse in pieces:
        def classify(param, enclose=enclose):
            try:
                hp = _half_plane(_field_pairs(f, enclose(param)))
            except DomainError:  # undecided here: split, smaller leaves may evaluate
                hp = None
            return (UNKNOWN, None) if hp is None else (VERIFIED, hp)

        cover = adaptive_cover([seed], classify, max_depth, budget)
        budget -= cover.boxes_examined
        depth = max(depth, cover.depth_reached)
        if cover.status != "verified":
            if budget <= 0:
                raise BoundaryZeroError(
                    "boundary subdivision budget exhausted before the field could be "
                    "proven nonvanishing"
                )
            raise BoundaryZeroError(
                "a boundary segment's field image could not be separated "
                f"from the origin at depth {cover.depth_reached}"
            )
        cover.verified.sort(key=lambda leaf: leaf[0].coords[0].lo, reverse=reverse)
        ordered += [hp for _param, hp in cover.verified]

    total = 0
    for k in range(len(ordered)):
        h0 = ordered[k]
        h1 = ordered[(k + 1) % len(ordered)]
        step = ((h1 - h0 + 1) % 4) - 1
        if step == 2 or (h1 - h0) % 4 == 2:
            raise BoundaryZeroError(
                "inconsistent half-plane transition; boundary image too coarse"
            )
        total += step
    if total % 4 != 0:
        raise BoundaryZeroError("quarter-turn total not divisible by four")
    return DegreeResult(total // 4, True, segments=len(ordered), depth=depth)


def winding_degree_2d(f: MapSpec, rect: RectDomain,
                      max_depth: int = 24, max_boxes: int = 40000) -> DegreeResult:
    """Winding number of Id - f along the rectangle boundary."""
    if f.dim != 2:
        raise DimensionMismatchError("winding_degree_2d needs a map of dimension 2")
    return _winding(f, _rect_pieces(rect), max_depth, max_boxes)


def holes_index_cross_check(T: MapSpec, spec: HoledBallSpec,
                            max_depth: int = 20, max_boxes: int = 60000):
    """Cross-check the 1 - n index by winding numbers on the domain's circles.

    The index of T over the holed ball is the degree of Id - T on the outer
    disk minus its degree on each hole, provided Id - T vanishes on none of
    the circles.  Winds Id - T around the outer circle and around each hole
    circle, each walk with its own budget, and reports outer minus the hole
    sum.  Returns a dict with value and verified; value is None and
    verified False when some winding could not be completed rigorously.
    """
    if T.dim != 2:
        raise DimensionMismatchError("holes_index_cross_check needs a map of dimension 2")
    try:
        value = _winding(T, _circle_pieces(0.0, 0.0, spec.radius), max_depth, max_boxes).value
        for cx, cy, r in spec.holes:
            value -= _winding(T, _circle_pieces(cx, cy, r), max_depth, max_boxes).value
    except BoundaryZeroError:
        return {"value": None, "verified": False}
    return {"value": value, "verified": True}


def fixed_point_index(f: MapSpec, rect: RectDomain,
                      max_depth: int = 24, max_boxes: int = 40000) -> DegreeResult:
    """Fixed point index of f over a rectangle: degree of Id - f."""
    if f.dim == 1:
        return degree_1d(f, rect)
    if f.dim == 2:
        return winding_degree_2d(f, rect, max_depth=max_depth, max_boxes=max_boxes)
    raise DimensionMismatchError("fixed point index implemented for dimensions 1 and 2")


def homotopy_nonvanishing(f: MapSpec, g: MapSpec, rect: RectDomain,
                          max_depth: int = 18, max_boxes: int = 60000) -> bool:
    """Verify Id - ((1-t) f + t g) never vanishes on the boundary, t in [0,1].

    Subdivides the product of the parameter interval with each boundary
    edge. Returns True on full verification, False when the budget ran out
    (the homotopy might pass through zero on the boundary).
    """
    if f.dim != 2 or g.dim != 2:
        raise DimensionMismatchError("homotopy check implemented for dimension 2")
    blend = blend_with_parameter(f, g)

    def classify(aug: Box):
        if _half_plane(_field_pairs(blend, Box(aug.coords[1:]), aug.coords[0])) is not None:
            return VERIFIED, None
        return UNKNOWN, None

    for edge, enclose, _reverse in _rect_pieces(rect):
        seed = Box((Interval(0.0, 1.0),) + enclose(edge).coords)
        cover = adaptive_cover([seed], classify, max_depth, max_boxes)
        if cover.status != "verified":
            return False
    return True
