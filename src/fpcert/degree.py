"""Fixed point index via the degree of Id - f, in dimensions one and two.

In dimension one the index is the Bolzano sign rule on F = Id - f at the
endpoints, each sign proven by a point interval evaluation.  In dimension
two the winding number of F along the rectangle boundary is computed by
quadrant transition accumulation: the oriented boundary is subdivided until
every segment's interval image box excludes the origin (equivalently, lies
in one of the four open axis half-planes); signed quarter-turn transitions
between consecutive segments telescope to four times the winding number.
The integer bookkeeping is exact, so a returned value is rigorous whenever
every segment was classified.  A segment whose evaluation raises (a
denominator whose naive enclosure holds zero, say) is undecided and split
like one whose image meets the origin; smaller segments may evaluate.

The field F = Id - f is evaluated on ``(lo, hi)`` endpoint pairs: the map's
component pairs (``MapSpec.eval_pairs``) are subtracted from the box
coordinates with the pair kernels of ``interval``, each difference checked
as ``Interval`` subtraction checks it, so enclosures and errors equal those
of the ``Interval``-operator formula bit for bit.  An image ``Box`` is built
only for the segments kept as evidence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .geometry import HoledBallSpec, RectDomain, dist2_pair
from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    interval_error,
    mul_down,
    sub_down,
    sub_up,
)
from .localize import region_fixed_point_free
from .mapdsl import MapSpec, blend_with_parameter
from .subdivision import UNKNOWN, VERIFIED, adaptive_cover


class BoundaryZeroError(ArithmeticError):
    """Id - f could not be proven nonvanishing on the domain boundary."""


@dataclass
class DegreeResult:
    value: int
    verified: bool
    boundary_evidence: list  # (segment box, image box)
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


def _field_pairs(f: MapSpec, box: Box, t=None) -> list:
    """Enclosure of F = Id - f over a box, one (lo, hi) pair per coordinate."""
    out = []
    for x, (g_lo, g_hi) in zip(box.coords, f.eval_pairs(box, t)):
        lo, hi = sub_down(x.lo, g_hi), sub_up(x.hi, g_lo)
        if not -_INF < lo <= hi < _INF:
            raise interval_error(lo, hi)
        out.append((lo, hi))
    return out


def _pairs_box(pairs) -> Box:
    return Box(tuple(Interval(lo, hi) for lo, hi in pairs))


def degree_1d(f: MapSpec, domain, max_depth: int = 24) -> DegreeResult:
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
    evidence = []
    for endpoint in (iv.lo, iv.hi):
        pt = Box((Interval(endpoint),))
        field = _field_pairs(f, pt)
        evidence.append((pt, _pairs_box(field)))
        (lo, hi), = field
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
    return DegreeResult(value, True, evidence, segments=2, depth=0)


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


def _boundary_edges(rect: RectDomain):
    """Counterclockwise oriented edges as (fixed axis, fixed value,
    moving axis, start, end)."""
    (x, y) = rect.box.coords
    return (
        (1, y.lo, 0, x.lo, x.hi),  # bottom, left to right
        (0, x.hi, 1, y.lo, y.hi),  # right, bottom to top
        (1, y.hi, 0, x.hi, x.lo),  # top, right to left
        (0, x.lo, 1, y.hi, y.lo),  # left, top to bottom
    )


def winding_degree_2d(f: MapSpec, rect: RectDomain,
                      max_depth: int = 24, max_boxes: int = 40000) -> DegreeResult:
    """Winding number of Id - f along the rectangle boundary."""
    if f.dim != 2:
        raise DimensionMismatchError("winding_degree_2d needs a map of dimension 2")

    ordered = []  # half-plane code of each segment, counterclockwise
    evidence = []
    segments = 0
    depth_reached = 0
    boxes_used = 0

    for fix_axis, fix_val, mov_axis, start, end in _boundary_edges(rect):
        stack = [(min(start, end), max(start, end), 0)]
        leaves = []
        while stack:
            lo, hi, depth = stack.pop()
            boxes_used += 1
            if boxes_used > max_boxes:
                raise BoundaryZeroError(
                    "boundary subdivision budget exhausted before the field could be "
                    "proven nonvanishing"
                )
            depth_reached = max(depth_reached, depth)
            coords = [None, None]
            coords[fix_axis] = Interval(fix_val)
            coords[mov_axis] = Interval(lo, hi)
            seg = Box(tuple(coords))
            try:
                field = _field_pairs(f, seg)
            except DomainError:  # undecided here: split, smaller segments may evaluate
                hp = None
            else:
                hp = _half_plane(field)
            if hp is None:
                if depth >= max_depth or hi <= lo:
                    raise BoundaryZeroError(
                        "a boundary segment's field image could not be separated "
                        f"from the origin at depth {depth}"
                    )
                m = lo + 0.5 * (hi - lo)
                if not lo < m < hi:
                    raise BoundaryZeroError("boundary segment too thin to split")
                stack.append((m, hi, depth + 1))
                stack.append((lo, m, depth + 1))
                continue
            leaves.append((lo, hi, hp, seg, field))
        leaves.sort(key=lambda item: item[0], reverse=(start > end))
        for _lo, _hi, hp, seg, field in leaves:
            ordered.append(hp)
            evidence.append((seg, _pairs_box(field)))
            segments += 1

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
    return DegreeResult(total // 4, True, evidence, segments=segments, depth=depth_reached)


def _in_closed_disk(cx: float, cy: float, r: float):
    """The test that a box lies in the closed disk of radius r about (cx, cy)."""
    r2 = mul_down(r, r)

    def inside(box):
        x, y = box.coords
        return dist2_pair(x.lo, x.hi, y.lo, y.hi, cx, cy)[1] <= r2

    return inside


def holes_index_cross_check(T: MapSpec, spec: HoledBallSpec,
                            max_depth: int = 20, max_boxes: int = 60000):
    """Cross-check the 1 - n index by planar winding numbers on rectangles.

    Computes the winding of Id - T around a rectangle containing the outer
    ball and around a rectangle enclosing each hole, prunes the leftover
    regions (outer rectangle minus the ball, hole rectangles minus their
    balls) free of fixed points, and reports outer minus the hole sum.
    Returns a dict with value and verified; verified is False when any
    winding or pruning step could not be completed rigorously.
    """
    R = spec.radius
    pad = 0.125 * R
    verified = True
    try:
        outer_rect = RectDomain(Box.from_bounds([(-R - pad, R + pad)] * 2))
        outer = winding_degree_2d(T, outer_rect, max_depth=max_depth, max_boxes=max_boxes)
        value = outer.value
        verified &= outer.verified
        verified &= region_fixed_point_free(
            T, outer_rect.box, inside=_in_closed_disk(0.0, 0.0, R),
            max_depth=max_depth, max_boxes=max_boxes,
        )
        for cx, cy, r in spec.holes:
            gap = 0.25 * r
            hole_rect = RectDomain(
                Box.from_bounds([(cx - r - gap, cx + r + gap), (cy - r - gap, cy + r + gap)])
            )
            w = winding_degree_2d(T, hole_rect, max_depth=max_depth, max_boxes=max_boxes)
            value -= w.value
            verified &= w.verified
            verified &= region_fixed_point_free(
                T, hole_rect.box, inside=_in_closed_disk(cx, cy, r),
                max_depth=max_depth, max_boxes=max_boxes,
            )
    except BoundaryZeroError:
        return {"value": None, "verified": False}
    return {"value": value, "verified": bool(verified)}


def fixed_point_index(f: MapSpec, rect: RectDomain,
                      max_depth: int = 24, max_boxes: int = 40000) -> DegreeResult:
    """Fixed point index of f over a rectangle: degree of Id - f."""
    if f.dim == 1:
        return degree_1d(f, rect, max_depth=max_depth)
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

    for fix_axis, fix_val, mov_axis, start, end in _boundary_edges(rect):
        coords = [None, None]
        coords[fix_axis] = Interval(fix_val)
        coords[mov_axis] = Interval(min(start, end), max(start, end))
        seed = Box((Interval(0.0, 1.0),) + tuple(coords))
        cover = adaptive_cover([seed], classify, max_depth, max_boxes)
        if cover.status != "verified":
            return False
    return True
