"""Branch-and-prune localization of fixed points, and crossing sub-paths.

The pruning test discards a sub-box B as soon as some component of the
interval residual g(B) - B excludes zero, which proves B holds no fixed
point.  The components are walked in order on endpoint pairs and the walk
stops at the first one that excludes zero: one such component is the whole
proof, so the others are not evaluated.  Surviving boxes are bisected down
to the requested width, or until no coordinate has a float strictly inside
it to split at; each surviving leaf is upgraded to PROVEN when the
face conditions certify a fixed point inside it, and stays CANDIDATE
otherwise.  Discarded plus surviving boxes tile the input rectangle, so no
fixed point is ever lost.

A component whose evaluation raises a `DomainError` (a denominator whose
naive enclosure holds zero, say), or whose residual is not a finite pair,
proves nothing on B and is skipped: another component may still exclude
zero and discard B.  When none does, B is undecided and split, since
smaller boxes may evaluate.  A leaf that still has a raising component at
the requested width stays CANDIDATE with no residual bound.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

from .certify import CERTIFIED, certify_miranda
from .geometry import RectDomain
from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    abs_pair,
    sub_down,
    sub_up,
)
from .mapdsl import MapSpec
from .subdivision import IRRELEVANT, UNKNOWN, VERIFIED, adaptive_cover

PROVEN = "PROVEN"
CANDIDATE = "CANDIDATE"

# Pruning splits at 27/53 instead of the midpoint: grid points then have odd
# denominators, so dyadic fixed points (0.5, 0.25, ...) of user maps never
# sit exactly on a subdivision boundary, where every touching leaf would be
# an equality case that no strict-margin certificate can prove.
_SPLIT_FRACTION = 27.0 / 53.0


def _split_box(box: Box, axis: int):
    c = box.coords[axis]
    m = c.lo + _SPLIT_FRACTION * (c.hi - c.lo)
    if not c.lo < m < c.hi:
        return box.bisect(axis)
    return (
        box.replace_coord(axis, Interval(c.lo, m)),
        box.replace_coord(axis, Interval(m, c.hi)),
    )


class NoCrossingError(ValueError):
    pass


@dataclass(frozen=True)
class Enclosure:
    box: Box
    status: str  # PROVEN | CANDIDATE
    residual: "Interval | None"  # None: the evaluation over the box raised

    def to_json_dict(self):
        return {
            "box": self.box.bounds(),
            "status": self.status,
            "residual": None if self.residual is None
            else [self.residual.lo, self.residual.hi],
        }


@dataclass
class LocalizeResult:
    enclosures: list
    total_volume: float
    discarded_volume: float
    surviving_volume: float
    boxes_examined: int
    exhausted: bool

    @property
    def proven(self):
        return [e for e in self.enclosures if e.status == PROVEN]

    def to_json_dict(self):
        return {
            "enclosures": [e.to_json_dict() for e in self.enclosures],
            "coverage": {
                "total_volume": self.total_volume,
                "discarded_volume": self.discarded_volume,
                "surviving_volume": self.surviving_volume,
            },
            "boxes_examined": self.boxes_examined,
            "exhausted": self.exhausted,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


_PRUNED = "pruned"
_INF = math.inf


def _residual_pairs(f: MapSpec, xs, prune: bool = True):
    """The residual pairs (lo, hi) of g(B) - B over the box with coordinates
    xs, component by component, for a map f that takes no parameter.

    Returns _PRUNED at the first component whose residual excludes zero
    (only when prune), None when some component raised, and the list of
    pairs otherwise.  A component raises when its evaluation raises a
    `DomainError` or its residual is not a pair that Interval(lo, hi)
    accepts (lo <= hi always holds, so only a non-finite pair fails).
    """
    pairs = []
    raised = False
    for comp, x in zip(f.components, xs):
        try:
            lo, hi = comp.eval_pair(xs, None)
        except DomainError:
            raised = True
            continue
        lo = sub_down(lo, x.hi)
        hi = sub_up(hi, x.lo)
        if not -_INF < lo <= hi < _INF:
            raised = True
        elif prune and (lo > 0.0 or hi < 0.0):
            return _PRUNED
        else:
            pairs.append((lo, hi))
    return None if raised else pairs


def _residual_bound(pairs) -> "Interval | None":
    if pairs is None:
        return None
    lo = 0.0
    hi = 0.0
    for p in pairs:
        a_lo, a_hi = abs_pair(*p)
        lo = max(lo, a_lo)
        hi = max(hi, a_hi)
    return Interval(lo, hi)


def localize_fixed_points(g: MapSpec, rect: RectDomain, tol: float,
                          budget: int = 200_000, t: "Interval | None" = None,
                          upgrade: bool = True) -> LocalizeResult:
    """Enclose every fixed point of g inside the rectangle.

    For parametrized maps pass the parameter range as the interval t:
    surviving boxes then enclose fixed points of g(t, .) for every t in
    that range jointly.  Budget counts processed boxes; on exhaustion the
    unprocessed queue is returned as CANDIDATE enclosures and the result is
    flagged.  Output order is canonical (lexicographic lower corner).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if g.dim != rect.dim:
        raise DimensionMismatchError(f"map of dim {g.dim} over rectangle of dim {rect.dim}")
    if g.has_param and t is None:
        raise ValueError("parametrized map needs the parameter interval t")
    # Bind the parameter once: subtrees free of x are then evaluated once
    # per call, not on every box.
    f = g if t is None else g.bind_interval(t)

    queue = deque([rect.box])
    survivors = []
    discarded_volume = 0.0
    examined = 0
    exhausted = False

    while queue:
        if examined >= budget:
            exhausted = True
            break
        box = queue.popleft()
        examined += 1
        pairs = _residual_pairs(f, box.coords)
        if pairs is _PRUNED:
            discarded_volume += box.volume()
            continue
        axis = None if box.width <= tol else box.split_axis()
        if axis is None:
            survivors.append((box, _residual_bound(pairs)))
            continue
        # Undecided, or a component raised: split, smaller boxes may evaluate.
        left, right = _split_box(box, axis)
        queue.append(left)
        queue.append(right)

    # Budget exhausted: the unprocessed boxes are kept as candidates, not
    # pruned, with the residual bound over all their components.
    for box in queue:
        survivors.append((box, _residual_bound(_residual_pairs(f, box.coords, prune=False))))

    enclosures = []
    for box, residual in survivors:
        status = CANDIDATE
        if upgrade and not g.has_param and residual is not None:
            try:
                cert = certify_miranda(g, RectDomain(box), "auto",
                                       max_depth=6, max_boxes=512)
                if cert.outcome == CERTIFIED:
                    status = PROVEN
            except ValueError:
                pass
        enclosures.append(Enclosure(box, status, residual))

    enclosures.sort(key=lambda e: e.box.key())
    surviving_volume = math.fsum(e.box.volume() for e in enclosures)
    return LocalizeResult(
        enclosures=enclosures,
        total_volume=rect.box.volume(),
        discarded_volume=discarded_volume,
        surviving_volume=surviving_volume,
        boxes_examined=examined,
        exhausted=exhausted,
    )


def region_fixed_point_free(g: MapSpec, root: Box, inside,
                            max_depth: int = 20, max_boxes: int = 60000) -> bool:
    """Prove the part of root outside `inside` holds no fixed point of g.

    `inside(box) -> bool` must certify that a box lies entirely within the
    excluded region.  Returns True when every remaining box was pruned by
    the residual test, False when rigor ran out.
    """

    if g.has_param:
        raise ValueError("map takes a parameter t but none was supplied")
    if root.dim != g.dim:
        raise DimensionMismatchError(f"box of dimension {root.dim} for map of dimension {g.dim}")

    def classify(box):
        if inside(box):
            return IRRELEVANT, None
        if _residual_pairs(g, box.coords) is _PRUNED:
            return VERIFIED, None
        return UNKNOWN, None  # undecided, or a component raised: split

    cover = adaptive_cover([root], classify, max_depth, max_boxes)
    return cover.status == "verified"


# ---------------------------------------------------------------------------
# Piecewise-linear crossing sub-paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSamples:
    """Sampled path: nodes (s, point) with s strictly increasing 0 -> 1."""

    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two samples")
        params = [s for s, _p in self.nodes]
        if params[0] != 0.0 or params[-1] != 1.0:
            raise ValueError("path parameters must run from 0 to 1")
        if any(b <= a for a, b in zip(params, params[1:])):
            raise ValueError("path parameters must be strictly increasing")
        dim = len(self.nodes[0][1])
        if any(len(p) != dim for _s, p in self.nodes):
            raise DimensionMismatchError("inconsistent point dimensions along the path")

    @classmethod
    def from_points(cls, params, points):
        return cls(tuple((float(s), tuple(float(x) for x in p))
                         for s, p in zip(params, points)))


def extract_crossing_subpath(path: PathSamples, func: MapSpec, component: int,
                             a: float, b: float):
    """Find [s0, s1] on which h(s) = func(path(s))[component] sweeps [a, b].

    For an ascending crossing (h(0) <= a, h(1) >= b) the returned pair has
    h(s0) = a, h(s1) = b and h within [a, b] in between; the descending
    case is symmetric with the roles of a and b swapped.  When several full
    traversals exist the one with the largest s0 is returned.  Values are
    computed on the piecewise-linear interpolant of the sampled h values,
    exactly on linear pieces up to float rounding.
    """
    if a >= b:
        raise ValueError("need a < b")
    svals = [s for s, _p in path.nodes]
    hvals = [func.eval_real(p)[component] for _s, p in path.nodes]

    if hvals[0] <= a and hvals[-1] >= b:
        return _last_traversal(svals, hvals, a, b)
    if hvals[0] >= b and hvals[-1] <= a:
        neg_h = [-v for v in hvals]
        return _last_traversal(svals, neg_h, -b, -a)
    raise NoCrossingError(
        f"path values start at {hvals[0]} and end at {hvals[-1]}, "
        f"never sweeping [{a}, {b}]"
    )


def _last_traversal(svals, hvals, a, b):
    s0 = None
    best = None
    for k in range(len(svals) - 1):
        sk, sk1 = svals[k], svals[k + 1]
        hk, hk1 = hvals[k], hvals[k + 1]
        if hk1 == hk:
            if hk == a:
                s0 = sk1
            elif hk == b:
                if s0 is not None:
                    best = (s0, sk)
                    s0 = None
            elif hk < a:
                s0 = None
            continue
        slope = (hk1 - hk) / (sk1 - sk)

        def s_at(level):
            s = sk + (level - hk) / slope
            return min(max(s, sk), sk1)

        events = []
        if min(hk, hk1) <= a <= max(hk, hk1):
            events.append((s_at(a), "a"))
        if min(hk, hk1) <= b <= max(hk, hk1):
            events.append((s_at(b), "b"))
        events.sort()
        for s, tag in events:
            if tag == "a":
                s0 = None if slope < 0 else s
            else:
                if s0 is not None:
                    best = (s0, s)
                    s0 = None
    if best is None:
        raise NoCrossingError(f"no full traversal of [{a}, {b}] found")
    return best
