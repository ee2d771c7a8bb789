"""Three-valued certificates for fixed-point boundary hypotheses.

Each certifier subdivides the relevant faces (or slice covers) adaptively
and checks the theorem's boundary inequalities in interval arithmetic:

  * CERTIFIED      every required inequality holds with a strict interval
                   margin over a finite cover of the face; the target
                   domain then provably contains a fixed point.
  * REFUTED        some required inequality fails strictly on a whole
                   sub-box that provably meets the constraint set; a
                   witness point is reported and re-verified.
  * INDETERMINATE  neither could be established within the work budget.
                   Inequalities that hold only with exact equality land
                   here by design: outward rounding proves strict-margin
                   facts only, and a rigorous tool abstains otherwise.

Containment conditions (cylinder base containment, cone invariance, ball
containment) target closed sets and are verified with non-strict interval
comparisons; the theorem hypotheses themselves need strict margins.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from .geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    HoledBallSpec,
    RectDomain,
    compressive_to_expansive,
    face,
)
from .interval import Box, DimensionMismatchError, Interval, mul_down, mul_up
from .mapdsl import MapSpec
from .subdivision import IRRELEVANT, UNKNOWN, VERIFIED, VIOLATED, adaptive_cover

CERTIFIED = "CERTIFIED"
REFUTED = "REFUTED"
INDETERMINATE = "INDETERMINATE"


class UnsupportedDomainError(ValueError):
    pass


class SingleHoleError(ValueError):
    pass


ANNULUS_REFUSAL = (
    "annulus domains are refused: the expansive/compressive annulus fixed point "
    "statement is false in finite dimension (a plane rotation about the origin is a "
    "fixed-point-free counterexample); use a cone shell domain instead"
)


@dataclass(frozen=True)
class EvidenceEntry:
    face: str
    box: Box
    bound: Interval
    relation: str  # '<=' | '>=' | 'in' | 'unresolved'
    threshold: float

    def to_json_dict(self):
        return {
            "face": self.face,
            "box": self.box.bounds(),
            "bound": [self.bound.lo, self.bound.hi],
            "relation": self.relation,
            "threshold": self.threshold,
        }


@dataclass
class CertStats:
    boxes: int = 0
    depth: int = 0
    seconds: float = 0.0


@dataclass
class Certificate:
    kind: str
    outcome: str
    directions: "tuple | None"
    domain: object
    evidence: list
    witness: "tuple | None"
    stats: CertStats
    index: "int | None" = None

    def to_json_dict(self, stable=False):
        stats = {"boxes": self.stats.boxes, "depth": self.stats.depth}
        if not stable:
            stats["seconds"] = self.stats.seconds
        return {
            "kind": self.kind,
            "outcome": self.outcome,
            "directions": list(self.directions) if self.directions else None,
            "domain": self.domain.to_json_dict(),
            "index": self.index,
            "evidence": [e.to_json_dict() for e in self.evidence],
            "witness": list(self.witness) if self.witness else None,
            "stats": stats,
        }

    def to_json(self, stable=False):
        return json.dumps(self.to_json_dict(stable=stable), indent=2)


def _sorted_evidence(entries):
    return sorted(entries, key=lambda e: (e.face, e.box.key()))


# ---------------------------------------------------------------------------
# One-sided inequality over a region
# ---------------------------------------------------------------------------


def _check_bound(value_fn, seeds, face_id, relation, threshold, max_depth, max_boxes, stats):
    """Verify value_fn(box) relation threshold over all seed boxes.

    Returns (status, evidence, witness).  Verification needs a strict
    interval margin; refutation needs the whole sub-box range strictly on
    the wrong side, and the reported witness (sub-box midpoint) is
    re-verified by a point interval evaluation.
    """

    def classify(box):
        bound = value_fn(box)
        if relation == "<=":
            if bound.hi < threshold:
                return VERIFIED, bound
            if bound.lo > threshold:
                return VIOLATED, bound
        else:
            if bound.lo > threshold:
                return VERIFIED, bound
            if bound.hi < threshold:
                return VIOLATED, bound
        return UNKNOWN, bound

    cover = adaptive_cover(seeds, classify, max_depth, max_boxes)
    stats.boxes += cover.boxes_examined
    stats.depth = max(stats.depth, cover.depth_reached)
    evidence = [
        EvidenceEntry(face_id, box, bound, relation, threshold)
        for box, bound in cover.verified
    ]
    if cover.status == "violated":
        box, bound = cover.violation
        witness = box.midpoint()
        point = Box(tuple(Interval(x) for x in witness))
        at_point = value_fn(point)
        ok = at_point.lo > threshold if relation == "<=" else at_point.hi < threshold
        if not ok:  # box-wide violation should imply the point violates
            return INDETERMINATE, evidence, None
        evidence.append(EvidenceEntry(face_id, box, bound, relation, threshold))
        return REFUTED, evidence, witness
    if cover.status == "indeterminate":
        evidence.extend(
            EvidenceEntry(face_id, box, bound if bound is not None else value_fn(box),
                          "unresolved", threshold)
            for box, bound in cover.unresolved[:8]
        )
        return INDETERMINATE, evidence, None
    return CERTIFIED, evidence, None


def _combine(statuses):
    if any(s == REFUTED for s in statuses):
        return REFUTED
    if all(s == CERTIFIED for s in statuses):
        return CERTIFIED
    return INDETERMINATE


def _require_plain_map(m: MapSpec):
    if m.has_param:
        raise ValueError("certification expects a parameter-free map")


# ---------------------------------------------------------------------------
# Rectangle certificates
# ---------------------------------------------------------------------------


def _face_conditions(rect: RectDomain, axis: int, direction: str):
    a = rect.box.coords[axis].lo
    b = rect.box.coords[axis].hi
    lo_face = face(rect, axis, "-").as_box
    hi_face = face(rect, axis, "+").as_box
    if direction == "e":
        return ((lo_face, "<=", a, f"x{axis + 1}-"), (hi_face, ">=", b, f"x{axis + 1}+"))
    return ((lo_face, ">=", a, f"x{axis + 1}-"), (hi_face, "<=", b, f"x{axis + 1}+"))


def certify_miranda(g: MapSpec, rect: RectDomain, directions="auto",
                    max_depth: int = 24, max_boxes: int = 20000) -> Certificate:
    """Check the per-coordinate expansive/compressive face conditions.

    directions may be "auto" or a sequence of 'e'/'c', one per coordinate.
    In auto mode the compressive pair is tried before the expansive pair.
    A coordinate counts as REFUTED in auto mode only when both pairs fail
    provably.
    """
    _require_plain_map(g)
    if g.dim != rect.dim:
        raise DimensionMismatchError(
            f"map of dim {g.dim} over rectangle of dim {rect.dim}"
        )
    if directions != "auto":
        directions = tuple(directions)
        if len(directions) != g.dim or any(d not in ("e", "c") for d in directions):
            raise ValueError("directions must be 'auto' or a tuple of 'e'/'c'")

    t0 = time.perf_counter()
    stats = CertStats()
    evidence = []
    assigned = []
    witness = None
    statuses = []

    def run_direction(axis, d):
        entries = []
        st = []
        wit = None
        for box, rel, thr, fid in _face_conditions(rect, axis, d):
            value_fn = lambda bx: g.eval_component_interval(axis, bx)
            s, ev, w = _check_bound(value_fn, [box], fid, rel, thr,
                                    max_depth, max_boxes, stats)
            entries.extend(ev)
            st.append(s)
            if w is not None and wit is None:
                wit = w
            if s == REFUTED:
                break
        return _combine(st), entries, wit

    for axis in range(g.dim):
        if directions == "auto":
            status_c, ev_c, wit_c = run_direction(axis, "c")
            if status_c == CERTIFIED:
                assigned.append("c")
                statuses.append(CERTIFIED)
                evidence.extend(ev_c)
                continue
            status_e, ev_e, wit_e = run_direction(axis, "e")
            if status_e == CERTIFIED:
                assigned.append("e")
                statuses.append(CERTIFIED)
                evidence.extend(ev_e)
                continue
            assigned.append(None)
            if status_c == REFUTED and status_e == REFUTED:
                statuses.append(REFUTED)
                evidence.extend(ev_c)
                evidence.extend(ev_e)
                if witness is None:
                    witness = wit_c or wit_e
            else:
                statuses.append(INDETERMINATE)
                evidence.extend(ev_c)
                evidence.extend(ev_e)
        else:
            d = directions[axis]
            status, ev, wit = run_direction(axis, d)
            assigned.append(d if status == CERTIFIED else None)
            statuses.append(status)
            evidence.extend(ev)
            if wit is not None and witness is None:
                witness = wit

    outcome = _combine(statuses)
    stats.seconds = time.perf_counter() - t0
    return Certificate(
        kind="miranda",
        outcome=outcome,
        directions=tuple(assigned),
        domain=rect,
        evidence=_sorted_evidence(evidence),
        witness=witness if outcome == REFUTED else None,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Cylinder certificates
# ---------------------------------------------------------------------------


def certify_cylinder(T: MapSpec, cyl: CylinderSpec, form: str,
                     max_depth: int = 24, max_boxes: int = 20000) -> Certificate:
    """Check the height-coordinate conditions on the cylinder bases.

    Also verifies that the base components map the whole cylinder into the
    base (the theorem assumes the map targets R x A; here it is checked).
    The compressive form delegates to the expansive form of the reflected
    map 2*x1 - T1, so compressive and expansive certificates agree by
    construction.
    """
    _require_plain_map(T)
    if T.dim != cyl.dim:
        raise DimensionMismatchError(f"map of dim {T.dim} over cylinder of dim {cyl.dim}")
    if form == "compressive":
        inner = certify_cylinder(compressive_to_expansive(T), cyl, "expansive",
                                 max_depth=max_depth, max_boxes=max_boxes)
        inner.kind = "cylinder_compressive"
        return inner
    if form != "expansive":
        raise ValueError("form must be 'expansive' or 'compressive'")

    t0 = time.perf_counter()
    stats = CertStats()
    evidence = []
    statuses = []
    witness = None

    # Containment of the base components over the whole cylinder.
    full = cyl.full_box()
    for j in range(cyl.base.dim):
        target = cyl.base.coords[j]
        comp = 1 + j

        def containment(box, comp=comp, target=target):
            img = T.eval_component_interval(comp, box)
            if target.lo <= img.lo and img.hi <= target.hi:
                return VERIFIED, img
            if img.lo > target.hi or img.hi < target.lo:
                return VIOLATED, img
            return UNKNOWN, img

        cover = adaptive_cover([full], containment, max_depth, max_boxes)
        stats.boxes += cover.boxes_examined
        stats.depth = max(stats.depth, cover.depth_reached)
        fid = "interior"
        evidence.extend(
            EvidenceEntry(fid, box, img, "in", target.hi) for box, img in cover.verified
        )
        if cover.status == "violated":
            box, img = cover.violation
            witness = box.midpoint()
            point = Box(tuple(Interval(x) for x in witness))
            at_point = T.eval_component_interval(comp, point)
            if at_point.lo > target.hi or at_point.hi < target.lo:
                evidence.append(EvidenceEntry(fid, box, img, "in", target.hi))
                statuses.append(REFUTED)
                break
            witness = None
            statuses.append(INDETERMINATE)
            break
        statuses.append(CERTIFIED if cover.status == "verified" else INDETERMINATE)
        if cover.status == "indeterminate":
            evidence.extend(
                EvidenceEntry(fid, box, img, "unresolved", target.hi)
                for box, img in cover.unresolved[:8]
            )

    # Height conditions on the bases: T1 <= a on the left, T1 >= b on the right.
    if REFUTED not in statuses:
        a, b = cyl.t_range.lo, cyl.t_range.hi
        for seed, rel, thr, fid in (
            (cyl.left_base(), "<=", a, "left"),
            (cyl.right_base(), ">=", b, "right"),
        ):
            value_fn = lambda bx: T.eval_component_interval(0, bx)
            s, ev, w = _check_bound(value_fn, [seed], fid, rel, thr,
                                    max_depth, max_boxes, stats)
            statuses.append(s)
            evidence.extend(ev)
            if w is not None and witness is None:
                witness = w
            if s == REFUTED:
                break

    outcome = _combine(statuses)
    stats.seconds = time.perf_counter() - t0
    return Certificate(
        kind="cylinder_expansive",
        outcome=outcome,
        directions=None,
        domain=cyl,
        evidence=_sorted_evidence(evidence),
        witness=witness if outcome == REFUTED else None,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Cone shell certificates
# ---------------------------------------------------------------------------


def _level_range_guarantee(functional, box: Box):
    """Rigorous enclosure of [min l, max l] over an orthant box.

    The shell functionals are increasing in every coordinate on the
    orthant, so the extremes sit at the corner points; point interval
    evaluations bound them from both sides.
    """
    lo_corner = Box(tuple(Interval(c.lo) for c in box.coords))
    hi_corner = Box(tuple(Interval(c.hi) for c in box.coords))
    return functional.value_interval(lo_corner), functional.value_interval(hi_corner)


def certify_cone_shell(T: MapSpec, spec: ConeShellSpec, form: str,
                       max_depth: int = 24, max_boxes: int = 40000) -> Certificate:
    """Check the level-set conditions of the cone fixed point theorems.

    The two shell slices {l = a} and {l = b} are covered by adaptively
    refined boxes of the orthant bounding box; on every cover box the
    one-sided bound l(T(x)) vs the slice level is checked over the whole
    box, a sound superset of the slice.  Cone invariance of T over the
    shell is verified as well (componentwise T_i >= 0).
    """
    _require_plain_map(T)
    if T.dim != spec.dim:
        raise DimensionMismatchError(f"map of dim {T.dim} over shell of dim {spec.dim}")
    if form not in ("expansive", "compressive"):
        raise ValueError("form must be 'expansive' or 'compressive'")

    t0 = time.perf_counter()
    stats = CertStats()
    evidence = []
    statuses = []
    witness = None
    f = spec.functional
    root = spec.bounding_box()

    def image_level(box):
        return f.value_interval(T.eval_interval(box))

    def slice_point_guaranteed(box, level):
        lo_val, hi_val = _level_range_guarantee(f, box)
        return lo_val.hi <= level and hi_val.lo >= level

    def shell_point_guaranteed(box):
        lo_val, hi_val = _level_range_guarantee(f, box)
        return lo_val.hi <= spec.b and hi_val.lo >= spec.a

    def find_level_point(box, level):
        # Bisect along the box diagonal; l is monotone there.
        lo = [c.lo for c in box.coords]
        hi = [c.hi for c in box.coords]
        s0, s1 = 0.0, 1.0
        for _ in range(80):
            sm = 0.5 * (s0 + s1)
            p = [a + sm * (b - a) for a, b in zip(lo, hi)]
            if f.value(p) < level:
                s0 = sm
            else:
                s1 = sm
        sm = 0.5 * (s0 + s1)
        return tuple(a + sm * (b - a) for a, b in zip(lo, hi))

    # Cone invariance: every component stays nonnegative over the shell cover.
    cone_status = CERTIFIED
    for comp in range(spec.dim):

        def invariance(box, comp=comp):
            lvl = f.value_interval(box)
            if lvl.hi < spec.a or lvl.lo > spec.b:
                return IRRELEVANT, None
            img = T.eval_component_interval(comp, box)
            if img.lo >= 0.0:
                return VERIFIED, img
            if img.hi < 0.0 and shell_point_guaranteed(box):
                return VIOLATED, img
            return UNKNOWN, img

        cover = adaptive_cover([root], invariance, max_depth, max_boxes)
        stats.boxes += cover.boxes_examined
        stats.depth = max(stats.depth, cover.depth_reached)
        evidence.extend(
            EvidenceEntry("cone", box, img, ">=", 0.0) for box, img in cover.verified
        )
        if cover.status == "violated":
            box, img = cover.violation
            mid_shell = 0.5 * (spec.a + spec.b)
            lo_val, hi_val = _level_range_guarantee(f, box)
            level = min(max(mid_shell, lo_val.hi), hi_val.lo)
            witness = find_level_point(box, level)
            point = Box(tuple(Interval(x) for x in witness))
            if T.eval_component_interval(comp, point).hi < 0.0:
                evidence.append(EvidenceEntry("cone", box, img, ">=", 0.0))
                cone_status = REFUTED
                break
            witness = None
            cone_status = INDETERMINATE
            break
        if cover.status == "indeterminate":
            cone_status = INDETERMINATE
            evidence.extend(
                EvidenceEntry("cone", box, img, "unresolved", 0.0)
                for box, img in cover.unresolved[:8]
            )
    statuses.append(cone_status)

    if cone_status != REFUTED:
        if form == "expansive":
            slice_specs = ((spec.a, "<=", "slice-a"), (spec.b, ">=", "slice-b"))
        else:
            slice_specs = ((spec.a, ">=", "slice-a"), (spec.b, "<=", "slice-b"))
        for level, rel, fid in slice_specs:

            def slice_check(box, level=level, rel=rel):
                lvl = f.value_interval(box)
                if lvl.hi < level or lvl.lo > level:
                    return IRRELEVANT, None
                bound = image_level(box)
                if rel == "<=":
                    if bound.hi < level:
                        return VERIFIED, bound
                    if bound.lo > level and slice_point_guaranteed(box, level):
                        return VIOLATED, bound
                else:
                    if bound.lo > level:
                        return VERIFIED, bound
                    if bound.hi < level and slice_point_guaranteed(box, level):
                        return VIOLATED, bound
                return UNKNOWN, bound

            cover = adaptive_cover([root], slice_check, max_depth, max_boxes)
            stats.boxes += cover.boxes_examined
            stats.depth = max(stats.depth, cover.depth_reached)
            evidence.extend(
                EvidenceEntry(fid, box, bound, rel, level) for box, bound in cover.verified
            )
            if cover.status == "violated":
                box, bound = cover.violation
                witness = find_level_point(box, level)
                point = Box(tuple(Interval(x) for x in witness))
                at_point = image_level(point)
                violates = at_point.lo > level if rel == "<=" else at_point.hi < level
                if not violates:
                    witness = None
                    statuses.append(INDETERMINATE)
                    break
                evidence.append(EvidenceEntry(fid, box, bound, rel, level))
                statuses.append(REFUTED)
                break
            statuses.append(CERTIFIED if cover.status == "verified" else INDETERMINATE)
            if cover.status == "indeterminate":
                evidence.extend(
                    EvidenceEntry(fid, box, bound, "unresolved", level)
                    for box, bound in cover.unresolved[:8]
                )

    outcome = _combine(statuses)
    stats.seconds = time.perf_counter() - t0
    return Certificate(
        kind=f"cone_{form}",
        outcome=outcome,
        directions=None,
        domain=spec,
        evidence=_sorted_evidence(evidence),
        witness=witness if outcome == REFUTED else None,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Holed-ball certificates
# ---------------------------------------------------------------------------


def _dist2_interval(box: Box, cx: float, cy: float) -> Interval:
    dx = box.coords[0] - Interval(cx)
    dy = box.coords[1] - Interval(cy)
    return dx.pow_int(2) + dy.pow_int(2)


def _image_dist2(T: MapSpec, box: Box, cx: float, cy: float) -> Interval:
    img = T.eval_interval(box)
    dx = img.coords[0] - Interval(cx)
    dy = img.coords[1] - Interval(cy)
    return dx.pow_int(2) + dy.pow_int(2)


def certify_holes(T: MapSpec, spec: HoledBallSpec,
                  max_depth: int = 24, max_boxes: int = 60000) -> Certificate:
    """Check the holed-ball boundary conditions and report the index 1 - n.

    Verifies T(L) inside the closed outer ball over a cover of L, and
    T(boundary circle of each hole) inside that closed hole, over covers of
    the circles.  On success the fixed point count over the interior is the
    integer 1 - n, which is nonzero exactly when the hole count differs
    from 1, and a fixed point exists in L.
    """
    _require_plain_map(T)
    if T.dim != 2:
        raise DimensionMismatchError("holed-ball certification needs a map of dim 2")
    n = len(spec.holes)
    if n == 1:
        raise SingleHoleError(
            "a single hole is refused: the index 1 - n vanishes for n = 1 and the "
            "constant map onto the hole centre satisfies every boundary condition "
            "without any fixed point in the domain"
        )

    t0 = time.perf_counter()
    stats = CertStats()
    evidence = []
    statuses = []
    witness = None
    R = spec.radius
    R2_lo, R2_hi = mul_down(R, R), mul_up(R, R)
    root = Box.from_bounds([(-R, R), (-R, R)])

    def in_domain_guaranteed(box):
        # Some point of the box certainly lies in L: use the centre.
        mid = box.midpoint()
        p = Box(tuple(Interval(x) for x in mid))
        if _dist2_interval(p, 0.0, 0.0).hi > R2_lo:
            return None
        for cx, cy, r in spec.holes:
            if _dist2_interval(p, cx, cy).lo < mul_up(r, r):
                return None
        return mid

    def outer_check(box):
        d2 = _dist2_interval(box, 0.0, 0.0)
        if d2.lo > R2_hi:
            return IRRELEVANT, None  # outside the ball
        for cx, cy, r in spec.holes:
            if _dist2_interval(box, cx, cy).hi < mul_down(r, r):
                return IRRELEVANT, None  # strictly inside an open hole
        img2 = _image_dist2(T, box, 0.0, 0.0)
        if img2.hi <= R2_lo:
            return VERIFIED, img2
        if img2.lo > R2_hi and in_domain_guaranteed(box) is not None:
            return VIOLATED, img2
        return UNKNOWN, img2

    cover = adaptive_cover([root], outer_check, max_depth, max_boxes)
    stats.boxes += cover.boxes_examined
    stats.depth = max(stats.depth, cover.depth_reached)
    evidence.extend(
        EvidenceEntry("outer", box, img2, "<=", R2_lo) for box, img2 in cover.verified
    )
    if cover.status == "violated":
        box, img2 = cover.violation
        witness = in_domain_guaranteed(box)
        point = Box(tuple(Interval(x) for x in witness))
        if _image_dist2(T, point, 0.0, 0.0).lo > R2_hi:
            evidence.append(EvidenceEntry("outer", box, img2, "<=", R2_lo))
            statuses.append(REFUTED)
        else:
            witness = None
            statuses.append(INDETERMINATE)
    else:
        statuses.append(CERTIFIED if cover.status == "verified" else INDETERMINATE)
        if cover.status == "indeterminate":
            evidence.extend(
                EvidenceEntry("outer", box, img2, "unresolved", R2_lo)
                for box, img2 in cover.unresolved[:8]
            )

    if REFUTED not in statuses:
        for idx, (cx, cy, r) in enumerate(spec.holes):
            r2_lo, r2_hi = mul_down(r, r), mul_up(r, r)
            seed = Box.from_bounds([(cx - r, cx + r), (cy - r, cy + r)])
            fid = f"hole-{idx}"

            def circle_point(box):
                # Point of the box on the circle, via the radial segment
                # between the nearest and farthest box points.
                near = tuple(
                    min(max(c0, c.lo), c.hi) for c, c0 in zip(box.coords, (cx, cy))
                )
                far = tuple(
                    c.lo if abs(c.lo - c0) >= abs(c.hi - c0) else c.hi
                    for c, c0 in zip(box.coords, (cx, cy))
                )
                s0, s1 = 0.0, 1.0
                for _ in range(80):
                    sm = 0.5 * (s0 + s1)
                    p = tuple(a + sm * (b - a) for a, b in zip(near, far))
                    if math.hypot(p[0] - cx, p[1] - cy) < r:
                        s0 = sm
                    else:
                        s1 = sm
                sm = 0.5 * (s0 + s1)
                return tuple(a + sm * (b - a) for a, b in zip(near, far))

            def circle_guaranteed(box):
                near = tuple(
                    min(max(c0, c.lo), c.hi) for c, c0 in zip(box.coords, (cx, cy))
                )
                far = tuple(
                    c.lo if abs(c.lo - c0) >= abs(c.hi - c0) else c.hi
                    for c, c0 in zip(box.coords, (cx, cy))
                )
                pn = Box(tuple(Interval(x) for x in near))
                pf = Box(tuple(Interval(x) for x in far))
                return (
                    _dist2_interval(pn, cx, cy).hi <= r2_lo
                    and _dist2_interval(pf, cx, cy).lo >= r2_hi
                )

            def hole_check(box, cx=cx, cy=cy, r2_lo=r2_lo, r2_hi=r2_hi):
                d2 = _dist2_interval(box, cx, cy)
                if d2.hi < r2_lo or d2.lo > r2_hi:
                    return IRRELEVANT, None  # box misses the circle
                img2 = _image_dist2(T, box, cx, cy)
                if img2.hi <= r2_lo:
                    return VERIFIED, img2
                if img2.lo > r2_hi and circle_guaranteed(box):
                    return VIOLATED, img2
                return UNKNOWN, img2

            cover = adaptive_cover([seed], hole_check, max_depth, max_boxes)
            stats.boxes += cover.boxes_examined
            stats.depth = max(stats.depth, cover.depth_reached)
            evidence.extend(
                EvidenceEntry(fid, box, img2, "<=", r2_lo)
                for box, img2 in cover.verified
            )
            if cover.status == "violated":
                box, img2 = cover.violation
                witness = circle_point(box)
                point = Box(tuple(Interval(x) for x in witness))
                if _image_dist2(T, point, cx, cy).lo > r2_hi:
                    evidence.append(EvidenceEntry(fid, box, img2, "<=", r2_lo))
                    statuses.append(REFUTED)
                    break
                witness = None
                statuses.append(INDETERMINATE)
                break
            statuses.append(CERTIFIED if cover.status == "verified" else INDETERMINATE)
            if cover.status == "indeterminate":
                evidence.extend(
                    EvidenceEntry(fid, box, img2, "unresolved", r2_lo)
                    for box, img2 in cover.unresolved[:8]
                )

    outcome = _combine(statuses)
    stats.seconds = time.perf_counter() - t0
    return Certificate(
        kind="holes",
        outcome=outcome,
        directions=None,
        domain=spec,
        evidence=_sorted_evidence(evidence),
        witness=witness if outcome == REFUTED else None,
        stats=stats,
        index=(1 - n) if outcome == CERTIFIED else None,
    )


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
    from .degree import BoundaryZeroError, winding_degree_2d
    from .localize import region_fixed_point_free

    R = spec.radius
    pad = 0.125 * R
    verified = True
    try:
        outer_rect = RectDomain(Box.from_bounds([(-R - pad, R + pad)] * 2))
        outer = winding_degree_2d(T, outer_rect, max_depth=max_depth, max_boxes=max_boxes)
        value = outer.value
        verified &= outer.verified
        verified &= region_fixed_point_free(
            T, outer_rect.box,
            inside=lambda box: _dist2_interval(box, 0.0, 0.0).hi <= mul_down(R, R),
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
                T, hole_rect.box,
                inside=lambda box, cx=cx, cy=cy, r=r: _dist2_interval(box, cx, cy).hi
                <= mul_down(r, r),
                max_depth=max_depth, max_boxes=max_boxes,
            )
    except BoundaryZeroError:
        return {"value": None, "verified": False}
    return {"value": value, "verified": bool(verified)}


# ---------------------------------------------------------------------------
# Dispatch by domain kind
# ---------------------------------------------------------------------------


def certify_problem(m: MapSpec, domain, form: str = "auto",
                    max_depth: int = 24, max_boxes: "int | None" = None) -> Certificate:
    """Certify a map over a parsed domain; form applies where meaningful."""
    kw = {} if max_boxes is None else {"max_boxes": max_boxes}
    if isinstance(domain, RectDomain):
        if form == "auto":
            directions = "auto"
        elif form == "expansive":
            directions = ("e",) * m.dim
        elif form == "compressive":
            directions = ("c",) * m.dim
        else:
            raise ValueError(f"unknown form {form!r}")
        return certify_miranda(m, domain, directions, max_depth=max_depth, **kw)
    if isinstance(domain, CylinderSpec):
        return _auto_form(certify_cylinder, m, domain, form, max_depth, kw)
    if isinstance(domain, ConeShellSpec):
        return _auto_form(certify_cone_shell, m, domain, form, max_depth, kw)
    if isinstance(domain, HoledBallSpec):
        return certify_holes(m, domain, max_depth=max_depth, **kw)
    if isinstance(domain, AnnulusSpec):
        raise UnsupportedDomainError(ANNULUS_REFUSAL)
    raise UnsupportedDomainError(f"no certificate for domain {type(domain).__name__}")


def _auto_form(certifier, m, domain, form, max_depth, kw):
    if form in ("expansive", "compressive"):
        return certifier(m, domain, form, max_depth=max_depth, **kw)
    if form != "auto":
        raise ValueError(f"unknown form {form!r}")
    compressive = certifier(m, domain, "compressive", max_depth=max_depth, **kw)
    if compressive.outcome == CERTIFIED:
        return compressive
    expansive = certifier(m, domain, "expansive", max_depth=max_depth, **kw)
    if expansive.outcome == CERTIFIED:
        return expansive
    return compressive
