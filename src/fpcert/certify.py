"""Three-valued certificates for fixed-point boundary hypotheses.

Every certifier is a list of conditions.  A condition is one inequality
``bound(box) relation threshold`` over a region given by seed boxes (a
rectangle face, a cylinder base, a cone shell slice, the holed ball or a
hole circle).  One engine, `check`, covers each region by adaptive
subdivision and decides every cover box in interval arithmetic:

  * CERTIFIED      every condition holds over a finite cover of its region;
                   the target domain then provably contains a fixed point.
  * REFUTED        some condition fails on a whole sub-box that provably
                   meets the constraint set; a witness point is reported and
                   re-verified by a point interval evaluation.
  * INDETERMINATE  neither could be established within the work budget.
                   Inequalities that hold only with exact equality land
                   here by design: outward rounding proves strict-margin
                   facts only, and a rigorous tool abstains otherwise.

Undecidable boxes.  A box whose bound cannot cross the refutation threshold
and whose witness point does not verify is final: no sub-box can verify or
refute it (see `Condition.final`), so it is kept unresolved and not split.
An equality face therefore ends INDETERMINATE after a handful of boxes
instead of exhausting the budget.

Evaluation errors.  A box whose bound raises a `DomainError` (a naive
enclosure of a denominator that holds zero, say) is undecided and split:
smaller boxes may evaluate.  If it stays unresolved, its evidence entry
carries no bound.  A witness whose point evaluation raises does not confirm
a refutation.

Strict and closed.  The theorem hypotheses (rectangle faces, cylinder
heights, cone slices) need a strict interval margin.  Containment
conditions (cylinder base containment, cone invariance, the outer ball and
the holes) target closed sets and are verified with non-strict interval
comparisons.  Refutation, and the witness re-check, are always strict.

Stop rule.  A condition list is checked in order and stops at its first
REFUTED condition; an INDETERMINATE condition does not stop it.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

from .geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    HoledBallSpec,
    RectDomain,
    compressive_to_expansive,
    dist2_pair,
    face,
)
from .interval import Box, DimensionMismatchError, DomainError, Interval, mul_down, mul_up
from .mapdsl import MapSpec
from .subdivision import (
    IRRELEVANT,
    UNDECIDABLE,
    UNKNOWN,
    VERIFIED,
    VIOLATED,
    adaptive_cover,
)

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
    bound: "Interval | None"  # None: the evaluation over the box raised
    relation: str  # '<=' | '>=' | 'in' | 'unresolved'
    threshold: float

    def to_json_dict(self):
        return {
            "face": self.face,
            "box": self.box.bounds(),
            "bound": None if self.bound is None else [self.bound.lo, self.bound.hi],
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


# ---------------------------------------------------------------------------
# Conditions and the engine that checks them
# ---------------------------------------------------------------------------


@dataclass
class Condition:
    """The inequality ``bound(box) relation threshold`` over the region
    covered by the seed boxes.

    For '<=' and '>=' the threshold is a (verify, refute) pair: a box is
    verified against the first value and refuted against the second.  Both
    are the same number except where the threshold is itself rounded (a
    squared radius: verify against its lower, refute against its upper
    rounding).  For 'in' it is the target interval (lo, hi).  `relevant`
    drops boxes that miss the region; a box may refute only when `meets`
    proves it holds a point of the region, and `witness` picks that point.
    """

    face: str
    seeds: tuple
    bound: Callable[[Box], Interval]
    relation: str  # '<=' | '>=' | 'in'
    threshold: tuple
    strict: bool = True
    relevant: "Callable[[Box], bool] | None" = None
    meets: "Callable[[Box], bool] | None" = None
    witness: Callable[[Box], tuple] = Box.midpoint

    def fails(self, lo: float, hi: float) -> bool:
        """The refutation rule: True when the bound [lo, hi] fails."""
        t0, t1 = self.threshold
        if self.relation == "<=":
            return lo > t1
        if self.relation == ">=":
            return hi < t1
        return lo > t1 or hi < t0

    def verdict(self, b: Interval) -> str:
        t0 = self.threshold[0]
        strict = self.strict
        if self.relation == "<=":
            holds = b.hi < t0 if strict else b.hi <= t0
        elif self.relation == ">=":
            holds = b.lo > t0 if strict else b.lo >= t0
        else:
            t1 = self.threshold[1]
            holds = (t0 < b.lo and b.hi < t1) if strict else (t0 <= b.lo and b.hi <= t1)
        return VERIFIED if holds else VIOLATED if self.fails(b.lo, b.hi) else UNKNOWN

    def bound_or_none(self, box: Box) -> "Interval | None":
        """The bound over the box, or None where its evaluation raises."""
        try:
            return self.bound(box)
        except DomainError:
            return None

    def classify(self, box: Box):
        if self.relevant is not None and not self.relevant(box):
            return IRRELEVANT, None
        bound = self.bound_or_none(box)
        if bound is None:  # undecided here: split, smaller boxes may evaluate
            return UNKNOWN, None
        tag = self.verdict(bound)
        if tag == VIOLATED and self.meets is not None and not self.meets(box):
            tag = UNKNOWN
        elif tag == UNKNOWN and self.final(box, bound):
            tag = UNDECIDABLE
        return tag, bound

    def final(self, box: Box, b: Interval) -> bool:
        """True when no sub-box of an undecided box can decide it.

        No sub-box refutes when the bound cannot cross the refutation
        threshold.  No sub-box verifies when the bound at the witness point
        does not: evaluation is inclusion-monotone, so every sub-box that
        holds the witness has a bound that contains the point bound.  The
        witness must pass `relevant`, or that chain of sub-boxes could be
        dropped as irrelevant deeper down.
        """
        # A sub-box's bound lies inside b and the failing values form rays,
        # so some sub-box may refute only if an end of b fails as a point.
        if self.fails(b.lo, b.lo) or self.fails(b.hi, b.hi):
            return False  # the common case: skip the witness
        p = _point(self.witness(box))
        if self.relevant is not None and not self.relevant(p):
            return False
        point_bound = self.bound_or_none(p)
        return point_bound is not None and self.verdict(point_bound) != VERIFIED

    def entry(self, box: Box, bound: "Interval | None", relation: str = "") -> EvidenceEntry:
        # An 'in' condition reports the upper end of its target.
        t0, t1 = self.threshold
        return EvidenceEntry(self.face, box, bound, relation or self.relation,
                             t1 if self.relation == "in" else t0)


def _point(p) -> Box:
    return Box(tuple(Interval(x) for x in p))


def check(conditions, max_depth: int, max_boxes: int, stats: CertStats):
    """Cover every condition's region in turn; stop at the first REFUTED.

    Returns (status, evidence, witness).  Each verified cover box becomes an
    evidence entry.  A violated box refutes only when the bound at its
    witness point violates the condition as well (a point evaluation that
    raises does not confirm it); up to 8 unresolved boxes of an open
    condition are attached with their bounds, or no bound where the
    evaluation raises.
    """
    status, evidence = CERTIFIED, []
    for cond in conditions:
        cover = adaptive_cover(cond.seeds, cond.classify, max_depth, max_boxes)
        stats.boxes += cover.boxes_examined
        stats.depth = max(stats.depth, cover.depth_reached)
        evidence.extend(cond.entry(box, bound) for box, bound in cover.verified)
        if cover.status == "violated":
            box, bound = cover.violation
            witness = cond.witness(box)
            point_bound = cond.bound_or_none(_point(witness))
            if point_bound is not None and cond.verdict(point_bound) == VIOLATED:
                evidence.append(cond.entry(box, bound))
                return REFUTED, evidence, witness
            status = INDETERMINATE
        elif cover.status == "indeterminate":
            status = INDETERMINATE
            # Boxes left queued by the box budget, or whose evaluation
            # raised, carry no bound from the classifier.
            evidence.extend(
                cond.entry(box, cond.bound_or_none(box) if bound is None else bound,
                           "unresolved")
                for box, bound in cover.unresolved[:8]
            )
    return status, evidence, None


def _certificate(kind, domain, t0, stats, result, directions=None, index=None):
    """Certificate from check()'s result; the index is kept only if CERTIFIED."""
    outcome, evidence, witness = result
    stats.seconds = time.perf_counter() - t0
    return Certificate(
        kind=kind,
        outcome=outcome,
        directions=directions,
        domain=domain,
        evidence=sorted(evidence, key=lambda e: (e.face, e.box.key())),
        witness=witness,
        stats=stats,
        index=index if outcome == CERTIFIED else None,
    )


def _require_plain_map(m: MapSpec, dim: int, domain: str):
    if m.has_param:
        raise ValueError("certification expects a parameter-free map")
    if m.dim != dim:
        raise DimensionMismatchError(f"map of dim {m.dim} over {domain} of dim {dim}")


# ---------------------------------------------------------------------------
# Rectangle certificates
# ---------------------------------------------------------------------------


def _face_conditions(g: MapSpec, rect: RectDomain, axis: int, direction: str):
    a, b = rect.box.coords[axis].lo, rect.box.coords[axis].hi
    lo_rel, hi_rel = ("<=", ">=") if direction == "e" else (">=", "<=")
    bound = lambda bx: g.eval_component_interval(axis, bx)
    return (
        Condition(f"x{axis + 1}-", (face(rect, axis, "-").as_box,), bound, lo_rel, (a, a)),
        Condition(f"x{axis + 1}+", (face(rect, axis, "+").as_box,), bound, hi_rel, (b, b)),
    )


def certify_miranda(g: MapSpec, rect: RectDomain, directions="auto",
                    max_depth: int = 24, max_boxes: int = 20000) -> Certificate:
    """Check the per-coordinate expansive/compressive face conditions.

    directions may be "auto" or a sequence of 'e'/'c', one per coordinate.
    In auto mode the compressive pair is tried before the expansive pair.
    A coordinate counts as REFUTED in auto mode only when both pairs fail
    provably.
    """
    _require_plain_map(g, rect.dim, "rectangle")
    if directions != "auto":
        directions = tuple(directions)
        if len(directions) != g.dim or any(d not in ("e", "c") for d in directions):
            raise ValueError("directions must be 'auto' or a tuple of 'e'/'c'")

    t0 = time.perf_counter()
    stats = CertStats()
    outcome, evidence, witness, assigned = CERTIFIED, [], None, []
    for axis in range(g.dim):
        tried = []
        for d in ("c", "e") if directions == "auto" else (directions[axis],):
            tried.append(check(_face_conditions(g, rect, axis, d), max_depth, max_boxes, stats))
            if tried[-1][0] == CERTIFIED:
                assigned.append(d)
                evidence.extend(tried[-1][1])
                break
        else:  # no pair certified: REFUTED only when every pair tried is
            assigned.append(None)
            for _status, ev, _witness in tried:
                evidence.extend(ev)
            if all(status == REFUTED for status, _ev, _witness in tried):
                outcome, witness = REFUTED, witness or tried[0][2]
            elif outcome == CERTIFIED:
                outcome = INDETERMINATE
    return _certificate("miranda", rect, t0, stats, (outcome, evidence, witness),
                        directions=tuple(assigned))


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
    _require_plain_map(T, cyl.dim, "cylinder")
    if form == "compressive":
        inner = certify_cylinder(compressive_to_expansive(T), cyl, "expansive",
                                 max_depth=max_depth, max_boxes=max_boxes)
        inner.kind = "cylinder_compressive"
        return inner
    if form != "expansive":
        raise ValueError("form must be 'expansive' or 'compressive'")

    t0 = time.perf_counter()
    stats = CertStats()
    full = (cyl.full_box(),)
    # Containment of the base components over the whole cylinder, then the
    # height conditions T1 <= a on the left base and T1 >= b on the right.
    conditions = [
        Condition("interior", full, lambda bx, comp=comp: T.eval_component_interval(comp, bx),
                  "in", (target.lo, target.hi), strict=False)
        for comp, target in enumerate(cyl.base.coords, start=1)
    ]
    height = lambda bx: T.eval_component_interval(0, bx)
    a, b = cyl.t_range.lo, cyl.t_range.hi
    conditions.append(Condition("left", (cyl.left_base(),), height, "<=", (a, a)))
    conditions.append(Condition("right", (cyl.right_base(),), height, ">=", (b, b)))
    return _certificate("cylinder_expansive", cyl, t0, stats,
                        check(conditions, max_depth, max_boxes, stats))


# ---------------------------------------------------------------------------
# Cone shell certificates
# ---------------------------------------------------------------------------


def _level_range_guarantee(functional, box: Box):
    """Rigorous enclosure of [min l, max l] over an orthant box, as the
    (lo, hi) pairs of l at the lower and at the upper corner.

    The shell functionals are increasing in every coordinate on the
    orthant, so the extremes sit at the corner points; point interval
    evaluations bound them from both sides.
    """
    return (functional.value_pair([(c.lo, c.lo) for c in box.coords]),
            functional.value_pair([(c.hi, c.hi) for c in box.coords]))


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


def _level_conditions(f, lo: float, hi: float, target: float):
    """relevant, meets and witness for the shell part lo <= l <= hi.

    The witness is the point of the box diagonal, along which l is monotone,
    at the level `target` clamped to the box's guaranteed level range.
    """

    def relevant(box):
        lvl_lo, lvl_hi = f.value_pair([(c.lo, c.hi) for c in box.coords])
        return not (lvl_hi < lo or lvl_lo > hi)

    def meets(box):
        (_, min_hi), (max_lo, _) = _level_range_guarantee(f, box)
        return min_hi <= hi and max_lo >= lo

    def witness(box):
        (_, min_hi), (max_lo, _) = _level_range_guarantee(f, box)
        level = min(max(target, min_hi), max_lo)
        return _bisect_segment([c.lo for c in box.coords], [c.hi for c in box.coords],
                               lambda p: f.value(p) < level)

    return {"relevant": relevant, "meets": meets, "witness": witness}


def certify_cone_shell(T: MapSpec, spec: ConeShellSpec, form: str,
                       max_depth: int = 24, max_boxes: int = 40000) -> Certificate:
    """Check the level-set conditions of the cone fixed point theorems.

    The two shell slices {l = a} and {l = b} are covered by adaptively
    refined boxes of the orthant bounding box; on every cover box the
    one-sided bound l(T(x)) vs the slice level is checked over the whole
    box, a sound superset of the slice.  Cone invariance of T over the
    shell is verified as well (componentwise T_i >= 0).
    """
    _require_plain_map(T, spec.dim, "shell")
    if form not in ("expansive", "compressive"):
        raise ValueError("form must be 'expansive' or 'compressive'")

    t0 = time.perf_counter()
    stats = CertStats()
    f = spec.functional
    root = (spec.bounding_box(),)
    shell = _level_conditions(f, spec.a, spec.b, 0.5 * (spec.a + spec.b))
    conditions = [
        Condition("cone", root, lambda bx, comp=comp: T.eval_component_interval(comp, bx),
                  ">=", (0.0, 0.0), strict=False, **shell)
        for comp in range(spec.dim)
    ]
    rel_a, rel_b = ("<=", ">=") if form == "expansive" else (">=", "<=")
    for level, rel, fid in ((spec.a, rel_a, "slice-a"), (spec.b, rel_b, "slice-b")):
        conditions.append(Condition(
            fid, root, lambda bx: Interval(*f.value_pair(T.eval_pairs(bx))), rel,
            (level, level), **_level_conditions(f, level, level, level),
        ))
    return _certificate(f"cone_{form}", spec, t0, stats,
                        check(conditions, max_depth, max_boxes, stats))


# ---------------------------------------------------------------------------
# Holed-ball certificates
# ---------------------------------------------------------------------------


def _radial_segment(box: Box, cx: float, cy: float):
    """The nearest and the farthest point of the box from (cx, cy)."""
    near = tuple(min(max(c0, c.lo), c.hi) for c, c0 in zip(box.coords, (cx, cy)))
    far = tuple(
        c.lo if abs(c.lo - c0) >= abs(c.hi - c0) else c.hi
        for c, c0 in zip(box.coords, (cx, cy))
    )
    return near, far


def _box_dist2(box: Box, cx: float, cy: float):
    """(lo, hi) of the squared distance from the planar box to (cx, cy)."""
    x, y = box.coords
    return dist2_pair(x.lo, x.hi, y.lo, y.hi, cx, cy)


def _point_dist2(p, cx: float, cy: float):
    """(lo, hi) of the squared distance from the point p to (cx, cy)."""
    return dist2_pair(p[0], p[0], p[1], p[1], cx, cy)


def _image_dist2(T: MapSpec, cx: float, cy: float):
    """The bound T(box) -> squared distance to (cx, cy), read from the
    component pairs of T without building an image box."""

    def bound(box):
        (a, b), (c, d) = T.eval_pairs(box)
        return Interval(*dist2_pair(a, b, c, d, cx, cy))

    return bound


def _hole_condition(T: MapSpec, idx: int, cx: float, cy: float, r: float) -> Condition:
    """T maps the boundary circle of hole idx into the closed hole; the
    witness is the point of the box's radial segment on the circle."""
    r2_lo, r2_hi = mul_down(r, r), mul_up(r, r)

    def relevant(box):
        d2_lo, d2_hi = _box_dist2(box, cx, cy)
        return not (d2_hi < r2_lo or d2_lo > r2_hi)

    def meets(box):
        near, far = _radial_segment(box, cx, cy)
        return (_point_dist2(near, cx, cy)[1] <= r2_lo
                and _point_dist2(far, cx, cy)[0] >= r2_hi)

    def witness(box):
        return _bisect_segment(*_radial_segment(box, cx, cy),
                               lambda p: math.hypot(p[0] - cx, p[1] - cy) < r)

    return Condition(
        f"hole-{idx}", (Box.from_bounds([(cx - r, cx + r), (cy - r, cy + r)]),),
        _image_dist2(T, cx, cy), "<=", (r2_lo, r2_hi),
        strict=False, relevant=relevant, meets=meets, witness=witness,
    )


def _holed_ball_conditions(T: MapSpec, spec: HoledBallSpec) -> list:
    """T(L) inside the closed outer ball, then each hole's condition."""
    R = spec.radius
    R2_lo, R2_hi = mul_down(R, R), mul_up(R, R)
    # Each hole's r^2 rounded down and up, once, not once per box.
    holes = [(cx, cy, mul_down(r, r), mul_up(r, r)) for cx, cy, r in spec.holes]

    def in_domain(box):
        # A box outside the ball, or strictly inside an open hole, misses L.
        return _box_dist2(box, 0.0, 0.0)[0] <= R2_hi and all(
            _box_dist2(box, cx, cy)[1] >= r2_lo for cx, cy, r2_lo, _ in holes)

    def centre_in_domain(box):
        p = box.midpoint()
        return _point_dist2(p, 0.0, 0.0)[1] <= R2_lo and all(
            _point_dist2(p, cx, cy)[0] >= r2_hi for cx, cy, _, r2_hi in holes)

    outer = Condition(
        "outer", (Box.from_bounds([(-R, R), (-R, R)]),),
        _image_dist2(T, 0.0, 0.0), "<=", (R2_lo, R2_hi),
        strict=False, relevant=in_domain, meets=centre_in_domain,
    )
    return [outer] + [
        _hole_condition(T, idx, cx, cy, r) for idx, (cx, cy, r) in enumerate(spec.holes)
    ]


def certify_holes(T: MapSpec, spec: HoledBallSpec,
                  max_depth: int = 24, max_boxes: int = 60000) -> Certificate:
    """Check the holed-ball boundary conditions and report the index 1 - n.

    Verifies T(L) inside the closed outer ball over a cover of L, and
    T(boundary circle of each hole) inside that closed hole, over covers of
    the circles.  On success the fixed point count over the interior is the
    integer 1 - n, which is nonzero exactly when the hole count differs
    from 1, and a fixed point exists in L.
    """
    _require_plain_map(T, 2, "holed ball")
    n = len(spec.holes)
    if n == 1:
        raise SingleHoleError(
            "a single hole is refused: the index 1 - n vanishes for n = 1 and the "
            "constant map onto the hole centre satisfies every boundary condition "
            "without any fixed point in the domain"
        )

    t0 = time.perf_counter()
    stats = CertStats()
    conditions = _holed_ball_conditions(T, spec)
    return _certificate("holes", spec, t0, stats,
                        check(conditions, max_depth, max_boxes, stats), index=1 - n)


# ---------------------------------------------------------------------------
# Dispatch by domain kind
# ---------------------------------------------------------------------------


def certify_problem(m: MapSpec, domain, form: str = "auto",
                    max_depth: int = 24, max_boxes: "int | None" = None) -> Certificate:
    """Certify a map over a parsed domain; form applies where meaningful."""
    kw = {} if max_boxes is None else {"max_boxes": max_boxes}
    if isinstance(domain, RectDomain):
        directions = {"auto": "auto", "expansive": ("e",) * m.dim,
                      "compressive": ("c",) * m.dim}.get(form)
        if directions is None:
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
    """Try the compressive form, then the expansive one.  As in Miranda's
    auto mode, the answer is REFUTED only when both forms are refuted;
    otherwise it is the first INDETERMINATE certificate."""
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
    if compressive.outcome == REFUTED and expansive.outcome != REFUTED:
        return expansive
    return compressive
