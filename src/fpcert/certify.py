"""Three-valued certificates for fixed-point boundary hypotheses.

Every certifier is a list of conditions.  A condition says that an
enclosure (lo, hi) of the image lies in a target interval over a region
given by seed boxes (a rectangle face, a cylinder base, a cone shell slice,
the holed ball or a hole circle; their region tests come from `geometry`).
One engine, `check`, covers each region by adaptive subdivision and
decides every cover box in interval arithmetic:

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
smaller boxes may evaluate.  So is a box whose relevance test raises, by
the rule of `subdivision.adaptive_cover`.  If it stays unresolved, its
evidence entry carries no bound.  A witness whose point evaluation raises
does not confirm a refutation.

Mean-value bounds.  The holed-ball conditions (the outer ball and each
hole) try a second bound on every box the naive bound leaves undecided.  It
reads the squared distance from T's component pairs, each the naive
enclosure intersected with a bound from g_i's row of the Jacobian of
`mapdsl.jacobian`, built once per certificate, over the box X.  Where
every entry of the row is zero or keeps one sign over X, g_i is least at
one corner of X and greatest at the opposite one, and its enclosures at
those two corners bound it (the monotonicity test, Hansen & Walster 2004;
`_mean_value_pairs` has the proof).  Any other row takes the mean-value
form g_i(m) + sum_j Dg_ij(X) (X_j - m_j) at the box midpoint m (Moore
1966).  `derivative` raises wherever g may be singular and encloses
Clarke's generalized gradient at abs, min and max, so both bounds hold on
every box where their evaluations succeed (Lebourg's mean value theorem);
where one raises, the naive bound stands.  An evidence entry carries the
bound its verdict used: the naive one on a box that bound decides, the
tightened one otherwise; a box left queued by the box budget had no verdict
and carries its naive bound.  Cone slices, rectangle faces and cylinder conditions keep the
naive bound: there the second evaluation decides no more boxes.

Memo view.  The holed-ball conditions evaluate T and its Jacobian through
T's memo view (`mapdsl.MapSpec.memo_view`), one per certificate: the
naive bound, the corner and mean-value bounds, the point bounds of
witnesses and the final test reuse the pair of a subtree that reads only
one coordinate wherever a cover box repeats its value (as adjacent boxes
repeat the corners they share), with bit-identical results.  The
rectangle, cylinder and cone-shell certifiers evaluate T plain: their
covers are small, and building the view of a freshly parsed map costs
more than it saves there.

The target rule.  A target is an interval (t0, t1), -inf or inf on a free
side: ``<= t`` is (-inf, t), ``>= t`` is (t, inf), ``in`` the interval
itself; the relation only labels the evidence.  A bound (lo, hi) verifies
when t0 < lo and hi < t1, the strict margin of the theorem hypotheses
(rectangle faces, cylinder heights, cone slices), or t0 <= lo and
hi <= t1 for the closed containment conditions (cylinder base, cone
invariance, outer ball, holes).  It refutes when lo > r1 or hi < r0 for
the refutation target (r0, r1), the target itself except for the holed
ball's squared radius, rounded down to verify and up to refute.

Stop rule.  A condition list is checked in order and stops at its first
REFUTED condition; an INDETERMINATE condition does not stop it.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

from . import jsonout
from .geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    HoledBallSpec,
    RectDomain,
    dist2_pair,
    face,
)
from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    Record,
    add_down,
    add_up,
    interval_error,
    mul_pair,
    sub_down,
    sub_up,
)
from .mapdsl import MapSpec, flip_coordinates
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

_INF = math.inf


class UnsupportedDomainError(ValueError):
    pass


class SingleHoleError(ValueError):
    pass


ANNULUS_REFUSAL = (
    "annulus domains are refused: the expansive/compressive annulus fixed point "
    "statement is false in finite dimension (a plane rotation about the origin is a "
    "fixed-point-free counterexample); use a cone shell domain instead"
)


class EvidenceEntry(Record):
    __slots__ = ("face", "box", "bound", "relation", "threshold")

    def __init__(self, face: str, box: Box, bound: "tuple | None", relation: str,
                 threshold: float):
        self.face = face
        self.box = box
        self.bound = bound  # (lo, hi); None: the evaluation over the box raised
        self.relation = relation  # '<=' | '>=' | 'in' | 'unresolved'
        self.threshold = threshold


class CertStats:
    __slots__ = ("boxes", "depth", "seconds")

    def __init__(self):
        self.boxes = 0
        self.depth = 0
        self.seconds = 0.0


class Certificate:
    __slots__ = ("kind", "outcome", "directions", "domain", "evidence", "witness", "stats",
                 "index")

    def __init__(self, kind: str, outcome: str, directions: "tuple | None", domain,
                 evidence: list, witness: "tuple | None", stats: CertStats,
                 index: "int | None"):
        self.kind = kind
        self.outcome = outcome
        self.directions = directions
        self.domain = domain
        self.evidence = evidence
        self.witness = witness
        self.stats = stats
        self.index = index

    def to_json(self, stable=False):
        """The JSON report; its evidence is written from the records."""
        stats = {"boxes": self.stats.boxes, "depth": self.stats.depth}
        if not stable:
            stats["seconds"] = self.stats.seconds
        return jsonout.dumps({
            "kind": self.kind,
            "outcome": self.outcome,
            "directions": list(self.directions) if self.directions else None,
            "domain": self.domain.to_json_dict(),
            "index": self.index,
            "evidence": jsonout.evidence(self.evidence),
            "witness": list(self.witness) if self.witness else None,
            "stats": stats,
        })


# ---------------------------------------------------------------------------
# Conditions and the engine that checks them
# ---------------------------------------------------------------------------


class Condition:
    """The bound (lo, hi) over each box of the region covered by the seed
    boxes lies in the target (t0, t1), by the target rule of the module
    docstring; `refute` is the target refutation uses where it is not
    `target`.

    `relevant` drops boxes that miss the region; a box may refute only
    when `meets` proves it holds a point of the region, and `witness`
    picks that point.  `tighten`, where given, is a second bound, inside
    the first, tried only on a box the first leaves undecided; where it
    raises, the first stands.
    """

    __slots__ = ("face", "seeds", "bound", "target", "strict", "refute", "relevant", "meets",
                 "witness", "tighten")

    def __init__(self, face: str, seeds: tuple, bound: Callable[[Box], tuple], target: tuple,
                 strict: bool = True, refute: "tuple | None" = None,
                 relevant: "Callable[[Box], bool] | None" = None,
                 meets: "Callable[[Box], bool] | None" = None,
                 witness: Callable[[Box], tuple] = Box.midpoint,
                 tighten: "Callable[[Box], tuple] | None" = None):
        self.face = face
        self.seeds = seeds
        self.bound = bound
        self.target = target
        self.strict = strict
        self.refute = refute
        self.relevant = relevant
        self.meets = meets
        self.witness = witness
        self.tighten = tighten

    def fails(self, lo: float, hi: float) -> bool:
        """The refutation rule: True when the bound [lo, hi] fails."""
        r0, r1 = self.refute or self.target
        return lo > r1 or hi < r0

    def verdict(self, b: tuple) -> str:
        (lo, hi), (t0, t1) = b, self.target
        holds = (t0 < lo and hi < t1) if self.strict else (t0 <= lo and hi <= t1)
        return VERIFIED if holds else VIOLATED if self.fails(lo, hi) else UNKNOWN

    def bound_or_none(self, box: Box) -> "tuple | None":
        """The bound over the box, or None where its evaluation raises."""
        try:
            return self.bound(box)
        except DomainError:
            return None

    def classify(self, box: Box):
        if self.relevant is not None and not self.relevant(box):
            return IRRELEVANT, None
        bound = self.bound(box)  # a DomainError leaves the box unknown (adaptive_cover)
        tag = self.verdict(bound)
        if tag == UNKNOWN and self.tighten is not None:
            try:
                bound = self.tighten(box)
                tag = self.verdict(bound)
            except DomainError:  # the first bound stands
                pass
        if tag == VIOLATED and self.meets is not None and not self.meets(box):
            tag = UNKNOWN
        elif tag == UNKNOWN and self.final(box, bound):
            tag = UNDECIDABLE
        return tag, bound

    def final(self, box: Box, b: tuple) -> bool:
        """True when no sub-box of an undecided box can decide it.

        No sub-box refutes when the bound cannot cross the refutation
        target.  No sub-box verifies when the bound at the witness point
        does not: evaluation is inclusion-monotone, so every sub-box that
        holds the witness has a naive bound that contains the point bound.
        A `tighten` bound of such a sub-box holds the witness's image only,
        which the point bound encloses up to its rounding, so a witness
        that misses by rounding alone may leave a box unresolved that a
        sub-box would verify; it never verifies one.  The witness must pass
        `relevant`, or that chain of sub-boxes could be dropped as
        irrelevant deeper down.
        """
        # A sub-box's bound holds its image, which lies inside b, and the
        # failing values form rays, so some sub-box may refute only if an
        # end of b fails as a point.
        if self.fails(b[0], b[0]) or self.fails(b[1], b[1]):
            return False  # the common case: skip the witness
        p = _point(self.witness(box))
        if self.relevant is not None and not self.relevant(p):
            return False
        point_bound = self.bound_or_none(p)
        return point_bound is not None and self.verdict(point_bound) != VERIFIED

    def entry(self, box: Box, bound: "tuple | None", relation: str = "") -> EvidenceEntry:
        # The label is '<=' or '>=' where the target is a ray, else 'in';
        # the threshold is the target's finite end, its upper one if both are.
        t0, t1 = self.target
        relation = relation or ("<=" if t0 == -_INF else ">=" if t1 == _INF else "in")
        return EvidenceEntry(self.face, box, bound, relation, t1 if t1 < _INF else t0)


def _sides(a: float, b: float, expansive: bool) -> tuple:
    """The targets at the levels a < b: below a and above b where the map
    is expansive, above a and below b where it is compressive."""
    return ((-_INF, a), (b, _INF)) if expansive else ((a, _INF), (-_INF, b))


def _component(c) -> Callable[[Box], tuple]:
    return lambda bx: c.eval_pair(bx.coords)


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
                for box, bound in cover.unresolved
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


def _face_conditions(g: MapSpec, box: Box, axis: int, direction: str, names=None):
    """The conditions on g's component `axis` over the faces x = a and
    x = b of the box across that axis, with the targets of `_sides` for
    the direction 'e' (expansive) or 'c'.  The faces are named x<k>- and
    x<k>+ unless `names` names them."""
    x = box.coords[axis]
    names = names or (f"x{axis + 1}-", f"x{axis + 1}+")
    bound = _component(g.components[axis])
    return [Condition(name, (face(box, axis, side),), bound, target)
            for name, side, target in zip(names, "-+", _sides(x.lo, x.hi, direction == "e"))]


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
            tried.append(check(_face_conditions(g, rect.box, axis, d), max_depth, max_boxes,
                               stats))
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
    The compressive form checks the expansive conditions of the reflected
    map 2*x1 - T1 (`flip_coordinates` on the height), so compressive and
    expansive certificates agree by construction.
    """
    _require_plain_map(T, cyl.dim, "cylinder")
    if form not in ("expansive", "compressive"):
        raise ValueError("form must be 'expansive' or 'compressive'")

    t0 = time.perf_counter()
    stats = CertStats()
    if form == "compressive":
        T = flip_coordinates(T, {0})
    full = cyl.full_box()
    # Containment of the base components over the whole cylinder, then the
    # height conditions T1 <= a on the left base and T1 >= b on the right.
    conditions = [
        Condition("interior", (full,), _component(c), (x.lo, x.hi), strict=False)
        for c, x in zip(T.components[1:], cyl.base.coords)
    ]
    conditions += _face_conditions(T, full, 0, "e", names=("left", "right"))
    return _certificate(f"cylinder_{form}", cyl, t0, stats,
                        check(conditions, max_depth, max_boxes, stats))


# ---------------------------------------------------------------------------
# Cone shell certificates
# ---------------------------------------------------------------------------


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
    shell = f.level_tests(spec.a, spec.b, 0.5 * (spec.a + spec.b))
    conditions = [
        Condition("cone", root, _component(c), (0.0, _INF), strict=False, **shell)
        for c in T.components
    ]
    targets = _sides(spec.a, spec.b, form == "expansive")
    for level, target, fid in zip((spec.a, spec.b), targets, ("slice-a", "slice-b")):
        conditions.append(Condition(fid, root, lambda bx: f.value_pair(T.eval_pairs(bx)),
                                    target, **f.level_tests(level, level, level)))
    return _certificate(f"cone_{form}", spec, t0, stats,
                        check(conditions, max_depth, max_boxes, stats))


# ---------------------------------------------------------------------------
# Holed-ball certificates
# ---------------------------------------------------------------------------


def _corners(ds, ends) -> "tuple | None":
    """The corners of a box at which a component whose Jacobian row over
    the box is ds (a pair per entry, None for a zero one) takes its least
    and its greatest value, as coordinate tuples of the point intervals
    `ends` (per axis, its lower end and its upper end): each x_j at its
    lower end in the first where its entry is None or >= 0, at its upper
    end where the entry is <= 0, and the other way round in the second.
    None where some entry holds values of both signs."""
    low, high = [], []
    for d, (a, b) in zip(ds, ends):
        if d is None or d[0] >= 0.0:
            low.append(a)
            high.append(b)
        elif d[1] <= 0.0:
            low.append(b)
            high.append(a)
        else:
            return None
    return tuple(low), tuple(high)


def _mean_value_pairs(T: MapSpec, jac, box: Box) -> list:
    """T's component pairs over the box X, each the naive enclosure
    T.eval_pairs(box) cut by a second enclosure of g_i(X), read from g_i's
    Jacobian row Dg_i(X):

    - a monotone row, where every entry is None or a pair >= 0 or <= 0,
      takes the lower end of g_i's enclosure at the corner c of
      `_corners` and the upper end at its opposite corner c' (the
      monotonicity test, Hansen & Walster 2004);
    - any other row takes the mean-value form
      g_i(m) + sum_j Dg_ij(X) (X_j - m_j), m the box midpoint, with
      directed rounding.

    The corner rule holds wherever the mean-value form does.  For x in X,
    Lebourg's mean value theorem gives a point y on the segment from c to
    x, inside X, and a vector z of Clarke's gradient of g_i at y with
    g_i(x) - g_i(c) = sum_j z_j (x_j - c_j); `derivative` encloses that
    gradient over X, so z_j lies in Dg_ij(X), and is 0 where the entry is
    None.  Where Dg_ij(X) >= 0, c_j is the lower end of X_j, so
    x_j - c_j >= 0; where Dg_ij(X) <= 0, c_j is the upper end, so
    x_j - c_j <= 0.  Every term is >= 0, so g_i(x) >= g_i(c), and likewise
    g_i(x) <= g_i(c').  The enclosures at c and c' hold those two values,
    so the pair holds g_i(X).

    Raises DomainError where an evaluation raises (the naive pairs, a
    Jacobian row, the midpoint or a corner) or a pair is not finite."""
    xs = box.coords
    naive = T.eval_pairs(box)
    ends = [(Interval(x.lo), Interval(x.hi)) for x in xs]
    point = None
    out = []
    for comp, row, (n_lo, n_hi) in zip(T.components, jac, naive):
        ds = [None if d is None else d.eval_pair(xs) for d in row]
        corners = _corners(ds, ends)
        if corners is not None:
            lo = comp.eval_pair(corners[0])[0]
            hi = comp.eval_pair(corners[1])[1]
        else:
            if point is None:
                ms = box.midpoint()
                point = tuple(Interval(m) for m in ms)
            lo, hi = comp.eval_pair(point)
            for d, x, m in zip(ds, xs, ms):
                if d is not None:
                    p_lo, p_hi = mul_pair(*d, sub_down(x.lo, m), sub_up(x.hi, m))
                    lo, hi = add_down(lo, p_lo), add_up(hi, p_hi)
        if not -_INF < lo <= hi < _INF:
            raise interval_error(lo, hi)
        out.append((max(lo, n_lo), min(hi, n_hi)))
    return out


def _image_dist2(T: MapSpec, jac, cx: float, cy: float):
    """The bounds T(box) -> squared distance to (cx, cy), read from the
    component pairs of T without building an image box: the naive one, and
    the one on mean-value pairs (None without a Jacobian)."""

    def of_pairs(pairs):
        (a, b), (c, d) = pairs
        return dist2_pair(a, b, c, d, cx, cy)

    def bound(box):
        return of_pairs(T.eval_pairs(box))

    def tighten(box):
        return of_pairs(_mean_value_pairs(T, jac, box))

    return bound, None if jac is None else tighten


def _holed_ball_conditions(T: MapSpec, jac, spec: HoledBallSpec) -> list:
    """T(L) inside the closed outer ball, then T(boundary circle of each
    hole) inside the closed hole, each bound tightened by
    `_mean_value_pairs` where T has a Jacobian (jac, as `mapdsl.jacobian`
    gives it).  Each cover starts from the circle's square, rounded outward
    so that it holds the whole circle."""
    conditions = []
    for k, ((cx, cy, r), (r2_down, r2_up), tests) in enumerate(spec.circles()):
        seed = Box.from_bounds([(sub_down(cx, r), add_up(cx, r)),
                                (sub_down(cy, r), add_up(cy, r))])
        bound, tighten = _image_dist2(T, jac, cx, cy)
        conditions.append(Condition("outer" if k == 0 else f"hole-{k - 1}", (seed,), bound,
                                    (-_INF, r2_down), strict=False, refute=(-_INF, r2_up),
                                    tighten=tighten, **tests))
    return conditions


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
    # Through the memo view: the covers of L and of the hole circles meet
    # each row and column of boxes many times, and a holed-ball map often
    # has components that read one coordinate only.
    with T.memo_view() as (view, jac):
        result = check(_holed_ball_conditions(view, jac, spec), max_depth, max_boxes, stats)
    return _certificate("holes", spec, t0, stats, result, index=1 - n)


# ---------------------------------------------------------------------------
# Dispatch by domain kind
# ---------------------------------------------------------------------------


def certify_problem(m: MapSpec, domain, form: str = "auto",
                    max_depth: int = 24, max_boxes: "int | None" = None) -> Certificate:
    """Certify a map over a parsed domain in the given form ('auto',
    'expansive' or 'compressive'; a holed ball has only 'auto')."""
    kw = {} if max_boxes is None else {"max_boxes": max_boxes}
    # Only certify_holes evaluates through the memo view.  For the other
    # kinds, building the view of a freshly parsed map (about 50 us) costs
    # more than it saves: rectangle and cylinder certificates took about
    # 20% longer through it, cone shells 3-7%.
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
        if form != "auto":
            raise ValueError(f"a holed ball takes form 'auto' only, not {form!r}")
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
