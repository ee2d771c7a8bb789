"""Branch-and-prune localization of fixed points.

The pruning test discards a sub-box B as soon as some component of the
interval residual g(B) - B excludes zero, which proves B holds no fixed
point.  The components are walked in order on endpoint pairs and the walk
stops at the first one that excludes zero: one such component is the whole
proof, so the others are not evaluated.  Surviving boxes are bisected down
to the requested width, or until no coordinate has a float strictly inside
it to split at.

With the upgrade on, every box also takes the operator test, one
Hansen-Sengupta step (`_hansen_sengupta`; Hansen & Sengupta 1981; Neumaier
1990, chapter 5), with Clarke's generalized gradient at abs, min and max
(see `mapdsl.derivative`).  It discards boxes, proves that a box holds
exactly one fixed point, and contracts a proven box far below the
requested width and off the 27/53 grid; and each leaf without such a
proof takes a Poincare-Miranda sign test on its faces.  The first box
takes the residual test only where the operator neither proves nor
excludes it.  A box that its own operator test proved takes none in the
search either: it holds a fixed point, so its residual holds zero, and a
kept one's bound is computed on the first read of `Enclosure.residual`,
on the plain map.  A first box proven and contracted to a leaf, as on a
trace cell, thus costs two map evaluations less, and a trace, which
reads no bound, takes none.  A parametrized map takes the same tests
with t ranging over an interval T, so a proof holds for every t in T at
once.  Each box leaves the search once: discarded, kept or split.  Every
discarded part is proven free of fixed points and discarded plus kept
boxes tile the input rectangle, so no fixed point is lost.

A box with no proof id whose operator test finds the image K(X) but
neither proves nor excludes hands K(X) to both halves of its split (the
X & N(X) step of interval Newton methods, Neumaier 1990, section 5.1): a
half disjoint from K(X) is discarded without being queued, and every
other half is cut to K(X) on each axis, except an axis that the cut would
leave at most tol wide.  This is sound because K(X) holds every fixed
point of g in X, for any preconditioner, and for every t in T when the
map takes t.  So a leaf with no proof id may lie off the 27/53 grid too,
and no axis is cut below tol.

Every search evaluates the map through its memo view
(`mapdsl.MapSpec.memo_view`), built once per map, on the coordinate tuple
of a box followed by T for a parametrized map: the residual, F(m) and
F'(X) of the operator test and the face test evaluate a subtree written
several times once per tuple, and reuse the pair of a subtree that reads
one coordinate only wherever a box repeats its value, as the boxes of
one bisection do, with bit-identical results.  A subtree of t alone is
thus evaluated once per trace cell, a subtree of constants once per view,
and a cell builds no bound map and no Jacobian.

A component whose evaluation raises a `DomainError` (a denominator whose
naive enclosure holds zero, say), or whose residual is not a finite pair,
proves nothing on B and is skipped: another component may still exclude
zero and discard B.  When none does, B is undecided and split, since
smaller boxes may evaluate.  A leaf that still has a raising component at
the requested width stays CANDIDATE with no residual bound.
"""

from __future__ import annotations

import math
from collections import Counter, deque

from . import jsonout
from .geometry import RectDomain
from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    abs_pair,
    add_down,
    add_up,
    div_pair,
    mul_pair,
    scale_pair,
    sub_down,
    sub_up,
)
from .mapdsl import MapSpec
from .subdivision import UNKNOWN, VERIFIED, adaptive_cover

PROVEN = "PROVEN"
CANDIDATE = "CANDIDATE"

# Pruning splits at 27/53 instead of the midpoint: grid points then have odd
# denominators, so dyadic fixed points (0.5, 0.25, ...) of user maps never
# sit exactly on a subdivision boundary, where every touching leaf would be
# an equality case that no strict-margin certificate can prove.
_SPLIT_FRACTION = 27.0 / 53.0


def _split_box(box: Box, axis: int):
    c = box.coords[axis]
    w = c.hi - c.lo
    # w overflows only where lo < 0 < hi: then the two terms of the second
    # form have opposite signs, and their sum is finite.
    m = (c.lo + _SPLIT_FRACTION * w if w < _INF
         else (1.0 - _SPLIT_FRACTION) * c.lo + _SPLIT_FRACTION * c.hi)
    if not c.lo < m < c.hi:
        return box.bisect(axis)
    return (
        box.replace_coord(axis, Interval(c.lo, m)),
        box.replace_coord(axis, Interval(m, c.hi)),
    )


class Enclosure:
    """A kept box, its status and its residual bound: the largest |g_i(B) -
    B_i| over the box B (and T), or None where an evaluation over B raised.
    A leaf whose own operator test proved it takes no residual test in the
    search, since its box holds a fixed point and no component can exclude
    zero: its bound is computed on the first read of `residual`, on the
    plain map, which evaluates as the search's memo view bit for bit."""

    __slots__ = ("box", "status", "_residual", "unique", "_deferred")

    def __init__(self, box: Box, status: str, residual: "Interval | None",
                 unique: "Box | None", deferred=None):
        self.box = box
        self.status = status  # PROVEN | CANDIDATE
        self._residual = residual
        # For a box PROVEN by the operator, the box X at which K(X) inside
        # int X held: it holds exactly one fixed point (for every t in T),
        # the one in box.  None otherwise.  Not part of the JSON output.
        self.unique = unique
        # (plain map, coordinate tuple) of a residual not yet computed, or None
        self._deferred = deferred

    @property
    def residual(self) -> "Interval | None":
        if self._deferred is not None:
            pairs = _residual_pairs(*self._deferred)
            if pairs is _PRUNED:
                raise AssertionError("the residual of a proven box excludes zero")
            self._residual = _residual_bound(pairs)
            self._deferred = None
        return self._residual

    def to_json_dict(self):
        return {
            "box": self.box.bounds(),
            "status": self.status,
            "residual": None if self.residual is None
            else [self.residual.lo, self.residual.hi],
        }


class LocalizeResult:
    __slots__ = ("enclosures", "total_volume", "discarded_volume", "surviving_volume",
                 "boxes_examined", "exhausted", "operator_tests", "operator_proofs",
                 "operator_exclusions", "operator_undecided", "halves_cut",
                 "halves_discarded")

    def __init__(self, enclosures: list, total_volume: float, discarded_volume: float,
                 surviving_volume: float, boxes_examined: int, exhausted: bool,
                 operator_tests: int, operator_proofs: int, operator_exclusions: int,
                 operator_undecided: int, halves_cut: int, halves_discarded: int):
        self.enclosures = enclosures
        self.total_volume = total_volume
        self.discarded_volume = discarded_volume
        self.surviving_volume = surviving_volume
        self.boxes_examined = boxes_examined
        self.exhausted = exhausted
        # Work counts, not part of the JSON output.  Operator tests in the
        # search (one per box that takes the test; contraction steps aside),
        # and among them those that gave a proof id, excluded the box, or
        # found K(X) but neither proved nor excluded; the halves of such an
        # undecided box that were cut to K(X), and those discarded as
        # disjoint from it.
        self.operator_tests = operator_tests
        self.operator_proofs = operator_proofs
        self.operator_exclusions = operator_exclusions
        self.operator_undecided = operator_undecided
        self.halves_cut = halves_cut
        self.halves_discarded = halves_discarded

    @property
    def proven(self):
        return [e for e in self.enclosures if e.status == PROVEN]

    def to_json_dict(self):
        def volume(v):  # strict JSON has no Infinity: a volume past the float range is null
            return v if math.isfinite(v) else None

        return {
            "enclosures": [e.to_json_dict() for e in self.enclosures],
            "coverage": {
                "total_volume": volume(self.total_volume),
                "discarded_volume": volume(self.discarded_volume),
                "surviving_volume": volume(self.surviving_volume),
            },
            "boxes_examined": self.boxes_examined,
            "exhausted": self.exhausted,
        }

    def to_json(self):
        return jsonout.dumps(self.to_json_dict())


_PRUNED = "pruned"
_UNTESTED = "untested"  # the residual test has not run on the box yet
_DEFERRED = "deferred"  # proven by its own test: computed on first read if kept
_INF = math.inf


def _residual_pairs(f: MapSpec, xs):
    """The residual pairs (lo, hi) of g(B) - B over the box B whose
    coordinate tuple is xs (B's coordinates, then T if f takes t),
    component by component.

    Returns _PRUNED at the first component whose residual excludes zero,
    None when some component raised, and the list of pairs otherwise.  A
    component raises when its evaluation raises a `DomainError` or its
    residual is not a pair that Interval(lo, hi) accepts (lo <= hi always
    holds, so only a non-finite pair fails).
    """
    pairs = []
    raised = False
    for comp, x in zip(f.components, xs):
        try:
            lo, hi = comp.eval_pair(xs)
        except DomainError:
            raised = True
            continue
        lo = sub_down(lo, x.hi)
        hi = sub_up(hi, x.lo)
        if not -_INF < lo <= hi < _INF:
            raised = True
        elif lo > 0.0 or hi < 0.0:
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


def _inverse(a):
    """The float inverse of the square matrix a (a list of rows) by
    Gauss-Jordan elimination with partial pivoting, or None when a pivot is
    zero or an entry is not finite.  Only an approximation: the operator's
    image is an enclosure for any preconditioner.  A 1x1 matrix [[p]]
    takes 1/p, the one division elimination makes that reaches the result."""
    n = len(a)
    if n == 1:
        p = a[0][0]
        if p == 0.0 or not math.isfinite(p):
            return None
        y = 1.0 / p
        return [[y]] if math.isfinite(y) else None
    rows = [list(r) + [1.0 if i == j else 0.0 for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        if p == 0.0 or not math.isfinite(p):
            return None
        pivot_row = [v / p for v in rows[col]]
        rows[col] = pivot_row
        for r in range(n):
            if r != col and rows[r][col] != 0.0:
                k = rows[r][col]
                rows[r] = [v - k * w for v, w in zip(rows[r], pivot_row)]
    inv = [r[n:] for r in rows]
    return inv if all(math.isfinite(v) for r in inv for v in r) else None


def _inverse2(a):
    """_inverse of a 2x2 matrix, bit for bit, written out: the same pivot
    (row 1 only when its entry is strictly larger in magnitude), the same
    float operations on the entries that reach the result, and the same
    None cases."""
    (a00, a01), (a10, a11) = a
    if abs(a10) > abs(a00):
        p, q, r, s = a10, a11, a00, a01
        e0, e1, f0, f1 = 0.0, 1.0, 1.0, 0.0
    else:
        p, q, r, s = a00, a01, a10, a11
        e0, e1, f0, f1 = 1.0, 0.0, 0.0, 1.0
    if p == 0.0 or not math.isfinite(p):
        return None
    q /= p
    e0 /= p
    e1 /= p
    if r != 0.0:
        s -= r * q
        f0 -= r * e0
        f1 -= r * e1
    if s == 0.0 or not math.isfinite(s):
        return None
    f0 /= s
    f1 /= s
    if q != 0.0:
        e0 -= q * f0
        e1 -= q * f1
    inv = [[e0, e1], [f0, f1]]
    return inv if all(math.isfinite(v) for v in (e0, e1, f0, f1)) else None


def _hansen_sengupta(f: MapSpec, jac, xs):
    """The Hansen-Sengupta image H of F = Id - g over the box X whose
    coordinate tuple is xs (X's coordinates, then T if f takes t): with m
    X's midpoint, F'(X) the naive enclosure of the Jacobian `jac` over X,
    Y a float inverse of mid F'(X), A = Y F'(X) and b = -Y F(m), one
    interval Gauss-Seidel sweep H_i = m_i + (b_i - sum_{j != i} A_ij (X_j -
    m_j)) / A_ii, row i + 1 reading X_i & H_i, with directed rounding; H_i
    is X_i where A_ii holds 0 (Hansen & Sengupta 1981, BIT 21).

    Returns (H, rho): H as a list of (lo, hi) pairs, not intersected with
    X (X's own after a coordinate that misses X), and rho the row-sum norm
    of I - A, rounded up.  The claims, for every t in T:
    (1) every fixed point x of g in X lies in H: the mean value theorem row
    by row (Clarke 1983, 2.6.5, at kinks) gives A'(x - m) = b' for an A'
    in A and b' in b, and row i solved for x_i is in H_i (Neumaier 1990,
    Interval Methods for Systems of Equations, chapters 4 and 5);
    (2) so an H_i that misses X_i proves X holds none;
    (3) H inside int X proves X holds exactly one (Hansen & Sengupta 1981;
    Neumaier 1990, chapter 5): the widths of the sweep then make A an
    H-matrix, so every matrix in F'(X) is regular and two fixed points in
    X are one, and the homotopy to an affine map of the family keeps every
    zero in H, off the boundary of X, so the degree of F on X is +-1;
    (4) with the same Y, H & X lies in Krawczyk's K & X on every axis
    whose A_ii excludes 0 (Neumaier 1990, chapter 4): w = u/a in X_i - m_i
    gives w = u + (1 - a) w.  Returns (None, 2.0) when an evaluation
    raises, mid F'(X) is singular or H is not finite.
    """
    n = f.dim
    ms = [xs[i].mid for i in range(n)]
    point = tuple([Interval(m) for m in ms]) + xs[n:]
    try:
        fm = []
        for comp, m in zip(f.components, ms):
            lo, hi = comp.eval_pair(point)
            fm.append((sub_down(m, hi), sub_up(m, lo)))
        dF = []  # F'(X) = I - Dg(X)
        for i, row in enumerate(jac):
            dF_row = []
            for j, d in enumerate(row):
                delta = 1.0 if i == j else 0.0
                if d is None:
                    dF_row.append((delta, delta))
                else:
                    lo, hi = d.eval_pair(xs)
                    dF_row.append((sub_down(delta, hi), sub_up(delta, lo)))
            dF.append(dF_row)
    except DomainError:
        return None, 2.0
    y = (_inverse2 if n == 2 else _inverse)([[0.5 * lo + 0.5 * hi for lo, hi in r] for r in dF])
    if y is None:
        return None, 2.0
    z = [(sub_down(c.lo, m), sub_up(c.hi, m)) for c, m in zip(xs, ms)]  # X - m
    H = []
    rho = 0.0
    for i in range(n):
        yi = y[i]
        # u = b_i - sum_{j != i} A_ij z_j, summed before m_i is added, so
        # that the small terms cost no rounding at m's scale.
        u_lo = u_hi = 0.0
        for k in range(n):
            lo, hi = scale_pair(yi[k], *fm[k])
            u_lo = sub_down(u_lo, hi)
            u_hi = sub_up(u_hi, lo)
        row_norm = 0.0
        for j in range(n):
            a_lo = a_hi = 0.0  # A_ij
            for k in range(n):
                lo, hi = scale_pair(yi[k], *dF[k][j])
                a_lo = add_down(a_lo, lo)
                a_hi = add_up(a_hi, hi)
            delta = 1.0 if i == j else 0.0
            row_norm = add_up(row_norm, max(sub_up(delta, a_lo), sub_up(a_hi, delta)))
            if i == j:
                diag = a_lo, a_hi
            else:
                lo, hi = mul_pair(a_lo, a_hi, *z[j])
                u_lo = sub_down(u_lo, hi)
                u_hi = sub_up(u_hi, lo)
        rho = max(rho, row_norm)
        c = xs[i]
        if diag[0] <= 0.0 <= diag[1]:
            H.append((c.lo, c.hi))
            continue
        lo, hi = div_pair(u_lo, u_hi, *diag)
        lo, hi = add_down(ms[i], lo), add_up(ms[i], hi)
        if not -_INF < lo <= hi < _INF:
            return None, 2.0
        H.append((lo, hi))
        lo, hi = max(lo, c.lo), min(hi, c.hi)
        if lo > hi:  # H_i misses X_i
            return H + [(c.lo, c.hi) for c in xs[i + 1:n]], rho
        z[i] = sub_down(lo, ms[i]), sub_up(hi, ms[i])
    return H, rho


def _contract(f: MapSpec, jac, box: Box, K, tol: float, tail):
    """Iterate X <- K(X) & X on a box with a proof id, which keeps every
    fixed point in X, while the width at least halves; tail is () or (T,),
    the coordinates after X's.  Returns (X, leaf), or (None, True) once some
    K(X) misses X, which then holds no fixed point.  X is a leaf once it is
    at most tol wide, has no splittable axis, or a step left it unchanged:
    then the rounding of K is as wide as X, and no sub-box can be proven.
    With T given, X is also a leaf where it stops halving or K raises: the
    fixed point moves with t across T, so X cannot shrink below that
    motion, and splitting X would leave two boxes with one proof between
    them, neither proven."""
    while True:
        if any(hi < c.lo or lo > c.hi for (lo, hi), c in zip(K, box.coords)):
            return None, True
        x = Box(tuple(Interval(max(lo, c.lo), min(hi, c.hi))
                      for (lo, hi), c in zip(K, box.coords)))
        if x.width <= tol or x.split_axis() is None or x == box:
            return x, True
        if x.width > 0.5 * box.width:
            return x, bool(tail)
        box = x
        K, _rho = _hansen_sengupta(f, jac, box.coords + tail)
        if K is None:
            return box, bool(tail)


def _dropped_volume(box: Box, x: Box) -> float:
    """box.volume() - x.volume(), the volume of box outside its sub-box x,
    or where that is NaN (inf - inf, say) the sum of the slabs of box
    outside x: slab i is outside x in axis i, inside x before i and inside
    box after it, and its sides are >= 0, so the sum is never NaN."""
    v = box.volume() - x.volume()
    if v != v:
        v = 0.0
        for i, (b, c) in enumerate(zip(box.coords, x.coords)):
            sides = ([e.hi - e.lo for e in x.coords[:i]] + [(c.lo - b.lo) + (b.hi - c.hi)]
                     + [e.hi - e.lo for e in box.coords[i + 1:]])
            if 0.0 not in sides:
                v += _INF if _INF in sides else math.prod(sides)
    return v


def _cut(box: Box, K, tol: float) -> "Box | None":
    """box, a part of the box X whose operator image is K, cut to K on each
    axis, except an axis that the cut would leave at most tol wide, or None
    when box misses K.  Every fixed point of g in box lies in the result,
    since K holds every fixed point of g in X."""
    coords = []
    for (lo, hi), c in zip(K, box.coords):
        if hi < c.lo or lo > c.hi:
            return None
        lo = max(c.lo, lo)  # on a tie, box's own endpoint: 0.0 stays 0.0
        hi = min(c.hi, hi)
        coords.append(Interval(lo, hi) if hi - lo > tol else c)
    return Box(tuple(coords))


def _faces_straddle(f: MapSpec, xs) -> bool:
    """The Poincare-Miranda test on the box whose coordinate tuple is xs
    (the box's coordinates, then T if f takes t): for every
    i, g_i is strictly above x_i on the face x_i = lo and strictly below on
    x_i = hi, or the reverse; True proves a fixed point in the box exists.
    It is depth 0 of `certify.certify_miranda` in auto mode."""
    for i, (comp, c) in enumerate(zip(f.components, xs)):
        sides = []
        for end in (c.lo, c.hi):
            try:
                lo, hi = comp.eval_pair(xs[:i] + (Interval(end),) + xs[i + 1:])
            except DomainError:
                return False
            sides.append((lo > end) - (hi < end))  # 1 above, -1 below, 0 neither
        if sides != [1, -1] and sides != [-1, 1]:
            return False
    return True


def localize_fixed_points(g: MapSpec, rect: RectDomain, tol: float,
                          budget: int = 200_000, t: "Interval | None" = None,
                          upgrade: bool = True) -> LocalizeResult:
    """Enclose every fixed point of g inside the rectangle.

    For parametrized maps pass the parameter range as the interval t:
    surviving boxes then enclose fixed points of g(t, .) for every t in
    that range jointly, and a PROVEN box holds a fixed point for every t
    in that range.  Budget counts processed boxes; on exhaustion each box
    still queued is kept as it is unless the residual test discards it,
    and the result is flagged.  Output order is canonical (lexicographic
    lower corner).

    With upgrade, every box wider than tol that the residual test does not
    discard takes the operator test, with t over its interval; the first
    box takes it before the residual test.  K(X) disjoint from X
    discards X.  K(X) inside the interior of X proves X holds exactly one
    fixed point and gives X a proof id, which its descendants inherit:
    they skip the interior test and are only pruned, excluded or
    contracted (_contract, which also decides which contracted boxes are
    leaves).  A failed test on a box without a proof id, with rho =
    |I - Y F'(X)| > 1, postpones the test until the width is at most
    width(X)/rho, since a box must shrink about that much before K(X) can
    fit inside it (it halves after an evaluation error or a singular
    midpoint matrix).  Where such a test found K(X), each half of X's split
    that misses K(X) is discarded, and each other half is cut to K(X) on
    every axis the cut leaves wider than tol: K(X) holds every fixed point
    of g in X (for every t in T), whatever the preconditioner.

    PROVEN is decided once, on the leaves: the only leaf that carries a
    proof id holds exactly one fixed point, since every dropped part of
    the proven box holds none, and any other leaf with a finite residual
    holds at least one when its faces pass the sign test (_faces_straddle).
    The first kind keeps its proven box as `Enclosure.unique`.  With t an
    interval T, K(X) inside int X proves for every t in T that X holds
    exactly one fixed point x(t); x(t) is continuous in t, since its graph
    is closed in the compact T x X.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, not {budget}")
    if g.dim != rect.dim:
        raise DimensionMismatchError(f"map of dim {g.dim} over rectangle of dim {rect.dim}")
    if g.has_param and t is None:
        raise ValueError("parametrized map needs the parameter interval t")
    if not g.has_param and t is not None:
        raise ValueError("map takes no parameter")
    with g.memo_view() as (f, jac):
        return _search(g, f, jac if upgrade else None, rect, tol, budget, t, upgrade)


def _search(g: MapSpec, f: MapSpec, jac, rect: RectDomain, tol: float, budget: int,
            t: "Interval | None", upgrade: bool) -> LocalizeResult:
    """The search of localize_fixed_points on f, the memo view of the map
    g, with its parameter over t if f takes one, and jac its Jacobian or
    None.  Every evaluation reads a box's coordinates followed by tail,
    (t,) or ().  A box takes its tests on one path and is discarded, kept
    or split; a contracted box first discards the part its contraction
    dropped.  A box proven by its own operator test takes no residual
    test: kept, it keeps g and its tuple, for its residual bound to be
    computed on first read."""
    tail = () if t is None else (t,)
    # (box, width at most which K is tried, proof id or None)
    queue = deque([(rect.box, _INF, None)])
    survivors = []  # (box, residual pairs, proof id or None)
    proven_boxes = []  # proof id -> the box it was proven on
    discarded_volume = 0.0
    examined = 0
    exhausted = False
    tests = proofs = exclusions = undecided_tests = halves_cut = halves_discarded = 0

    while queue:
        box, limit, proof = queue.popleft()
        if examined < budget:
            examined += 1
        else:  # out of budget: keep the box unless the residual test discards it
            exhausted = True
        width = box.width
        operator = (not exhausted and jac is not None and tol < width
                    and (proof is not None or width <= limit))
        # The root takes the residual test only where the operator cannot decide it.
        pairs = _UNTESTED if operator and examined == 1 else _residual_pairs(f, box.coords + tail)
        x, leaf = box, exhausted or width <= tol
        undecided = None  # K(X) of a test that neither proves nor excludes
        fresh = False  # this box's own test gave it its proof id
        if operator and pairs is not _PRUNED:
            tests += 1
            K, rho = _hansen_sengupta(f, jac, box.coords + tail)
            if K is not None and proof is None:
                if any(hi < c.lo or lo > c.hi for (lo, hi), c in zip(K, box.coords)):
                    exclusions += 1
                    pairs = _PRUNED
                elif all(c.lo < lo and hi < c.hi for (lo, hi), c in zip(K, box.coords)):
                    proofs += 1
                    proof = len(proven_boxes)
                    proven_boxes.append(box)
                    fresh = True
                else:
                    undecided = K
                    undecided_tests += 1
            if K is not None and proof is not None:
                x, leaf = _contract(f, jac, box, K, tol, tail)
                if x is None:
                    exclusions += 1
                    pairs = _PRUNED
                elif fresh:  # x holds a fixed point: its residual holds zero
                    pairs = _DEFERRED
                else:
                    pairs = _residual_pairs(f, x.coords + tail)
            elif pairs is not _PRUNED:
                if pairs is _UNTESTED:
                    pairs = _residual_pairs(f, box.coords + tail)
                if proof is None and rho > 1.0:  # 2.0 after an error or singular matrix
                    limit = width / rho
        if pairs is _PRUNED:  # pruned, or excluded by the operator test
            discarded_volume += box.volume()
            continue
        if x is not box:  # contracted: the dropped part holds no fixed point
            discarded_volume += _dropped_volume(box, x)
        axis = None if leaf else x.split_axis()
        if axis is None:
            survivors.append((x, pairs, proof))
            continue
        # Undecided, or a component raised: split, smaller boxes may evaluate.
        for half in _split_box(x, axis):
            if undecided is not None:  # every fixed point in the half lies in K
                cut = _cut(half, undecided, tol)
                if cut is None:
                    halves_discarded += 1
                    discarded_volume += half.volume()
                    continue
                if cut != half:
                    halves_cut += 1
                    discarded_volume += _dropped_volume(half, cut)
                    half = cut
            queue.append((half, limit, proof))

    heirs = Counter(proof for _box, _pairs, proof in survivors)
    enclosures = []
    for box, pairs, proof in survivors:
        unique = proven_boxes[proof] if proof is not None and heirs[proof] == 1 else None
        if pairs is _DEFERRED:  # the only heir of its proof: unique is its proven box
            enclosures.append(Enclosure(box, PROVEN, None, unique, (g, box.coords + tail)))
            continue
        proven = unique is not None or (upgrade and pairs is not None
                                        and _faces_straddle(f, box.coords + tail))
        enclosures.append(Enclosure(box, PROVEN if proven else CANDIDATE,
                                    _residual_bound(pairs), unique))

    enclosures.sort(key=lambda e: e.box.key())
    try:
        surviving_volume = math.fsum(e.box.volume() for e in enclosures)
    except OverflowError:  # the exact sum is past the float range
        surviving_volume = _INF
    return LocalizeResult(
        enclosures=enclosures,
        total_volume=rect.box.volume(),
        discarded_volume=discarded_volume,
        surviving_volume=surviving_volume,
        boxes_examined=examined,
        exhausted=exhausted,
        operator_tests=tests,
        operator_proofs=proofs,
        operator_exclusions=exclusions,
        operator_undecided=undecided_tests,
        halves_cut=halves_cut,
        halves_discarded=halves_discarded,
    )


def region_fixed_point_free(g: MapSpec, root: Box,
                            max_depth: int = 20, max_boxes: int = 60000) -> bool:
    """Prove root holds no fixed point of g.

    Returns True when every box was pruned by the residual test, False
    when rigor ran out.
    """

    if g.has_param:
        raise ValueError("map takes a parameter t but none was supplied")
    if root.dim != g.dim:
        raise DimensionMismatchError(f"box of dimension {root.dim} for map of dimension {g.dim}")

    def classify(box):
        if _residual_pairs(g, box.coords) is _PRUNED:
            return VERIFIED, None
        return UNKNOWN, None  # undecided, or a component raised: split

    cover = adaptive_cover([root], classify, max_depth, max_boxes)
    return cover.status == "verified"

