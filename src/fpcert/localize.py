"""Branch-and-prune localization of fixed points, and crossing sub-paths.

The pruning test discards a sub-box B as soon as some component of the
interval residual g(B) - B excludes zero, which proves B holds no fixed
point.  The components are walked in order on endpoint pairs and the walk
stops at the first one that excludes zero: one such component is the whole
proof, so the others are not evaluated.  Surviving boxes are bisected down
to the requested width, or until no coordinate has a float strictly inside
it to split at.

With the upgrade on, every box also takes the Krawczyk test (at abs,
min and max with Clarke's generalized gradient, see `mapdsl.derivative`),
which discards boxes, proves that a box holds exactly one fixed point,
and contracts a proven box far below the requested width and off the
27/53 grid; and each leaf without a Krawczyk proof takes a
Poincare-Miranda sign test on its faces.  A parametrized map takes the
same tests on its map with the parameter bound to an interval T, so a
proof holds for every t in T at once.  Every discarded part is proven
free of fixed points and discarded plus surviving boxes tile the input
rectangle, so no fixed point is lost.

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
from collections import Counter, deque
from dataclasses import dataclass

from .geometry import RectDomain
from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    abs_pair,
    add_down,
    add_up,
    mul_pair,
    mul_up,
    sub_down,
    sub_up,
)
from .mapdsl import MapSpec, jacobian
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
    # For a Krawczyk-PROVEN box, the box X at which K(X) inside int X held:
    # it holds exactly one fixed point (for every t in T), the one in box.
    # None otherwise.  Not part of the JSON output.
    unique: "Box | None" = None

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


def _residual_pairs(f: MapSpec, xs):
    """The residual pairs (lo, hi) of g(B) - B over the box with coordinates
    xs, component by component, for a map f that takes no parameter.

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
            lo, hi = comp.eval_pair(xs, None)
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
    zero or an entry is not finite.  Only an approximation: the Krawczyk
    operator is an enclosure for any preconditioner."""
    n = len(a)
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


def _krawczyk(f: MapSpec, jac, xs):
    """The Krawczyk operator K(X) = m - Y F(m) + (I - Y F'(X))(X - m) of
    F = Id - g over the box X with coordinates xs, where m is X's midpoint,
    F'(X) the naive enclosure of the Jacobian `jac` over X and Y a float
    inverse of mid F'(X), evaluated with directed rounding.

    Returns (K, rho): K as a list of (lo, hi) pairs and rho the row-sum
    norm of I - Y F'(X), rounded up.  Every fixed point of g in X lies in K
    (the mean value theorem row by row), so K disjoint from X proves X holds
    none, and K inside the interior of X proves X holds exactly one
    (Krawczyk 1969; Moore 1977).  Returns (None, 2.0) when an evaluation
    raises, mid F'(X) is singular or K is not finite.
    """
    n = len(xs)
    ms = [c.mid for c in xs]
    point = [Interval(m) for m in ms]
    try:
        fm = []
        for comp, m in zip(f.components, ms):
            lo, hi = comp.eval_pair(point, None)
            fm.append((sub_down(m, hi), sub_up(m, lo)))
        dF = []  # F'(X) = I - Dg(X)
        for i, row in enumerate(jac):
            dF_row = []
            for j, d in enumerate(row):
                delta = 1.0 if i == j else 0.0
                if d is None:
                    dF_row.append((delta, delta))
                else:
                    lo, hi = d.eval_pair(xs, None)
                    dF_row.append((sub_down(delta, hi), sub_up(delta, lo)))
            dF.append(dF_row)
    except DomainError:
        return None, 2.0
    y = _inverse([[0.5 * lo + 0.5 * hi for lo, hi in r] for r in dF])
    if y is None:
        return None, 2.0
    # X - m lies in [-r, r], so C (X - m) lies in [-|C| r, |C| r].
    rad = [max(sub_up(m, c.lo), sub_up(c.hi, m)) for c, m in zip(xs, ms)]
    K = []
    rho = 0.0
    for i in range(n):
        yi = y[i]
        # K_i - m_i = -(Y F(m))_i + (C (X - m))_i, summed before m_i is
        # added, so that the small terms cost no rounding at m's scale.
        k_lo = k_hi = 0.0
        for k in range(n):
            lo, hi = mul_pair(yi[k], yi[k], *fm[k])
            k_lo = sub_down(k_lo, hi)
            k_hi = sub_up(k_hi, lo)
        row_norm = 0.0
        spread = 0.0
        for j in range(n):
            c_lo = c_hi = 1.0 if i == j else 0.0  # C_ij = (I - Y F'(X))_ij
            for k in range(n):
                lo, hi = mul_pair(yi[k], yi[k], *dF[k][j])
                c_lo = sub_down(c_lo, hi)
                c_hi = sub_up(c_hi, lo)
            mag = max(-c_lo, c_hi)
            row_norm = add_up(row_norm, mag)
            spread = add_up(spread, mul_up(mag, rad[j]))
        k_lo = add_down(ms[i], sub_down(k_lo, spread))
        k_hi = add_up(ms[i], add_up(k_hi, spread))
        if not -_INF < k_lo <= k_hi < _INF:
            return None, 2.0
        K.append((k_lo, k_hi))
        rho = max(rho, row_norm)
    return K, rho


def _contract(f: MapSpec, jac, box: Box, K, tol: float):
    """Iterate X <- K(X) & X, which keeps every fixed point in X, while the
    width at least halves.  Returns (X, leaf), or (None, True) once some
    K(X) misses X, which then holds no fixed point.  X is a leaf once it is
    at most tol wide, has no splittable axis, or a step left it unchanged:
    then the rounding of K is as wide as X, and no sub-box can be proven.

    When f has its parameter bound to an interval T, the caller keeps X as
    a leaf also when the width stopped halving: the fixed point moves with
    t across T, so X cannot shrink below that motion, and splitting X
    would leave two boxes with one proof between them, neither proven."""
    while True:
        if any(hi < c.lo or lo > c.hi for (lo, hi), c in zip(K, box.coords)):
            return None, True
        x = Box(tuple(Interval(max(lo, c.lo), min(hi, c.hi))
                      for (lo, hi), c in zip(K, box.coords)))
        if x.width <= tol or x.split_axis() is None or x == box:
            return x, True
        if x.width > 0.5 * box.width:
            return x, False
        box = x
        K, _rho = _krawczyk(f, jac, box.coords)
        if K is None:
            return box, False


def _faces_straddle(f: MapSpec, xs) -> bool:
    """The Poincare-Miranda test on the box with coordinates xs: for every
    i, g_i is strictly above x_i on the face x_i = lo and strictly below on
    x_i = hi, or the reverse; True proves a fixed point in the box exists.
    It is depth 0 of `certify.certify_miranda` in auto mode."""
    for i, (comp, c) in enumerate(zip(f.components, xs)):
        sides = []
        for end in (c.lo, c.hi):
            try:
                lo, hi = comp.eval_pair(xs[:i] + (Interval(end),) + xs[i + 1:], None)
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
    in that range.  Budget counts processed boxes; on exhaustion the
    unprocessed queue is returned as CANDIDATE enclosures, less the boxes
    the residual test discards, and the result is flagged.  Output order
    is canonical (lexicographic lower corner).

    With upgrade, every surviving box wider than tol takes the Krawczyk
    test, on g with t bound to its interval.  K(X) disjoint from X
    discards X.  K(X) inside the interior of X proves X holds exactly one
    fixed point and gives X a proof id, which its descendants inherit:
    they skip the interior test and are only pruned, excluded or
    contracted (_contract).
    A failed test on a box without a proof id, with rho = |I - Y F'(X)| >
    1, postpones the test until the width is at most width(X)/rho, since
    a box must shrink about that much before K(X) can fit inside it (it
    halves after an evaluation error or a singular midpoint matrix).  With
    t given, a proven box whose contraction stops halving is a leaf even
    above tol: its fixed point x(t) moves across t, which bounds its width
    from below.

    PROVEN is decided once, on the leaves: the only leaf that carries a
    proof id holds exactly one fixed point, since every dropped part of
    the proven box holds none, and any other leaf with a finite residual
    holds at least one when its faces pass the sign test (_faces_straddle).
    The first kind keeps its proven box as `Enclosure.unique`.  With t an
    interval T, K(X) inside int X proves for every t in T that X holds
    exactly one fixed point x(t); x(t) is continuous in t, since its graph
    is closed in the compact T x X.
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
    jac = jacobian(f) if upgrade else None

    # (box, width at most which K is tried, proof id or None)
    queue = deque([(rect.box, _INF, None)])
    survivors = []  # (box, residual pairs, proof id or None)
    proven_boxes = []  # proof id -> the box it was proven on
    discarded_volume = 0.0
    examined = 0
    exhausted = False

    while queue:
        if examined >= budget:
            exhausted = True
            break
        box, limit, proof = queue.popleft()
        examined += 1
        pairs = _residual_pairs(f, box.coords)
        if pairs is _PRUNED:
            discarded_volume += box.volume()
            continue
        width = box.width
        if jac is not None and tol < width and (proof is not None or width <= limit):
            K, rho = _krawczyk(f, jac, box.coords)
            if K is not None and proof is None and all(
                    c.lo < lo and hi < c.hi for (lo, hi), c in zip(K, box.coords)):
                proof = len(proven_boxes)
                proven_boxes.append(box)
            if K is not None and (proof is not None or any(
                    hi < c.lo or lo > c.hi for (lo, hi), c in zip(K, box.coords))):
                x, leaf = _contract(f, jac, box, K, tol)
                pairs = _PRUNED if x is None else _residual_pairs(f, x.coords)
                if pairs is _PRUNED:
                    discarded_volume += box.volume()
                    continue
                discarded_volume += box.volume() - x.volume()
                if leaf or t is not None:
                    survivors.append((x, pairs, proof))
                    continue
                box, width = x, x.width  # stopped halving above tol: split it
            elif proof is None and rho > 1.0:  # 2.0 after an error or singular matrix
                limit = width / rho
        axis = None if width <= tol else box.split_axis()
        if axis is None:
            survivors.append((box, pairs, proof))
            continue
        # Undecided, or a component raised: split, smaller boxes may evaluate.
        left, right = _split_box(box, axis)
        queue.append((left, limit, proof))
        queue.append((right, limit, proof))

    # Budget exhausted: the unprocessed boxes the residual test does not
    # discard are kept, with their proof ids and the bound over all components.
    for box, _limit, proof in queue:
        pairs = _residual_pairs(f, box.coords)
        if pairs is _PRUNED:
            discarded_volume += box.volume()
        else:
            survivors.append((box, pairs, proof))

    heirs = Counter(proof for _box, _pairs, proof in survivors)
    enclosures = []
    for box, pairs, proof in survivors:
        unique = proven_boxes[proof] if proof is not None and heirs[proof] == 1 else None
        proven = unique is not None or (upgrade and pairs is not None
                                        and _faces_straddle(f, box.coords))
        enclosures.append(Enclosure(box, PROVEN if proven else CANDIDATE,
                                    _residual_bound(pairs), unique))

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
