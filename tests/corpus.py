"""Seeded random problem generators for fuzzing and property experiments.

Maps are generated as expression sources so they pass through the same
parser as user input.  Generators are biased toward problems with a known
certifiable structure (contractions toward an interior point, expansions
through the box) with optional bounded nonlinear perturbations, so a fuzz
run exercises CERTIFIED, REFUTED and INDETERMINATE outcomes.

The homotopy check of the index axiom tests (``homotopy_nonvanishing``,
with ``blend_with_parameter`` and ``field_pairs_at``) lives here too: no
library path uses it.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal

from fpcert import geometry
from fpcert import interval as iv
from fpcert.degree import _half_plane, _rect_pieces
from fpcert.geometry import ConeShellSpec, CylinderSpec, Functional, HoledBallSpec, RectDomain
from fpcert.interval import Box, DimensionMismatchError, Interval
from fpcert.mapdsl import (
    BinOp,
    MapSpec,
    Param,
    Var,
    children,
    float_const,
    jacobian,
    parse_map,
    with_children,
)
from fpcert.subdivision import UNKNOWN, VERIFIED, adaptive_cover

UNARY_OPS = {
    "neg": lambda lo, hi: (-hi, -lo),
    "abs": iv.abs_pair,
    "sqrt": iv.sqrt_pair,
    "sin": iv.sin_pair,
    "cos": iv.cos_pair,
    "exp": iv.exp_pair,
    "tanh": iv.tanh_pair,
}
BINARY_OPS = {
    "add": lambda a, b, c, d: (iv.add_down(a, c), iv.add_up(b, d)),
    "sub": lambda a, b, c, d: (iv.sub_down(a, d), iv.sub_up(b, c)),
    "mul": iv.mul_pair,
    "div": iv.div_pair,
    "min": iv.min_pair,
    "max": iv.max_pair,
}


def apply_op(op: str, a: Interval, b: "Interval | None" = None) -> Interval:
    """An interval operation by name on the pair kernels, as map evaluation
    runs it (the fuzzing surface of the interval tests)."""
    if op in UNARY_OPS:
        return Interval(*UNARY_OPS[op](a.lo, a.hi))
    return Interval(*BINARY_OPS[op](a.lo, a.hi, b.lo, b.hi))


def _fmt(v: float) -> str:
    return repr(round(float(v), 6))


def _affine_source(dim: int, rows, offsets) -> list:
    lines = []
    for i in range(dim):
        terms = [f"{_fmt(rows[i][j])}*x{j + 1}" for j in range(dim)]
        lines.append(f"map g{i + 1} = " + " + ".join(terms) + f" + {_fmt(offsets[i])}")
    return lines


_WOBBLES = (
    "{amp}*sin({freq}*x{var})",
    "{amp}*cos({freq}*x{var})",
    "{amp}*tanh(x{var})",
    "{amp}*x{var}^2",
)


def _wobble(rng: random.Random, dim: int, amp: float) -> str:
    pat = rng.choice(_WOBBLES)
    return pat.format(
        amp=_fmt(rng.uniform(-amp, amp)),
        freq=_fmt(rng.uniform(0.5, 3.0)),
        var=rng.randrange(dim) + 1,
    )


def random_rect_problem(rng: random.Random):
    """Random (map, rectangle) pair with a mixed certifiability profile."""
    dim = rng.choice((1, 1, 2, 2, 2, 3))
    bounds = []
    for _ in range(dim):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + rng.uniform(0.5, 2.5)))
    rect = RectDomain(Box.from_bounds(bounds))
    centre = [0.5 * (lo + hi) for lo, hi in bounds]
    half = [0.5 * (hi - lo) for lo, hi in bounds]

    kind = rng.random()
    rows = [[0.0] * dim for _ in range(dim)]
    offsets = [0.0] * dim
    if kind < 0.45:  # contraction toward an interior point
        for i in range(dim):
            s = rng.uniform(-0.6, 0.6)
            rows[i][i] = s
            target = centre[i] + rng.uniform(-0.3, 0.3) * half[i]
            offsets[i] = target - s * centre[i]
        amp = 0.05 * min(half)
    elif kind < 0.7:  # expansion through the box
        for i in range(dim):
            s = rng.uniform(1.6, 3.0)
            rows[i][i] = s
            offsets[i] = centre[i] - s * centre[i]
        amp = 0.05 * min(half)
    elif kind < 0.85:  # translation off the box: refutable
        for i in range(dim):
            rows[i][i] = 1.0
            offsets[i] = (2.0 * half[i] + rng.uniform(0.5, 1.5)) * rng.choice((-1.0, 1.0))
        amp = 0.0
    else:  # mixed directions with coupling
        for i in range(dim):
            s = rng.choice((-0.5, 0.5, 2.0))
            rows[i][i] = s
            offsets[i] = centre[i] - s * centre[i]
            for j in range(dim):
                if j != i:
                    rows[i][j] = rng.uniform(-0.1, 0.1)
        amp = 0.03 * min(half)

    lines = _affine_source(dim, rows, offsets)
    if amp > 0.0 and rng.random() < 0.6:
        i = rng.randrange(dim)
        lines[i] += " + " + _wobble(rng, dim, amp)
    src = f"dim {dim}\n" + "\n".join(lines) + "\n"
    return parse_map(src), rect


def random_cylinder_problem(rng: random.Random):
    """Random (map, cylinder, form) with height conditions of a known form."""
    k = rng.choice((1, 1, 2))
    a = rng.uniform(-1.0, 0.5)
    b = a + rng.uniform(0.8, 2.0)
    base_bounds = []
    for _ in range(k):
        lo = rng.uniform(-1.0, 0.5)
        base_bounds.append((lo, lo + rng.uniform(0.5, 1.5)))
    cyl = CylinderSpec(Interval(a, b), Box.from_bounds(base_bounds))
    mid_t = 0.5 * (a + b)

    form = rng.choice(("expansive", "compressive"))
    if form == "expansive":
        s = rng.uniform(1.7, 3.0)
    else:
        s = rng.uniform(-0.6, 0.6)
    t_off = mid_t - s * mid_t
    lines = [f"map g1 = {_fmt(s)}*x1 + {_fmt(t_off)}"]
    for j in range(k):
        lo, hi = base_bounds[j]
        c = 0.5 * (lo + hi)
        sj = rng.uniform(-0.5, 0.5)
        off = c + rng.uniform(-0.2, 0.2) * (hi - lo) * 0.5 - sj * c
        lines.append(f"map g{j + 2} = {_fmt(sj)}*x{j + 2} + {_fmt(off)}")
    if rng.random() < 0.15:  # occasionally break the height condition
        lines[0] = f"map g1 = x1 + {_fmt(rng.uniform(1.0, 2.0) * (b - a))}"
    src = f"dim {1 + k}\n" + "\n".join(lines) + "\n"
    return parse_map(src), cyl, form


def random_cone_problem(rng: random.Random):
    """Random scaled quadratic cone map over a shell around its fixed slice."""
    lam = rng.uniform(0.7, 1.4)
    a = rng.uniform(0.3, 0.7) / lam
    b = rng.uniform(1.5, 2.5) / lam
    spec = ConeShellSpec(2, Functional("linear"), a, b)
    src = (
        "dim 2\n"
        f"map g1 = {_fmt(lam)}*(x1 + x2)*x1\n"
        f"map g2 = {_fmt(lam)}*(x1 + x2)*x2\n"
    )
    return parse_map(src), spec, "expansive"


_NORM_SOURCE = {"sup": "max(x1, x2)", "euclid": "sqrt(x1^2 + x2^2)"}


def random_norm_cone_problem(rng: random.Random, kind: str):
    """The map lam*l(x)*x, l the sup or the euclidean norm, over a shell
    around its fixed slice l = 1/lam; about 15% of the shells end below
    that slice, where the b-slice condition fails."""
    lam = rng.uniform(0.7, 1.4)
    a = rng.uniform(0.3, 0.7) / lam
    b = (rng.uniform(1.5, 2.5) if rng.random() < 0.85 else rng.uniform(0.75, 0.95)) / lam
    spec = ConeShellSpec(2, Functional(kind), a, b)
    level = f"{_fmt(lam)}*{_NORM_SOURCE[kind]}"
    src = f"dim 2\nmap g1 = {level}*x1\nmap g2 = {level}*x2\n"
    return parse_map(src), spec, "expansive"


def random_holed_ball_problem(rng: random.Random, n: int):
    """Ball with n holes on the x1 axis; x1 -> x1 - s sin(w (x1 - p0)) / w.

    s = 1 pulls every hole circle into its hole (CERTIFIED), s = -1 pushes
    it out (REFUTED on a hole), and a large offset on x2 leaves the outer
    ball (REFUTED on the outer condition).
    """
    period = rng.uniform(3.0, 5.0)
    w = 2.0 * math.pi / period
    p0 = -0.5 * (n - 1) * period
    r = round(period * rng.uniform(0.12, 0.17), 6)
    radius = round(-p0 + r + period * rng.uniform(0.1, 0.3), 4)
    mu = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.4), 6)
    kind = rng.choice(("pull", "pull", "push", "shift"))
    s = -1.0 if kind == "push" else 1.0
    off = 1.5 * radius if kind == "shift" else 0.0
    src = (
        "dim 2\n"
        f"map g1 = x1 - {s / w!r}*sin({w!r}*(x1 + {-p0!r}))\n"
        f"map g2 = {mu!r}*x2 + {off!r}\n"
    )
    holes = tuple((round(p0 + k * period, 6), 0.0, r) for k in range(n))
    return parse_map(src), HoledBallSpec(radius, holes)


def random_polynomial_map_2d(rng: random.Random, rect: RectDomain,
                             allow_nonlinear: bool = True) -> MapSpec:
    """Planar map with fixed points generically off the rectangle boundary."""
    (xr, yr) = rect.box.coords
    cx, cy = xr.mid, yr.mid
    lines = []
    for i, c in enumerate((cx, cy)):
        s = rng.choice((-2.0, -0.5, 0.5, 2.5))
        off = c - s * c + rng.uniform(-0.15, 0.15)
        term = f"{_fmt(s)}*x{i + 1} + {_fmt(off)}"
        if allow_nonlinear and rng.random() < 0.5:
            q = rng.uniform(-0.15, 0.15)
            term += f" + {_fmt(q)}*x{2 - i}^2"
        lines.append(f"map g{i + 1} = {term}")
    return parse_map("dim 2\n" + "\n".join(lines) + "\n")


def random_expression_map(rng: random.Random, dim: int, depth: int = 3) -> MapSpec:
    """Total-function-safe random expression map (no div or sqrt)."""

    def expr(d):
        if d == 0 or rng.random() < 0.28:
            if rng.random() < 0.55:
                return f"x{rng.randrange(dim) + 1}"
            return _fmt(rng.uniform(-2.0, 2.0))
        choice = rng.random()
        if choice < 0.45:
            op = rng.choice(("+", "-", "*"))
            return f"({expr(d - 1)} {op} {expr(d - 1)})"
        if choice < 0.72:
            fn = rng.choice(("sin", "cos", "tanh"))
            return f"{fn}({expr(d - 1)})"
        if choice < 0.82:
            return f"({expr(d - 1)})^{rng.choice((2, 3))}"
        if choice < 0.92:
            return f"(-{expr(d - 1)})"
        fn = rng.choice(("min", "max"))
        return f"{fn}({expr(d - 1)}, {expr(d - 1)})"

    lines = [f"map g{i + 1} = {expr(depth)}" for i in range(dim)]
    return parse_map(f"dim {dim}\n" + "\n".join(lines) + "\n")


def random_family(rng: random.Random, dim: int, depth: int) -> MapSpec:
    """A random parametrized map: a random map in x1..x(dim+1) with its last
    variable read as t, so t mixes with x and with constants."""
    m = random_expression_map(rng, dim + 1, depth)
    lines = m.to_source().replace(f"x{dim + 1}", "t").splitlines()
    return parse_map("\n".join([f"dim {dim}", "param t"] + lines[1:dim + 1]) + "\n")


def blend_with_parameter(f: MapSpec, g: MapSpec) -> MapSpec:
    """Straight-line blend (1-t)*f + t*g as a parametrized map.  Moved here
    from fpcert.mapdsl unchanged: the golden blend-* families are built by it."""
    if f.dim != g.dim:
        raise DimensionMismatchError("blended maps must share a dimension")
    if f.has_param or g.has_param:
        raise ValueError("blend operands must be parameter-free")
    one = float_const(1.0)
    comps = []
    for fc, gc in zip(f.components, g.components):
        lam = Param(f.dim)
        comps.append(
            BinOp("+", BinOp("*", BinOp("-", one, lam), fc), BinOp("*", lam, gc))
        )
    return MapSpec(f.dim, tuple(comps), has_param=True)


def field_pairs_at(f: MapSpec, box: Box, t: Interval) -> list:
    """Enclosure of F = Id - f(., t) over a box and a parameter interval t,
    one (lo, hi) pair per coordinate: fpcert.degree._field_pairs with the
    parameter argument it had before the homotopy check moved here."""
    out = []
    for x, (g_lo, g_hi) in zip(box.coords, f.eval_pairs(box, t)):
        lo, hi = iv.sub_down(x.lo, g_hi), iv.sub_up(x.hi, g_lo)
        if not -math.inf < lo <= hi < math.inf:
            raise iv.interval_error(lo, hi)
        out.append((lo, hi))
    return out


def homotopy_nonvanishing(f: MapSpec, g: MapSpec, rect: RectDomain,
                          max_depth: int = 18, max_boxes: int = 60000) -> bool:
    """Verify Id - ((1-t) f + t g) never vanishes on the boundary of a
    rectangle in the plane, t in [0,1].  Moved here from fpcert.degree: only
    the homotopy axiom tests use it.

    Subdivides the product of the parameter interval with each boundary
    edge. Returns True on full verification, False when the budget ran out
    (the homotopy might pass through zero on the boundary).
    """
    blend = blend_with_parameter(f, g)

    def classify(aug: Box):
        if _half_plane(field_pairs_at(blend, Box(aug.coords[1:]), aug.coords[0])) is not None:
            return VERIFIED, None
        return UNKNOWN, None

    for edge, enclose, _reverse in _rect_pieces(rect):
        seed = Box((Interval(0.0, 1.0),) + enclose(edge).coords)
        cover = adaptive_cover([seed], classify, max_depth, max_boxes)
        if cover.status != "verified":
            return False
    return True


def random_planted_trig_map(rng: random.Random, rect: RectDomain):
    """Planar map p + A (x - p) plus a sin term and a cos term that vanish
    at p, with p drawn inside the rectangle: p is a fixed point, and an
    isolated one unless I - A - (the terms' slopes at p) is singular, which
    the slope ranges make rare.  Returns (map, p)."""
    lines, p = _planted_trig_lines(rng, rect)
    return parse_map("dim 2\n" + "\n".join(lines) + "\n"), p


def random_planted_kinked_map(rng: random.Random, rect: RectDomain):
    """random_planted_trig_map plus a kink through the planted point p in
    one component: a*abs(x_k - p_k) or a*min(x_k - p_k, c*(x_l - p_l)).
    Both terms vanish at p, so p stays a fixed point, where the map is not
    differentiable.  Returns (map, p)."""
    lines, p = _planted_trig_lines(rng, rect)
    i, k = rng.randrange(2), rng.randrange(2)
    amp = _fmt(rng.uniform(-0.4, 0.4))
    if rng.randrange(2):
        kink = f"abs(x{k + 1} - {_fmt(p[k])})"
    else:
        slope = _fmt(rng.uniform(-1.5, 1.5))
        kink = f"min(x{k + 1} - {_fmt(p[k])}, {slope}*(x{2 - k} - {_fmt(p[1 - k])}))"
    lines[i] += f" + {amp}*{kink}"
    return parse_map("dim 2\n" + "\n".join(lines) + "\n"), p


def _planted_trig_lines(rng: random.Random, rect: RectDomain):
    p = [float(_fmt(c.lo + rng.uniform(0.2, 0.8) * (c.hi - c.lo))) for c in rect.box.coords]
    lines = []
    for i in range(2):
        terms = [_fmt(p[i])]
        for j in range(2):
            slope = rng.uniform(-1.5, 1.5) if i == j else rng.uniform(-0.6, 0.6)
            terms.append(f"{_fmt(slope)}*(x{j + 1} - {_fmt(p[j])})")
        for fn in ("sin", "cos"):
            k = rng.randrange(2)
            arg = f"{_fmt(rng.uniform(0.5, 3.0))}*(x{k + 1} - {_fmt(p[k])})"
            amp = _fmt(rng.uniform(-0.4, 0.4))
            terms.append(f"{amp}*sin({arg})" if fn == "sin" else f"{amp}*(cos({arg}) - 1)")
        lines.append(f"map g{i + 1} = " + " + ".join(terms))
    return lines, tuple(p)


def random_planted_branch_family(rng: random.Random, dim: int):
    """A family g(t, x) = b(t) + A (x - b(t)) + q (x_k - b_k(t))^2 e_i
    around a planted quadratic branch b(t) = c0 + c1 t + c2 t^2, traced
    over t in [0, 1] in a box that holds the branch with a margin.

    I - A is diagonally dominant by d >= 0.35, so |(I - A)^-1| <= 1/d in
    the max norm, and |q| <= 0.3 d / R with R the box's widest side.  A
    second fixed point x = b(t) + u would need |u| >= d / |q| > R, so b(t)
    is the only fixed point in the box for every t.  Returns (map, the
    triples (c0, c1, c2), one per coordinate, box).
    """
    coeffs = [tuple(float(_fmt(v)) for v in (rng.uniform(-1.0, 1.0), rng.uniform(-0.6, 0.6),
                                              rng.uniform(-0.3, 0.3)))
              for _ in range(dim)]
    bounds = []
    for c0, c1, c2 in coeffs:
        ts = [0.0, 1.0] + ([-c1 / (2.0 * c2)] if c2 and 0.0 < -c1 / (2.0 * c2) < 1.0 else [])
        vals = [c0 + c1 * t + c2 * t * t for t in ts]
        bounds.append((float(_fmt(min(vals) - rng.uniform(0.2, 0.5))),
                       float(_fmt(max(vals) + rng.uniform(0.2, 0.5)))))
    radius = max(hi - lo for lo, hi in bounds)
    diag = [rng.choice((rng.uniform(-1.5, 0.5), rng.uniform(1.5, 2.5))) for _ in range(dim)]
    rows = [[diag[i] if i == j else rng.uniform(-0.15, 0.15) for j in range(dim)]
            for i in range(dim)]
    margin = min(abs(1.0 - diag[i]) - sum(abs(rows[i][j]) for j in range(dim) if j != i)
                 for i in range(dim))
    q = rng.uniform(-0.3, 0.3) * margin / radius
    i, k = rng.randrange(dim), rng.randrange(dim)
    branch = [f"({c0!r} + {c1!r}*t + {c2!r}*t^2)" for c0, c1, c2 in coeffs]
    us = [f"(x{j + 1} - {b})" for j, b in enumerate(branch)]
    lines = []
    for r in range(dim):
        terms = [branch[r]] + [f"{_fmt(rows[r][j])}*{us[j]}" for j in range(dim)]
        if r == i:
            terms.append(f"{_fmt(q)}*{us[k]}^2")
        lines.append(f"map g{r + 1} = " + " + ".join(terms))
    m = parse_map(f"dim {dim}\nparam t\n" + "\n".join(lines) + "\n")
    return m, coeffs, Box.from_bounds(bounds)


def branch_point(coeffs, t: float):
    """The planted branch of random_planted_branch_family at t."""
    return tuple(c0 + c1 * t + c2 * t * t for c0, c1, c2 in coeffs)


def _dyadic(rng: random.Random, lo: float, hi: float) -> float:
    """A multiple of 1/64 in [lo, hi]: exact as a float and, through
    _exact, as a decimal literal."""
    return rng.randint(math.ceil(lo * 64), math.floor(hi * 64)) / 64


def _exact(v: float) -> str:
    """The decimal literal whose value is exactly the float v."""
    return format(Decimal(v), "f")


def random_degenerate_map(rng: random.Random, dim: int):
    """A 1-D or 2-D map whose fixed set is degenerate, on a random
    rectangle, with dyadic literals so that the planted set is exact.  Its
    first component is one of
      - min(x1, c) or max(x1, c): every x1 <= c, or every x1 >= c, is
        fixed, a segment of fixed points;
      - x1 + k*(x1 - p)^2: a tangential root p, where I - Dg vanishes;
      - x1 + k*(x1 - p)*(x1 - q): two roots p and q = p + 2^-21, closer
        than a search tolerance of 1e-6;
    and in 2-D its second is 0.5*x2 + d, whose one fixed point y = 2d lies
    inside the rectangle, so the fixed set is that of x1 at x2 = y.
    Returns (map, rectangle, the planted points, the planted segment as
    its two ends, which differ in x1 only, or None)."""
    bounds = []
    for _axis in range(dim):
        lo = _dyadic(rng, -2.0, 1.0)
        bounds.append((lo, lo + _dyadic(rng, 0.5, 2.5)))
    x, *rest = (_dyadic(rng, lo + 0.125, hi - 0.125) for lo, hi in bounds)
    k = _exact(rng.choice((-1, 1)) * _dyadic(rng, 0.25, 2.0))
    kind = rng.randrange(3)
    points, segment = (), None
    if kind == 0:
        fn = rng.choice(("min", "max"))
        first = f"{fn}(x1, {_exact(x)})"
        ends = (bounds[0][0], x) if fn == "min" else (x, bounds[0][1])
        segment = tuple((e, *rest) for e in ends)
    elif kind == 1:
        first = f"x1 + {k}*(x1 - {_exact(x)})^2"
        points = ((x, *rest),)
    else:
        q = x + 2.0 ** -21
        first = f"x1 + {k}*(x1 - {_exact(x)})*(x1 - {_exact(q)})"
        points = ((x, *rest), (q, *rest))
    lines = [f"map g1 = {first}"] + [f"map g2 = 0.5*x2 + {_exact(y / 2)}" for y in rest]
    m = parse_map(f"dim {dim}\n" + "\n".join(lines) + "\n")
    return m, RectDomain(Box.from_bounds(bounds)), points, segment


def box_meets_segment(box: Box, segment) -> bool:
    """Whether the closed box meets the segment, given by two ends that
    differ in x1 only, in more than one point."""
    (a, *ys), (b, *_ys) = segment
    x = box.coords[0]
    return max(x.lo, a) < min(x.hi, b) and all(c.lo <= y <= c.hi
                                                for c, y in zip(box.coords[1:], ys))


def random_partial_map(rng: random.Random, rect: RectDomain) -> MapSpec:
    """A planar map that raises on part of its rectangle: each component
    contracts toward a point of the rectangle, plus a*sqrt(x_k - s), which
    raises on a box where x_k < s, or a/(x_k - s), which raises on a box
    that holds x_k = s, with s inside the rectangle's side k."""
    coords = rect.box.coords
    lines = []
    for i, c in enumerate(coords):
        p = _fmt(c.lo + rng.uniform(0.2, 0.8) * (c.hi - c.lo))
        k = rng.randrange(2)
        s = _fmt(coords[k].lo + rng.uniform(0.1, 0.9) * (coords[k].hi - coords[k].lo))
        a = _fmt(rng.uniform(-0.5, 0.5))
        term = f"{a}*sqrt(x{k + 1} - {s})" if rng.randrange(2) else f"{a}/(x{k + 1} - {s})"
        slope = _fmt(rng.uniform(-0.6, 0.6))
        lines.append(f"map g{i + 1} = {p} + {slope}*(x{i + 1} - {p}) + {term}")
    return parse_map("dim 2\n" + "\n".join(lines) + "\n")


EDGE_KERNELS = ("sin", "cos", "exp", "tanh", "sqrt", "*", "/")


def _edge_literal(rng: random.Random, kernel: str) -> str:
    """A decimal literal for an argument of kernel, drawn from |x| <= 1e-8,
    [-1, 1] or [-3, 3], or from the kernel's own range: up to +-25 for
    tanh, magnitudes up to 1e15 for sin and cos, [-745, 709] for exp.
    Three in four are written out exactly, so that the literal's enclosure
    is a point and the kernel's rounding is all the enclosure of g2 holds."""
    draw = rng.randrange(4)
    if draw < 3 or kernel in ("sqrt", "*", "/"):
        scale = (1e-8, 1.0, 3.0, 3.0)[draw]
        x = rng.uniform(-scale, scale)
    elif kernel == "tanh":
        x = rng.uniform(-25.0, 25.0)
    elif kernel == "exp":
        x = rng.uniform(-745.0, 709.0)
    else:  # sin, cos
        x = math.copysign(10.0 ** rng.uniform(0.0, 15.0), rng.random() - 0.5)
    if kernel == "sqrt":
        x = abs(x)
    return str(Decimal(x)) if rng.random() < 0.75 else repr(x)


def random_edge_problem(rng: random.Random):
    """(map, cylinder, kernel, literals, whether the top is tight):
    g1 = 2*x1 - 0.5 and g2 one kernel of EDGE_KERNELS on decimal literals,
    on the cylinder [0, 1] x [lo, hi] whose top (or bottom) is the computed
    upper (lower) bound of g2 itself, its other side at least 1 away.  Only
    an enclosure that misses the true value, by an ulp say, lets a base
    without the fixed point (0.5, g2) pass as CERTIFIED."""
    kernel = rng.choice(EDGE_KERNELS)
    binary = kernel in ("*", "/")
    literals = [_edge_literal(rng, kernel) for _ in range(2 if binary else 1)]
    args = [f"({a})" if a[0] == "-" else a for a in literals]
    g2 = f" {kernel} ".join(args) if binary else f"{kernel}({args[0]})"
    m = parse_map(f"dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = {g2}\n")
    lo, hi = m.components[1].eval_pair(())
    top = rng.random() < 0.5
    base = (lo - 1.0 - abs(lo), hi) if top else (lo, hi + 1.0 + abs(hi))
    return m, CylinderSpec(Interval(0.0, 1.0), Box.from_bounds([base])), kernel, literals, top


def random_box(rng: random.Random, dim: int, scale: float = 2.0) -> Box:
    bounds = []
    for _ in range(dim):
        lo = rng.uniform(-scale, scale)
        bounds.append((lo, lo + rng.uniform(1e-3, scale)))
    return Box.from_bounds(bounds)


def box_contains(box: Box, p) -> bool:
    """Whether the closed box holds the point p, one value per coordinate."""
    assert len(p) == box.dim, (len(p), box.dim)
    return all(c.lo <= x <= c.hi for c, x in zip(box.coords, p))


def sample_in_box(rng: random.Random, box: Box):
    return tuple(c.lo + rng.random() * (c.hi - c.lo) for c in box.coords)


def shared_coordinate_boxes(rng: random.Random, box: Box, count: int, per_axis: int = 8):
    """count sub-boxes of box whose coordinates come from a pool of per_axis
    intervals per axis, so that many share a coordinate, as boxes of one
    search do.  A pool holds the axis itself, a point and, where the axis
    holds 0, intervals that end at 0.0 and at -0.0 alike."""
    pools = []
    for c in box.coords:
        pool = [c, Interval(c.lo + rng.random() * (c.hi - c.lo))]
        if c.lo < 0.0 < c.hi:
            pool += [Interval(-0.0, c.hi), Interval(0.0, c.hi),
                     Interval(c.lo, -0.0), Interval(c.lo, 0.0)]
        while len(pool) < per_axis:
            a, b = sorted(c.lo + rng.random() * (c.hi - c.lo) for _ in range(2))
            pool.append(Interval(a, b))
        pools.append(pool)
    return [Box(tuple(rng.choice(pool) for pool in pools)) for _ in range(count)]


def memo_view_mismatches(m: MapSpec, boxes, t=None) -> list:
    """The boxes, taken in order in one search, on which the memo view of m
    (MapSpec.memo_view) and its Jacobian give other pairs or errors, by
    repr, than m and jacobian(m).  With t, both are evaluated on each
    box's coordinates followed by t, as in a trace cell over t.  The view
    evaluates each box's tuple, then the next box's, then the first tuple
    again, so a slot that kept a pair for the wrong tuple shows."""

    def outcomes(exprs, xs):
        out = []
        for e in exprs:
            try:
                out.append(None if e is None else repr(e.eval_pair(xs)))
            except (ArithmeticError, ValueError) as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    def flat(comps, jac):
        return list(comps) + ([] if jac is None else [d for row in jac for d in row])

    tail = () if t is None else (t,)
    tuples = [box.coords + tail for box in boxes]
    plain = flat(m.components, jacobian(m))
    want = [outcomes(plain, xs) for xs in tuples]
    bad = []
    with m.memo_view() as (view, view_jac):
        memo = flat(view.components, view_jac)
        for i, xs in enumerate(tuples):
            j = (i + 1) % len(tuples)  # the neighbour
            got = [outcomes(memo, xs), outcomes(memo, tuples[j]), outcomes(memo, xs)]
            if len(memo) != len(plain) or got != [want[i], want[j], want[i]]:
                bad.append(boxes[i])
    return bad


def region_filter_mismatches(tests, boxes) -> list:
    """The boxes on which one of the region tests (the holed-ball and
    cone-shell `relevant` tests of fpcert.geometry) decides otherwise, result
    or error by repr, than with its float filter switched off, which leaves
    its directed test alone (geometry._GUARD = 0.0: no float passes it)."""

    def outcomes(box):
        out = []
        for test in tests:
            try:
                out.append(repr(test(box)))
            except ValueError as exc:  # DomainError included
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    filtered = [outcomes(box) for box in boxes]
    guard, geometry._GUARD = geometry._GUARD, 0.0
    try:
        directed = [outcomes(box) for box in boxes]
    finally:
        geometry._GUARD = guard
    return [box for box, a, b in zip(boxes, filtered, directed) if a != b]


def permute_coordinates(m: MapSpec, perm) -> MapSpec:
    """m with its coordinates permuted: y_i = x_perm[i], the map
    y -> P g(P^-1 y), whose fixed points are those of g permuted, exactly.
    Reversal is perm = range(m.dim)[::-1].  Only the nodes of x1..xn are
    rewritten (t, a Var subclass, stays)."""
    inverse = [0] * m.dim
    for i, j in enumerate(perm):
        inverse[j] = i

    def rewrite(e):
        if type(e) is Var:
            return Var(inverse[e.index])
        kids = children(e)
        return with_children(e, [rewrite(k) for k in kids]) if kids else e

    return MapSpec(m.dim, tuple(rewrite(m.components[j]) for j in perm), m.has_param)


def permute_box(box: Box, perm) -> Box:
    """The box with axis i of the result axis perm[i] of box (see
    permute_coordinates)."""
    return Box(tuple(box.coords[j] for j in perm))


def translate_coordinates(m: MapSpec, shift) -> MapSpec:
    """m conjugated by the translation x -> x + shift: the map
    y -> g(y - shift) + shift, whose fixed points are those of g moved by
    shift, exactly (shift is a list of floats, one per coordinate)."""

    def rewrite(e):
        if type(e) is Var:
            return BinOp("-", e, float_const(shift[e.index]))
        kids = children(e)
        return with_children(e, [rewrite(k) for k in kids]) if kids else e

    comps = tuple(BinOp("+", rewrite(c), float_const(s)) for c, s in zip(m.components, shift))
    return MapSpec(m.dim, comps, m.has_param)


def translate_box(box: Box, shift) -> "Box | None":
    """The box moved by shift (see translate_coordinates), or None when
    some endpoint plus its offset is not a float."""
    coords = []
    for c, s in zip(box.coords, shift):
        lo, hi = iv.add_down(c.lo, s), iv.add_up(c.hi, s)
        if lo != iv.add_up(c.lo, s) or hi != iv.add_down(c.hi, s):
            return None
        coords.append(Interval(lo, hi))
    return Box(tuple(coords))
