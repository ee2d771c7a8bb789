"""Seeded random problem generators for fuzzing and property experiments.

Maps are generated as expression sources so they pass through the same
parser as user input.  Generators are biased toward problems with a known
certifiable structure (contractions toward an interior point, expansions
through the box) with optional bounded nonlinear perturbations, so a fuzz
run exercises CERTIFIED, REFUTED and INDETERMINATE outcomes.
"""

from __future__ import annotations

import math
import random

from fpcert import interval as iv
from fpcert.geometry import ConeShellSpec, CylinderSpec, Functional, HoledBallSpec, RectDomain
from fpcert.interval import Box, Interval
from fpcert.mapdsl import MapSpec, parse_map

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
    spec = ConeShellSpec(2, Functional.ones(2), a, b)
    src = (
        "dim 2\n"
        f"map g1 = {_fmt(lam)}*(x1 + x2)*x1\n"
        f"map g2 = {_fmt(lam)}*(x1 + x2)*x2\n"
    )
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


def random_box(rng: random.Random, dim: int, scale: float = 2.0) -> Box:
    bounds = []
    for _ in range(dim):
        lo = rng.uniform(-scale, scale)
        bounds.append((lo, lo + rng.uniform(1e-3, scale)))
    return Box.from_bounds(bounds)


def sample_in_box(rng: random.Random, box: Box):
    return tuple(c.lo + rng.random() * (c.hi - c.lo) for c in box.coords)
