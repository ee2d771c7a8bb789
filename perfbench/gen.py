"""Seeded problem generators for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns a ``Problem``: the DSL
program text that fpcert receives, plus facts known from the construction
(is there a fixed point, which index, which branch) that the correctness
checks compare answers against.  fpcert never sees the facts.

The rect, cylinder and cone generators reproduce ``fpcert.corpus`` as it
stands when the benchmark was defined, draw for draw, but emit program text
and keep the kind of map they drew.  They live here so that a change to the
package cannot change the benchmark's inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass
class Problem:
    pid: int
    kind: str
    source: str
    task: str = "certify"
    facts: dict = field(default_factory=dict)


def _fmt(v: float) -> str:
    return repr(round(float(v), 6))


def _rect_line(bounds) -> str:
    return "domain rect " + " ".join(f"[{lo!r},{hi!r}]" for lo, hi in bounds)


def _numbered(problems):
    for pid, p in enumerate(problems):
        p.pid = pid
    return problems


def _program(dim: int, lines, domain: str, param: bool = False) -> str:
    head = [f"dim {dim}"] + (["param t"] if param else [])
    return "\n".join(head + list(lines) + [domain]) + "\n"


# ---------------------------------------------------------------------------
# certify-batch: ports of the fpcert.corpus generators
# ---------------------------------------------------------------------------

_WOBBLES = (
    "{amp}*sin({freq}*x{var})",
    "{amp}*cos({freq}*x{var})",
    "{amp}*tanh(x{var})",
    "{amp}*x{var}^2",
)


def _affine_lines(dim, rows, offsets):
    lines = []
    for i in range(dim):
        terms = [f"{_fmt(rows[i][j])}*x{j + 1}" for j in range(dim)]
        lines.append(f"map g{i + 1} = " + " + ".join(terms) + f" + {_fmt(offsets[i])}")
    return lines


def rect_problem(rng: random.Random) -> Problem:
    """Port of corpus.random_rect_problem; a translation has no fixed point."""
    dim = rng.choice((1, 1, 2, 2, 2, 3))
    bounds = []
    for _ in range(dim):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + rng.uniform(0.5, 2.5)))
    centre = [0.5 * (lo + hi) for lo, hi in bounds]
    half = [0.5 * (hi - lo) for lo, hi in bounds]

    kind = rng.random()
    rows = [[0.0] * dim for _ in range(dim)]
    offsets = [0.0] * dim
    if kind < 0.45:
        label = "contraction"
        for i in range(dim):
            s = rng.uniform(-0.6, 0.6)
            rows[i][i] = s
            target = centre[i] + rng.uniform(-0.3, 0.3) * half[i]
            offsets[i] = target - s * centre[i]
        amp = 0.05 * min(half)
    elif kind < 0.7:
        label = "expansion"
        for i in range(dim):
            s = rng.uniform(1.6, 3.0)
            rows[i][i] = s
            offsets[i] = centre[i] - s * centre[i]
        amp = 0.05 * min(half)
    elif kind < 0.85:
        label = "translation"
        for i in range(dim):
            rows[i][i] = 1.0
            offsets[i] = (2.0 * half[i] + rng.uniform(0.5, 1.5)) * rng.choice((-1.0, 1.0))
        amp = 0.0
    else:
        label = "mixed"
        for i in range(dim):
            s = rng.choice((-0.5, 0.5, 2.0))
            rows[i][i] = s
            offsets[i] = centre[i] - s * centre[i]
            for j in range(dim):
                if j != i:
                    rows[i][j] = rng.uniform(-0.1, 0.1)
        amp = 0.03 * min(half)

    lines = _affine_lines(dim, rows, offsets)
    if amp > 0.0 and rng.random() < 0.6:
        i = rng.randrange(dim)
        pat = rng.choice(_WOBBLES)
        lines[i] += " + " + pat.format(
            amp=_fmt(rng.uniform(-amp, amp)),
            freq=_fmt(rng.uniform(0.5, 3.0)),
            var=rng.randrange(dim) + 1,
        )
    # g_i = x_i + c_i with |c_i| > 0 moves every point: no fixed point.
    facts = {"fixed_point": False} if label == "translation" else {}
    return Problem(0, f"rect-{label}", _program(dim, lines, _rect_line(bounds)),
                   facts=facts)


def cylinder_problem(rng: random.Random) -> Problem:
    """Port of corpus.random_cylinder_problem.

    The CLI picks the form itself, so the drawn form only shapes the map.
    A broken height map x1 + c with c >= b - a has no fixed point.
    """
    k = rng.choice((1, 1, 2))
    a = rng.uniform(-1.0, 0.5)
    b = a + rng.uniform(0.8, 2.0)
    base = []
    for _ in range(k):
        lo = rng.uniform(-1.0, 0.5)
        base.append((lo, lo + rng.uniform(0.5, 1.5)))
    mid_t = 0.5 * (a + b)
    form = rng.choice(("expansive", "compressive"))
    s = rng.uniform(1.7, 3.0) if form == "expansive" else rng.uniform(-0.6, 0.6)
    lines = [f"map g1 = {_fmt(s)}*x1 + {_fmt(mid_t - s * mid_t)}"]
    for j in range(k):
        lo, hi = base[j]
        c = 0.5 * (lo + hi)
        sj = rng.uniform(-0.5, 0.5)
        off = c + rng.uniform(-0.2, 0.2) * (hi - lo) * 0.5 - sj * c
        lines.append(f"map g{j + 2} = {_fmt(sj)}*x{j + 2} + {_fmt(off)}")
    facts = {}
    kind = f"cylinder-{form}"
    if rng.random() < 0.15:
        lines[0] = f"map g1 = x1 + {_fmt(rng.uniform(1.0, 2.0) * (b - a))}"
        facts = {"fixed_point": False}
        kind = "cylinder-broken"
    domain = (f"domain cylinder [{a!r},{b!r}] base "
              + " ".join(f"[{lo!r},{hi!r}]" for lo, hi in base))
    return Problem(0, kind, _program(1 + k, lines, domain), facts=facts)


def cone_problem(rng: random.Random) -> Problem:
    """Port of corpus.random_cone_problem: the slice l = 1/lam is fixed."""
    lam = rng.uniform(0.7, 1.4)
    a = rng.uniform(0.3, 0.7) / lam
    b = rng.uniform(1.5, 2.5) / lam
    lines = [f"map g1 = {_fmt(lam)}*(x1 + x2)*x1", f"map g2 = {_fmt(lam)}*(x1 + x2)*x2"]
    return Problem(0, "cone-quadratic",
                   _program(2, lines, f"domain coneshell l=sum a={a!r} b={b!r}"))


def cone_scaling_problem(rng: random.Random) -> Problem:
    """x -> c x fixes only the origin, which no shell contains."""
    c = rng.choice((rng.uniform(1.5, 3.5), rng.uniform(0.2, 0.7)))
    a = rng.uniform(0.5, 1.5)
    b = a + rng.uniform(0.5, 1.5)
    lines = [f"map g1 = {_fmt(c)}*x1", f"map g2 = {_fmt(c)}*x2"]
    return Problem(0, "cone-scaling",
                   _program(2, lines, f"domain coneshell l=sum a={a!r} b={b!r}"),
                   facts={"fixed_point": False})


def holed_ball_problem(rng: random.Random, n: int, task: str) -> Problem:
    """Planar ball with n holes on one axis; the map pulls each hole inward.

    Along the hole axis the map is h(u) = u - sin(w (u - p0)) / w, whose
    attracting fixed points are the hole centres p0 + k P (P = 2 pi / w);
    across it the map contracts by mu.  h is monotone and maps every
    [p_k, p_k+1] onto itself, so each hole circle maps into its closed
    hole and the ball into itself once R sits between the last hole and
    the next repelling point.  The index over the domain is 1 - n.  R also
    keeps that repelling point outside the padded square that the winding
    cross-check uses.
    """
    period = rng.uniform(3.0, 5.0)
    w = 2.0 * math.pi / period
    p0 = -0.5 * (n - 1) * period
    last = -p0
    r = period * rng.uniform(0.12, 0.17)
    r_lo = last + r + 0.05 * period
    r_hi = 0.97 * (last + 0.5 * period) / 1.125
    radius = round(rng.uniform(r_lo, r_hi), 4)
    mu = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.4)
    u, v = ("x1", "x2") if rng.random() < 0.5 else ("x2", "x1")
    along = f"{u} - {_fmt(1.0 / w)}*sin({_fmt(w)}*({u} + {_fmt(-p0)}))"
    across = f"{_fmt(mu)}*{v}"
    lines = ([f"map g1 = {along}", f"map g2 = {across}"] if u == "x1"
             else [f"map g1 = {across}", f"map g2 = {along}"])
    holes = []
    for k in range(n):
        c = round(p0 + k * period, 6)
        cx, cy = (c, 0.0) if u == "x1" else (0.0, c)
        holes.append(f"hole ({cx!r},{cy!r},{round(r, 6)!r})")
    domain = f"domain holedball R={radius!r} " + " ".join(holes)
    return Problem(0, f"holes-{n}", _program(2, lines, domain), task=task,
                   facts={"index": 1 - n})


def index_1d_problem(rng: random.Random) -> Problem:
    """Affine g = s x + off; the index is the Bolzano sign rule of x - g."""
    lo = rng.uniform(-2.0, 1.0)
    hi = lo + rng.uniform(0.5, 2.5)
    s = rng.choice((rng.uniform(-0.8, 0.8), rng.uniform(1.5, 3.0)))
    if rng.random() < 0.75:
        x_star = lo + rng.uniform(0.15, 0.85) * (hi - lo)
        value = 1 if s < 1.0 else -1
    else:
        x_star = rng.choice((lo - rng.uniform(0.2, 1.0), hi + rng.uniform(0.2, 1.0)))
        value = 0
    x_star = float(_fmt(x_star))
    lines = [f"map g1 = {_fmt(s)}*(x1 - {x_star!r}) + {x_star!r}"]
    return Problem(0, "index-1d", _program(1, lines, _rect_line([(lo, hi)])),
                   task="index", facts={"index": value})


def index_2d_problem(rng: random.Random) -> Problem:
    """g = x - F with F affine (index sign det, or 0 when the zero is outside)
    or F = a (z - c)^k in complex notation, conjugated or not (index +-k)."""
    bounds = []
    for _ in range(2):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + rng.uniform(1.0, 2.5)))
    c = [float(_fmt(lo + rng.uniform(0.25, 0.75) * (hi - lo))) for lo, hi in bounds]
    u, v = f"(x1 - {c[0]!r})", f"(x2 - {c[1]!r})"
    if rng.random() < 0.5:
        k = rng.choice((2, 3))
        a = _fmt(rng.uniform(0.5, 1.5))
        if k == 2:
            re, im = f"({u}^2 - {v}^2)", f"(2*{u}*{v})"
        else:
            re, im = f"({u}^3 - 3*{u}*{v}^2)", f"(3*{u}^2*{v} - {v}^3)"
        sign = rng.choice((1, -1))
        if sign < 0:
            im = f"(-{im})"
        lines = [f"map g1 = x1 - {a}*{re}", f"map g2 = x2 - {a}*{im}"]
        return Problem(0, f"index-power{k}", _program(2, lines, _rect_line(bounds)),
                       task="index", facts={"index": sign * k})
    s = [rng.choice((-2.0, -0.5, 0.5, 2.5)) for _ in range(2)]
    value = (1 if (1.0 - s[0]) * (1.0 - s[1]) > 0.0 else -1)
    if rng.random() < 0.25:  # fixed point pushed outside the rectangle
        axis = rng.randrange(2)
        lo, hi = bounds[axis]
        c[axis] = float(_fmt(hi + rng.uniform(0.3, 1.0)))
        value = 0
    lines = [f"map g{i + 1} = {_fmt(s[i])}*(x{i + 1} - {c[i]!r}) + {c[i]!r}"
             for i in range(2)]
    return Problem(0, "index-affine", _program(2, lines, _rect_line(bounds)),
                   task="index", facts={"index": value})


def equality_problem(rng: random.Random) -> Problem:
    """g1 = x1 meets both x1-faces with equality: the certifier abstains only
    after spending its whole box budget."""
    bounds = []
    for _ in range(2):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + rng.uniform(0.5, 2.5)))
    lo, hi = bounds[1]
    s = rng.uniform(-0.6, 0.6)
    target = lo + rng.uniform(0.3, 0.7) * (hi - lo)
    lines = ["map g1 = x1", f"map g2 = {_fmt(s)}*x2 + {_fmt(target - s * target)}"]
    return Problem(0, "equality", _program(2, lines, _rect_line(bounds)))


def rational_problem(rng: random.Random) -> Problem:
    """Contraction plus c / (y^2 - y + 1) with y = x2 - lo2 in [0, 1].

    The denominator is at least 0.75, but its naive enclosure is [0, 2], so
    interval evaluation on an x1-face divides by an interval holding zero.
    """
    bounds = []
    for _ in range(2):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + 1.0))
    y = f"(x2 - {bounds[1][0]!r})"
    lines = []
    for i, (lo, hi) in enumerate(bounds):
        s = rng.uniform(-0.5, 0.5)
        mid = 0.5 * (lo + hi)
        lines.append(f"map g{i + 1} = {_fmt(s)}*x{i + 1} + {_fmt(mid - s * mid)}")
    lines[0] += f" + {_fmt(rng.uniform(0.05, 0.2))}/({y}^2 - {y} + 1)"
    return Problem(0, "rational", _program(2, lines, _rect_line(bounds)))


# One block of the certify-batch mix; the workload is 20 blocks, each
# shuffled on its own, so every class is spread evenly through a pass.  Shares per block of 50: 80% short problems (1-10 ms), 18%
# holed balls with 2, 3 and 4 holes (10-100 ms) and 2% equality cases
# (about 0.5 s).  The median then falls among the short problems and the
# 90th percentile inside the overlapping holed-ball times, away from every
# class boundary.
CERTIFY_BLOCK = (
    (15, rect_problem),
    (6, cylinder_problem),
    (4, cone_problem),
    (2, cone_scaling_problem),
    (6, index_1d_problem),
    (7, index_2d_problem),
    (2, lambda rng: holed_ball_problem(rng, 2, "certify")),
    (2, lambda rng: holed_ball_problem(rng, 3, "certify")),
    (2, lambda rng: holed_ball_problem(rng, 4, "certify")),
    (1, lambda rng: holed_ball_problem(rng, 2, "index")),
    (1, lambda rng: holed_ball_problem(rng, 3, "index")),
    (1, lambda rng: holed_ball_problem(rng, 4, "index")),
    (1, equality_problem),
)


def certify_batch(seed: int, blocks: int):
    rng = random.Random(f"certify-batch:{seed}")
    problems = []
    for _ in range(blocks):
        block = [make(rng) for count, make in CERTIFY_BLOCK for _ in range(count)]
        rng.shuffle(block)
        problems.extend(block)
    return _numbered(problems)


def known_defect(seed: int, count: int):
    """Rational maps that fail at the parent commit; run apart from the loop."""
    rng = random.Random(f"known-defect:{seed}")
    problems = [rational_problem(rng) for _ in range(count)]
    return _numbered(problems)


# ---------------------------------------------------------------------------
# localize-trig
# ---------------------------------------------------------------------------

# The trig map of the baseline measurements; problem 0 of every seed.
TRIG_MAP = ("map g1 = 0.9*sin(3*x1) + 0.3*x2^2",
            "map g2 = 0.8*cos(2*x2 - x1) + 0.1*x1*x2")
TRIG_DOMAIN = "domain rect [-2,2] [-2,2]"


JITTER = 0.04


def trig_coupled(rng: random.Random, scale) -> Problem:
    """The baseline trig map with coefficient j multiplied by scale[j] (each
    within 4% of 1) and one small tanh or exp term added: strong cross
    terms, three fixed points.  Most get a PROVEN enclosure; the baseline
    map gets none.  At 8% jitter about one map in sixty came near a fold,
    where a degenerate fixed point multiplies the surviving leaves and the
    time by five."""
    a1, b1, q1, a2, b2, c2, e2, f2 = (_fmt(v * k) for v, k in zip(
        (0.9, 3.0, 0.3, 0.8, 2.0, 1.0, 0.1, 0.3), scale))
    extra = rng.choice((f"{_fmt(rng.uniform(-0.1, 0.1))}*tanh(x{rng.randrange(2) + 1})",
                        f"{_fmt(rng.uniform(-0.05, 0.05))}*exp({f2}*x1)"))
    lines = [
        f"map g1 = {a1}*sin({b1}*x1) + {q1}*x2^2",
        f"map g2 = {a2}*cos({b2}*x2 - {c2}*x1) + {e2}*x1*x2 + {extra}",
    ]
    return Problem(0, "trig-coupled", _program(2, lines, TRIG_DOMAIN), task="localize")


def _stratified_scales(rng: random.Random, n: int, dims: int):
    """n scale vectors, each coordinate a Latin-hypercube sample of
    [1 - JITTER, 1 + JITTER]: every seed then draws each coefficient evenly
    over its range, so time quantiles vary less between seeds."""
    columns = []
    for _ in range(dims):
        strata = rng.sample(range(n), n)
        columns.append([1.0 + JITTER * (2.0 * (k + rng.random()) / n - 1.0) for k in strata])
    return list(zip(*columns))


def trig_weak(rng: random.Random) -> Problem:
    """Each component driven by its own coordinate, with a cross term of at
    most 0.02.  Row slopes stay below 1, so the map is a contraction with
    one fixed point, and leaf Miranda usually proves it."""
    lines = []
    for i, fn in enumerate(("sin", "cos") if rng.random() < 0.5 else ("cos", "sin")):
        x, y = f"x{i + 1}", f"x{2 - i}"
        lines.append(
            f"map g{i + 1} = {_fmt(rng.uniform(0.4, 0.6))}*{fn}({_fmt(rng.uniform(1.0, 1.4))}*{x}"
            f" + {_fmt(rng.uniform(-1.0, 1.0))}) + {_fmt(rng.uniform(-0.03, 0.03))}*{x}^2"
            f" + {_fmt(rng.uniform(-0.02, 0.02))}*{rng.choice(('tanh', 'sin'))}({y})"
        )
    return Problem(0, "trig-weak", _program(2, lines, TRIG_DOMAIN), task="localize")


def localize_trig(seed: int, count: int):
    rng = random.Random(f"localize-trig:{seed}")
    problems = [Problem(0, "trig-baseline", _program(2, TRIG_MAP, TRIG_DOMAIN),
                        task="localize")]
    coupled = [k for k in range(1, count) if k % 3 != 1]
    scales = dict(zip(coupled, _stratified_scales(rng, len(coupled), 8)))
    problems += [trig_coupled(rng, scales[k]) if k in scales else trig_weak(rng)
                 for k in range(1, count)]
    return _numbered(problems)


# ---------------------------------------------------------------------------
# trace-poly
# ---------------------------------------------------------------------------


BRANCH_SPEED = 0.4


def poly_family(rng: random.Random, dim: int) -> Problem:
    """g_i(t, x) = x_i + u_i ((a_i - 1) + q_i u_i [+ e_i u_j]) with
    u_i = x_i - b_i(t), around a known quadratic branch
    b(t) = c0 + c1 t + c2 t^2, over a box holding the branch.

    |q_i| and |e_i| are small against |1 - a_i| over the box, so the bracket
    never vanishes there and b(t) is the only fixed point in the box.
    """
    # The branch moves at the same speed in every family, so that families
    # cost about the same: survivors grow with the distance it travels.
    angle = rng.uniform(0.0, 2.0 * math.pi)
    velocity = (BRANCH_SPEED * math.cos(angle), BRANCH_SPEED * math.sin(angle))
    if dim == 1:
        velocity = (rng.choice((-BRANCH_SPEED, BRANCH_SPEED)),)
    coeffs = [tuple(float(_fmt(c)) for c in (rng.uniform(-0.5, 0.5), v, rng.uniform(-0.1, 0.1)))
              for v in velocity]
    bounds = []
    for c0, c1, c2 in coeffs:
        vals = [c0 + c1 * t + c2 * t * t for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        bounds.append((round(min(vals) - rng.uniform(0.3, 0.6), 4),
                       round(max(vals) + rng.uniform(0.3, 0.6), 4)))
    width = max(hi - lo for lo, hi in bounds)
    us = [f"(x{i + 1} - ({c0!r} + {c1!r}*t + {c2!r}*t^2))"
          for i, (c0, c1, c2) in enumerate(coeffs)]
    lines = []
    for i in range(dim):
        a = rng.uniform(-0.5, 0.5)
        slope = abs(1.0 - a)
        bracket = f"{_fmt(a - 1.0)} + {_fmt(rng.uniform(-0.2, 0.2) * slope / width)}*{us[i]}"
        if dim == 2:
            bracket += f" + {_fmt(rng.uniform(-0.1, 0.1) * slope / width)}*{us[1 - i]}"
        lines.append(f"map g{i + 1} = x{i + 1} + {us[i]}*({bracket})")
    return Problem(0, f"poly-{dim}d", _program(dim, lines, _rect_line(bounds), param=True),
                   task="trace", facts={"branch": coeffs})


def trace_poly(seed: int, count: int):
    rng = random.Random(f"trace-poly:{seed}")
    # One 1-D family in three: both latency percentiles then fall inside
    # the 2-D families' times, not at the boundary between the two kinds.
    problems = [poly_family(rng, 1 if k % 3 == 0 else 2) for k in range(count)]
    return _numbered(problems)
