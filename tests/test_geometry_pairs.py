"""The pair-kernel geometry against the Interval-operator formulas it replaced.

`dist2_pair`, `Functional.value_pair` and `degree._field_pairs` evaluate on
(lo, hi) endpoint pairs.  The references below are the formulas they
replaced, written with `Interval` operators; every result must equal its
reference bit for bit (compared by repr, so signed zeros count), and every
error must have the same type and message.  The holed-ball domain tests,
which now read hoisted squared radii, must decide every box as the
references do, including boxes whose squared distance lands exactly on a
rounded r^2.
"""

import math
import random

from corpus import random_box, random_expression_map, random_holed_ball_problem

from fpcert.certify import _holed_ball_conditions, _radial_segment
from fpcert.degree import _field_pairs
from fpcert.geometry import Functional, HoledBallSpec, dist2_pair
from fpcert.interval import Box, Interval, abs_pair, max_pair, mul_down, mul_up
from fpcert.mapdsl import blend_with_parameter, parse_map

# -- the replaced formulas -------------------------------------------------


def _ref_dist2(box, cx, cy):
    dx = box.coords[0] - Interval(cx)
    dy = box.coords[1] - Interval(cy)
    return dx.pow_int(2) + dy.pow_int(2)


def _ref_value(f, box):
    if f.kind == "euclid":
        acc = Interval(0.0)
        for c in box.coords:
            acc = acc + c.pow_int(2)
        return acc.sqrt()
    if f.kind == "sup":
        acc = abs_pair(box.coords[0].lo, box.coords[0].hi)
        for c in box.coords[1:]:
            acc = max_pair(*acc, *abs_pair(c.lo, c.hi))
        return Interval(*acc)
    acc = Interval(0.0)
    for coef, c in zip(f.coeffs, box.coords):
        acc = acc + Interval(coef) * c
    return acc


def _ref_field(f, box, t=None):
    img = f.eval_interval(box, t)
    return Box(tuple(x - g for x, g in zip(box.coords, img.coords)))


def _point(p):
    return Box(tuple(Interval(x) for x in p))


def _ref_in_domain(spec, box):
    R = spec.radius
    return _ref_dist2(box, 0.0, 0.0).lo <= mul_up(R, R) and all(
        _ref_dist2(box, cx, cy).hi >= mul_down(r, r) for cx, cy, r in spec.holes)


def _ref_centre_in_domain(spec, box):
    R = spec.radius
    p = _point(box.midpoint())
    return _ref_dist2(p, 0.0, 0.0).hi <= mul_down(R, R) and all(
        _ref_dist2(p, cx, cy).lo >= mul_up(r, r) for cx, cy, r in spec.holes)


def _ref_hole_relevant(box, cx, cy, r):
    d2 = _ref_dist2(box, cx, cy)
    return not (d2.hi < mul_down(r, r) or d2.lo > mul_up(r, r))


def _ref_hole_meets(box, cx, cy, r):
    near, far = _radial_segment(box, cx, cy)
    return (_ref_dist2(_point(near), cx, cy).hi <= mul_down(r, r)
            and _ref_dist2(_point(far), cx, cy).lo >= mul_up(r, r))


# -- comparison ------------------------------------------------------------


def _outcome(fn, *args):
    """repr of the result as endpoint pairs, or the error's type and text."""
    try:
        out = fn(*args)
    except ValueError as exc:  # DomainError included
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, Interval):
        out = (out.lo, out.hi)
    elif isinstance(out, Box):
        out = [(c.lo, c.hi) for c in out.coords]
    elif isinstance(out, list):
        out = [tuple(p) for p in out]
    return repr(out)


def _kind(outcome):
    name = outcome.split(":")[0]
    return name if name.endswith("Error") else "ok"


_SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160, 1.0, -1.0, 2.5,
    1e154, -1e154, 1.2e154, -1.3e154, 1.3407807929942596e154, 1e200, -1e200,
    1e300, -1e300, 1.7e308, -1.7976931348623157e308,
)


def _endpoint(rng):
    r = rng.random()
    if r < 0.3:
        return rng.choice(_SPECIAL)
    if r < 0.6:
        return rng.uniform(-10.0, 10.0)
    return math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5)


def _coord(rng, centre):
    """A coordinate interval: a point, a straddle of the centre, a subnormal
    width, or two random endpoints."""
    r = rng.random()
    if r < 0.2:
        x = _endpoint(rng)
        return Interval(x)
    if r < 0.4:
        return Interval(centre - rng.uniform(0.0, 3.0), centre + rng.uniform(0.0, 3.0))
    if r < 0.55:
        x = rng.choice((0.0, 1e-310, -2e-308, rng.uniform(-1.0, 1.0)))
        return Interval(x, x + rng.randint(1, 8) * 5e-324)
    a, b = _endpoint(rng), _endpoint(rng)
    return Interval(min(a, b), max(a, b))


def _centre(rng):
    r = rng.random()
    if r < 0.3:
        return 0.0
    if r < 0.8:
        return rng.uniform(-5.0, 5.0)
    return rng.choice((1e154, -1.1e154, 1e300, -1e300, 1e-300))


# -- dist2 -----------------------------------------------------------------


def test_dist2_matches_interval_reference():
    rng = random.Random(1154)
    kinds = {}
    for _ in range(40000):
        cx, cy = _centre(rng), _centre(rng)
        box = Box((_coord(rng, cx), _coord(rng, cy)))
        x, y = box.coords
        expected = _outcome(_ref_dist2, box, cx, cy)
        got = _outcome(dist2_pair, x.lo, x.hi, y.lo, y.hi, cx, cy)
        assert got == expected, (box.bounds(), cx, cy)
        kinds[_kind(expected)] = kinds.get(_kind(expected), 0) + 1
    assert kinds["ok"] > 20000 and kinds["DomainError"] > 1000, kinds


def test_dist2_errors_at_each_stage():
    # An overflowing difference, an overflowing square, an overflowing sum:
    # each raises at its own stage with the reference's message.
    big = 1.7976931348623157e308
    cases = [
        (Box.from_bounds([(-big, 0.0), (0.0, 0.0)]), 1e300, 0.0),
        (Box.from_bounds([(0.0, 0.0), (-big, 1.0)]), 0.0, 1e299),
        (Box.from_bounds([(1e154, 1.5e154), (0.0, 1.0)]), 0.0, 0.0),
        (Box.from_bounds([(0.0, 1.0), (1.2e154, 1.4e154)]), 0.0, 0.0),
        (Box.from_bounds([(1e154, 1.3e154), (1e154, 1.3e154)]), 0.0, 0.0),
    ]
    messages = set()
    for box, cx, cy in cases:
        x, y = box.coords
        expected = _outcome(_ref_dist2, box, cx, cy)
        assert expected.startswith("DomainError: non-finite interval bound")
        assert _outcome(dist2_pair, x.lo, x.hi, y.lo, y.hi, cx, cy) == expected
        messages.add(expected)
    assert len(messages) == len(cases)


# -- Functional.value_pair -------------------------------------------------


def test_functional_value_matches_interval_reference():
    rng = random.Random(31)
    functionals = [Functional.euclid(), Functional.sup(), Functional.ones(3),
                   Functional.linear((0.5, 3.0, 1e-300)), Functional.linear((1e200, 2.0, 7.25)),
                   Functional("linear", (2, 1, 3)),
                   Functional("linear", (1.0, math.inf, 1.0)),
                   Functional("linear", (math.nan, 1.0, 1.0))]
    kinds = {}
    for _ in range(6000):
        dim = rng.choice((1, 2, 3))
        box = Box(tuple(_coord(rng, 0.0) for _ in range(dim)))
        pairs = [(c.lo, c.hi) for c in box.coords]
        for f in functionals:
            expected = _outcome(_ref_value, f, box)
            assert _outcome(f.value_pair, pairs) == expected, (f, box.bounds())
            kinds[f.kind, _kind(expected)] = kinds.get((f.kind, _kind(expected)), 0) + 1
    for kind in ("euclid", "sup", "linear"):
        assert kinds[kind, "ok"] > 1000, kinds
    assert kinds["euclid", "DomainError"] and kinds["linear", "DomainError"], kinds


# -- degree._field_pairs ---------------------------------------------------

_RAISING_MAPS = (
    "dim 2\nmap g1 = 0.5/(x1^2 - x1 + 1)\nmap g2 = 0.5*x2\n",
    "dim 2\nmap g1 = sqrt(x2) + x1\nmap g2 = 1/x1\n",
    "dim 1\nmap g1 = 1e300*x1 - 1e300\n",
    "dim 2\nmap g1 = x1^-2\nmap g2 = exp(x2)\n",
)


def test_field_pairs_match_interval_reference():
    rng = random.Random(77)
    kinds = {}
    maps = [parse_map(src) for src in _RAISING_MAPS]
    maps += [random_expression_map(rng, rng.choice((1, 2)), depth=3 + k % 3)
             for k in range(150)]
    for m in maps:
        for scale in (0.5, 2.0, 40.0, 1e154, 1e300):
            box = random_box(rng, m.dim, scale)
            expected = _outcome(_ref_field, m, box)
            assert _outcome(_field_pairs, m, box) == expected, (m.to_source(), box.bounds())
            kinds[_kind(expected)] = kinds.get(_kind(expected), 0) + 1
        point = Box(tuple(Interval(c.lo) for c in box.coords))
        assert _outcome(_field_pairs, m, point) == _outcome(_ref_field, m, point)
    assert kinds["ok"] > 300 and kinds["DomainError"] > 20, kinds


def test_field_pairs_raise_on_an_overflowing_difference():
    cases = [
        ("dim 2\nmap g1 = -1.7e308\nmap g2 = x2\n", [(1e308, 1.7e308), (0.0, 1.0)]),
        ("dim 2\nmap g1 = x1\nmap g2 = 1.7e308\n", [(0.0, 1.0), (-1e308, 0.0)]),
        ("dim 2\nmap g1 = -1.7e308\nmap g2 = 1.7e308\n", [(1e308, 1e308), (-1e308, -1e308)]),
    ]
    for src, bounds in cases:
        m, box = parse_map(src), Box.from_bounds(bounds)
        expected = _outcome(_ref_field, m, box)
        assert expected.startswith("DomainError: non-finite interval bound")
        assert _outcome(_field_pairs, m, box) == expected


def test_field_pairs_with_a_parameter_match_interval_reference():
    rng = random.Random(78)
    f = parse_map("dim 2\nmap g1 = x1*x2\nmap g2 = sin(x1)\n")
    g = parse_map("dim 2\nmap g1 = x2^2 - 1\nmap g2 = 1/x1\n")
    blend = blend_with_parameter(f, g)
    for _ in range(300):
        box = random_box(rng, 2, 3.0)
        lo = rng.uniform(0.0, 1.0)
        t = Interval(lo, min(1.0, lo + rng.uniform(0.0, 0.5)))
        assert _outcome(_field_pairs, blend, box, t) == _outcome(_ref_field, blend, box, t)


# -- holed-ball domain tests and the cross-check's disk test ---------------


def _tight_points(r):
    """Points at distance x from a centre at the origin, x**2 rounded up
    equal to r**2 rounded down or up: boxes where the rounding of a squared
    radius decides the test."""
    points = [(r, 0.0), (0.0, r), (-r, 0.0)]
    r2_lo, r2_hi = mul_down(r, r), mul_up(r, r)
    x = math.sqrt(r2_lo)
    for _ in range(6):
        x = math.nextafter(x, 0.0)
    for _ in range(12):
        if mul_up(x, x) in (r2_lo, r2_hi):
            points.append((x, 0.0))
        x = math.nextafter(x, math.inf)
    return points


def _decision_boxes(rng, spec):
    R = spec.radius
    boxes = []
    for _ in range(60):
        w = R * rng.choice((2.0, 0.5, 0.1, 1e-3, 0.0))
        x0, y0 = rng.uniform(-R, R - w), rng.uniform(-R, R - w)
        boxes.append(Box.from_bounds([(x0, x0 + w), (y0, y0 + w)]))
    for cx, cy, r in spec.holes:
        for _ in range(10):  # boxes across the hole circle
            a = rng.uniform(0.0, 2.0 * math.pi)
            px, py = cx + r * math.cos(a), cy + r * math.sin(a)
            h = r * rng.choice((0.3, 0.01, 0.0))
            boxes.append(Box.from_bounds([(px - h, px + h), (py - h, py + h)]))
    return boxes


def _specs(rng):
    specs = []
    for k in range(40):
        _m, spec = random_holed_ball_problem(rng, 2 + k % 3)
        specs.append(spec)
    specs.append(HoledBallSpec(1.5e154, ((-5e153, 0.0, 1e153), (5e153, 0.0, 1e153))))
    return specs


def test_holed_ball_domain_tests_decide_as_the_reference():
    rng = random.Random(4242)
    identity = parse_map("dim 2\nmap g1 = x1\nmap g2 = x2\n")
    tight = 0
    cases = [(spec, _decision_boxes(rng, spec)) for spec in _specs(rng)]
    for _ in range(60):  # a hole at the origin, boxes on its rounded radius
        r = rng.uniform(0.5, 1.0)
        spec = HoledBallSpec(4.0, ((0.0, 0.0, r), (2.5, 0.0, 0.5)))
        points = _tight_points(r)
        tight += len(points) - 3
        cases.append((spec, [_point(p) for p in points]))
    decisions = set()
    for spec, boxes in cases:
        outer, *holes = _holed_ball_conditions(identity, spec)
        for box in boxes:
            pairs = [
                (outer.relevant, _ref_in_domain, (spec, box)),
                (outer.meets, _ref_centre_in_domain, (spec, box)),
            ]
            for cond, (cx, cy, r) in zip(holes, spec.holes):
                pairs.append((cond.relevant, _ref_hole_relevant, (box, cx, cy, r)))
                pairs.append((cond.meets, _ref_hole_meets, (box, cx, cy, r)))
            for k, (got, ref, args) in enumerate(pairs):
                expected = _outcome(ref, *args)
                assert _outcome(got, box) == expected, (k, spec, box.bounds())
                decisions.add(expected)
    assert tight > 20
    assert {"True", "False"} <= decisions and any("DomainError" in d for d in decisions)
