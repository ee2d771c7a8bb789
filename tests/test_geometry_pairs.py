"""The pair-kernel geometry against the Interval-operator formulas it replaced.

`dist2_pair`, `Functional.value_pair`, `degree._field_pairs` and its
parametrized copy `corpus.field_pairs_at` evaluate on (lo, hi) endpoint
pairs.  The references below are the formulas they replaced, written
with `Interval` operators; every result must equal its
reference bit for bit (compared by repr, so signed zeros count), and every
error must have the same type and message.  The holed-ball region tests
(`HoledBallSpec.circles`, which round each squared radius once) and the
cone-shell level tests (`Functional.level_tests`) must decide every box as
the references do, including boxes whose squared distance or level lands
exactly on a rounded threshold.  A plain-float filter sits in front of the
relevance tests; it must leave every decision and error to the
reference's, and must decide, without the directed test, every box that
its float bracket decides.
"""

import math
import random

from corpus import (
    blend_with_parameter,
    field_pairs_at,
    random_box,
    random_expression_map,
    random_holed_ball_problem,
)

from fpcert import geometry
from fpcert.degree import _field_pairs
from fpcert.geometry import Functional, HoledBallSpec, _radial_segment, dist2_pair
from fpcert.interval import Box, Interval, abs_pair, max_pair, mul_down, mul_up
from fpcert.mapdsl import parse_map

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
    for c in box.coords:
        acc = acc + c
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
    functionals = [Functional("euclid"), Functional("sup"), Functional("linear")]
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


# -- cone-shell level tests ------------------------------------------------


def _ref_level_relevant(f, lo, hi, box):
    v = _ref_value(f, box)
    return not (v.hi < lo or v.lo > hi)


def _ref_level_meets(f, lo, hi, box):
    lower = _ref_value(f, _point([c.lo for c in box.coords]))
    upper = _ref_value(f, _point([c.hi for c in box.coords]))
    return lower.hi <= hi and upper.lo >= lo


def _float_corner_levels(f, box):
    """The level filter's bracket, written out: f at the lower and the upper
    corner in plain floats, and the largest float of the upper one (the
    squared norm for euclid)."""
    ends = []
    for corner in ([c.lo for c in box.coords], [c.hi for c in box.coords]):
        if f.kind == "sup":
            ends.append((max(corner), max(corner)))
        elif f.kind == "euclid":
            s = sum(x * x for x in corner)
            ends.append((math.sqrt(s), s))
        else:
            s = sum(corner)
            ends.append((s, s))
    return ends[0][0], ends[1][0], ends[1][1]


def _level_boxes(rng, f, lo, hi):
    """Orthant boxes around the levels; points whose float level lands on
    lo or hi or within a few ulps of it; boxes off the orthant, at signed
    zeros and past the float range."""
    boxes = []
    for _ in range(80):
        coords = []
        for _axis in range(2):
            a = rng.choice((0.0, rng.uniform(0.0, hi), rng.uniform(0.0, 2.0 * hi)))
            coords.append((a, a + rng.choice((0.0, 1e-9, 0.1, 1.0)) * hi))
        boxes.append(Box.from_bounds(coords))
    for level in (lo, hi):
        for _ in range(30):
            u = rng.uniform(0.0, level)
            if f.kind == "euclid":
                t = rng.uniform(0.0, math.pi / 2)
                p = [level * math.cos(t), level * math.sin(t)]
            elif f.kind == "sup":
                p = [level, u]
            else:
                p = [u, level - u]
            for step in (-2, -1, 0, 1, 2):
                q = list(p)
                for _ in range(abs(step)):
                    q[0] = math.nextafter(q[0], math.copysign(math.inf, step))
                boxes.append(_point(q))
    boxes += [Box.from_bounds(b) for b in (
        [(-0.0, 0.0), (-0.0, lo)], [(-0.0, hi), (0.0, 0.0)], [(-1.0, hi), (0.0, hi)],
        [(-hi, -0.5 * lo), (0.0, hi)], [(0.0, _EDGE), (0.0, 0.0)],
        [(0.0, 1.7976931348623157e308), (0.0, 1.0)], [(1e300, 1.7e308), (0.0, 1e308)])]
    return boxes


def test_level_tests_decide_as_the_reference(monkeypatch):
    """The cone-shell relevance and meets tests decide every box as the
    Interval formulas, on the levels of cone invariance (lo < hi) and of a
    slice (lo == hi); and the float filter in front of the relevance test
    decides, without the directed test, every box its bracket decides: an
    orthant box whose float corner levels reach the levels, below 1e300."""
    directed = []
    value_pair = Functional.value_pair
    monkeypatch.setattr(Functional, "value_pair",
                        lambda self, pairs: directed.append(1) or value_pair(self, pairs))
    rng = random.Random(2718)
    decisions, filtered, fell_back, on_level = set(), 0, 0, 0
    for f in (Functional("linear"), Functional("euclid"), Functional("sup")):
        for lo, hi in ((0.5, 2.0), (1.0, 1.0), (0.3, 0.3), (2.0, 7.5), (1e-300, 1e300)):
            tests = f.level_tests(lo, hi, 0.5 * (lo + hi))
            for box in _level_boxes(rng, f, lo, hi):
                for test, ref in ((tests["relevant"], _ref_level_relevant),
                                  (tests["meets"], _ref_level_meets)):
                    expected = _outcome(ref, f, lo, hi, box)
                    assert _outcome(test, box) == expected, (f, lo, hi, box.bounds())
                    decisions.add(expected)
                l_lo, l_hi, largest = _float_corner_levels(f, box)
                decides = (min(c.lo for c in box.coords) >= 0.0 and largest < 1e300
                           and l_lo <= hi and l_hi >= lo)
                on_level += decides and (l_lo == hi or l_hi == lo)
                del directed[:]
                _outcome(tests["relevant"], box)
                assert bool(directed) != decides, (f, lo, hi, box.bounds(), decides)
                filtered += decides
                fell_back += not decides
    assert {"True", "False"} <= decisions and any("DomainError" in d for d in decisions)
    assert filtered > 2000 and fell_back > 2000 and on_level > 1000, (filtered, fell_back, on_level)


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
        assert _outcome(field_pairs_at, blend, box, t) == _outcome(_ref_field, blend, box, t)


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


def _float_tight_points(r):
    """Points (x, 0) whose plain float square x*x lies within 3 ulps of r**2
    rounded down or up, on both sides of it: boxes where the float filter's
    bracket lands on, or next to, a rounded squared radius."""
    r2s = (mul_down(r, r), mul_up(r, r))
    x = math.sqrt(r2s[0])
    for _ in range(8):
        x = math.nextafter(x, 0.0)
    points = []
    for _ in range(20):
        if any(abs(x * x - t) <= 3 * math.ulp(t) for t in r2s):
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


# sqrt of the largest float: its float square is finite, its directed one inf.
_EDGE = 1.3407807929942596e154


def _overflow_cases():
    """A hole at distance _EDGE from the origin: over a box at the origin its
    far term squares to a finite float while the directed square, and so the
    reference, overflows; a hole at the origin that a box reaching out to
    _EDGE straddles; and holes next to the point (_EDGE, 0), whose distance
    to the origin overflows that way."""
    assert math.isfinite(_EDGE * _EDGE)
    spec = HoledBallSpec(1.7e308, ((_EDGE, 0.0, 1e153), (-1e153, 0.0, 1e152)))
    wide = HoledBallSpec(1.7e308, ((0.0, 0.0, 1e154), (_EDGE, 0.0, 1e153)))
    near_edge = HoledBallSpec(1.7e308, ((_EDGE - 1e141, 0.0, 1e140),
                                        (_EDGE - 1e141, 3e141, 1e140)))
    at_origin = [Box.from_bounds(b) for b in (
        [(0.0, 0.0), (0.0, 0.0)], [(-1.0, 1.0), (-1.0, 1.0)], [(-0.0, 0.0), (0.0, 0.0)])]
    reaching = [Box.from_bounds(b) for b in (
        [(0.0, _EDGE), (0.0, 0.0)], [(-_EDGE, 0.0), (-1.0, 1.0)], [(-1e154, 0.0), (0.0, _EDGE)],
        [(5e153, 1.2e154), (0.0, 1e153)])]
    edge = [_point((_EDGE, 0.0)), Box.from_bounds([(_EDGE - 1e139, _EDGE), (0.0, 1e139)])]
    return [(spec, at_origin + reaching), (wide, at_origin + reaching), (near_edge, edge)]


def _signed_zero_boxes(spec):
    """Boxes with edges at -0.0 and 0.0, around the origin and each hole's
    centre."""
    boxes = []
    for cx, cy in [(0.0, 0.0)] + [(cx, cy) for cx, cy, _r in spec.holes]:
        for x, y in (((-0.0, 0.0), (-0.0, -0.0)), ((-0.0, 1.0), (0.0, 0.0)),
                     ((-1.0, -0.0), (-0.0, 0.5))):
            boxes.append(Box.from_bounds([(cx + x[0], cx + x[1]), (cy + y[0], cy + y[1])]))
        boxes.append(Box.from_bounds([(-0.0, 0.0), (-0.0, 0.0)]))
    return boxes


def _float_near_far(box, cx, cy):
    """The filter's bracket, written out: the nearest and the farthest
    squared distance from the box to (cx, cy) in plain floats."""
    near = far = 0.0
    for c, c0 in zip(box.coords, (cx, cy)):
        lo, hi = c.lo - c0, c.hi - c0
        d = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        m = max(abs(lo), abs(hi))
        near, far = near + d * d, far + m * m
    return near, far


def _filter_decides(spec, box):
    """Which region tests the float bracket alone decides (True): the
    outer test, then each hole's relevance test.  The bracket decides where
    it passes the test and its far value stays below 1e300."""
    R = spec.radius
    near, far = _float_near_far(box, 0.0, 0.0)
    hole_ok = []
    for cx, cy, r in spec.holes:
        h_near, h_far = _float_near_far(box, cx, cy)
        hole_ok.append((h_near <= mul_up(r, r), mul_down(r, r) <= h_far < 1e300))
    outer = near <= mul_up(R, R) and far < 1e300 and all(ok for _n, ok in hole_ok)
    return [outer] + [n and f for n, f in hole_ok]


def test_holed_ball_domain_tests_decide_as_the_reference(monkeypatch):
    """Every domain test decides every box as its directed reference; and
    the float filter in front of the outer and hole tests decides, without
    running the directed test, every box that its bracket decides."""
    directed = []
    monkeypatch.setattr(geometry, "dist2_pair",
                        lambda *args: directed.append(1) or dist2_pair(*args))
    rng = random.Random(4242)
    tight = float_tight = 0
    cases = [(spec, _decision_boxes(rng, spec) + _signed_zero_boxes(spec))
             for spec in _specs(rng)]
    for _ in range(60):  # a hole at the origin, boxes on its rounded radius
        r = rng.uniform(0.5, 1.0)
        R = rng.choice((4.0, rng.uniform(4.0, 6.0)))
        spec = HoledBallSpec(R, ((0.0, 0.0, r), (2.5, 0.0, 0.5)))
        points = _tight_points(r)
        tight += len(points) - 3
        floats = _float_tight_points(r) + _float_tight_points(R)
        float_tight += len(floats)
        cases.append((spec, [_point(p) for p in points + floats]))
    cases += _overflow_cases()
    decisions = set()
    filtered = fell_back = 0
    for spec, boxes in cases:
        outer, *holes = [tests for _circle, _r2, tests in spec.circles()]
        for box in boxes:
            pairs = [
                (outer["relevant"], _ref_in_domain, (spec, box)),
                (outer["meets"], _ref_centre_in_domain, (spec, box)),
            ]
            for tests, (cx, cy, r) in zip(holes, spec.holes):
                pairs.append((tests["relevant"], _ref_hole_relevant, (box, cx, cy, r)))
                pairs.append((tests["meets"], _ref_hole_meets, (box, cx, cy, r)))
            for k, (got, ref, args) in enumerate(pairs):
                expected = _outcome(ref, *args)
                assert _outcome(got, box) == expected, (k, spec, box.bounds())
                decisions.add(expected)
            for test, decides in zip([outer["relevant"]] + [h["relevant"] for h in holes],
                                     _filter_decides(spec, box)):
                del directed[:]
                _outcome(test, box)
                assert bool(directed) != decides, (spec, box.bounds(), decides)
                filtered += decides
                fell_back += not decides
    assert tight > 20 and float_tight > 200
    assert filtered > 5000 and fell_back > 5000, (filtered, fell_back)
    assert {"True", "False"} <= decisions and any("DomainError" in d for d in decisions)
