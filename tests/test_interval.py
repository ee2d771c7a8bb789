import functools
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import BINARY_OPS, UNARY_OPS, apply_op, box_contains
from fpcert import interval as iv
from fpcert.interval import (
    Box,
    DegenerateAxisError,
    DomainError,
    Interval,
    IntervalDivisionError,
    mul_down,
    mul_up,
)


def test_construction_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_construction_rejects_non_finite():
    with pytest.raises(DomainError):
        Interval(0.0, math.inf)
    with pytest.raises(DomainError):
        Interval(math.nan)


def test_exact_endpoint_arithmetic():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)
    assert Interval(-1, 2) * Interval(-3, 1) == Interval(-6, 3)
    assert apply_op("neg", Interval(1, 2)) == Interval(-2, -1)
    assert apply_op("abs", Interval(-3, 2)) == Interval(0, 3)
    assert apply_op("min", Interval(1, 2), Interval(0, 5)) == Interval(0, 2)
    assert apply_op("max", Interval(1, 2), Interval(0, 5)) == Interval(1, 5)


def test_sin_covers_peak():
    s = Interval(0.0, 3.15).sin()
    assert s.lo <= 0.0 and s.hi >= 1.0
    assert s.hi == 1.0  # peak inside, clamped
    assert s.lo > -0.01


def test_cos_full_period():
    c = Interval(0.0, 10.0).cos()
    assert c == Interval(-1.0, 1.0)


def test_sqrt_exact_and_padded():
    assert Interval(4.0, 9.0).sqrt() == Interval(2.0, 3.0)
    s = Interval(2.0).sqrt()
    assert s.lo < math.sqrt(2.0) < s.hi or s.lo <= math.sqrt(2.0) <= s.hi
    assert s.width <= 2 * math.ulp(1.5)


def test_sqrt_negative_rejected():
    with pytest.raises(DomainError):
        Interval(-2.0, -1.0).sqrt()
    with pytest.raises(DomainError):
        Interval(-1.0, 1.0).sqrt()


def test_division_by_zero_interval():
    with pytest.raises(IntervalDivisionError):
        Interval(1.0) / Interval(-1.0, 1.0)


def test_pow_int_even_straddle():
    p = Interval(-2.0, 1.0).pow_int(2)
    assert p.lo == 0.0 and p.hi >= 4.0


def test_pow_int_negative_exponent():
    p = Interval(2.0, 4.0).pow_int(-1)
    assert p.lo <= 0.25 and p.hi >= 0.5


_ops_unary = tuple(UNARY_OPS)
_ops_binary = tuple(BINARY_OPS)


def _ref(op, x, y=None):
    if op == "neg":
        return -x
    if op == "abs":
        return abs(x)
    if op == "sqrt":
        return math.sqrt(x)
    if op in ("sin", "cos", "exp", "tanh"):
        return getattr(math, op)(x)
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    if op == "min":
        return min(x, y)
    if op == "max":
        return max(x, y)
    raise AssertionError(op)


def test_containment_soundness_random_ops():
    rng = random.Random(20240301)
    checked = 0
    for _ in range(20000):
        op = rng.choice(_ops_unary + _ops_binary)
        lo = rng.uniform(-50, 50)
        a = Interval(lo, lo + rng.uniform(0, 10))
        x = a.lo + rng.random() * (a.hi - a.lo)
        b = y = None
        if op in _ops_binary:
            blo = rng.uniform(-50, 50)
            b = Interval(blo, blo + rng.uniform(0, 10))
            y = b.lo + rng.random() * (b.hi - b.lo)
        try:
            res = apply_op(op, a, b)
        except (DomainError, OverflowError):
            continue
        exact = _ref(op, x, y)
        assert res.lo <= exact <= res.hi, (op, a, b, x, y, exact, res)
        checked += 1
    assert checked > 15000


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(_ops_binary + _ops_unary),
    outer_lo=st.floats(-1e6, 1e6),
    w1=st.floats(0, 1e3),
    f0=st.floats(0, 1),
    f1=st.floats(0, 1),
    outer_lo2=st.floats(-1e6, 1e6),
    w2=st.floats(0, 1e3),
    g0=st.floats(0, 1),
    g1=st.floats(0, 1),
)
def test_inclusion_monotonicity(op, outer_lo, w1, f0, f1, outer_lo2, w2, g0, g1):
    a = Interval(outer_lo, outer_lo + w1)
    s0, s1 = sorted((a.lo + f0 * w1, a.lo + f1 * w1))
    a_sub = Interval(s0, s1)
    b = Interval(outer_lo2, outer_lo2 + w2)
    t0, t1 = sorted((b.lo + g0 * w2, b.lo + g1 * w2))
    b_sub = Interval(t0, t1)
    try:
        big = apply_op(op, a, b if op in _ops_binary else None)
        small = apply_op(op, a_sub, b_sub if op in _ops_binary else None)
    except (DomainError, OverflowError):
        return
    assert small.lo >= big.lo and small.hi <= big.hi


def test_underflowing_product_keeps_the_side_its_signs_fix():
    tiny = 6.589190613059125e-199  # tiny * tiny underflows to zero
    small = Interval(0, tiny) * Interval(tiny)
    assert repr(small) == "Interval(0.0, 5e-324)"
    assert repr(Interval(-tiny, 0) * Interval(tiny)) == "Interval(-5e-324, -0.0)"
    wide = Interval(0, 1) * Interval(tiny)
    assert wide.lo <= small.lo and small.hi <= wide.hi
    assert repr((mul_down(tiny, tiny), mul_up(tiny, tiny))) == "(0.0, 5e-324)"
    assert repr((mul_down(-tiny, -tiny), mul_up(-tiny, -tiny))) == "(0.0, 5e-324)"
    assert repr((mul_down(-tiny, tiny), mul_up(-tiny, tiny))) == "(-5e-324, -0.0)"
    assert repr((mul_down(tiny, -tiny), mul_up(tiny, -tiny))) == "(-5e-324, -0.0)"


def test_quotient_and_root_bounds_are_the_adjacent_floats():
    from fractions import Fraction

    # The cases that broke inclusion monotonicity: an underflowing quotient
    # and a root just above an exact one.
    assert (Interval(0, 5e-324) / Interval(2.0)).lo == 0.0
    assert Interval(math.nextafter(2.0**-52, 1.0), 1.0).sqrt().lo == 2.0**-26
    rng = random.Random(17)
    for _ in range(20000):
        a = rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.uniform(-120, 120)
        b = rng.choice((-1, 1)) * rng.choice((rng.random(), rng.randint(1, 99)))
        b *= 10.0 ** rng.uniform(-120, 120)
        exact = Fraction(a) / Fraction(b)
        lo, hi = iv.div_down(a, b), iv.div_up(a, b)
        assert lo <= exact <= hi, (a, b)
        assert lo == hi or (iv.next_up(lo) > exact and iv.next_down(hi) < exact), (a, b)
        x = abs(a)
        lo, hi = iv.sqrt_down(x), iv.sqrt_up(x)
        assert Fraction(lo) ** 2 <= x <= Fraction(hi) ** 2, x
        assert lo == hi or (Fraction(iv.next_up(lo)) ** 2 > x
                            and Fraction(iv.next_down(hi)) ** 2 < x), x


def test_product_is_inclusion_monotone_in_the_underflow_band():
    tiny = 6.589190613059125e-199
    ends = (-1.0, -tiny, -1e-200, 0.0, 1e-200, tiny, 1.0)
    ivs = [Interval(lo, hi) for lo in ends for hi in ends if lo <= hi]
    nested = [(a, s) for a in ivs for s in ivs if a.lo <= s.lo and s.hi <= a.hi]
    for a, a_sub in nested:
        for b in ivs:
            big = a * b
            for small in (a_sub * b, b * a_sub):
                assert big.lo <= small.lo and small.hi <= big.hi, (a, a_sub, b)


def test_box_bisect_partitions():
    b = Box.from_bounds([(0, 2), (0, 1)])
    left, right = b.bisect(0)
    assert left.coords[0] == Interval(0, 1)
    assert right.coords[0] == Interval(1, 2)
    assert left.coords[1] == right.coords[1] == Interval(0, 1)
    l1, r1 = Box.from_bounds([(-1, 1)]).bisect(0)
    assert l1.coords[0].hi == r1.coords[0].lo == 0.0


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-1e8, 1e8), w=st.floats(1e-12, 1e8), frac=st.floats(0, 1))
def test_box_bisect_partition_property(lo, w, frac):
    b = Box.from_bounds([(lo, lo + w)])
    try:
        left, right = b.bisect(0)
    except DegenerateAxisError:
        return
    assert left.coords[0].lo == b.coords[0].lo
    assert right.coords[0].hi == b.coords[0].hi
    assert left.coords[0].hi == right.coords[0].lo
    x = lo + frac * w
    if box_contains(b, (x,)):
        assert box_contains(left, (x,)) or box_contains(right, (x,))


def test_box_bisect_degenerate_axis():
    b = Box((Interval(0.0, 0.0), Interval(0, 1)))
    with pytest.raises(DegenerateAxisError):
        b.bisect(0)


def test_box_split_axis_needs_a_float_inside():
    one = 1.0
    ulp_wide = (one, math.nextafter(one, math.inf))
    assert Box.from_bounds([ulp_wide, ulp_wide]).split_axis() is None
    assert Box.from_bounds([(1e6, math.nextafter(1e6, math.inf)), (0.0, 1e-11)]).split_axis() == 1
    assert Box.from_bounds([(0, 1), (2, 3), (0, 0.5)]).split_axis() == 0


def test_box_contains_closed():
    b = Box.from_bounds([(0, 1), (0, 1)])
    assert box_contains(b, (0.5, 0.5))
    assert not box_contains(b, (1.5, 0.0))
    assert box_contains(b, (1.0, 1.0))


# -- kernel equivalence against the straightforward formulas ---------------


def _ref_mul(x, y):
    """Eight directed endpoint products, the textbook interval product."""
    a, b, c, d = x.lo, x.hi, y.lo, y.hi
    lo = min(mul_down(a, c), mul_down(a, d), mul_down(b, c), mul_down(b, d))
    hi = max(mul_up(a, c), mul_up(a, d), mul_up(b, c), mul_up(b, d))
    return Interval(lo, hi)


@functools.lru_cache(maxsize=4096)
def _ref_critical_pair(k, c_lo, c_hi, p_lo, p_hi):
    crit = _ref_mul(Interval(float(k)), Interval(p_lo, p_hi)) + Interval(c_lo, c_hi)
    return crit.lo, crit.hi


def _ref_hits_lattice(i, center, period):
    """The lattice test written as interval expressions."""
    mid = 0.5 * (i.lo + i.hi)
    k0 = round((mid - center.lo) / period.lo)
    for k in (k0 - 2, k0 - 1, k0, k0 + 1, k0 + 2):
        crit_lo, crit_hi = _ref_critical_pair(k, center.lo, center.hi, period.lo, period.hi)
        if crit_lo <= i.hi and crit_hi >= i.lo:
            return True
    return False


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:  # DomainError included
        return f"{type(exc).__name__}: {exc}"


_SPECIAL_ENDPOINTS = (
    0.0, -0.0, 1.0, -1.0, 0.5, -3.75, 5e-324, -5e-324, 1e-300, -1e-300,
    1e-150, -1e-150, 1e-280, 1e150, -1e150, 1e290, -1e290,
    math.nextafter(1e290, math.inf), -math.nextafter(1e290, math.inf),
    1e300, -1e300, 1.7e308, -1.7e308,
)


def _random_endpoint(rng):
    r = rng.random()
    if r < 0.35:
        return rng.choice(_SPECIAL_ENDPOINTS)
    if r < 0.65:
        return rng.uniform(-10.0, 10.0)
    return math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5)


def _random_interval(rng):
    x = _random_endpoint(rng)
    if rng.random() < 0.15:
        return Interval(x, x)  # degenerate, keeps the sign of a zero
    y = _random_endpoint(rng)
    return Interval(min(x, y), max(x, y))


def _mul_operand_pairs():
    # Every interval over a few endpoints with both signed zeros and the
    # edges of mul_pair's range tests (subnormal, 1e-280, 1e290, past it),
    # paired exhaustively, then seeded random pairs.
    endpoints = (0.0, -0.0, -2.0, -1e-300, 1e-300, 3.0, 5e-324, -5e-324, 1e-280, -1e-280,
                 1e290, -1e290, 1e300, -1e300)
    grid = [Interval(lo, hi) for lo in endpoints for hi in endpoints if lo <= hi]
    yield from ((x, y) for x in grid for y in grid)
    rng = random.Random(1788)
    for _ in range(60000):
        yield _random_interval(rng), _random_interval(rng)


def test_mul_matches_eight_product_reference():
    sign_cases = set()
    for x, y in _mul_operand_pairs():
        assert _outcome(x.__mul__, y) == _outcome(_ref_mul, x, y), (x, y)
        sign_cases.add(tuple(
            "P" if v.lo >= 0.0 else "N" if v.hi <= 0.0 else "M" for v in (x, y)
        ))
    assert len(sign_cases) == 9


def test_zero_endpoints_and_straddling_operands_skip_the_eight_products(monkeypatch):
    # Endpoints whose nonzero products all lie in [1e-280, 1e290]: a zero
    # endpoint or two operands that straddle zero take a branch of their
    # own, never _mul8, and the result is the eight-product one bit for bit.
    # [0, 2] * [-1, 0] is the case where the zero upper bound is -0.0 (from
    # 0 * -1, the first zero product), not the 0 * 0 that the table picks.
    assert repr(iv.mul_pair(0.0, 2.0, -1.0, 0.0)) == "(-2.0, -0.0)"
    reference = iv._mul8
    calls = []
    monkeypatch.setattr(iv, "_mul8", lambda *args: calls.append(args) or reference(*args))
    endpoints = (0.0, -0.0, -0.5, 0.5, -3.0, 3.0, -1e-100, 1e-100, -1e100, 1e100)
    grid = [(lo, hi) for lo in endpoints for hi in endpoints if lo <= hi]
    zero = straddle = 0
    for a, b in grid:
        for c, d in grid:
            assert _bits(iv.mul_pair(a, b, c, d)) == _bits(reference(a, b, c, d)), (a, b, c, d)
            zero += 0.0 in (a, b, c, d)
            straddle += a < 0.0 < b and c < 0.0 < d
    assert calls == []
    assert zero > 1000 and straddle > 100
    # Out of range they still go to it: an operand past 1e290, or a
    # nonzero product below 1e-280 next to a zero one.
    for args in ((0.0, 1e300, 1.0, 2.0), (0.0, 1e-150, 1e-150, 1.0)):
        assert _bits(iv.mul_pair(*args)) == _bits(reference(*args))
    assert len(calls) == 2


def _div_operands(seeded):
    # Both signed zeros, subnormals, 1e-280 and 1e290 (the edges of the
    # range in which _excess decides a quotient's rounding side), 2e-280
    # and 1e300, with their neighbours, as endpoints of every numerator and
    # every divisor off zero.
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 3.0, 1.7e308]
    for x in (1e-280, 2e-280, 1e290, 1e300):
        edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    edges += [-x for x in edges]
    numerators = [(a, b) for a in edges for b in edges if a <= b]
    divisors = [(c, d) for c, d in numerators if c > 0.0 or d < 0.0]
    yield from ((a, b, c, d) for a, b in numerators for c, d in divisors[::5])
    # Quotients of a few subnormal units, whose rounding moves q*y up to a
    # factor of two off the numerator, so that two quotients that round
    # alike can fall on both sides of _excess's range: numerators near
    # 1e-280, and divisors on both sides of 1e290.
    unit = 5e-324
    nearby = []
    for k in (1, 2, 3):
        for x in (1e-280, 1.1e-280, 1.5e-280, 1.9e-280, 2e-280, 2.1e-280):
            nearby += [(x, x / (k + 0.3) / unit, x / (k - 0.001) / unit),
                       (x, x / (k + 0.45) / unit, x / (k + 0.1) / unit)]
        for r in (0.0, 0.3, 0.45, 0.6):
            x = (k + r) * 1e290 * unit
            nearby += [(x, 1e290, math.nextafter(1e290, math.inf)), (x, 1e290, 1.3e290),
                       (x, 0.8e290, math.nextafter(1e290, math.inf))]
    for x, c, d in nearby:
        yield from ((x, x, c, d), (x, 2.0 * x, c, d), (-x, x, c, d), (-x, -x, c, d),
                    (x, x, -d, -c), (-2.0 * x, -x, -d, -c))
    # Seeded random quadruples, then seeded ordinary ones: endpoints within
    # 1e3, a quarter of them small integers.
    rng = random.Random(2213)
    for _ in range(seeded):
        x, y = _random_interval(rng), _random_interval(rng)
        yield x.lo, x.hi, y.lo, y.hi
    for _ in range(seeded):
        a, b, c, d = (float(rng.randint(-9, 9)) if rng.random() < 0.25
                      else rng.uniform(-1e3, 1e3) for _ in range(4))
        yield min(a, b), max(a, b), min(c, d), max(c, d)


def test_div_encloses_the_exact_quotient_hull():
    from fractions import Fraction

    cases = tight = 0
    sign_cases = set()
    for a, b, c, d in _div_operands(seeded=10000):
        if c <= 0.0 <= d:
            with pytest.raises(IntervalDivisionError):
                iv.div_pair(a, b, c, d)
            continue
        lo, hi = iv.div_pair(a, b, c, d)
        quotients = [Fraction(x) / Fraction(y) for x in (a, b) for y in (c, d)]
        q_min, q_max = min(quotients), max(quotients)
        assert lo == -math.inf or Fraction(lo) <= q_min, (a, b, c, d)
        assert hi == math.inf or Fraction(hi) >= q_max, (a, b, c, d)
        # Where no quotient and no product _excess splits leaves its range,
        # each bound is the extreme quotient or the float next to it on the
        # safe side.
        if all(x == 0.0 or 1e-100 <= abs(x) <= 1e100 for x in (a, b, c, d)):
            assert Fraction(iv.next_up(lo)) > q_min, (a, b, c, d)
            assert Fraction(iv.next_down(hi)) < q_max, (a, b, c, d)
            tight += 1
        cases += 1
        sign_cases.add(("P" if a >= 0.0 else "N" if b <= 0.0 else "M", c > 0.0))
    assert len(sign_cases) == 6 and cases > 60000 and tight > 5000
    assert repr(iv.div_pair(1.0, 3.0, -2.0, -0.5)) == "(-6.0, -0.5)"


def _near_lattice_interval(rng):
    k = rng.randint(-4 * 10**6, 4 * 10**6)
    if rng.random() < 0.3:
        k = int(rng.uniform(-1e15, 1e15) / (math.pi / 2))
    x = k * (math.pi / 2)
    r = rng.random()
    if r < 0.3:
        x += rng.uniform(-4, 4) * math.ulp(x or 1.0)
    elif r < 0.6:
        x += rng.uniform(-1e-9, 1e-9) * max(1.0, abs(x))
    else:
        x += rng.uniform(-1.0, 1.0)
    width = rng.choice((0.0, 0.0, 1e-12, 7.0, rng.uniform(0.0, 7.0), rng.uniform(0.0, 1e-6)))
    lo = x - rng.random() * width
    hi = min(lo + width, 1e15)
    lo = max(lo, -1e15)
    return Interval(lo, max(lo, hi))


def test_hits_lattice_matches_interval_reference():
    rng = random.Random(7)
    centers = (iv._HALF_PI, iv._NEG_HALF_PI, iv._ZERO, iv._PI)
    hits = 0
    for _ in range(8000):
        i = _near_lattice_interval(rng)
        for center in centers:
            expected = _ref_hits_lattice(i, center, iv._TWO_PI)
            assert iv._hits_lattice(i.lo, i.hi, center.lo, center.hi) == expected, (i, center)
            hits += expected
    assert 0 < hits < 4 * 8000


def test_pi_constants_enclose_their_values():
    from fractions import Fraction

    pi = iv._PI
    assert Fraction(pi.lo) < Fraction("3.14159265358979323846264338327950288") < Fraction(pi.hi)
    assert iv._HALF_PI == Interval(pi.lo / 2.0, pi.hi / 2.0)
    assert iv._NEG_HALF_PI == Interval(-iv._HALF_PI.hi, -iv._HALF_PI.lo)
    assert iv._TWO_PI == Interval(2.0 * pi.lo, 2.0 * pi.hi)


_SIN_COS = (
    (iv.sin_pair, iv._HALF_PI, iv._NEG_HALF_PI, math.sin),
    (iv.cos_pair, iv._ZERO, iv._PI, math.cos),
)


def _ref_sin_cos(lo, hi, hit_max, hit_min, fn):
    """sin or cos over [lo, hi] from the lattice decisions and each
    endpoint value padded one ulp outward."""
    if hi - lo > 7.0 or abs(lo) > 1e15 or abs(hi) > 1e15:
        return -1.0, 1.0
    v_lo = fn(lo)
    v_hi = fn(hi)
    r_hi = 1.0 if hit_max else min(1.0, max(iv.next_up(v_lo), iv.next_up(v_hi)))
    r_lo = -1.0 if hit_min else max(-1.0, min(iv.next_down(v_lo), iv.next_down(v_hi)))
    return r_lo, r_hi


# The kernel's narrow-argument range, hi - lo <= W0 and |lo|, |hi| <= M0,
# written out so that the edge cases stay put if its constants change.
_W0 = 6.0
_M0 = 2.0**20


def _lattice_endpoint(rng, span):
    """A multiple of pi/2 in [-span, span] a few ulps off, or a uniform
    point: ends on or next to a critical point decide on its enclosure."""
    if rng.random() < 0.5:
        return rng.uniform(-span, span)
    x = rng.randint(-int(span / (math.pi / 2)), int(span / (math.pi / 2))) * (math.pi / 2)
    return x + rng.randint(-4, 4) * math.ulp(x or 1.0)


def _sin_cos_arguments():
    rng = random.Random(4242)
    for _ in range(4000):
        i = _near_lattice_interval(rng)
        yield i.lo, i.hi
    # Narrow arguments in [-50, 50]; spans between two critical points of
    # about 2*pi put both candidates near the ends.
    for _ in range(100000):
        lo = _lattice_endpoint(rng, 50.0)
        r = rng.random()
        if r < 0.4:
            hi = lo + rng.choice((0.0, math.ulp(lo or 1.0), _W0, math.nextafter(_W0, math.inf),
                                  rng.uniform(0.0, 7.5), 10.0 ** rng.uniform(-12.0, 0.0)))
        elif r < 0.7:
            hi = lo + rng.randint(1, 4) * (math.pi / 2) + rng.randint(-4, 4) * math.ulp(lo or 1.0)
        else:
            hi = lo + rng.uniform(5.5, 6.5)
        yield min(lo, hi), max(lo, hi)
    # Widths W0 and just above it, at magnitudes up to 1e15, where the
    # candidate nearest the midpoint is least clear.
    for _ in range(4000):
        x = math.copysign(10.0 ** rng.uniform(0.0, 15.0), rng.random() - 0.5)
        for w in (_W0, math.nextafter(_W0, math.inf)):
            yield x, x + w
    # Endpoints at -M0, M0 and their float neighbours.
    ends = [e for m in (-_M0, _M0) for e in _ulps_around(m, 2)]
    for e in ends:
        for w in (0.0, 1e-9, 1.0, 3.0, _W0, math.nextafter(_W0, math.inf)):
            for lo, hi in ((e, e + w), (e - w, e)):
                yield lo, hi


def test_sin_cos_match_lattice_reference():
    # The outputs equal the reference's by repr, and on every argument that
    # the kernel decides on one candidate per lattice, that candidate's
    # decision equals the reference's over all five.
    hits = narrow = 0
    for lo, hi in _sin_cos_arguments():
        i = Interval(lo, hi)
        is_narrow = hi - lo <= iv._NARROW_WIDTH and -iv._NARROW_MAG <= lo and hi <= iv._NARROW_MAG
        narrow += is_narrow
        mid = 0.5 * (lo + hi)
        for kernel, max_center, min_center, fn in _SIN_COS:
            hit_max = _ref_hits_lattice(i, max_center, iv._TWO_PI)
            hit_min = _ref_hits_lattice(i, min_center, iv._TWO_PI)
            expected = _outcome(_ref_sin_cos, lo, hi, hit_max, hit_min, fn)
            assert _outcome(kernel, lo, hi) == expected, (kernel.__name__, lo, hi)
            if is_narrow:
                for center, hit in ((max_center, hit_max), (min_center, hit_min)):
                    k0 = float(round((mid - center.lo) / iv._P_LO))
                    assert iv._hits_candidate(lo, hi, k0, center.lo, center.hi) == hit, (
                        lo, hi, center)
                    hits += hit
    assert narrow > 70000 and hits > 10000


def _ref_pow_mag(x, n, mul):
    """x**n by binary powering from r = 1.0, every product directed."""
    r = 1.0
    base = x
    while n:
        if n & 1:
            r = mul(r, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return r


def test_pow_mag_matches_binary_powering_reference():
    xs = [0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300,
          1e-281, 1e-280, math.nextafter(1e-280, 0.0), 1e-279, 1e-150, 0.3, 1.0,
          1.5, 2.0, 1e10, 1e150, 1e290, math.nextafter(1e290, math.inf), 1e291,
          1e300, 1.7e308]
    for x in xs:
        for n in range(1, 10):
            assert repr(iv._pow_mag(x, n, mul_down)) == repr(_ref_pow_mag(x, n, mul_down)), (x, n)
            assert repr(iv._pow_mag(x, n, mul_up)) == repr(_ref_pow_mag(x, n, mul_up)), (x, n)


def _ref_add(a, b, down):
    """Directed sum from TwoSum, through next_down and next_up."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    if down:
        return s if e >= 0.0 else iv.next_down(s)
    return s if e <= 0.0 else iv.next_up(s)


def _bits(pair):
    return struct.pack("<dd", *pair)


def test_scale_pair_matches_mul_pair_bit_for_bit():
    # A float times an interval, the operator step's product, against the
    # general kernel: signed zeros (y = -0.0 too), subnormals, operands past
    # +-1e290, pairs on either side of zero and pairs that straddle it.
    rng = random.Random(3141)
    points = _SPECIAL_ENDPOINTS + (1e-310, -1e-310, 2.5e-308, -2.5e-308)
    grid = [(c, d) for c in points for d in points if c <= d]
    cases = [(y, c, d) for y in points for c, d in grid]
    for _ in range(60000):
        x = _random_interval(rng)
        cases.append((rng.choice((_random_endpoint(rng), rng.uniform(-3.0, 3.0))), x.lo, x.hi))
    signs = set()
    for y, c, d in cases:
        assert _bits(iv.scale_pair(y, c, d)) == _bits(iv.mul_pair(y, y, c, d)), (y, c, d)
        if y == 0.0:  # scale_pair hands a zero to mul_pair's zero branch
            assert _bits(iv.scale_pair(y, c, d)) == _bits(iv._mul8(y, y, c, d)), (y, c, d)
        signs.add(("P" if c >= 0.0 else "N" if d <= 0.0 else "M", math.copysign(1.0, y)))
    assert len(signs) == 6


def test_directed_sums_and_differences_match_two_sum_reference():
    rng = random.Random(2718)
    operands = [(x, y) for x in _SPECIAL_ENDPOINTS for y in _SPECIAL_ENDPOINTS]
    for _ in range(40000):
        x = _random_endpoint(rng)
        y = rng.choice((_random_endpoint(rng), x, -x, x * (1.0 + rng.uniform(-1e-15, 1e-15))))
        operands.append((x, y))
    for a, b in operands:
        assert repr(iv.add_down(a, b)) == repr(_ref_add(a, b, True)), (a, b)
        assert repr(iv.add_up(a, b)) == repr(_ref_add(a, b, False)), (a, b)
        assert repr(iv.sub_down(a, b)) == repr(_ref_add(a, -b, True)), (a, b)
        assert repr(iv.sub_up(a, b)) == repr(_ref_add(a, -b, False)), (a, b)


def _ulps_around(x, n):
    """The 2n + 1 floats nearest x, x included."""
    below = [x]
    above = []
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter((above or [x])[-1], math.inf))
    return below + above


def _ref_square(lo, hi):
    """[lo, hi] ** 2 as the even branch of pow_int_pair builds it."""
    if lo >= 0.0:
        return iv._pow_mag(lo, 2, mul_down), iv._pow_mag(hi, 2, mul_up)
    if hi <= 0.0:
        return iv._pow_mag(-hi, 2, mul_down), iv._pow_mag(-lo, 2, mul_up)
    return 0.0, iv._pow_mag(max(-lo, hi), 2, mul_up)


def test_square_matches_generic_even_power():
    # Edges of the exactness range of the products: squares near 1e-280 and
    # 1e290, the bounds themselves, overflow and underflow, signed zeros.
    edges = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300,
             1e-280, math.nextafter(1e-280, 0.0), 1e-140, 1e-10, 0.1, 1.0, 3.0,
             1e145, 1e154, 1e290, math.nextafter(1e290, math.inf), 1e300, 1.7e308]
    edges += [-x for x in edges]
    pairs = [(lo, hi) for lo in edges for hi in edges if lo <= hi]
    for x in _ulps_around(1e-140, 2000) + _ulps_around(1e145, 2000):
        pairs += [(x, x), (-x, x), (-x, -x), (x, 2.0 * x), (-x, 0.5 * x)]
    rng = random.Random(1441)
    for _ in range(40000):
        x = _random_interval(rng)
        pairs.append((x.lo, x.hi))
    for lo, hi in pairs:
        ref = repr(_ref_square(lo, hi))
        assert repr(iv.sqr_pair(lo, hi)) == ref, (lo, hi)
        assert repr(iv.pow_int_pair(lo, hi, 2)) == ref, (lo, hi)
    for x in edges:  # the directed squares themselves, signed zeros included
        assert repr(iv._sqr_down(x)) == repr(iv._pow_mag(x, 2, mul_down)), x
        assert repr(iv._sqr_up(x)) == repr(iv._pow_mag(x, 2, mul_up)), x


def _unit_interval(rng):
    # An interval inside [-1, 1], some of them tiny: there tanh is far from
    # +-1, where near-lattice intervals almost never land.
    lo = rng.uniform(-1.0, 1.0) * rng.choice((1.0, 1.0, 1e-3, 1e-9, 1e-300))
    width = rng.choice((0.0, 0.0, 1e-12, rng.uniform(0.0, 1e-6), rng.uniform(0.0, 1.0)))
    return Interval(lo, min(lo + width, 1.0))


def test_transcendental_kernels_enclose_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(315)
    intervals = [_near_lattice_interval(rng) for _ in range(1500)]
    rng = random.Random(316)
    intervals += [_unit_interval(rng) for _ in range(1000)]
    fns = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp, "tanh": mpmath.tanh}
    checked = 0
    with mpmath.workdps(60):
        half_pi = mpmath.pi / 2
        for i in intervals:
            lo, hi = mpmath.mpf(i.lo), mpmath.mpf(i.hi)
            points = [lo, hi, (lo + hi) / 2]
            # Interior extrema of sin and cos sit on the lattice k*pi/2.
            k = mpmath.ceil(lo / half_pi)
            while k * half_pi <= hi and len(points) < 12:
                points.append(k * half_pi)
                k += 1
            for name, fn in fns.items():
                try:
                    res = getattr(i, name)()
                except DomainError:
                    continue  # exp overflow
                for p in points:
                    value = fn(p)
                    assert res.lo <= value <= res.hi, (name, i, p, value, res)
                    checked += 1
    assert checked > 25000


def test_libm_errors_lie_within_the_one_ulp_pad():
    # The transcendental kernels trust math.sin, cos, exp and expm1 to
    # within one ulp and pad their results by one ulp outward.  A libm
    # that breaks this fails here, not with a false CERTIFIED.  Arguments
    # are small, medium and large: up to the 1e15 past which sin and cos
    # give [-1, 1], and over the whole finite range of exp and expm1.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1212)

    def small():
        return math.copysign(10.0 ** rng.uniform(-300.0, -1.0), rng.random() - 0.5)

    def medium():
        return rng.uniform(-10.0, 10.0)

    def trig():
        return math.copysign(10.0 ** rng.uniform(1.0, 15.0), rng.random() - 0.5)

    def exponent():
        return rng.uniform(-745.0, 709.0)

    draws = {"sin": (small, medium, trig), "cos": (small, medium, trig),
             "exp": (small, medium, exponent), "expm1": (small, medium, exponent)}
    with mpmath.workprec(200):
        for name, args in draws.items():
            fn, exact = getattr(math, name), getattr(mpmath, name)
            for draw in args:
                for _ in range(3000):
                    x = draw()
                    y = fn(x)
                    value = exact(mpmath.mpf(x))
                    assert iv.next_down(y) <= value <= iv.next_up(y), (name, x, y, value)
