import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import BINARY_OPS, UNARY_OPS, apply_op
from fpcert import interval as iv
from fpcert.interval import (
    Box,
    DegenerateAxisError,
    DimensionMismatchError,
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
    if b.contains_point((x,)):
        assert left.contains_point((x,)) or right.contains_point((x,))


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
    assert b.contains_point((0.5, 0.5))
    assert not b.contains_point((1.5, 0.0))
    assert b.contains_point((1.0, 1.0))
    with pytest.raises(DimensionMismatchError):
        b.contains_point((0.5,))


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
    # Every interval over a few endpoints with both signed zeros, paired
    # exhaustively, then seeded random pairs.
    endpoints = (0.0, -0.0, -2.0, -1e-300, 1e-300, 3.0)
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
            assert iv._hits_lattice(i.lo, i.hi, center, iv._TWO_PI) == expected, (i, center)
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
                    assert iv._hits_nearest(lo, hi, mid, center.lo, center.hi) == hit, (
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
            assert repr(iv._pow_mag_down(x, n)) == repr(_ref_pow_mag(x, n, mul_down)), (x, n)
            assert repr(iv._pow_mag_up(x, n)) == repr(_ref_pow_mag(x, n, mul_up)), (x, n)


def _ref_add(a, b, down):
    """Directed sum from TwoSum, through next_down and next_up."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    if down:
        return s if e >= 0.0 else iv.next_down(s)
    return s if e <= 0.0 else iv.next_up(s)


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
        return iv._pow_mag_down(lo, 2), iv._pow_mag_up(hi, 2)
    if hi <= 0.0:
        return iv._pow_mag_down(-hi, 2), iv._pow_mag_up(-lo, 2)
    return 0.0, iv._pow_mag_up(max(-lo, hi), 2)


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


def test_transcendental_kernels_enclose_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(315)
    fns = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp, "tanh": mpmath.tanh}
    checked = 0
    with mpmath.workdps(60):
        half_pi = mpmath.pi / 2
        for _ in range(1500):
            i = _near_lattice_interval(rng)
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
    assert checked > 15000
