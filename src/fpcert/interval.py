"""Outward-rounded interval arithmetic on scalars and axis-aligned boxes.

Every operation returns an interval that encloses the exact real result set
of the operation over its operands.  Endpoint arithmetic runs in ordinary
binary64; whenever a computed endpoint may be inexact the bound is widened
by one unit in the last place in the safe direction.  Exactness of float
sums and products is detected with error-free transformations (TwoSum,
Dekker splitting), so integer-valued and power-of-two arithmetic stays
tight: ``[1,2] + [3,4]`` is exactly ``[4,6]``, and a zero endpoint stays an
exact zero through sums and products.  The same splitting tells on which
side of the exact quotient or square root the nearest float lies, so their
bounds are the adjacent floats in the safe direction.

Multiplication follows the sign-case table of Moore's *Interval Analysis*:
in eight of the nine sign cases one downward and one upward product give
the result, and when both operands straddle zero two of each do.  A
chosen product that is zero because a factor is zero is the first zero
endpoint product, whose sign the eight-product formula keeps.  Only where
exactness cannot be checked (underflow, overflow, huge operands) does the
kernel take all eight directed endpoint products; so results, signed
zeros included, equal that formula bit for bit.  ``mul_pair`` writes its
two directed products out inline (range tests, Dekker split, error term
and ``math.nextafter``), as the directed sums and differences do their
TwoSum: these are the kernels every map evaluation runs most.  Division
takes all eight directed endpoint quotients, so the rounding side of every
quotient is decided in one place, ``_excess``.  Integer powers take one
power-by-squaring loop, ``_pow_mag``, run with the downward product for a
lower bound and the upward one for an upper bound.
``pow_int_pair`` hands the exponent 2 to ``sqr_pair``, which equals that
loop bit for bit (its extra one-ulp widening outside [1e-280, 1e290]
included) at the cost of one directed product per bound; ``x^2`` nodes,
squared distances and ``Interval.pow_int(2)`` all take it.

Transcendental kernels take their endpoints from the platform libm's sin,
cos, exp and expm1, trust each to be faithful to within one ulp (a test
checks this against mpmath) and pad it by one ulp outward.  tanh is derived
from expm1, trusted like exp: each bound is e / (e + 2) on e = expm1(2x)
padded one ulp, with directed division.  sin, cos and tanh are clamped to
[-1, 1], and sin/cos are analysed for interior extrema against an interval
enclosure of pi.  One test, ``_hits_candidate``, decides a candidate
``c + 2*k*pi``: it screens it in plain floats and rounds outward only when
an error margin (derived there) cannot rule it out, with the decision of
the all-interval evaluation.  ``_hits_lattice`` runs it on the five
candidates nearest the midpoint.  On a narrow argument (width at most 6,
magnitude at most 2**20) the screen rejects every candidate but the
nearest, so each lattice is decided on that one alone (derived in
``_sin_cos``), with the same decisions.

Each operation has one kernel that maps operand endpoints to a ``(lo, hi)``
pair (``mul_pair``, ``div_pair``, ``pow_int_pair``, ``sin_pair``, ...).  Map
evaluation (``mapdsl``) calls them on plain endpoint pairs and builds an
``Interval``, the value type of coordinates and enclosures, only for each
component; the ten ``Interval`` operators wrap the kernels for other callers.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An operand lies (at least partly) outside an operation's domain."""


class IntervalDivisionError(DomainError):
    """Division by an interval containing zero."""


class DegenerateAxisError(ValueError):
    """Bisection requested along a zero-width coordinate."""


class DimensionMismatchError(ValueError):
    """Operands disagree on dimension."""


_INF = math.inf
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_nextafter = math.nextafter


def next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _two_product(a: float, b: float):
    """Return (p, e) with p = fl(a*b) and a*b = p + e exactly.

    e is None when exactness cannot be established (splitting would
    overflow, or the product sits in the subnormal underflow range).
    """
    p = a * b
    if p == 0.0:
        if a == 0.0 or b == 0.0:
            return p, 0.0
        return p, None
    if not math.isfinite(p) or abs(p) < 1e-280 or abs(a) > 1e290 or abs(b) > 1e290:
        return p, None
    t = _SPLITTER * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLITTER * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


# The directed sums and differences take the rounding error e of
# s = fl(a + b) (or fl(a - b)) from TwoSum (Knuth), a + b = s + e exactly,
# written out in each, and step off s with math.nextafter directly: the
# sum is the commonest operation in map evaluation and a call costs more
# than it.  A difference is TwoSum of a and -b, so a - b = s + e with
# e = (a - (s - bb)) - (b + bb).


def add_down(a: float, b: float) -> float:
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s if e >= 0.0 else _nextafter(s, -_INF)


def add_up(a: float, b: float) -> float:
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s if e <= 0.0 else _nextafter(s, _INF)


def sub_down(a: float, b: float) -> float:
    s = a - b
    bb = s - a
    e = (a - (s - bb)) - (b + bb)
    return s if e >= 0.0 else _nextafter(s, -_INF)


def sub_up(a: float, b: float) -> float:
    s = a - b
    bb = s - a
    e = (a - (s - bb)) - (b + bb)
    return s if e <= 0.0 else _nextafter(s, _INF)


# A product of nonzero factors that underflows to a signed zero p is
# inexact, but the factors' signs fix the side of zero it lies on: p is a
# lower bound of a positive product and an upper bound of a negative one.
# Widening it there too would break inclusion monotonicity against an
# exact zero product of a wider operand.


def mul_down(a: float, b: float) -> float:
    p, e = _two_product(a, b)
    if e is None:
        return p if p == 0.0 and (a > 0.0) == (b > 0.0) else next_down(p)
    return p if e >= 0.0 else next_down(p)


def mul_up(a: float, b: float) -> float:
    p, e = _two_product(a, b)
    if e is None:
        return p if p == 0.0 and (a > 0.0) != (b > 0.0) else next_up(p)
    return p if e <= 0.0 else next_up(p)


def _excess(q: float, b: float, a: float):
    """Sign of q*b - a (-1, 0 or 1), or None when it cannot be established.

    For q = fl(a/b) (or q = b = fl(sqrt(a))) and q*b = p + e exactly, p is
    zero or lies within a factor of two of a, so p - a is exact (Sterbenz)
    and comparing it with -e is exact.
    """
    p, e = _two_product(q, b)
    if e is None:
        return None
    d = p - a
    return (d > -e) - (d < -e)


# Quotients and square roots are rounded to nearest and then moved one ulp
# outward only when the nearest float lies on the wrong side of the exact
# value, so each bound is the adjacent float in its direction (outside the
# underflow and overflow bands, where _excess gives up and the bound is
# always moved).  A bound moved even when already on the safe side would
# break inclusion monotonicity against an exact quotient of a wider operand.


def div_down(a: float, b: float) -> float:
    q = a / b
    s = _excess(q, b, a)
    if s is not None and (s <= 0 if b > 0.0 else s >= 0):
        return q
    return next_down(q)


def div_up(a: float, b: float) -> float:
    q = a / b
    s = _excess(q, b, a)
    if s is not None and (s >= 0 if b > 0.0 else s <= 0):
        return q
    return next_up(q)


def sqrt_down(x: float) -> float:
    s = math.sqrt(x)
    c = _excess(s, s, x)
    if c is not None and c <= 0:
        return s
    return max(0.0, next_down(s))


def sqrt_up(x: float) -> float:
    s = math.sqrt(x)
    c = _excess(s, s, x)
    if c is not None and c >= 0:
        return s
    return next_up(s)


def _pow_mag(x: float, n: int, mul) -> float:
    """A directed bound for x**n, x >= 0, n >= 1: the lower bound with
    mul = mul_down, the upper with mul = mul_up.

    The first factor taken into the result would be multiplied by 1.0;
    on [1e-280, 1e290] that product is exact and equals the factor, so it
    is skipped there (elsewhere mul widens it).
    """
    base = x
    while not n & 1:
        base = mul(base, base)
        n >>= 1
    r = base if 1e-280 <= base <= 1e290 else mul(1.0, base)
    n >>= 1
    while n:
        base = mul(base, base)
        if n & 1:
            r = mul(r, base)
        n >>= 1
    return r


# The square's directed bounds: mul_down(x, x) and mul_up(x, x) with
# _two_product written out for squares in [1e-280, 1e290], where its
# exactness test passes and the extra product by 1.0 that _pow_mag takes
# is exact and skipped.  The one-ulp step never leaves that range: the
# only square rounding to 1e-280 is 1e-140 ** 2, which rounds down, and
# the only one rounding to 1e290 is 1e145 ** 2, which rounds up.  A zero
# x gives +0.0, as _pow_mag does, and the other squares go through
# _pow_mag.  So each result equals _pow_mag(x, 2, mul_down) and
# _pow_mag(x, 2, mul_up).


def _sqr_down(x: float) -> float:
    p = x * x
    if 1e-280 <= p <= 1e290:
        t = _SPLITTER * x
        h = t - (t - x)
        r = x - h
        if ((h * h - p) + h * r + r * h) + r * r < 0.0:
            return _nextafter(p, -_INF)
        return p
    if x == 0.0:
        return 0.0
    return _pow_mag(x, 2, mul_down)


def _sqr_up(x: float) -> float:
    p = x * x
    if 1e-280 <= p <= 1e290:
        t = _SPLITTER * x
        h = t - (t - x)
        r = x - h
        if ((h * h - p) + h * r + r * h) + r * r > 0.0:
            return _nextafter(p, _INF)
        return p
    if x == 0.0:
        return 0.0
    return _pow_mag(x, 2, mul_up)


# -- endpoint-pair kernels -----------------------------------------------------
#
# Each kernel maps operand endpoints to the (lo, hi) pair of the result and
# is the only implementation of its operation: the Interval methods wrap
# them, and mapdsl evaluates maps on pairs directly.  Kernels do not check
# their result; Interval(lo, hi), or interval_error at a caller that keeps
# pairs, does.


def interval_error(lo: float, hi: float) -> ValueError:
    """The error for an endpoint pair that is not -inf < lo <= hi < inf."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return DomainError(f"non-finite interval bound [{lo}, {hi}]")
    return ValueError(f"interval lower bound {lo!r} exceeds upper bound {hi!r}")


def _mul8(a: float, b: float, c: float, d: float):
    """[a, b] * [c, d] from all eight directed endpoint products."""
    lo = min(mul_down(a, c), mul_down(a, d), mul_down(b, c), mul_down(b, d))
    hi = max(mul_up(a, c), mul_up(a, d), mul_up(b, c), mul_up(b, d))
    return lo, hi


def mul_pair(a: float, b: float, c: float, d: float):
    """[a, b] * [c, d]."""
    # Sign-case table (Moore): pick the endpoint products that are the
    # exact minimum and maximum of {ac, ad, bc, bd}.  When both picked
    # products are nonzero and exactness-checked (e is not None), every
    # other product's directed bound lies no further out, so the result
    # equals _mul8's bit for bit: a product widened for underflow stays
    # inside [-1e-280, 1e-280], and an endpoint left out of the picked
    # pair is never larger in magnitude than one in it, so an operand
    # past 1e290 already makes a picked e None.  When both operands
    # straddle zero, ad and bc are negative and ac and bd positive; the
    # downward product of a negative one and the upward product of a
    # positive one never round to zero, so _mul8's min and max pick from
    # those two pairs.
    if a >= 0.0:
        if c >= 0.0:
            x1, y1, x2, y2 = a, c, b, d
        elif d <= 0.0:
            x1, y1, x2, y2 = b, c, a, d
        else:
            x1, y1, x2, y2 = b, c, b, d
    elif b <= 0.0:
        if c >= 0.0:
            x1, y1, x2, y2 = a, d, b, c
        elif d <= 0.0:
            x1, y1, x2, y2 = b, d, a, c
        else:
            x1, y1, x2, y2 = a, d, a, c
    elif c >= 0.0:
        x1, y1, x2, y2 = a, d, b, d
    elif d <= 0.0:
        x1, y1, x2, y2 = b, c, a, c
    else:
        return min(mul_down(a, d), mul_down(b, c)), max(mul_up(a, c), mul_up(b, d))
    # The two picked products, with _two_product written out: its
    # exactness test as range tests, then Dekker's split and error term.
    p = x1 * y1
    q = x2 * y2
    if not ((1e-280 <= p < _INF or -_INF < p <= -1e-280)
            and (1e-280 <= q < _INF or -_INF < q <= -1e-280)
            and -1e290 <= x1 <= 1e290 and -1e290 <= y1 <= 1e290
            and -1e290 <= x2 <= 1e290 and -1e290 <= y2 <= 1e290):
        # A picked product with a zero factor makes that bound zero, and
        # _mul8's min (max) returns the first of its products that is
        # zero: the others lie on the far side of zero, and with every
        # endpoint within 1e290 and no nonzero product below 1e-280 a
        # directed product is zero only where the plain one is, with its
        # sign.  The other bound is its picked directed product: within
        # those ranges a directed product is monotone in the exact one.
        lo_zero = x1 == 0.0 or y1 == 0.0
        hi_zero = x2 == 0.0 or y2 == 0.0
        if ((lo_zero or hi_zero)
                and -1e290 <= a <= 1e290 and -1e290 <= b <= 1e290
                and -1e290 <= c <= 1e290 and -1e290 <= d <= 1e290):
            ac = a * c
            ad = a * d
            bc = b * c
            bd = b * d
            if not (0.0 < abs(ac) < 1e-280 or 0.0 < abs(ad) < 1e-280
                    or 0.0 < abs(bc) < 1e-280 or 0.0 < abs(bd) < 1e-280):
                z = ac if ac == 0.0 else ad if ad == 0.0 else bc if bc == 0.0 else bd
                return (z if lo_zero else mul_down(x1, y1)), (z if hi_zero else mul_up(x2, y2))
        return _mul8(a, b, c, d)
    t = _SPLITTER * x1
    x_hi = t - (t - x1)
    x_lo = x1 - x_hi
    t = _SPLITTER * y1
    y_hi = t - (t - y1)
    y_lo = y1 - y_hi
    if ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo < 0.0:
        p = _nextafter(p, -_INF)
    t = _SPLITTER * x2
    x_hi = t - (t - x2)
    x_lo = x2 - x_hi
    t = _SPLITTER * y2
    y_hi = t - (t - y2)
    y_lo = y2 - y_hi
    if ((x_hi * y_hi - q) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo > 0.0:
        q = _nextafter(q, _INF)
    return p, q


def scale_pair(y: float, c: float, d: float):
    """y * [c, d] for a float y: mul_pair(y, y, c, d) bit for bit.  For a
    point operand mul_pair picks (y*c, y*d) when y >= 0 (-0.0 too) and
    (y*d, y*c) otherwise, whatever the signs of c and d; this is that pick
    and its range test and error terms, with y split once, and the cases
    the range test refuses (zeros, NaN, the underflow and overflow bands)
    go to mul_pair itself."""
    if y >= 0.0:
        p = y * c
        q = y * d
        lo_f, hi_f = c, d
    else:
        p = y * d
        q = y * c
        lo_f, hi_f = d, c
    if not ((1e-280 <= p < _INF or -_INF < p <= -1e-280)
            and (1e-280 <= q < _INF or -_INF < q <= -1e-280)
            and -1e290 <= y <= 1e290 and -1e290 <= c <= 1e290 and -1e290 <= d <= 1e290):
        return mul_pair(y, y, c, d)
    t = _SPLITTER * y
    y_hi = t - (t - y)
    y_lo = y - y_hi
    t = _SPLITTER * lo_f
    f_hi = t - (t - lo_f)
    f_lo = lo_f - f_hi
    if ((y_hi * f_hi - p) + y_hi * f_lo + y_lo * f_hi) + y_lo * f_lo < 0.0:
        p = _nextafter(p, -_INF)
    t = _SPLITTER * hi_f
    f_hi = t - (t - hi_f)
    f_lo = hi_f - f_hi
    if ((y_hi * f_hi - q) + y_hi * f_lo + y_lo * f_hi) + y_lo * f_lo > 0.0:
        q = _nextafter(q, _INF)
    return p, q


def div_pair(a: float, b: float, c: float, d: float):
    """[a, b] / [c, d] from all eight directed endpoint quotients;
    IntervalDivisionError when [c, d] contains zero."""
    if c <= 0.0 <= d:
        raise IntervalDivisionError(f"division by interval [{c}, {d}] containing zero")
    lo = min(div_down(a, c), div_down(a, d), div_down(b, c), div_down(b, d))
    hi = max(div_up(a, c), div_up(a, d), div_up(b, c), div_up(b, d))
    return lo, hi


def pow_int_pair(lo: float, hi: float, n):
    """[lo, hi] ** n for an integer n; a negative n divides 1 by the power."""
    if n == 2:
        return sqr_pair(lo, hi)
    if n != int(n):
        raise DomainError("pow_int requires an integer exponent")
    n = int(n)
    if n == 0:
        return 1.0, 1.0
    if n < 0:
        p_lo, p_hi = pow_int_pair(lo, hi, -n)
        if not -_INF < p_lo <= p_hi < _INF:
            raise interval_error(p_lo, p_hi)
        return div_pair(1.0, 1.0, p_lo, p_hi)
    if n % 2 == 1:
        new_lo = _pow_mag(lo, n, mul_down) if lo >= 0.0 else -_pow_mag(-lo, n, mul_up)
        new_hi = _pow_mag(hi, n, mul_up) if hi >= 0.0 else -_pow_mag(-hi, n, mul_down)
        return new_lo, new_hi
    if lo >= 0.0:
        return _pow_mag(lo, n, mul_down), _pow_mag(hi, n, mul_up)
    if hi <= 0.0:
        return _pow_mag(-hi, n, mul_down), _pow_mag(-lo, n, mul_up)
    return 0.0, _pow_mag(max(-lo, hi), n, mul_up)


def sqr_pair(lo: float, hi: float):
    """[lo, hi] ** 2, equal bit for bit to the even-power branch of
    pow_int_pair with _pow_mag(x, 2, mul)."""
    if lo >= 0.0:
        return _sqr_down(lo), _sqr_up(hi)
    if hi <= 0.0:
        return _sqr_down(-hi), _sqr_up(-lo)
    return 0.0, _sqr_up(max(-lo, hi))


def sqrt_pair(lo: float, hi: float):
    if lo < 0.0:
        raise DomainError(f"sqrt of interval [{lo}, {hi}] reaching below zero")
    return sqrt_down(lo), sqrt_up(hi)


def exp_pair(lo: float, hi: float):
    try:
        e_lo = math.exp(lo)
        e_hi = math.exp(hi)
    except OverflowError as exc:
        raise DomainError("exp overflow") from exc
    return max(0.0, next_down(e_lo)), next_up(e_hi)


# tanh(x) = e / (e + 2) with e = expm1(2x) > -1, increasing in e; each
# bound takes e padded one ulp outward (so it trusts expm1 as exp_pair
# trusts exp) and rounds the quotient and, by the sign of e, the
# denominator outward.  Past |x| = 19.1, 1 - |tanh(x)| < 2*exp(-38.2) <
# 2**-53, so the bounds are +-1 and their neighbours, and 2x cannot
# overflow.


def _tanh_down(x: float) -> float:
    if x >= 19.1:
        return next_down(1.0)
    if x <= -19.1:
        return -1.0
    e = max(-1.0, next_down(math.expm1(2.0 * x)))
    return div_down(e, add_up(e, 2.0) if e >= 0.0 else add_down(e, 2.0))


def _tanh_up(x: float) -> float:
    if x >= 19.1:
        return 1.0
    if x <= -19.1:
        return next_up(-1.0)
    e = next_up(math.expm1(2.0 * x))
    return div_up(e, add_down(e, 2.0) if e >= 0.0 else add_up(e, 2.0))


def tanh_pair(lo: float, hi: float):
    return max(-1.0, _tanh_down(lo)), min(1.0, _tanh_up(hi))


def abs_pair(lo: float, hi: float):
    if lo >= 0.0:
        return lo, hi
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def min_pair(a: float, b: float, c: float, d: float):
    return min(a, c), min(b, d)


def max_pair(a: float, b: float, c: float, d: float):
    return max(a, c), max(b, d)


def sin_pair(lo: float, hi: float):
    return _sin_cos(lo, hi, _HALF_PI, _NEG_HALF_PI, math.sin)


def cos_pair(lo: float, hi: float):
    return _sin_cos(lo, hi, _ZERO, _PI, math.cos)


class Interval:
    """Closed real interval [lo, hi] with finite binary64 endpoints.

    Instances are immutable by convention; nothing mutates lo/hi after
    construction and all arithmetic returns fresh intervals.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not -_INF < lo <= hi < _INF:
            raise interval_error(lo, hi)
        self.lo = lo
        self.hi = hi

    # -- structure ---------------------------------------------------------

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        w = self.hi - self.lo
        # w overflows only where lo < 0 < hi, and then the halves cannot.
        m = self.lo + 0.5 * w if w < _INF else 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def is_subset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return Interval(add_down(self.lo, other.lo), add_up(self.hi, other.hi))

    def __sub__(self, other):
        return Interval(sub_down(self.lo, other.hi), sub_up(self.hi, other.lo))

    def __mul__(self, other):
        return Interval(*mul_pair(self.lo, self.hi, other.lo, other.hi))

    def __truediv__(self, other):
        return Interval(*div_pair(self.lo, self.hi, other.lo, other.hi))

    def pow_int(self, n: int) -> "Interval":
        return Interval(*pow_int_pair(self.lo, self.hi, n))

    def sqrt(self) -> "Interval":
        return Interval(*sqrt_pair(self.lo, self.hi))

    def exp(self) -> "Interval":
        return Interval(*exp_pair(self.lo, self.hi))

    def tanh(self) -> "Interval":
        return Interval(*tanh_pair(self.lo, self.hi))

    def sin(self) -> "Interval":
        return Interval(*sin_pair(self.lo, self.hi))

    def cos(self) -> "Interval":
        return Interval(*cos_pair(self.lo, self.hi))


_PI = Interval(math.pi, next_up(math.pi))  # math.pi rounds below pi
_TWO_PI = Interval(2.0 * math.pi, 2.0 * next_up(math.pi))
_HALF_PI = Interval(math.pi / 2.0, next_up(math.pi) / 2.0)
_NEG_HALF_PI = Interval(-(next_up(math.pi) / 2.0), -(math.pi / 2.0))
_ZERO = Interval(0.0, 0.0)
_P_LO = _TWO_PI.lo
_P_HI = _TWO_PI.hi


def _hits_candidate(lo: float, hi: float, k: float, c_lo: float, c_hi: float) -> bool:
    """Conservatively decide whether the critical point k*2*pi + c, for c in
    [c_lo, c_hi] and a float integer k, may lie in [lo, hi].

    The critical point is enclosed by [add_down(k*P, c_lo), add_up(k*P,
    c_hi)] with k*P rounded outward on the end of the period enclosure P =
    _TWO_PI that the sign of k makes extreme; this equals the interval
    expression ``Interval(k) * _TWO_PI + Interval(c_lo, c_hi)`` bit for bit.

    A plain-float pre-test first rejects a k whose approximation
    approx = fl(fl(k*P.lo) + c_lo) lies more than ``margin`` outside
    [lo, hi].  P is one ulp(2*pi) = 2**-50 wide, and for the centres used
    here (|c| <= 4, at most 2**-51 wide) and u = 2**-53, each enclosure
    endpoint differs from approx by at most
      |k|*(P.hi - P.lo)        <= 2u*|k*P.lo|   (gap between the periods)
      + (c_hi - c_lo)          <= 2**-51        (centre enclosure)
      + directed rounding      <= 2u*|k*P| + 2u*|sum|
      + rounding in approx     <= u*|k*P.lo| + u*|approx|,
    and |k*P.lo| <= |approx| + 5, which totals below 9u*|approx| + 50u.
    Rounding ``approx -/+ margin`` adds u*(|approx| + margin), for a total
    below 10u*|approx| + 51u < 2**-49*|approx| + 2**-47: at most half of
    the margin 2**-48*|approx| + 2**-45.  So a k the pre-test rejects is
    one the directed test rejects too.
    """
    approx = k * _P_LO + c_lo
    margin = abs(approx) * 2.0**-48 + 2.0**-45
    if approx - margin > hi or approx + margin < lo:
        return False
    if k >= 0.0:
        return add_down(mul_down(k, _P_LO), c_lo) <= hi and add_up(mul_up(k, _P_HI), c_hi) >= lo
    return add_down(mul_down(k, _P_HI), c_lo) <= hi and add_up(mul_up(k, _P_LO), c_hi) >= lo


def _hits_lattice(lo: float, hi: float, c_lo: float, c_hi: float) -> bool:
    """Conservatively decide whether {c + k*2*pi : k in Z, c in [c_lo, c_hi]}
    meets [lo, hi], testing the five candidates around the midpoint."""
    k0 = round((0.5 * (lo + hi) - c_lo) / _P_LO)
    for k in (k0 - 2, k0 - 1, k0, k0 + 1, k0 + 2):
        if _hits_candidate(lo, hi, float(k), c_lo, c_hi):
            return True
    return False


# The extremum test on narrow arguments (see _sin_cos).
_NARROW_WIDTH = 6.0
_NARROW_MAG = 2.0**20


def _sin_cos(lo: float, hi: float, max_center: Interval, min_center: Interval, fn):
    """Range of sin or cos over [lo, hi]: fn at the endpoints, padded one
    ulp outward, or 1 and -1 where an extremum lattice meets [lo, hi].

    On an argument with hi - lo <= W0 = 6 and |lo|, |hi| <= M0 = 2**20,
    each lattice is decided by _hits_candidate on its nearest candidate k0
    alone; other arguments go to _hits_lattice, which also tries k0 -/+ 1
    and k0 -/+ 2.  The decisions are the same, since the pre-test rejects
    every other k there.  With u = 2**-53:

      fl(hi - lo) <= 6 gives hi - lo <= 6 + 2**-51, and mid = fl(fl(lo +
      hi)/2) is within u*2**20 = 2**-33 of the true midpoint, so [lo, hi]
      lies within 3 + 2**-32 of mid.  For t = (mid - c.lo)/P.lo the float
      quotient q differs from t by less than 2**-33 (|mid - c.lo| <=
      2**20 + 4, two roundings), and k0 = round(q) is an integer nearest
      q, so every k != k0 has |k - t| >= 1/2 - 2**-33: its exact candidate
      k*P.lo + c.lo lies at least P.lo/2 - 2**-30 > 3.1415 from mid.  For
      the candidates that _hits_lattice tries (|k - k0| <= 2), approx is
      off that candidate by less than 2**-31, the margin is below 2**-27
      and rounding approx -/+ margin adds at most 2**-32, so approx -
      margin stays above mid + 3.14 >= hi (or approx + margin below lo).

    The slack is (P.lo - W0)/2 > 0.14 on each side.  Every error above
    grows with M0; the margin alone (2**-48*M0) would take most of the
    slack by M0 = 2**45.  next_up and next_down are monotone, so they are
    taken once, on the larger and the smaller endpoint value.
    """
    w = hi - lo
    if w > 7.0 or abs(lo) > 1e15 or abs(hi) > 1e15:
        return -1.0, 1.0
    if w <= _NARROW_WIDTH and -_NARROW_MAG <= lo and hi <= _NARROW_MAG:
        mid = 0.5 * (lo + hi)
        c_lo, c_hi = max_center.lo, max_center.hi
        hit_max = _hits_candidate(lo, hi, float(round((mid - c_lo) / _P_LO)), c_lo, c_hi)
        c_lo, c_hi = min_center.lo, min_center.hi
        hit_min = _hits_candidate(lo, hi, float(round((mid - c_lo) / _P_LO)), c_lo, c_hi)
    else:
        hit_max = _hits_lattice(lo, hi, max_center.lo, max_center.hi)
        hit_min = _hits_lattice(lo, hi, min_center.lo, min_center.hi)
    small = fn(lo)
    big = fn(hi)
    if big < small:
        small, big = big, small
    r_hi = 1.0 if hit_max else min(1.0, _nextafter(big, _INF))
    r_lo = -1.0 if hit_min else max(-1.0, _nextafter(small, -_INF))
    return r_lo, r_hi


class Record:
    """A value record: a plain class with __slots__, immutable by
    convention, that compares, hashes and prints by its fields.  The
    fields are the slots of the class and of its bases, in order, but for
    names that start with '_', which hold caches.  A record equals only a
    record of its own type with equal fields, hashes as the tuple of its
    fields and prints as ``Name(field=value, ...)``."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()) if name[0] != "_")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Box(Record):
    """Axis-aligned product of intervals, one per dimension."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        if not coords:
            raise ValueError("a box needs at least one coordinate")
        self.coords = coords

    def __eq__(self, other):  # Record's, without its field walk: searches compare boxes
        if type(other) is not Box:
            return NotImplemented
        return self.coords == other.coords

    __hash__ = Record.__hash__

    @classmethod
    def from_bounds(cls, bounds) -> "Box":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def width(self) -> float:
        return max(c.hi - c.lo for c in self.coords)

    def midpoint(self):
        return tuple(c.mid for c in self.coords)

    def volume(self) -> float:
        v = 1.0
        for c in self.coords:
            v *= c.hi - c.lo
        return v

    def intersects(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError("boxes of different dimension")
        return all(a.intersects(b) for a, b in zip(self.coords, other.coords))

    def is_subset(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise DimensionMismatchError("boxes of different dimension")
        return all(a.is_subset(b) for a, b in zip(self.coords, other.coords))

    def replace_coord(self, axis: int, ival: Interval) -> "Box":
        coords = list(self.coords)
        coords[axis] = ival
        return Box(tuple(coords))

    def split_axis(self):
        """The widest coordinate with a float strictly inside it (the first
        on ties), or None when there is none: no split can shrink such a
        box, since bisect would return it unchanged as one half."""
        best, best_w = None, -1.0
        for i, c in enumerate(self.coords):
            w = c.hi - c.lo
            if w > best_w and _nextafter(c.lo, _INF) < c.hi:
                best, best_w = i, w
        return best

    def bisect(self, axis: int):
        """Split at the midpoint of the chosen coordinate.

        The two halves share only the splitting hyperplane and their union
        is the original box.
        """
        if not 0 <= axis < self.dim:
            raise IndexError(f"axis {axis} out of range for dimension {self.dim}")
        c = self.coords[axis]
        if c.hi == c.lo:
            raise DegenerateAxisError(f"axis {axis} has zero width")
        m = c.mid
        if not (c.lo < m < c.hi):
            m = min(next_up(c.lo), c.hi)
        return (
            self.replace_coord(axis, Interval(c.lo, m)),
            self.replace_coord(axis, Interval(m, c.hi)),
        )

    def key(self):
        """Deterministic sort key: lexicographic lower corner, then upper."""
        return tuple(c.lo for c in self.coords) + tuple(c.hi for c in self.coords)

    def bounds(self):
        return [[c.lo, c.hi] for c in self.coords]
