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
the result, and when both operands straddle zero four do.  Whenever a
chosen product is zero or its exactness cannot be checked (underflow,
overflow, huge operands) the kernel falls back to all eight directed
endpoint products, so results, signed zeros included, equal that formula
bit for bit.  ``mul_pair`` writes its two directed products out inline
(range tests, Dekker split, error term and ``math.nextafter``), as the
directed sums and differences do their TwoSum: these are the kernels
every map evaluation runs most.  ``pow_int_pair`` hands the exponent 2 to
``sqr_pair``, which equals the generic power bit for bit (the extra one-ulp
widening ``_pow_mag_*`` applies outside [1e-280, 1e290] included) at the
cost of one directed product per bound; ``x^2`` nodes, squared distances
and ``Interval.pow_int(2)`` all take it.

Transcendental endpoints (sin, cos, exp, tanh) rely on the platform libm
being faithful to within one ulp and are padded by one ulp outward, with
sin/cos additionally clamped to [-1, 1] and analysed for interior extrema
against an interval enclosure of pi.  The extremum test screens each
candidate ``c + 2*k*pi`` in plain floats and rounds outward only for the
candidates that an error margin (derived in ``_hits_lattice``) cannot
rule out; its decisions equal those of the all-interval evaluation.  On a
narrow argument (width at most 6, magnitude at most 2**20) the screen
rejects every candidate but the one nearest the midpoint, so each lattice
is decided on that one alone (derived in ``_sin_cos``), with the same
decisions.

Each operation has one kernel that maps operand endpoints to a ``(lo, hi)``
pair (``mul_pair``, ``div_pair``, ``pow_int_pair``, ``sin_pair``, ...).  Map
evaluation (``mapdsl``) calls them on plain endpoint pairs and builds an
``Interval``, the value type of coordinates and enclosures, only for each
component; the ten ``Interval`` operators wrap the kernels for other callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


def _pow_mag_down(x: float, n: int) -> float:
    """Lower bound for x**n, x >= 0, n >= 1.

    The first factor taken into the result would be multiplied by 1.0;
    on [1e-280, 1e290] that product is exact and equals the factor, so it
    is skipped there (elsewhere mul_down widens it).
    """
    base = x
    while not n & 1:
        base = mul_down(base, base)
        n >>= 1
    r = base if 1e-280 <= base <= 1e290 else mul_down(1.0, base)
    n >>= 1
    while n:
        base = mul_down(base, base)
        if n & 1:
            r = mul_down(r, base)
        n >>= 1
    return r


def _pow_mag_up(x: float, n: int) -> float:
    """Upper bound for x**n, x >= 0, n >= 1 (see _pow_mag_down)."""
    base = x
    while not n & 1:
        base = mul_up(base, base)
        n >>= 1
    r = base if 1e-280 <= base <= 1e290 else mul_up(1.0, base)
    n >>= 1
    while n:
        base = mul_up(base, base)
        if n & 1:
            r = mul_up(r, base)
        n >>= 1
    return r


# The square's directed bounds: mul_down(x, x) and mul_up(x, x) with
# _two_product written out for squares in [1e-280, 1e290], where its
# exactness test passes and the extra product by 1.0 that _pow_mag_* takes
# is exact and skipped.  The one-ulp step never leaves that range: the
# only square rounding to 1e-280 is 1e-140 ** 2, which rounds down, and
# the only one rounding to 1e290 is 1e145 ** 2, which rounds up.  The
# other squares go through _pow_mag_*.  So each result equals
# _pow_mag_*(x, 2).


def _sqr_down(x: float) -> float:
    p = x * x
    if 1e-280 <= p <= 1e290:
        t = _SPLITTER * x
        h = t - (t - x)
        r = x - h
        if ((h * h - p) + h * r + r * h) + r * r < 0.0:
            return _nextafter(p, -_INF)
        return p
    return _pow_mag_down(x, 2)


def _sqr_up(x: float) -> float:
    p = x * x
    if 1e-280 <= p <= 1e290:
        t = _SPLITTER * x
        h = t - (t - x)
        r = x - h
        if ((h * h - p) + h * r + r * h) + r * r > 0.0:
            return _nextafter(p, _INF)
        return p
    return _pow_mag_up(x, 2)


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
    """[a, b] * [c, d] from all four endpoint products, rounded both ways."""
    lo = min(mul_down(a, c), mul_down(a, d), mul_down(b, c), mul_down(b, d))
    hi = max(mul_up(a, c), mul_up(a, d), mul_up(b, c), mul_up(b, d))
    return lo, hi


def _mul_mixed(a: float, b: float, c: float, d: float):
    """[a, b] * [c, d] for a < 0 < b and c < 0 < d.

    The minimum is ad or bc (both negative) and the maximum is ac or bd
    (both positive), so four directed products replace eight.
    """
    p1, e1 = _two_product(a, d)
    p2, e2 = _two_product(b, c)
    q1, f1 = _two_product(a, c)
    q2, f2 = _two_product(b, d)
    if e1 is None or e2 is None or f1 is None or f2 is None:
        return _mul8(a, b, c, d)
    lo = min(p1 if e1 >= 0.0 else next_down(p1), p2 if e2 >= 0.0 else next_down(p2))
    hi = max(q1 if f1 <= 0.0 else next_up(q1), q2 if f2 <= 0.0 else next_up(q2))
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
    # past 1e290 already makes a picked e None.  Zero products go
    # to _mul8 too, whose min/max order fixes the sign of a zero bound.
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
        return _mul_mixed(a, b, c, d)
    # The two picked products, with _two_product written out: its
    # exactness test as range tests, then Dekker's split and error term.
    p = x1 * y1
    q = x2 * y2
    if not ((1e-280 <= p < _INF or -_INF < p <= -1e-280)
            and (1e-280 <= q < _INF or -_INF < q <= -1e-280)
            and -1e290 <= x1 <= 1e290 and -1e290 <= y1 <= 1e290
            and -1e290 <= x2 <= 1e290 and -1e290 <= y2 <= 1e290):
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


def div_pair(a: float, b: float, c: float, d: float):
    """[a, b] / [c, d]; IntervalDivisionError when [c, d] contains zero."""
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
        new_lo = _pow_mag_down(lo, n) if lo >= 0.0 else -_pow_mag_up(-lo, n)
        new_hi = _pow_mag_up(hi, n) if hi >= 0.0 else -_pow_mag_down(-hi, n)
        return new_lo, new_hi
    if lo >= 0.0:
        return _pow_mag_down(lo, n), _pow_mag_up(hi, n)
    if hi <= 0.0:
        return _pow_mag_down(-hi, n), _pow_mag_up(-lo, n)
    return 0.0, _pow_mag_up(max(-lo, hi), n)


def sqr_pair(lo: float, hi: float):
    """[lo, hi] ** 2, equal bit for bit to the even-power branch of
    pow_int_pair with _pow_mag_*(x, 2)."""
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


def tanh_pair(lo: float, hi: float):
    return max(-1.0, next_down(math.tanh(lo))), min(1.0, next_up(math.tanh(hi)))


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
        m = self.lo + 0.5 * (self.hi - self.lo)
        return min(max(m, self.lo), self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

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


def _hits_lattice(lo: float, hi: float, center: Interval, period: Interval) -> bool:
    """Conservatively decide whether {center + k*period : k in Z} meets [lo, hi].

    For each k the critical point is enclosed by [add_down(k*P, c.lo),
    add_up(k*P, c.hi)] with k*P rounded outward on the period endpoint
    that the sign of k makes extreme; this equals the interval expression
    ``Interval(k) * period + center`` bit for bit.

    A plain-float pre-test skips k whose approximation
    approx = fl(fl(k*P.lo) + c.lo) lies more than ``margin`` outside [lo, hi].
    For the enclosures used here (P = 2*pi, one ulp(2*pi) = 2**-50 wide;
    |c| <= 4, at most 2**-51 wide) and u = 2**-53, each enclosure endpoint
    differs from approx by at most
      |k|*(P.hi - P.lo)        <= 2u*|k*P.lo|   (gap between the periods)
      + (c.hi - c.lo)          <= 2**-51        (centre enclosure)
      + directed rounding      <= 2u*|k*P| + 2u*|sum|
      + rounding in approx     <= u*|k*P.lo| + u*|approx|,
    and |k*P.lo| <= |approx| + 5, which totals below 9u*|approx| + 50u.
    Rounding ``approx -/+ margin`` adds u*(|approx| + margin), for a total
    below 10u*|approx| + 51u < 2**-49*|approx| + 2**-47: at most half of
    the margin 2**-48*|approx| + 2**-45.  So a skipped k is one the
    directed test rejects too.
    """
    mid = 0.5 * (lo + hi)
    c_lo, c_hi = center.lo, center.hi
    p_lo, p_hi = period.lo, period.hi
    k0 = round((mid - c_lo) / p_lo)
    for k in (k0 - 2, k0 - 1, k0, k0 + 1, k0 + 2):
        k = float(k)
        approx = k * p_lo + c_lo
        margin = abs(approx) * 2.0**-48 + 2.0**-45
        if approx - margin > hi or approx + margin < lo:
            continue
        if k >= 0.0:
            crit_lo = add_down(mul_down(k, p_lo), c_lo)
            crit_hi = add_up(mul_up(k, p_hi), c_hi)
        else:
            crit_lo = add_down(mul_down(k, p_hi), c_lo)
            crit_hi = add_up(mul_up(k, p_lo), c_hi)
        if crit_lo <= hi and crit_hi >= lo:
            return True
    return False


# The extremum test on narrow arguments (see _sin_cos).
_NARROW_WIDTH = 6.0
_NARROW_MAG = 2.0**20
_P_LO = _TWO_PI.lo
_P_HI = _TWO_PI.hi


def _sin_cos(lo: float, hi: float, max_center: Interval, min_center: Interval, fn):
    """Range of sin or cos over [lo, hi]: fn at the endpoints, padded one
    ulp outward, or 1 and -1 where an extremum lattice meets [lo, hi].

    On an argument with hi - lo <= W0 = 6 and |lo|, |hi| <= M0 = 2**20,
    each lattice is decided on its nearest candidate k0 alone, with the
    float pre-test and the directed test that _hits_lattice runs for k0;
    other arguments go to _hits_lattice.  The decisions are the same, since
    the pre-test rejects every other k there.  With u = 2**-53:

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
        hit_max = _hits_nearest(lo, hi, mid, max_center.lo, max_center.hi)
        hit_min = _hits_nearest(lo, hi, mid, min_center.lo, min_center.hi)
    else:
        hit_max = _hits_lattice(lo, hi, max_center, _TWO_PI)
        hit_min = _hits_lattice(lo, hi, min_center, _TWO_PI)
    small = fn(lo)
    big = fn(hi)
    if big < small:
        small, big = big, small
    r_hi = 1.0 if hit_max else min(1.0, _nextafter(big, _INF))
    r_lo = -1.0 if hit_min else max(-1.0, _nextafter(small, -_INF))
    return r_lo, r_hi


def _hits_nearest(lo: float, hi: float, mid: float, c_lo: float, c_hi: float) -> bool:
    """_hits_lattice's tests for the one candidate k0 on the 2*pi lattice
    through [c_lo, c_hi]."""
    k = float(round((mid - c_lo) / _P_LO))
    approx = k * _P_LO + c_lo
    margin = abs(approx) * 2.0**-48 + 2.0**-45
    if approx - margin > hi or approx + margin < lo:
        return False
    if k >= 0.0:
        return add_down(mul_down(k, _P_LO), c_lo) <= hi and add_up(mul_up(k, _P_HI), c_hi) >= lo
    return add_down(mul_down(k, _P_HI), c_lo) <= hi and add_up(mul_up(k, _P_LO), c_hi) >= lo


@dataclass(frozen=True)
class Box:
    """Axis-aligned product of intervals, one per dimension."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise ValueError("a box needs at least one coordinate")

    @classmethod
    def from_bounds(cls, bounds) -> "Box":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def width(self) -> float:
        return max(c.hi - c.lo for c in self.coords)

    def widths(self):
        return tuple(c.hi - c.lo for c in self.coords)

    def midpoint(self):
        return tuple(c.mid for c in self.coords)

    def volume(self) -> float:
        v = 1.0
        for c in self.coords:
            v *= c.hi - c.lo
        return v

    def contains_point(self, p) -> bool:
        if len(p) != self.dim:
            raise DimensionMismatchError(
                f"point of dimension {len(p)} against box of dimension {self.dim}"
            )
        return all(c.lo <= x <= c.hi for c, x in zip(self.coords, p))

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
        m = c.lo + 0.5 * (c.hi - c.lo)
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
