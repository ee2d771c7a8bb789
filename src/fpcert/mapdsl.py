"""A small line-oriented language for maps R^n -> R^n with dual semantics.

A program declares a dimension, optionally a scalar parameter ``t``, and one
expression per component::

    dim 2
    param t
    map g1 = (x1 + x2) * x1
    map g2 = (x1 + x2) * x2
    domain rect [0,1] [0,1]     # optional, consumed by the CLI layer

Expressions support + - * / ^INT, unary minus, parentheses, the functions
sin cos exp tanh sqrt abs min max, the variables x1..xn and t, and decimal
literals, in ASCII digits and letters (whitespace is what str.isspace
accepts).  Every parsed map evaluates over floats (eval_real) and over
boxes (``eval_pairs``; ``eval_interval`` stays for the perfbench tracer);
the interval semantics is the naive interval extension, which encloses
the true image of the box.  Nodes evaluate on one tuple of coordinates,
x1..xn followed by t (``Param``, the ``Var`` at index n), to endpoint
pairs ``(lo, hi)`` of plain floats (``eval_pair(xs)``):
leaves read the endpoints of a coordinate or of a constant's enclosure, and
operations call the pair kernels of ``interval``.  Each operation checks
its result with ``-inf < lo <= hi < inf`` and raises exactly what
``Interval(lo, hi)`` would, and an ``Interval`` is built only for each
component (``MapSpec.eval_pairs`` returns the component pairs themselves).
``MapSpec.at(t)`` substitutes a float t for the parameter: the plain map
it returns reads the constant [t, t] where the map read the coordinate
Interval(t), so it evaluates bit for bit as the map at that t.
``flip_coordinates`` replaces g_i by 2*x_i - g_i, which keeps the fixed
points (on a cylinder's height, the duality transform).  No other module
builds expression nodes: the others evaluate the trees built here.
``MapSpec.memo_view()`` gives, for one search, an evaluation-only view of
the map and of its Jacobian (``MemoView``) that evaluates as they do, bit
for bit, errors included.  Built in one walk that merges equal subtrees,
it evaluates the expression DAG: a subtree that reads no entry of the
coordinate tuple is a ``Folded`` node, its pair computed when the view is
built (unless that raises), a subtree that reads one entry is a ``Memo``,
which keeps its pair per exact value of that entry, and a subtree of
several entries that one evaluation meets more than once is a ``Shared``
node, which keeps the pair of the tuple it last evaluated.  Caches and
slots are emptied when a search starts and when it returns, so nothing is
kept between searches, and a cache that reaches 1,024 values is emptied
before it takes another, so a search of any budget keeps a bounded
number.  ``children`` and ``with_children`` are the one generic way to
walk and rebuild a tree.
``derivative`` builds a partial derivative as an ordinary expression tree,
evaluated like any other (at abs, min and max an enclosure of Clarke's
generalized gradient, a ``Select``; abs's mirrors its one branch), and
``jacobian`` collects them.  Expressions nest at most ``MAX_DEPTH`` levels
deep, so neither parsing, differentiation nor evaluation can exhaust the
stack.  Decimal literals evaluate to their nearest float in real semantics
and to the tightest enclosing float interval, chosen in exact arithmetic,
in interval semantics, so constants like 0.1 never silently lose their true
value.  A literal above the float range is a parse error; one below it is
enclosed in [0, 5e-324].

Comment text after ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from decimal import Decimal

from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    Record,
    abs_pair,
    add_down,
    add_up,
    cos_pair,
    div_pair,
    exp_pair,
    interval_error,
    max_pair,
    min_pair,
    mul_pair,
    next_down,
    next_up,
    pow_int_pair,
    sin_pair,
    sqrt_pair,
    sub_down,
    sub_up,
    tanh_pair,
)

_INF = math.inf


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + where)


class UnknownIdentifierError(ParseError):
    pass


class EvaluationError(ArithmeticError):
    """Evaluation produced a non-finite value."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr(Record):
    """An expression node: it compares, hashes and prints by its slots, as
    a Record, and equals only a node of its own type (Param(k) != Var(k))."""

    __slots__ = ()


class Const(Expr):
    __slots__ = ("value", "enclosure")

    def __init__(self, value: float, enclosure: Interval):
        self.value = value
        self.enclosure = enclosure

    def eval_real(self, xs):
        return self.value

    def eval_pair(self, xs):
        enc = self.enclosure
        return enc.lo, enc.hi

    def to_source(self, prec=0):
        if self.value < 0:
            s = repr(self.value)
            return f"({s})" if prec >= 3 else s
        return repr(self.value)


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # 0-based

    def eval_real(self, xs):
        return xs[self.index]

    def eval_pair(self, xs):
        c = xs[self.index]
        return c.lo, c.hi

    def to_source(self, prec=0):
        return f"x{self.index + 1}"


class Param(Var):
    """t, the coordinate after x1..xn: ``type(e) is Var`` means x1..xn."""

    __slots__ = ()

    def to_source(self, prec=0):
        return "t"


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def eval_real(self, xs):
        return -self.arg.eval_real(xs)

    def eval_pair(self, xs):
        lo, hi = self.arg.eval_pair(xs)
        return -hi, -lo

    def to_source(self, prec=0):
        # A nested minus needs no parentheses: "--x1" parses as -(-x1).
        inner = f"-{self.arg.to_source(2 if type(self.arg) is Neg else 3)}"
        return f"({inner})" if prec > 2 else inner


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # one of + - * /
        self.left = left
        self.right = right

    def eval_real(self, xs):
        a = self.left.eval_real(xs)
        b = self.right.eval_real(xs)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b

    def eval_pair(self, xs):
        a, b = self.left.eval_pair(xs)
        c, d = self.right.eval_pair(xs)
        op = self.op
        if op == "+":
            lo, hi = add_down(a, c), add_up(b, d)
        elif op == "-":
            lo, hi = sub_down(a, d), sub_up(b, c)
        elif op == "*":
            lo, hi = mul_pair(a, b, c, d)
        else:
            lo, hi = div_pair(a, b, c, d)
        if -_INF < lo <= hi < _INF:
            return lo, hi
        raise interval_error(lo, hi)

    def to_source(self, prec=0):
        mine = 1 if self.op in "+-" else 2
        left = self.left.to_source(mine)
        right = self.right.to_source(mine + 1)  # left-associative
        s = f"{left} {self.op} {right}"
        return f"({s})" if prec > mine else s


class Power(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.base = base
        self.exponent = exponent

    def eval_real(self, xs):
        b = self.base.eval_real(xs)
        if self.exponent < 0 and b == 0.0:
            raise DomainError("zero base with negative exponent")
        return b ** self.exponent

    def eval_pair(self, xs):
        lo, hi = pow_int_pair(*self.base.eval_pair(xs), self.exponent)
        if -_INF < lo <= hi < _INF:
            return lo, hi
        raise interval_error(lo, hi)

    def to_source(self, prec=0):
        s = f"{self.base.to_source(4)}^{self.exponent}"
        return f"({s})" if prec > 3 else s


def _sqrt(v):
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


# name -> (arity, float function, pair kernel)
FUNCTIONS = {
    "sin": (1, math.sin, sin_pair),
    "cos": (1, math.cos, cos_pair),
    "exp": (1, math.exp, exp_pair),
    "tanh": (1, math.tanh, tanh_pair),
    "sqrt": (1, _sqrt, sqrt_pair),
    "abs": (1, abs, abs_pair),
    "min": (2, min, min_pair),
    "max": (2, max, max_pair),
}


class Call(Expr):
    __slots__ = ("func", "args")

    def __init__(self, func: str, args: tuple):
        self.func = func
        self.args = args

    def eval_real(self, xs):
        return FUNCTIONS[self.func][1](*[a.eval_real(xs) for a in self.args])

    def eval_pair(self, xs):
        kernel = FUNCTIONS[self.func][2]
        args = self.args
        if len(args) == 1:
            lo, hi = kernel(*args[0].eval_pair(xs))
        else:
            lo, hi = kernel(*args[0].eval_pair(xs), *args[1].eval_pair(xs))
        if -_INF < lo <= hi < _INF:
            return lo, hi
        raise interval_error(lo, hi)

    def to_source(self, prec=0):
        return f"{self.func}(" + ", ".join(a.to_source(0) for a in self.args) + ")"


class Select(Expr):
    """The derivative at a kink (abs, min, max; the parser has no select):
    neg where cond < 0, pos where cond > 0, and where cond may be 0 the
    hull of both (eval_pair) or pos (eval_real), elements of Clarke's
    generalized gradient.  A neg of None, as in abs's derivative, mirrors
    pos (-pos), so the tree holds pos once: n nested abs take n Selects."""

    __slots__ = ("cond", "neg", "pos")

    def __init__(self, cond: Expr, neg: "Expr | None", pos: Expr):
        self.cond = cond
        self.neg = neg
        self.pos = pos

    def eval_real(self, xs):
        if self.cond.eval_real(xs) < 0.0:
            return -self.pos.eval_real(xs) if self.neg is None else self.neg.eval_real(xs)
        return self.pos.eval_real(xs)

    def eval_pair(self, xs):
        lo, hi = self.cond.eval_pair(xs)
        neg = self.neg
        if hi < 0.0 and neg is not None:
            return neg.eval_pair(xs)
        c, d = self.pos.eval_pair(xs)
        if lo > 0.0:
            return c, d
        a, b = (-d, -c) if neg is None else neg.eval_pair(xs)
        return (a, b) if hi < 0.0 else (min(a, c), max(b, d))


def children(e: Expr) -> tuple:
    """The direct subexpressions of e, in evaluation order."""
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Power):
        return (e.base,)
    if isinstance(e, Call):
        return e.args
    if isinstance(e, Select):
        return (e.cond, e.pos) if e.neg is None else (e.cond, e.neg, e.pos)
    return ()


def with_children(e: Expr, kids) -> Expr:
    """e with its direct subexpressions replaced by kids (see children)."""
    if isinstance(e, BinOp):
        return BinOp(e.op, kids[0], kids[1])
    if isinstance(e, Neg):
        return Neg(kids[0])
    if isinstance(e, Power):
        return Power(kids[0], e.exponent)
    if isinstance(e, Call):
        return Call(e.func, tuple(kids))
    if isinstance(e, Select):
        return Select(kids[0], None, kids[1]) if len(kids) == 2 else Select(*kids)
    return e


def literal_const(text: str) -> Const:
    """A constant whose enclosure brackets the exact value of the decimal
    literal text, as Decimal reads it; DomainError past the float range.  A
    literal that rounds to zero is decided by the sign of its mantissa."""
    v = float(text)
    if not math.isfinite(v):
        raise DomainError("decimal literal past the float range")
    if v:
        n, d = Decimal(text).as_integer_ratio()
        p, q = v.as_integer_ratio()
        side = n * q - p * d  # the sign of exact - v
    else:
        side = Decimal(text.upper().partition("E")[0]).compare(0)
    if side == 0:
        return Const(v, Interval(v, v))
    if side > 0:
        return Const(v, Interval(v, next_up(v)))
    return Const(v, Interval(next_down(v), v))


def float_const(v: float) -> Const:
    """Constant for a value already held as a float (exact enclosure)."""
    return Const(v, Interval(v, v))


# ---------------------------------------------------------------------------
# Symbolic derivatives
# ---------------------------------------------------------------------------


_ZERO = float_const(0.0)
_ONE = float_const(1.0)
_TWO = float_const(2.0)


def _mul(a, b):
    """a * b for derivative terms, None standing for zero; a factor _ONE is
    left out, which changes no enclosure (multiplying by [1, 1] is exact)."""
    if a is None or b is None:
        return None
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return BinOp("*", a, b)


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return BinOp("+", a, b)


def derivative(e: Expr, j: int) -> "Expr | None":
    """The partial derivative of e in x_{j+1} (j 0-based) as an expression
    tree, or None where it is identically zero; zero terms are dropped.

    The result reuses the subtrees of e and evaluates with eval_pair like
    any expression, so its naive extension over a box encloses the
    derivative wherever every subexpression of e is defined: a quotient's
    derivative holds its denominator, and sqrt's holds the root itself in a
    denominator, so the evaluation raises instead where e may be singular.
    At abs(u), min(u, v) and max(u, v) it is a Select on the sign of u or
    u - v, whose naive extension encloses Clarke's generalized gradient,
    as the operator test's mean value theorem needs (Clarke 1983, 2.6.5).
    abs's Select holds u' once, as pos, its neg None mirroring it: every
    rule reaches a child derivative once, so no walk doubles per level.
    """
    kind = type(e)
    if kind is Var:
        return _ONE if e.index == j else None
    if kind is Neg:
        d = derivative(e.arg, j)
        return None if d is None else Neg(d)
    if kind is BinOp:
        u, v = e.left, e.right
        du, dv = derivative(u, j), derivative(v, j)
        if e.op == "+":
            return _add(du, dv)
        if e.op == "-":
            if dv is None:
                return du
            return Neg(dv) if du is None else BinOp("-", du, dv)
        if e.op == "*":
            return _add(_mul(du, v), _mul(u, dv))
        if dv is None:  # (u/v)' = u'/v - u v'/v^2
            return None if du is None else BinOp("/", du, v)
        term = BinOp("/", _mul(u, dv), Power(v, 2))
        return Neg(term) if du is None else BinOp("-", BinOp("/", du, v), term)
    if kind is Power:
        du = derivative(e.base, j)
        n = e.exponent
        if du is None or n == 0:
            return None
        if n == 1:
            return du
        inner = e.base if n == 2 else Power(e.base, n - 1)
        # The literal's enclosure holds n also past 2**53, where float(n)
        # rounds; past the float range it raises DomainError.
        return _mul(BinOp("*", literal_const(str(n)), inner), du)
    if kind is Call:
        u = e.args[0]
        du = derivative(u, j)
        if e.func in ("min", "max"):
            dv = derivative(e.args[1], j)
            if du is None and dv is None:
                return None
            pair = (_ZERO if du is None else du, _ZERO if dv is None else dv)
            return Select(BinOp("-", u, e.args[1]), *(pair if e.func == "min" else pair[::-1]))
        if du is None:
            return None
        if e.func == "abs":
            return Select(u, None, du)  # neg mirrors pos: -du
        if e.func == "sqrt":
            return BinOp("/", du, BinOp("*", _TWO, e))
        if e.func == "sin":
            outer = Call("cos", (u,))
        elif e.func == "cos":
            outer = Neg(Call("sin", (u,)))
        elif e.func == "exp":
            outer = e
        else:  # tanh
            outer = BinOp("-", _ONE, Power(e, 2))
        return _mul(outer, du)
    if kind is Const or kind is Param:
        return None  # free of x
    # A node of another kind (a Memo, say) would otherwise pass for a
    # constant and give a zero derivative, which no enclosure may assume.
    raise TypeError(f"cannot differentiate a {kind.__name__} node")


def jacobian(m: "MapSpec"):
    """The rows (dg_i/dx_1, ..., dg_i/dx_n) of m's Jacobian, with None for
    an entry that is identically zero, or None when m has an exponent past
    the float range."""
    try:
        return tuple(tuple(derivative(c, j) for j in range(m.dim))
                     for c in m.components)
    except DomainError:
        return None


# ---------------------------------------------------------------------------
# Memo views
# ---------------------------------------------------------------------------


class Memo(Expr):
    """A subtree that reads one entry, the one at axis, of a coordinate
    tuple (x1..xn, then t) of two entries or more, with its pair kept per
    exact value of that coordinate until the cache is cleared
    (MapSpec.memo_view).  It only evaluates (eval_pair): a memo view is
    not differentiated, printed or evaluated over floats.  A subtree that
    raises is not kept, so it raises again.  A cache that
    holds _MEMO_ENTRIES values is emptied before it takes another, so a
    search of any budget keeps a bounded number."""

    __slots__ = ("node", "axis", "cache")
    # A view node is its own cache: it compares and hashes by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, node: Expr, axis: int):
        self.node = node
        self.axis = axis
        self.cache = {}

    def eval_pair(self, xs):
        # A zero endpoint is keyed by its text: -0.0 == 0.0, yet the two
        # can give results that differ in the sign of a zero.
        c = xs[self.axis]
        lo = c.lo
        hi = c.hi
        key = (lo or str(lo), hi or str(hi))
        cache = self.cache
        pair = cache.get(key)
        if pair is None:
            pair = self.node.eval_pair(xs)
            if len(cache) >= _MEMO_ENTRIES:
                cache.clear()
            cache[key] = pair
        return pair


# Values one Memo keeps at most.  No cache of a seed-1 localize-trig or
# holed-ball search holds more than 96; without the bound, a search that
# runs until its box budget is spent keeps adding values all the way.
_MEMO_ENTRIES = 1024


class Shared(Expr):
    """A subtree that reads two or more coordinates and that one evaluation
    of the map, or of its Jacobian, meets more than once (MapSpec.memo_view),
    with the pair of the coordinate tuple it last evaluated.  The tuple is
    matched by identity and held, so its identity cannot pass to another
    tuple while the pair is kept: a tuple of equal coordinates that is
    another object, one with -0.0 where this one has 0.0 say, is evaluated
    afresh.  A subtree that raises keeps nothing, so it raises again."""

    __slots__ = ("node", "xs", "pair")
    __eq__ = object.__eq__  # by identity, as Memo
    __hash__ = object.__hash__

    def __init__(self, node: Expr):
        self.node = node
        self.xs = None
        self.pair = None

    def eval_pair(self, xs):
        if xs is self.xs:
            return self.pair
        pair = self.node.eval_pair(xs)
        self.xs = xs
        self.pair = pair
        return pair


class Folded(Expr):
    """A subtree that reads no entry of the coordinate tuple, folded when its
    memo view is built (MapSpec.memo_view) into the pair it evaluates to on
    every tuple.  It only evaluates (eval_pair).  A subtree whose evaluation
    raises is not folded, so it raises where and as the plain map does."""

    __slots__ = ("pair",)

    def __init__(self, pair):
        self.pair = pair

    def eval_pair(self, xs):
        return self.pair


class _Merged:
    """One class of structurally equal subtrees in MemoView's build walk."""

    __slots__ = ("expr", "kids", "reads", "repeats", "view", "inner")

    def __init__(self, expr, kids, reads):
        self.expr = expr  # the first subtree of the class that the walk met
        self.kids = kids  # the classes of its children
        self.reads = reads  # bit i set: it reads entry i of the coordinate tuple
        self.repeats = False  # two uses or more in some evaluation group
        self.view = None
        self.inner = None  # the subtree a Memo of the class evaluates


class MemoView:
    """An evaluation-only copy of a map and of its Jacobian (`jacobian`)
    that evaluates each distinct subexpression once per coordinate tuple
    (Schichl & Neumaier 2005).  One walk over the plain trees merges
    structurally equal subtrees: the same kind, operator, function or
    exponent, constants with the same enclosure (a zero endpoint told
    apart by its sign, as repr does) and the same merged children.  In the
    view built from the merged classes,

    - each non-leaf class that reads no entry of the coordinate tuple
      (x1..xn, then t) is a Folded node, with the pair it evaluates to on
      every tuple, computed once here; a class whose evaluation raises
      stays a node, so it raises as the plain map does, in the same order;
    - each maximal non-leaf subtree that reads exactly one entry of the
      tuple, when the tuple has two entries or more, is a Memo, one per
      class, with its pair per exact value of that entry; the subtree it
      evaluates has its constant classes folded too;
    - each class that reads two entries or more and has two parents or more
      within one evaluation group (the components, or the Jacobian
      entries) is a Shared node, which keeps the pair of the tuple it last
      evaluated: one evaluation of the group computes it once.

    Keys of several coordinates hit too seldom to pay as Memo keys (53%
    against 81% on 3-D searches, and the pass was slower with them), and a
    class met once per group would only miss.  The map and its Jacobian
    share one view node per class, so also one cache."""

    def __init__(self, m: "MapSpec"):
        memo_ok = m.dim + m.has_param > 1  # a tuple of two entries or more
        by_id = {}  # id(node) -> its class
        classes = {}  # structural key -> class

        def merge(e):
            c = by_id.get(id(e))
            if c is None:
                kind = type(e)
                if kind is BinOp:
                    a, b = merge(e.left), merge(e.right)
                    key = (kind, e.op, a, b)
                    kids, reads = (a, b), a.reads | b.reads
                elif kind is Const:
                    lo, hi = e.enclosure.lo, e.enclosure.hi
                    key = (kind, lo or str(lo), hi or str(hi))
                    kids, reads = (), 0
                elif kind is Var or kind is Param:
                    key = (kind, e.index)
                    kids, reads = (), 1 << e.index
                else:  # Neg, Power, Call, Select: jacobian(m) refuses other kinds
                    kids = tuple([merge(k) for k in children(e)])
                    reads = 0
                    for k in kids:
                        reads |= k.reads
                    key = (kind, getattr(e, "exponent", None), getattr(e, "func", None)) + kids
                c = classes.get(key)
                if c is None:
                    c = classes[key] = _Merged(e, kids, reads)
                by_id[id(e)] = c
            return c

        def use(c, seen):
            """One use of class c by an evaluation group that has met the
            classes seen: a second marks c as repeating, the first uses c's
            children of two entries or more (only those can be Shared)."""
            if c in seen:
                c.repeats = True
            else:
                seen.add(c)
                for k in c.kids:
                    if k.reads & (k.reads - 1):
                        use(k, seen)

        def rebuilt(c, part):
            """c's first subtree with each non-leaf child k replaced by
            part(k).  A leaf stays the node's own: only its class's first
            node would differ, and evaluate the same."""
            e = c.expr
            old = children(e)
            new = [part(k) if k.kids else a for k, a in zip(c.kids, old)]
            return e if all(a is b for a, b in zip(new, old)) else with_children(e, new)

        def inner(c):
            """The subtree a Memo evaluates: its constant subtrees folded,
            and no Memo inside it, whose key would miss where its own does."""
            if not c.reads:
                return build(c)
            if c.inner is None:
                c.inner = rebuilt(c, inner)
            return c.inner

        def build(c):
            v = c.view
            if v is None:
                reads = c.reads
                if not c.kids:
                    v = c.expr
                elif memo_ok and reads & (reads - 1) == 0 and reads:  # one entry
                    v = Memo(inner(c), reads.bit_length() - 1)
                else:
                    v = rebuilt(c, build)
                    if not reads:  # a constant: its pair on any tuple
                        try:
                            v = Folded(v.eval_pair(()))
                        except Exception:  # raised: it stays, and raises as the plain map
                            pass
                    elif c.repeats and reads & (reads - 1):  # two entries or more
                        v = Shared(v)
                c.view = v
            return v

        jac = jacobian(m)
        comps = [merge(e) for e in m.components]
        rows = None
        if jac is not None:
            rows = [[None if d is None else merge(d) for d in row] for row in jac]
        # Count the uses once the merge is done, one group at a time.
        for group in (comps, [c for row in rows or () for c in row if c is not None]):
            seen = set()
            for c in group:
                use(c, seen)
        # Built once every use is counted: a class may repeat only in the
        # Jacobian, and the map shares its view node.
        self.map = MapSpec(m.dim, tuple([build(c) for c in comps]), m.has_param)
        self.jacobian = None if rows is None else tuple(
            tuple(None if c is None else build(c) for c in row) for row in rows)
        views = [c.view for c in classes.values()]
        self.caches = tuple(v.cache for v in views if type(v) is Memo)
        self.shared = tuple(v for v in views if type(v) is Shared)

    def clear(self):
        for cache in self.caches:
            cache.clear()
        for s in self.shared:
            s.xs = s.pair = None


# ---------------------------------------------------------------------------
# Parsed maps
# ---------------------------------------------------------------------------


class MapSpec(Record):
    """A parsed map R^n -> R^n, optionally with a scalar parameter t."""

    __slots__ = ("dim", "components", "has_param", "_view")

    def __init__(self, dim: int, components: tuple, has_param: bool = False):
        self.dim = dim
        self.components = components
        self.has_param = has_param
        self._view = None  # the memo view, built on first use

    def _coords(self, xs, t):
        """The coordinates a node reads: xs (x1..xn), then t if the map
        takes it.  ValueError when t is given to a map without the
        parameter or missing; DimensionMismatchError when len(xs) != dim."""
        if self.has_param and t is None:
            raise ValueError("map takes a parameter t but none was supplied")
        if not self.has_param and t is not None:
            raise ValueError("map takes no parameter")
        if len(xs) != self.dim:
            raise DimensionMismatchError(
                f"{len(xs)} coordinates for map of dimension {self.dim}")
        return (*xs, t) if self.has_param else xs

    def eval_real(self, point, t=None):
        xs = self._coords(tuple(float(x) for x in point), t)
        out = []
        for comp in self.components:
            try:
                v = comp.eval_real(xs)
            except OverflowError as exc:
                raise EvaluationError("overflow during evaluation") from exc
            if not math.isfinite(v):
                raise EvaluationError(f"non-finite component value {v}")
            out.append(v)
        return tuple(out)

    def eval_interval(self, box: Box, t=None) -> Box:
        xs = self._coords(box.coords, t)
        return Box(tuple([Interval(*c.eval_pair(xs)) for c in self.components]))

    def eval_pairs(self, box: Box, t=None) -> list:
        """The component enclosures of eval_interval as (lo, hi) pairs,
        bit for bit and with the same errors, building no Interval."""
        xs = self._coords(box.coords, t)
        return [c.eval_pair(xs) for c in self.components]

    @property
    def _memo(self) -> MemoView:
        """This map's memo view, built on the first memo_view."""
        if self._view is None:
            self._view = MemoView(self)
        return self._view

    @contextmanager
    def memo_view(self):
        """For one search: the memo view's map and Jacobian (MemoView),
        which evaluate bit for bit as this map and jacobian(self), errors
        included, on the coordinate tuple (x1..xn, then t), but evaluate a
        subtree that reads one entry only once per exact value of that
        entry, and a repeated subtree once per tuple.  The caches and slots
        are emptied when the block starts and when it ends, raising or not,
        so no value is kept between searches."""
        view = self._memo
        view.clear()
        try:
            yield view.map, view.jacobian
        finally:
            view.clear()

    def at(self, t: float) -> "MapSpec":
        """This map with its parameter bound to the point t: a map that
        takes no parameter, with every t replaced by the constant [t, t].
        That is the pair t reads from Interval(t), so the result evaluates
        as this map with t = Interval(t), bit for bit, errors included."""
        if not self.has_param:
            raise ValueError("map takes no parameter")
        const = float_const(float(t))

        def subst(e):
            if type(e) is Param:
                return const
            kids = children(e)
            return with_children(e, [subst(k) for k in kids]) if kids else e

        return MapSpec(self.dim, tuple(subst(c) for c in self.components))

    def eval_component_interval(self, i: int, box: Box, t=None) -> Interval:
        return Interval(*self.components[i].eval_pair(self._coords(box.coords, t)))

    def to_source(self) -> str:
        lines = [f"dim {self.dim}"]
        if self.has_param:
            lines.append("param t")
        for i, comp in enumerate(self.components):
            lines.append(f"map g{i + 1} = {comp.to_source(0)}")
        return "\n".join(lines) + "\n"


def flip_coordinates(m: MapSpec, flip_axes) -> MapSpec:
    """m with g_i replaced by 2*x_i - g_i for each i in flip_axes (0-based),
    which has the same fixed points.  On the height axis 0 of a cylinder
    it is the duality transform: a compressive map becomes expansive."""
    axes = set(flip_axes)
    for axis in axes:
        if not 0 <= axis < m.dim:
            raise IndexError(f"axis {axis} out of range for dimension {m.dim}")
    comps = tuple(BinOp("-", BinOp("*", _TWO, Var(i)), c) if i in axes else c
                  for i, c in enumerate(m.components))
    return MapSpec(m.dim, comps, m.has_param)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?"
"""An unsigned decimal literal in ASCII digits: the lexer's number token,
which the domain line (geometry.parse_domain) reads with an optional sign.
No two ways to match split the same digits, so a pattern around it that
fails backtracks in time linear in the literal's length."""

# A number, an identifier, an operator, or any other character but
# whitespace (\s, as str.isspace), which is an error; finditer skips the
# whitespace between tokens.  Digits and letters are ASCII only.
_TOKEN = re.compile(rf"({NUMBER})|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),])|(\S)")
_KINDS = (None, "num", "ident", "op")


def _tokenize_expr(text: str, line_no: int, col_offset: int) -> list:
    """The tokens of text as (kind, text, column) tuples; kind is num,
    ident or op, and a token's text alone tells its kind."""
    toks = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError("stray '.'" if m[4] == "." else f"unexpected character {m[4]!r}",
                             line_no, col_offset + m.start() + 1)
        toks.append((_KINDS[group], m[group], col_offset + m.start() + 1))
    return toks


MAX_DEPTH = 100
"""Deepest expression the parser accepts, bounded two ways: at most this
many operators, unary minuses, powers and calls on any path of the
expression tree, and at most this many parentheses, calls and unary minuses
open around any point of the text.  Evaluation recurses once per tree level
and parsing about five frames per parenthesis, so both stay well inside
Python's default recursion limit.  A derivative recurses once per level
too, and its tree is at most about three times as deep as the expression
(the quotient rule nests the denominator's derivative three levels down)."""


def _too_deep(line, col=None) -> ParseError:
    return ParseError(f"expression nested deeper than {MAX_DEPTH} levels", line, col)


def _tree_depth(root: Expr) -> int:
    """Operator levels on the longest path of the tree, counted without
    recursion (leaves count zero)."""
    depth = 0
    stack = [(root, 0)]
    while stack:
        e, above = stack.pop()
        kids = children(e)
        if not kids:
            depth = max(depth, above)
        stack.extend((k, above + 1) for k in kids)
    return depth


_LEVELS = {"+": 1, "-": 1, "*": 2, "/": 2}  # binary operators; higher binds tighter


def _parse_expr(text: str, dim: int, has_param: bool, line_no: int, col_offset: int) -> Expr:
    """The tree of one expression, by precedence climbing over its tokens;
    MAX_DEPTH bounds the levels open around each token and the tree's."""
    toks = _tokenize_expr(text, line_no, col_offset)
    end = len(toks)
    pos = 0
    opened = 0  # parentheses, calls and unary minuses open around pos

    def take():
        nonlocal pos
        if pos == end:
            raise ParseError("unexpected end of expression", line_no)
        pos += 1
        return toks[pos - 1]

    def enter(col):
        nonlocal opened
        opened += 1
        if opened > MAX_DEPTH:
            raise _too_deep(line_no, col)

    def binary(level):
        """Operands joined left to right by operators of level or above."""
        nonlocal pos
        e = unary()
        while pos < end and _LEVELS.get(toks[pos][1], 0) >= level:
            op = toks[pos][1]
            pos += 1
            e = BinOp(op, e, unary() if _LEVELS[op] == 2 else binary(2))
        return e

    def unary():
        """Unary minuses around a power: -x^2 is -(x^2)."""
        nonlocal pos, opened
        minuses = 0
        while pos < end and toks[pos][1] == "-":
            enter(toks[pos][2])
            pos += 1
            minuses += 1
        e = atom()
        if pos < end and toks[pos][1] == "^":
            pos += 1
            sign, (kind, text, col) = 1, take()
            if text == "-":
                sign, (kind, text, col) = -1, take()
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be an integer literal", line_no, col)
            e = Power(e, sign * _int(text, "exponent", line_no, col))
        for _ in range(minuses):
            e = Neg(e)
        opened -= minuses
        return e

    def closed(col, call):
        """The expressions up to the ')' of a parenthesis or call at col."""
        nonlocal opened
        enter(col)
        items = [binary(1)]
        while True:
            _kind, text, at = take()
            if text == ")":
                opened -= 1
                return items
            if text != "," or not call:
                expected = "',' or ')'" if call else "')'"
                raise ParseError(f"expected {expected}, found {text!r}", line_no, at)
            items.append(binary(1))

    def atom():
        nonlocal pos
        kind, text, col = take()
        if kind == "num":
            try:
                return literal_const(text)
            except DomainError as exc:
                raise ParseError(str(exc), line_no, col) from None
        if text == "(":
            return closed(col, False)[0]
        if kind != "ident":
            raise ParseError(f"unexpected token {text!r}", line_no, col)
        if text in FUNCTIONS and pos < end and toks[pos][1] == "(":
            pos += 1
            args = closed(col, True)
            arity = FUNCTIONS[text][0]
            if len(args) != arity:
                raise ParseError(f"{text} takes {arity} argument(s), got {len(args)}",
                                 line_no, col)
            return Call(text, tuple(args))
        if text == "t":
            if not has_param:
                raise UnknownIdentifierError("t used without a 'param t' declaration",
                                             line_no, col)
            return Param(dim)
        if text[0] == "x" and text[1:].isdigit():
            idx = _int(text[1:], "variable index", line_no, col)
            if not 1 <= idx <= dim:
                raise UnknownIdentifierError(f"{text} out of range for dim {dim}", line_no, col)
            return Var(idx - 1)
        raise UnknownIdentifierError(f"unknown identifier {text!r}", line_no, col)

    e = binary(1)
    if pos < end:
        raise ParseError(f"unexpected token {toks[pos][1]!r}", line_no, toks[pos][2])
    # Every tree level has its own token, so only a long expression can be
    # too deep for evaluation.
    if end > MAX_DEPTH and _tree_depth(e) > MAX_DEPTH:
        raise _too_deep(line_no)
    return e


def _int(digits: str, what: str, line, col=None) -> int:
    """The integer the ASCII digits spell, or a ParseError that names `what`
    where they pass Python's limit on digits per int."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} has too many digits", line, col) from None


class ParsedProgram:
    __slots__ = ("map", "domain_line", "domain_line_no")

    def __init__(self, map: MapSpec, domain_line: "str | None", domain_line_no: int):
        self.map = map
        self.domain_line = domain_line
        self.domain_line_no = domain_line_no


def parse_program(source: str) -> ParsedProgram:
    dim = None
    has_param = False
    components = {}
    domain_line = None
    domain_line_no = 0

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if domain_line is not None:
            raise ParseError("domain line must be the last line", line_no)
        head = line.split(None, 1)[0]
        if head == "dim":
            if dim is not None:
                raise ParseError("duplicate dim declaration", line_no)
            rest = line[3:].strip()
            dim = _int(rest, "dim", line_no) if rest.isascii() and rest.isdigit() else 0
            if dim < 1:
                raise ParseError("dim expects a positive integer", line_no)
        elif head == "param":
            if dim is None:
                raise ParseError("param before dim", line_no)
            if line.split() != ["param", "t"]:
                raise ParseError("only 'param t' is supported", line_no)
            if components:
                raise ParseError("param must come before map lines", line_no)
            has_param = True
        elif head == "map":
            if dim is None:
                raise ParseError("map before dim", line_no)
            body = line[3:].strip()
            if "=" not in body:
                raise ParseError("map line needs '='", line_no)
            name, expr_text = body.split("=", 1)
            name = name.strip()
            if not (name.startswith("g") and name[1:].isascii() and name[1:].isdigit()):
                raise ParseError(f"map component must be named g1..g{dim}", line_no)
            idx = _int(name[1:], "component index", line_no)
            if not 1 <= idx <= dim:
                raise DimensionMismatchError(
                    f"component {name} outside 1..{dim} (line {line_no})"
                )
            if idx in components:
                raise ParseError(f"duplicate definition of {name}", line_no)
            col_offset = raw.index("=") + 1
            components[idx] = _parse_expr(expr_text, dim, has_param, line_no, col_offset)
        elif head == "domain":
            domain_line = line
            domain_line_no = line_no
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if dim is None:
        raise ParseError("missing dim declaration", 1)
    if len(components) < dim:
        # The first k missing indices are at most len(components) + k, so
        # the scan and the message stay short however large dim is.
        k = 5
        named = [i for i in range(1, min(dim, len(components) + k) + 1)
                 if i not in components][:k]
        rest = dim - len(components) - len(named)
        # A count of over 20 digits is not echoed: it can be thousands long.
        more = f" and {rest} more" if rest < 10**20 else " and more"
        raise DimensionMismatchError(
            f"missing map components: {', '.join('g%d' % i for i in named)}"
            + (more if rest else "")
        )
    spec = MapSpec(dim, tuple(components[i] for i in range(1, dim + 1)), has_param)
    return ParsedProgram(spec, domain_line, domain_line_no)


def parse_map(source: str) -> MapSpec:
    return parse_program(source).map
