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
literals.  Every parsed map evaluates both over floats (eval_real) and over
boxes (eval_interval); the interval semantics is the naive interval
extension, which encloses the true image of the box.  Nodes evaluate to
endpoint pairs ``(lo, hi)`` of plain floats (eval_pair): leaves read the
endpoints of a box coordinate, of t or of a constant's enclosure, and
operations call the pair kernels of ``interval``.  Each operation checks
its result with ``-inf < lo <= hi < inf`` and raises exactly what
``Interval(lo, hi)`` would, and an ``Interval`` is built only for each
component (``MapSpec.eval_pairs`` returns the component pairs themselves).
``MapSpec.bind_interval(t)`` binds the parameter once: every
subtree free of x1..xn becomes a leaf holding its pair over t, so within a
trace cell (one localize call) those subtrees are evaluated once, not once
per box, with bit-identical enclosures.  ``children`` and ``with_children``
are the one generic way to walk and rebuild a tree.  ``derivative`` builds
a partial derivative as an ordinary expression tree, evaluated like any
other (at abs, min and max an enclosure of Clarke's generalized
gradient), and ``jacobian`` collects them.  Expressions nest at most
``MAX_DEPTH`` levels deep, so neither parsing, differentiation nor
evaluation can exhaust the stack.  Decimal
literals evaluate to their nearest float in real semantics and to the
tightest enclosing float interval in interval semantics, so constants like
0.1 never silently lose their true value.

Comment text after ``#`` and blank lines are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
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


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float
    enclosure: Interval

    def eval_real(self, xs, t):
        return self.value

    def eval_pair(self, xs, t):
        enc = self.enclosure
        return enc.lo, enc.hi

    def to_source(self, prec=0):
        if self.value < 0:
            s = repr(self.value)
            return f"({s})" if prec >= 3 else s
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based

    def eval_real(self, xs, t):
        return xs[self.index]

    def eval_pair(self, xs, t):
        c = xs[self.index]
        return c.lo, c.hi

    def to_source(self, prec=0):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class Param(Expr):
    def eval_real(self, xs, t):
        return t

    def eval_pair(self, xs, t):
        return t.lo, t.hi

    def to_source(self, prec=0):
        return "t"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval_real(self, xs, t):
        return -self.arg.eval_real(xs, t)

    def eval_pair(self, xs, t):
        lo, hi = self.arg.eval_pair(xs, t)
        return -hi, -lo

    def to_source(self, prec=0):
        # A nested minus needs no parentheses: "--x1" parses as -(-x1).
        inner = f"-{self.arg.to_source(2 if type(self.arg) is Neg else 3)}"
        return f"({inner})" if prec > 2 else inner


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def eval_real(self, xs, t):
        a = self.left.eval_real(xs, t)
        b = self.right.eval_real(xs, t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b

    def eval_pair(self, xs, t):
        a, b = self.left.eval_pair(xs, t)
        c, d = self.right.eval_pair(xs, t)
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


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int

    def eval_real(self, xs, t):
        b = self.base.eval_real(xs, t)
        if self.exponent < 0 and b == 0.0:
            raise DomainError("zero base with negative exponent")
        return b ** self.exponent

    def eval_pair(self, xs, t):
        lo, hi = pow_int_pair(*self.base.eval_pair(xs, t), self.exponent)
        if -_INF < lo <= hi < _INF:
            return lo, hi
        raise interval_error(lo, hi)

    def to_source(self, prec=0):
        s = f"{self.base.to_source(4)}^{self.exponent}"
        return f"({s})" if prec > 3 else s


_REAL_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
    "abs": abs,
    "min": min,
    "max": max,
}

_PAIR_FUNCS = {
    "sin": sin_pair,
    "cos": cos_pair,
    "exp": exp_pair,
    "tanh": tanh_pair,
    "sqrt": sqrt_pair,
    "abs": abs_pair,
    "min": min_pair,
    "max": max_pair,
}

FUNCTION_ARITY = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "tanh": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple

    def eval_real(self, xs, t):
        vals = [a.eval_real(xs, t) for a in self.args]
        f = self.func
        if f == "sqrt":
            if vals[0] < 0.0:
                raise DomainError(f"sqrt of negative value {vals[0]}")
            return math.sqrt(vals[0])
        return _REAL_FUNCS[f](*vals)

    def eval_pair(self, xs, t):
        kernel = _PAIR_FUNCS[self.func]
        args = self.args
        if len(args) == 1:
            lo, hi = kernel(*args[0].eval_pair(xs, t))
        else:
            lo, hi = kernel(*args[0].eval_pair(xs, t), *args[1].eval_pair(xs, t))
        if -_INF < lo <= hi < _INF:
            return lo, hi
        raise interval_error(lo, hi)

    def to_source(self, prec=0):
        return f"{self.func}(" + ", ".join(a.to_source(0) for a in self.args) + ")"


@dataclass(frozen=True)
class Folded(Expr):
    """A subtree free of x1..xn, replaced by its pair (MapSpec.bind_interval)."""

    pair: tuple

    def eval_real(self, xs, t):
        raise _folded_error()

    def eval_pair(self, xs, t):
        return self.pair

    def to_source(self, prec=0):
        raise _folded_error()


@dataclass(frozen=True)
class Select(Expr):
    """The derivative at a kink (abs, min, max; the parser has no select):
    neg where cond < 0, pos where cond > 0, and where cond may be 0 the
    hull of both (eval_pair) or pos (eval_real), elements of Clarke's
    generalized gradient.  A neg that is Neg(pos) is not evaluated again."""

    cond: Expr
    neg: Expr
    pos: Expr

    def eval_real(self, xs, t):
        branch = self.neg if self.cond.eval_real(xs, t) < 0.0 else self.pos
        return branch.eval_real(xs, t)

    def eval_pair(self, xs, t):
        lo, hi = self.cond.eval_pair(xs, t)
        if hi < 0.0:
            return self.neg.eval_pair(xs, t)
        if lo > 0.0:
            return self.pos.eval_pair(xs, t)
        c, d = self.pos.eval_pair(xs, t)
        neg = self.neg
        a, b = (-d, -c) if type(neg) is Neg and neg.arg is self.pos else neg.eval_pair(xs, t)
        return min(a, c), max(b, d)


def _folded_error() -> TypeError:
    return TypeError(
        "a map bound by bind_interval holds enclosures, not expressions; "
        "use the unbound map for real evaluation and source"
    )


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
        return (e.cond, e.neg, e.pos)
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
        return Select(*kids)
    return e


def _fold(e: Expr, t):
    """e with its maximal Var-free subtrees folded (_leaf), or None when e
    contains no Var: the caller then folds it as part of a larger subtree."""
    if type(e) is Var:
        return e
    kids = children(e)
    done = [_fold(k, t) for k in kids]
    if all(d is None for d in done):
        return None
    return with_children(e, [_leaf(k, t) if d is None else d for k, d in zip(kids, done)])


def _leaf(e: Expr, t) -> Expr:
    """A Var-free e as a Folded leaf holding its pair over t (the tree
    walk's own result).  When its evaluation raises, e stays a node with
    its subtrees folded, and raises again, in evaluation order, whenever
    the bound map is evaluated."""
    try:
        return Folded(e.eval_pair((), t))
    except (ArithmeticError, ValueError):
        kids = children(e)
        return with_children(e, [_leaf(k, t) for k in kids]) if kids else e


def literal_const(text: str) -> Const:
    """Build a constant whose enclosure brackets the exact decimal value."""
    v = float(text)
    exact = Fraction(text)
    fv = Fraction(v)
    if fv == exact:
        enc = Interval(v, v)
    elif fv < exact:
        enc = Interval(v, next_up(v))
    else:
        enc = Interval(next_down(v), v)
    return Const(v, enc)


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
    as the Krawczyk test's mean value theorem needs (Clarke 1983, 2.6.5).
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
            return Select(u, Neg(du), du)
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
    return None  # Const, Param and Folded are free of x


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
# Parsed maps
# ---------------------------------------------------------------------------


def _image(comp: Expr, xs, t) -> Interval:
    """One component's enclosure over the box coordinates xs and t."""
    if type(comp) is Var:  # a bare coordinate is its own image
        return xs[comp.index]
    return Interval(*comp.eval_pair(xs, t))


@dataclass(frozen=True)
class MapSpec:
    """A parsed map R^n -> R^n, optionally with a scalar parameter t."""

    dim: int
    components: tuple
    has_param: bool = False

    def _check_param(self, t):
        if self.has_param and t is None:
            raise ValueError("map takes a parameter t but none was supplied")
        if not self.has_param and t is not None:
            raise ValueError("map takes no parameter")

    def eval_real(self, point, t=None):
        self._check_param(t)
        if len(point) != self.dim:
            raise DimensionMismatchError(
                f"point of dimension {len(point)} for map of dimension {self.dim}"
            )
        xs = tuple(float(x) for x in point)
        out = []
        for comp in self.components:
            try:
                v = comp.eval_real(xs, t)
            except OverflowError as exc:
                raise EvaluationError("overflow during evaluation") from exc
            if not math.isfinite(v):
                raise EvaluationError(f"non-finite component value {v}")
            out.append(v)
        return tuple(out)

    def eval_interval(self, box: Box, t=None) -> Box:
        self._check_param(t)
        if box.dim != self.dim:
            raise DimensionMismatchError(
                f"box of dimension {box.dim} for map of dimension {self.dim}"
            )
        return Box(tuple([_image(c, box.coords, t) for c in self.components]))

    def eval_pairs(self, box: Box, t=None) -> list:
        """The component enclosures of eval_interval as (lo, hi) pairs,
        bit for bit and with the same errors, building no Interval."""
        self._check_param(t)
        if box.dim != self.dim:
            raise DimensionMismatchError(
                f"box of dimension {box.dim} for map of dimension {self.dim}"
            )
        xs = box.coords
        return [c.eval_pair(xs, t) for c in self.components]

    def bind_interval(self, t: Interval) -> "MapSpec":
        """This map with its parameter bound to the interval t.

        The result takes no parameter, and its eval_interval(box) equals
        eval_interval(box, t) bit for bit, errors included: subtrees free
        of x1..xn are evaluated here, once, instead of on every box.
        """
        self._check_param(t)
        folded = [_fold(c, t) for c in self.components]
        return MapSpec(self.dim, tuple(_leaf(c, t) if f is None else f
                                       for c, f in zip(self.components, folded)))

    def eval_component_interval(self, i: int, box: Box, t=None) -> Interval:
        if box.dim != self.dim:
            raise DimensionMismatchError(
                f"box of dimension {box.dim} for map of dimension {self.dim}"
            )
        return _image(self.components[i], box.coords, t)

    def to_source(self) -> str:
        lines = [f"dim {self.dim}"]
        if self.has_param:
            lines.append("param t")
        for i, comp in enumerate(self.components):
            lines.append(f"map g{i + 1} = {comp.to_source(0)}")
        return "\n".join(lines) + "\n"


def blend_with_parameter(f: MapSpec, g: MapSpec) -> MapSpec:
    """Straight-line blend (1-t)*f + t*g as a parametrized map."""
    if f.dim != g.dim:
        raise DimensionMismatchError("blended maps must share a dimension")
    if f.has_param or g.has_param:
        raise ValueError("blend operands must be parameter-free")
    one = float_const(1.0)
    comps = []
    for fc, gc in zip(f.components, g.components):
        lam = Param()
        comps.append(
            BinOp("+", BinOp("*", BinOp("-", one, lam), fc), BinOp("*", lam, gc))
        )
    return MapSpec(f.dim, tuple(comps), has_param=True)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Tok:
    kind: str  # num | ident | op
    text: str
    line: int
    col: int


def _tokenize_expr(text: str, line_no: int, col_offset: int):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col_offset + i + 1
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            if tok == ".":
                raise ParseError("stray '.'", line_no, col)
            toks.append(_Tok("num", tok, line_no, col))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line_no, col))
            i = j
        elif ch in "+-*/^(),":
            toks.append(_Tok("op", ch, line_no, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line_no, col)
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


class _ExprParser:
    def __init__(self, toks, dim, has_param, line_no):
        self.toks = toks
        self.pos = 0
        self.dim = dim
        self.has_param = has_param
        self.line_no = line_no
        self.open = 0  # parentheses, calls and unary minuses around the position

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line_no)
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.take()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)

    def enter(self, tok):
        """Open a parenthesis, call or unary minus (bounds the parser's recursion)."""
        self.open += 1
        if self.open > MAX_DEPTH:
            raise _too_deep(tok.line, tok.col)

    def parse(self) -> Expr:
        e = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
        # Every tree level has its own token, so only a long expression can
        # be too deep for evaluation.
        if len(self.toks) > MAX_DEPTH and _tree_depth(e) > MAX_DEPTH:
            raise _too_deep(self.line_no)
        return e

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while True:
            tok = self.peek()
            if tok and tok.kind == "op" and tok.text in "+-":
                self.take()
                e = BinOp(tok.text, e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while True:
            tok = self.peek()
            if tok and tok.kind == "op" and tok.text in "*/":
                self.take()
                e = BinOp(tok.text, e, self.parse_unary())
            else:
                return e

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "-":
            self.take()
            self.enter(tok)
            e = Neg(self.parse_unary())
            self.open -= 1
            return e
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self.take()
            sign = 1
            tok = self.take()
            if tok.kind == "op" and tok.text == "-":
                sign = -1
                tok = self.take()
            if tok.kind != "num" or "." in tok.text or "e" in tok.text or "E" in tok.text:
                raise ParseError("exponent must be an integer literal", tok.line, tok.col)
            return Power(base, sign * int(tok.text))
        return base

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            return literal_const(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            e = self.parse_sum()
            self.expect_op(")")
            self.open -= 1
            return e
        if tok.kind == "ident":
            name = tok.text
            nxt = self.peek()
            if name in FUNCTION_ARITY and nxt and nxt.kind == "op" and nxt.text == "(":
                self.take()
                self.enter(tok)
                args = [self.parse_sum()]
                while True:
                    sep = self.take()
                    if sep.kind == "op" and sep.text == ",":
                        args.append(self.parse_sum())
                    elif sep.kind == "op" and sep.text == ")":
                        break
                    else:
                        raise ParseError(
                            f"expected ',' or ')', found {sep.text!r}", sep.line, sep.col
                        )
                self.open -= 1
                if len(args) != FUNCTION_ARITY[name]:
                    raise ParseError(
                        f"{name} takes {FUNCTION_ARITY[name]} argument(s), got {len(args)}",
                        tok.line,
                        tok.col,
                    )
                return Call(name, tuple(args))
            if name == "t":
                if not self.has_param:
                    raise UnknownIdentifierError(
                        "t used without a 'param t' declaration", tok.line, tok.col
                    )
                return Param()
            if name.startswith("x") and name[1:].isdigit():
                idx = int(name[1:])
                if not 1 <= idx <= self.dim:
                    raise UnknownIdentifierError(
                        f"{name} out of range for dim {self.dim}", tok.line, tok.col
                    )
                return Var(idx - 1)
            raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


@dataclass(frozen=True)
class ParsedProgram:
    map: MapSpec
    domain_line: "str | None"
    domain_line_no: int


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
            if not rest.isdigit() or int(rest) < 1:
                raise ParseError("dim expects a positive integer", line_no)
            dim = int(rest)
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
            if not (name.startswith("g") and name[1:].isdigit()):
                raise ParseError(f"map component must be named g1..g{dim}", line_no)
            idx = int(name[1:])
            if not 1 <= idx <= dim:
                raise DimensionMismatchError(
                    f"component {name} outside 1..{dim} (line {line_no})"
                )
            if idx in components:
                raise ParseError(f"duplicate definition of {name}", line_no)
            col_offset = raw.index("=") + 1
            toks = _tokenize_expr(expr_text, line_no, col_offset)
            components[idx] = _ExprParser(toks, dim, has_param, line_no).parse()
        elif head == "domain":
            domain_line = line
            domain_line_no = line_no
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)

    if dim is None:
        raise ParseError("missing dim declaration", 1)
    missing = [i for i in range(1, dim + 1) if i not in components]
    if missing:
        raise DimensionMismatchError(
            f"missing map components: {', '.join('g%d' % i for i in missing)}"
        )
    spec = MapSpec(dim, tuple(components[i] for i in range(1, dim + 1)), has_param)
    return ParsedProgram(spec, domain_line, domain_line_no)


def parse_map(source: str) -> MapSpec:
    return parse_program(source).map
