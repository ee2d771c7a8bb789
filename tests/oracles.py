"""Independent oracles: dense grids, bisection, angle accumulation.

These deliberately avoid the package's interval machinery so that every
expected value asserted in the tests comes from a second, unrelated path.
The expression parser's reference (parse_reference) is mapdsl's former
recursive-descent parser; it builds mapdsl's nodes from mapdsl's tokens.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from fractions import Fraction

from fpcert.mapdsl import (
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    DomainError,
    Neg,
    Param,
    ParseError,
    Power,
    UnknownIdentifierError,
    Var,
    _int,
    _tokenize_expr,
    _too_deep,
    _tree_depth,
    literal_const,
)


def bisect_root(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Sign-change bisection; fn(lo) and fn(hi) must have opposite signs."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def decimal_enclosure(text: str):
    """The tightest float interval (lo, hi) around the exact value of the
    decimal literal text, decided in Fraction arithmetic: (v, v) for its
    nearest float v when v is exact, else v and its neighbour on the side
    of the exact value.  The reference for mapdsl.literal_const; literals
    longer than Python's int-string limit are read in full."""
    v = float(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        exact = Fraction(text)
    finally:
        sys.set_int_max_str_digits(limit)
    if Fraction(v) == exact:
        return v, v
    if Fraction(v) < exact:
        return v, math.nextafter(v, math.inf)
    return math.nextafter(v, -math.inf), v


def tokenize_reference(text: str):
    """The expression lexer as a character loop: (tokens, error), tokens
    as (kind, text, column) up to the first bad character and error None
    or (message, column).  A number is ASCII digits with at most one dot
    and at least one digit, then an exponent only where a digit follows
    e, e+ or e-; an identifier is an ASCII letter or _ then ASCII letters,
    digits and _; whitespace is what str.isspace accepts."""
    def digit(c):
        return "0" <= c <= "9"

    def word(c):
        return c.isascii() and (c.isalnum() or c == "_")

    toks, i, n = [], 0, len(text)
    while i < n:
        ch, j = text[i], i + 1
        if ch.isspace():
            i = j
            continue
        if digit(ch) or (ch == "." and j < n and digit(text[j])):
            j = i
            while j < n and digit(text[j]):
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and digit(text[j]):
                    j += 1
            k = j + 1 + (j + 1 < n and text[j + 1] in "+-")
            if j < n and text[j] in "eE" and k < n and digit(text[k]):
                j = k
                while j < n and digit(text[j]):
                    j += 1
            toks.append(("num", text[i:j], i + 1))
        elif word(ch) and not digit(ch):
            while j < n and word(text[j]):
                j += 1
            toks.append(("ident", text[i:j], i + 1))
        elif ch in "+-*/^(),":
            toks.append(("op", ch, i + 1))
        else:
            return toks, ("stray '.'" if ch == "." else f"unexpected character {ch!r}", i + 1)
        i = j
    return toks, None


def parse_reference(text: str, dim: int, has_param: bool = False, line_no: int = 1,
                    col_offset: int = 0):
    """One expression of a map line, parsed by the recursive-descent parser
    that mapdsl used before its precedence-climbing parser: the reference
    for the trees and the errors (type, message, line and column) of
    mapdsl._parse_expr.  It reads mapdsl's tokens and builds mapdsl's
    nodes and literal constants; the parsing is its own."""
    toks = [_Tok(kind, tok, line_no, col)
            for kind, tok, col in _tokenize_expr(text, line_no, col_offset)]
    return _ExprParser(toks, dim, has_param, line_no).parse()


_Tok = collections.namedtuple("_Tok", "kind text line col")


class _ExprParser:
    """mapdsl's parser before the precedence-climbing one, unchanged but
    for the names it takes from mapdsl."""

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
            return Power(base, sign * _int(tok.text, "exponent", tok.line, tok.col))
        return base

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            try:
                return literal_const(tok.text)
            except DomainError as exc:
                raise ParseError(str(exc), tok.line, tok.col) from None
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            e = self.parse_sum()
            self.expect_op(")")
            self.open -= 1
            return e
        if tok.kind == "ident":
            name = tok.text
            nxt = self.peek()
            if name in FUNCTIONS and nxt and nxt.kind == "op" and nxt.text == "(":
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
                if len(args) != FUNCTIONS[name][0]:
                    raise ParseError(
                        f"{name} takes {FUNCTIONS[name][0]} argument(s), got {len(args)}",
                        tok.line,
                        tok.col,
                    )
                return Call(name, tuple(args))
            if name == "t":
                if not self.has_param:
                    raise UnknownIdentifierError(
                        "t used without a 'param t' declaration", tok.line, tok.col
                    )
                return Param(self.dim)
            if name.startswith("x") and name[1:].isdigit():
                idx = _int(name[1:], "variable index", tok.line, tok.col)
                if not 1 <= idx <= self.dim:
                    raise UnknownIdentifierError(
                        f"{name} out of range for dim {self.dim}", tok.line, tok.col
                    )
                return Var(idx - 1)
            raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def residual_inf(m, point, t=None) -> float:
    img = m.eval_real(point, t)
    return max(abs(g - x) for g, x in zip(img, point))


def grid_zoom_min(m, bounds, rounds: int = 60, grid: int = 7, keep=None, t=None,
                  target: float = 1e-8):
    """Dense-grid residual minimizer with iterative zoom, clamped to bounds.

    Each round evaluates a full grid over the current window and recentres
    on the round's best point.  A coordinate whose argmin sits on a window
    edge (away from the domain boundary) expands instead of shrinking, so
    the window cannot lose the minimizer.  Stops early at the target
    residual.  A point where m raises, by overflow or by a DomainError (a
    zero denominator, a negative root), is skipped.  Returns (point,
    residual); the point stays inside bounds.
    """
    lo0 = [float(b[0]) for b in bounds]
    hi0 = [float(b[1]) for b in bounds]
    dim = len(bounds)
    width = [hi0[i] - lo0[i] for i in range(dim)]
    centre = [0.5 * (lo0[i] + hi0[i]) for i in range(dim)]
    shrink = 3.0 / (grid - 1)
    best_p, best_r = None, math.inf
    for _ in range(rounds):
        lo = [max(lo0[i], centre[i] - 0.5 * width[i]) for i in range(dim)]
        hi = [min(hi0[i], centre[i] + 0.5 * width[i]) for i in range(dim)]
        axes = [
            [lo[i] + (hi[i] - lo[i]) * k / (grid - 1) for k in range(grid)]
            for i in range(dim)
        ]
        round_p, round_r, round_idx = None, math.inf, None
        for idx in itertools.product(range(grid), repeat=dim):
            p = tuple(axes[i][idx[i]] for i in range(dim))
            if keep is not None and not keep(p):
                continue
            try:
                r = residual_inf(m, p, t)
            except (ArithmeticError, ValueError):
                continue
            if r < round_r:
                round_r, round_p, round_idx = r, p, idx
        if round_p is None:
            width = [min(hi0[i] - lo0[i], 2.0 * width[i]) for i in range(dim)]
            continue
        if round_r < best_r:
            best_r, best_p = round_r, round_p
        if best_r <= target:
            break
        for i in range(dim):
            pinned_lo = round_idx[i] == 0 and lo[i] > lo0[i]
            pinned_hi = round_idx[i] == grid - 1 and hi[i] < hi0[i]
            if pinned_lo or pinned_hi:
                width[i] = min(hi0[i] - lo0[i], 2.0 * width[i])
            else:
                width[i] *= shrink
        centre = list(round_p)
    if best_p is None:
        return None, math.inf
    step = max(max(width), best_r, 1e-9)
    p, r = _compass_refine(m, best_p, best_r, lo0, hi0, step, keep, t, target)
    return _newton_polish(m, p, r, lo0, hi0, keep, t, target) if r > target else (p, r)


def _newton_polish(m, p, best_r, lo0, hi0, keep, t, target, steps=8):
    """Newton steps on x - m(x) from p, with a central-difference Jacobian,
    for the valleys too narrow for the compass search (the sup-norm residual
    of a nearly singular I - Dg, say): a step is taken only when it stays in
    the bounds (and keep) and lowers the residual."""
    dim = len(p)

    def field(q):
        return [x - g for x, g in zip(q, m.eval_real(q, t))]

    for _ in range(steps):
        if best_r <= target:
            break
        try:
            f0 = field(p)
            cols = []
            for j in range(dim):
                h = 1e-7 * max(1.0, abs(p[j]))
                up = field([v + h if i == j else v for i, v in enumerate(p)])
                down = field([v - h if i == j else v for i, v in enumerate(p)])
                cols.append([(a - b) / (2.0 * h) for a, b in zip(up, down)])
            d = _solve([[cols[j][i] for j in range(dim)] for i in range(dim)], [-v for v in f0])
            if d is None:
                break
            q = tuple(min(hi0[i], max(lo0[i], p[i] + d[i])) for i in range(dim))
            if keep is not None and not keep(q):
                break
            r = residual_inf(m, q, t)
        except (ArithmeticError, ValueError):
            break
        if not r < best_r:
            break
        p, best_r = q, r
    return tuple(p), best_r


def _solve(a, b):
    """The solution of the float system a x = b by Gaussian elimination with
    partial pivoting, or None when a pivot is zero."""
    n = len(b)
    rows = [list(r) + [v] for r, v in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        if rows[col][col] == 0.0:
            return None
        for r in range(col + 1, n):
            k = rows[r][col] / rows[col][col]
            rows[r] = [v - k * w for v, w in zip(rows[r], rows[col])]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return x


def _compass_refine(m, p, best_r, lo0, hi0, step, keep, t, target, max_iters=8000):
    """Pattern search over all +-1/0 direction combinations, step halving.

    Diagonal moves let the search descend valleys that are not axis
    aligned (whole fixed-point slices of cone maps, say), and an improving
    direction is ridden until it stops paying, Hooke-Jeeves style.
    """
    dim = len(p)
    dirs = [d for d in itertools.product((-1.0, 0.0, 1.0), repeat=dim)
            if any(v != 0.0 for v in d)]
    p = list(p)
    iters = 0

    def probe(base, d):
        q = tuple(
            min(hi0[i], max(lo0[i], base[i] + step * d[i])) for i in range(dim)
        )
        if keep is not None and not keep(q):
            return q, math.inf
        try:
            return q, residual_inf(m, q, t)
        except (ArithmeticError, ValueError):
            return q, math.inf

    while iters < max_iters and best_r > target and step > 1e-15:
        moved = False
        for d in dirs:
            iters += 1
            q, r = probe(p, d)
            while r < best_r and iters < max_iters:
                best_r, p, moved = r, list(q), True
                iters += 1
                q, r = probe(p, d)
            if moved:
                break
        if not moved:
            step *= 0.5
    return tuple(p), best_r


def _accumulate_winding(points, m) -> int:
    total = 0.0
    prev = None
    first = None
    for p in points:
        img = m.eval_real(p)
        ang = math.atan2(p[1] - img[1], p[0] - img[0])
        if prev is not None:
            d = ang - prev
            while d > math.pi:
                d -= 2.0 * math.pi
            while d < -math.pi:
                d += 2.0 * math.pi
            total += d
        else:
            first = ang
        prev = ang
    d = first - prev
    while d > math.pi:
        d -= 2.0 * math.pi
    while d < -math.pi:
        d += 2.0 * math.pi
    total += d
    return round(total / (2.0 * math.pi))


def winding_rect(m, bounds, n_per_edge: int = 4096) -> int:
    """Dense angle-accumulation winding of Id - m along a rectangle (CCW)."""
    (xlo, xhi), (ylo, yhi) = bounds
    pts = []
    for k in range(n_per_edge):
        s = k / n_per_edge
        pts.append((xlo + s * (xhi - xlo), ylo))
    for k in range(n_per_edge):
        s = k / n_per_edge
        pts.append((xhi, ylo + s * (yhi - ylo)))
    for k in range(n_per_edge):
        s = k / n_per_edge
        pts.append((xhi - s * (xhi - xlo), yhi))
    for k in range(n_per_edge):
        s = k / n_per_edge
        pts.append((xlo, yhi - s * (yhi - ylo)))
    return _accumulate_winding(pts, m)


def winding_circle(m, center, radius: float, n: int = 8192) -> int:
    """Dense angle-accumulation winding of Id - m along a circle (CCW)."""
    cx, cy = center
    pts = [
        (cx + radius * math.cos(2.0 * math.pi * k / n),
         cy + radius * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    ]
    return _accumulate_winding(pts, m)


def mp_eval(mpmath, e, xs):
    """The expression tree e of a parsed map at the point xs (mpmath
    numbers), in mpmath at its working precision, with the float value of
    every constant.  Only the tree is shared with the package: none of its
    arithmetic runs."""
    from fpcert.mapdsl import BinOp, Const, Neg, Power, Select, Var

    if isinstance(e, Const):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Neg):
        return -mp_eval(mpmath, e.arg, xs)
    if isinstance(e, BinOp):
        a = mp_eval(mpmath, e.left, xs)
        b = mp_eval(mpmath, e.right, xs)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op] if e.op != "/" else a / b
    if isinstance(e, Power):
        return mp_eval(mpmath, e.base, xs) ** e.exponent
    if isinstance(e, Select):
        if mp_eval(mpmath, e.cond, xs) >= 0:
            return mp_eval(mpmath, e.pos, xs)
        # A neg of None mirrors pos.
        return -mp_eval(mpmath, e.pos, xs) if e.neg is None else mp_eval(mpmath, e.neg, xs)
    args = [mp_eval(mpmath, a, xs) for a in e.args]
    if e.func in ("abs", "min", "max"):
        return {"abs": abs, "min": min, "max": max}[e.func](*args)
    assert e.func in ("sin", "cos", "exp", "tanh", "sqrt")
    return getattr(mpmath, e.func)(*args)


def fraction_eval(e, xs):
    """The naive interval extension of the tree e (+, -, *, /, integer
    powers and negation of coordinates and constants) over xs, pairs (lo,
    hi) of Fractions, in exact rational arithmetic: the value that the
    package's directed rounding must enclose.  Each constant is its decimal
    enclosure.  Raises ZeroDivisionError on a divisor holding 0."""
    from fpcert.mapdsl import Const

    if isinstance(e, Const):
        return Fraction(e.enclosure.lo), Fraction(e.enclosure.hi)
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Neg):
        lo, hi = fraction_eval(e.arg, xs)
        return -hi, -lo
    if isinstance(e, Power):
        lo, hi = fraction_eval(e.base, xs)
        n = e.exponent
        if n < 0:
            if lo <= 0 <= hi:
                raise ZeroDivisionError("negative power of an interval holding 0")
            lo, hi, n = 1 / hi, 1 / lo, -n
        ends = (lo ** n, hi ** n)
        if n % 2 == 0 and lo <= 0 <= hi:
            return Fraction(0), max(ends)
        return min(ends), max(ends)
    assert isinstance(e, BinOp), e
    a, b = fraction_eval(e.left, xs)
    c, d = fraction_eval(e.right, xs)
    if e.op == "+":
        return a + c, b + d
    if e.op == "-":
        return a - d, b - c
    if e.op == "/":
        if c <= 0 <= d:
            raise ZeroDivisionError("divisor holds 0")
        c, d = 1 / d, 1 / c
    ends = (a * c, a * d, b * c, b * d)
    return min(ends), max(ends)


def mp_iv_eval(mpmath, e, xs):
    """The naive interval extension of the expression tree e over the
    mpmath.iv intervals xs (x1..xn, then t), in mpmath.iv at its working
    precision: each constant is its decimal enclosure, a Select is the hull
    of its branches where its condition may be 0, and tanh, which mpmath.iv
    lacks, is monotone, so it takes its endpoints at 40 more bits, padded.
    Only the tree is shared with the package: none of its arithmetic runs.
    Raises ArithmeticError where the extension is undefined."""
    from fpcert.mapdsl import BinOp, Const, Neg, Power, Select, Var

    iv = mpmath.iv
    if isinstance(e, Const):
        return iv.mpf([e.enclosure.lo, e.enclosure.hi])
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Neg):
        return -mp_iv_eval(mpmath, e.arg, xs)
    if isinstance(e, BinOp):
        a = mp_iv_eval(mpmath, e.left, xs)
        b = mp_iv_eval(mpmath, e.right, xs)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b.a <= 0 <= b.b:
            raise ZeroDivisionError("divisor holds 0")
        return a / b
    if isinstance(e, Power):
        base = mp_iv_eval(mpmath, e.base, xs)
        if e.exponent < 0 and base.a <= 0 <= base.b:
            raise ZeroDivisionError("negative power of an interval holding 0")
        return base ** e.exponent
    if isinstance(e, Select):
        cond = mp_iv_eval(mpmath, e.cond, xs)
        pos = mp_iv_eval(mpmath, e.pos, xs)
        neg = -pos if e.neg is None else mp_iv_eval(mpmath, e.neg, xs)
        if cond.b < 0:
            return neg
        if cond.a > 0:
            return pos
        return iv.mpf([min(neg.a, pos.a), max(neg.b, pos.b)])
    args = [mp_iv_eval(mpmath, a, xs) for a in e.args]
    a = args[0]
    if e.func == "abs":
        return a if a.a >= 0 else -a if a.b <= 0 else iv.mpf([0, max(-a.a, a.b)])
    if e.func in ("min", "max"):
        pick = min if e.func == "min" else max
        return iv.mpf([pick(a.a, args[1].a), pick(a.b, args[1].b)])
    if e.func == "sqrt" and a.a < 0:
        raise ValueError("sqrt of an interval reaching below 0")
    if e.func == "tanh":
        with mpmath.workprec(iv.prec + 40):
            lo, hi = mpmath.tanh(mpmath.mpf(a.a)), mpmath.tanh(mpmath.mpf(a.b))
            pad = mpmath.mpf(2) ** -iv.prec
            return iv.mpf([lo - pad * (1 + abs(lo)), hi + pad * (1 + abs(hi))])
    assert e.func in ("sin", "cos", "exp", "sqrt")
    return getattr(iv, e.func)(a)


def uniqueness_regular(mpmath, m, box, t=None):
    """The uniqueness oracle for a box U on which the package claims exactly
    one fixed point of m (for every t in the interval t): whether every
    matrix of the naive enclosure of I - Dg(U) is nonsingular, with the
    trees of `mapdsl.jacobian` evaluated by mp_iv_eval at 113 bits.

    A fixed point in U and a regular enclosure give uniqueness, by the mean
    value theorem row by row.  Conversely the package's proof test makes
    its own naive enclosure of I - Dg(U) regular, and that enclosure holds
    this one up to rounding at 113 bits, so a singular matrix here refutes
    the claim.  Returns True when regular; False when singular, decided in
    1-D (0 in the entry) and 2-D (0 in the interval determinant, the exact
    range of a11 a22 - a12 a21 since each entry occurs once); None when
    undecided: an evaluation failed or was not finite, or in 3-D and up,
    the enclosure preconditioned with the inverse of its midpoint matrix is
    not strictly diagonally dominant."""
    from fpcert.mapdsl import jacobian

    iv = mpmath.iv
    prec, iv.prec = iv.prec, 113
    try:
        xs = [iv.mpf([c.lo, c.hi]) for c in box.coords]
        if t is not None:
            xs.append(iv.mpf([t.lo, t.hi]))
        try:
            rows = [[iv.mpf(1 if i == j else 0)
                     - (0 if d is None else mp_iv_eval(mpmath, d, xs))
                     for j, d in enumerate(row)] for i, row in enumerate(jacobian(m))]
        except (ArithmeticError, ValueError):
            return None
        if not all(mpmath.isfinite(v.a) and mpmath.isfinite(v.b) for row in rows for v in row):
            return None
        n = len(rows)
        if n == 1:
            a = rows[0][0]
            return not a.a <= 0 <= a.b
        if n == 2:
            d = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            return not d.a <= 0 <= d.b
        try:
            c = mpmath.inverse(mpmath.matrix([[mpmath.mpf(v.mid) for v in row] for row in rows]))
        except ZeroDivisionError:
            return None
        for i in range(n):
            b = [sum((iv.mpf(c[i, k]) * rows[k][j] for k in range(n)), iv.mpf(0))
                 for j in range(n)]
            mig = 0 if b[i].a <= 0 <= b[i].b else min(abs(b[i].a), abs(b[i].b))
            if not mig > sum(max(abs(v.a), abs(v.b)) for j, v in enumerate(b) if j != i):
                return None
        return True
    finally:
        iv.prec = prec


def kernel_side(mpmath, kernel, literals, bound: float) -> int:
    """The sign, -1, 0 or 1, of f - bound, where f is the kernel (sin, cos,
    exp, tanh or sqrt of one literal, * or / of two) at the exact decimal
    values of the literals: in rationals for * and /, by squares for sqrt,
    and in mpmath at 200 bits for the rest, on arguments that are exact
    when they are floats written out.  None of the package's arithmetic
    runs."""
    b = Fraction(bound)
    xs = [Fraction(a) for a in literals]
    if kernel in ("*", "/"):
        v = xs[0] * xs[1] if kernel == "*" else xs[0] / xs[1]
    elif kernel == "sqrt":
        if b < 0:
            return 1
        v, b = xs[0], b * b
    else:
        with mpmath.workprec(200):
            x = mpmath.mpf(xs[0].numerator) / xs[0].denominator
            v = getattr(mpmath, kernel)(x) - mpmath.mpf(bound)
        return (v > 0) - (v < 0)
    return (v > b) - (v < b)
