import math
import random

import pytest

from fpcert.interval import Box, DimensionMismatchError, DomainError, Interval
from corpus import (
    apply_op,
    random_box,
    random_expression_map,
    random_polynomial_map_2d,
    random_rect_problem,
    sample_in_box,
)
from fpcert.geometry import RectDomain
from fpcert.mapdsl import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    EvaluationError,
    Folded,
    Neg,
    Param,
    ParseError,
    Power,
    Select,
    UnknownIdentifierError,
    Var,
    blend_with_parameter,
    children,
    derivative,
    jacobian,
    parse_map,
    parse_program,
    with_children,
)


def test_parse_minimal():
    m = parse_map("dim 1\nmap g1 = 2*x1 - 0.5\n")
    assert m.dim == 1 and not m.has_param


def test_parse_rotation():
    m = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    assert m.eval_real((1.0, 0.0)) == (0.0, 1.0)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_map("dim 1\nmap g1 = x2\n")
    with pytest.raises(UnknownIdentifierError):
        parse_map("dim 1\nmap g1 = t\n")
    with pytest.raises(UnknownIdentifierError):
        parse_map("dim 1\nmap g1 = foo\n")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_map("dim 1\nmap g1 = 2*(x1\n")
    assert err.value.line == 2


def test_missing_component_is_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse_map("dim 2\nmap g1 = x1\n")


def test_param_declaration():
    m = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    assert m.has_param
    assert m.eval_real((1.0,), t=0.0) == (0.5,)
    with pytest.raises(ValueError):
        m.eval_real((1.0,))


def test_domain_line_is_passed_through():
    prog = parse_program("dim 1\nmap g1 = x1\ndomain rect [0,1]\n")
    assert prog.domain_line == "domain rect [0,1]"


def test_eval_real_examples():
    m = parse_map("dim 1\nmap g1 = 2*x1 - 0.5\n")
    assert m.eval_real((0.75,)) == (1.0,)
    with pytest.raises(DomainError):
        parse_map("dim 1\nmap g1 = sqrt(x1)\n").eval_real((-1.0,))


def test_eval_rejects_non_finite():
    m = parse_map("dim 1\nmap g1 = exp(1000*x1)\n")
    with pytest.raises((EvaluationError, DomainError)):
        m.eval_real((1.0,))


def test_eval_interval_naive_extension():
    m = parse_map("dim 1\nmap g1 = x1*(1 - x1)\n")
    img = m.eval_interval(Box.from_bounds([(0, 1)]))
    c = img.coords[0]
    assert c.lo <= 0.0 and c.hi >= 0.25  # true range [0, 1/4]
    assert c.hi <= 1.0 + 1e-12  # naive product of [0,1]*[0,1]

    lin = parse_map("dim 1\nmap g1 = 2*x1 - 0.5\n")
    c = lin.eval_interval(Box.from_bounds([(0, 1)])).coords[0]
    assert c.lo <= -0.5 <= 1.5 <= c.hi
    assert c.width <= 2.0 + 1e-12

    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    img = rot.eval_interval(Box.from_bounds([(0, 1), (0, 1)]))
    assert img.coords[0] == Interval(-1.0, 0.0)
    assert img.coords[1] == Interval(0.0, 1.0)


def _random_sources(rng, n):
    from corpus import random_expression_map

    out = []
    for _ in range(n):
        dim = rng.choice((1, 2, 3))
        out.append(random_expression_map(rng, dim))
    return out


def test_fundamental_enclosure_fuzz():
    rng = random.Random(7)
    from corpus import random_box, sample_in_box

    for m in _random_sources(rng, 150):
        box = random_box(rng, m.dim)
        try:
            img = m.eval_interval(box)
        except (DomainError, EvaluationError):
            continue
        for _ in range(20):
            p = sample_in_box(rng, box)
            try:
                v = m.eval_real(p)
            except (DomainError, EvaluationError):
                continue
            for vi, ci in zip(v, img.coords):
                assert ci.lo <= vi <= ci.hi, (m.to_source(), box.bounds(), p)


def test_print_reparse_roundtrip():
    rng = random.Random(11)
    from corpus import random_box, sample_in_box

    for m in _random_sources(rng, 40):
        m2 = parse_map(m.to_source())
        box = random_box(rng, m.dim)
        for _ in range(100):
            p = sample_in_box(rng, box)
            try:
                v1 = m.eval_real(p)
            except (DomainError, EvaluationError):
                continue
            assert v1 == m2.eval_real(p)


def test_subdivision_convergence():
    m = parse_map("dim 2\nmap g1 = sin(x1) + 0.5*x1*x2\nmap g2 = cos(x1 - x2)\n")
    centre = (0.3, 0.7)
    prev = None
    for k in range(21):
        w = 2.0 ** -k
        box = Box.from_bounds([(c - w / 2, c + w / 2) for c in centre])
        img = m.eval_interval(box)
        width = max(c.width for c in img.coords)
        if prev is not None:
            assert width <= prev * (1 + 1e-9) + 1e-15
        prev = width
    assert prev < 1e-5


def test_comments_and_blank_lines():
    m = parse_map("# a comment\ndim 1\n\nmap g1 = x1  # inline\n")
    assert m.eval_real((0.25,)) == (0.25,)


# -- pair evaluation against the Interval-valued tree walk ------------------


def _ref_eval(e, xs, t):
    """Reference: the map AST evaluated node by node with Interval methods,
    and abs, min, max and minus with the pair kernels (apply_op)."""
    if isinstance(e, Const):
        return e.enclosure
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Param):
        return t
    if isinstance(e, Neg):
        return apply_op("neg", _ref_eval(e.arg, xs, t))
    if isinstance(e, BinOp):
        a = _ref_eval(e.left, xs, t)
        b = _ref_eval(e.right, xs, t)
        return {"+": a.__add__, "-": a.__sub__, "*": a.__mul__, "/": a.__truediv__}[e.op](b)
    if isinstance(e, Power):
        return _ref_eval(e.base, xs, t).pow_int(e.exponent)
    vals = [_ref_eval(a, xs, t) for a in e.args]
    if e.func in ("abs", "min", "max"):
        return apply_op(e.func, *vals)
    return getattr(vals[0], e.func)()


def _ref_eval_interval(m, box, t=None):
    return Box(tuple(_ref_eval(c, box.coords, t) for c in m.components))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:  # DomainError, IntervalDivisionError included
        return f"{type(exc).__name__}: {exc}"


def _assert_same(m, box, t=None):
    expected = _outcome(_ref_eval_interval, m, box, t)
    assert _outcome(m.eval_interval, box, t) == expected, (m.to_source(), box.bounds(), t)
    for i in range(m.dim):
        ref = _outcome(_ref_eval, m.components[i], box.coords, t)
        got = _outcome(m.eval_component_interval, i, box, t)
        assert got == ref, (m.to_source(), i, box.bounds(), t)
    return expected


def _parametrized(m):
    """m with every x1 read as x1*t, as a map taking the parameter t."""
    lines = m.to_source().splitlines()
    body = [ln.replace("x1", "(x1*t)") for ln in lines[1:]]
    return parse_map("\n".join([lines[0], "param t"] + body) + "\n")


def test_pair_evaluation_matches_interval_reference_on_random_maps():
    from corpus import random_box

    rng = random.Random(2024)
    params = 0
    for k in range(240):
        dim = rng.choice((1, 2, 3))
        m = random_expression_map(rng, dim, depth=3 + k % 3)
        scale = rng.choice((0.5, 2.0, 40.0))
        for _ in range(4):
            _assert_same(m, random_box(rng, dim, scale))
        if k % 2 == 0:
            mp = _parametrized(m)
            lo = rng.uniform(-2.0, 2.0)
            for t in (Interval(lo, lo + rng.uniform(0.0, 1.0)), Interval(lo)):
                _assert_same(mp, random_box(rng, dim, scale), t)
                params += 1
    f = parse_map("dim 2\nmap g1 = x1*x2\nmap g2 = sin(x1)\n")
    g = parse_map("dim 2\nmap g1 = x2^2 - 1\nmap g2 = x1 + 0.5\n")
    blend = blend_with_parameter(f, g)
    _assert_same(blend, Box.from_bounds([(-1, 2), (0.5, 3)]), Interval(0.25, 0.75))
    assert params == 240


_HAND_MAPS = (
    "dim 1\nmap g1 = 1/x1\n",
    "dim 1\nmap g1 = (x1 + 3)/(x1 - 5)\n",
    "dim 1\nmap g1 = sqrt(x1) + sqrt(x1*x1 + 0.1)\n",
    "dim 1\nmap g1 = exp(x1) - exp(-x1^2)\n",
    "dim 1\nmap g1 = abs(x1) * abs(-x1 - 0.25)\n",
    "dim 1\nmap g1 = x1^-1 + x1^-2 + x1^-3\n",
    "dim 1\nmap g1 = x1^0 + x1^7 - x1^8\n",
    "dim 2\nmap g1 = min(x1, x2) / max(x1, 2)\nmap g2 = tanh(x1/x2)\n",
    "dim 2\nmap g1 = 1e300*x1 + x2\nmap g2 = 1e200*x1*x2\n",
    "dim 2\nmap g1 = 1e308 + x1 + x2\nmap g2 = x1\n",
    "dim 2\nmap g1 = 1/x1 + sqrt(x2)\nmap g2 = sqrt(x2) + 1/x1\n",
)


def test_pair_evaluation_matches_interval_reference_on_hand_maps():
    rng = random.Random(5)
    bounds = [(-1.0, 1.0), (0.0, 4.0), (2.0, 3.0), (-3.0, -0.5), (0.0, 0.0),
              (-0.0, 0.0), (1e-300, 1e-200), (700.0, 800.0), (1e200, 1e300),
              (1e308, 1.7e308), (4.0, 9.0), (-1e-320, 1e-320)]
    outcomes = set()
    for src in _HAND_MAPS:
        m = parse_map(src)
        for b in bounds:
            for b2 in (b, rng.choice(bounds)):
                box = Box.from_bounds([b, b2][: m.dim])
                outcomes.add(_assert_same(m, box).split(":")[0])
    assert {"IntervalDivisionError", "DomainError"} <= outcomes


@pytest.mark.parametrize("src, bounds, error", [
    ("dim 1\nmap g1 = 1/x1\n", [(-1, 1)],
     "IntervalDivisionError: division by interval [-1.0, 1.0] containing zero"),
    ("dim 1\nmap g1 = x1^-2\n", [(-1, 1)],
     "IntervalDivisionError: division by interval [0.0, 1.0] containing zero"),
    ("dim 1\nmap g1 = sqrt(x1)\n", [(-0.5, 1)],
     "DomainError: sqrt of interval [-0.5, 1.0] reaching below zero"),
    ("dim 1\nmap g1 = exp(x1)\n", [(1.0, 1000.0)], "DomainError: exp overflow"),
    ("dim 1\nmap g1 = x1 + x1\n", [(1e308, 1e308)],
     "DomainError: non-finite interval bound [1.7976931348623157e+308, inf]"),
    ("dim 1\nmap g1 = x1 * x1\n", [(1e200, 1e200)],
     "DomainError: non-finite interval bound [1.7976931348623157e+308, inf]"),
    ("dim 1\nmap g1 = x1^-2\n", [(1e200, 1e200)],
     "DomainError: non-finite interval bound [1.7976931348623155e+308, inf]"),
    ("dim 2\nmap g1 = sqrt(x2) + 1/x1\nmap g2 = x1\n", [(-1, 1), (-1, 1)],
     "DomainError: sqrt of interval [-1.0, 1.0] reaching below zero"),
])
def test_pair_evaluation_errors_match_interval_reference(src, bounds, error):
    m = parse_map(src)
    assert _assert_same(m, Box.from_bounds(bounds)) == error


# -- nesting depth --------------------------------------------------------


def test_depth_limit_accepts_the_limit_and_rejects_one_more():
    def neg_chain(n):
        return parse_map("dim 1\nmap g1 = " + "-" * n + "x1\n")

    m = neg_chain(MAX_DEPTH)
    assert m.eval_interval(Box.from_bounds([(1, 2)])).coords[0] == Interval(1, 2)
    assert m.eval_real((1.5,)) == (1.5,)
    with pytest.raises(ParseError, match="nested deeper than"):
        neg_chain(MAX_DEPTH + 1)
    flat = " + ".join(["x1"] * (MAX_DEPTH + 1))  # MAX_DEPTH operators
    parse_map(f"dim 1\nmap g1 = {flat}\n")
    with pytest.raises(ParseError, match="nested deeper than") as err:
        parse_map(f"dim 1\nmap g1 = {flat} + x1\n")
    assert err.value.line == 2
    for deep_side in ("-" * MAX_DEPTH + "x1 + x1", "x1 * " + "-" * MAX_DEPTH + "x1"):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_map(f"dim 1\nmap g1 = {deep_side}\n")
    parens = "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH
    parse_map(f"dim 1\nmap g1 = {parens}\n")
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_map(f"dim 1\nmap g1 = ({parens})\n")


def test_nested_minus_prints_without_parentheses_and_round_trips():
    chain = parse_map("dim 1\nmap g1 = " + "-" * MAX_DEPTH + "x1\n")
    assert chain.to_source() == "dim 1\nmap g1 = " + "-" * MAX_DEPTH + "x1\n"
    assert parse_map(chain.to_source()) == chain
    m = parse_map("dim 1\nmap g1 = -(-x1) * -(-(x1 + 1))\n")
    assert m.to_source() == "dim 1\nmap g1 = --x1 * (--(x1 + 1.0))\n"
    assert parse_map(m.to_source()) == m


def test_random_maps_reparse_to_an_equal_tree():
    rng = random.Random(31)
    for k in range(200):
        m = random_expression_map(rng, rng.choice((1, 2, 3)), depth=3 + k % 3)
        assert parse_map(m.to_source()) == m, m.to_source()


# -- binding the parameter ------------------------------------------------


def _bound_outcomes(m, box, t):
    """Bound and unbound outcomes (results or errors) of every evaluation."""
    bound = m.bind_interval(t)
    assert not bound.has_param
    got = [_outcome(bound.eval_interval, box)]
    want = [_outcome(m.eval_interval, box, t)]
    for i in range(m.dim):
        got.append(_outcome(bound.eval_component_interval, i, box))
        want.append(_outcome(m.eval_component_interval, i, box, t))
    return got, want


def test_bound_map_matches_unbound_evaluation():
    from corpus import random_box

    rng = random.Random(4048)
    for k in range(120):
        dim = rng.choice((1, 2, 3))
        m = _parametrized(random_expression_map(rng, dim, depth=3 + k % 3))
        lo = rng.uniform(-2.0, 2.0)
        for t in (Interval(lo, lo + rng.uniform(0.0, 1.0)), Interval(lo)):
            for _ in range(3):
                box = random_box(rng, dim, rng.choice((0.5, 2.0, 40.0)))
                got, want = _bound_outcomes(m, box, t)
                assert got == want, (m.to_source(), box.bounds(), t)
    f = parse_map("dim 2\nmap g1 = x1*x2\nmap g2 = sin(x1)\n")
    g = parse_map("dim 2\nmap g1 = x2^2 - 1\nmap g2 = x1 + 0.5\n")
    blend = blend_with_parameter(f, g)
    for t in (Interval(0.25, 0.75), Interval(0.5)):
        got, want = _bound_outcomes(blend, Box.from_bounds([(-1, 2), (0.5, 3)]), t)
        assert got == want


def test_bind_folds_every_subtree_free_of_x():
    m = parse_map("dim 1\nparam t\nmap g1 = x1*(0.1 + 2*t^2) + sin(t)*x1 - 3\n")
    t = Interval(0.0, 0.5)
    (comp,) = m.bind_interval(t).components
    (orig,) = m.components
    # ((x1 * F) + (F * x1)) - F: only the operations on x1 are left.
    leaves = (comp.left.left.right, comp.left.right.left, comp.right)
    assert all(isinstance(f, Folded) for f in leaves)
    assert comp.left.left.left == comp.left.right.right == Var(0)
    assert leaves[0].pair == orig.left.left.right.eval_pair((), t)
    assert leaves[1].pair == (t.sin().lo, t.sin().hi)
    assert leaves[2].pair == (3.0, 3.0)


@pytest.mark.parametrize("expr, bounds", [
    ("1/(t - 0.5) + sqrt(x1 - 2)", (0.0, 1.0)),
    ("1/(t - 0.5) + sqrt(x1 - 2)", (3.0, 4.0)),
    ("sqrt(x1 - 2) + 1/(t - 0.5)", (0.0, 1.0)),
    ("sqrt(x1 - 2) + 1/(t - 0.5)", (3.0, 4.0)),
    ("sqrt(t - 2)", (0.0, 1.0)),
    ("x1 + sqrt(t - 2)*x1", (0.0, 1.0)),
])
def test_bound_map_raises_the_first_error_of_the_unbound_map(expr, bounds):
    m = parse_map(f"dim 1\nparam t\nmap g1 = {expr}\n")
    got, want = _bound_outcomes(m, Box.from_bounds([bounds]), Interval(0.0, 1.0))
    assert got == want
    assert want[0].split(":")[0] in ("IntervalDivisionError", "DomainError")


def test_bind_keeps_a_raising_subtree_and_folds_inside_it():
    m = parse_map("dim 1\nparam t\nmap g1 = 1/(t - 0.5) + sqrt(x1 - 2)\n")
    (comp,) = m.bind_interval(Interval(0.0, 1.0)).components
    div = comp.left
    assert isinstance(div, BinOp) and div.op == "/"
    assert isinstance(div.left, Folded) and isinstance(div.right, Folded)
    assert div.right.pair == (-0.5, 0.5)


def test_bound_map_refuses_real_evaluation_and_source():
    m = parse_map("dim 1\nparam t\nmap g1 = x1 + t\n")
    bound = m.bind_interval(Interval(0.0, 1.0))
    with pytest.raises(TypeError, match="bind_interval"):
        bound.eval_real((0.5,))
    with pytest.raises(TypeError, match="bind_interval"):
        bound.to_source()


def test_bind_checks_the_parameter():
    with pytest.raises(ValueError, match="map takes no parameter"):
        parse_map("dim 1\nmap g1 = x1\n").bind_interval(Interval(0.0))
    with pytest.raises(ValueError, match="none was supplied"):
        parse_map("dim 1\nparam t\nmap g1 = x1*t\n").bind_interval(None)


# -- symbolic derivatives ----------------------------------------------------


def _mp_eval(mpmath, e, xs):
    """e at the mpmath point xs, with the float value of every constant."""
    if isinstance(e, Const):
        return mpmath.mpf(e.value)
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Neg):
        return -_mp_eval(mpmath, e.arg, xs)
    if isinstance(e, BinOp):
        a = _mp_eval(mpmath, e.left, xs)
        b = _mp_eval(mpmath, e.right, xs)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op] if e.op != "/" else a / b
    if isinstance(e, Power):
        return _mp_eval(mpmath, e.base, xs) ** e.exponent
    if isinstance(e, Select):
        branch = e.neg if _mp_eval(mpmath, e.cond, xs) < 0 else e.pos
        return _mp_eval(mpmath, branch, xs)
    args = [_mp_eval(mpmath, a, xs) for a in e.args]
    if e.func in ("abs", "min", "max"):
        return {"abs": abs, "min": min, "max": max}[e.func](*args)
    assert e.func in ("sin", "cos", "exp", "tanh", "sqrt")
    return getattr(mpmath, e.func)(*args)


def _differentiable_maps(rng, n):
    """(map, box) pairs from the corpus generators that have a Jacobian:
    every map, those with abs, min or max included."""
    out = []
    while len(out) < n:
        kind = len(out) % 3
        if kind == 0:
            m, rect = random_rect_problem(rng)
            box = rect.box
        elif kind == 1:
            box = random_box(rng, 2)
            m = random_polynomial_map_2d(rng, RectDomain(box))
        else:
            dim = rng.choice((1, 2))
            m = random_expression_map(rng, dim)
            box = random_box(rng, dim)
        if jacobian(m) is not None:
            out.append((m, box))
    return out


def _exact_partial(mpmath, comp, point, j):
    xs = [mpmath.mpf(v) for v in point]

    def along(v):
        ys = list(xs)
        ys[j] = v
        return _mp_eval(mpmath, comp, ys)

    return mpmath.diff(along, xs[j])


def test_partial_derivatives_match_mpmath_at_seeded_points():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(71)
    checked = 0
    maps = _differentiable_maps(rng, 90)
    assert sum(any(f in m.to_source() for f in ("abs", "min", "max")) for m, _b in maps) >= 5
    with mpmath.workdps(40):
        for m, box in maps:
            jac = jacobian(m)
            for _ in range(4):
                point = sample_in_box(rng, box)
                for i, comp in enumerate(m.components):
                    for j in range(m.dim):
                        d = jac[i][j]
                        exact = _exact_partial(mpmath, comp, point, j)
                        got = 0.0 if d is None else d.eval_real(point, None)
                        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact)), (
                            m.to_source(), i, j, point, got, exact)
                        checked += 1
    assert checked > 1000


def test_partial_derivative_pairs_enclose_sampled_derivatives():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(72)
    with mpmath.workdps(40):
        for m, box in _differentiable_maps(rng, 60):
            jac = jacobian(m)
            for i, comp in enumerate(m.components):
                for j in range(m.dim):
                    d = jac[i][j]
                    try:
                        lo, hi = (0.0, 0.0) if d is None else d.eval_pair(box.coords, None)
                    except DomainError:
                        continue  # no enclosure claimed
                    for _ in range(5):
                        point = sample_in_box(rng, box)
                        exact = _exact_partial(mpmath, comp, point, j)
                        assert lo <= exact <= hi, (m.to_source(), i, j, point, (lo, hi))


# expression -> (box, enclosure of its derivative) cases: decided boxes
# take one branch, and boxes where the kink may lie take the hull of both.
_KINK_DERIVATIVES = {
    "abs(x1)": (((-1.0, 2.0), (-1.0, 1.0)), ((0.5, 2.0), (1.0, 1.0)),
                ((-2.0, -0.5), (-1.0, -1.0))),
    "abs(x1^2 - 1)": (((-0.5, 0.5), (-1.0, 1.0)),),  # -2 x1 on the box
    "min(x1, 0.5)": (((0.6, 1.0), (0.0, 0.0)), ((0.0, 0.4), (1.0, 1.0)),
                     ((0.0, 1.0), (0.0, 1.0))),
    "max(x1, 0.5)": (((0.6, 1.0), (1.0, 1.0)), ((0.0, 0.4), (0.0, 0.0))),
    "max(x1, x1^2)": (((0.5, 2.0), (1.0, 4.0)),  # the hull of 1 and 2 x1
                      ((2.0, 3.0), (4.0, 6.0))),
    "max(3*x1, x1)": (((-1.0, 1.0), (1.0, 3.0)),),
    "x1 + 0*abs(0.5)": (((-1.0, 1.0), (1.0, 1.0)),),
}


@pytest.mark.parametrize("expr", sorted(_KINK_DERIVATIVES))
def test_kinks_differentiate_to_selects(expr):
    for source in (f"dim 1\nmap g1 = {expr}\n",
                   f"dim 2\nmap g1 = sin(x1)\nmap g2 = {expr.replace('x1', 'x2')}\n"):
        m = parse_map(source)
        d = jacobian(m)[-1][-1]
        for bounds, want in _KINK_DERIVATIVES[expr]:
            coords = Box.from_bounds([bounds] * m.dim).coords
            assert d.eval_pair(coords, None) == want, (source, bounds)
    assert jacobian(parse_map("dim 1\nmap g1 = abs(0.5) + min(1, 2)\n")) == ((None,),)


def test_select_is_internal_and_evaluates_off_the_kink():
    (d,), = jacobian(parse_map("dim 1\nmap g1 = min(x1, 0.5)\n"))
    assert isinstance(d, Select)
    assert d.eval_real((0.25,), None) == 1.0 and d.eval_real((0.75,), None) == 0.0
    assert children(with_children(d, children(d))) == children(d)
    with pytest.raises(UnknownIdentifierError):
        parse_map("dim 1\nmap g1 = select(x1, 0, 1)\n")


def test_derivative_rules_on_hand_maps():
    rules = {  # the derivative at x1 = 0.5
        "sin(2*x1)": 2 * math.cos(1.0),
        "cos(x1^3)": -math.sin(0.125) * 3 * 0.25,
        "exp(-x1)": -math.exp(-0.5),
        "tanh(x1)": 1 - math.tanh(0.5) ** 2,
        "sqrt(x1)": 0.5 / math.sqrt(0.5),
        "1/x1": -4.0,
        "x1^-2": -2 * 0.5 ** -3,
        "x1^0 + 3": 0.0,
    }
    for expr, want in rules.items():
        (d,), = jacobian(parse_map(f"dim 1\nmap g1 = {expr}\n"))
        got = 0.0 if d is None else d.eval_real((0.5,), None)
        assert got == pytest.approx(want, rel=1e-15), expr
    assert derivative(parse_map("dim 2\nmap g1 = x2\nmap g2 = 7\n").components[1], 0) is None


def test_derivative_of_a_singular_expression_raises_where_it_is_singular():
    for expr in ("sqrt(x1)", "1/x1", "x1^-3", "x2/(x1 - 0.5)"):
        m = parse_map(f"dim 2\nmap g1 = {expr}\nmap g2 = x2\n")
        d = jacobian(m)[0][0]
        with pytest.raises(DomainError):
            d.eval_pair(Box.from_bounds([(0.0, 1.0), (1.0, 2.0)]).coords, None)


_DEEP_CHAINS = {
    "minus": "-" * MAX_DEPTH + "x1",
    "sin": "sin(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
    "tanh": "tanh(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
    "product": " * ".join(["x1"] * (MAX_DEPTH + 1)),
    "quotient": "x1/(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1),
    "sqrt": "sqrt(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
    "power": "(" * (MAX_DEPTH - 1) + "x1" + "^1)" * (MAX_DEPTH - 1) + "^3",
    # kinks that the box straddles at every level: each is evaluated once
    "abs": "abs(" * (MAX_DEPTH - 1) + "x1 - 0.625" + ")" * (MAX_DEPTH - 1),
    "min": "min(" * MAX_DEPTH + "x1" + ", 0.625)" * MAX_DEPTH,
}


@pytest.mark.parametrize("name", sorted(_DEEP_CHAINS))
def test_map_at_max_depth_differentiates_and_evaluates(name):
    m = parse_map(f"dim 1\nmap g1 = {_DEEP_CHAINS[name]}\n")
    (d,), = jacobian(m)
    box = Box.from_bounds([(0.5, 0.75)])
    try:
        lo, hi = d.eval_pair(box.coords, None)
        assert lo <= hi
    except DomainError:
        pass  # an enclosure may overflow or divide by zero; it must not recurse
    assert math.isfinite(d.eval_real((0.625,), None))
