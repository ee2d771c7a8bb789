import math
import random
import time
from fractions import Fraction

import pytest

from fpcert.interval import Box, DimensionMismatchError, DomainError, Interval
from corpus import (
    apply_op,
    blend_with_parameter,
    random_box,
    random_expression_map,
    random_family,
    random_planted_branch_family,
    random_polynomial_map_2d,
    permute_box,
    permute_coordinates,
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
    Expr,
    MapSpec,
    Neg,
    Param,
    ParseError,
    Power,
    Select,
    UnknownIdentifierError,
    Var,
    children,
    derivative,
    jacobian,
    literal_const,
    parse_map,
    parse_program,
    with_children,
    _parse_expr,
    _tokenize_expr,
)
import corpus
from oracles import decimal_enclosure, mp_eval, parse_reference, tokenize_reference


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
    if isinstance(e, Param):
        return t
    if isinstance(e, Var):
        return xs[e.index]
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


def _nodes(e):
    yield e
    for k in children(e):
        yield from _nodes(k)


def test_random_maps_reparse_to_an_equal_tree():
    rng = random.Random(31)
    for k in range(200):
        m = random_expression_map(rng, rng.choice((1, 2, 3)), depth=3 + k % 3)
        assert parse_map(m.to_source()) == m, m.to_source()
    families = [random_planted_branch_family(rng, 1 + k % 3)[0] for k in range(30)]
    families.append(blend_with_parameter(random_expression_map(rng, 2),
                                         random_expression_map(rng, 2)))
    for m in families:
        back = parse_map(m.to_source())
        assert back == m, m.to_source()
        # t reads the coordinate after x1..xn and comes back as Param.
        ts = [e for c in back.components for e in _nodes(c)
              if isinstance(e, Var) and e.index == m.dim]
        assert ts and all(type(e) is Param for e in ts), m.to_source()


def test_reversed_coordinates_evaluate_as_the_map_reversed():
    rng = random.Random(5)
    for _ in range(40):
        m = random_expression_map(rng, rng.choice((2, 3)))
        reversal = range(m.dim)[::-1]
        r = permute_coordinates(m, reversal)
        assert permute_coordinates(r, reversal) == m
        box = random_box(rng, m.dim)
        flipped = permute_box(box, reversal)
        assert flipped == Box(box.coords[::-1])
        for i in range(m.dim):
            assert (_outcome(r.eval_component_interval, m.dim - 1 - i, flipped)
                    == _outcome(m.eval_component_interval, i, box)), m.to_source()


def test_permuted_coordinates_evaluate_as_the_map_permuted():
    # Component i of the permuted map, on the permuted box, is component
    # perm[i] of the map on the box; the inverse permutation undoes it.
    rng = random.Random(7)
    for k in range(40):
        m = random_expression_map(rng, 3)
        perm = ((1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2))[k % 4]
        inverse = tuple(perm.index(i) for i in range(3))
        p = permute_coordinates(m, perm)
        assert permute_coordinates(p, inverse) == m
        box = random_box(rng, 3)
        moved = permute_box(box, perm)
        assert permute_box(moved, inverse) == box
        for i in range(3):
            assert (_outcome(p.components[i].eval_pair, moved.coords)
                    == _outcome(m.components[perm[i]].eval_pair, box.coords)), m.to_source()


# -- binding the parameter to a point --------------------------------------


def _bound_outcomes(m, box, t):
    """Outcomes (results or errors) of every evaluation of m.at(t), and of
    m with t = Interval(t)."""
    bound = m.at(t)
    assert not bound.has_param
    got = [_outcome(bound.eval_interval, box)]
    want = [_outcome(m.eval_interval, box, Interval(t))]
    for i in range(m.dim):
        got.append(_outcome(bound.eval_component_interval, i, box))
        want.append(_outcome(m.eval_component_interval, i, box, Interval(t)))
    return got, want


def test_bound_map_matches_unbound_evaluation():
    rng = random.Random(4048)
    for k in range(120):
        dim = rng.choice((1, 2, 3))
        m = _parametrized(random_expression_map(rng, dim, depth=3 + k % 3))
        for t in (rng.uniform(-2.0, 2.0), -0.0):
            for _ in range(3):
                box = random_box(rng, dim, rng.choice((0.5, 2.0, 40.0)))
                got, want = _bound_outcomes(m, box, t)
                assert got == want, (m.to_source(), box.bounds(), t)
    f = parse_map("dim 2\nmap g1 = x1*x2\nmap g2 = sin(x1)\n")
    g = parse_map("dim 2\nmap g1 = x2^2 - 1\nmap g2 = x1 + 0.5\n")
    blend = blend_with_parameter(f, g)
    for t in (0.25, 0.5):
        got, want = _bound_outcomes(blend, Box.from_bounds([(-1, 2), (0.5, 3)]), t)
        assert got == want


_RAISING_BINDS = [
    ("1/(t - 0.5) + sqrt(x1 - 2)", (0.0, 1.0)),
    ("1/(t - 0.5) + sqrt(x1 - 2)", (3.0, 4.0)),
    ("sqrt(x1 - 2) + 1/(t - 0.5)", (0.0, 1.0)),
    ("sqrt(x1 - 2) + 1/(t - 0.5)", (3.0, 4.0)),
    ("sqrt(t - 2)", (0.0, 1.0)),
    ("x1 + sqrt(t - 2)*x1", (0.0, 1.0)),
]


@pytest.mark.parametrize("expr, bounds", _RAISING_BINDS)
def test_bound_map_raises_the_first_error_of_the_unbound_map(expr, bounds):
    m = parse_map(f"dim 1\nparam t\nmap g1 = {expr}\n")
    box = Box.from_bounds([bounds])
    got, want = _bound_outcomes(m, box, 0.5)
    assert got == want
    assert want[0].split(":")[0] in ("IntervalDivisionError", "DomainError")
    for t in (0.25, 2.5):
        got, want = _bound_outcomes(m, box, t)
        assert got == want


def _subst_reference(e, const):
    """e with every Param replaced by const, rebuilt field by field from the
    node's slots (not through children and with_children)."""
    if type(e) is Param:
        return const
    fields = []
    for name in type(e).__slots__:
        v = getattr(e, name)
        if isinstance(v, Expr):
            v = _subst_reference(v, const)
        elif isinstance(v, tuple):
            v = tuple(_subst_reference(a, const) for a in v)
        fields.append(v)
    return type(e)(*fields)


def test_bound_map_is_the_tree_with_t_replaced_by_a_constant():
    rng = random.Random(1717)
    for k in range(120):
        m = random_family(rng, rng.choice((1, 2, 3)), depth=3 + k % 3)
        for t in (rng.uniform(-2.0, 2.0), 0.0, -0.0):
            want = [_subst_reference(c, Const(t, Interval(t))) for c in m.components]
            # repr tells -0.0 from 0.0, which == does not.
            assert repr(m.at(t)) == repr(MapSpec(m.dim, tuple(want))), (m.to_source(), t)


def test_binds_at_two_parameters_hold_their_own_pairs():
    m = parse_map("dim 1\nparam t\nmap g1 = x1*(1 + t) + t^2\n")
    box = Box.from_bounds([(-1.0, 2.0)])
    seen = []
    for t in (0.5, 1.5):
        bound = m.at(t)
        (comp,) = bound.components
        assert comp.left.right.right == comp.right.base == Const(t, Interval(t))
        assert bound.eval_pairs(box) == m.eval_pairs(box, Interval(t))
        seen.append(bound.eval_pairs(box))
    assert seen[0] != seen[1]


def test_bound_map_supports_real_evaluation_and_source():
    m = parse_map("dim 1\nparam t\nmap g1 = x1*t + t\n")
    for t in (0.5, -0.25):
        bound = m.at(t)
        assert bound.eval_real((0.75,)) == m.eval_real((0.75,), t)
        assert parse_map(bound.to_source()).eval_real((0.75,)) == bound.eval_real((0.75,))
    assert parse_map(m.at(0.5).to_source()) == m.at(0.5)
    assert m.at(-0.25).to_source() == "dim 1\nmap g1 = x1 * (-0.25) + -0.25\n"


_ENTRY_POINTS = {
    "eval_real": lambda m, box, t: m.eval_real(box.midpoint(), t),
    "eval_pairs": lambda m, box, t: m.eval_pairs(box, t),
    "eval_interval": lambda m, box, t: m.eval_interval(box, t),
    "eval_component_interval": lambda m, box, t: m.eval_component_interval(0, box, t),
}
_PARAM_MAP = parse_map("dim 1\nparam t\nmap g1 = x1 + t\n")
_PLAIN_MAP = parse_map("dim 1\nmap g1 = x1\n")
_BAD_CALLS = {
    "parametrized map without t": (_PARAM_MAP, Box.from_bounds([(0.0, 1.0)]), None),
    "plain map with t": (_PLAIN_MAP, Box.from_bounds([(0.0, 1.0)]), Interval(0.5)),
    "wrong dimension": (_PLAIN_MAP, Box.from_bounds([(0.0, 1.0), (0.0, 1.0)]), None),
}


@pytest.mark.parametrize("case", sorted(_BAD_CALLS))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_entry_point_checks_the_parameter_and_the_dimension(entry, case):
    m, box, t = _BAD_CALLS[case]
    with pytest.raises(ValueError) as want:
        m.eval_pairs(box, t)
    with pytest.raises(ValueError) as got:
        _ENTRY_POINTS[entry](m, box, t)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_bind_checks_the_parameter():
    with pytest.raises(ValueError, match="map takes no parameter"):
        parse_map("dim 1\nmap g1 = x1\n").at(0.0)
    m = parse_map("dim 1\nparam t\nmap g1 = x1*t\n")
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="non-finite"):
            m.at(t)


# -- symbolic derivatives ----------------------------------------------------


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
        return mp_eval(mpmath, comp, ys)

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
                        got = 0.0 if d is None else d.eval_real(point)
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
                        lo, hi = (0.0, 0.0) if d is None else d.eval_pair(box.coords)
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
            assert d.eval_pair(coords) == want, (source, bounds)
    assert jacobian(parse_map("dim 1\nmap g1 = abs(0.5) + min(1, 2)\n")) == ((None,),)


def test_select_is_internal_and_evaluates_off_the_kink():
    (d,), = jacobian(parse_map("dim 1\nmap g1 = min(x1, 0.5)\n"))
    assert isinstance(d, Select)
    assert d.eval_real((0.25,)) == 1.0 and d.eval_real((0.75,)) == 0.0
    assert children(with_children(d, children(d))) == children(d)
    with pytest.raises(UnknownIdentifierError):
        parse_map("dim 1\nmap g1 = select(x1, 0, 1)\n")


def test_nested_abs_derivative_evaluates_each_select_once(monkeypatch):
    # Over a box that holds every kink, each Select takes the hull of its
    # branches, and its neg of None mirrors pos: evaluating pos once serves
    # both, where evaluating each branch would take 2**depth Selects.
    depth = 40
    (d,), = jacobian(parse_map("dim 1\nmap g1 = " + "abs(" * depth + "x1" + ")" * depth + "\n"))
    calls = 0
    eval_pair = Select.eval_pair

    def counted(self, xs):
        # Past one call per level it stops descending, so a regression
        # fails here instead of running for hours.
        nonlocal calls
        calls += 1
        return eval_pair(self, xs) if calls <= depth else (0.0, 0.0)

    monkeypatch.setattr(Select, "eval_pair", counted)
    hull = d.eval_pair(Box.from_bounds([(-1.0, 1.0)]).coords)
    assert calls == depth
    assert hull == (-1.0, 1.0)


def _nested_abs_derivative(depth):
    source = "dim 1\nmap g1 = " + "abs(" * depth + "x1" + ")" * depth + "\n"
    return jacobian(parse_map(source))[0][0]


def test_nested_abs_derivative_prints_compares_and_hashes_in_linear_walks():
    # Each Select holds its pos once, its neg None mirroring it: were pos
    # also reached through neg, printing, comparing or hashing would take
    # 4**40 steps.  A repr that grows 4x per level fails on 10 and 11
    # levels, before 40 levels could hang.
    assert len(repr(_nested_abs_derivative(11))) < 2 * len(repr(_nested_abs_derivative(10)))
    d, fresh = _nested_abs_derivative(40), _nested_abs_derivative(40)
    assert d.neg is None and d.pos.neg is None
    t0 = time.perf_counter()
    text = repr(d)
    assert time.perf_counter() - t0 < 1.0 and len(text) < 1_000_000
    t0 = time.perf_counter()
    assert hash(d) == hash(fresh)
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    assert d == fresh
    assert time.perf_counter() - t0 < 1.0
    assert Select(d.cond, d.pos, d.pos) != d


def test_nested_abs_jacobian_walks_children_in_few_visits():
    # A plain walk over children, with no dedupe by identity: level k meets
    # its cond (k nodes) and its pos once, 861 visits over 40 levels.  A
    # rule that reached a child derivative twice would double the walk per
    # level; past the cap the walk stops descending, so that fails fast.
    cap = 3000
    visits = 0

    def walk(e):
        nonlocal visits
        visits += 1
        if visits <= cap:
            for k in children(e):
                walk(k)

    walk(_nested_abs_derivative(40))
    assert visits <= cap


def test_mp_eval_mirrors_a_select_without_neg():
    mpmath = pytest.importorskip("mpmath")
    # d/dx1 |(|x1| - 0.5)| = sign(|x1| - 0.5) * sign(x1); both Selects
    # take their mirrored branch where their cond is negative.
    (d,), = jacobian(parse_map("dim 1\nmap g1 = abs(abs(x1) - 0.5)\n"))
    assert d.neg is None and d.pos.neg is None
    for x, want in ((-0.75, -1), (-0.25, 1), (0.25, -1), (0.75, 1)):
        assert d.eval_real((x,)) == want
        assert mp_eval(mpmath, d, [mpmath.mpf(x)]) == want
    (m,), = jacobian(parse_map("dim 1\nmap g1 = min(x1, 0.5)\n"))
    assert mp_eval(mpmath, m, [mpmath.mpf(0.75)]) == 0


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
        got = 0.0 if d is None else d.eval_real((0.5,))
        assert got == pytest.approx(want, rel=1e-15), expr
    assert derivative(parse_map("dim 2\nmap g1 = x2\nmap g2 = 7\n").components[1], 0) is None


def test_jacobian_is_none_for_an_exponent_past_the_float_range():
    # The derivative's factor 10**400 is a decimal literal past the float range.
    assert jacobian(parse_map(f"dim 1\nmap g1 = 0.5*x1^{10**400}\n")) is None


def test_derivative_of_a_singular_expression_raises_where_it_is_singular():
    for expr in ("sqrt(x1)", "1/x1", "x1^-3", "x2/(x1 - 0.5)"):
        m = parse_map(f"dim 2\nmap g1 = {expr}\nmap g2 = x2\n")
        d = jacobian(m)[0][0]
        with pytest.raises(DomainError):
            d.eval_pair(Box.from_bounds([(0.0, 1.0), (1.0, 2.0)]).coords)


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
        lo, hi = d.eval_pair(box.coords)
        assert lo <= hi
    except DomainError:
        pass  # an enclosure may overflow or divide by zero; it must not recurse
    assert math.isfinite(d.eval_real((0.625,)))


# ---------------------------------------------------------------------------
# Parser parity with the recursive-descent reference
# ---------------------------------------------------------------------------


def _parsed(parse, text, dim, has_param):
    """(tree, repr) of what parse makes of text on line 3 after 9 columns,
    or (error type, message, line, column)."""
    try:
        tree = parse(text, dim, has_param)
    except ParseError as err:
        return type(err), str(err), err.line, err.col
    return tree, repr(tree)


def _parse_new(text, dim, has_param):
    return _parse_expr(text, dim, has_param, 3, 9)


def _parse_old(text, dim, has_param):
    return parse_reference(text, dim, has_param, 3, 9)


def test_parser_builds_the_reference_trees_on_the_corpus_maps(monkeypatch):
    sources = []

    def recording(source):
        sources.append(source)
        return parse_map(source)

    monkeypatch.setattr(corpus, "parse_map", recording)
    rng = random.Random(39)
    for _ in range(40):
        corpus.random_rect_problem(rng)
        corpus.random_cylinder_problem(rng)
        corpus.random_cone_problem(rng)
        corpus.random_holed_ball_problem(rng, rng.choice((2, 3)))
        corpus.random_expression_map(rng, rng.randint(1, 3), rng.randint(2, 5))
        corpus.random_family(rng, rng.randint(1, 2), 3)
        corpus.random_planted_branch_family(rng, rng.randint(1, 2))
        corpus.random_edge_problem(rng)
    expressions = 0
    for source in sources:
        program = parse_program(source)
        for line in source.splitlines():
            if line.startswith("map"):
                text = line.split("=", 1)[1]
                new = _parsed(_parse_new, text, program.map.dim, program.map.has_param)
                assert new == _parsed(_parse_old, text, program.map.dim,
                                       program.map.has_param), line
                expressions += 1
    assert len(sources) >= 320 and expressions > 500


def _nested(opening, closing, levels):
    return opening * levels + "x1" + closing * levels


_MALFORMED = [
    "", " ", "x1 +", "+", "*x1", "x1 x2", "x1)", ")", "(", "(x1", "((x1)", "(x1,", "x1,x2",
    "sin", "sin x1", "sin(", "sin(x1", "sin(x1 x2)", "sin(x1, x2)", "min(x1)", "min(x1,)",
    "abs()", "max(x1, x2, t)", "x1 ^", "x1 ^ -", "x1^2.5", "x1^1e2", "x1^.5", "x1^x2",
    "x1^2^3", "x1^--2", "x1^(2)", "-", "--", "- ^2", "-x1^-2", "x0", "x3", "x01", "x", "y",
    "t", "t^2 + x1", "2 3", "1e999", "x1 + 1e400*x2", "x" + "9" * 5000, "x1^" + "9" * 5000,
    "x1 $ 2", "x1 + .", "((x1) + (x2)", "min(x1, (x2)", "sin(x1))", "sin()x1",
    _nested("(", ")", MAX_DEPTH), _nested("(", ")", MAX_DEPTH + 1),
    _nested("-", "", MAX_DEPTH), _nested("-", "", MAX_DEPTH + 1),
    _nested("sin(", ")", MAX_DEPTH), _nested("sin(", ")", MAX_DEPTH + 1),
    _nested("-(", ")", MAX_DEPTH // 2), _nested("-(", ")", MAX_DEPTH // 2 + 1),
    _nested("min(1, ", ")", MAX_DEPTH), _nested("min(1, ", ")", MAX_DEPTH + 1),
    _nested("(", "", MAX_DEPTH + 1), _nested("-(", "", MAX_DEPTH),
    " * ".join(["x1"] * (MAX_DEPTH + 1)), " * ".join(["x1"] * (MAX_DEPTH + 2)),
    " - ".join(["x1"] * (MAX_DEPTH + 2)) + " * x2", "x1^2" + " * x2" * (MAX_DEPTH + 1),
    "(" * (MAX_DEPTH - 1) + "x1" + "^1)" * (MAX_DEPTH - 1) + "^3",
    "x1/(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
]


@pytest.mark.parametrize("has_param", [False, True])
def test_parser_raises_the_reference_errors(has_param):
    outcomes = []
    for text in _MALFORMED:
        outcomes.append(_parsed(_parse_new, text, 2, has_param))
        assert outcomes[-1] == _parsed(_parse_old, text, 2, has_param), text[:80]
    # The table reaches both error types and, at the depth limits, trees.
    assert {o[0] for o in outcomes if len(o) == 4} == {ParseError, UnknownIdentifierError}
    assert sum(len(o) == 2 for o in outcomes) >= 8


# ---------------------------------------------------------------------------
# Lexer and decimal literals
# ---------------------------------------------------------------------------


def _lex(text):
    return _tokenize_expr(text, 1, 0)


def test_lexer_token_boundaries():
    assert _lex("1.2.3") == [("num", "1.2", 1), ("num", ".3", 4)]
    assert _lex("5. .5") == [("num", "5.", 1), ("num", ".5", 4)]
    # An exponent needs a digit: otherwise the e starts an identifier.
    assert _lex("1e") == [("num", "1", 1), ("ident", "e", 2)]
    assert _lex("1e+") == [("num", "1", 1), ("ident", "e", 2), ("op", "+", 3)]
    assert _lex("2.5E-3x1") == [("num", "2.5E-3", 1), ("ident", "x1", 7)]
    assert _lex("  min(x_1,t)^-2") == [
        ("ident", "min", 3), ("op", "(", 6), ("ident", "x_1", 7), ("op", ",", 10),
        ("ident", "t", 11), ("op", ")", 12), ("op", "^", 13), ("op", "-", 14),
        ("num", "2", 15)]
    for text, col in ((".", 1), ("x1 + .", 6), ("x1 . 2", 4), ("1..", 3)):
        with pytest.raises(ParseError, match="stray '.'") as err:
            _tokenize_expr(text, 1, 0)
        assert err.value.col == col, text


def test_lexer_matches_the_character_loop_reference():
    rng = random.Random(18)
    pieces = list("0123456789.eE+-*/^(),_xt ") + ["sin", "x1", "1e", ".5", "5.", "e-", "\t",
                                                   "\u00b2", "\u0661", "\u00e9", "\u3000", "$"]
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 12)))
        want, error = tokenize_reference(text)
        if error is None:
            assert _lex(text) == want, text
        else:
            with pytest.raises(ParseError) as err:
                _tokenize_expr(text, 1, 0)
            assert (str(err.value), err.value.col) == (f"{error[0]} (line 1, column {error[1]})",
                                                       error[1]), text


def test_lexer_whitespace_is_str_isspace():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        assert _lex(f"x1{ch}+{ch}2{ch}") == [("ident", "x1", 1), ("op", "+", 4), ("num", "2", 6)]
    # Every other character (all of them up to past U+3000, the last space)
    # is a token or an error, never skipped.
    for ch in map(chr, range(0x3100)):
        if not ch.isspace() and ch not in ".0123456789_" and not (ch.isascii() and ch.isalpha()):
            try:
                assert _lex(f" {ch} ") == [("op", ch, 2)], repr(ch)
            except ParseError as err:
                assert err.col == 2 and repr(ch) in str(err), repr(ch)


@pytest.mark.parametrize("expr, col, fragment", [
    ("x1\u00b2", 12, "unexpected character '\u00b2'"),  # superscript two
    (".e5", 10, "stray '.'"),
    ("\u0661.\u0665*x\u0661", 10, "unexpected character '\u0661'"),  # Arabic-Indic 1.5*x1
    ("x\u00e9", 11, "unexpected character '\u00e9'"),
], ids=["superscript-two", "dot-e5", "arabic-indic-digits", "accented-letter"])
def test_non_ascii_digits_and_letters_are_parse_errors_with_a_position(expr, col, fragment):
    with pytest.raises(ParseError) as err:
        parse_map(f"dim 1\nmap g1 = {expr}\n")
    assert (err.value.line, err.value.col) == (2, col)
    assert fragment in str(err.value)


@pytest.mark.parametrize("source", [
    "dim \u00b2\nmap g1 = x1\n",
    "dim \u0661\nmap g1 = x1\n",
    "dim 1\nmap g\u00b9 = x1\n",
])
def test_non_ascii_digits_in_directives_are_parse_errors(source):
    with pytest.raises(ParseError) as err:
        parse_map(source)
    assert err.value.line in (1, 2)


def _decimal(q):
    """(n, k) with q == n * 10**-k, for q with a power-of-two denominator."""
    k = q.denominator.bit_length() - 1
    return q.numerator * 5**k, k


def _literal_corpus(seed, n):
    """Decimal literals that stress nearest-float rounding: long mantissas,
    exact halfway points between neighbouring floats and their nudges,
    exponents near the ends of the float range, leading and trailing
    zeros, and the forms 5. and .5."""
    rng = random.Random(seed)
    out = ["5.", ".5", "0.1", "9007199254740993", "9007199254740993.000000000000000001",
           "9007199254740992.999999999999999999", "1e308", "1.7976931348623157e308",
           "1.7976931348623158e308", "1.7976931348623159e308", "2e308", "5e-324",
           "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "0e999",
           "000.000", "0001.5000e-0003", "00.0000001", "1E+05"]
    digits = "0123456789"
    for _ in range(n):
        kind = rng.randrange(5)
        if kind == 0:  # a long mantissa with a dot somewhere
            m = "".join(rng.choice(digits) for _ in range(rng.randint(17, 60)))
            k = rng.randint(0, len(m))
            out.append(f"{m[:k]}.{m[k:]}e{rng.randint(-30, 30)}")
        elif kind == 1:  # the exact midpoint of two neighbouring floats, and nudges
            x = rng.choice([rng.uniform(-1e6, 1e6), rng.uniform(0, 1e-300) * 1e-8,
                            math.ldexp(rng.random(), rng.randint(-1074, 1023))])
            n, k = _decimal((Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2)
            out += [f"{n}e-{k}", f"{n}1e-{k + 1}", f"{10 * n - 1}e-{k + 1}"]
        elif kind == 2:  # exponents near the top and bottom of the range
            m = f"{rng.randint(1, 9)}.{rng.randint(0, 10**15):015d}"
            out.append(f"{m}e{rng.choice([rng.randint(300, 310), rng.randint(-330, -300)])}")
        elif kind == 3:  # leading and trailing zeros
            m = f"{'0' * rng.randint(0, 5)}{rng.randint(0, 10**8)}.{rng.randint(0, 999):03d}"
            out.append(m + "0" * rng.randint(0, 5) + rng.choice(["", f"e{rng.randint(-9, 9)}"]))
        else:  # the forms 5. and .5
            out.append(rng.choice([f"{rng.randint(0, 99)}.", f".{rng.randint(0, 99999)}"])
                       + rng.choice(["", f"e-{rng.randint(0, 40)}"]))
    return out


def test_literal_enclosures_match_the_fraction_oracle():
    # Literals past the int-string limit, and floats with hundreds of
    # significant digits nudged by a digit far past their last one.
    long = ["0." + "3" * 5000, "1" * 5000 + "e-4990", "9007199254740993" + "0" * 3000 + "1e-3000"]
    for x in (0.1, 3 * 5e-324, 2.2250738585072014e-308 - 5e-324):
        n, k = _decimal(Fraction(x))
        for pad in (100, 2000):
            long += [f"{n}{'0' * pad}1e-{k + pad + 1}", f"{n * 10**pad - 1}e-{k + pad}"]
    for text in _literal_corpus(18, 1500) + long:
        lo, hi = decimal_enclosure(text) if math.isfinite(float(text)) else (0.0, math.inf)
        if hi - lo == math.inf:  # past the float range, or just above its top
            with pytest.raises(DomainError):
                literal_const(text)
            continue
        const = literal_const(text)
        assert repr(const.value) == repr(float(text)), text
        assert (repr(const.enclosure.lo), repr(const.enclosure.hi)) == (repr(lo), repr(hi)), text
        if lo == hi:
            continue
        # Through the parser too, as a positive literal.
        if not text.startswith("-") and len(text) < 100:
            assert parse_map(f"dim 1\nmap g1 = {text}\n").components[0] == const


@pytest.mark.parametrize("text, lo, hi", [
    ("1e-99999999", 0.0, 5e-324),
    ("-1e-99999999", -5e-324, -0.0),
    ("0e-99999999", 0.0, 0.0),
])
def test_literal_below_the_float_range_is_decided_at_once(text, lo, hi):
    start = time.perf_counter()
    enc = literal_const(text).enclosure
    assert time.perf_counter() - start < 1.0
    assert (repr(enc.lo), repr(enc.hi)) == (repr(lo), repr(hi))


def test_literal_past_the_float_range_is_a_parse_error():
    with pytest.raises(ParseError, match="past the float range"):
        parse_map("dim 1\nmap g1 = 1e99999999*x1\n")
    assert parse_map("dim 1\nmap g1 = 1e-99999999*x1\n").components[0].left.value == 0.0
