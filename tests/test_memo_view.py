"""The memo view (mapdsl.MapSpec.memo_view) evaluates as the plain map.

It merges structurally equal subtrees, keeps the pair of a subtree of one
coordinate per exact value of that coordinate, and the pair of a repeated
subtree of several coordinates for the tuple it last evaluated, for one
search.  These tests compare it with the plain map and its Jacobian by repr
on boxes that share coordinates, check that its caches and slots live
exactly as long as a search, and that nothing differentiates it.
"""

from __future__ import annotations

import random

import pytest

from corpus import (
    memo_view_mismatches,
    random_expression_map,
    random_family,
    random_holed_ball_problem,
    shared_coordinate_boxes,
)

import fpcert.certify as certify_module
import fpcert.mapdsl as mapdsl_module
import fpcert.localize as localize_module
from fpcert.certify import certify_holes
from fpcert.geometry import RectDomain
from fpcert.interval import Box, DomainError, Interval
from fpcert.localize import localize_fixed_points
from fpcert.mapdsl import (
    BinOp,
    Expr,
    Folded,
    MapSpec,
    Memo,
    Param,
    Shared,
    Var,
    children,
    derivative,
    float_const,
    jacobian,
    parse_map,
)

_HAND_MAPS = [
    "dim 2\nmap g1 = 0.9*sin(3*x1) + 0.3*x2^2\nmap g2 = x1 - 0.5*cos(2*x2)*x1\n",
    "dim 2\nmap g1 = x1 + 1/x2\nmap g2 = sqrt(x2 + 0.5)*x1\n",
    "dim 2\nmap g1 = abs(x1 - 0.25) + x1*x2\nmap g2 = min(x1, x2^2) + max(sin(x2), 0.1*x2)\n",
    "dim 2\nmap g1 = abs(x1*x2 - 0.25)\nmap g2 = max(x1 - x2, 0.5*x2^3)\n",
    "dim 3\nmap g1 = exp(-x1^2)*x2 + tanh(x3)\n"
    "map g2 = min(x1*x3, x3 - 0.5)/(x2 + 2.5)\nmap g3 = x1*x2*x3 - cos(x1 + x2)\n",
    "dim 2\nmap g1 = " + "sin(" * 99 + "x1" + ")" * 99 + " + x2\nmap g2 = x2*x1\n",
]


def _maps(rng):
    maps = [parse_map(src) for src in _HAND_MAPS]
    maps += [random_expression_map(rng, 2 + k % 2, depth=4) for k in range(40)]
    maps += [random_holed_ball_problem(rng, 2 + k % 3)[0] for k in range(6)]
    return maps


def test_memo_view_gives_the_pairs_and_errors_of_the_plain_map():
    rng = random.Random(2020)
    root = Box.from_bounds([(-2.0, 1.5), (-1.0, 2.0), (-1.5, 1.0)])
    memos = raised = 0
    for m in _maps(rng):
        box = Box(root.coords[:m.dim])
        boxes = shared_coordinate_boxes(rng, box, 150)
        assert memo_view_mismatches(m, boxes) == [], m.to_source()
        with m.memo_view() as (view, view_jac):
            memos += len(m._memo.caches)
            for b in boxes:
                try:
                    view.eval_pairs(b)
                except DomainError:
                    raised += 1
            # Every memo read the same few pool values again and again.
            assert all(len(c) <= 8 for c in m._memo.caches)
    assert memos > 100 and raised > 50, (memos, raised)


def test_memo_view_with_t_gives_the_pairs_and_errors_of_the_unbound_map():
    # Random families mix t with x and with constants, in 1-D too, where
    # only t makes the coordinate tuple two entries long; g1 takes terms
    # that raise on some boxes, and on every box for t below -0.5.
    rng = random.Random(2222)
    memos = raised = 0
    for k in range(40):
        dim = 1 + k % 2
        lines = random_family(rng, dim, depth=4).to_source().splitlines()
        lines[2] += " + t/(x1 + 1.5) + sqrt(t + 0.5)"  # g1
        fam = parse_map("\n".join(lines) + "\n")
        box = Box.from_bounds([(-2.0, 1.5), (-1.0, 2.0)][:dim])
        for lo in (-1.0, 0.0, 0.5):
            t = Interval(lo, lo + 0.25)
            boxes = shared_coordinate_boxes(rng, box, 60)
            assert memo_view_mismatches(fam, boxes, t) == [], (fam.to_source(), t)
            with fam.memo_view() as (view, _jac):
                for b in boxes:
                    try:
                        view.eval_pairs(b, t)
                    except DomainError:
                        raised += 1
                memos += len(fam._memo.caches)
    assert memos > 100 and raised > 1000, (memos, raised)


def test_memo_view_keeps_the_sign_of_a_zero_endpoint():
    # 2*x1 on [-0.0, 1] and on [0.0, 1] differ in the sign of their zero,
    # and so does g1; the memo must not hand one box the other's pair.
    m = parse_map("dim 2\nmap g1 = 2*x1*x2\nmap g2 = x2\n")
    boxes = [Box((Interval(lo, 1.0), Interval(1.0, 2.0))) for lo in (-0.0, 0.0, -0.0)]
    plain = [repr(m.eval_pairs(b)) for b in boxes]
    assert plain[0] != plain[1]
    with m.memo_view() as (view, _jac):
        assert [repr(view.eval_pairs(b)) for b in boxes] == plain
        assert isinstance(view.components[0].left, Memo)
    assert memo_view_mismatches(m, boxes) == []


def test_memo_view_raises_again_where_a_subtree_raises():
    m = parse_map("dim 2\nmap g1 = x1 + 1/x2\nmap g2 = x2\n")
    box = Box.from_bounds([(0.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(DomainError) as plain:
        m.eval_pairs(box)
    with m.memo_view() as (view, _jac):
        for _ in range(2):
            with pytest.raises(DomainError) as memo:
                view.eval_pairs(box)
            assert str(memo.value) == str(plain.value)
        assert not any(m._memo.caches)


def test_a_full_cache_is_emptied_and_the_view_still_agrees(monkeypatch):
    monkeypatch.setattr(mapdsl_module, "_MEMO_ENTRIES", 3)
    rng = random.Random(7)
    m = parse_map(_HAND_MAPS[0])
    boxes = shared_coordinate_boxes(rng, Box.from_bounds([(-2.0, 1.5), (-1.0, 2.0)]), 200)
    assert memo_view_mismatches(m, boxes) == []
    with m.memo_view() as (view, _jac):
        cleared = 0
        for b in boxes:
            before = [len(c) for c in m._memo.caches]
            view.eval_pairs(b)
            after = [len(c) for c in m._memo.caches]
            assert max(after) <= 3
            cleared += sum(a < b for a, b in zip(after, before))
        assert cleared > 10


def test_only_subtrees_of_one_coordinate_are_memoized():
    m = parse_map("dim 3\nmap g1 = sin(x1*x2) + cos(x3)\nmap g2 = x2\nmap g3 = x3\n")
    with m.memo_view() as (view, _jac):
        two, one = view.components[0].left, view.components[0].right
        assert two is m.components[0].left  # sin(x1*x2) stays as it was
        assert isinstance(one, Memo) and one.axis == 2
    one_d = parse_map("dim 1\nmap g1 = sin(2*x1)\n")
    with one_d.memo_view() as (view, _jac):
        assert not one_d._memo.caches
    # t is the coordinate after x1..xn: a subtree of t alone is memoized
    # with axis dim, one of x_i and t together is not.
    fam = parse_map("dim 1\nparam t\nmap g1 = x1 - (0.5 + 0.25*t^2) + cos(x1*t)\n")
    with fam.memo_view() as (view, _jac):
        comp = view.components[0]
        offset, mixed = comp.left.right, comp.right
        assert isinstance(offset, Memo) and offset.axis == fam.dim == 1
        assert mixed is fam.components[0].right  # cos(x1*t) stays as it was


def test_map_and_jacobian_share_one_memo_per_subtree():
    m = parse_map("dim 2\nmap g1 = sin(3*x1)*x2^2\nmap g2 = x2\n")
    with m.memo_view() as (view, view_jac):
        sin_memo = view.components[0].left
        assert isinstance(sin_memo, Memo) and sin_memo.axis == 0
        # d/dx2 = sin(3*x1) * (2*x2): the factor is g1's own subtree.
        assert view_jac[0][1].left is sin_memo
    assert len(m._memo.caches) == len({id(c) for c in m._memo.caches})


def _rect(*bounds):
    return RectDomain(Box.from_bounds(bounds))


def test_searches_empty_the_caches_when_they_return_or_raise(monkeypatch):
    m = parse_map("dim 2\nmap g1 = 0.5*sin(3*x1) + 0.2*x2^2\n"
                  "map g2 = 0.4*cos(2*x2) - 0.1*x1\n")
    localize_fixed_points(m, _rect((-2.0, 2.0), (-2.0, 2.0)), tol=1e-7)
    assert m._memo.caches and not any(m._memo.caches)

    T, spec = random_holed_ball_problem(random.Random(3), 2)
    certify_holes(T, spec)
    assert T._memo.caches and not any(T._memo.caches)

    def raising(real, caches):
        calls = []

        def fn(*args, **kwargs):
            calls.append(1)
            if len(calls) == 5:
                assert any(caches), "the search filled no cache"
                raise RuntimeError("stop")
            return real(*args, **kwargs)
        return fn

    monkeypatch.setattr(localize_module, "_hansen_sengupta",
                        raising(localize_module._hansen_sengupta, m._memo.caches))
    with pytest.raises(RuntimeError):
        localize_fixed_points(m, _rect((-2.0, 2.0), (-2.0, 2.0)), tol=1e-7)
    assert not any(m._memo.caches)

    monkeypatch.setattr(certify_module, "_mean_value_pairs",
                        raising(certify_module._mean_value_pairs, T._memo.caches))
    with pytest.raises(RuntimeError):
        certify_holes(T, spec)
    assert not any(T._memo.caches)


_FAMILY = "dim 2\nparam t\nmap g1 = 0.5*x1 + 0.1*t*sin(x2)\nmap g2 = 0.3*x2 + (t + 1)^2\n"


def test_the_cells_of_one_family_share_its_view_and_leave_it_empty(monkeypatch):
    g = parse_map(_FAMILY)
    r = _rect((-1.0, 1.0), (-1.0, 5.0))
    views = []
    for t in (Interval(0.0, 0.25), Interval(0.25, 0.5)):
        assert localize_fixed_points(g, r, tol=1e-6, t=t).proven
        views.append(g._memo)
        assert views[-1].caches and not any(views[-1].caches)
    assert views[0] is views[1]
    offset = views[0].map.components[1].right  # (t + 1)^2
    assert type(offset) is Memo and offset.axis == g.dim

    def raising(*_args):
        assert any(g._memo.caches), "the cell filled no cache"
        raise RuntimeError("stop")

    # The root's operator test is the cell's first evaluation: raise in the
    # contraction of its proof, which comes after it.
    monkeypatch.setattr(localize_module, "_contract", raising)
    with pytest.raises(RuntimeError):
        localize_fixed_points(g, r, tol=1e-6, t=Interval(0.5, 0.75))
    assert g._memo is views[0] and not any(g._memo.caches)


def test_a_trace_cell_binds_no_map_and_builds_no_jacobian(monkeypatch):
    g = parse_map(_FAMILY)
    r = _rect((-1.0, 1.0), (-1.0, 5.0))
    want = localize_fixed_points(g, r, tol=1e-6, t=Interval(0.0, 0.25)).to_json()

    def refuse(*_args):
        raise AssertionError("a trace cell bound the map or built a Jacobian")

    monkeypatch.setattr(mapdsl_module.MapSpec, "at", refuse)
    monkeypatch.setattr(mapdsl_module, "jacobian", refuse)
    monkeypatch.setattr(localize_module, "jacobian", refuse, raising=False)
    assert localize_fixed_points(g, r, tol=1e-6, t=Interval(0.0, 0.25)).to_json() == want
    h = parse_map(_FAMILY)  # a fresh map builds its view, and its Jacobian, once
    with pytest.raises(AssertionError, match="Jacobian"):
        localize_fixed_points(h, r, tol=1e-6, t=Interval(0.0, 0.25))


def test_derivative_refuses_a_memo_view_and_foreign_nodes():
    class Foreign(Expr):
        pass

    m = parse_map("dim 2\nmap g1 = sin(x1)\nmap g2 = x1*x2\n")
    with m.memo_view() as (view, _jac):
        assert isinstance(view.components[0], Memo)
        with pytest.raises(TypeError):
            derivative(view.components[0], 0)
        with pytest.raises(TypeError):
            jacobian(view)
    with pytest.raises(TypeError):
        derivative(Foreign(), 0)


# Maps that repeat a subtree of two coordinates or more: within one
# component, across components, inside a subtree that raises (1/(x1 - x2)
# where x1 - x2 may vanish, sqrt of a negative), and in a family with t.
_REPEATING = [
    "dim 2\nmap g1 = (x1*x2 - 0.5)*(x1*x2 - 0.5) + sin(x1*x2 - 0.5)\nmap g2 = x2\n",
    "dim 2\nmap g1 = (x1 + x2)^2 + x1\nmap g2 = x2 - (x1 + x2)^2*x1\n",
    "dim 2\nmap g1 = 1/(x1 - x2) + x1*(x1 - x2)\nmap g2 = x2/(x1 - x2) + sqrt(x1*x2 + 0.5)\n",
    "dim 3\nmap g1 = exp(x1*x2 - x3)*x1\nmap g2 = exp(x1*x2 - x3) + x3^2\n"
    "map g3 = 1/(exp(x1*x2 - x3) - 1) - sqrt(x1 + x2 + x3)\n",
    "dim 2\nparam t\nmap g1 = x1 + (x1 - (0.5 + t^2))*(0.25*(x1 - (0.5 + t^2)) - 0.75)\n"
    "map g2 = x2 + (x2 - t)*(0.25*(x1 - (0.5 + t^2)) - 0.75)\n",
]


@pytest.mark.parametrize("source", _REPEATING)
def test_shared_nodes_give_the_pairs_and_errors_of_the_plain_map(source):
    m = parse_map(source)
    with m.memo_view():
        assert m._memo.shared, "the map has no Shared node to test"
    rng = random.Random(source)
    box = Box.from_bounds([(-2.0, 1.5), (-1.0, 2.0), (-1.5, 1.0)][:m.dim])
    boxes = shared_coordinate_boxes(rng, box, 150)
    t = Interval(0.25, 0.5) if m.has_param else None
    assert memo_view_mismatches(m, boxes, t) == []
    raised = 0
    tail = () if t is None else (t,)
    with m.memo_view() as (view, view_jac):
        for b in boxes:
            xs = b.coords + tail
            for comp in view.components:  # each raising one as the plain map's
                try:
                    comp.eval_pair(xs)
                except DomainError:
                    raised += 1
            for shared in m._memo.shared:  # one that raised kept nothing
                try:
                    shared.node.eval_pair(xs)
                except DomainError:
                    assert shared.xs is not xs
    assert ("/" not in source) or raised > 10, raised


def test_shared_nodes_tell_a_zero_from_a_negative_zero():
    # Two tuples equal but for the sign of a zero endpoint are two tuples:
    # evaluated back to back, each gets the plain map's pairs.
    m = parse_map("dim 2\nmap g1 = 2*x1*x2 + (2*x1*x2)^3\nmap g2 = x2 - 2*x1*x2\n")
    boxes = [Box((Interval(lo, 1.0), Interval(1.0, 2.0))) for lo in (-0.0, 0.0, -0.0)]
    plain = [repr(m.eval_pairs(b)) for b in boxes]
    assert plain[0] != plain[1]
    with m.memo_view() as (view, _jac):
        assert type(view.components[0].left) is Shared
        assert [repr(view.eval_pairs(b)) for b in boxes] == plain
    assert memo_view_mismatches(m, boxes) == []


def test_a_subtree_written_twice_is_one_view_node():
    m = parse_map("dim 2\nmap g1 = sin(x1*x2) + sin(x1*x2)\nmap g2 = cos(x2)*x1 + cos(x2)\n")
    with m.memo_view() as (view, view_jac):
        g1, g2 = view.components
        assert type(g1.left) is Shared and g1.left is g1.right
        assert type(g2.right) is Memo and g2.left.left is g2.right
        assert g1.left in m._memo.shared
        # d/dx1 = cos(x1*x2)*x2 + cos(x1*x2)*x2, its two terms built apart.
        d = view_jac[0][0]
        assert type(d.left) is Shared and d.left is d.right
    # Constants merge by their enclosure, a zero apart from a negative zero.
    def plus(c):
        return BinOp("+", BinOp("*", Var(0), Var(1)), float_const(c))

    z = MapSpec(2, (BinOp("*", plus(0.0), plus(0.0)), BinOp("*", plus(-0.0), Var(0))))
    with z.memo_view() as (view, _jac):
        g1, g2 = view.components
        assert g1.left is g1.right and g2.left is not g1.left


def test_searches_leave_every_slot_empty(monkeypatch):
    fam = parse_map(_REPEATING[-1])
    r = _rect((-1.0, 2.0), (-1.0, 2.0))
    assert localize_fixed_points(fam, r, tol=1e-6, t=Interval(0.0, 0.0625)).proven
    slots = fam._memo.shared
    assert slots and all(s.xs is None and s.pair is None for s in slots)

    def raising(*_args):
        assert any(s.xs is not None for s in slots), "the search filled no slot"
        raise RuntimeError("stop")

    monkeypatch.setattr(localize_module, "_contract", raising)
    with pytest.raises(RuntimeError):
        localize_fixed_points(fam, r, tol=1e-6, t=Interval(0.0, 0.0625))
    assert all(s.xs is None and s.pair is None for s in slots)


# Maps with subtrees that read no coordinate: negated literals, sums,
# powers and calls of literals, and Jacobian entries that are such
# subtrees ((0.1 + 0.2) is d/dx1 of the second map's g1).
_CONSTANT = [
    "dim 2\nmap g1 = x1*(-0.5) - -2*x2\nmap g2 = -(-0.25) + x2*x1\n",
    "dim 2\nmap g1 = (0.1 + 0.2)*x1 + 2^3*x2\nmap g2 = exp(0.5)*x1 - x2*(-3)\n",
    "dim 2\nmap g1 = sin(x1*x2)*(1 - 0.75)^2 + cos(0.5)*x2\n"
    "map g2 = x1/(2 + 0.5*0.5) - tanh(-1)*x2^2\n",
    "dim 1\nmap g1 = x1^3*(-0.125) + sqrt(0.5 - 0.25)*x1 - abs(-2)\n",
    "dim 1\nparam t\nmap g1 = 0.5*x1 + (-0.25)*t - max(0.5, -1)*t^2\n",
]


def _view_nodes(exprs):
    """Every node of the view trees exprs, through Memo and Shared nodes."""
    seen, stack = [], [e for e in exprs if e is not None]
    while stack:
        e = stack.pop()
        seen.append(e)
        stack.extend((e.node,) if type(e) in (Memo, Shared) else children(e))
    return seen


def _reads(e) -> bool:
    return any(type(n) in (Var, Param) for n in _view_nodes([e]))


def _constant_inner_nodes(m):
    """The non-leaf nodes of m's memo view and Jacobian that read no
    coordinate, and whether the view holds a Folded node."""
    with m.memo_view() as (view, view_jac):
        nodes = _view_nodes(list(view.components) + [d for row in view_jac for d in row])
    return [e for e in nodes if children(e) and not _reads(e)], Folded in map(type, nodes)


@pytest.mark.parametrize("source", _CONSTANT)
def test_constant_subtrees_fold_and_give_the_plain_map_pairs(source):
    m = parse_map(source)
    rng = random.Random(source)
    box = Box.from_bounds([(-2.0, 1.5), (-1.0, 2.0)][:m.dim])
    t = Interval(0.25, 0.5) if m.has_param else None
    assert memo_view_mismatches(m, shared_coordinate_boxes(rng, box, 100), t) == []
    assert _constant_inner_nodes(m) == ([], True)


@pytest.mark.parametrize("source", [
    "dim 2\nmap g1 = x1 + 1/(0.5 - 0.5)\nmap g2 = x2\n",
    "dim 2\nmap g1 = x2\nmap g2 = sqrt(0.25 - 0.5) + x1\n",
    "dim 2\nmap g1 = exp(1000)*x1\nmap g2 = x2 - 1\n",
])
def test_constant_subtrees_that_raise_raise_through_the_view(source):
    m = parse_map(source)
    box = Box.from_bounds([(0.0, 1.0), (-1.0, 2.0)])
    with pytest.raises(Exception) as plain:
        m.eval_pairs(box)
    with m.memo_view() as (view, _jac):
        for _ in range(2):  # each evaluation raises again
            with pytest.raises(type(plain.value)) as memo:
                view.eval_pairs(box)
            assert type(memo.value) is type(plain.value)
            assert str(memo.value) == str(plain.value)
    assert _constant_inner_nodes(m)[0], "the raising subtree was folded"
    rng = random.Random(source)
    assert memo_view_mismatches(m, shared_coordinate_boxes(rng, box, 40)) == []


def test_a_component_that_raises_first_still_raises_first():
    # g1 raises on x1 = 0 before g2's constant subtree, and within g2 the
    # left operand raises before the constant one.
    box = Box.from_bounds([(-1.0, 1.0), (0.5, 2.0)])
    for source in ("dim 2\nmap g1 = 1/x1 + x2\nmap g2 = x2 + 1/(0.5 - 0.5)\n",
                   "dim 2\nmap g1 = x2\nmap g2 = sqrt(x1) + sqrt(0.25 - 0.5)\n"):
        m = parse_map(source)
        with pytest.raises(DomainError) as plain:
            m.eval_pairs(box)
        with m.memo_view() as (view, _jac):
            with pytest.raises(DomainError) as memo:
                view.eval_pairs(box)
        assert type(memo.value) is type(plain.value)
        assert str(memo.value) == str(plain.value)
        assert "0.25" not in str(plain.value) and "[0.0, 0.0]" not in str(plain.value)
