import json
import math
import random

import pytest

from fpcert.geometry import RectDomain
from fpcert.interval import Box, Interval
from fpcert.localize import (
    CANDIDATE,
    PROVEN,
    NoCrossingError,
    PathSamples,
    extract_crossing_subpath,
    localize_fixed_points,
    region_fixed_point_free,
)
from fpcert.mapdsl import BinOp, MapSpec, float_const, parse_map

from oracles import bisect_root, grid_zoom_min, last_traversal_exact


def rect(*bounds):
    return RectDomain(Box.from_bounds(bounds))


def test_cos_fixed_point_enclosure():
    root = bisect_root(lambda x: math.cos(x) - x, 0.0, 1.0)
    res = localize_fixed_points(parse_map("dim 1\nmap g1 = cos(x1)\n"),
                                rect((0, 1)), tol=1e-8)
    assert len(res.enclosures) == 1
    enc = res.enclosures[0]
    assert enc.status == PROVEN
    assert enc.box.width <= 1e-8
    assert enc.box.contains_point((root,))
    assert enc.residual.lo <= 1e-8


def test_linear_2d_proven_enclosure():
    m = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
    res = localize_fixed_points(m, rect((0, 1), (0, 1)), tol=1e-8)
    proven = res.proven
    assert proven and any(e.box.contains_point((0.5, 0.5)) for e in proven)
    for e in res.enclosures:
        assert max(abs(c.mid - 0.5) for c in e.box.coords) < 1e-6


def test_translation_prunes_everything():
    res = localize_fixed_points(parse_map("dim 1\nmap g1 = x1 + 1\n"),
                                rect((0, 1)), tol=1e-4)
    assert res.enclosures == []
    assert res.discarded_volume == pytest.approx(res.total_volume)


def test_parameter_checks_survive_binding():
    with pytest.raises(ValueError, match="map takes no parameter"):
        localize_fixed_points(parse_map("dim 1\nmap g1 = x1 + 1\n"), rect((0, 1)),
                              tol=0.1, t=Interval(0.0, 1.0))
    psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
    with pytest.raises(ValueError, match="needs the parameter interval"):
        localize_fixed_points(psi, rect((0, 1)), tol=0.1)
    res = localize_fixed_points(psi, rect((0, 1)), tol=1e-3, t=Interval(0.25, 0.5),
                                upgrade=False)
    assert res.enclosures
    assert all(e.box.coords[0].hi >= 0.25 - 1e-3 and e.box.coords[0].lo <= 0.5 + 1e-3
               for e in res.enclosures)


def test_budget_exhaustion_flagged():
    m = parse_map("dim 2\nmap g1 = x1\nmap g2 = x2\n")  # everything survives
    res = localize_fixed_points(m, rect((0, 1), (0, 1)), tol=1e-6, budget=40)
    assert res.exhausted
    assert res.enclosures  # partial results present


def test_pruning_never_discards_forced_fixed_point():
    from corpus import random_expression_map, sample_in_box

    rng = random.Random(2024)
    kept = 0
    trials = 0
    while kept < 1000 and trials < 4000:
        trials += 1
        dim = rng.choice((1, 2))
        base = random_expression_map(rng, dim)
        box = Box.from_bounds([(-1.5, 1.5)] * dim)
        p = sample_in_box(rng, box)
        try:
            offsets = base.eval_real(p)
        except ArithmeticError:
            continue
        # g(x) = base(x) - base(p) + p has p as an exact fixed point
        comps = tuple(
            BinOp("+", BinOp("-", c, float_const(off)), float_const(pi))
            for c, off, pi in zip(base.components, offsets, p)
        )
        g = MapSpec(dim, comps)
        assert g.eval_real(p) == tuple(p)
        res = localize_fixed_points(g, RectDomain(box), tol=0.05,
                                    budget=4000, upgrade=False)
        assert any(e.box.contains_point(p) for e in res.enclosures), (
            base.to_source(), p)
        kept += 1
    assert kept == 1000


def test_coverage_accounting():
    rng = random.Random(31)
    from corpus import random_rect_problem

    for _ in range(25):
        m, r = random_rect_problem(rng)
        res = localize_fixed_points(m, r, tol=0.02, budget=20000, upgrade=False)
        covered = res.discarded_volume + res.surviving_volume
        assert covered == pytest.approx(res.total_volume, rel=1e-9)


def test_enclosures_sorted_and_disjoint():
    m = parse_map("dim 1\nmap g1 = x1*x1\n")  # fixed points 0 and 1
    res = localize_fixed_points(m, rect((-0.5, 1.5)), tol=1e-6)
    keys = [e.box.key() for e in res.enclosures]
    assert keys == sorted(keys)
    for e1, e2 in zip(res.enclosures, res.enclosures[1:]):
        assert e1.box.coords[0].hi <= e2.box.coords[0].lo + 1e-15
    assert any(e.box.contains_point((0.0,)) for e in res.enclosures)
    assert any(e.box.contains_point((1.0,)) for e in res.enclosures)


# 0.5 / (x^2 - x + 1) on [0, 1]: the denominator is at least 0.75, but its
# naive enclosure over [0, 1] is [0, 2], so evaluation on the whole interval
# divides by an interval holding zero; on each half it evaluates.
_RATIONAL = "0.5/(x1^2 - x1 + 1)"


def test_box_whose_evaluation_raises_is_split():
    m = parse_map(f"dim 1\nmap g1 = {_RATIONAL}\n")
    res = localize_fixed_points(m, rect((0, 1)), tol=1e-9)
    root = bisect_root(lambda x: 0.5 / (x * x - x + 1.0) - x, 0.0, 1.0)
    assert not res.exhausted and res.proven
    assert all(e.residual is not None for e in res.enclosures)
    assert any(e.box.contains_point((root,)) for e in res.proven)
    assert res.discarded_volume + res.surviving_volume == pytest.approx(1.0, rel=1e-12)


def test_leaf_that_still_raises_stays_candidate_without_residual():
    m = parse_map("dim 1\nmap g1 = 1/(x1 - x1)\n")  # raises on every box
    res = localize_fixed_points(m, rect((0, 1)), tol=0.1)
    assert res.enclosures and not res.exhausted
    assert all(e.status == CANDIDATE and e.residual is None for e in res.enclosures)
    assert res.surviving_volume == pytest.approx(1.0)
    assert json.loads(res.to_json())["enclosures"][0]["residual"] is None
    cut = localize_fixed_points(m, rect((0, 1)), tol=0.1, budget=3)
    assert cut.exhausted and all(e.residual is None for e in cut.enclosures)


def test_region_pruning_splits_boxes_whose_evaluation_raises():
    far = parse_map(f"dim 2\nmap g1 = {_RATIONAL} + 3\nmap g2 = x2\n")
    box = Box.from_bounds([(0, 1), (0, 1)])
    assert region_fixed_point_free(far, box, inside=lambda b: False, max_depth=8)
    never = parse_map("dim 2\nmap g1 = 1/(x1 - x1)\nmap g2 = x2\n")
    assert not region_fixed_point_free(never, box, inside=lambda b: False, max_depth=4)


# g1 = x1 + 1 has the residual [1 - w, 1 + w] on a box of width w in x1, so
# it excludes zero on every box narrower than 1; g2 = 1/x2 raises on every
# box that touches x2 = 0.  One excluding component is the whole proof that
# a box holds no fixed point, so the raising one must not keep it alive.
_EXCLUDED_WHILE_RAISING = (
    "dim 2\nmap g1 = x1 + 1\nmap g2 = 1/x2\n",
    "dim 2\nmap g1 = 1/x2\nmap g2 = x2 + 1\n",  # the raising component first
)


@pytest.mark.parametrize("source", _EXCLUDED_WHILE_RAISING)
def test_box_excluded_by_one_component_is_pruned_although_another_raises(source):
    m = parse_map(source)
    box = Box.from_bounds([(-1, 1), (-1, 1)])
    res = localize_fixed_points(m, RectDomain(box), tol=1e-2)
    assert res.enclosures == [] and not res.exhausted
    assert res.discarded_volume == pytest.approx(res.total_volume, rel=1e-12)
    assert region_fixed_point_free(m, box, inside=lambda b: False, max_depth=8)


def test_box_with_a_raising_component_and_none_excluding_is_split():
    # g1 = x1 never excludes zero (its residual is [-w, w]); g2 raises on
    # every box.  Every box is split down to tol and kept without a bound.
    m = parse_map("dim 2\nmap g1 = x1\nmap g2 = 1/(x2 - x2)\n")
    res = localize_fixed_points(m, rect((0, 1), (0, 1)), tol=0.25)
    assert len(res.enclosures) > 1  # nothing pruned: every box split or kept
    assert res.boxes_examined == 2 * len(res.enclosures) - 1
    assert all(e.status == CANDIDATE and e.residual is None for e in res.enclosures)
    assert all(d["residual"] is None for d in res.to_json_dict()["enclosures"])
    assert res.surviving_volume == pytest.approx(1.0)
    box = Box.from_bounds([(0, 1), (0, 1)])
    assert not region_fixed_point_free(m, box, inside=lambda b: False, max_depth=4)


def test_residual_that_overflows_counts_as_raising():
    # g1 - x1 >= 2.7e308 on the whole rectangle: the residual pair is not
    # finite, which Interval(lo, hi) rejects, so the box is undecided and
    # split, as a raising component is, and its leaves carry no bound.
    m = parse_map("dim 1\nmap g1 = 1.7e308\n")
    res = localize_fixed_points(m, rect((-1.7e308, -1e308)), tol=2e307)
    assert res.enclosures and not res.exhausted
    assert all(e.status == CANDIDATE and e.residual is None for e in res.enclosures)
    assert res.discarded_volume == 0.0


def test_budget_tail_discards_boxes_a_component_excludes():
    # The unprocessed queue takes the residual test: a tail box where one
    # component excludes zero holds no fixed point and is discarded, and
    # the others are kept with the bound over all components.
    m = parse_map("dim 2\nmap g1 = x1 + 1\nmap g2 = x2\n")
    res = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-6, budget=1,
                                upgrade=False)
    assert res.exhausted and len(res.enclosures) == 1
    split = 27 / 53 * 2 - 1  # x1 in [split, 1]: g1 - x1 = 1 excludes zero
    kept = res.enclosures[0]
    assert kept.box.coords[0] == Interval(-1.0, split)
    # g1 - x1 = [1 - (split + 1), 1 + (split + 1)] is the wider residual
    assert kept.residual.lo == 0.0 and kept.residual.hi == pytest.approx(2.0 + split)
    assert res.discarded_volume == pytest.approx((1.0 - split) * 2.0, rel=1e-15)
    assert res.discarded_volume + res.surviving_volume == pytest.approx(4.0, rel=1e-15)


# ---------------------------------------------------------------------------
# The Krawczyk test
# ---------------------------------------------------------------------------

_TRIG = ("dim 2\nmap g1 = 0.9*sin(3*x1) + 0.3*x2^2\n"
         "map g2 = 0.8*cos(2*x2 - x1) + 0.1*x1*x2\n")
# p + 2 R(60 deg) (x - p) with p = (0.3, 0.2): Id - Dg has a weak diagonal,
# so Miranda in these coordinates refutes every box around p.
_ROTATION = ("dim 2\nmap g1 = 0.3 + 2*(0.5*(x1 - 0.3) - 0.8660254037844386*(x2 - 0.2))\n"
             "map g2 = 0.2 + 2*(0.8660254037844386*(x1 - 0.3) + 0.5*(x2 - 0.2))\n")


def _assert_proven_boxes_hold_fixed_points(m, res):
    for e in res.proven:
        _p, residual = grid_zoom_min(m, e.box.bounds(), target=1e-13)
        assert residual <= 1e-9, e.box.bounds()
    tiled = res.discarded_volume + res.surviving_volume
    assert tiled == pytest.approx(res.total_volume, rel=1e-9)


def test_trig_map_fixed_points_are_proven():
    m = parse_map(_TRIG)
    res = localize_fixed_points(m, rect((-2, 2), (-2, 2)), tol=1e-7)
    assert len(res.enclosures) == 3 and len(res.proven) == 3
    assert all(e.box.width <= 1e-7 for e in res.enclosures)
    _assert_proven_boxes_hold_fixed_points(m, res)
    bisected = localize_fixed_points(m, rect((-2, 2), (-2, 2)), tol=1e-7, upgrade=False)
    assert res.boxes_examined < bisected.boxes_examined / 4


def test_rotation_map_fixed_point_is_proven():
    m = parse_map(_ROTATION)
    res = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-7)
    assert len(res.enclosures) == 1 and len(res.proven) == 1
    assert res.proven[0].box.contains_point((0.3, 0.2))
    _assert_proven_boxes_hold_fixed_points(m, res)


def test_rational_map_fixed_point_is_proven():
    m = parse_map(f"dim 1\nmap g1 = {_RATIONAL}\n")
    res = localize_fixed_points(m, rect((0, 1)), tol=1e-7)
    assert len(res.enclosures) == 1 and len(res.proven) == 1
    root = bisect_root(lambda x: 0.5 / (x * x - x + 1.0) - x, 0.0, 1.0)
    assert res.proven[0].box.contains_point((root,))


def test_krawczyk_exclusion_keeps_the_volume_tiled():
    # x^2 + 0.3 has no real fixed point.  On [0.2, 0.4] the residual
    # [-0.06, 0.26] holds zero, but K = [0.475, 0.575] misses the box.
    m = parse_map("dim 1\nmap g1 = x1^2 + 0.3\n")
    res = localize_fixed_points(m, rect((0.2, 0.4)), tol=1e-7)
    assert res.enclosures == [] and res.boxes_examined == 1
    assert res.discarded_volume + res.surviving_volume == res.total_volume
    assert localize_fixed_points(m, rect((0.2, 0.4)), tol=1e-7,
                                 upgrade=False).boxes_examined > 1
    wide = localize_fixed_points(m, rect((-3, 3)), tol=1e-7)
    assert wide.enclosures == []
    assert wide.discarded_volume == pytest.approx(wide.total_volume, rel=1e-12)


def test_krawczyk_image_encloses_the_exact_operator(monkeypatch):
    # The operator encloses its exact value for any preconditioner Y, so
    # fix Y and compare with K computed in rational arithmetic: for
    # g = x^2 + c, F = x - x^2 - c and F'(X) = 1 - [2a, 2b] on X = [a, b].
    from fractions import Fraction as Q

    from fpcert import localize
    from fpcert.mapdsl import jacobian

    rng = random.Random(77)
    for _ in range(300):
        c = rng.choice((0.25, -0.5, 0.125))
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(1e-6, 1.0)
        y = rng.uniform(-3.0, 3.0)
        m = parse_map(f"dim 1\nmap g1 = x1^2 + {c}\n")
        monkeypatch.setattr(localize, "_inverse", lambda _a, y=y: [[y]])
        (X,) = Box.from_bounds([(a, b)]).coords
        [(k_lo, k_hi)], _rho = localize._krawczyk(m, jacobian(m), (X,))
        mid = Q(X.mid)
        centre = mid - Q(y) * (mid - mid * mid - Q(c))
        ends = [1 - Q(y) * (1 - 2 * Q(e)) for e in (a, b)]
        spread = [cv * (Q(e) - mid) for cv in ends for e in (a, b)]
        assert k_lo <= centre + min(spread) and centre + max(spread) <= k_hi, (a, b, y, c)


def _random_rect_2d(rng):
    return rect(*[(lo, lo + rng.uniform(0.5, 2.5))
                  for lo in (rng.uniform(-2.0, 1.0), rng.uniform(-2.0, 1.0))])


def _localize_planted(make, rng, count):
    """Localize count planted maps from make(rng, rect) and check that each
    planted point lies in an enclosure; returns the number PROVEN."""
    proven = 0
    for _ in range(count):
        r = _random_rect_2d(rng)
        m, p = make(rng, r)
        res = localize_fixed_points(m, r, tol=1e-6, budget=20000)
        assert not res.exhausted
        assert any(all(c.lo - 1e-12 <= v <= c.hi + 1e-12 for c, v in zip(e.box.coords, p))
                   for e in res.enclosures), (m.to_source(), p)
        _assert_proven_boxes_hold_fixed_points(m, res)
        proven += len(res.proven)
    return proven


def test_krawczyk_path_never_loses_a_planted_fixed_point():
    from corpus import random_planted_trig_map

    _localize_planted(random_planted_trig_map, random.Random(2025), 60)


def test_krawczyk_path_never_loses_a_planted_kinked_fixed_point():
    # The kink of an abs or min term passes through the planted point.
    from corpus import random_planted_kinked_map

    assert _localize_planted(random_planted_kinked_map, random.Random(2026), 30) >= 20


# ---------------------------------------------------------------------------
# Maps with kinks, inherited proofs and the face test
# ---------------------------------------------------------------------------

# (source, rectangle, number of fixed points, fixed points known exactly,
# boxes the per-leaf Miranda upgrade took before kinks had derivatives)
_KINKED = (
    ("dim 2\nmap g1 = 0.9*sin(3*x1) + 0.3*abs(x2)\n"
     "map g2 = 0.8*cos(2*x2 - x1) + 0.1*min(x1, x2)\n", [(-2, 2)] * 2, 3, (), 665),
    ("dim 1\nmap g1 = max(0.5*x1, 0.2 - x1)\n", [(-2, 2)], 1, ((0.1,),), 53),
    ("dim 2\nmap g1 = 0.5*abs(x1) + 0.3\nmap g2 = 0.5*x2 - 0.1\n", [(-2, 2)] * 2, 1,
     ((0.6, -0.2),), 873),
)


@pytest.mark.parametrize("source, bounds, count, known, before", _KINKED)
def test_maps_with_kinks_have_every_fixed_point_proven(source, bounds, count, known, before):
    m = parse_map(source)
    res = localize_fixed_points(m, rect(*bounds), tol=1e-7)
    assert len(res.enclosures) == count and len(res.proven) == count
    assert res.boxes_examined < before
    _assert_proven_boxes_hold_fixed_points(m, res)
    for p in known:
        assert any(e.box.contains_point(p) for e in res.proven), p


# At x1 = 0.3, I - Dg is singular, so the Krawczyk test never passes; the
# face test proves the leaf that holds the root.  In 2-D the root needs x2
# off the faces of the rectangle: on x2 = 0, g2 - x2 is 0 and has no sign.
_DEGENERATE = (
    ("dim 1\nmap g1 = x1 - (x1 - 0.3)^3\n", [(0, 1)], (0.3,)),
    ("dim 2\nmap g1 = x1 - (x1 - 0.3)^3\nmap g2 = 0.5*x2\n", [(0, 1), (-1, 1)], (0.3, 0.0)),
)


@pytest.mark.parametrize("source, bounds, root", _DEGENERATE)
def test_face_test_proves_a_degenerate_root(source, bounds, root):
    m = parse_map(source)
    res = localize_fixed_points(m, rect(*bounds), tol=1e-3)
    assert len(res.proven) == 1 and len(res.enclosures) > 1
    assert res.proven[0].box.contains_point(root)
    assert not any(e.box.contains_point(root) for e in res.enclosures
                   if e.status == CANDIDATE)


def test_face_test_is_depth_zero_of_the_miranda_certificate():
    # The reference is certify_miranda in auto mode on the leaf: at depth 0
    # it evaluates each face once, as the face test does, so the two agree
    # on every leaf; splitting the faces (depth 6) proves a superset.
    from corpus import random_expression_map, random_polynomial_map_2d, random_rect_problem

    from fpcert import localize
    from fpcert.certify import CERTIFIED, certify_miranda

    rng = random.Random(41)
    leaves = proven = 0
    for k in range(150):
        if k % 3 == 0:
            m, r = random_rect_problem(rng)
        else:
            r = _random_rect_2d(rng)
            m = random_polynomial_map_2d(rng, r) if k % 3 == 1 else random_expression_map(rng, 2)
        for e in localize_fixed_points(m, r, tol=0.1, upgrade=False).enclosures:
            if e.residual is None:
                continue
            leaves += 1
            faces = localize._faces_straddle(m, e.box.coords)
            certified = [certify_miranda(m, RectDomain(e.box), "auto", max_depth=depth,
                                         max_boxes=512).outcome == CERTIFIED for depth in (0, 6)]
            assert faces == certified[0] and faces <= certified[1], (m.to_source(), e.box.bounds())
            proven += faces
    assert leaves >= 450 and proven >= 40, (leaves, proven)


def test_a_stalled_proof_is_inherited_by_its_descendants(monkeypatch):
    # The first box is proven.  Contraction collapses x2 to one ulp, then
    # stops halving in x1, and the box is split.  Its halves inherit the
    # proof: one is excluded, and the other is the one PROVEN leaf.
    from fpcert import localize

    stalls = []
    contract = localize._contract

    def spy(f, jac, box, K, tol):
        x, leaf = contract(f, jac, box, K, tol)
        stalls.append(x is not None and not leaf)
        return x, leaf

    monkeypatch.setattr(localize, "_contract", spy)
    m = parse_map(_KINKED[2][0])
    res = localize_fixed_points(m, rect((-2, 2), (-2, 2)), tol=1e-7)
    assert stalls[0] and len(stalls) > 1
    assert len(res.enclosures) == 1 and len(res.proven) == 1
    _assert_proven_boxes_hold_fixed_points(m, res)


def test_proof_shared_by_several_leaves_proves_none_of_them(monkeypatch):
    # With the contraction switched off, a proven box is split like any
    # other box, and its descendants, which carry its proof, meet only the
    # residual test.  The naive enclosure of x1 - 0.5*x1 is loose, so
    # several leaves survive around the fixed point 0.5: their union holds
    # it, and none of them alone is PROVEN by the proof they share.
    from fpcert import localize

    m = parse_map("dim 1\nmap g1 = x1 - 0.5*x1 + 0.25\n")
    assert len(localize_fixed_points(m, rect((0, 1)), tol=1e-3).proven) == 1
    monkeypatch.setattr(localize, "_contract", lambda f, jac, box, K, tol: (box, False))
    monkeypatch.setattr(localize, "_faces_straddle", lambda f, xs: False)
    res = localize_fixed_points(m, rect((0, 1)), tol=1e-3)
    assert len(res.enclosures) > 1 and not res.proven
    assert any(e.box.contains_point((0.5,)) for e in res.enclosures)


# ---------------------------------------------------------------------------
# Crossing sub-paths
# ---------------------------------------------------------------------------


def _identity_1d():
    return parse_map("dim 1\nmap g1 = x1\n")


def _path_from_values(svals, hvals):
    return PathSamples.from_points(svals, [(h,) for h in hvals])


def test_crossing_linear():
    # h(s) = 3s - 1 sampled on its own graph
    svals = [0.0, 0.25, 0.5, 0.75, 1.0]
    hvals = [3 * s - 1 for s in svals]
    path = _path_from_values(svals, hvals)
    s0, s1 = extract_crossing_subpath(path, _identity_1d(), 0, 0.0, 1.0)
    assert s0 == pytest.approx(1 / 3, abs=1e-15)
    assert s1 == pytest.approx(2 / 3, abs=1e-15)


def test_crossing_identity():
    path = _path_from_values([0.0, 1.0], [0.0, 1.0])
    assert extract_crossing_subpath(path, _identity_1d(), 0, 0.0, 1.0) == (0.0, 1.0)


def test_crossing_oscillating_last_traversal():
    svals = [0.0, 1 / 3, 2 / 3, 1.0]
    hvals = [-1.0, 2.0, -1.0, 2.0]
    expected = last_traversal_exact(svals, hvals, 0.0, 1.0)
    assert expected == pytest.approx((7 / 9, 8 / 9), abs=1e-15)
    path = _path_from_values(svals, hvals)
    s0, s1 = extract_crossing_subpath(path, _identity_1d(), 0, 0.0, 1.0)
    assert (s0, s1) == pytest.approx(expected, abs=1e-12)


def test_crossing_contract_random_paths():
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randrange(3, 12)
        svals = sorted(rng.random() for _ in range(n - 2))
        svals = [0.0] + svals + [1.0]
        if any(b <= a for a, b in zip(svals, svals[1:])):
            continue
        hvals = [rng.uniform(-3, 3) for _ in svals]
        hvals[0] = rng.uniform(-3, -1.01)
        hvals[-1] = rng.uniform(1.01, 3)
        a, b = -1.0, 1.0
        path = _path_from_values(svals, hvals)
        s0, s1 = extract_crossing_subpath(path, _identity_1d(), 0, a, b)
        expected = last_traversal_exact(svals, hvals, a, b)
        assert expected is not None
        assert (s0, s1) == pytest.approx(expected, abs=1e-12)

        def interp(s):
            for k in range(len(svals) - 1):
                if svals[k] <= s <= svals[k + 1]:
                    f = (s - svals[k]) / (svals[k + 1] - svals[k])
                    return hvals[k] + f * (hvals[k + 1] - hvals[k])
            raise AssertionError

        assert abs(interp(s0) - a) <= 1e-12
        assert abs(interp(s1) - b) <= 1e-12
        for i in range(1000):
            s = s0 + (s1 - s0) * i / 999
            assert a - 1e-9 <= interp(s) <= b + 1e-9


def test_crossing_descending():
    svals = [0.0, 1.0]
    hvals = [2.0, -1.0]
    path = _path_from_values(svals, hvals)
    s0, s1 = extract_crossing_subpath(path, _identity_1d(), 0, 0.0, 1.0)
    assert s0 < s1
    # descending: h(s0) = b, h(s1) = a
    assert 2.0 - 3.0 * s0 == pytest.approx(1.0, abs=1e-15)
    assert 2.0 - 3.0 * s1 == pytest.approx(0.0, abs=1e-15)


def test_no_crossing():
    path = _path_from_values([0.0, 1.0], [0.0, 0.5])
    with pytest.raises(NoCrossingError):
        extract_crossing_subpath(path, _identity_1d(), 0, 0.0, 1.0)


def test_path_validation():
    with pytest.raises(ValueError):
        PathSamples.from_points([0.0, 0.5], [(0.0,), (1.0,)])  # must end at 1
    with pytest.raises(ValueError):
        PathSamples.from_points([0.0, 0.7, 0.7, 1.0],
                                [(0.0,), (1.0,), (2.0,), (3.0,)])
