import json
import math
import random
import struct

import pytest

from fpcert.geometry import RectDomain
from fpcert.interval import Box, DimensionMismatchError, Interval
from fpcert.localize import (
    CANDIDATE,
    PROVEN,
    localize_fixed_points,
    region_fixed_point_free,
)
from fpcert.mapdsl import BinOp, MapSpec, float_const, parse_map

from corpus import box_contains
from oracles import bisect_root, grid_zoom_min


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
    assert box_contains(enc.box, (root,))
    assert enc.residual.lo <= 1e-8


def test_linear_2d_proven_enclosure():
    m = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
    res = localize_fixed_points(m, rect((0, 1), (0, 1)), tol=1e-8)
    proven = res.proven
    assert proven and any(box_contains(e.box, (0.5, 0.5)) for e in proven)
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
    with pytest.raises(DimensionMismatchError) as exc:
        localize_fixed_points(parse_map("dim 2\nmap g1 = 0.5\nmap g2 = 0.5\n"),
                              rect((0, 1)), tol=0.1)
    assert str(exc.value) == "map of dim 2 over rectangle of dim 1"
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
        assert any(box_contains(e.box, p) for e in res.enclosures), (
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
    assert any(box_contains(e.box, (0.0,)) for e in res.enclosures)
    assert any(box_contains(e.box, (1.0,)) for e in res.enclosures)


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
    assert any(box_contains(e.box, (root,)) for e in res.proven)
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
    assert region_fixed_point_free(far, box, max_depth=8)
    never = parse_map("dim 2\nmap g1 = 1/(x1 - x1)\nmap g2 = x2\n")
    assert not region_fixed_point_free(never, box, max_depth=4)


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
    assert region_fixed_point_free(m, box, max_depth=8)


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
    assert not region_fixed_point_free(m, box, max_depth=4)


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
# The operator test
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
    # Operator tests, proofs, exclusions and undecided tests; halves cut to
    # an undecided image and halves discarded as disjoint from it.
    assert (res.operator_tests, res.operator_proofs, res.operator_exclusions,
            res.operator_undecided, res.halves_cut, res.halves_discarded) == (17, 3, 5, 9, 7, 3)
    assert res.boxes_examined == 116
    assert "operator_tests" not in res.to_json() and "halves_cut" not in res.to_json()


def test_undecided_krawczyk_image_discards_a_half_it_misses():
    # On X = [-2, 2] x [-1, 1.5], K(X) = [1, 1] x [-6.375, 6.125]: x2 -> x2^2
    # keeps the test undecided, and the left half of the split at x1 = 2/53
    # misses K(X), so it is discarded without being queued.  The second
    # axis of K(X) holds X's, and the cut would leave the first a point, at
    # most tol wide, so the right half stays as it is.
    m = parse_map("dim 2\nmap g1 = 0.5*x1 + 0.5\nmap g2 = x2^2\n")
    split = -2.0 + 4.0 * 27.0 / 53.0
    one = localize_fixed_points(m, rect((-2, 2), (-1, 1.5)), tol=1e-7, budget=1)
    assert (one.operator_undecided, one.halves_discarded, one.halves_cut) == (1, 1, 0)
    assert [e.box.bounds() for e in one.enclosures] == [[[split, 2.0], [-1.0, 1.5]]]
    assert one.discarded_volume == (split + 2.0) * 2.5
    res = localize_fixed_points(m, rect((-2, 2), (-1, 1.5)), tol=1e-7)
    assert len(res.enclosures) == 2 and len(res.proven) == 2
    for p in ((1.0, 0.0), (1.0, 1.0)):
        assert any(box_contains(e.box, p) for e in res.proven), p
    assert res.halves_discarded >= 1
    _assert_proven_boxes_hold_fixed_points(m, res)


def test_rotation_map_fixed_point_is_proven():
    m = parse_map(_ROTATION)
    res = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-7)
    assert len(res.enclosures) == 1 and len(res.proven) == 1
    assert box_contains(res.proven[0].box, (0.3, 0.2))
    _assert_proven_boxes_hold_fixed_points(m, res)


def test_rational_map_fixed_point_is_proven():
    m = parse_map(f"dim 1\nmap g1 = {_RATIONAL}\n")
    res = localize_fixed_points(m, rect((0, 1)), tol=1e-7)
    assert len(res.enclosures) == 1 and len(res.proven) == 1
    root = bisect_root(lambda x: 0.5 / (x * x - x + 1.0) - x, 0.0, 1.0)
    assert box_contains(res.proven[0].box, (root,))


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


def _exact_sweep(m, X, y):
    """The sweep of localize._hansen_sengupta over the box X with the
    preconditioner y, in exact rational interval arithmetic: the image of
    each row, X's own where the row's diagonal entry holds 0, up to the
    first row whose image misses X, and None after it."""
    from fractions import Fraction as Q

    from fpcert.mapdsl import jacobian
    from oracles import fraction_eval

    n = m.dim
    ms = [Q(c.mid) for c in X]
    xs = [(Q(c.lo), Q(c.hi)) for c in X]
    gm = [fraction_eval(c, [(v, v) for v in ms]) for c in m.components]
    fm = [(mi - hi, mi - lo) for mi, (lo, hi) in zip(ms, gm)]
    dF = []  # F'(X) = I - Dg(X)
    for i, row in enumerate(jacobian(m)):
        dF.append([])
        for j, d in enumerate(row):
            lo, hi = (0, 0) if d is None else fraction_eval(d, xs)
            delta = 1 if i == j else 0
            dF[i].append((delta - hi, delta - lo))

    def scaled(v, pair):
        return min(v * pair[0], v * pair[1]), max(v * pair[0], v * pair[1])

    def times(a, b):
        ends = [p * q for p in a for q in b]
        return min(ends), max(ends)

    z = [(lo - mi, hi - mi) for (lo, hi), mi in zip(xs, ms)]
    H = []
    for i in range(n):
        yi = [Q(v) for v in y[i]]
        A = [(sum(scaled(yi[k], dF[k][j])[0] for k in range(n)),
              sum(scaled(yi[k], dF[k][j])[1] for k in range(n))) for j in range(n)]
        u_lo = u_hi = -sum(yi[k] * fm[k][0] for k in range(n))  # F(m) is a point here
        for j in range(n):
            if j != i:
                lo, hi = times(A[j], z[j])
                u_lo, u_hi = u_lo - hi, u_hi - lo
        (a, b), (lo, hi) = A[i], xs[i]
        if a <= 0 <= b:
            H.append(xs[i])
            continue
        q = times((u_lo, u_hi), (1 / b, 1 / a))
        H.append((ms[i] + q[0], ms[i] + q[1]))
        lo, hi = max(lo, H[i][0]), min(hi, H[i][1])
        if lo > hi:
            return H + [None] * (n - i - 1)
        z[i] = (lo - ms[i], hi - ms[i])
    return H


# 1-D and 2-D polynomial maps with dyadic coefficients, whose F(m) is exact.
_SWEEP_MAPS = (
    "dim 1\nmap g1 = x1^2 + {c}\n",
    "dim 2\nmap g1 = {p}*x1^2 + {q}*x2 + {c}\nmap g2 = {r}*x1*x2 + {s}*x2^2 - {c}\n",
)


def test_krawczyk_image_encloses_the_exact_operator(monkeypatch):
    # The sweep encloses its exact value for any preconditioner Y, so fix Y
    # (the operator's own, each entry scaled by a seeded factor near 1) and
    # compare each row with the sweep in rational arithmetic: it must hold
    # the exact image and lie within 1e-12 of it.  Half the boxes are
    # centred on 0, so that m + q adds no rounding and an inward-rounded
    # product in the sweep shows.
    from fpcert import localize
    from fpcert.mapdsl import jacobian

    rng = random.Random(77)
    dyadic = (0.25, -0.5, 0.125, 0.375, -0.75)
    ys = []
    for name in ("_inverse", "_inverse2"):
        monkeypatch.setattr(localize, name, lambda a, inv=getattr(localize, name): ys.append(
            [[v * rng.uniform(0.9, 1.1) for v in r] for r in inv(a)]) or ys[-1])
    kinds = {"proof": 0, "miss": 0, "zero diagonal": 0}
    for k in range(1200):
        source = _SWEEP_MAPS[k % 2].format(**{v: rng.choice(dyadic) for v in "cpqrs"})
        m = parse_map(source)
        bounds = []
        for _axis in range(m.dim):
            w = rng.uniform(1e-6, 1.0)
            lo = -w if k % 4 < 2 else rng.uniform(-2.0, 2.0)
            bounds.append((lo, lo + 2 * w if k % 4 < 2 else lo + w))
        X = Box.from_bounds(bounds).coords
        ys.clear()
        H, _rho = localize._hansen_sengupta(m, jacobian(m), X)
        if H is None:
            continue
        want = _exact_sweep(m, X, ys[0])
        for (lo, hi), exact, c in zip(H, want, X):
            if exact is None:  # the operator returned: X's own
                assert (lo, hi) == (c.lo, c.hi) or hi < c.lo or lo > c.hi, source
                continue
            assert lo <= exact[0] and exact[1] <= hi, (source, bounds, ys[0])
            assert exact[0] - lo <= 1e-12 * (1 + abs(exact[0])), (source, bounds)
            assert hi - exact[1] <= 1e-12 * (1 + abs(exact[1])), (source, bounds)
        kinds["proof"] += all(c.lo < lo and hi < c.hi for (lo, hi), c in zip(H, X))
        kinds["miss"] += any(hi < c.lo or lo > c.hi for (lo, hi), c in zip(H, X))
        kinds["zero diagonal"] += any((lo, hi) == (c.lo, c.hi) for (lo, hi), c in zip(H, X))
    assert min(kinds.values()) >= 20, kinds


def _inverse_bits(inv):
    return None if inv is None else struct.pack("<4d", *inv[0], *inv[1])


def test_written_out_2x2_inverse_matches_gauss_jordan():
    # Every matrix over a pool with signed zeros, non-finite entries and
    # entries equal in magnitude: zero and non-finite pivots, ties in
    # |pivot|, and zero entries below and above the pivot.  Then random
    # matrices, some with a row scaled to tie.
    from fpcert import localize

    pool = (0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e-300, -3e300, math.inf, -math.inf, math.nan)
    cases = [((a, b), (c, d)) for a in pool for b in pool for c in pool for d in pool]
    rng = random.Random(2357)
    for _ in range(20000):
        a, b, c, d = (rng.choice((rng.uniform(-4.0, 4.0), rng.choice(pool)))
                      for _ in range(4))
        if rng.random() < 0.2:
            c = rng.choice((a, -a))
        cases.append(((a, b), (c, d)))
    inverted = swapped = ties = 0
    for a in cases:
        want = localize._inverse([list(r) for r in a])
        assert _inverse_bits(localize._inverse2(a)) == _inverse_bits(want), a
        inverted += want is not None
        swapped += want is not None and abs(a[1][0]) > abs(a[0][0])
        ties += want is not None and abs(a[1][0]) == abs(a[0][0]) != 0.0
    assert inverted > 10000 and swapped > 3000 and ties > 1000, (inverted, swapped, ties)


def _gauss_jordan(a):
    """The Gauss-Jordan loop of localize._inverse for every size."""
    n = len(a)
    rows = [list(r) + [1.0 if i == j else 0.0 for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        if p == 0.0 or not math.isfinite(p):
            return None
        pivot_row = [v / p for v in rows[col]]
        rows[col] = pivot_row
        for r in range(n):
            if r != col and rows[r][col] != 0.0:
                k = rows[r][col]
                rows[r] = [v - k * w for v, w in zip(rows[r], pivot_row)]
    inv = [r[n:] for r in rows]
    return inv if all(math.isfinite(v) for r in inv for v in r) else None


def test_1x1_inverse_matches_gauss_jordan():
    # Zeros of both signs, the smallest subnormal (whose inverse overflows),
    # values near both ends of the float range, infinities, NaN, then
    # seeded values over many scales.
    from fpcert import localize

    rng = random.Random(1111)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-308, -1e-308, 1e308, -1e308,
               math.inf, -math.inf, math.nan, 1.0, -3.0]
    seeded = [rng.choice((1.0, -1.0)) * rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-1074, 1023)
              for _ in range(1000)]
    inverted = 0
    for p in special + seeded:
        want = _gauss_jordan([[p]])
        got = localize._inverse([[p]])
        assert (None if got is None else struct.pack("<d", *got[0])) == (
            None if want is None else struct.pack("<d", *want[0])), p
        inverted += want is not None
    assert localize._inverse([[5e-324]]) is None and localize._inverse([[-0.0]]) is None
    assert inverted > 900, inverted


def _random_rect_2d(rng):
    return rect(*[(lo, lo + rng.uniform(0.5, 2.5))
                  for lo in (rng.uniform(-2.0, 1.0), rng.uniform(-2.0, 1.0))])


def _localize_planted(make, rng, count):
    """Localize count planted maps from make(rng, rect) and check that each
    planted point lies in an enclosure and that the volumes tile the
    rectangle; returns the number PROVEN.  The halves cut to an undecided
    operator image, or discarded as disjoint from it, must include both
    kinds, so the corpus runs that cut."""
    proven = cut = discarded = 0
    for _ in range(count):
        r = _random_rect_2d(rng)
        m, p = make(rng, r)
        res = localize_fixed_points(m, r, tol=1e-6, budget=20000)
        assert not res.exhausted
        assert any(all(c.lo - 1e-12 <= v <= c.hi + 1e-12 for c, v in zip(e.box.coords, p))
                   for e in res.enclosures), (m.to_source(), p)
        _assert_proven_boxes_hold_fixed_points(m, res)
        proven += len(res.proven)
        cut += res.halves_cut
        discarded += res.halves_discarded
    assert cut > 0 and discarded > 0, (cut, discarded)
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
        assert any(box_contains(e.box, p) for e in res.proven), p


# At x1 = 0.3, I - Dg is singular, so the operator test never passes; the
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
    assert box_contains(res.proven[0].box, root)
    assert not any(box_contains(e.box, root) for e in res.enclosures
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


_CONTINUA = (
    ("dim 1\nmap g1 = min(x1, 0)\n", [(-1, 1)]),
    ("dim 2\nmap g1 = min(x1, 0)\nmap g2 = 0.5*x2\n", [(-1, 1), (-1, 1)]),
)


@pytest.mark.parametrize("source, bounds", _CONTINUA)
def test_a_continuum_of_fixed_points_has_no_uniqueness_claim(source, bounds):
    # Every point of [-1, 0] (times {0} in 2-D) is fixed.  On the root, Y =
    # 2 and the first diagonal entry of Y F'(X) is [0, 2], so the image is
    # X itself on axis 1: only the strict test keeps it from a proof, and
    # the uniqueness oracle refutes a claim on the root.
    import mpmath

    from oracles import uniqueness_regular

    m = parse_map(source)
    root = Box.from_bounds(bounds)
    res = localize_fixed_points(m, RectDomain(root), tol=0.01)
    assert not res.exhausted and res.operator_proofs == 0 and not res.proven
    assert all(e.unique is None for e in res.enclosures)
    for p in ((-1.0,), (-0.5,), (0.0,)):
        p += (0.0,) * (m.dim - 1)
        assert any(box_contains(e.box, p) for e in res.enclosures), p
    assert uniqueness_regular(mpmath, m, root) is False


# On the root [-1, 1]^2, Y = I and the sweep's image [-0.4, 0.8] x [-0.58,
# 0.38] lies inside the root but is wider than half of it: the proof
# stalls, on the first step of the contraction.
_STALL = "dim 2\nmap g1 = 0.3*x2^2 + 0.2\nmap g2 = 0.3*x1^2 - 0.1\n"


def test_a_stalled_proof_is_inherited_by_its_descendants(monkeypatch):
    # The first box is proven, its contraction stops halving, and the box
    # is split.  Its halves inherit the proof: one is excluded, and the
    # other is the one PROVEN leaf.
    from fpcert import localize

    stalls = []
    contract = localize._contract

    def spy(f, jac, box, K, tol, tail):
        x, leaf = contract(f, jac, box, K, tol, tail)
        stalls.append(x is not None and not leaf)
        return x, leaf

    monkeypatch.setattr(localize, "_contract", spy)
    m = parse_map(_STALL)
    res = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-7)
    assert stalls[0] and len(stalls) > 1
    assert (res.operator_proofs, res.operator_exclusions, res.boxes_examined) == (1, 1, 3)
    assert len(res.enclosures) == 1 and len(res.proven) == 1
    _assert_proven_boxes_hold_fixed_points(m, res)


def test_a_box_that_its_own_test_proves_takes_no_residual_test_before_a_split(monkeypatch):
    # The root of _STALL is proven and split after its contraction stalls.
    # It holds a fixed point, so its residual test could prune nothing, and
    # its pairs would be dropped on the split: it takes none.  Its halves,
    # which inherit the proof, take theirs.
    from fpcert import localize

    calls = _spy_on_tests(monkeypatch)
    contract, contracted = localize._contract, []
    monkeypatch.setattr(localize, "_contract",
                        lambda *args: contracted.append(contract(*args)) or contracted[-1])
    res = localize_fixed_points(parse_map(_STALL), rect((-1, 1), (-1, 1)), tol=1e-7)
    stalled, leaf = contracted[0]
    assert not leaf and len(res.proven) == 1
    tested = [c[1] for c in calls if c[0] == "R"]
    assert tested and stalled.coords not in tested
    assert all(box.is_subset(stalled) for box in map(Box, tested))


def test_proof_shared_by_several_leaves_proves_none_of_them(monkeypatch):
    # With the contraction switched off, a proven box is split like any
    # other box, and its descendants, which carry its proof, meet only the
    # residual test.  The naive enclosure of x1 - 0.5*x1 is loose, so
    # several leaves survive around the fixed point 0.5: their union holds
    # it, and none of them alone is PROVEN by the proof they share.
    from fpcert import localize

    m = parse_map("dim 1\nmap g1 = x1 - 0.5*x1 + 0.25\n")
    assert len(localize_fixed_points(m, rect((0, 1)), tol=1e-3).proven) == 1
    monkeypatch.setattr(localize, "_contract", lambda f, jac, box, K, tol, tail: (box, False))
    monkeypatch.setattr(localize, "_faces_straddle", lambda f, xs: False)
    res = localize_fixed_points(m, rect((0, 1)), tol=1e-3)
    assert len(res.enclosures) > 1 and not res.proven
    assert any(box_contains(e.box, (0.5,)) for e in res.enclosures)


def test_leaf_whose_face_evaluation_raises_stays_a_candidate(monkeypatch):
    # 1/x1 raises on the face x1 = 0.  A leaf meets the face test only
    # after its own residual evaluated, and an evaluation that raises on a
    # face raises on every box holding it, so the residual test is stubbed
    # to pass the box: the face test must then answer False, not raise.
    from fpcert import localize

    monkeypatch.setattr(localize, "_residual_pairs", lambda f, xs: [(-1.0, 1.0)])
    res = localize_fixed_points(parse_map("dim 1\nmap g1 = 1/x1\n"), rect((0, 1)), tol=2.0)
    assert [e.status for e in res.enclosures] == [CANDIDATE]


def _spy_on_tests(monkeypatch):
    """Record ("K", xs) for each _hansen_sengupta call and ("R", xs, result) for
    each _residual_pairs call of the searches that follow."""
    from fpcert import localize

    calls = []
    operator, residual = localize._hansen_sengupta, localize._residual_pairs

    def spy_k(f, jac, xs):
        calls.append(("K", xs))
        return operator(f, jac, xs)

    def spy_r(f, xs):
        out = residual(f, xs)
        calls.append(("R", xs, out))
        return out

    monkeypatch.setattr(localize, "_hansen_sengupta", spy_k)
    monkeypatch.setattr(localize, "_residual_pairs", spy_r)
    return calls


def test_a_root_that_krawczyk_proves_takes_one_residual_test(monkeypatch):
    # A trace cell: the root is proven and contracted to a leaf, which takes
    # no residual test in the search, since it holds a fixed point.  Reading
    # its bound takes the one test, on the plain map, and gives the pairs
    # of the memo view bit for bit.
    from fpcert import localize

    residual = localize._residual_pairs
    calls = _spy_on_tests(monkeypatch)
    spy, maps = localize._residual_pairs, []  # maps: the map of each residual test
    monkeypatch.setattr(localize, "_residual_pairs", lambda f, xs: maps.append(f) or spy(f, xs))
    fam = parse_map("dim 2\nparam t\nmap g1 = x1 + (x1 - (0.5 + t^2))*(0.25*x1 - 0.875)\n"
                    "map g2 = 0.5*x2 + 0.25*t\n")
    t = Interval(0.25, 0.3125)
    res = localize_fixed_points(fam, rect((0, 1), (-0.5, 0.5)), tol=1e-6, t=t)
    assert res.boxes_examined == 1 and len(res.proven) == 1
    assert calls and all(c[0] == "K" for c in calls)
    (enc,) = res.proven
    bound = enc.residual
    assert enc.residual is bound  # computed once
    residuals = [c for c in calls if c[0] == "R"]
    assert len(residuals) == 1 and maps == [fam]
    _r, xs, pairs = residuals[0]
    assert xs == enc.box.coords + (t,) and pairs is not None
    with fam.memo_view() as (view, _jac):
        assert repr(residual(view, xs)) == repr(pairs)
    assert repr(bound) == repr(localize._residual_bound(pairs))


def test_a_proven_leaf_reads_the_residual_its_search_would_have_taken(monkeypatch):
    # No t: each leaf that its own operator test proved takes its residual
    # test on first read; the search's memo view, evaluating the leaf's
    # tuple where the search contracts it, gives the same bound.
    from corpus import random_planted_kinked_map, random_planted_trig_map
    from fpcert import localize

    contract, residual = localize._contract, localize._residual_pairs
    eager = {}

    def recording(f, jac, box, K, tol, tail):
        x, leaf = contract(f, jac, box, K, tol, tail)
        if x is not None:
            eager[x.coords + tail] = residual(f, x.coords + tail)
        return x, leaf

    monkeypatch.setattr(localize, "_contract", recording)
    rng = random.Random(4040)
    deferred = 0
    for k in range(50):
        r = _random_rect_2d(rng)
        m, _p = (random_planted_trig_map if k % 2 else random_planted_kinked_map)(rng, r)
        eager.clear()
        res = localize_fixed_points(m, r, tol=1e-6, budget=20000)
        for e in res.enclosures:
            if e._deferred is None:
                continue
            deferred += 1
            assert e.status == PROVEN and e.unique is not None
            want = localize._residual_bound(eager[e.box.coords])
            assert repr(e.residual) == repr(want), m.to_source()
    assert deferred > 40, deferred


def test_a_root_that_krawczyk_excludes_takes_no_residual_test(monkeypatch):
    calls = _spy_on_tests(monkeypatch)
    res = localize_fixed_points(parse_map("dim 1\nmap g1 = 0.5*x1 + 3\n"), rect((0, 1)), tol=1e-6)
    assert [c[0] for c in calls] == ["K"]
    assert res.enclosures == [] and res.discarded_volume == res.total_volume == 1.0


@pytest.mark.parametrize("source, bounds, proven", [
    ("dim 1\nmap g1 = x1*x1\n", [(-0.5, 2.0)], 2),  # two fixed points: undecided
    ("dim 1\nmap g1 = x1 + 1\n", [(0.0, 1.0)], 0),  # F' = 0 is singular; pruned
    ("dim 2\nmap g1 = x1 + 1/x2\nmap g2 = 0.5*x2\n", [(0.0, 1.0), (-1.0, 1.0)], 0),  # raises
])
def test_a_root_that_krawczyk_leaves_open_takes_the_residual_test(monkeypatch, source,
                                                                   bounds, proven):
    from fpcert import localize

    m = parse_map(source)
    root = Box.from_bounds(bounds)
    want = localize._residual_pairs(m, root.coords)  # on the plain map
    calls = _spy_on_tests(monkeypatch)
    res = localize_fixed_points(m, RectDomain(root), tol=1e-6)
    assert calls[0] == ("K", root.coords)
    assert calls[1][:2] == ("R", root.coords) and repr(calls[1][2]) == repr(want)
    assert len(res.proven) == proven
    _assert_proven_boxes_hold_fixed_points(m, res)


def test_a_rectangle_wider_than_the_float_range_is_split_inside_it():
    # hi - lo overflows on [-1e308, 1e308]: the midpoint and the split
    # point were the upper end, and a split peeled a one-ulp sliver.
    from fpcert.localize import _split_box

    wide = Interval(-1e308, 1e308)
    assert wide.mid == 0.0 and Interval(-1e308, 1.5e308).mid == 2.5e307
    left, right = Box((wide,)).bisect(0)
    assert (left.coords[0].hi, right.coords[0].lo) == (0.0, 0.0)
    left, right = _split_box(Box((Interval(0.0, 1.0), wide)), 1)
    m = left.coords[1].hi
    assert m == right.coords[1].lo and 1e306 < m < 1e307  # 1e308/53
    assert left.coords[0] == right.coords[0] == Interval(0.0, 1.0)
    # Finite widths split as before.
    assert Interval(-1e307, 1e307).mid == 0.0
    assert _split_box(Box((Interval(0.0, 53.0),)), 0)[0].coords[0].hi == 27.0
    # The search proves the fixed point 2 on its first box, as it does on
    # [-1e307, 1e307]; it used to spend its budget on slivers.
    res = localize_fixed_points(parse_map("dim 1\nmap g1 = 0.5*x1 + 1\n"),
                                rect((-1e308, 1e308)), tol=1e-8, budget=2000)
    assert not res.exhausted and res.boxes_examined == 1
    assert len(res.proven) == 1 and box_contains(res.proven[0].box, (2.0,))


def test_surviving_volume_past_the_float_range_is_inf():
    # Two survivors of volume about 1.1e308 each: fsum's exact sum is past
    # the float range, which rounds to inf.
    res = localize_fixed_points(parse_map("dim 2\nmap g1 = x1*x2\nmap g2 = x2\n"),
                                rect((0, 1.5e308), (0, 1.5)), tol=1e-8, budget=1)
    assert res.exhausted and len(res.enclosures) == 2
    assert res.surviving_volume == math.inf


_NAN_MAP = "dim 2\nmap g1 = 0.5*x1 + 0.3*sin(x2)\nmap g2 = 0.5*x2 + 0.3*cos(x1)\n"


def test_discarded_volume_past_the_float_range_is_not_nan():
    # The root's volume and its contraction's are both inf: their
    # difference was inf - inf, and the ledger became NaN.
    res = localize_fixed_points(parse_map(_NAN_MAP), rect((-1e307, 1e307), (-1e307, 1e307)),
                                tol=1e-8, budget=2000)
    assert not math.isnan(res.discarded_volume)
    assert res.discarded_volume == res.total_volume == math.inf
    assert not res.exhausted and len(res.proven) == 1


def test_dropped_volume_is_the_difference_where_it_is_defined():
    from fpcert.localize import _dropped_volume

    box = Box.from_bounds([(0.1, 3.0), (-1.0, 2.3)])
    x = Box.from_bounds([(1.0, 2.0), (0.0, 1.7)])
    assert _dropped_volume(box, x) == box.volume() - x.volume()
    assert _dropped_volume(box, box) == 0.0
    # Undefined differences: inf - inf, and 0 * inf inside a volume.
    wide = Box.from_bounds([(-1e307, 1e307)] * 2)
    assert _dropped_volume(wide, wide) == 0.0
    assert _dropped_volume(wide, Box.from_bounds([(-1e307, 1e307), (0.0, 1e307)])) == math.inf
    flat = Box.from_bounds([(0.0, 0.0), (-1e308, 1e308)])
    assert math.isnan(flat.volume())
    assert _dropped_volume(flat, Box.from_bounds([(0.0, 0.0), (-1.0, 1.0)])) == 0.0


def test_a_budget_of_exactly_the_boxes_needed_is_not_exhausted():
    m = parse_map(_STALL)
    full = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-7)
    n = full.boxes_examined
    assert n > 1 and not full.exhausted
    exact = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-7, budget=n)
    assert not exact.exhausted and exact.to_json() == full.to_json()
    short = localize_fixed_points(m, rect((-1, 1), (-1, 1)), tol=1e-7, budget=n - 1)
    assert short.exhausted and short.boxes_examined == n - 1


def test_a_zero_budget_keeps_the_root_through_the_budget_tail():
    # The root takes the residual test only, is kept, and its faces prove it.
    res = localize_fixed_points(parse_map("dim 2\nmap g1 = 0.5*x1\nmap g2 = 0.5*x2\n"),
                                rect((-1, 1), (-1, 1)), tol=1e-8, budget=0)
    assert res.boxes_examined == 0 and res.exhausted
    [enc] = res.enclosures
    assert enc.status == PROVEN and enc.box == Box.from_bounds([(-1, 1), (-1, 1)])
    assert enc.unique is None and res.discarded_volume == 0.0


def test_a_stalled_contraction_is_a_leaf_with_t_and_split_without(monkeypatch):
    # At t = [1, 1] the family is the plain map, and both searches contract
    # the root to the same box, 1.2 wide in x1: it stopped halving above tol.
    # With t given it is the one PROVEN leaf; without, it is split.
    from fpcert import localize

    contracted = []
    contract = localize._contract

    def spy(f, jac, box, K, tol, tail):
        x, leaf = contract(f, jac, box, K, tol, tail)
        contracted.append(x)
        return x, leaf

    monkeypatch.setattr(localize, "_contract", spy)
    plain = parse_map(_STALL)
    fam = parse_map("dim 2\nparam t\nmap g1 = 0.3*x2^2 + 0.2*t\nmap g2 = 0.3*x1^2 - 0.1*t\n")
    res = localize_fixed_points(fam, rect((-1, 1), (-1, 1)), tol=1e-7, t=Interval(1.0))
    stalled = contracted[0]
    assert stalled.width > 1.0
    assert res.boxes_examined == 1 and [e.box for e in res.proven] == [stalled]
    contracted.clear()
    res = localize_fixed_points(plain, rect((-1, 1), (-1, 1)), tol=1e-7)
    assert contracted[0] == stalled and res.boxes_examined > 1
    assert len(res.proven) == 1 and res.proven[0].box != stalled
    assert res.proven[0].box.is_subset(stalled)
