import random

import pytest

from fpcert import degree
from fpcert.certify import CERTIFIED, certify_holes
from fpcert.degree import (
    BoundaryZeroError,
    _circle_pieces,
    _field_pairs,
    _winding,
    degree_1d,
    fixed_point_index,
    holes_index_cross_check,
    winding_degree_2d,
)
from fpcert.geometry import HoledBallSpec, RectDomain
from fpcert.interval import Box, DimensionMismatchError, DomainError
from fpcert.localize import localize_fixed_points
from fpcert.mapdsl import parse_map

from corpus import homotopy_nonvanishing, random_holed_ball_problem, random_polynomial_map_2d
from oracles import winding_circle, winding_rect


def rect(*bounds):
    return RectDomain(Box.from_bounds(bounds))


def test_degree_1d_cases():
    r = rect((0, 1))
    assert degree_1d(parse_map("dim 1\nmap g1 = 0.5\n"), r).value == 1
    assert degree_1d(parse_map("dim 1\nmap g1 = x1 + 1\n"), r).value == 0
    assert degree_1d(parse_map("dim 1\nmap g1 = 2*x1 - 0.5\n"), r).value == -1


def test_degree_1d_boundary_zero():
    with pytest.raises(BoundaryZeroError):
        degree_1d(parse_map("dim 1\nmap g1 = x1\n"), rect((0, 1)))


def test_winding_constant_maps():
    r = rect((0, 1), (0, 1))
    inside = parse_map("dim 2\nmap g1 = 0.25\nmap g2 = 0.25\n")
    outside = parse_map("dim 2\nmap g1 = 5\nmap g2 = 5\n")
    assert winding_degree_2d(inside, r).value == 1
    assert winding_degree_2d(outside, r).value == 0


def test_winding_squaring_field():
    # Id - f = (x^2 - y^2, 2xy), the complex squaring map
    f = parse_map("dim 2\nmap g1 = x1 - (x1^2 - x2^2)\nmap g2 = x2 - 2*x1*x2\n")
    r = rect((-1, 1), (-1, 1))
    got = winding_degree_2d(f, r)
    assert got.value == 2
    assert winding_rect(f, [(-1, 1), (-1, 1)]) == 2


def test_winding_contraction():
    f = parse_map("dim 2\nmap g1 = 0.5*x1\nmap g2 = 0.5*x2\n")
    assert winding_degree_2d(f, rect((-1, 1), (-1, 1))).value == 1


def test_winding_matches_oracle_random():
    rng = random.Random(88)
    r = rect((-1.2, 1.1), (-1.05, 1.15))
    checked = 0
    while checked < 25:
        f = random_polynomial_map_2d(rng, r)
        try:
            got = winding_degree_2d(f, r)
        except BoundaryZeroError:
            continue
        assert got.value == winding_rect(f, [(c.lo, c.hi) for c in r.box.coords])
        checked += 1


def test_winding_splits_segments_whose_evaluation_raises():
    # The naive enclosure of x1^2 - x1 + 1 over the edges [0, 1] holds zero.
    f = parse_map("dim 2\nmap g1 = 0.5/(x1^2 - x1 + 1)\nmap g2 = 0.5*x2 + 0.25\n")
    got = winding_degree_2d(f, rect((0, 1), (0, 1)))
    assert got.value == 1 == winding_rect(f, [(0, 1), (0, 1)])


def test_winding_segment_that_still_raises_is_a_boundary_zero():
    f = parse_map("dim 2\nmap g1 = 1/(x1 - x1)\nmap g2 = x2\n")  # raises everywhere
    with pytest.raises(BoundaryZeroError, match="at depth 0"):
        winding_degree_2d(f, rect((0, 1), (0, 1)), max_depth=3)


def test_winding_stops_where_the_field_raises_at_a_midpoint(monkeypatch):
    # The field raises at the first edge's midpoint, so no cover of that
    # edge can finish: the walk stops on its seed instead of running down
    # the default depth and box budget.
    counts = []
    cover = degree.adaptive_cover

    def counting_cover(*args):
        result = cover(*args)
        counts.append(result.boxes_examined)
        return result

    monkeypatch.setattr(degree, "adaptive_cover", counting_cover)
    for source in ("dim 2\nmap g1 = 1/(x1 - x1)\nmap g2 = x2\n",
                   "dim 2\nmap g1 = x1 + sqrt(-0.5 - x1*0)\nmap g2 = x2\n",
                   "dim 2\nmap g1 = 1/(x1 - 0.5)\nmap g2 = x2\n"):
        counts.clear()
        with pytest.raises(BoundaryZeroError):
            winding_degree_2d(parse_map(source), rect((0, 1), (0, 1)))
        assert sum(counts) <= 3, (source, counts)


def test_winding_budget_is_shared_by_the_four_edges(monkeypatch):
    # The squaring field is symmetric under a quarter turn, so each edge
    # needs the same number of boxes N; a budget of 2N covers any one edge.
    f = parse_map("dim 2\nmap g1 = x1 - (x1^2 - x2^2)\nmap g2 = x2 - 2*x1*x2\n")
    r = rect((-1, 1), (-1, 1))
    counts = []
    cover = degree.adaptive_cover

    def counting_cover(*args):
        result = cover(*args)
        counts.append(result.boxes_examined)
        return result

    monkeypatch.setattr(degree, "adaptive_cover", counting_cover)
    assert winding_degree_2d(f, r).value == 2
    n = counts[0]
    assert counts == [n] * 4 and n > 1
    with pytest.raises(BoundaryZeroError, match="budget exhausted"):
        winding_degree_2d(f, r, max_boxes=2 * n)
    assert winding_degree_2d(f, r, max_boxes=4 * n).value == 2


def test_circle_walk_matches_oracle_random():
    rng = random.Random(17)
    checked = 0
    while checked < 20:
        cx, cy, radius = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0)
        box = rect((cx - radius, cx + radius), (cy - radius, cy + radius))
        f = random_polynomial_map_2d(rng, box)
        try:
            got = _winding(f, _circle_pieces(cx, cy, radius), 24, 40000)
        except BoundaryZeroError:
            continue
        assert got.value == winding_circle(f, (cx, cy), radius)
        checked += 1


def test_circle_walk_splits_arcs_whose_evaluation_raises():
    f = parse_map("dim 2\nmap g1 = 0.5/(x1^2 - x1 + 1)\nmap g2 = 0.5*x2 + 0.25\n")
    (seed, enclose, _reverse), = pieces = _circle_pieces(0.5, 0.5, 0.5)
    with pytest.raises(DomainError):
        _field_pairs(f, enclose(seed))
    got = _winding(f, pieces, 24, 40000)
    assert got.value == 1 == winding_circle(f, (0.5, 0.5), 0.5)


def test_holed_ball_cross_check_on_the_seed_7_stream():
    # The stream of scripts/fuzz_soundness.py --seed 7: these maps have
    # fixed points just outside the ball, so only the ball's own circles
    # give the index.
    rng = random.Random("7:holes")
    certified = 0
    for k in range(30):
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
        if certify_holes(m, spec).outcome != CERTIFIED:
            continue
        certified += 1
        assert holes_index_cross_check(m, spec) == 1 - len(spec.holes), k
    assert certified == 12


def test_holed_ball_cross_check_is_none_when_a_winding_fails():
    # The index -1 of this map is cross-checked with the default budget;
    # four boxes cannot cover the outer circle.
    m = parse_map("dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n")
    spec = HoledBallSpec(4.0, ((2.0, 0.0, 0.5), (-2.0, 0.0, 0.5)))
    assert holes_index_cross_check(m, spec) == -1
    assert holes_index_cross_check(m, spec, max_boxes=4) is None


def test_fixed_point_index_dispatch():
    assert fixed_point_index(parse_map("dim 1\nmap g1 = 0.5\n"), rect((0, 1))).value == 1
    assert fixed_point_index(
        parse_map("dim 2\nmap g1 = 0.5\nmap g2 = 0.5\n"), rect((0, 1), (0, 1))
    ).value == 1
    with pytest.raises(BoundaryZeroError):
        fixed_point_index(parse_map("dim 1\nmap g1 = x1\n"), rect((0, 1)))


@pytest.mark.parametrize("index, dim, message", [
    (degree_1d, 2, "degree_1d needs a map of dimension 1"),
    (winding_degree_2d, 1, "winding_degree_2d needs a map of dimension 2"),
    (fixed_point_index, 3, "fixed point index implemented for dimensions 1 and 2"),
])
def test_index_refuses_a_map_of_the_wrong_dimension(index, dim, message):
    m = parse_map(f"dim {dim}\n" + "".join(f"map g{i} = 0.5\n" for i in range(1, dim + 1)))
    with pytest.raises(DimensionMismatchError) as exc:
        index(m, rect(*[(0, 1)] * dim))
    assert str(exc.value) == message


def test_degree_result_json():
    res = degree_1d(parse_map("dim 1\nmap g1 = 0.5\n"), rect((0, 1)))
    d = res.to_json_dict()
    assert set(d) == {"value", "verified", "segments", "depth"}
    # A DegreeResult exists only for a verified index (a failed one raises
    # BoundaryZeroError), so its report always says so.
    assert d["verified"] is True


def test_homotopy_invariance_basic():
    f = parse_map("dim 2\nmap g1 = 0.5*x1\nmap g2 = 0.5*x2\n")
    g = parse_map("dim 2\nmap g1 = 0.25\nmap g2 = 0.25\n")
    r = rect((-1, 1), (-1, 1))
    assert homotopy_nonvanishing(f, g, r)
    assert winding_degree_2d(f, r).value == winding_degree_2d(g, r).value


def test_homotopy_with_a_pole_on_the_boundary_is_not_verified():
    # 1/(x1 - 0.5) raises on every box of the edges x2 = 0 and x2 = 1 that
    # holds x1 = 0.5: those boxes are split and end unresolved, so the check
    # answers False instead of raising.
    f = parse_map("dim 2\nmap g1 = 1/(x1 - 0.5)\nmap g2 = x2\n")
    g = parse_map("dim 2\nmap g1 = 0.25\nmap g2 = 0.25\n")
    assert homotopy_nonvanishing(f, g, rect((0, 1), (0, 1)), max_boxes=2000) is False


def test_two_zero_localization_and_multiplicity():
    # F = Id - f = (x1^2 - 0.25, x2): zeros at (+-0.5, 0), indices +1 and -1
    f = parse_map("dim 2\nmap g1 = x1 - (x1^2 - 0.25)\nmap g2 = 0\n")
    whole = rect((-1, 1), (-0.5, 0.5))
    left = rect((-1, 0), (-0.5, 0.5))
    right = rect((0, 1), (-0.5, 0.5))
    w = winding_degree_2d(f, whole)
    wl = winding_degree_2d(f, left)
    wr = winding_degree_2d(f, right)
    assert w.value == 0 and {wl.value, wr.value} == {1, -1}
    assert w.value == wl.value + wr.value  # additivity
    # multiplicity: total zero but parts nonzero forces fixed points in both
    for part in (left, right):
        res = localize_fixed_points(f, part, tol=1e-3, upgrade=False)
        assert res.enclosures
