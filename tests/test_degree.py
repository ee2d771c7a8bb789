import random

import pytest

from fpcert.degree import (
    BoundaryZeroError,
    degree_1d,
    fixed_point_index,
    homotopy_nonvanishing,
    winding_degree_2d,
)
from fpcert.geometry import RectDomain
from fpcert.interval import Box
from fpcert.localize import localize_fixed_points
from fpcert.mapdsl import parse_map

from oracles import winding_rect


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
    assert got.value == 2 and got.verified
    assert winding_rect(f, [(-1, 1), (-1, 1)]) == 2


def test_winding_contraction():
    f = parse_map("dim 2\nmap g1 = 0.5*x1\nmap g2 = 0.5*x2\n")
    assert winding_degree_2d(f, rect((-1, 1), (-1, 1))).value == 1


def test_winding_matches_oracle_random():
    rng = random.Random(88)
    from corpus import random_polynomial_map_2d

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
    assert got.verified and got.value == 1 == winding_rect(f, [(0, 1), (0, 1)])


def test_winding_segment_that_still_raises_is_a_boundary_zero():
    f = parse_map("dim 2\nmap g1 = 1/(x1 - x1)\nmap g2 = x2\n")  # raises everywhere
    with pytest.raises(BoundaryZeroError, match="at depth 3"):
        winding_degree_2d(f, rect((0, 1), (0, 1)), max_depth=3)


def test_fixed_point_index_dispatch():
    assert fixed_point_index(parse_map("dim 1\nmap g1 = 0.5\n"), rect((0, 1))).value == 1
    assert fixed_point_index(
        parse_map("dim 2\nmap g1 = 0.5\nmap g2 = 0.5\n"), rect((0, 1), (0, 1))
    ).value == 1
    with pytest.raises(BoundaryZeroError):
        fixed_point_index(parse_map("dim 1\nmap g1 = x1\n"), rect((0, 1)))


def test_degree_result_json():
    res = degree_1d(parse_map("dim 1\nmap g1 = 0.5\n"), rect((0, 1)))
    d = res.to_json_dict()
    assert set(d) == {"value", "verified", "segments", "depth"}


def test_homotopy_invariance_basic():
    f = parse_map("dim 2\nmap g1 = 0.5*x1\nmap g2 = 0.5*x2\n")
    g = parse_map("dim 2\nmap g1 = 0.25\nmap g2 = 0.25\n")
    r = rect((-1, 1), (-1, 1))
    assert homotopy_nonvanishing(f, g, r)
    assert winding_degree_2d(f, r).value == winding_degree_2d(g, r).value


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
