"""Soundness of the undecidable-box rule (`Condition.final`).

A box tagged undecidable is kept unresolved instead of being split.  That
is sound only if no sub-box could decide it: the sub-boxes that hold the
witness never verify, and no sub-box is violated.  The seeded problems
below produce undecidable boxes on equality faces (rectangles and
cylinders), in the rounding band of squared radii (holed balls) and on
cone slices; with random corpus problems, every such box is checked
against its sub-boxes.  A box one ulp wide, which no split can shrink, is
kept unresolved at once.  The last two tests check the other direction: a
box that smaller boxes can decide is still split.
"""

import math
import random
from decimal import Decimal

import pytest
from corpus import random_cone_problem, random_cylinder_problem, random_rect_problem

from fpcert import certify, subdivision
from fpcert.certify import (
    CERTIFIED,
    INDETERMINATE,
    certify_cone_shell,
    certify_holes,
    certify_problem,
)
from fpcert.geometry import ConeShellSpec, CylinderSpec, Functional, HoledBallSpec, RectDomain
from fpcert.interval import Box, Interval
from fpcert.mapdsl import parse_map
from fpcert.subdivision import IRRELEVANT, UNDECIDABLE, VERIFIED, VIOLATED

_LEVELS = 6
_RANDOM_SUBBOXES = 4


@pytest.fixture
def undecidable(monkeypatch):
    """Record (condition, box) for every box a certifier tags undecidable."""
    seen = []

    def recording_cover(seeds, classify, max_depth, max_boxes):
        def spy(box):
            tag, bound = classify(box)
            if tag == UNDECIDABLE:
                seen.append((classify.__self__, box))
            return tag, bound

        return subdivision.adaptive_cover(seeds, spy, max_depth, max_boxes)

    monkeypatch.setattr(certify, "adaptive_cover", recording_cover)
    return seen


def _witness_chain(cond, box):
    """Sub-boxes of box, each half of the last, that hold its witness."""
    w = cond.witness(box)
    assert box.contains_point(w)
    for _ in range(_LEVELS):
        widths = box.widths()
        axis = max(range(len(widths)), key=widths.__getitem__)
        if widths[axis] == 0.0:
            return
        left, right = box.bisect(axis)
        box = left if left.contains_point(w) else right
        assert box.contains_point(w)
        yield box


def _random_subbox(rng, box):
    bounds = []
    for c in box.coords:
        a, b = sorted(c.lo + rng.random() * (c.hi - c.lo) for _ in range(2))
        bounds.append((a, b))
    return Box.from_bounds(bounds)


def _check_sound(seen, rng, require=True):
    assert seen or not require, "the problems produced no undecidable box"
    for cond, box in seen:
        for sub in _witness_chain(cond, box):
            tag, _bound = cond.classify(sub)
            assert tag not in (VERIFIED, VIOLATED, IRRELEVANT), (cond.face, box, sub, tag)
        for _ in range(_RANDOM_SUBBOXES):
            sub = _random_subbox(rng, box)
            assert cond.classify(sub)[0] != VIOLATED, (cond.face, box, sub)


def _bounds(rng, dim):
    bounds = []
    for _ in range(dim):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + rng.uniform(0.5, 2.5)))
    return bounds


def test_equality_faces(undecidable):
    rng = random.Random(11)
    for _ in range(8):
        (a, b), (lo, hi) = _bounds(rng, 2)
        s = rng.uniform(-0.4, 0.4)  # g2 maps [lo, hi] into itself
        c = lo + rng.uniform(0.4, 0.6) * (hi - lo)
        m = parse_map(f"dim 2\nmap g1 = x1\nmap g2 = {s!r}*x2 + {c - s * c!r}\n")
        for form in ("auto", "compressive"):
            rect = RectDomain(Box.from_bounds([(a, b), (lo, hi)]))
            assert certify_problem(m, rect, form=form).outcome == INDETERMINATE
        cyl = CylinderSpec(Interval(a, b), Box.from_bounds([(lo, hi)]))
        assert certify_problem(m, cyl, form="expansive").outcome == INDETERMINATE
    _check_sound(undecidable, rng)


def test_holed_ball_rounding_bands(undecidable):
    # A constant on the outer circle or on a hole circle lands in the band
    # between the two roundings of the squared radius.  The literals are
    # exact decimals, so each constant is a point interval.
    rng = random.Random(12)
    for _ in range(6):
        radius = rng.uniform(3.0, 5.0)
        r = rng.uniform(0.3, 0.6)
        spec = HoledBallSpec(radius, ((1.5, 0.0, r), (-1.5, 0.0, r)))
        for x1, x2 in ((radius, 0.0), (1.5, r)):
            m = parse_map(f"dim 2\nmap g1 = {Decimal(x1)}\nmap g2 = {Decimal(x2)}\n")
            certify_holes(m, spec, max_depth=10, max_boxes=3000)
    _check_sound(undecidable, rng)


def test_cone_slices(undecidable):
    # A constant on the level set l = a meets the slice-a condition with
    # equality in both forms.  Dyadic coordinates keep l(T) exact.
    rng = random.Random(13)
    for _ in range(6):
        a = rng.randrange(20, 64) / 64
        b = a + rng.uniform(0.5, 1.5)
        x1 = rng.randrange(1, round(64 * a)) / 64
        for functional, point in ((Functional.ones(2), (x1, a - x1)),
                                  (Functional.sup(), (a, x1))):
            m = parse_map(f"dim 2\nmap g1 = {point[0]!r}\nmap g2 = {point[1]!r}\n")
            for form in ("expansive", "compressive"):
                certify_cone_shell(m, ConeShellSpec(2, functional, a, b), form,
                                   max_depth=10, max_boxes=3000)
    _check_sound(undecidable, rng)


def test_random_problems(undecidable):
    # Mostly decidable boxes: a rule that stopped one of them early would
    # leave a sub-box that verifies or is violated.
    rng = random.Random(14)
    for _ in range(30):
        m, r = random_rect_problem(rng)
        certify_problem(m, r, max_depth=10, max_boxes=2000)
        m, cyl, form = random_cylinder_problem(rng)
        certify_problem(m, cyl, form=form, max_depth=10, max_boxes=2000)
    for _ in range(5):
        m, spec, form = random_cone_problem(rng)
        certify_problem(m, spec, form=form, max_depth=10, max_boxes=2000)
    _check_sound(undecidable, rng, require=False)


def test_box_no_split_can_shrink_is_unresolved_at_once():
    # Bisecting a coordinate one ulp wide returns the box unchanged as one
    # half, so splitting it again and again would only spend the budget.
    box = Box.from_bounds([(1.0, math.nextafter(1.0, math.inf))])
    cover = subdivision.adaptive_cover([box], lambda b: (subdivision.UNKNOWN, None),
                                       max_depth=30, max_boxes=1000)
    assert cover.boxes_examined == 1 and cover.unresolved_count == 1


# The rule must not stop boxes that smaller boxes can decide.  In both maps
# below a box's bound touches the refutation threshold while every point of
# the region verifies with a margin.

def test_touching_bound_with_verifying_witness_is_split():
    # On the face x1 = 0 the bound of g1 reaches 0 exactly, while g1 itself
    # is -2^-11 there; only faces narrower than 2^-11 verify.
    d = 2.0 ** -10
    m = parse_map(f"dim 2\nmap g1 = 5*x1 - {d!r} + min({d!r}, x2 - x2 + {d / 2!r})\n"
                  "map g2 = 0.5 + 0.25*x2\n")
    cert = certify_problem(m, RectDomain(Box.from_bounds([(0, 1), (0, 1)])))
    assert cert.outcome == CERTIFIED
    assert cert.directions == ("e", "c")


def test_irrelevant_witness_is_split():
    # T1 = R within 1/4 of the origin, inside the hole of radius 1/2 there
    # (irrelevant points, whose |T|^2 lies in the rounding band of R^2), and
    # T1 <= R - 3/16 on and outside the hole's circle.  The root box's
    # midpoint is the origin: the box's bound touches the band, but the box
    # must still be split, and the outer condition verifies.
    radius = 4.3
    spec = HoledBallSpec(radius, ((0.0, 0.0, 0.5), (2.5, 0.0, 0.5)))
    m = parse_map(f"dim 2\nmap g1 = {Decimal(radius)} - min(0.25, max(0, x1^2 + x2^2 - 0.0625))\n"
                  "map g2 = 0\n")
    cert = certify_holes(m, spec, max_depth=12, max_boxes=20000)
    outer = [e for e in cert.evidence if e.face == "outer"]
    assert outer and all(e.relation == "<=" for e in outer)
