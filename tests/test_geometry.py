import math
import random
import time
from fractions import Fraction

import pytest

from fpcert.geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    Functional,
    HoledBallSpec,
    RectDomain,
    face,
    parse_domain,
)
from fpcert.interval import Box, Interval
from fpcert.mapdsl import ParseError, flip_coordinates, parse_map


def _rect01_2d():
    return RectDomain(Box.from_bounds([(0, 1), (0, 1)]))


def test_face_pins_coordinate():
    r = _rect01_2d()
    f = face(r.box, 0, "-")
    assert f.coords[0] == Interval(0.0)
    assert f.coords[1] == Interval(0.0, 1.0)
    f = face(r.box, 1, "+")
    assert f.coords[1] == Interval(1.0)
    with pytest.raises(IndexError):
        face(r.box, 2, "-")
    with pytest.raises(ValueError):
        face(r.box, 0, "0")


def test_flip_simple():
    m = parse_map("dim 1\nmap g1 = x1 + 1\n")
    flipped = flip_coordinates(m, {0})
    for x in (0.0, 0.5, 2.0, -1.25):
        assert flipped.eval_real((x,)) == (x - 1.0,)


def test_flip_swap_example():
    m = parse_map("dim 2\nmap g1 = x2\nmap g2 = x1\n")
    flipped = flip_coordinates(m, {0})
    assert flipped.eval_real((3.0, 5.0)) == (1.0, 3.0)  # (2x - y, x)


def test_transform_constant_and_identity():
    const = parse_map("dim 2\nmap g1 = 0.75\nmap g2 = x2\n")
    s = flip_coordinates(const, {0})
    assert s.eval_real((1.0, 0.0)) == (2.0 - 0.75, 0.0)
    ident = parse_map("dim 2\nmap g1 = x1\nmap g2 = x2\n")
    s = flip_coordinates(ident, {0})
    rng = random.Random(9)
    for _ in range(100):
        p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert s.eval_real(p) == p


def test_holed_ball_validation():
    HoledBallSpec(4.0, ((2, 0, 0.5), (-2, 0, 0.5)))
    with pytest.raises(ValueError):
        HoledBallSpec(4.0, ((2, 0, 0.5), (2.4, 0, 0.5)))  # overlapping
    with pytest.raises(ValueError):
        HoledBallSpec(1.0, ((2, 0, 0.5),))  # escapes the ball


def test_holed_ball_decides_containment_and_disjointness_exactly():
    # The floats 2.2 and 0.8 sum to more than 3, though their float sum is
    # 3.0: the closed hole leaves the ball.
    assert 2.2 + 0.8 == 3.0 and Fraction(2.2) + Fraction(0.8) > 3
    with pytest.raises(ParseError, match=r"hole at \(2\.2, 0\.0\) not contained in the ball"):
        parse_domain("domain holedball R=3 hole (2.2,0,0.8) hole (-2,0,0.5)", 2)
    # Rounded, the distance of the centres exceeds the sum of the radii;
    # exactly it does not.
    holes = ((-1.6, -0.3, 0.5), (-1.5, 0.5, 0.30622577482985497))
    assert math.hypot(-1.6 - -1.5, -0.3 - 0.5) > 0.5 + 0.30622577482985497
    with pytest.raises(ValueError, match="holes 0 and 1 are not disjoint"):
        HoledBallSpec(4.0, holes)
    HoledBallSpec(3.0, ((2.5, 0.0, 0.5), (-2.0, 0.0, 0.5)))  # touches the outer circle
    rng = random.Random(11)
    for _ in range(2000):
        radius = rng.uniform(2.0, 5.0)
        holes = tuple((rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, 1))
                      for _ in range(2))
        (xi, yi, ri), (xj, yj, rj) = [tuple(map(Fraction, h)) for h in holes]
        inside = all(r <= radius and x * x + y * y <= (Fraction(radius) - r) ** 2
                     for x, y, r in ((xi, yi, ri), (xj, yj, rj)))
        apart = (xi - xj) ** 2 + (yi - yj) ** 2 > (ri + rj) ** 2
        try:
            HoledBallSpec(radius, holes)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (inside and apart), (radius, holes)


@pytest.mark.parametrize("radius, holes", [
    (math.nan, ()),
    (math.inf, ()),
    (4.0, ((2.0, 0.0, math.nan), (-2.0, 0.0, 0.5))),
    (4.0, ((math.nan, 0.0, 0.5), (-2.0, 0.0, 0.5))),
    (4.0, ((2.0, math.nan, 0.5), (-2.0, 0.0, 0.5))),
])
def test_holed_ball_rejects_non_finite_values(radius, holes):
    with pytest.raises(ValueError, match="finite"):
        HoledBallSpec(radius, holes)


@pytest.mark.parametrize("a, b", [
    (0.5, math.inf), (math.nan, 2.0), (0.5, math.nan), (-math.inf, 2.0),
])
def test_cone_shell_and_annulus_reject_non_finite_values(a, b):
    with pytest.raises(ValueError, match="finite"):
        ConeShellSpec(2, Functional("linear"), a, b)
    with pytest.raises(ValueError, match="finite"):
        ConeShellSpec(2, Functional("sup"), a, b)
    with pytest.raises(ValueError):
        AnnulusSpec(abs(a), b)


@pytest.mark.parametrize("pairs, expected", [
    ([(1e-300, 2e-300), (0.0, 1.0)], (1e-300, 1.0000000000000002)),
    ([(1e295, 1e296), (1.0, 2.0)], (1e295, 1.0000000000000002e296)),
])
def test_sum_level_is_the_directed_sum_of_the_endpoints(pairs, expected):
    # The exact directed sum, with no ulp of widening on endpoints outside
    # [1e-280, 1e290].
    assert Functional("linear").value_pair(pairs) == expected


def test_sum_shell_bounding_box_and_json():
    tiny = parse_domain("domain coneshell l=sum a=0 b=1e-300", 2)
    assert tiny.bounding_box().coords == (Interval(0.0, 1e-300),) * 2
    shell = parse_domain("domain coneshell l=sum a=0.5 b=2", 2)
    assert shell.to_json_dict() == {"type": "coneshell", "functional": "linear", "a": 0.5,
                                    "b": 2.0, "dim": 2, "coeffs": [1.0, 1.0]}


def test_cylinder_validation():
    with pytest.raises(ValueError):
        CylinderSpec(Interval(1.0, 1.0), Box.from_bounds([(0, 1)]))


@pytest.mark.parametrize("build, error, message", [
    (lambda: RectDomain(Box.from_bounds([(0, 1), (2, 2)])),
     ValueError, "rectangle coordinate 1 must have positive width"),
    (lambda: CylinderSpec(Interval(0.0, 1.0), Box.from_bounds([(3, 3)])),
     ValueError, "cylinder base coordinate 0 must have positive width"),
    (lambda: Functional("l1"), ValueError, "unknown functional kind 'l1'"),
    (lambda: ConeShellSpec(0, Functional("linear"), 0.5, 2.0),
     ValueError, "cone shell needs dimension >= 1"),
    (lambda: ConeShellSpec(2, Functional("linear"), -0.5, 2.0),
     ValueError, "linear-functional shell needs a >= 0"),
    (lambda: ConeShellSpec(2, Functional("euclid"), 0.0, 2.0),
     ValueError, "norm shell needs 0 < a"),
    (lambda: flip_coordinates(parse_map("dim 2\nmap g1 = x1\nmap g2 = x2\n"), {2}),
     IndexError, "axis 2 out of range for dimension 2"),
], ids=["rect-zero-width", "cylinder-base-zero-width", "functional-kind",
        "cone-shell-dimension-0", "sum-shell-negative-a", "norm-shell-zero-a",
        "flip-axis"])
def test_constructor_refuses_a_bad_argument(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("dim, canonical, spellings", [
    (2, "domain rect [0,1] [-1,1]", [
        "  domain   rect[ 0 , 1 ]   [-1,1]  ",
        "domain rect [+0,+1] [-1.,1e0]",
        "domain rect [0.0,10e-1]\t[-.1E1,0.001e+3]",
        "\tdomain\u00a0rect\u2003[0,1][-1,1]",
    ]),
    (2, "domain cylinder [0,1] base [0,1]", [
        "domain cylinder[0,1]base[0,1]",
        "domain cylinder [ 0 , 1 ]  base  [ 0 , 1 ]",
    ]),
    (3, "domain coneshell l=sum a=0.5 b=2", [
        "domain coneshell l = sum a = 5e-1 b = +2.0",
        "domain coneshell  l=sum  a=.5  b=2.",
    ]),
    (2, "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)", [
        "domain holedball R = 4 hole( 2 , 0 , .5 )hole (-2e0,+0,5E-1)",
        "domain holedball R=4.0\thole (2,0,0.5)  hole\t(-2,0,0.5)",
    ]),
    (2, "domain annulus r1=1 r2=2", ["domain annulus r1 = 1.0 r2 = 2e0"]),
])
def test_parse_domain_accepted_spellings(dim, canonical, spellings):
    expected = parse_domain(canonical, dim)
    for line in spellings:
        assert parse_domain(line, dim) == expected, line


@pytest.mark.parametrize("line", [
    "domain rect [\u0661,2]", "domain rect [1_0,2]", "domain rect [nan,1]",
    "domain rect [0,inf]", "domain rect [0,1e400]", "domain rect [0,1] [0,1]",
    "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)",
    "domain coneshell l=sum a=abc b=2", "domain coneshell l=sum a=1 a=2 b=3",
])
def test_parse_domain_errors_name_the_line(line):
    with pytest.raises(ParseError, match=r"\(line 7\)$"):
        parse_domain(line, 1, 7)


def test_parse_domain_reads_long_numbers_in_linear_time():
    # A number pattern with two ways to split the same digits backtracks
    # quadratically: seconds on 20,000 digits.
    digits = "1" * 20000
    for line in (f"domain rect [0,{digits}x]", f"domain rect [0,{digits}.{digits}e]",
                 f"domain rect [0,{digits}]"):
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            parse_domain(line, 1, 3)
        assert time.perf_counter() - t0 < 1.0
    expected = parse_domain("domain rect [0,0.1111111111111111]", 1)
    assert parse_domain(f"domain rect [0,0.{digits}]", 1) == expected


def test_parse_domain_forms():
    r = parse_domain("domain rect [0,1] [0,1]", 2)
    assert isinstance(r, RectDomain)
    c = parse_domain("domain cylinder [0,1] base [0,1]", 2)
    assert isinstance(c, CylinderSpec)
    k = parse_domain("domain coneshell l=sup a=0.5 b=2", 3)
    assert isinstance(k, ConeShellSpec) and k.functional.kind == "sup"
    h = parse_domain("domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)", 2)
    assert isinstance(h, HoledBallSpec) and len(h.holes) == 2
    a = parse_domain("domain annulus r1=1 r2=2", 2)
    assert isinstance(a, AnnulusSpec)
