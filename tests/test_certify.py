import json
import math
import random
from fractions import Fraction

import pytest

from fpcert import catalog
from fpcert.certify import (
    ANNULUS_REFUSAL,
    CERTIFIED,
    INDETERMINATE,
    REFUTED,
    CertStats,
    Condition,
    SingleHoleError,
    UnsupportedDomainError,
    check,
    certify_cone_shell,
    certify_cylinder,
    certify_holes,
    certify_miranda,
    certify_problem,
    _holed_ball_conditions,
    _mean_value_pairs,
)
from fpcert.degree import holes_index_cross_check
from fpcert.geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    Functional,
    HoledBallSpec,
    RectDomain,
    parse_domain,
)
from fpcert.interval import (
    Box,
    DimensionMismatchError,
    DomainError,
    Interval,
    mul_down,
    mul_up,
)
from fpcert.mapdsl import flip_coordinates, jacobian, parse_map, parse_program
from fpcert.subdivision import UNKNOWN, VERIFIED, VIOLATED

from corpus import random_edge_problem, random_holed_ball_problem
from oracles import grid_zoom_min, kernel_side, mp_eval


def rect(*bounds):
    return RectDomain(Box.from_bounds(bounds))


# ---------------------------------------------------------------------------
# Miranda
# ---------------------------------------------------------------------------


def test_miranda_constant():
    cert = certify_miranda(parse_map("dim 1\nmap g1 = 0.5\n"), rect((0, 1)))
    assert cert.outcome == CERTIFIED
    assert cert.directions == ("c",)


def test_miranda_linear_2d():
    m = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
    cert = certify_miranda(m, rect((0, 1), (0, 1)))
    assert cert.outcome == CERTIFIED
    assert cert.directions == ("e", "c")


def test_miranda_translation_refuted_with_witnesses():
    m = parse_map("dim 1\nmap g1 = x1 + 1\n")
    c_compressive = certify_miranda(m, rect((0, 1)), directions=("c",))
    assert c_compressive.outcome == REFUTED
    assert c_compressive.witness == (1.0,)
    c_expansive = certify_miranda(m, rect((0, 1)), directions=("e",))
    assert c_expansive.outcome == REFUTED
    assert c_expansive.witness == (0.0,)
    auto = certify_miranda(m, rect((0, 1)))
    assert auto.outcome == REFUTED and auto.witness is not None


def test_miranda_refuted_witness_reverified():
    m = parse_map("dim 1\nmap g1 = x1 + 1\n")
    cert = certify_miranda(m, rect((0, 1)), directions=("c",))
    (w,) = (cert.witness,)
    point = Box((Interval(w[0]),))
    img = m.eval_component_interval(0, point)
    # (c) on the upper face requires g <= 1; the witness violates strictly
    assert img.lo > 1.0


def _unresolved_faces(cert):
    return {e.face for e in cert.evidence if e.relation == "unresolved"}


def test_miranda_equality_abstains():
    # g1 = x1 satisfies the x1-face conditions with equality only; the
    # faces are undecidable at once, not after the whole box budget
    for source, domain in (
        ("dim 1\nmap g1 = x1\n", rect((0, 1))),
        ("dim 2\nmap g1 = x1\nmap g2 = 0.5 + 0.25*x2\n", rect((0, 1), (0, 1))),
    ):
        cert = certify_miranda(parse_map(source), domain)
        assert cert.outcome == INDETERMINATE
        assert cert.stats.boxes <= 16
        assert _unresolved_faces(cert) == {"x1-", "x1+"}


def test_miranda_monotone_refinement():
    m = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
    base = certify_miranda(m, rect((0, 1), (0, 1)), max_depth=3)
    assert base.outcome == CERTIFIED
    for depth in (4, 6, 10, 24):
        assert certify_miranda(m, rect((0, 1), (0, 1)), max_depth=depth).outcome == CERTIFIED


def test_miranda_flip_duality_fixed_case():
    m = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
    r = rect((0, 1), (0, 1))
    flipped = flip_coordinates(m, {0})
    direct = certify_miranda(m, r, directions=("e", "c"))
    dual = certify_miranda(flipped, r, directions=("c", "c"))
    assert direct.outcome == dual.outcome == CERTIFIED


def test_miranda_nonlinear():
    cert = certify_miranda(parse_map("dim 1\nmap g1 = cos(x1)\n"), rect((0, 1)))
    assert cert.outcome == CERTIFIED


# The naive enclosure of x^2 - x + 1 over [0, 1] is [0, 2], though its
# minimum is 0.75: dividing by it raises on the whole face, not on its halves.
_RATIONAL = "0.5/(x{i}^2 - x{i} + 1)"


def test_rational_map_certified_by_splitting_failed_boxes():
    m = parse_map("dim 2\nmap g1 = " + _RATIONAL.format(i=2)
                  + "\nmap g2 = " + _RATIONAL.format(i=1) + "\n")
    cert = certify_miranda(m, rect((0, 1), (0, 1)))
    assert cert.outcome == CERTIFIED
    assert grid_zoom_min(m, [(0.0, 1.0), (0.0, 1.0)])[1] <= 1e-8
    one_d = parse_map("dim 1\nmap g1 = " + _RATIONAL.format(i=1) + "\n")
    assert certify_miranda(one_d, rect((0, 1))).outcome == CERTIFIED
    assert grid_zoom_min(one_d, [(0.0, 1.0)])[1] <= 1e-8


def test_unresolved_box_that_fails_to_evaluate_serialises():
    m = parse_map("dim 2\nmap g1 = " + _RATIONAL.format(i=2) + "\nmap g2 = 0.5\n")
    cert = certify_miranda(m, rect((0, 1), (0, 1)), max_depth=0)
    assert cert.outcome == INDETERMINATE
    payload = json.loads(cert.to_json(stable=True))
    unresolved = [e for e in payload["evidence"] if e["relation"] == "unresolved"]
    assert unresolved and all(e["bound"] is None for e in unresolved)
    assert {e["face"] for e in unresolved} <= {"x1-", "x1+"}


def test_refutation_the_witness_point_does_not_confirm_is_indeterminate():
    # The first condition's bound violates <= 1 on every box of positive
    # width, but holds at the witness point: its cover stops on a violated
    # box that cannot refute, and the next condition is still checked.
    def bound(box):
        return (0.0, 0.0) if box.coords[0].lo == box.coords[0].hi else (2.0, 3.0)

    seeds = (Box.from_bounds([(0, 1)]),)
    unconfirmed = Condition("a", seeds, bound, (-math.inf, 1.0))
    holds = Condition("b", seeds, lambda box: (0.0, 0.0), (-math.inf, 1.0))
    status, evidence, witness = check([unconfirmed, holds], 24, 1000, CertStats())
    assert status == INDETERMINATE and witness is None
    assert [(e.face, e.bound, e.relation, e.threshold) for e in evidence] == [
        ("b", (0.0, 0.0), "<=", 1.0)]


# The rule conditions used before they carried targets, in its threshold
# form: for '<=' and '>=' a (verify, refute) pair, for 'in' the interval.
def _threshold_fails(relation, threshold, lo, hi):
    t0, t1 = threshold
    if relation == "<=":
        return lo > t1
    if relation == ">=":
        return hi < t1
    return lo > t1 or hi < t0


def _threshold_verdict(relation, threshold, strict, lo, hi):
    t0, t1 = threshold
    if relation == "<=":
        holds = hi < t0 if strict else hi <= t0
    elif relation == ">=":
        holds = lo > t0 if strict else lo >= t0
    else:
        holds = (t0 < lo and hi < t1) if strict else (t0 <= lo and hi <= t1)
    if holds:
        return VERIFIED
    return VIOLATED if _threshold_fails(relation, threshold, lo, hi) else UNKNOWN


def _target_condition(relation, threshold, strict):
    t0, t1 = threshold
    if relation == "in":
        return Condition("c", (), None, (t0, t1), strict=strict)
    target, refute = ((-math.inf, t0), (-math.inf, t1)) if relation == "<=" else (
        (t0, math.inf), (t1, math.inf))
    return Condition("c", (), None, target, strict=strict,
                     refute=None if refute == target else refute)


def test_target_rule_decides_as_the_threshold_rule():
    r2 = (mul_down(0.1, 0.1), mul_up(0.1, 0.1))  # a squared radius: r^2 down, r^2 up
    assert r2[0] < r2[1]
    cases = [(rel, (t, t)) for rel in ("<=", ">=") for t in (1.0, 0.0, -0.0, -2.5)]
    cases += [("in", t) for t in ((0.0, 1.0), (-0.0, 0.0), (0.0, -0.0), (-1.0, -0.0))]
    cases += [("<=", r2)]
    box = Box.from_bounds([(0, 1)])
    tags = {}  # (relation, strict) -> the verdicts met
    for relation, threshold in cases:
        ends = [-3.0, -0.0, 0.0, 3.0]
        for t in threshold:
            ends += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        ends = {repr(x): x for x in ends}.values()  # keeps both -0.0 and 0.0
        pairs = [(lo, hi) for lo in ends for hi in ends if lo <= hi]
        for strict in (True, False):
            cond = _target_condition(relation, threshold, strict)
            for lo, hi in pairs:
                want = _threshold_verdict(relation, threshold, strict, lo, hi)
                assert cond.verdict((lo, hi)) == want, (relation, threshold, strict, lo, hi)
                assert cond.fails(lo, hi) == _threshold_fails(relation, threshold, lo, hi)
                tags.setdefault((relation, strict), set()).add(want)
            entry = cond.entry(box, (0.0, 1.0))
            assert entry.relation == relation
            # repr tells -0.0 from 0.0, as the JSON does
            want = threshold[1] if relation == "in" else threshold[0]
            assert repr(entry.threshold) == repr(want), (relation, threshold)
    assert len(tags) == 6 and all(t == {VERIFIED, VIOLATED, UNKNOWN} for t in tags.values())
    # The split: a bound between the two roundings neither verifies nor fails.
    between = (r2[0], r2[1])
    assert _target_condition("<=", r2, False).verdict(between) == UNKNOWN


# ---------------------------------------------------------------------------
# Cylinder
# ---------------------------------------------------------------------------


def _cyl01():
    return CylinderSpec(Interval(0, 1), Box.from_bounds([(0, 1)]))


def test_cylinder_constant_compressive():
    T = parse_map("dim 2\nmap g1 = 0.5\nmap g2 = 0.5\n")
    cert = certify_cylinder(T, _cyl01(), "compressive")
    assert cert.outcome == CERTIFIED
    assert cert.kind == "cylinder_compressive"


def test_cylinder_height_identity_is_indeterminate():
    # T1 = t holds the compressive conditions with equality only
    T = parse_map("dim 2\nmap g1 = x1\nmap g2 = 0.5\n")
    cert = certify_cylinder(T, _cyl01(), "compressive")
    assert cert.outcome == INDETERMINATE
    assert cert.stats.boxes <= 16
    assert _unresolved_faces(cert) == {"left", "right"}


def test_cylinder_linear_expansive():
    T = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
    cert = certify_cylinder(T, _cyl01(), "expansive")
    assert cert.outcome == CERTIFIED


def test_cylinder_translation_refuted_both_forms():
    T = parse_map("dim 2\nmap g1 = x1 + 1\nmap g2 = x2\n")
    for form in ("expansive", "compressive"):
        cert = certify_cylinder(T, _cyl01(), form, max_boxes=2000)
        assert cert.outcome == REFUTED


def test_cylinder_containment_failure():
    T = parse_map("dim 2\nmap g1 = 0.5\nmap g2 = x2 + 5\n")
    cert = certify_cylinder(T, _cyl01(), "expansive")
    assert cert.outcome == REFUTED
    assert cert.witness is not None


def test_cylinder_containment_failure_below():
    # The image lies below the base, the lower side of the 'in' rule; the
    # heights hold, so only the base containment can refute.
    T = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = x2 - 5\n")
    cert = certify_cylinder(T, _cyl01(), "expansive")
    assert cert.outcome == REFUTED
    assert [e.face for e in cert.evidence if e.relation == "in"] == ["interior"]


def test_cylinder_duality_by_construction():
    rng = random.Random(42)
    from corpus import random_cylinder_problem

    for _ in range(25):
        T, cyl, _form = random_cylinder_problem(rng)
        comp = certify_cylinder(T, cyl, "compressive", max_boxes=4000)
        exp = certify_cylinder(flip_coordinates(T, {0}), cyl, "expansive",
                               max_boxes=4000)
        assert comp.outcome == exp.outcome
        assert comp.evidence == exp.evidence
        assert comp.witness == exp.witness


def test_edge_problems_sit_on_the_computed_bound_and_hold_the_true_value():
    # The fuzz's edge-margin stream: a base side is g2's computed bound, and
    # the oracle decides the true value's side exactly, down to the ulp.
    mpmath = pytest.importorskip("mpmath")
    # tanh(11/1024) lies 1.8e-19 above this float (ROADMAP item 12).
    assert kernel_side(mpmath, "tanh", ["0.0107421875"], 0.010741774322289108) == 1
    assert kernel_side(mpmath, "*", ["0.1", "3"], 0.30000000000000004) == -1
    assert kernel_side(mpmath, "/", ["-1", "4"], -0.25) == 0
    assert kernel_side(mpmath, "sqrt", ["0.25"], 0.5) == 0
    rng = random.Random(12)
    kernels = set()
    for k in range(210):
        m, cyl, kernel, literals, top = random_edge_problem(rng)
        kernels.add(kernel)
        lo, hi = m.components[1].eval_pair(())
        base = cyl.base.coords[0]
        if top:
            assert base.hi == hi and base.lo < lo
        else:
            assert base.lo == lo and base.hi > hi
        assert kernel_side(mpmath, kernel, literals, lo) >= 0, (kernel, literals)
        assert kernel_side(mpmath, kernel, literals, hi) <= 0, (kernel, literals)
        if k % 30 == 0:
            assert certify_cylinder(m, cyl, "expansive").outcome == CERTIFIED
    assert kernels == {"sin", "cos", "exp", "tanh", "sqrt", "*", "/"}


# ---------------------------------------------------------------------------
# Cone shell
# ---------------------------------------------------------------------------


def test_cone_quadratic_expansive():
    T = parse_map("dim 2\nmap g1 = (x1 + x2)*x1\nmap g2 = (x1 + x2)*x2\n")
    spec = ConeShellSpec(2, Functional("linear"), 0.5, 2.0)
    cert = certify_cone_shell(T, spec, "expansive")
    assert cert.outcome == CERTIFIED
    # grid oracle: residual minima on the slice x1 + x2 = 1
    point, res = grid_zoom_min(
        T, [(0.0, 2.0), (0.0, 2.0)],
        keep=lambda p: 0.5 <= p[0] + p[1] <= 2.0,
    )
    assert res <= 1e-9
    assert abs(point[0] + point[1] - 1.0) <= 1e-6


def test_cone_constant_compressive():
    T = parse_map("dim 2\nmap g1 = 0.75\nmap g2 = 0.75\n")
    spec = ConeShellSpec(2, Functional("linear"), 1.0, 2.0)
    cert = certify_cone_shell(T, spec, "compressive")
    assert cert.outcome == CERTIFIED


def test_cone_scaling_refuted_both_forms():
    T = parse_map("dim 2\nmap g1 = 3*x1\nmap g2 = 3*x2\n")
    spec = ConeShellSpec(2, Functional("linear"), 1.0, 2.0)
    for form in ("expansive", "compressive"):
        cert = certify_cone_shell(T, spec, form)
        assert cert.outcome == REFUTED
        assert cert.witness is not None
        level = sum(cert.witness)
        assert abs(level - 1.0) < 1e-6 or abs(level - 2.0) < 1e-6


@pytest.mark.parametrize(
    "source,functional,shell,form",
    [
        ("dim 2\nmap g1 = 0.6\nmap g2 = 0.8\n", Functional("euclid"), (0.5, 2.0),
         "compressive"),
        ("dim 2\nmap g1 = 1.5\nmap g2 = 0.3\n", Functional("sup"), (1.0, 2.0),
         "compressive"),
        ("dim 2\nmap g1 = sqrt(x1^2 + x2^2)*x1\nmap g2 = sqrt(x1^2 + x2^2)*x2\n",
         Functional("euclid"), (0.5, 2.0), "expansive"),
    ],
    ids=["euclid-constant", "sup-constant", "euclid-quadratic"],
)
def test_cone_other_functionals(source, functional, shell, form):
    spec = ConeShellSpec(2, functional, *shell)
    cert = certify_cone_shell(parse_map(source), spec, form)
    assert cert.outcome == CERTIFIED


def test_cone_rotation_leaves_cone():
    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    spec = ConeShellSpec(2, Functional("euclid"), 1.0, 2.0)
    for form in ("expansive", "compressive"):
        assert certify_cone_shell(rot, spec, form).outcome == REFUTED


# ---------------------------------------------------------------------------
# Holed ball
# ---------------------------------------------------------------------------


def _two_holes():
    return HoledBallSpec(4.0, ((2.0, 0.0, 0.5), (-2.0, 0.0, 0.5)))


def test_holes_two_certified_index():
    T = parse_map("dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n")
    cert = certify_holes(T, _two_holes(), max_depth=20)
    assert cert.outcome == CERTIFIED
    assert cert.index == -1


def test_holes_cross_check_agrees():
    T = parse_map("dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n")
    cc = holes_index_cross_check(T, _two_holes())
    assert cc == -1


@pytest.mark.parametrize("form", ["expansive", "compressive", "bogus"])
def test_holes_take_form_auto_only(form):
    T = parse_map("dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n")
    assert certify_problem(T, _two_holes()).outcome == CERTIFIED
    with pytest.raises(ValueError, match=f"form 'auto' only, not '{form}'"):
        certify_problem(T, _two_holes(), form=form)


def test_holes_single_refused():
    T = parse_map("dim 2\nmap g1 = 0\nmap g2 = 0\n")
    with pytest.raises(SingleHoleError):
        certify_holes(T, HoledBallSpec(4.0, ((0.0, 0.0, 0.5),)))


def test_holes_constant_into_one_hole_refuted():
    T = parse_map("dim 2\nmap g1 = 2\nmap g2 = 0\n")
    cert = certify_holes(T, _two_holes())
    assert cert.outcome == REFUTED
    # witness sits on the other hole's boundary
    wx, wy = cert.witness
    assert abs((wx + 2.0) ** 2 + wy ** 2 - 0.25) < 1e-6


def test_holed_ball_cover_seeds_hold_each_circle_exactly():
    # Rounded to nearest, a side of a seed can fall inside its circle:
    # fl(2 + 0.3) < 2 + 0.3, so part of the circle (2, 0, 0.3) would lie in
    # no cover box and go unchecked.
    T = parse_map("dim 2\nmap g1 = 0\nmap g2 = 0\n")
    rng = random.Random(3)
    holes = [(2.0, 0.0, 0.3)] + [(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, 1))
                                 for _ in range(2000)]
    for cx, cy, r in holes:
        outer, hole = _holed_ball_conditions(T, None, HoledBallSpec(10.0, ((cx, cy, r),)))
        assert outer.seeds == (Box.from_bounds([(-10.0, 10.0), (-10.0, 10.0)]),)
        (seed,) = hole.seeds
        for c, centre in zip(seed.coords, (cx, cy)):
            assert Fraction(c.lo) <= Fraction(centre) - Fraction(r), (cx, cy, r)
            assert Fraction(c.hi) >= Fraction(centre) + Fraction(r), (cx, cy, r)


# Mean-value bounds: maps of the holed-ball corpus, and hand-written maps
# with kinks, quotients and roots, whose derivative may raise on a box.
_KINKED_MAPS = (
    "dim 2\nmap g1 = x1 - 0.3*abs(x1 - x2) + 0.1*x2\nmap g2 = min(x1, 0.5*x2) + 0.2*x1*x2\n",
    "dim 2\nmap g1 = x1/(2 + x2^2) - 0.1*x1\nmap g2 = sqrt(1 + x1^2) - x2/3\n",
    "dim 2\nmap g1 = x1 - sin(x1)/(1.5 + cos(x2))\n"
    "map g2 = sqrt(abs(x1 - 1)) - max(x2, 0.2*x1)\n",
    "dim 2\nmap g1 = 0.5*(x1 + abs(x1)) - 1/(3 + x1*x2)\n"
    "map g2 = x2 - 0.25*sqrt(x1^2 + x2^2 + 1)*x2\n",
    "dim 2\nmap g1 = x1 - 0.2*sqrt(abs(x1*x2))\nmap g2 = 0.5*x2 + 0.1*abs(x1)\n",
)


# Maps whose Jacobian rows hold both signs on nearly every box: each has
# an entry that is zero but written as a difference of equal terms (sin^2 +
# cos^2, an angle sum, exp(a - b) exp(b), a product in two orders), whose
# naive enclosure straddles zero, so they take the mean-value form.
_STRADDLING_MAPS = (
    "dim 2\nmap g1 = 0.5*x1*(cos(x2)^2 + sin(x2)^2)\n"
    "map g2 = x2*(cos(x1)^2 + sin(x1)^2) - 0.2*x2\n",
    "dim 2\nmap g1 = sin(x1)*cos(x2) + cos(x1)*sin(x2) - sin(x1 + x2) + 0.4*x2\n"
    "map g2 = cos(x1 - x2) - cos(x1)*cos(x2) - sin(x1)*sin(x2) + 0.3*x1\n",
    "dim 2\nmap g1 = exp(0.3*x1 - x2)*exp(x2) - x1\nmap g2 = exp(0.2*x2 - x1)*exp(x1) - 0.5*x2\n",
    "dim 2\nmap g1 = x2*x1^2 - x1*x1*x2 + 0.3*x1\nmap g2 = x1*x2^2 - x2*x2*x1 - 0.3*x2\n",
    "dim 2\nmap g1 = x1*x2 - x2*x1 + 0.5*x2\nmap g2 = tanh(x1)*x2 - x2*tanh(x1) + 0.5*x1\n",
    "dim 2\nmap g1 = x1 - 0.1*(x1 + x2)^2 + 0.1*(x1^2 + 2*x1*x2 + x2^2)\n"
    "map g2 = 0.5*x2*exp(x1)*exp(-x1)\n",
    "dim 2\nmap g1 = 0.8*x2*(sin(x1)^2 + cos(x1)^2)\nmap g2 = -0.8*x1*exp(x2)*exp(-x2)\n",
)


def _mean_value_maps(rng):
    maps = [random_holed_ball_problem(rng, 2 + k % 3)[0] for k in range(12)]
    return maps + [parse_map(src) for src in _KINKED_MAPS + _STRADDLING_MAPS]


def _mean_value_boxes(rng, n):
    """Square boxes from 2e-4 to 3 wide about centres in [-3, 3]^2."""
    boxes = []
    for _ in range(n):
        h = 10.0 ** rng.uniform(-4.0, 0.2)
        cx, cy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        boxes.append(Box.from_bounds([(cx - h, cx + h), (cy - h, cy + h)]))
    return boxes


def _sample_points(rng, box):
    (a, b), (c, d) = box.bounds()
    return [(a, c), (b, d), (a, d), (b, c), box.midpoint()] + [
        (rng.uniform(a, b), rng.uniform(c, d)) for _ in range(4)]


def _row_corners(jac, box):
    """Per row of jac: the corners (low, high) of the box where every entry
    of the row over the box is None or keeps one sign, low with each x_j at
    the end where the component is least, else None."""
    xs = box.coords
    out = []
    for row in jac:
        low, high = [], []
        for d, x in zip(row, xs):
            d_lo, d_hi = (0.0, 0.0) if d is None else d.eval_pair(xs)
            if d_lo >= 0.0:
                low.append(x.lo)
                high.append(x.hi)
            elif d_hi <= 0.0:
                low.append(x.hi)
                high.append(x.lo)
            else:
                out.append(None)
                break
        else:
            out.append((tuple(low), tuple(high)))
    return out


def test_mean_value_pairs_enclose_the_image_inside_the_naive_pairs():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1966)
    tighter = raised = 0
    rows = {"corner": 0, "mean-value": 0}
    with mpmath.workdps(40):
        for m in _mean_value_maps(rng):
            jac = jacobian(m)
            for box in _mean_value_boxes(rng, 60):
                try:
                    naive = m.eval_pairs(box)
                except DomainError:
                    continue
                try:
                    pairs = _mean_value_pairs(m, jac, box)
                except DomainError:
                    raised += 1
                    continue
                for (lo, hi), (n_lo, n_hi), corners in zip(pairs, naive,
                                                           _row_corners(jac, box)):
                    assert n_lo <= lo <= hi <= n_hi, (m.to_source(), box.bounds())
                    tighter += (n_lo, n_hi) != (lo, hi)
                    rows["mean-value" if corners is None else "corner"] += 1
                for p in _sample_points(rng, box):
                    xs = [mpmath.mpf(v) for v in p]
                    for comp, (lo, hi) in zip(m.components, pairs):
                        v = mp_eval(mpmath, comp, xs)
                        assert lo <= v <= hi, (m.to_source(), box.bounds(), p)
    assert tighter > 500 and raised >= 5, (tighter, raised)
    assert rows["corner"] > 1500 and rows["mean-value"] > 700, rows


def test_mean_value_sums_round_outward():
    # The mean-value form summed exactly, in rationals, from the same
    # enclosures of g(m) and Dg(X): the computed pair must hold it on every
    # row that takes the form.
    rng = random.Random(2004)
    checked = 0
    for m in _mean_value_maps(rng):
        jac = jacobian(m)
        for box in _mean_value_boxes(rng, 40):
            try:
                naive = m.eval_pairs(box)
                pairs = _mean_value_pairs(m, jac, box)
            except DomainError:
                continue
            xs = box.coords
            ms = box.midpoint()
            point = tuple(Interval(v) for v in ms)
            for comp, row, (lo, hi), (n_lo, n_hi), corners in zip(
                    m.components, jac, pairs, naive, _row_corners(jac, box)):
                if corners is not None:
                    continue
                g_lo, g_hi = comp.eval_pair(point)
                s_lo, s_hi = Fraction(g_lo), Fraction(g_hi)
                for d, x, mj in zip(row, xs, ms):
                    if d is not None:
                        d_lo, d_hi = d.eval_pair(xs)
                        ends = [Fraction(u) * (Fraction(v) - Fraction(mj))
                                for u in (d_lo, d_hi) for v in (x.lo, x.hi)]
                        s_lo += min(ends)
                        s_hi += max(ends)
                assert lo <= max(s_lo, n_lo) and hi >= min(s_hi, n_hi), (
                    m.to_source(), box.bounds())
                checked += 1
    assert checked > 500


def test_corner_rows_hold_both_corner_values():
    # On a row whose Jacobian entries keep one sign, the component is least
    # at one corner and greatest at the opposite one: both values, in
    # mpmath at 60 digits, must lie in the pair.  A corner taken at the
    # wrong end of an axis puts the true least value below the pair.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2004)
    checked = 0
    with mpmath.workdps(60):
        for m in _mean_value_maps(rng):
            jac = jacobian(m)
            for box in _mean_value_boxes(rng, 40):
                try:
                    pairs = _mean_value_pairs(m, jac, box)
                except DomainError:
                    continue
                for comp, (lo, hi), corners in zip(m.components, pairs,
                                                   _row_corners(jac, box)):
                    if corners is None:
                        continue
                    low, high = (mp_eval(mpmath, comp, [mpmath.mpf(v) for v in c])
                                 for c in corners)
                    assert lo <= low <= high <= hi, (m.to_source(), box.bounds())
                    checked += 1
    assert checked > 1000, checked


def test_monotone_pull_map_certifies_at_its_seeds():
    # A map shaped as perfbench's holed balls: h(x1) = x1 - sin(w (x1 - p))/w
    # along the hole axis, with c*w < 1 for its rounded constants c ~ 1/w,
    # so h' >= 0, and a contraction -0.39*x2 across it.  Both rows are
    # monotone on every box, and their corner bounds decide the outer ball
    # and each hole at its seed box: 50 boxes by the mean-value form alone.
    T = parse_map("dim 2\nmap g1 = x1 - 0.60304*sin(1.658264*(x1 + 3.789013))\n"
                  "map g2 = -0.389796*x2\n")
    spec = HoledBallSpec(4.7898, ((-3.789013, 0.0, 0.578156), (0.0, 0.0, 0.578156),
                                  (3.789013, 0.0, 0.578156)))
    cert = certify_holes(T, spec)
    assert cert.outcome == CERTIFIED and cert.index == -2
    assert cert.stats.boxes < 50, cert.stats.boxes


def test_holed_ball_evidence_keeps_the_naive_bound_where_it_decides():
    # Every decided entry records the bound its verdict used: the naive
    # bound where that decides the box, else the mean-value bound.
    rng = random.Random(15)
    kept = tightened = 0
    for k in range(24):
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
        conditions = {c.face: c for c in _holed_ball_conditions(m, jacobian(m), spec)}
        cert = certify_holes(m, spec)
        for e in cert.evidence:
            if e.relation == "unresolved":
                continue
            cond = conditions[e.face]
            tag, bound = cond.classify(e.box)
            assert tag in (VERIFIED, VIOLATED) and bound == e.bound, (k, e)
            naive = cond.bound(e.box)
            if cond.verdict(naive) == tag:
                assert bound == naive, (k, e)
                kept += 1
            else:
                assert naive[0] <= bound[0] and bound[1] <= naive[1], (k, e)
                assert bound != naive, (k, e)
                tightened += 1
    assert kept > 200 and tightened > 30, (kept, tightened)


def test_holed_ball_classify_keeps_the_naive_bound_where_tightening_raises():
    # sqrt(x1^2 + x2^2) has a derivative that divides by zero on every box
    # holding the origin, so the naive bound, which holds, must stand.
    T = parse_map("dim 2\nmap g1 = 1.9*sqrt(x1^2 + x2^2)\nmap g2 = 0.25*x2\n")
    outer, *_holes = _holed_ball_conditions(T, jacobian(T), _two_holes())
    box = Box.from_bounds([(-1.0, 3.5), (-1.0, 1.0)])
    naive = outer.bound(box)
    assert outer.verdict(naive) == UNKNOWN
    with pytest.raises(DomainError):
        outer.tighten(box)
    assert outer.classify(box) == (UNKNOWN, naive)


# ---------------------------------------------------------------------------
# Dispatch, refusals, JSON
# ---------------------------------------------------------------------------


def test_annulus_refused_with_message():
    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    with pytest.raises(UnsupportedDomainError) as err:
        certify_problem(rot, AnnulusSpec(1.0, 2.0))
    assert "false in finite dimension" in str(err.value)
    assert "false in finite dimension" in ANNULUS_REFUSAL


_PLANE = parse_map("dim 2\nmap g1 = 0.5\nmap g2 = 0.5\n")
_CYLINDER = CylinderSpec(Interval(0.0, 1.0), Box.from_bounds([(0, 1)]))
_SHELL = ConeShellSpec(2, Functional("linear"), 0.5, 2.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: certify_miranda(_PLANE, rect((0, 1), (0, 1)), directions=("e",)),
     ValueError, "directions must be 'auto' or a tuple of 'e'/'c'"),
    (lambda: certify_miranda(_PLANE, rect((0, 1), (0, 1)), directions="ex"),
     ValueError, "directions must be 'auto' or a tuple of 'e'/'c'"),
    (lambda: certify_miranda(_PLANE, rect((0, 1))),
     DimensionMismatchError, "map of dim 2 over rectangle of dim 1"),
    (lambda: certify_cylinder(_PLANE, _CYLINDER, "auto"),
     ValueError, "form must be 'expansive' or 'compressive'"),
    (lambda: certify_cone_shell(_PLANE, _SHELL, "auto"),
     ValueError, "form must be 'expansive' or 'compressive'"),
    (lambda: certify_problem(_PLANE, rect((0, 1), (0, 1)), form="sideways"),
     ValueError, "unknown form 'sideways'"),
    (lambda: certify_problem(_PLANE, _CYLINDER, form="sideways"),
     ValueError, "unknown form 'sideways'"),
    (lambda: certify_problem(_PLANE, Box.from_bounds([(0, 1), (0, 1)])),
     UnsupportedDomainError, "no certificate for domain Box"),
], ids=["miranda-short-directions", "miranda-unknown-direction", "miranda-dimension",
        "cylinder-form", "cone-shell-form", "problem-rect-form", "problem-cylinder-form",
        "problem-domain"])
def test_certifier_refuses_bad_arguments(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_rotation_never_certified():
    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    shell = ConeShellSpec(2, Functional("euclid"), 1.0, 2.0)
    assert certify_problem(rot, shell, max_boxes=4000).outcome == REFUTED
    offset = rect((1, 2), (1, 2))
    assert certify_problem(rot, offset, max_boxes=4000).outcome == REFUTED
    origin = rect((-1, 1), (-1, 1))
    assert certify_problem(rot, origin, max_boxes=4000).outcome == INDETERMINATE


@pytest.mark.parametrize("max_boxes", [7, 8, 9])
def test_auto_form_refutes_only_when_both_forms_do(max_boxes):
    # With these budgets compressive is REFUTED and expansive INDETERMINATE
    program = parse_program(catalog.get("cone-quadratic-expansive").source)
    domain = parse_domain(program.domain_line, program.map.dim, program.domain_line_no)
    forms = {form: certify_problem(program.map, domain, form=form, max_boxes=max_boxes)
             for form in ("auto", "compressive", "expansive")}
    assert forms["compressive"].outcome == REFUTED
    assert forms["expansive"].outcome == INDETERMINATE
    assert forms["auto"].to_json(stable=True) == forms["expansive"].to_json(stable=True)


def test_certificate_json_schema():
    m = parse_map("dim 1\nmap g1 = 0.5\n")
    cert = certify_miranda(m, rect((0, 1)))
    d = json.loads(cert.to_json())
    assert set(d) == {"kind", "outcome", "directions", "domain", "index",
                      "evidence", "witness", "stats"}
    assert d["outcome"] == "CERTIFIED"
    assert d["stats"]["boxes"] >= 1 and "seconds" in d["stats"]
    stable = json.loads(cert.to_json(stable=True))
    assert "seconds" not in stable["stats"]
    for entry in d["evidence"]:
        assert set(entry) == {"face", "box", "bound", "relation", "threshold"}
    json.dumps(d)  # serializable


# Boxes still queued when the box budget runs out carry no bound from the
# classifier; the certificate must fill it in and stay serialisable.
_BUDGET_STOPPED = {
    "cone": catalog.get("cone-quadratic-expansive").source,
    "cylinder": "dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.1 + 0.8*x2*x2 - 0.3*x2*x1\n"
                "domain cylinder [0,1] base [0,1]\n",
    "holes": "dim 2\nmap g1 = 0.5*x1 - 0.2*x2*x2\nmap g2 = 0.5*x2\n"
             "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)\n",
}


@pytest.mark.parametrize("name", sorted(_BUDGET_STOPPED))
def test_budget_stopped_certificate_serialises(name):
    program = parse_program(_BUDGET_STOPPED[name])
    domain = parse_domain(program.domain_line, program.map.dim, program.domain_line_no)
    for max_boxes in range(1, 10):
        cert = certify_problem(program.map, domain, max_boxes=max_boxes)
        payload = json.loads(cert.to_json(stable=True))
        assert any(e["relation"] == "unresolved" for e in payload["evidence"])
        for entry in payload["evidence"]:
            assert all(math.isfinite(v) for v in entry["bound"]), (max_boxes, entry)
