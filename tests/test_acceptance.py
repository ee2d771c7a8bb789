"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Expected values tagged as derived come from the independent oracles in
oracles.py (dense grids, bisection, angle accumulation), never from the
interval code under test.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from fpcert.certify import (
    CERTIFIED,
    REFUTED,
    INDETERMINATE,
    SingleHoleError,
    UnsupportedDomainError,
    certify_cone_shell,
    certify_cylinder,
    certify_holes,
    certify_miranda,
    certify_problem,
)
from fpcert.continuation import trace_continuum
from corpus import (
    apply_op,
    random_box,
    random_cone_problem,
    random_cylinder_problem,
    random_expression_map,
    random_polynomial_map_2d,
    random_rect_problem,
    sample_in_box,
)
from fpcert.degree import (
    BoundaryZeroError,
    degree_1d,
    holes_index_cross_check,
    homotopy_nonvanishing,
    winding_degree_2d,
)
from fpcert.geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    Functional,
    HoledBallSpec,
    RectDomain,
    compressive_to_expansive,
    flip_coordinates,
)
from fpcert.interval import Box, Interval
from fpcert.localize import localize_fixed_points, region_fixed_point_free
from fpcert.mapdsl import EvaluationError, parse_map
from fpcert.interval import DomainError

from oracles import bisect_root, grid_zoom_min, winding_circle


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    print(f"\n[criterion {number}] {name}: PASS")


def rect(*bounds):
    return RectDomain(Box.from_bounds(bounds))


# ---------------------------------------------------------------------------
# 1. Holed-ball index reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_holed_ball_index():
    with criterion(1, "holed-ball index 1 - 2n reproduction"):
        spec = HoledBallSpec(4.0, ((2.0, 0.0, 0.5), (-2.0, 0.0, 0.5)))
        T = parse_map("dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n")
        t0 = time.perf_counter()
        cert = certify_holes(T, spec, max_depth=20)
        elapsed = time.perf_counter() - t0
        assert cert.outcome == CERTIFIED
        assert cert.index == 1 - 2 == -1
        assert elapsed < 5.0

        # dense boundary winding oracle over the region decomposition
        oracle = (
            winding_circle(T, (0.0, 0.0), 4.0)
            - winding_circle(T, (2.0, 0.0), 0.5)
            - winding_circle(T, (-2.0, 0.0), 0.5)
        )
        assert oracle == -1
        cc = holes_index_cross_check(T, spec)
        assert cc == {"value": -1, "verified": True}

        # the interior fixed points line up with the 2 tanh(x) = x roots
        root = bisect_root(lambda x: 2.0 * math.tanh(x) - x, 1.0, 2.0)
        assert abs(2.0 * math.tanh(root) - root) < 1e-12
        point, res = grid_zoom_min(T, [(-4.0, 4.0), (-4.0, 4.0)])
        assert res <= 1e-9 and abs(point[1]) < 1e-6


# ---------------------------------------------------------------------------
# 2. Fixed point index axiom suite
# ---------------------------------------------------------------------------


def _random_rect(rng, span=2.4):
    lo1 = rng.uniform(-1.5, 0.0)
    lo2 = rng.uniform(-1.5, 0.0)
    return rect((lo1, lo1 + rng.uniform(1.0, span)), (lo2, lo2 + rng.uniform(1.0, span)))


def _axiom_additivity(rng, instances=50):
    done = 0
    while done < instances:
        r = _random_rect(rng)
        f = random_polynomial_map_2d(rng, r)
        (xr, yr) = r.box.coords
        axis = 0 if xr.width >= yr.width else 1
        c = r.box.coords[axis]
        cut = c.lo + c.width * rng.uniform(0.4, 0.6)
        r1 = RectDomain(r.box.replace_coord(axis, Interval(c.lo, cut)))
        r2 = RectDomain(r.box.replace_coord(axis, Interval(cut, c.hi)))
        try:
            w = winding_degree_2d(f, r, max_boxes=8000)
            w1 = winding_degree_2d(f, r1, max_boxes=8000)
            w2 = winding_degree_2d(f, r2, max_boxes=8000)
        except BoundaryZeroError:
            continue
        assert w.value == w1.value + w2.value, f.to_source()
        done += 1


def _axiom_weak_normalization():
    grid = (-0.7, -0.2, 0.3, 0.8, 1.3)
    r2 = rect((0, 1), (0, 1))
    for px in grid:
        for py in grid:
            f = parse_map(f"dim 2\nmap g1 = {px}\nmap g2 = {py}\n")
            expected = 1 if (0 < px < 1 and 0 < py < 1) else 0
            assert winding_degree_2d(f, r2).value == expected
    r1 = rect((0, 1))
    for p in grid:
        f = parse_map(f"dim 1\nmap g1 = {p}\n")
        expected = 1 if 0 < p < 1 else 0
        assert degree_1d(f, r1).value == expected


def _axiom_fixed_point_property(rng, instances=50):
    done = 0
    while done < instances:
        r = _random_rect(rng)
        f = random_polynomial_map_2d(rng, r)
        try:
            w = winding_degree_2d(f, r, max_boxes=8000)
        except BoundaryZeroError:
            continue
        if w.value == 0:
            continue
        res = localize_fixed_points(f, r, tol=0.02, budget=40000, upgrade=False)
        assert res.enclosures, f.to_source()
        done += 1


def _axiom_excision(rng, instances=50):
    done = 0
    while done < instances:
        r = _random_rect(rng)
        (xr, yr) = r.box.coords
        # contraction toward a point in the left 40% of the rectangle
        px = xr.lo + xr.width * rng.uniform(0.1, 0.35)
        py = yr.lo + yr.width * rng.uniform(0.2, 0.8)
        s = rng.uniform(0.2, 0.5)
        f = parse_map(
            "dim 2\n"
            f"map g1 = {px!r} + {s!r}*(x1 - {px!r})\n"
            f"map g2 = {py!r} + {s!r}*(x2 - {py!r})\n"
        )
        cut = xr.lo + xr.width * rng.uniform(0.55, 0.8)
        r1 = RectDomain(r.box.replace_coord(0, Interval(xr.lo, cut)))
        r2_box = r.box.replace_coord(0, Interval(cut, xr.hi))
        if not region_fixed_point_free(f, r2_box, inside=lambda box: False):
            continue
        try:
            w = winding_degree_2d(f, r, max_boxes=8000)
            w1 = winding_degree_2d(f, r1, max_boxes=8000)
        except BoundaryZeroError:
            continue
        assert w.value == w1.value == 1
        done += 1


def _axiom_homotopy_invariance(rng, instances=20):
    done = 0
    r = rect((-1, 1), (-1, 1))
    while done < instances:
        sx = rng.choice((rng.uniform(-0.6, 0.6), rng.uniform(1.8, 3.0)))
        sy = rng.choice((rng.uniform(-0.6, 0.6), rng.uniform(1.8, 3.0)))

        def build(jitter):
            ax = sx + jitter * rng.uniform(-0.08, 0.08)
            ay = sy + jitter * rng.uniform(-0.08, 0.08)
            bx = rng.uniform(-0.1, 0.1)
            by = rng.uniform(-0.1, 0.1)
            return parse_map(
                f"dim 2\nmap g1 = {ax!r}*x1 + {bx!r}\nmap g2 = {ay!r}*x2 + {by!r}\n"
            )

        f, g = build(0.0), build(1.0)
        if not homotopy_nonvanishing(f, g, r, max_boxes=20000):
            continue
        try:
            wf = winding_degree_2d(f, r, max_boxes=8000)
            wg = winding_degree_2d(g, r, max_boxes=8000)
        except BoundaryZeroError:
            continue
        assert wf.value == wg.value
        done += 1


def _axiom_multiplicativity(rng, instances=20):
    done = 0
    while done < instances:
        exprs, domains, values = [], [], []
        ok = True
        for _ in range(2):
            s = rng.choice((-2.0, -0.6, 0.7, 2.4))
            lo = rng.uniform(-1.2, -0.2)
            hi = lo + rng.uniform(0.8, 1.8)
            mid = 0.5 * (lo + hi)
            off = mid - s * mid + rng.uniform(-0.1, 0.1)
            exprs.append((s, off))
            domains.append((lo, hi))
        try:
            for (s, off), (lo, hi) in zip(exprs, domains):
                f1 = parse_map(f"dim 1\nmap g1 = {s!r}*x1 + {off!r}\n")
                values.append(degree_1d(f1, rect((lo, hi))).value)
            (s1, o1), (s2, o2) = exprs
            product = parse_map(
                f"dim 2\nmap g1 = {s1!r}*x1 + {o1!r}\nmap g2 = {s2!r}*x2 + {o2!r}\n"
            )
            w = winding_degree_2d(product, rect(domains[0], domains[1]),
                                  max_boxes=8000)
        except BoundaryZeroError:
            continue
        assert w.value == values[0] * values[1]
        done += 1


def test_criterion_2_index_axiom_suite():
    with criterion(2, "fixed point index axiom suite"):
        rng = random.Random(120)
        t0 = time.perf_counter()
        _axiom_additivity(rng, 50)
        _axiom_weak_normalization()
        _axiom_fixed_point_property(rng, 50)
        _axiom_excision(rng, 50)
        _axiom_homotopy_invariance(rng, 20)
        _axiom_multiplicativity(rng, 20)
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. Certificate soundness fuzz
# ---------------------------------------------------------------------------


def test_criterion_3_certificate_soundness_fuzz():
    with criterion(3, "certificate soundness over a randomized corpus"):
        rng = random.Random(777)
        certified = 0
        total = 0

        for _ in range(600):
            m, r = random_rect_problem(rng)
            total += 1
            cert = certify_miranda(m, r, max_depth=12, max_boxes=3000)
            if cert.outcome != CERTIFIED:
                continue
            certified += 1
            bounds = [(c.lo, c.hi) for c in r.box.coords]
            point, res = grid_zoom_min(m, bounds)
            assert point is not None and res <= 1e-6, (m.to_source(), res)
            assert r.box.contains_point(point)

        for _ in range(250):
            T, cyl, form = random_cylinder_problem(rng)
            total += 1
            cert = certify_cylinder(T, cyl, form, max_depth=12, max_boxes=3000)
            if cert.outcome != CERTIFIED:
                continue
            certified += 1
            full = cyl.full_box()
            bounds = [(c.lo, c.hi) for c in full.coords]
            point, res = grid_zoom_min(T, bounds)
            assert point is not None and res <= 1e-6, (T.to_source(), res)
            assert full.contains_point(point)

        for _ in range(150):
            T, spec, form = random_cone_problem(rng)
            total += 1
            cert = certify_cone_shell(T, spec, form, max_depth=14, max_boxes=6000)
            if cert.outcome != CERTIFIED:
                continue
            certified += 1
            bb = spec.bounding_box()
            bounds = [(c.lo, c.hi) for c in bb.coords]
            fn = spec.functional
            point, res = grid_zoom_min(
                T, bounds, keep=lambda p: spec.a <= fn.value(p) <= spec.b
            )
            assert point is not None and res <= 1e-6, (T.to_source(), res)
            assert spec.a - 1e-9 <= fn.value(point) <= spec.b + 1e-9

        assert total >= 1000
        assert certified >= 200  # the corpus must exercise the certified path
        print(f"  corpus: {total} problems, {certified} certified, 0 violations")


# ---------------------------------------------------------------------------
# 4. Duality exactness
# ---------------------------------------------------------------------------


def test_criterion_4_duality_exactness():
    with criterion(4, "compressive/expansive and flip duality"):
        rng = random.Random(4242)
        for _ in range(100):
            T, cyl, _form = random_cylinder_problem(rng)
            comp = certify_cylinder(T, cyl, "compressive", max_depth=10,
                                    max_boxes=2000)
            exp = certify_cylinder(compressive_to_expansive(T), cyl, "expansive",
                                   max_depth=10, max_boxes=2000)
            assert comp.outcome == exp.outcome
            assert comp.evidence == exp.evidence
            assert comp.witness == exp.witness

        for _ in range(100):
            g, r = random_rect_problem(rng)
            directions = tuple(rng.choice("ec") for _ in range(g.dim))
            flip_set = {i for i in range(g.dim) if rng.random() < 0.5}
            flipped = flip_coordinates(g, flip_set)
            swapped = tuple(
                ("c" if d == "e" else "e") if i in flip_set else d
                for i, d in enumerate(directions)
            )
            direct = certify_miranda(g, r, directions, max_depth=10, max_boxes=2000)
            dual = certify_miranda(flipped, r, swapped, max_depth=10, max_boxes=2000)
            assert direct.outcome == dual.outcome, (g.to_source(), directions, flip_set)


# ---------------------------------------------------------------------------
# 5. Localization accuracy
# ---------------------------------------------------------------------------


def test_criterion_5_localization_accuracy():
    with criterion(5, "localization accuracy (cos and linear 2d)"):
        root = bisect_root(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert abs(root - 0.7390851332151607) < 1e-12

        t0 = time.perf_counter()
        res = localize_fixed_points(parse_map("dim 1\nmap g1 = cos(x1)\n"),
                                    rect((0, 1)), tol=1e-8)
        assert time.perf_counter() - t0 < 1.0
        assert len(res.enclosures) == 1
        enc = res.enclosures[0]
        assert enc.status == "PROVEN"
        assert enc.box.width <= 1e-8
        assert enc.box.contains_point((root,))

        t0 = time.perf_counter()
        m = parse_map("dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = 0.25 + 0.5*x2\n")
        res = localize_fixed_points(m, rect((0, 1), (0, 1)), tol=1e-8)
        assert time.perf_counter() - t0 < 1.0
        assert any(
            e.box.contains_point((0.5, 0.5)) and e.status == "PROVEN"
            for e in res.enclosures
        )


# ---------------------------------------------------------------------------
# 6. Cone shell end-to-end
# ---------------------------------------------------------------------------


def test_criterion_6_cone_shell_end_to_end():
    with criterion(6, "cone shell certificate plus slice localization"):
        t0 = time.perf_counter()
        T = parse_map("dim 2\nmap g1 = (x1 + x2)*x1\nmap g2 = (x1 + x2)*x2\n")
        spec = ConeShellSpec(2, Functional.ones(2), 0.5, 2.0)
        cert = certify_cone_shell(T, spec, "expansive")
        assert cert.outcome == CERTIFIED

        res = localize_fixed_points(T, rect((0, 2), (0, 2)), tol=1e-2,
                                    budget=400000, upgrade=False)
        shell_encs = [
            e for e in res.enclosures
            if (e.box.coords[0] + e.box.coords[1]).intersects(Interval(0.5, 2.0))
        ]
        assert shell_encs
        fn = spec.functional
        for e in shell_encs:
            pad = 3.0 * max(e.box.width, 1e-3)
            bounds = [
                (max(0.0, c.lo - pad), min(2.0, c.hi + pad)) for c in e.box.coords
            ]
            point, resid = grid_zoom_min(T, bounds, rounds=18)
            assert resid <= 1e-7
            assert abs(fn.value(point) - 1.0) <= 1e-6, (e.box.bounds(), point)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        print(f"  {len(shell_encs)} shell enclosures, all at level 1 +- 1e-6 "
              f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 7. Negative controls
# ---------------------------------------------------------------------------


def test_criterion_7_negative_controls():
    with criterion(7, "translations refuted, refusals, rotation never certified"):
        translation = parse_map("dim 1\nmap g1 = x1 + 1\n")
        cert = certify_miranda(translation, rect((0, 1)))
        assert cert.outcome == REFUTED and cert.witness is not None

        cyl_translation = parse_map("dim 2\nmap g1 = x1 + 1\nmap g2 = x2\n")
        cyl = CylinderSpec(Interval(0, 1), Box.from_bounds([(0, 1)]))
        for form in ("expansive", "compressive"):
            c = certify_cylinder(cyl_translation, cyl, form, max_boxes=2000)
            assert c.outcome == REFUTED and c.witness is not None

        with pytest.raises(SingleHoleError):
            certify_holes(parse_map("dim 2\nmap g1 = 0\nmap g2 = 0\n"),
                          HoledBallSpec(4.0, ((0.0, 0.0, 0.5),)))

        rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
        with pytest.raises(UnsupportedDomainError) as err:
            certify_problem(rot, AnnulusSpec(1.0, 2.0))
        assert "false in finite dimension" in str(err.value)

        # the rotation regression map never receives any certificate
        outcomes = []
        shell = ConeShellSpec(2, Functional.euclid(), 1.0, 2.0)
        for form in ("expansive", "compressive"):
            outcomes.append(certify_cone_shell(rot, shell, form, max_boxes=4000).outcome)
        outcomes.append(
            certify_miranda(rot, rect((1, 2), (1, 2)), max_boxes=4000).outcome)
        outcomes.append(
            certify_miranda(rot, rect((-1, 1), (-1, 1)), max_boxes=4000).outcome)
        for form in ("expansive", "compressive"):
            outcomes.append(
                certify_cylinder(rot, cyl, form, max_boxes=4000).outcome)
        assert CERTIFIED not in outcomes
        assert outcomes[0] == outcomes[1] == REFUTED  # leaves the cone
        assert outcomes[2] == REFUTED  # off-origin rectangle
        assert outcomes[3] == INDETERMINATE  # equality case at the origin box


# ---------------------------------------------------------------------------
# 8. Interval soundness fuzz
# ---------------------------------------------------------------------------


_UNARY = ("neg", "abs", "sqrt", "sin", "cos", "exp", "tanh")
_BINARY = ("add", "sub", "mul", "div", "min", "max")


def _op_reference(op, x, y=None):
    table = {
        "neg": lambda: -x, "abs": lambda: abs(x), "sqrt": lambda: math.sqrt(x),
        "sin": lambda: math.sin(x), "cos": lambda: math.cos(x),
        "exp": lambda: math.exp(x), "tanh": lambda: math.tanh(x),
        "add": lambda: x + y, "sub": lambda: x - y, "mul": lambda: x * y,
        "div": lambda: x / y, "min": lambda: min(x, y), "max": lambda: max(x, y),
    }
    return table[op]()


def test_criterion_8_interval_soundness_fuzz():
    with criterion(8, "interval containment fuzz, 1e5 checks"):
        rng = random.Random(808)
        t0 = time.perf_counter()
        checks = 0

        for _ in range(60000):
            op = rng.choice(_UNARY + _BINARY)
            lo = rng.uniform(-30, 30)
            a = Interval(lo, lo + abs(rng.gauss(0, 4)))
            x = a.lo + rng.random() * (a.hi - a.lo)
            b = y = None
            if op in _BINARY:
                blo = rng.uniform(-30, 30)
                b = Interval(blo, blo + abs(rng.gauss(0, 4)))
                y = b.lo + rng.random() * (b.hi - b.lo)
            try:
                res = apply_op(op, a, b)
                exact = _op_reference(op, x, y)
            except (DomainError, OverflowError, ZeroDivisionError):
                continue
            assert res.lo <= exact <= res.hi, (op, a, b, x, y)
            checks += 1

        maps = [random_expression_map(rng, rng.choice((1, 2, 3))) for _ in range(700)]
        for m in maps:
            box = random_box(rng, m.dim)
            try:
                img = m.eval_interval(box)
            except (DomainError, EvaluationError):
                continue
            for _ in range(70):
                p = sample_in_box(rng, box)
                try:
                    v = m.eval_real(p)
                except (DomainError, EvaluationError):
                    continue
                for vi, ci in zip(v, img.coords):
                    assert ci.lo <= vi <= ci.hi, (m.to_source(), box.bounds(), p)
                checks += 1

        elapsed = time.perf_counter() - t0
        assert checks >= 100000
        assert elapsed < 30.0
        print(f"  {checks} containment checks, 0 violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 9. Continuation witness
# ---------------------------------------------------------------------------


def test_criterion_9_continuation_witness():
    with criterion(9, "linear family continuum witness"):
        t0 = time.perf_counter()
        psi = parse_map("dim 1\nparam t\nmap g1 = (x1 + t)/2\n")
        wit = trace_continuum(psi, (0, 1), Box.from_bounds([(-1, 2)]),
                              grid=16, tol=1e-3)
        elapsed = time.perf_counter() - t0
        assert wit.complete
        chain = wit.chain_slabs()
        assert {s.cell for s in chain} == set(range(16))
        assert chain[0].t.lo == 0.0 and chain[-1].t.hi == 1.0
        covered = Interval(0.0, 0.0)
        for s in chain:
            covered = Interval(min(covered.lo, s.t.lo), max(covered.hi, s.t.hi))
        assert covered == Interval(0.0, 1.0)  # t-projection covers [0, 1]
        # The branch x = t moves 1/16 across each cell, so a PROVEN slab,
        # which holds x(t) for every t of its cell, is that wide; only
        # CANDIDATE slabs are bisected down to tol.
        assert wit.proven
        for s in chain:
            assert s.status == "PROVEN"
            assert all(s.box.contains_point((s.t.lo + k * (s.t.hi - s.t.lo) / 64,))
                       for k in range(65))
            assert s.box.width <= (s.t.hi - s.t.lo) + 1e-3
        for s in wit.slabs:
            assert s.status == "PROVEN" or s.box.width <= 1e-3
        assert elapsed < 5.0
