#!/usr/bin/env python3
"""Randomized soundness experiment: no CERTIFIED outcome without a fixed point.

Generates random map/domain problems (rectangles, cylinders, cone shells
of the coordinate sum), certifies each, and confirms every CERTIFIED
outcome with a dense-grid residual search.  Cone shells of the sup and the
euclidean norm, each with the map lam*l(x)*x, follow from a stream of their
own and take the same oracle and region checks.  Holed balls follow, from a
third stream, so the counts of the first two lines do not depend on them;
each CERTIFIED one is also cross-checked by planar winding numbers, whose
verified value must be the certified index 1 - n.  Last, 2-D fixed point
indices of random planar maps on random rectangles, from a fourth stream:
every verified index must equal a dense angle-accumulation winding
number.  Then random planar maps localized on random rectangles, from a
fifth stream, every other one a random expression in sin, cos, tanh, min
and max: every PROVEN box must hold a point the grid oracle drives to a
residual of at most 1e-9, and discarded plus surviving volume must equal
the rectangle's.  Last, from a sixth stream, trig maps with a fixed point
planted inside their rectangle take the same checks, and the planted point
must lie in an enclosure; then, from a seventh stream, the same with an
abs or min term whose kink passes through the planted point.  Last, from
an eighth stream, 1-D and 2-D families with a planted polynomial branch of fixed
points, the only one in their box, are traced over t in [0, 1]: every
PROVEN slab must hold the branch at sampled t of its cell, every
proven chain must meet the branch, and on every slab the map at the
lower end t of its cell (``MapSpec.at``) must give the pairs, or the
error, of the map with t = Interval(t) (``at checks`` counts the slabs).
Each holed ball and each localized 2-D map also has its memo view
compared with the plain map, pairs and errors, on 200 sub-boxes that
share coordinates, and each traced family has its memo view, evaluated
with t over a cell, compared with the map evaluated the same way, on the
cell's slab boxes (``memo checks`` counts the boxes).  Every uniqueness
box of those localize and trace streams, the reversed runs included,
meets the uniqueness oracle (``oracles.uniqueness_regular``, mpmath): a
singular matrix in the enclosure of I - Dg over it is a violation, and
``unique checks=N (undecided M)`` counts the boxes and those it could not
decide.  Each rect problem
of dimension 2 or more and each map of the 2-D localize stream is also
run again with its coordinates reversed, which keeps its fixed points
exactly (``metamorphic checks`` counts the reruns): CERTIFIED against
REFUTED, or a PROVEN box on one side that meets no enclosure of the
other, is a violation; a change to or from INDETERMINATE is not.  So is
each holed ball, with its map's coordinates reversed and each hole's
centre (cx, cy) moved to (cy, cx); ``corner rows`` counts the Jacobian
rows that the holed balls' tighten step, in both runs, bounded by their
two corner values (``certify._corners``).  Each rect problem is also
certified again with g_i replaced by 2*x_i - g_i on a random nonempty set
of axes (``flip_coordinates``, which keeps the fixed points exactly;
``flip checks`` counts the reruns and how many moved to or from
INDETERMINATE), with the same rule, and once more translated by a seeded
dyadic offset s per axis (``translate_coordinates``, the map
y -> g(y - s) + s on the rectangle moved by s, which keeps the fixed
points exactly; a problem where some endpoint plus its offset is not a
float is skipped; ``translate checks`` counts the reruns and how many
moved), with the same rule.  Each 3-D rect problem is also certified
under a seeded permutation of its coordinates, neither the identity nor
the reversal (``permute_coordinates``; ``permute checks``), with the same
rule.  The region tests with a float filter in front of a directed
test (the holed ball's and each hole's relevance test, and a cone shell's
for invariance and both slices) must decide as the directed test alone,
result or error, on each holed ball's 200 memo-check boxes and on 200
sub-boxes of each cone shell's bounding box, of either stream, from a side
stream (``region checks`` counts the boxes).  Last, from a ninth stream,
edge-margin problems: g1 = 2*x1 - 0.5 and g2 one kernel (sin, cos, exp,
tanh, sqrt, * or /) of decimal literals, on a cylinder whose base has
g2's computed bound as its top or bottom; for each CERTIFIED one the true
value at the literals' exact values must lie on the base's side of that
bound (``kernel_side``, mpmath at 200 bits; ``edge checks`` counts them).
Only this stream can see an enclosure that misses by one ulp.  Then, from
a tenth stream, 1-D and 2-D maps with a planted degenerate fixed set and
dyadic literals (``random_degenerate_map``: a segment of fixed points, a
tangential root, or two roots closer than the tolerance) take the checks
of the localize stream: a planted point, or a segment's ends or midpoint,
that lies in no enclosure is a violation, and so is a uniqueness box that
holds two planted points or meets the segment in more than one point
(``planted checks`` counts the points, ``unique boxes`` the boxes).  Last,
from an eleventh stream, planar maps with a sqrt or a division that raise
on part of their rectangle take the same checks on a smaller budget
(``raised`` counts the enclosures whose residual is None).  Any answer an
oracle cannot confirm is a soundness bug and is printed with its problem
source.

    python scripts/fuzz_soundness.py --n 2000 --seed 7
"""

import argparse
import itertools
import math
import os
import random
import sys
import time

import mpmath

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from corpus import (  # noqa: E402
    box_contains,
    box_meets_segment,
    branch_point,
    memo_view_mismatches,
    permute_box,
    permute_coordinates,
    random_cone_problem,
    random_cylinder_problem,
    random_degenerate_map,
    random_edge_problem,
    random_expression_map,
    random_holed_ball_problem,
    random_norm_cone_problem,
    random_partial_map,
    random_planted_branch_family,
    random_planted_kinked_map,
    random_planted_trig_map,
    random_polynomial_map_2d,
    random_rect_problem,
    region_filter_mismatches,
    shared_coordinate_boxes,
    translate_box,
    translate_coordinates,
)
from oracles import (  # noqa: E402
    grid_zoom_min,
    kernel_side,
    uniqueness_regular,
    winding_rect,
)

from fpcert import certify  # noqa: E402
from fpcert.certify import (  # noqa: E402
    CERTIFIED,
    REFUTED,
    certify_cone_shell,
    certify_cylinder,
    certify_holes,
    certify_miranda,
)
from fpcert.continuation import trace_continuum  # noqa: E402
from fpcert.degree import (  # noqa: E402
    BoundaryZeroError,
    fixed_point_index,
    holes_index_cross_check,
)
from fpcert.geometry import HoledBallSpec, RectDomain  # noqa: E402
from fpcert.interval import Box, Interval  # noqa: E402
from fpcert.localize import PROVEN, localize_fixed_points  # noqa: E402
from fpcert.mapdsl import flip_coordinates  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000, help="total problem count")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    n_holes = n_index = n_localize = n_norms = args.n // 10
    n_edge = 4 * args.n

    rng = random.Random(args.seed)
    counts = {"CERTIFIED": 0, "REFUTED": 0, "INDETERMINATE": 0}
    violations = 0
    t0 = time.perf_counter()

    def violation(m, why):
        nonlocal violations
        violations += 1
        print("SOUNDNESS VIOLATION:")
        print(m.to_source())
        print(f"  {why}")

    # Sub-boxes for the memo view cross-check come from a stream of their
    # own, so the problem streams and every other count stay as they were.
    memo_rng = random.Random(f"{args.seed}:memo")

    def memo_check(m, box):
        """Compare m's memo view with m on 200 sub-boxes of box that share
        coordinates; returns the boxes compared."""
        boxes = shared_coordinate_boxes(memo_rng, box, 200)
        for bad in memo_view_mismatches(m, boxes):
            violation(m, f"memo view differs from the map on {bad.bounds()}")
        return boxes

    # The cone shells' region checks draw their boxes from a side stream.
    region_rng = random.Random(f"{args.seed}:region")

    def region_check(m, tests, boxes):
        """Compare the float-filtered region tests with their directed
        tests on the boxes; returns the number of boxes compared."""
        for bad in region_filter_mismatches(tests, boxes):
            violation(m, f"a filtered region test differs from the directed one on "
                         f"{bad.bounds()}")
        return len(boxes)

    def shell_problem(m, spec, form):
        """Certify a cone shell problem and region-check it on 200 sub-boxes
        of its bounding box; returns the certificate, the box's bounds, the
        oracle's shell filter and the number of boxes checked."""
        cert = certify_cone_shell(m, spec, form, max_depth=14, max_boxes=6000)
        box = spec.bounding_box()
        fn = spec.functional
        tests = [fn.level_tests(lo, hi, lo)["relevant"]
                 for lo, hi in ((spec.a, spec.b), (spec.a, spec.a), (spec.b, spec.b))]
        regions = region_check(m, tests, shared_coordinate_boxes(region_rng, box, 200))
        return (cert, [(c.lo, c.hi) for c in box.coords],
                lambda p: spec.a <= fn.value(p) <= spec.b, regions)

    def permuted_problem(m, rect, perm):
        return permute_coordinates(m, perm), RectDomain(permute_box(rect.box, perm))

    def reversed_problem(m, rect):
        return permuted_problem(m, rect, range(m.dim)[::-1])

    def compare(m, cert, other, how):
        """CERTIFIED against REFUTED, for a problem and a rerun that keeps
        its fixed points, is a violation; a change to or from INDETERMINATE
        is not.  Returns whether the outcome moved."""
        if {cert.outcome, other.outcome} == {CERTIFIED, REFUTED}:
            violation(m, f"{cert.outcome}, but {other.outcome} {how}")
        return other.outcome != cert.outcome

    def confirm(cert, m, domain_bounds, keep):
        if cert.outcome == CERTIFIED:
            point, res = grid_zoom_min(m, domain_bounds, keep=keep)
            if point is None or res > 1e-6:
                violation(m, f"oracle residual {res}")

    # The flipped axes, the offsets and the permutations come from side
    # streams too.
    flip_rng = random.Random(f"{args.seed}:flip")
    translate_rng = random.Random(f"{args.seed}:translate")
    permute_rng = random.Random(f"{args.seed}:permute")
    # The permutations of three axes but the identity and the reversal.
    perms = [p for p in itertools.permutations(range(3)) if p not in ((0, 1, 2), (2, 1, 0))]

    rect_reversals = cone_regions = rect_flips = flip_moves = 0
    rect_translations = translate_moves = rect_perms = perm_moves = 0
    for k in range(args.n):
        roll = rng.random()
        if roll < 0.6:
            m, r = random_rect_problem(rng)
            cert = certify_miranda(m, r, max_depth=12, max_boxes=3000)
            if m.dim >= 2:
                rect_reversals += 1
                other = certify_miranda(*reversed_problem(m, r), max_depth=12, max_boxes=3000)
                compare(m, cert, other, "with the coordinates reversed")
            axes = set(flip_rng.sample(range(m.dim), flip_rng.randint(1, m.dim)))
            rect_flips += 1
            other = certify_miranda(flip_coordinates(m, axes), r, max_depth=12, max_boxes=3000)
            flip_moves += compare(m, cert, other, f"with axes {sorted(axes)} flipped")
            shift = [translate_rng.randint(-32, 32) / 16.0 for _axis in range(m.dim)]
            moved = translate_box(r.box, shift)
            if moved is not None:
                rect_translations += 1
                other = certify_miranda(translate_coordinates(m, shift), RectDomain(moved),
                                        max_depth=12, max_boxes=3000)
                translate_moves += compare(m, cert, other, f"translated by {shift}")
            if m.dim == 3:
                perm = permute_rng.choice(perms)
                rect_perms += 1
                other = certify_miranda(*permuted_problem(m, r, perm), max_depth=12,
                                        max_boxes=3000)
                perm_moves += compare(m, cert, other, f"with the coordinates permuted by {perm}")
            domain_bounds = [(c.lo, c.hi) for c in r.box.coords]
            keep = None
        elif roll < 0.85:
            m, cyl, form = random_cylinder_problem(rng)
            cert = certify_cylinder(m, cyl, form, max_depth=12, max_boxes=3000)
            domain_bounds = [(c.lo, c.hi) for c in cyl.full_box().coords]
            keep = None
        else:
            m, spec, form = random_cone_problem(rng)
            cert, domain_bounds, keep, regions = shell_problem(m, spec, form)
            cone_regions += regions

        counts[cert.outcome] += 1
        confirm(cert, m, domain_bounds, keep)

    elapsed = time.perf_counter() - t0
    print(f"{args.n} problems in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in counts.items())
          + f" metamorphic checks={rect_reversals} region checks={cone_regions}"
          + f" flip checks={rect_flips} (outcome moved on {flip_moves})")
    print(f"translate checks={rect_translations} (outcome moved on {translate_moves})")
    print(f"permute checks={rect_perms} (outcome moved on {perm_moves})")

    rng = random.Random(f"{args.seed}:norms")
    norm_counts = dict.fromkeys(counts, 0)
    norm_regions = 0
    t0 = time.perf_counter()
    for k in range(n_norms):
        m, spec, form = random_norm_cone_problem(rng, ("sup", "euclid")[k % 2])
        cert, domain_bounds, keep, regions = shell_problem(m, spec, form)
        norm_regions += regions
        norm_counts[cert.outcome] += 1
        confirm(cert, m, domain_bounds, keep)
    elapsed = time.perf_counter() - t0
    print(f"{n_norms} sup and euclid cone shells in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in norm_counts.items())
          + f" region checks={norm_regions}")

    rng = random.Random(f"{args.seed}:holes")
    hole_counts = dict.fromkeys(counts, 0)
    cross_verified = hole_boxes = hole_memo = hole_regions = corner_rows = 0
    corners = certify._corners

    def counted_corners(ds, ends):
        nonlocal corner_rows
        found = corners(ds, ends)
        corner_rows += found is not None
        return found

    certify._corners = counted_corners
    t0 = time.perf_counter()
    for k in range(n_holes):
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
        cert = certify_holes(m, spec)
        hole_counts[cert.outcome] += 1
        hole_boxes += cert.stats.boxes
        boxes = memo_check(m, Box.from_bounds([(-spec.radius, spec.radius)] * 2))
        hole_memo += len(boxes)
        hole_regions += region_check(
            m, [tests["relevant"] for _circle, _r2, tests in spec.circles()], boxes)
        # Reversed coordinates, and each hole's centre (cx, cy) -> (cy, cx).
        swapped = HoledBallSpec(spec.radius, tuple((cy, cx, r) for cx, cy, r in spec.holes))
        compare(m, cert, certify_holes(permute_coordinates(m, (1, 0)), swapped),
                "with the coordinates reversed")
        keep = lambda p, spec=spec: math.hypot(*p) <= spec.radius and all(  # noqa: E731
            math.hypot(p[0] - cx, p[1] - cy) >= r for cx, cy, r in spec.holes)
        confirm(cert, m, [(-spec.radius, spec.radius)] * 2, keep)
        if cert.outcome == CERTIFIED:
            cross = holes_index_cross_check(m, spec)
            cross_verified += cross is not None
            if cross is not None and cross != cert.index:
                violation(m, f"cross-check index {cross}, certified {cert.index}")
    elapsed = time.perf_counter() - t0
    certify._corners = corners
    print(f"{n_holes} holed balls in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in hole_counts.items())
          + f" boxes={hole_boxes} corner rows={corner_rows} memo checks={hole_memo}"
          + f" metamorphic checks={n_holes} region checks={hole_regions}")

    def random_rect(rng):
        bounds = []
        for _axis in range(2):
            lo = rng.uniform(-2.0, 1.0)
            bounds.append((lo, lo + rng.uniform(0.5, 2.5)))
        return bounds, RectDomain(Box.from_bounds(bounds))

    rng = random.Random(f"{args.seed}:index")
    index_verified = 0
    t0 = time.perf_counter()
    for _ in range(n_index):
        bounds, rect = random_rect(rng)
        m = random_polynomial_map_2d(rng, rect)
        try:
            result = fixed_point_index(m, rect)
        except BoundaryZeroError:
            continue
        index_verified += 1
        expected = winding_rect(m, bounds)
        if result.value != expected:
            violation(m, f"index {result.value} on {bounds}, oracle winding {expected}")
    elapsed = time.perf_counter() - t0
    print(f"{n_index} 2-D indices in {elapsed:.1f}s: verified={index_verified}; "
          f"holed-ball cross-checks verified={cross_verified} of "
          f"{hole_counts[CERTIFIED]}")

    unique = {"checks": 0, "undecided": 0}

    def unique_check(m, box, t=None):
        """The uniqueness oracle on a box that holds exactly one fixed point
        (for every t in t), as claimed: a singular matrix in the enclosure
        of I - Dg over it refutes the claim."""
        verdict = uniqueness_regular(mpmath, m, box, t)
        unique["checks"] += 1
        unique["undecided"] += verdict is None
        if verdict is False:
            where = "" if t is None else f" for t in [{t.lo}, {t.hi}]"
            violation(m, f"uniqueness box {box.bounds()}{where}: I - Dg over it holds "
                         "a singular matrix")

    def unique_checks(m, res):
        """unique_check on every uniqueness box of a localize result."""
        for enc in res.enclosures:
            if enc.unique is not None:
                unique_check(m, enc.unique)

    def localize_and_check(m, bounds, rect, loc_counts, planted=(), budget=20000):
        """Localize m and check the result: uniqueness boxes, volume tiling,
        the oracle on PROVEN boxes, and every planted point in an
        enclosure."""
        res = localize_fixed_points(m, rect, tol=1e-6, budget=budget)
        unique_checks(m, res)
        loc_counts["enclosures"] += len(res.enclosures)
        loc_counts["PROVEN"] += len(res.proven)
        loc_counts["exhausted"] += res.exhausted
        loc_counts["memo checks"] += len(memo_check(m, rect.box))
        tiled = res.discarded_volume + res.surviving_volume
        if not abs(tiled - res.total_volume) <= 1e-9 * res.total_volume:
            violation(m, f"discarded plus surviving volume {tiled} != {res.total_volume} "
                         f"on {bounds}")
        for enc in res.proven:
            _p, residual = grid_zoom_min(m, enc.box.bounds(), target=1e-13)
            if not residual <= 1e-9:
                violation(m, f"PROVEN box {enc.box.bounds()} oracle residual {residual}")
        # A planted fixed point may be a decimal: its float may sit an ulp off.
        for p in planted:
            if not any(all(c.lo - 1e-12 <= v <= c.hi + 1e-12 for c, v in zip(e.box.coords, p))
                       for e in res.enclosures):
                violation(m, f"planted fixed point {p} lies in no enclosure on {bounds}")
        return res

    def reversal_check(m, rect, res):
        """Localize m again with its coordinates reversed: a PROVEN box of
        either run holds a fixed point, so it must meet an enclosure of the
        other (the reversal maps each run's boxes to the other's)."""
        swapped, swapped_rect = reversed_problem(m, rect)
        other = localize_fixed_points(swapped, swapped_rect, tol=1e-6, budget=20000)
        unique_checks(swapped, other)
        for a, b in ((res, other), (other, res)):
            for enc in a.proven:
                box = permute_box(enc.box, (1, 0))
                if not any(box.intersects(e.box) for e in b.enclosures):
                    violation(m, f"PROVEN box {enc.box.bounds()} meets no enclosure of the "
                                 "run with the coordinates reversed")

    rng = random.Random(f"{args.seed}:localize")
    loc_counts = {"enclosures": 0, "PROVEN": 0, "exhausted": 0, "memo checks": 0}
    t0 = time.perf_counter()
    for k in range(n_localize):
        bounds, rect = random_rect(rng)
        if k % 2:
            m = random_expression_map(rng, 2)
        else:
            m = random_polynomial_map_2d(rng, rect)
        reversal_check(m, rect, localize_and_check(m, bounds, rect, loc_counts))
    elapsed = time.perf_counter() - t0
    print(f"{n_localize} localizations in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in loc_counts.items())
          + f" metamorphic checks={n_localize}")

    for stream, make in (("planted", random_planted_trig_map),
                         ("kinked", random_planted_kinked_map)):
        rng = random.Random(f"{args.seed}:{stream}")
        planted_counts = dict.fromkeys(loc_counts, 0)
        t0 = time.perf_counter()
        for _ in range(n_localize):
            bounds, rect = random_rect(rng)
            m, p = make(rng, rect)
            localize_and_check(m, bounds, rect, planted_counts, planted=(p,))
        elapsed = time.perf_counter() - t0
        label = "trig" if stream == "planted" else "kinked trig"
        print(f"{n_localize} planted {label} localizations in {elapsed:.1f}s: "
              + ", ".join(f"{k}={v}" for k, v in planted_counts.items()))

    def on_branch(coeffs, slab, samples=9):
        """Whether the slab holds the branch at every one of `samples`
        parameters of its cell (a decimal literal's float may sit an ulp
        off, hence the slack)."""
        return all(
            all(c.lo - 1e-12 <= v <= c.hi + 1e-12 for c, v in zip(slab.box.coords, point))
            for point in (branch_point(coeffs, slab.t.lo + k * (slab.t.hi - slab.t.lo)
                                       / (samples - 1)) for k in range(samples)))

    def pairs_or_error(fn, *fn_args):
        try:
            return fn(*fn_args)
        except (ArithmeticError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    rng = random.Random(f"{args.seed}:trace")
    trace_counts = {"slabs": 0, "PROVEN": 0, "proven chains": 0, "exhausted": 0,
                    "at checks": 0, "memo checks": 0}
    t0 = time.perf_counter()
    for k in range(n_localize):
        m, coeffs, box = random_planted_branch_family(rng, 1 + k % 2)
        wit = trace_continuum(m, (0.0, 1.0), box, grid=rng.choice((4, 8, 16)),
                              tol=1e-3 if m.dim == 1 else 0.05, budget_per_cell=20000)
        trace_counts["slabs"] += len(wit.slabs)
        trace_counts["proven chains"] += wit.proven
        trace_counts["exhausted"] += wit.exhausted
        bound = {}  # cell -> m at the lower end of the cell's t
        cells = {}  # cell -> (its t, its slab boxes)
        for slab in wit.slabs:
            t = slab.t.lo
            if slab.cell not in bound:
                bound[slab.cell] = m.at(t)
            cells.setdefault(slab.cell, (slab.t, []))[1].append(slab.box)
            trace_counts["at checks"] += 1
            got = pairs_or_error(bound[slab.cell].eval_pairs, slab.box)
            if got != pairs_or_error(m.eval_pairs, slab.box, Interval(t)):
                violation(m, f"map at t = {t} gives {got} on {slab.box.bounds()}, "
                             "not its value there")
            if slab.unique is not None:
                unique_check(m, slab.unique, slab.t)
            if slab.status == PROVEN:
                trace_counts["PROVEN"] += 1
                if not on_branch(coeffs, slab):
                    violation(m, f"PROVEN slab {slab.box.bounds()} on t in "
                                 f"[{slab.t.lo}, {slab.t.hi}] misses the branch {coeffs}")
        if wit.proven and not any(on_branch(coeffs, s, samples=2) for s in wit.chain_slabs()):
            violation(m, f"proven chain never meets the branch {coeffs}")
        for t, boxes in cells.values():
            trace_counts["memo checks"] += len(boxes)
            for bad in memo_view_mismatches(m, boxes, t):
                violation(m, f"memo view with t in [{t.lo}, {t.hi}] differs from the map "
                             f"on {bad.bounds()}")
    elapsed = time.perf_counter() - t0
    print(f"{n_localize} planted branch traces in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in trace_counts.items()))
    print(f"unique checks={unique['checks']} (undecided {unique['undecided']})")

    rng = random.Random(f"{args.seed}:edge")
    edge_counts = dict.fromkeys(counts, 0)
    edge_checks = 0
    t0 = time.perf_counter()
    for _ in range(n_edge):
        m, cyl, kernel, literals, top = random_edge_problem(rng)
        cert = certify_cylinder(m, cyl, "expansive", max_depth=12, max_boxes=3000)
        edge_counts[cert.outcome] += 1
        if cert.outcome == CERTIFIED:
            edge_checks += 1
            base = cyl.base.coords[0]
            if kernel_side(mpmath, kernel, literals, base.hi if top else base.lo) == (
                    1 if top else -1):
                side = "above the top" if top else "below the bottom"
                violation(m, f"{kernel} of {literals} lies {side} of the base {base}")
    elapsed = time.perf_counter() - t0
    print(f"{n_edge} edge-margin problems in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in edge_counts.items())
          + f" edge checks={edge_checks}")

    rng = random.Random(f"{args.seed}:degenerate")
    degenerate_counts = dict.fromkeys(loc_counts, 0)
    planted_checks = unique_boxes = 0
    t0 = time.perf_counter()
    for k in range(n_localize):
        m, rect, points, segment = random_degenerate_map(rng, 1 + k % 2)
        bounds = rect.box.bounds()
        samples = points
        if segment is not None:
            samples = segment + (tuple(0.5 * (a + b) for a, b in zip(*segment)),)
        res = localize_and_check(m, bounds, rect, degenerate_counts, planted=samples)
        planted_checks += len(samples)
        for enc in res.enclosures:
            if enc.unique is None:
                continue
            unique_boxes += 1
            held = [p for p in points if box_contains(enc.unique, p)]
            if len(held) > 1:
                violation(m, f"uniqueness box {enc.unique.bounds()} holds the fixed points "
                             f"{held}")
            if segment is not None and box_meets_segment(enc.unique, segment):
                violation(m, f"uniqueness box {enc.unique.bounds()} meets the segment of "
                             f"fixed points {segment}")
    elapsed = time.perf_counter() - t0
    print(f"{n_localize} degenerate localizations in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in degenerate_counts.items())
          + f" planted checks={planted_checks} unique boxes={unique_boxes}")

    rng = random.Random(f"{args.seed}:partial")
    partial_counts = dict.fromkeys(loc_counts, 0)
    raised = 0
    t0 = time.perf_counter()
    for _ in range(n_localize):
        bounds, rect = random_rect(rng)
        m = random_partial_map(rng, rect)
        res = localize_and_check(m, bounds, rect, partial_counts, budget=2000)
        raised += sum(enc.residual is None for enc in res.enclosures)
    elapsed = time.perf_counter() - t0
    print(f"{n_localize} partial-domain localizations in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in partial_counts.items())
          + f" raised={raised}")
    print(f"violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
