#!/usr/bin/env python3
"""Randomized soundness experiment: no CERTIFIED outcome without a fixed point.

Generates random map/domain problems (rectangles, cylinders, cone shells),
certifies each, and confirms every CERTIFIED outcome with a dense-grid
residual search.  Holed balls follow, from a random stream of their own, so
the counts of the first line do not depend on them; each CERTIFIED one is
also cross-checked by planar winding numbers, whose verified value must be
the certified index 1 - n.  Last, 2-D fixed point indices of random planar
maps on random rectangles, from a third stream: every verified index must
equal a dense angle-accumulation winding number.  Then random planar maps
localized on random rectangles, from a fourth stream, every other one a
random expression in sin, cos, tanh, min and max: every PROVEN box
must hold a point the grid oracle drives to a residual of at most 1e-9,
and discarded plus surviving volume must equal the rectangle's.  Last,
from a fifth stream, trig maps with a fixed point planted inside their
rectangle take the same checks, and the planted point must lie in an
enclosure; then, from a sixth stream, the same with an abs or min term
whose kink passes through the planted point.  Last, from a seventh
stream, 1-D and 2-D families with a planted polynomial branch of fixed
points, the only one in their box, are traced over t in [0, 1]: every
PROVEN slab must hold the branch at sampled t of its cell, and every
proven chain must meet the branch.  Any
answer an oracle cannot confirm is a soundness bug and is printed with its
problem source.

    python scripts/fuzz_soundness.py --n 2000 --seed 7
"""

import argparse
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from corpus import (  # noqa: E402
    branch_point,
    random_cone_problem,
    random_cylinder_problem,
    random_expression_map,
    random_holed_ball_problem,
    random_planted_branch_family,
    random_planted_kinked_map,
    random_planted_trig_map,
    random_polynomial_map_2d,
    random_rect_problem,
)
from oracles import grid_zoom_min, winding_rect  # noqa: E402

from fpcert.certify import (  # noqa: E402
    CERTIFIED,
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
from fpcert.geometry import RectDomain  # noqa: E402
from fpcert.interval import Box  # noqa: E402
from fpcert.localize import PROVEN, localize_fixed_points  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000, help="total problem count")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--residual", type=float, default=1e-6)
    args = ap.parse_args()
    n_holes = n_index = n_localize = args.n // 10

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

    def confirm(cert, m, domain_bounds, keep):
        if cert.outcome == CERTIFIED:
            point, res = grid_zoom_min(m, domain_bounds, keep=keep)
            if point is None or res > args.residual:
                violation(m, f"oracle residual {res}")

    for k in range(args.n):
        roll = rng.random()
        if roll < 0.6:
            m, r = random_rect_problem(rng)
            cert = certify_miranda(m, r, max_depth=12, max_boxes=3000)
            domain_bounds = [(c.lo, c.hi) for c in r.box.coords]
            keep = None
        elif roll < 0.85:
            m, cyl, form = random_cylinder_problem(rng)
            cert = certify_cylinder(m, cyl, form, max_depth=12, max_boxes=3000)
            domain_bounds = [(c.lo, c.hi) for c in cyl.full_box().coords]
            keep = None
        else:
            m, spec, form = random_cone_problem(rng)
            cert = certify_cone_shell(m, spec, form, max_depth=14, max_boxes=6000)
            domain_bounds = [(c.lo, c.hi) for c in spec.bounding_box().coords]
            fn = spec.functional
            keep = lambda p, fn=fn, spec=spec: spec.a <= fn.value(p) <= spec.b

        counts[cert.outcome] += 1
        confirm(cert, m, domain_bounds, keep)

    elapsed = time.perf_counter() - t0
    print(f"{args.n} problems in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in counts.items()))

    rng = random.Random(f"{args.seed}:holes")
    hole_counts = dict.fromkeys(counts, 0)
    cross_verified = 0
    t0 = time.perf_counter()
    for k in range(n_holes):
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
        cert = certify_holes(m, spec)
        hole_counts[cert.outcome] += 1
        keep = lambda p, spec=spec: math.hypot(*p) <= spec.radius and all(  # noqa: E731
            math.hypot(p[0] - cx, p[1] - cy) >= r for cx, cy, r in spec.holes)
        confirm(cert, m, [(-spec.radius, spec.radius)] * 2, keep)
        if cert.outcome == CERTIFIED:
            cross = holes_index_cross_check(m, spec)
            cross_verified += cross["verified"]
            if cross["verified"] and cross["value"] != cert.index:
                violation(m, f"cross-check index {cross['value']}, certified {cert.index}")
    elapsed = time.perf_counter() - t0
    print(f"{n_holes} holed balls in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in hole_counts.items()))

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
        if result.verified:
            index_verified += 1
            expected = winding_rect(m, bounds)
            if result.value != expected:
                violation(m, f"index {result.value} on {bounds}, oracle winding {expected}")
    elapsed = time.perf_counter() - t0
    print(f"{n_index} 2-D indices in {elapsed:.1f}s: verified={index_verified}; "
          f"holed-ball cross-checks verified={cross_verified} of "
          f"{hole_counts[CERTIFIED]}")

    def localize_and_check(m, bounds, rect, loc_counts, planted=None):
        res = localize_fixed_points(m, rect, tol=1e-6, budget=20000)
        loc_counts["enclosures"] += len(res.enclosures)
        loc_counts["PROVEN"] += len(res.proven)
        loc_counts["exhausted"] += res.exhausted
        tiled = res.discarded_volume + res.surviving_volume
        if not abs(tiled - res.total_volume) <= 1e-9 * res.total_volume:
            violation(m, f"discarded plus surviving volume {tiled} != {res.total_volume} "
                         f"on {bounds}")
        for enc in res.proven:
            _p, residual = grid_zoom_min(m, enc.box.bounds(), target=1e-13)
            if not residual <= 1e-9:
                violation(m, f"PROVEN box {enc.box.bounds()} oracle residual {residual}")
        # A planted fixed point is a decimal: its float may sit an ulp off.
        if planted is not None and not any(
                all(c.lo - 1e-12 <= v <= c.hi + 1e-12 for c, v in zip(e.box.coords, planted))
                for e in res.enclosures):
            violation(m, f"planted fixed point {planted} lies in no enclosure on {bounds}")

    rng = random.Random(f"{args.seed}:localize")
    loc_counts = {"enclosures": 0, "PROVEN": 0, "exhausted": 0}
    t0 = time.perf_counter()
    for k in range(n_localize):
        bounds, rect = random_rect(rng)
        if k % 2:
            m = random_expression_map(rng, 2)
        else:
            m = random_polynomial_map_2d(rng, rect)
        localize_and_check(m, bounds, rect, loc_counts)
    elapsed = time.perf_counter() - t0
    print(f"{n_localize} localizations in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in loc_counts.items()))

    for stream, make in (("planted", random_planted_trig_map),
                         ("kinked", random_planted_kinked_map)):
        rng = random.Random(f"{args.seed}:{stream}")
        planted_counts = dict.fromkeys(loc_counts, 0)
        t0 = time.perf_counter()
        for _ in range(n_localize):
            bounds, rect = random_rect(rng)
            m, p = make(rng, rect)
            localize_and_check(m, bounds, rect, planted_counts, planted=p)
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

    rng = random.Random(f"{args.seed}:trace")
    trace_counts = {"slabs": 0, "PROVEN": 0, "proven chains": 0, "exhausted": 0}
    t0 = time.perf_counter()
    for k in range(n_localize):
        m, coeffs, box = random_planted_branch_family(rng, 1 + k % 2)
        wit = trace_continuum(m, (0.0, 1.0), box, grid=rng.choice((4, 8, 16)),
                              tol=1e-3 if m.dim == 1 else 0.05, budget_per_cell=20000)
        trace_counts["slabs"] += len(wit.slabs)
        trace_counts["proven chains"] += wit.proven
        trace_counts["exhausted"] += wit.exhausted
        for slab in wit.slabs:
            if slab.status == PROVEN:
                trace_counts["PROVEN"] += 1
                if not on_branch(coeffs, slab):
                    violation(m, f"PROVEN slab {slab.box.bounds()} on t in "
                                 f"[{slab.t.lo}, {slab.t.hi}] misses the branch {coeffs}")
        if wit.proven and not any(on_branch(coeffs, s, samples=2) for s in wit.chain_slabs()):
            violation(m, f"proven chain never meets the branch {coeffs}")
    elapsed = time.perf_counter() - t0
    print(f"{n_localize} planted branch traces in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in trace_counts.items()))
    print(f"violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
