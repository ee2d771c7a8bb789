#!/usr/bin/env python3
"""Randomized soundness experiment: no CERTIFIED outcome without a fixed point.

Generates random map/domain problems (rectangles, cylinders, cone shells),
certifies each, and confirms every CERTIFIED outcome with a dense-grid
residual search.  Holed balls follow, from a random stream of their own, so
the counts of the first line do not depend on them.  Any certificate the
oracle cannot confirm is a soundness bug and is printed with its problem
source.

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
    random_cone_problem,
    random_cylinder_problem,
    random_holed_ball_problem,
    random_rect_problem,
)
from oracles import grid_zoom_min  # noqa: E402

from fpcert.certify import (  # noqa: E402
    CERTIFIED,
    certify_cone_shell,
    certify_cylinder,
    certify_holes,
    certify_miranda,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=1000, help="total problem count")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--residual", type=float, default=1e-6)
    args = ap.parse_args()
    n_holes = args.n // 10

    rng = random.Random(args.seed)
    counts = {"CERTIFIED": 0, "REFUTED": 0, "INDETERMINATE": 0}
    violations = 0
    t0 = time.perf_counter()

    def confirm(cert, m, domain_bounds, keep):
        nonlocal violations
        if cert.outcome == CERTIFIED:
            point, res = grid_zoom_min(m, domain_bounds, keep=keep)
            if point is None or res > args.residual:
                violations += 1
                print("SOUNDNESS VIOLATION:")
                print(m.to_source())
                print(f"  oracle residual {res}")

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
    t0 = time.perf_counter()
    for k in range(n_holes):
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
        cert = certify_holes(m, spec)
        hole_counts[cert.outcome] += 1
        keep = lambda p, spec=spec: math.hypot(*p) <= spec.radius and all(  # noqa: E731
            math.hypot(p[0] - cx, p[1] - cy) >= r for cx, cy, r in spec.holes)
        confirm(cert, m, [(-spec.radius, spec.radius)] * 2, keep)
    elapsed = time.perf_counter() - t0
    print(f"{n_holes} holed balls in {elapsed:.1f}s: "
          + ", ".join(f"{k}={v}" for k, v in hole_counts.items()))
    print(f"violations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
