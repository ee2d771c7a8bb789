"""Byte-identity guard for localize and trace over a fixed-seed map corpus.

The sha256 of every result's `to_json_dict()` (canonical JSON, sorted
keys) is compared with `golden_localize_digests.json`.  The maps come from
`tests/corpus.py` and never raise on a box: 1-D and 2-D, localized with
and without the upgrade (the Krawczyk test, then the face sign test on the leaves
it does not prove), and with a small box budget so that the
budget-exhausted tail is covered too; then parametrized blends of them,
traced over t in [0, 1].  Regenerate the table with

    PYTHONPATH=src python tests/test_golden_localize.py

only for a deliberate change of output.
"""

import hashlib
import json
import random
from pathlib import Path

from corpus import random_expression_map, random_polynomial_map_2d, random_rect_problem

from fpcert.continuation import trace_continuum
from fpcert.geometry import RectDomain
from fpcert.interval import Box
from fpcert.localize import localize_fixed_points
from fpcert.mapdsl import blend_with_parameter

_GOLDEN = Path(__file__).with_name("golden_localize_digests.json")


def _digest(result) -> str:
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _random_rect(rng: random.Random, dim: int) -> RectDomain:
    bounds = []
    for _ in range(dim):
        lo = rng.uniform(-2.0, 1.0)
        bounds.append((lo, lo + rng.uniform(0.5, 2.5)))
    return RectDomain(Box.from_bounds(bounds))


def localize_cases():
    """(name, map, rectangle) for the localize corpus, in a fixed order."""
    rng = random.Random(8)
    k = 0
    while k < 16:
        m, rect = random_rect_problem(rng)
        if m.dim <= 2:
            yield f"rect-{k}", m, rect
            k += 1
    rng = random.Random(8)
    for k in range(8):
        rect = _random_rect(rng, 2)
        yield f"poly-{k}", random_polynomial_map_2d(rng, rect), rect
    rng = random.Random(8)
    for k in range(8):
        dim = 1 + k % 2
        m = random_expression_map(rng, dim)
        yield f"expr-{k}", m, RectDomain(Box.from_bounds([(-1.5, 1.5)] * dim))


def trace_cases():
    """(name, family, x box) for the trace corpus, in a fixed order."""
    rng = random.Random(8)
    for k in range(6):
        dim = 1 + k % 2
        rect = _random_rect(rng, dim)
        if dim == 1:
            f = random_expression_map(rng, 1, depth=2)
            g = random_expression_map(rng, 1, depth=2)
        else:
            f = random_polynomial_map_2d(rng, rect)
            g = random_polynomial_map_2d(rng, rect)
        yield f"blend-{k}", blend_with_parameter(f, g), rect.box


def golden_digests():
    digests = {}
    for name, m, rect in localize_cases():
        digests[f"{name}/tol1e-3"] = _digest(
            localize_fixed_points(m, rect, tol=1e-3, upgrade=False))
        digests[f"{name}/tol1e-3/upgrade"] = _digest(
            localize_fixed_points(m, rect, tol=1e-3))
        digests[f"{name}/budget60/upgrade"] = _digest(
            localize_fixed_points(m, rect, tol=1e-6, budget=60))
    for name, psi, x_box in trace_cases():
        digests[f"{name}/grid8"] = _digest(
            trace_continuum(psi, (0, 1), x_box, grid=8, tol=5e-2))
        digests[f"{name}/grid4/budget40"] = _digest(
            trace_continuum(psi, (0, 1), x_box, grid=4, tol=1e-3, budget_per_cell=40))
    return digests


def test_localize_and_trace_match_golden_digests():
    golden = json.loads(_GOLDEN.read_text())
    got = golden_digests()
    assert set(got) == set(golden)
    changed = sorted(key for key in got if got[key] != golden[key])
    assert not changed, changed


if __name__ == "__main__":
    _GOLDEN.write_text(json.dumps(golden_digests(), indent=2, sort_keys=True) + "\n")
