"""Byte-identity guard for certificates over a fixed-seed problem corpus.

Every certificate's `to_json(stable=True)` is hashed and compared with
`golden_certificate_digests.json`.  The corpus covers the four certifiers
in every form, at the default depth and at depth caps of 4 and 0, which
leave cone, holed-ball and equality answers INDETERMINATE by the depth
cap; no certificate in it stops on the box budget.  Regenerate the table
with

    PYTHONPATH=src python tests/test_golden_certificates.py

only for a deliberate change of output.
"""

import hashlib
import json
import math
import random
from pathlib import Path

from corpus import random_cone_problem, random_cylinder_problem, random_rect_problem

from fpcert.certify import certify_problem
from fpcert.geometry import HoledBallSpec, parse_domain
from fpcert.mapdsl import parse_map, parse_program

_GOLDEN = Path(__file__).with_name("golden_certificate_digests.json")
_FORMS = ("auto", "expansive", "compressive")
_DEPTHS = (24, 4, 0)

# Conditions that hold only with equality, or with no interval margin at
# the sides of the base: INDETERMINATE by the depth cap.  At depth 24 they
# would run into the box budget, so only the capped depths are kept.
_EQUALITY_CASES = (
    ("rect-identity", "dim 1\nmap g1 = x1\ndomain rect [0,1]\n"),
    ("rect-half-identity",
     "dim 2\nmap g1 = x1\nmap g2 = 0.5 + 0.25*x2\ndomain rect [0,1] [0,1]\n"),
    ("cylinder-height-identity",
     "dim 2\nmap g1 = x1\nmap g2 = 0.5\ndomain cylinder [0,1] base [0,1]\n"),
    ("cylinder-tight-base",
     "dim 2\nmap g1 = 2*x1 - 0.5\nmap g2 = x2 + 0.5*x1*x2*(1 - x2)\n"
     "domain cylinder [0,1] base [0,1]\n"),
)


def _holed_ball_problem(rng, n):
    """Ball with n holes on the x1 axis; x1 -> x1 - s sin(w (x1 - p0)) / w.

    s = 1 pulls every hole circle into its hole (CERTIFIED), s = -1 pushes
    it out (REFUTED on a hole), and a large offset on x2 leaves the outer
    ball (REFUTED on the outer condition).
    """
    period = rng.uniform(3.0, 5.0)
    w = 2.0 * math.pi / period
    p0 = -0.5 * (n - 1) * period
    r = round(period * rng.uniform(0.12, 0.17), 6)
    radius = round(-p0 + r + period * rng.uniform(0.1, 0.3), 4)
    mu = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.4), 6)
    kind = rng.choice(("pull", "pull", "push", "shift"))
    s = -1.0 if kind == "push" else 1.0
    off = 1.5 * radius if kind == "shift" else 0.0
    src = (
        "dim 2\n"
        f"map g1 = x1 - {s / w!r}*sin({w!r}*(x1 + {-p0!r}))\n"
        f"map g2 = {mu!r}*x2 + {off!r}\n"
    )
    holes = tuple((round(p0 + k * period, 6), 0.0, r) for k in range(n))
    return parse_map(src), HoledBallSpec(radius, holes)


def corpus_problems():
    """(name, map, domain, depths) for the whole corpus, in a fixed order."""
    rng = random.Random(7)
    for k in range(100):
        m, rect = random_rect_problem(rng)
        yield f"rect-{k}", m, rect, _DEPTHS
    rng = random.Random(7)
    for k in range(60):
        m, cyl, _form = random_cylinder_problem(rng)
        yield f"cylinder-{k}", m, cyl, _DEPTHS
    rng = random.Random(7)
    for k in range(20):
        m, spec, _form = random_cone_problem(rng)
        yield f"cone-{k}", m, spec, _DEPTHS
    rng = random.Random(7)
    for k in range(24):
        m, spec = _holed_ball_problem(rng, 2 + k % 3)
        yield f"holes-{k}", m, spec, _DEPTHS
    for name, source in _EQUALITY_CASES:
        program = parse_program(source)
        domain = parse_domain(program.domain_line, program.map.dim, program.domain_line_no)
        yield name, program.map, domain, _DEPTHS[1:]


def corpus_digests():
    digests = {}
    for name, m, domain, depths in corpus_problems():
        forms = ("auto",) if isinstance(domain, HoledBallSpec) else _FORMS
        for form in forms:
            for depth in depths:
                cert = certify_problem(m, domain, form=form, max_depth=depth)
                text = cert.to_json(stable=True)
                digests[f"{name}/{form}/d{depth}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_certificates_match_golden_digests():
    golden = json.loads(_GOLDEN.read_text())
    got = corpus_digests()
    assert set(got) == set(golden)
    changed = sorted(key for key in got if got[key] != golden[key])
    assert not changed, changed


if __name__ == "__main__":
    _GOLDEN.write_text(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n")
