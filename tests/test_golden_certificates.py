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
import random
from pathlib import Path

from corpus import (
    random_cone_problem,
    random_cylinder_problem,
    random_holed_ball_problem,
    random_rect_problem,
)

from fpcert.certify import certify_problem
from fpcert.geometry import HoledBallSpec, parse_domain
from fpcert.mapdsl import parse_program

_GOLDEN = Path(__file__).with_name("golden_certificate_digests.json")
_FORMS = ("auto", "expansive", "compressive")
_DEPTHS = (24, 4, 0)

# Conditions that hold only with equality, or with no interval margin at
# the sides of the base.  The equality faces end INDETERMINATE after a few
# undecidable boxes at any depth; the tight base has no undecidable boxes
# and would run into the box budget at depth 24, so only the capped depths
# are kept.
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
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
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
