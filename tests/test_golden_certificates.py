"""Byte-identity guard and outcome ratchet for certificates over a
fixed-seed problem corpus.

Every certificate's `to_json(stable=True)` is hashed and compared with
`golden_certificate_digests.json`.  The corpus covers the four certifiers
in every form, at the default depth and at depth caps of 4 and 0, which
leave cone, holed-ball and equality answers INDETERMINATE by the depth
cap; no certificate in it stops on the box budget.

`golden_certificate_outcomes.json` holds each key's outcome and box count.
It is a ratchet: a key keeps its outcome or goes from INDETERMINATE to
CERTIFIED, and never examines more boxes.  One pass over the corpus serves
both tests.  Regenerate the tables with

    PYTHONPATH=src python tests/test_golden_certificates.py

only for a deliberate change of output.  The outcome table is rewritten
only when the new results pass the ratchet, so it can only tighten.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from corpus import (
    random_cone_problem,
    random_cylinder_problem,
    random_holed_ball_problem,
    random_rect_problem,
)

from fpcert.certify import CERTIFIED, INDETERMINATE, certify_problem
from fpcert.geometry import HoledBallSpec, parse_domain
from fpcert.mapdsl import parse_program

_GOLDEN = Path(__file__).with_name("golden_certificate_digests.json")
_OUTCOMES = Path(__file__).with_name("golden_certificate_outcomes.json")
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


def corpus_results():
    """(digests, outcomes) of the whole corpus, from one pass: the hash of
    each certificate's stable JSON, and its outcome and box count."""
    digests, outcomes = {}, {}
    for name, m, domain, depths in corpus_problems():
        forms = ("auto",) if isinstance(domain, HoledBallSpec) else _FORMS
        for form in forms:
            for depth in depths:
                cert = certify_problem(m, domain, form=form, max_depth=depth)
                key = f"{name}/{form}/d{depth}"
                text = cert.to_json(stable=True)
                digests[key] = hashlib.sha256(text.encode()).hexdigest()
                outcomes[key] = {"outcome": cert.outcome, "boxes": cert.stats.boxes}
    return digests, outcomes


def ratchet_breaks(golden, got):
    """The keys whose outcome moved other than INDETERMINATE -> CERTIFIED,
    or whose box count grew."""

    def allowed(old):
        return (old, CERTIFIED) if old == INDETERMINATE else (old,)

    return sorted(key for key, new in got.items()
                  if new["boxes"] > golden[key]["boxes"]
                  or new["outcome"] not in allowed(golden[key]["outcome"]))


@pytest.fixture(scope="module")
def corpus():
    return corpus_results()


def test_certificates_match_golden_digests(corpus):
    golden = json.loads(_GOLDEN.read_text())
    got, _outcomes = corpus
    assert set(got) == set(golden)
    changed = sorted(key for key in got if got[key] != golden[key])
    assert not changed, changed


def test_no_certificate_loses_its_outcome_or_gains_boxes(corpus):
    golden = json.loads(_OUTCOMES.read_text())
    _digests, got = corpus
    assert set(got) == set(golden)
    broken = ratchet_breaks(golden, got)
    assert not broken, [(key, golden[key], got[key]) for key in broken]


def test_ratchet_allows_only_fewer_boxes_and_indeterminate_to_certified():
    old = {k: {"outcome": o, "boxes": 10} for k, o in
           (("a", "INDETERMINATE"), ("b", "CERTIFIED"), ("c", "REFUTED"))}

    def moved(key, outcome, boxes):
        return ratchet_breaks(old, {**old, key: {"outcome": outcome, "boxes": boxes}})

    assert moved("a", "CERTIFIED", 9) == [] and moved("c", "REFUTED", 10) == []
    assert moved("a", "REFUTED", 10) == ["a"] and moved("b", "INDETERMINATE", 1) == ["b"]
    assert moved("c", "CERTIFIED", 10) == ["c"] and moved("b", "CERTIFIED", 11) == ["b"]


def _write(path, table):
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    digests, outcomes = corpus_results()
    _write(_GOLDEN, digests)
    if _OUTCOMES.exists():
        old = json.loads(_OUTCOMES.read_text())
        if set(old) == set(outcomes) and ratchet_breaks(old, outcomes):
            raise SystemExit(f"outcome ratchet broken: {ratchet_breaks(old, outcomes)}")
    _write(_OUTCOMES, outcomes)
