import json
import math
import random

import pytest

from fpcert import catalog
from fpcert.certify import (
    ANNULUS_REFUSAL,
    CERTIFIED,
    INDETERMINATE,
    REFUTED,
    SingleHoleError,
    UnsupportedDomainError,
    certify_cone_shell,
    certify_cylinder,
    certify_holes,
    certify_miranda,
    certify_problem,
)
from fpcert.degree import holes_index_cross_check
from fpcert.geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    Functional,
    HoledBallSpec,
    RectDomain,
    compressive_to_expansive,
    flip_coordinates,
    parse_domain,
)
from fpcert.interval import Box, Interval
from fpcert.mapdsl import parse_map, parse_program

from oracles import grid_zoom_min


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
        exp = certify_cylinder(compressive_to_expansive(T), cyl, "expansive",
                               max_boxes=4000)
        assert comp.outcome == exp.outcome
        assert comp.evidence == exp.evidence
        assert comp.witness == exp.witness


# ---------------------------------------------------------------------------
# Cone shell
# ---------------------------------------------------------------------------


def test_cone_quadratic_expansive():
    T = parse_map("dim 2\nmap g1 = (x1 + x2)*x1\nmap g2 = (x1 + x2)*x2\n")
    spec = ConeShellSpec(2, Functional.ones(2), 0.5, 2.0)
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
    spec = ConeShellSpec(2, Functional.ones(2), 1.0, 2.0)
    cert = certify_cone_shell(T, spec, "compressive")
    assert cert.outcome == CERTIFIED


def test_cone_scaling_refuted_both_forms():
    T = parse_map("dim 2\nmap g1 = 3*x1\nmap g2 = 3*x2\n")
    spec = ConeShellSpec(2, Functional.ones(2), 1.0, 2.0)
    for form in ("expansive", "compressive"):
        cert = certify_cone_shell(T, spec, form)
        assert cert.outcome == REFUTED
        assert cert.witness is not None
        level = sum(cert.witness)
        assert abs(level - 1.0) < 1e-6 or abs(level - 2.0) < 1e-6


@pytest.mark.parametrize(
    "source,functional,shell,form",
    [
        ("dim 2\nmap g1 = 0.6\nmap g2 = 0.8\n", Functional.euclid(), (0.5, 2.0),
         "compressive"),
        ("dim 2\nmap g1 = 1.5\nmap g2 = 0.3\n", Functional.sup(), (1.0, 2.0),
         "compressive"),
        ("dim 2\nmap g1 = sqrt(x1^2 + x2^2)*x1\nmap g2 = sqrt(x1^2 + x2^2)*x2\n",
         Functional.euclid(), (0.5, 2.0), "expansive"),
    ],
    ids=["euclid-constant", "sup-constant", "euclid-quadratic"],
)
def test_cone_other_functionals(source, functional, shell, form):
    spec = ConeShellSpec(2, functional, *shell)
    cert = certify_cone_shell(parse_map(source), spec, form)
    assert cert.outcome == CERTIFIED


def test_cone_rotation_leaves_cone():
    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    spec = ConeShellSpec(2, Functional.euclid(), 1.0, 2.0)
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
    assert cc == {"value": -1, "verified": True}


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


# ---------------------------------------------------------------------------
# Dispatch, refusals, JSON
# ---------------------------------------------------------------------------


def test_annulus_refused_with_message():
    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    with pytest.raises(UnsupportedDomainError) as err:
        certify_problem(rot, AnnulusSpec(1.0, 2.0))
    assert "false in finite dimension" in str(err.value)
    assert "false in finite dimension" in ANNULUS_REFUSAL


def test_rotation_never_certified():
    rot = parse_map("dim 2\nmap g1 = -x2\nmap g2 = x1\n")
    shell = ConeShellSpec(2, Functional.euclid(), 1.0, 2.0)
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
    d = cert.to_json_dict()
    assert set(d) == {"kind", "outcome", "directions", "domain", "index",
                      "evidence", "witness", "stats"}
    assert d["outcome"] == "CERTIFIED"
    assert d["stats"]["boxes"] >= 1 and "seconds" in d["stats"]
    stable = cert.to_json_dict(stable=True)
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
