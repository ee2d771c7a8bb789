import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from fpcert import catalog
from fpcert.cli import _parser, main
from fpcert.mapdsl import parse_program

from corpus import random_holed_ball_problem
from oracles import winding_rect


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_catalog_certified(capsys):
    code, out, _ = run(capsys, "certify", "@miranda-linear-2d", "--format", "json",
                       "--stable")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "CERTIFIED"
    assert payload["directions"] == ["e", "c"]


def test_certify_translation_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "@miranda-translation", "--format", "json",
                       "--stable")
    assert code == 1
    assert json.loads(out)["witness"] is not None


def test_certify_indeterminate_exit_2(capsys):
    code, _, _ = run(capsys, "certify", "@rotation-rect-origin")
    assert code == 2


def test_certify_rational_map_exit_0(capsys, tmp_path):
    # The x1-face enclosure of y^2 - y + 1 (y = x2 + 1.5 in [0, 1]) holds
    # zero; the certifier splits the face instead of exiting 4.
    path = tmp_path / "rational.fp"
    path.write_text("dim 2\n"
                    "map g1 = 0.3*x1 - 0.35 + 0.1/((x2 + 1.5)^2 - (x2 + 1.5) + 1)\n"
                    "map g2 = -0.2*x2 - 1.2\n"
                    "domain rect [-1,0] [-1.5,-0.5]\n")
    code, out, _ = run(capsys, "certify", str(path), "--format", "json", "--stable")
    assert code == 0
    assert json.loads(out)["outcome"] == "CERTIFIED"


@pytest.mark.parametrize("dim", [1, 2])
def test_certify_map_undefined_on_a_face_exit_2(capsys, tmp_path, dim):
    # sqrt(x1 - 2) raises on every box of the x1 faces.  Each such box is
    # split down to the depth budget, and the run abstains (exit 2) with
    # unresolved evidence that carries no bound, instead of an evaluation
    # error (exit 5).
    path = tmp_path / "undefined.fp"
    path.write_text(f"dim {dim}\nmap g1 = sqrt(x1 - 2)\n"
                    + ("map g2 = 0.5*x2 + 0.25\n" if dim == 2 else "")
                    + "domain rect" + " [0,1]" * dim + "\n")
    code, out, _ = run(capsys, "certify", str(path), "--format", "json", "--stable",
                       "--max-depth", "6")
    assert code == 2
    cert = json.loads(out)
    assert cert["outcome"] == "INDETERMINATE"
    unresolved = [e for e in cert["evidence"] if e["relation"] == "unresolved"]
    assert {e["face"] for e in unresolved} == {"x1-", "x1+"}
    assert all(e["bound"] is None for e in unresolved)
    # Both Miranda pairs (c and e) split each x1 face to depth 6.
    assert cert["stats"]["boxes"] == (4 if dim == 1 else 4 * 127 + 2)


def test_annulus_exit_4_with_message(capsys):
    code, _, err = run(capsys, "certify", "@annulus-rotation")
    assert code == 4
    assert "false in finite dimension" in err


def test_single_hole_exit_4(capsys):
    code, _, err = run(capsys, "certify", "@holes-single")
    assert code == 4
    assert "single hole" in err


# cos(x1) plus zero times a term whose derivative cannot be evaluated:
# sqrt(abs(x1 - x1)) is [0, sqrt(w)] on a box of width w, and its
# derivative divides by that, so the Krawczyk step raises on every box and
# the map takes the bisection path.
_NO_KRAWCZYK = "cos(x1) + 0*sqrt(abs(x1 - x1))"


def test_localize_exits(tmp_path, capsys):
    code, _, _ = run(capsys, "localize", "@localize-cos", "--tol", "1e-8")
    assert code == 0
    code, _, _ = run(capsys, "localize", "@localize-translation")
    assert code == 1
    # The Krawczyk test proves cos(x1) on its first box, so the budget runs
    # out only on the bisection path, which _NO_KRAWCZYK takes.
    path = tmp_path / "cos_no_krawczyk.fp"
    path.write_text(f"dim 1\nmap g1 = {_NO_KRAWCZYK}\ndomain rect [0,1]\n")
    code, _, _ = run(capsys, "localize", str(path), "--tol", "1e-8", "--budget", "5")
    assert code == 3


def _localize_json(capsys, path, source, *argv):
    path.write_text(source)
    code, out, _ = run(capsys, "localize", str(path), *argv, "--format", "json")
    payload = json.loads(out)
    cover = payload["coverage"]
    assert cover["discarded_volume"] + cover["surviving_volume"] == pytest.approx(
        cover["total_volume"], rel=1e-12)
    return code, payload


def test_localize_keeps_a_box_it_cannot_split(tmp_path, capsys):
    # tol below one ulp: boxes one ulp wide have no float inside to split
    # at, so they are leaves, not requeued until the budget runs out.
    code, payload = _localize_json(capsys, tmp_path / "cos_no_krawczyk.fp",
                                   f"dim 1\nmap g1 = {_NO_KRAWCZYK}\ndomain rect [0,1]\n",
                                   "--tol", "1e-17", "--budget", "3000")
    assert code == 2 and not payload["exhausted"]
    boxes = [json.dumps(e["box"]) for e in payload["enclosures"]]
    assert boxes and len(set(boxes)) == len(boxes)
    # cos(x1) takes the Krawczyk path: the contraction stops where the
    # rounding of K(X) is as wide as X, and that box is a PROVEN leaf.
    code, payload = _localize_json(capsys, tmp_path / "cos.fp",
                                   "dim 1\nmap g1 = cos(x1)\ndomain rect [0,1]\n",
                                   "--tol", "1e-17", "--budget", "3000")
    assert code == 0 and not payload["exhausted"]
    [enc] = payload["enclosures"]
    assert enc["status"] == "PROVEN"
    (lo, hi), = enc["box"]
    assert lo < 0.7390851332151607 < hi and hi - lo < 1e-15


def test_index_commands(capsys):
    code, out, _ = run(capsys, "index", "@index-constant-inside", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out, _ = run(capsys, "index", "@index-constant-outside", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 0
    code, out, _ = run(capsys, "index", "@index-squaring", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == 2
    code, _, _ = run(capsys, "index", "@index-identity")
    assert code == 2


def test_index_holes(capsys):
    code, out, _ = run(capsys, "index", "@index-holes", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -1 and payload["verified"]


def test_index_holed_ball_with_fixed_points_near_the_ball(tmp_path, capsys):
    # The 14th holed ball of the seed-7 fuzz stream: T has fixed points
    # just outside the ball, which a winding on a padded rectangle counts.
    rng = random.Random("7:holes")
    for k in range(14):
        m, spec = random_holed_ball_problem(rng, 2 + k % 3)
    holes = " ".join(f"hole ({cx!r},{cy!r},{r!r})" for cx, cy, r in spec.holes)
    path = tmp_path / "holes.fp"
    path.write_text(m.to_source() + f"domain holedball R={spec.radius!r} {holes}\n")
    code, out, _ = run(capsys, "index", str(path), "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["verified"] is True
    assert payload["value"] == payload["cross_check"] == 1 - 3


def test_trace_commands(capsys):
    code, out, _ = run(capsys, "trace", "@trace-linear", "--format", "json")
    assert code == 0 and json.loads(out)["complete"]
    code, out, _ = run(capsys, "trace", "@trace-translation", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["max_t_reached"] == 0.0


_RATIONAL = "0.5/(x1^2 - x1 + 1)"  # naive enclosure over [0, 1] divides by [0, 2]


def test_localize_splits_a_box_whose_evaluation_raises(tmp_path, capsys):
    path = tmp_path / "rational.fp"
    path.write_text(f"dim 1\nmap g1 = {_RATIONAL}\ndomain rect [0,1]\n")
    code, out, err = run(capsys, "localize", str(path), "--format", "json")
    assert code == 0 and not err
    assert any(e["status"] == "PROVEN" for e in json.loads(out)["enclosures"])


def test_localize_leaf_that_raises_prints_no_residual(tmp_path, capsys):
    path = tmp_path / "never.fp"
    path.write_text("dim 1\nmap g1 = 1/(x1 - x1)\ndomain rect [0,1]\n")
    code, out, _ = run(capsys, "localize", str(path), "--tol", "0.3")
    assert code == 2 and "CANDIDATE" in out and "residual<= -" in out


def test_index_splits_a_segment_whose_evaluation_raises(tmp_path, capsys):
    path = tmp_path / "rational2.fp"
    path.write_text(f"dim 2\nmap g1 = {_RATIONAL}\nmap g2 = 0.5*x2 + 0.25\n"
                    "domain rect [0,1] [0,1]\n")
    code, out, err = run(capsys, "index", str(path), "--format", "json")
    payload = json.loads(out)
    assert code == 0 and not err and payload["verified"]
    m = parse_program(path.read_text()).map
    assert payload["value"] == 1 == winding_rect(m, [(0, 1), (0, 1)])


def test_index_fixed_point_on_the_boundary_exit_2(tmp_path, capsys):
    # The fixed point (0.648..., 0) lies on the edge x2 = 0, so Id - f
    # vanishes on the boundary and the index is undefined.
    path = tmp_path / "edge.fp"
    path.write_text(f"dim 2\nmap g1 = {_RATIONAL}\nmap g2 = 0.5*x2\n"
                    "domain rect [0,1] [0,1]\n")
    code, out, _ = run(capsys, "index", str(path), "--format", "json")
    assert code == 2 and json.loads(out)["verified"] is False


def test_reused_parser_answers_as_a_fresh_one(capsys):
    calls = [
        ["certify", "@miranda-linear-2d", "--format", "json", "--stable"],
        ["index", "@index-holes", "--format", "json"],
        ["localize", "@localize-cos", "--tol", "1e-8"],
        ["trace", "@trace-linear"],
        ["certify", "@miranda-linear-2d", "--form", "sideways"],  # usage error
        ["certify", "@cylinder-constant-compressive", "--stable"],
    ]

    def answer(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    _parser.cache_clear()
    reused = [answer(argv) for argv in calls]
    assert _parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _parser.cache_clear()
        fresh.append(answer(argv))
    assert reused == fresh
    assert [code for code, _out, _err in reused] == [0, 0, 0, 0, ("SystemExit", 2), 0]
    assert "invalid choice: 'sideways'" in reused[4][2]


def test_problem_file_loading(tmp_path, capsys):
    path = tmp_path / "prob.fp"
    path.write_text("dim 1\nmap g1 = 0.5\ndomain rect [0,1]\n")
    code, out, _ = run(capsys, "certify", str(path), "--format", "json", "--stable")
    assert code == 0 and json.loads(out)["outcome"] == "CERTIFIED"


def test_parse_error_exit_4(tmp_path, capsys):
    path = tmp_path / "bad.fp"
    path.write_text("dim 1\nmap g1 = x2\ndomain rect [0,1]\n")
    code, _, err = run(capsys, "certify", str(path))
    assert code == 4 and "x2" in err


@pytest.mark.parametrize("expr", [
    "(" * 3000 + "x1" + ")" * 3000,
    "-" * 990 + "x1",
    " + ".join(["0.001*x1"] * 1500),
], ids=["3000-parentheses", "990-unary-minus", "1500-term-sum"])
def test_deep_expression_exit_4(tmp_path, capsys, expr):
    path = tmp_path / "deep.fp"
    path.write_text(f"dim 1\nmap g1 = {expr}\ndomain rect [0,1]\n")
    code, _, err = run(capsys, "certify", str(path))
    assert code == 4
    assert err.startswith("error: expression nested deeper than")


def test_missing_domain_exit_4(tmp_path, capsys):
    path = tmp_path / "nodomain.fp"
    path.write_text("dim 1\nmap g1 = 0.5\n")
    code, _, _ = run(capsys, "certify", str(path))
    assert code == 4


def test_json_determinism_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "certify", "@cone-quadratic-expansive",
                           "--format", "json", "--stable")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_catalog_listing_and_show(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for entry_id in catalog.CATALOG:
        assert entry_id in out
    code, out, _ = run(capsys, "catalog", "--show", "miranda-const-1d")
    assert code == 0 and out == catalog.CATALOG["miranda-const-1d"].source


def test_catalog_completeness_runs():
    # every entry parses and runs its declared task without raising
    from fpcert.cli import _load_problem

    for entry in catalog.CATALOG.values():
        m, domain = _load_problem("@" + entry.id)
        assert m.dim >= 1
        assert entry.task in ("certify", "localize", "index", "trace")


def _entry_argv(entry_id):
    entry = catalog.CATALOG[entry_id]
    argv = [entry.task, "@" + entry_id]
    for key, value in entry.kwargs.items():
        argv += [f"--{key}", str(value)]
    return argv


def test_every_catalog_entry_has_expected_exit(capsys):
    for entry_id, entry in catalog.CATALOG.items():
        code = main(_entry_argv(entry_id))
        capsys.readouterr()
        assert code == entry.exit, (entry_id, code, entry.exit)


# sha256 of each catalog entry's `--format json --stable` stdout.  The table
# pins the byte-identity of every answer across refactors; regenerate it
# ({id: stable_json_digest(id) for id in catalog.CATALOG}, sorted, indent 2)
# only for a deliberate change of output.
_GOLDEN = Path(__file__).with_name("golden_stable_digests.json")


def stable_json_digest(entry_id):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(_entry_argv(entry_id) + ["--format", "json", "--stable"])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("entry_id", sorted(catalog.CATALOG))
def test_catalog_stable_json_matches_golden_digest(entry_id):
    golden = json.loads(_GOLDEN.read_text())
    assert set(golden) == set(catalog.CATALOG)
    assert stable_json_digest(entry_id) == golden[entry_id]


def test_budget_stopped_certificate_prints_json_exit_2(capsys, tmp_path):
    # The identity map meets both shell slices with equality: the box
    # budget runs out with boxes still queued.
    problem = tmp_path / "cone_identity.txt"
    problem.write_text("dim 2\nmap g1 = x1\nmap g2 = x2\n"
                       "domain coneshell l=sum a=0.5 b=2\n")
    code, out, err = run(capsys, "certify", str(problem), "--format", "json")
    assert code == 2, err
    payload = json.loads(out)
    assert payload["outcome"] == "INDETERMINATE"
    assert all(e["bound"] is not None for e in payload["evidence"])
