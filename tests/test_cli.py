import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fpcert import catalog, cli
from fpcert import interval as iv
from fpcert.cli import _parser, main
from fpcert.interval import DomainError
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


def test_certify_a_base_that_misses_the_fixed_point_by_less_than_an_ulp(capsys, tmp_path):
    # The only fixed point is (0.5, tanh(11/1024)), and tanh(11/1024) lies
    # 1.8e-19 above the base's top 0.010741774322289108, a float: the upper
    # bound of g2 must lie above the top, so the cylinder is not certified.
    top = 0.010741774322289108
    assert iv.tanh_pair(0.0107421875, 0.0107421875)[1] > top
    path = tmp_path / "tanh_edge.fp"
    path.write_text("dim 2\n"
                    "map g1 = 2*x1 - 0.5\n"
                    "map g2 = tanh(0.0107421875)\n"
                    f"domain cylinder [0,1] base [-1,{top!r}]\n")
    code, out, _ = run(capsys, "certify", str(path), "--max-depth", "6", "--format", "json",
                       "--stable")
    assert code == 2
    assert json.loads(out)["outcome"] == "INDETERMINATE"


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


def test_certify_holed_ball_past_the_float_range_fails_soft(capsys, tmp_path):
    # Squared distances near the rim overflow, so the outer condition's
    # domain test raises on those boxes of its cover.  They stay undecided
    # (split, then unresolved at the depth cap) instead of ending the run
    # with an error (exit 4); the first hole's condition then refutes.
    path = tmp_path / "huge.fp"
    path.write_text("dim 2\nmap g1 = x1/2\nmap g2 = x2/2\n"
                    "domain holedball R=1.5e154 hole (-5e153,0,1e153) hole (5e153,0,1e153)\n")
    code, out, err = run(capsys, "certify", str(path), "--format", "json", "--stable",
                         "--max-depth", "6")
    assert code == 1 and err == ""
    cert = json.loads(out)
    assert cert["outcome"] == "REFUTED"
    assert {e["face"] for e in cert["evidence"] if e["relation"] == "unresolved"} == {"outer"}
    # The witness lies on the first hole's circle and T maps it outside that
    # hole, checked in plain floats with a wide margin.
    x, y = cert["witness"]
    assert math.hypot(x + 5e153, y) == pytest.approx(1e153, rel=1e-9)
    assert math.hypot(x / 2 + 5e153, y / 2) > 2e153


def test_annulus_exit_4_with_message(capsys):
    code, _, err = run(capsys, "certify", "@annulus-rotation")
    assert code == 4
    assert "false in finite dimension" in err


def test_single_hole_exit_4(capsys):
    code, _, err = run(capsys, "certify", "@holes-single")
    assert code == 4
    assert "single hole" in err


def test_domain_error_in_a_command_exit_4(capsys, monkeypatch):
    # DomainError is a ValueError: the usage-error exit, not the
    # evaluation-error one.
    def fail(*_args, **_kwargs):
        raise DomainError("non-finite interval bound [0.0, inf]")

    monkeypatch.setattr(cli, "certify_problem", fail)
    code, out, err = run(capsys, "certify", "@miranda-linear-2d")
    assert (code, out, err) == (4, "", "error: non-finite interval bound [0.0, inf]\n")


# cos(x1) plus zero times a term whose derivative cannot be evaluated:
# sqrt(abs(x1 - x1)) is [0, sqrt(w)] on a box of width w, and its
# derivative divides by that, so the operator step raises on every box and
# the map takes the bisection path.
_NO_OPERATOR = "cos(x1) + 0*sqrt(abs(x1 - x1))"


def test_localize_exits(tmp_path, capsys):
    code, _, _ = run(capsys, "localize", "@localize-cos", "--tol", "1e-8")
    assert code == 0
    code, _, _ = run(capsys, "localize", "@localize-translation")
    assert code == 1
    # The operator test proves cos(x1) on its first box, so the budget runs
    # out only on the bisection path, which _NO_OPERATOR takes.
    path = tmp_path / "cos_no_operator.fp"
    path.write_text(f"dim 1\nmap g1 = {_NO_OPERATOR}\ndomain rect [0,1]\n")
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


def test_localize_json_of_a_rectangle_past_the_float_range_holds_no_nan(tmp_path, capsys):
    path = tmp_path / "huge_rect.fp"
    path.write_text("dim 2\nmap g1 = 0.5*x1 + 0.3*sin(x2)\nmap g2 = 0.5*x2 + 0.3*cos(x1)\n"
                    "domain rect [-1e307,1e307] [-1e307,1e307]\n")
    code, out, _ = run(capsys, "localize", str(path), "--tol", "1e-8", "--budget", "2000",
                       "--format", "json")
    assert code == 0 and "NaN" not in out

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    cover = json.loads(out, parse_constant=reject)["coverage"]
    assert cover["total_volume"] is None and cover["discarded_volume"] is None


def test_localize_keeps_a_box_it_cannot_split(tmp_path, capsys):
    # tol below one ulp: boxes one ulp wide have no float inside to split
    # at, so they are leaves, not requeued until the budget runs out.
    code, payload = _localize_json(capsys, tmp_path / "cos_no_operator.fp",
                                   f"dim 1\nmap g1 = {_NO_OPERATOR}\ndomain rect [0,1]\n",
                                   "--tol", "1e-17", "--budget", "3000")
    assert code == 2 and not payload["exhausted"]
    boxes = [json.dumps(e["box"]) for e in payload["enclosures"]]
    assert boxes and len(set(boxes)) == len(boxes)
    # cos(x1) takes the operator path: the contraction stops where the
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


def _holed_ball_file(tmp_path, source):
    path = tmp_path / "holes.fp"
    path.write_text(source + "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)\n")
    return str(path)


def test_index_holed_ball_not_certified_prints_the_outcome(tmp_path, capsys):
    # The constant map into hole 0 violates hole 1's boundary condition.
    path = _holed_ball_file(tmp_path, "dim 2\nmap g1 = 2\nmap g2 = 0\n")
    code, out, err = run(capsys, "index", path, "--format", "json")
    assert code == 1 and err == ""
    assert json.loads(out) == {"outcome": "REFUTED", "value": None, "verified": False}
    code, out, _ = run(capsys, "index", path)
    assert code == 1
    assert out == "outcome: REFUTED\nvalue: None\nverified: False\n"


def test_index_holed_ball_whose_cross_check_fails_exit_2(tmp_path, capsys):
    # At depth 0 the certificate holds, but no circle winding completes.
    path = _holed_ball_file(tmp_path, "dim 2\nmap g1 = 2*tanh(x1)\nmap g2 = 0\n")
    code, out, _ = run(capsys, "index", path, "--max-depth", "0", "--format", "json")
    payload = json.loads(out)
    assert code == 2 and payload["value"] == -1
    assert payload["verified"] is False and payload["cross_check"] is None


_CYLINDER = "dim 2\nmap g1 = x1\nmap g2 = x2\ndomain cylinder [0,1] base [0,1]\n"


@pytest.mark.parametrize("command, source, message", [
    ("index", _CYLINDER, "index computation needs a rect or holedball domain"),
    ("localize", _CYLINDER, "localization needs a rect domain"),
    ("trace", "dim 2\nparam t\nmap g1 = t\nmap g2 = x2\ndomain cylinder [0,1] base [0,1]\n",
     "tracing needs a rect domain for the state box"),
    ("trace", "dim 1\nmap g1 = 0.5\ndomain rect [0,1]\n",
     "tracing needs a parametrized map (param t)"),
    ("certify", "dim 1\nmap g1 = 0.5\n", "problem file declares no domain line"),
], ids=["index-cylinder", "localize-cylinder", "trace-cylinder", "trace-no-param",
        "no-domain-line"])
def test_command_refuses_a_problem_it_cannot_take_exit_4(tmp_path, capsys, command,
                                                          source, message):
    path = tmp_path / "problem.fp"
    path.write_text(source)
    code, out, err = run(capsys, command, str(path))
    assert code == 4 and out == ""
    assert err == f"error: {message}\n", err


def test_trace_commands(capsys):
    code, out, _ = run(capsys, "trace", "@trace-linear", "--format", "json")
    assert code == 0 and json.loads(out)["complete"]
    code, out, _ = run(capsys, "trace", "@trace-translation", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["max_t_reached"] == 0.0


@pytest.mark.parametrize("argv", [
    ("localize", "@localize-cos"),
    ("trace", "@trace-linear"),
])
def test_nan_tolerance_exit_4(capsys, argv):
    code, _, err = run(capsys, *argv, "--tol", "nan")
    assert code == 4
    assert "tol must be positive" in err


@pytest.mark.parametrize("bounds", [("--t-hi", "inf"), ("--t-lo=-inf",), ("--t-lo", "nan")])
def test_trace_infinite_parameter_range_exit_4(capsys, bounds):
    code, out, err = run(capsys, "trace", "@trace-linear", *bounds)
    assert code == 4 and out == ""
    assert err == "error: parameter range must be finite\n", err


def test_trace_parameter_range_wider_than_the_floats_exit_4(capsys):
    # Both ends are finite, but b - a overflows.
    code, out, err = run(capsys, "trace", "@trace-linear", "--t-lo=-1e308", "--t-hi=1e308")
    assert code == 4 and out == ""
    assert err == "error: parameter range is wider than the float range\n", err


def test_trace_parameter_range_whose_grid_steps_overflow_exit_1(capsys):
    # b - a is finite, (b - a) * j is not: the grid still spans the range,
    # and no cell holds the branch x = t inside the state box.
    code, out, err = run(capsys, "trace", "@trace-linear", "--t-lo=-6e307", "--t-hi=6e307",
                         "--grid", "4", "--format", "json")
    assert code == 1 and err == "", err
    payload = json.loads(out)
    assert payload["complete"] is False and payload["cells"] == 4


@pytest.mark.parametrize("argv", [
    ("certify", "@index-holes", "--max-depth", "-1"),
    ("certify", "@miranda-linear-2d", "--max-depth", "-1"),
    ("certify", "@cylinder-translation", "--max-depth", "-3"),
    ("index", "@index-squaring", "--max-depth", "-1"),
    ("index", "@index-holes", "--max-depth", "-1"),
    ("index", "@miranda-const-1d", "--max-depth", "-1"),  # the 1-D rule runs no cover
    ("localize", "@localize-cos", "--budget", "-5"),
])
def test_negative_depth_or_budget_exit_4(capsys, argv):
    code, out, err = run(capsys, *argv)
    name = argv[-2].lstrip("-").replace("-", "_")
    assert code == 4 and out == ""
    assert err == f"error: {name} must be nonnegative, not {argv[-1]}\n", err


@pytest.mark.parametrize("argv, expected", [
    (("certify", "@miranda-linear-2d", "--max-depth", "0"), 0),
    (("localize", "@localize-cos", "--budget", "0"), 3),
])
def test_zero_depth_or_budget_is_legal(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected and err == ""


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


def test_index_1d_endpoint_that_raises_exit_2(tmp_path, capsys):
    # sqrt(x1 - 2) is undefined at both endpoints of [0, 1]: the index is
    # unverified, as on a 2-D boundary that never evaluates.
    path = tmp_path / "undefined.fp"
    path.write_text("dim 1\nmap g1 = sqrt(x1 - 2)\ndomain rect [0,1]\n")
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
    assert [code for code, _out, _err in reused] == [0, 0, 0, 0, ("SystemExit", 4), 0]
    assert "invalid choice: 'sideways'" in reused[4][2]


_DISPATCH_ROWS = {
    "certify": ["certify", "@miranda-linear-2d", "--format", "json", "--stable"],
    "certify-text": ["certify", "@cylinder-constant-compressive", "--max-depth", "12"],
    "localize": ["localize", "@localize-cos", "--tol", "1e-8"],
    "index": ["index", "@index-contraction", "--format", "json"],
    "trace": ["trace", "@trace-linear", "--grid", "8", "--stable"],
    "catalog": ["catalog"],
    "catalog-show": ["catalog", "--show", "trace-constant"],
    "help": ["-h"],
    "help-before-command": ["-h", "certify"],
    "help-after-command": ["certify", "-h"],
    "long-help-after-command": ["trace", "--help"],
    "no-argv": [],
    "unknown-command": ["verify", "@miranda-linear-2d"],
    "unknown-option": ["certify", "@miranda-linear-2d", "--bogus"],
    "unknown-options-and-values": ["localize", "--x", "1", "@localize-cos", "--y"],
    "bad-format": ["certify", "@miranda-linear-2d", "--format", "yaml"],
    "bad-max-depth": ["index", "@index-contraction", "--max-depth", "deep"],
    "missing-problem": ["certify", "--stable"],
    "extra-positional": ["certify", "@miranda-linear-2d", "@miranda-const-1d"],
    "dashdash-before-command": ["--", "certify", "@miranda-linear-2d"],
    "dashdash-after-command": ["certify", "--", "@miranda-linear-2d"],
    "dashdash-before-option": ["certify", "@miranda-linear-2d", "--", "--stable"],
    "unknown-problem": ["certify", "@no-such-entry"],
}


@pytest.mark.parametrize("argv", _DISPATCH_ROWS.values(), ids=_DISPATCH_ROWS)
def test_dispatch_answers_as_parse_args_on_a_fresh_parser(capsys, monkeypatch, argv):
    def answer():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    ours = answer()
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert ours == answer()


@pytest.mark.parametrize("argv, message", [
    (["certify", "--bogus", "x.fp"], "unrecognized arguments: --bogus"),
    (["certify", "@miranda-linear-2d", "--max-depth", "abc"],
     "argument --max-depth: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
], ids=["unknown-option", "bad-int", "no-command"])
def test_usage_errors_exit_4_with_the_usage_message(capsys, argv, message):
    # Exit 2 means INDETERMINATE, so argparse's own usage-error code is 4 here.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 4
    assert err.startswith("usage: fpcert") and message in err, err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: fpcert certify")


def test_problem_file_loading(tmp_path, capsys):
    path = tmp_path / "prob.fp"
    path.write_text("dim 1\nmap g1 = 0.5\ndomain rect [0,1]\n")
    code, out, _ = run(capsys, "certify", str(path), "--format", "json", "--stable")
    assert code == 0 and json.loads(out)["outcome"] == "CERTIFIED"


def test_parse_error_exit_4(tmp_path, capsys):
    # An unknown variable, a decimal literal past the float range, digits
    # that are not ASCII, and an exponent past Python's int digit limit.
    path = tmp_path / "bad.fp"
    for expr, fragment in (("x2", "x2"), ("1e999", "past the float range (line 2, column 10)"),
                           ("x1\u00b2", "unexpected character '\u00b2' (line 2, column 12)"),
                           (".e5", "stray '.' (line 2, column 10)"),
                           ("\u0661.\u0665*x1", "(line 2, column 10)"),
                           ("x1^" + "1" * 5000, "too many digits (line 2, column 13)")):
        path.write_text(f"dim 1\nmap g1 = {expr}\ndomain rect [0,1]\n", encoding="utf-8")
        code, _, err = run(capsys, "certify", str(path))
        assert code == 4 and fragment in err, err


# Program errors, each with the whole stderr line it prints.
_BAD_PROGRAMS = [
    ("dim 1\ndim 1\n", "duplicate dim declaration (line 2)"),
    ("param t\ndim 1\n", "param before dim (line 1)"),
    ("dim 1\nparam s\n", "only 'param t' is supported (line 2)"),
    ("dim 1\nmap g1 = 0.5\nparam t\n", "param must come before map lines (line 3)"),
    ("map g1 = 0.5\n", "map before dim (line 1)"),
    ("dim 1\nmap g1 0.5\n", "map line needs '=' (line 2)"),
    ("dim 1\nmap g2 = 0.5\n", "component g2 outside 1..1 (line 2)"),
    ("dim 1\nmap g1 = 0.5\nmap g1 = 0.5\n", "duplicate definition of g1 (line 3)"),
    ("dim 1\nfoo bar\n", "unknown directive 'foo' (line 2)"),
    ("dim 1\ndomain rect [0,1]\nmap g1 = 0.5\n", "domain line must be the last line (line 3)"),
    ("# no program\n\n", "missing dim declaration (line 1)"),
    ("dim 3\nmap g1 = 0.5\ndomain rect [0,1] [0,1] [0,1]\n", "missing map components: g2, g3"),
    ("dim 1\nmap g1 = (x1 + 1 2\n", "expected ')', found '2' (line 2, column 18)"),
    ("dim 1\nmap g1 = x1 x1\n", "unexpected token 'x1' (line 2, column 13)"),
    ("dim 1\nmap g1 = * x1\n", "unexpected token '*' (line 2, column 10)"),
    ("dim 1\nmap g1 = x1^x1\n", "exponent must be an integer literal (line 2, column 13)"),
    ("dim 1\nmap g1 = min(x1 x1)\n", "expected ',' or ')', found 'x1' (line 2, column 17)"),
    ("dim 1\nmap g1 = sin(x1, x1)\n", "sin takes 1 argument(s), got 2 (line 2, column 10)"),
    # Integers past Python's limit on digits per int; the message does not
    # echo the digits.
    pytest.param("dim " + "9" * 5000 + "\n", "dim has too many digits (line 1)",
                 id="dim-of-5000-digits"),
    pytest.param("dim 1\nmap g" + "1" * 5000 + " = x1\n",
                 "component index has too many digits (line 2)", id="g-of-5000-digits"),
    pytest.param("dim 1\nmap g1 = x" + "1" * 5000 + "\n",
                 "variable index has too many digits (line 2, column 10)",
                 id="x-of-5000-digits"),
]


@pytest.mark.parametrize("source, message", _BAD_PROGRAMS)
def test_program_error_exit_4(tmp_path, capsys, source, message):
    path = tmp_path / "bad.fp"
    path.write_text(source)
    code, out, err = run(capsys, "certify", str(path))
    assert code == 4 and out == ""
    assert err == f"error: {message}\n", err


def test_missing_components_of_a_huge_dim_exit_4_with_a_short_message(tmp_path, capsys):
    # The message names the first few missing components and counts the
    # rest; listing them all would take memory and output in proportion
    # to dim.
    path = tmp_path / "huge.fp"
    path.write_text("dim 99999999999999999999\nmap g1 = x1\n")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 4 and out == ""
    assert err == ("error: missing map components: g2, g3, g4, g5, g6"
                   " and 99999999999999999993 more\n"), err
    assert len(err.encode()) < 200


def test_missing_components_of_a_dim_of_4000_digits_do_not_echo_the_count(tmp_path, capsys):
    path = tmp_path / "huge.fp"
    path.write_text("dim " + "9" * 4000 + "\nmap g1 = x1\n")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 4 and out == ""
    assert err == "error: missing map components: g2, g3, g4, g5, g6 and more\n", err[:300]


def test_certify_a_parametrized_map_exit_4(tmp_path, capsys):
    path = tmp_path / "param.fp"
    path.write_text("dim 1\nparam t\nmap g1 = t\ndomain rect [0,1]\n")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 4 and out == ""
    assert err == "error: certification expects a parameter-free map\n", err


def test_unreadable_problem_path_exit_4(tmp_path, capsys):
    path = tmp_path / "absent.fp"
    code, out, err = run(capsys, "certify", str(path))
    assert code == 4 and out == ""
    assert err.startswith(f"error: cannot read problem file {str(path)!r}: "), err


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


# Malformed domain lines, each on the last line of a program of its dim.
_BAD_DOMAIN_LINES = [
    (1, "domain rect [\u0661,2]", "expected 'domain rect [lo,hi] ...'"),
    (1, "domain rect [1_0,2]", "expected 'domain rect"),
    (1, "domain rect [nan,1]", "expected 'domain rect"),
    (1, "domain rect [0,inf]", "expected 'domain rect"),
    (1, "domain rect [0,1e400]", "past the float range"),
    (1, "domain rect [-1e400,0]", "past the float range"),
    (1, "domain rect [- 1,0]", "expected 'domain rect"),
    (1, "domain rect [1.2.3,4]", "expected 'domain rect"),
    (1, "domain rect [1e,2]", "expected 'domain rect"),
    (1, "domain rect [0,1", "expected 'domain rect"),
    (1, "domain rect [0,1,2]", "expected 'domain rect"),
    (1, "domain rect [0,1] x", "expected 'domain rect"),
    (1, "domain rect", "a box needs at least one coordinate"),
    (1, "domain rect [0,1] [0,1]", "rect domain of dim 2 for a map of dim 1"),
    (1, "domain rect [1,0]", "lower bound 1.0 exceeds upper bound 0.0"),
    (1, "domain", "expected 'domain <rect|cylinder|coneshell|holedball|annulus> ...'"),
    (1, "domain sphere R=1", "expected 'domain <rect|"),
    (2, "domain cylinder [0,1] [0,1]", "expected 'domain cylinder [a,b] base [lo,hi] ...'"),
    (2, "domain cylinder [0,1] base", "a box needs at least one coordinate"),
    (3, "domain cylinder [0,1] base [0,1]", "cylinder domain of dim 2 for a map of dim 3"),
    (2, "domain coneshell l=sum a=0.5", "expected 'domain coneshell l=<sum|sup|euclid>"),
    (2, "domain coneshell l=sum a=0.5 b=2 c=3", "expected 'domain coneshell"),
    (2, "domain coneshell l=sum a=0.5 a=1 b=2", "expected 'domain coneshell"),
    (2, "domain coneshell l=sum b=2 a=0.5", "expected 'domain coneshell"),
    (2, "domain coneshell l=max a=0.5 b=2", "expected 'domain coneshell"),
    (2, "domain coneshell l=sum a=abc b=2", "expected 'domain coneshell"),
    (2, "domain coneshell l=suma=0.5 b=2", "expected 'domain coneshell"),
    (2, "domain coneshell l=sum a=0.5 b=nan", "expected 'domain coneshell"),
    (2, "domain coneshell l=sum a=2 b=0.5", "cone shell needs finite a < b"),
    (2, "domain holedball R=nan hole (2,0,0.5) hole (-2,0,0.5)",
     "expected 'domain holedball R=<v> hole (cx,cy,r) ...'"),
    (2, "domain holedball R=4 hole (2,0,inf) hole (-2,0,0.5)", "expected 'domain holedball"),
    (2, "domain holedball R=4 hole (2,0) hole (-2,0,0.5)", "expected 'domain holedball"),
    (2, "domain holedball R=4 hole 2,0,0.5", "expected 'domain holedball"),
    (2, "domain holedball hole (2,0,0.5) hole (-2,0,0.5)", "expected 'domain holedball"),
    (2, "domain holedball R=4 R=5 hole (2,0,0.5)", "expected 'domain holedball"),
    (2, "domain holedball R=4hole (2,0,0.5) hole (-2,0,0.5)", "expected 'domain holedball"),
    (2, "domain holedball R=4.hole (2,0,0.5) hole (-2,0,0.5)", "expected 'domain holedball"),
    (2, "domain holedball R=1 hole (2,0,0.5) hole (-2,0,0.5)", "not contained in the ball"),
    (1, "domain holedball R=4 hole (2,0,0.5) hole (-2,0,0.5)",
     "holedball domain of dim 2 for a map of dim 1"),
    (2, "domain annulus r1=1", "expected 'domain annulus r1=<v> r2=<v>'"),
    (2, "domain annulus r1=1 r2=2 r3=3", "expected 'domain annulus"),
]


@pytest.mark.parametrize("dim, line, fragment", _BAD_DOMAIN_LINES)
def test_malformed_domain_line_exit_4(tmp_path, capsys, dim, line, fragment):
    path = tmp_path / "bad-domain.fp"
    maps = "".join(f"map g{i} = 0.5\n" for i in range(1, dim + 1))
    path.write_text(f"dim {dim}\n{maps}{line}\n", encoding="utf-8")
    code, out, err = run(capsys, "certify", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.endswith(f" (line {dim + 2})\n"), err
    assert fragment in err, err
    assert "Traceback" not in err and "could not convert" not in err


def test_unknown_catalog_id_exit_4_plain_message(capsys):
    for argv in (("certify", "@nope"), ("catalog", "--show", "nope")):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith("error: no catalog entry 'nope'; known ids: "), err


def test_holed_ball_takes_form_auto_only(capsys):
    code, _, err = run(capsys, "certify", "@holes-two", "--form", "expansive")
    assert code == 4
    assert err == "error: a holed ball takes form 'auto' only, not 'expansive'\n"


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


@functools.cache
def stable_json(entry_id):
    """A catalog entry's exit code and `--format json --stable` stdout
    (deterministic, so each entry runs once for all the tests that read
    it)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_entry_argv(entry_id) + ["--format", "json", "--stable"])
    return code, out.getvalue()


def stable_json_digest(entry_id):
    return hashlib.sha256(stable_json(entry_id)[1].encode()).hexdigest()


@pytest.mark.parametrize("entry_id", sorted(catalog.CATALOG))
def test_catalog_stable_json_matches_golden_digest(entry_id):
    golden = json.loads(_GOLDEN.read_text())
    assert set(golden) == set(catalog.CATALOG)
    assert stable_json_digest(entry_id) == golden[entry_id]


@pytest.mark.parametrize("entry_id", sorted(catalog.CATALOG))
def test_catalog_stable_json_is_json_dumps_indent_2(entry_id):
    # Every report is printed by fpcert.jsonout, which must write exactly
    # what json.dumps(payload, indent=2) would, and the JSON path exits as
    # the text path does.  A refused entry (exit 4) prints no report.
    code, out = stable_json(entry_id)
    assert code == catalog.CATALOG[entry_id].exit
    if catalog.CATALOG[entry_id].exit == 4:
        assert out == ""
    else:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


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


def test_closed_output_pipe_exits_4_without_a_traceback():
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fpcert.cli", "localize", "@localize-cos", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
