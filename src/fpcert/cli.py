"""Batch front end: certify / localize / index / trace over problem files.

A problem is a DSL program (see mapdsl) whose final line declares the
domain.  Problems are given as file paths or as @id references into the
built-in catalog.  Reports stream to stdout as text or JSON; exit codes
follow the three-valued certificate logic so scripts can branch on them:

    0  CERTIFIED / at least one proven enclosure / verified / complete
    1  REFUTED / empty localization / incomplete trace
    2  INDETERMINATE / abstention
    3  work budget exhausted (partial results printed)
    4  usage, parse, or domain errors (including refused domains)
    5  evaluation errors inside the map
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as _catalog
from .certify import (
    CERTIFIED,
    INDETERMINATE,
    REFUTED,
    SingleHoleError,
    UnsupportedDomainError,
    certify_holes,
    certify_problem,
)
from .continuation import trace_continuum
from .degree import BoundaryZeroError, fixed_point_index, holes_index_cross_check
from .geometry import HoledBallSpec, RectDomain, parse_domain
from .interval import DimensionMismatchError, DomainError
from .localize import localize_fixed_points
from .mapdsl import EvaluationError, ParseError, parse_program

_OUTCOME_EXIT = {CERTIFIED: 0, REFUTED: 1, INDETERMINATE: 2}


class CliError(Exception):
    def __init__(self, message, code=4):
        super().__init__(message)
        self.code = code


def _load_problem(ref: str, need_domain: bool = True):
    if ref.startswith("@"):
        source = _catalog.get(ref[1:]).source
    else:
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read problem file {ref!r}: {exc}") from exc
    program = parse_program(source)
    domain = None
    if program.domain_line is not None:
        domain = parse_domain(program.domain_line, program.map.dim,
                              program.domain_line_no)
    if need_domain and domain is None:
        raise CliError("problem file declares no domain line")
    return program.map, domain


def _emit(payload: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _add_common(p):
    p.add_argument("problem", help="problem file path, or @id from the catalog")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--stable", action="store_true",
                   help="omit timing fields so identical runs are byte-identical")


def cmd_certify(args) -> int:
    m, domain = _load_problem(args.problem)
    cert = certify_problem(m, domain, form=args.form, max_depth=args.max_depth)
    if args.format == "json":
        print(cert.to_json(stable=args.stable))
    else:
        lines = {
            "kind": cert.kind,
            "outcome": cert.outcome,
            "directions": " ".join(d or "?" for d in cert.directions)
            if cert.directions else "-",
            "evidence": f"{len(cert.evidence)} face boxes",
            "witness": cert.witness if cert.witness else "-",
            "index": cert.index if cert.index is not None else "-",
            "stats": f"boxes={cert.stats.boxes} depth={cert.stats.depth}"
            + ("" if args.stable else f" seconds={cert.stats.seconds:.3f}"),
        }
        _emit(lines, "text")
    return _OUTCOME_EXIT[cert.outcome]


def cmd_localize(args) -> int:
    m, domain = _load_problem(args.problem)
    if not isinstance(domain, RectDomain):
        raise CliError("localization needs a rect domain")
    result = localize_fixed_points(m, domain, tol=args.tol, budget=args.budget)
    if args.format == "json":
        print(result.to_json())
    else:
        _emit(
            {
                "enclosures": len(result.enclosures),
                "proven": len(result.proven),
                "boxes_examined": result.boxes_examined,
                "exhausted": result.exhausted,
            },
            "text",
        )
        for e in result.enclosures[:20]:
            bound = "-" if e.residual is None else f"{e.residual.hi:.3g}"
            print(f"  {e.status} {e.box.bounds()} residual<= {bound}")
    if result.exhausted:
        return 3
    if result.proven:
        return 0
    return 1 if not result.enclosures else 2


def cmd_index(args) -> int:
    m, domain = _load_problem(args.problem)
    if isinstance(domain, HoledBallSpec):
        cert = certify_holes(m, domain, max_depth=args.max_depth)
        if cert.outcome != CERTIFIED:
            _emit({"outcome": cert.outcome, "value": None, "verified": False},
                  args.format)
            return _OUTCOME_EXIT[cert.outcome]
        cross = holes_index_cross_check(m, domain, max_depth=min(args.max_depth, 20))
        verified = cross["verified"] and cross["value"] == cert.index
        _emit(
            {
                "value": cert.index,
                "verified": verified,
                "cross_check": cross["value"],
                "segments": len(cert.evidence),
                "depth": cert.stats.depth,
            },
            args.format,
        )
        return 0 if verified else 2
    if not isinstance(domain, RectDomain):
        raise CliError("index computation needs a rect or holedball domain")
    try:
        result = fixed_point_index(m, domain, max_depth=args.max_depth)
    except BoundaryZeroError as exc:
        _emit({"value": None, "verified": False, "reason": str(exc)}, args.format)
        return 2
    _emit(result.to_json_dict(), args.format)
    return 0 if result.verified else 2


def cmd_trace(args) -> int:
    m, domain = _load_problem(args.problem)
    if not isinstance(domain, RectDomain):
        raise CliError("tracing needs a rect domain for the state box")
    if not m.has_param:
        raise CliError("tracing needs a parametrized map (param t)")
    witness = trace_continuum(
        m,
        (args.t_lo, args.t_hi),
        domain.box,
        grid=args.grid,
        tol=args.tol,
        check_start_index=args.check_start_index,
    )
    if args.format == "json":
        print(witness.to_json())
    else:
        _emit(
            {
                "complete": witness.complete,
                "proven": witness.proven,
                "cells": len(witness.t_grid) - 1,
                "chain": len(witness.chain),
                "max_t_reached": witness.max_t_reached,
                "start_index": witness.start_index,
            },
            "text",
        )
    if witness.exhausted:
        return 3
    return 0 if witness.complete else 1


def cmd_catalog(args) -> int:
    if args.show:
        entry = _catalog.get(args.show)
        sys.stdout.write(entry.source)
        return 0
    for entry_id in sorted(_catalog.CATALOG):
        e = _catalog.CATALOG[entry_id]
        print(f"{e.id:28s} [{e.task:8s}] {e.title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpcert",
        description="rigorous fixed-point existence certificates over interval "
        "arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="verify boundary hypotheses over a domain")
    _add_common(p)
    p.add_argument("--form", choices=("auto", "expansive", "compressive"),
                   default="auto")
    p.add_argument("--max-depth", type=int, default=24)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("localize", help="enclose fixed points inside a rectangle")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--budget", type=int, default=200_000)
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("index", help="fixed point index (degree of Id - f)")
    _add_common(p)
    p.add_argument("--max-depth", type=int, default=24)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("trace", help="trace a fixed-point continuum over t")
    _add_common(p)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--t-lo", type=float, default=0.0)
    p.add_argument("--t-hi", type=float, default=1.0)
    p.add_argument("--check-start-index", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("catalog", help="list or show built-in problems")
    p.add_argument("--show", metavar="ID", help="print the program text of one entry")
    p.set_defaults(fn=cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: building it costs
    far more than a parse, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (UnsupportedDomainError, SingleHoleError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    except (ParseError, DimensionMismatchError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (EvaluationError, DomainError, ArithmeticError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    raise SystemExit(main())
