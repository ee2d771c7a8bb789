"""The three workloads: how each problem runs, what counts as a proof, and
how each answer is checked.

A workload turns generated problems into ``items`` during set-up, runs one
item per call of ``run`` inside the timed loop, and judges the recorded
answers in ``check`` after timing ends.  ``run`` never raises: an exception
or an error exit becomes an ``Answer`` with ``error`` set.

fpcert functions are always reached through their module (``self.cli.main``
and so on), so the traced run's patched bindings are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

import gen

ORACLE_RESIDUAL = 1e-6  # as in scripts/fuzz_soundness.py
ORACLE_SAMPLE = 24  # CERTIFIED answers per certify-batch run confirmed by the oracle
KNOWN_DEFECT_COUNT = 20
PROVEN_RESIDUAL = 1e-9  # a PROVEN box of width <= 1e-7 holds a true fixed point
BRANCH_SLACK = 1e-9  # decimal literals versus their float values


@dataclass
class Answer:
    digest: str
    proven: bool
    error: "str | None" = None
    result: object = None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _library_answer(result, proven: bool) -> Answer:
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    return Answer(_digest(text), proven, result=result)


def _error_answer(exc: BaseException) -> Answer:
    text = f"{type(exc).__name__}: {exc}"
    return Answer(_digest(text), False, error=text)


class Workload:
    name = ""
    count = 0  # problems per pass

    def __init__(self, fpcert_modules):
        for name, module in fpcert_modules.items():
            setattr(self, name, module)

    def generate(self, seed: int):
        raise NotImplementedError

    def prepare(self, problems, workdir: str):
        """Turn problems into the items run() takes: here (problem, map,
        domain), parsed once at set-up."""
        return [(p,) + self.parse(p.source) for p in problems]

    def run(self, item) -> Answer:
        raise NotImplementedError

    def check(self, items, answers, seed: int):
        """(wrong, notes): pid -> reason for every answer that is wrong, and
        observations that are reported without counting as failures."""
        raise NotImplementedError

    def parse(self, source: str):
        program = self.mapdsl.parse_program(source)
        domain = self.geometry.parse_domain(program.domain_line, program.map.dim,
                                            program.domain_line_no)
        return program.map, domain


# ---------------------------------------------------------------------------
# certify-batch
# ---------------------------------------------------------------------------

_OUTCOME_EXIT = {"CERTIFIED": 0, "REFUTED": 1, "INDETERMINATE": 2}


class CertifyBatch(Workload):
    """CLI certify and index runs, in-process, on files written at set-up."""

    name = "certify-batch"
    count = 1000

    def generate(self, seed):
        return gen.certify_batch(seed, self.count // sum(n for n, _make in gen.CERTIFY_BLOCK))

    def prepare(self, problems, workdir, prefix="p"):
        self.workdir = workdir
        items = []
        for p in problems:
            self.parse(p.source)  # the generator writes valid programs only
            path = os.path.join(workdir, f"{prefix}{p.pid:05d}.fp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(p.source)
            items.append((p, [p.task, path, "--format", "json", "--stable"]))
        return items

    def run(self, item):
        _problem, argv = item
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback escaping the CLI is a failure
            return _error_answer(exc)
        text = out.getvalue()
        answer = Answer(_digest(f"exit {code}\n{text}"), code == 0, result=(code, text))
        if code in (4, 5):
            answer.error = f"exit {code}: {err.getvalue().strip()}"
            answer.proven = False
        return answer

    def check(self, items, answers, seed):
        wrong = {}
        certified = []
        for problem, _argv in items:
            answer = answers[problem.pid]
            if answer.error:
                continue
            code, text = answer.result
            reason = self._check_one(problem, code, text)
            if reason:
                wrong[problem.pid] = reason
            elif problem.task == "certify" and code == 0:
                certified.append(problem)
        rng = random.Random(f"oracle:{seed}")
        for problem in rng.sample(certified, min(ORACLE_SAMPLE, len(certified))):
            residual = self._oracle_residual(problem)
            if not residual <= ORACLE_RESIDUAL:
                wrong[problem.pid] = f"oracle residual {residual} on a CERTIFIED answer"
        return wrong, {"known_defect_failed": self._known_defect(seed)}

    def _known_defect(self, seed):
        """Failures among the rational maps of ROADMAP item 3, which exit 4
        at the parent commit.  They run after timing, outside the workload,
        so that the workload itself has no failing problem."""
        items = self.prepare(gen.known_defect(seed, KNOWN_DEFECT_COUNT), self.workdir, "d")
        fails = sum(1 for item in items if self.run(item).error)
        return f"{fails} of {len(items)}"

    @staticmethod
    def _check_one(problem, code, text):
        try:
            payload = json.loads(text)
        except ValueError:
            return f"exit {code} with output that is not JSON"
        facts = problem.facts
        if problem.task == "certify":
            outcome = payload.get("outcome")
            if _OUTCOME_EXIT.get(outcome) != code:
                return f"outcome {outcome} with exit {code}"
            if outcome == "CERTIFIED" and facts.get("fixed_point") is False:
                return "CERTIFIED on a problem without a fixed point"
            if outcome == "CERTIFIED" and "index" in facts and payload.get("index") != facts["index"]:
                return f"index {payload.get('index')} certified, expected {facts['index']}"
            return None
        verified = payload.get("verified") is True
        if verified != (code == 0):
            return f"verified={verified} with exit {code}"
        if verified and payload.get("value") != facts["index"]:
            return f"verified index {payload.get('value')}, expected {facts['index']}"
        return None

    def _oracle_residual(self, problem):
        from oracles import grid_zoom_min

        m, domain = self.parse(problem.source)
        keep = None
        if isinstance(domain, self.geometry.RectDomain):
            bounds = domain.box.bounds()
        elif isinstance(domain, self.geometry.CylinderSpec):
            bounds = domain.full_box().bounds()
        elif isinstance(domain, self.geometry.ConeShellSpec):
            bounds = domain.bounding_box().bounds()
            fn = domain.functional
            keep = lambda p: domain.a <= fn.value(p) <= domain.b  # noqa: E731
        else:  # holed ball
            bounds = [[-domain.radius, domain.radius]] * 2
            keep = lambda p: (math.hypot(*p) <= domain.radius and all(  # noqa: E731
                math.hypot(p[0] - cx, p[1] - cy) >= r for cx, cy, r in domain.holes))
        _point, residual = grid_zoom_min(m, bounds, keep=keep)
        return residual


# ---------------------------------------------------------------------------
# localize-trig
# ---------------------------------------------------------------------------


class LocalizeTrig(Workload):
    """localize_fixed_points on [-2,2]^2 at tol 1e-7, Miranda upgrade on."""

    name = "localize-trig"
    count = 150
    tol = 1e-7

    def generate(self, seed):
        return gen.localize_trig(seed, self.count)

    def run(self, item):
        _problem, m, rect = item
        try:
            result = self.localize.localize_fixed_points(m, rect, tol=self.tol, upgrade=True)
        except Exception as exc:
            return _error_answer(exc)
        return _library_answer(result, bool(result.proven) and not result.exhausted)

    def check(self, items, answers, seed):
        from oracles import grid_zoom_min

        wrong = {}
        for problem, m, _rect in items:
            answer = answers[problem.pid]
            if answer.error:
                continue
            res = answer.result
            tiled = res.discarded_volume + res.surviving_volume
            if abs(tiled - res.total_volume) > 1e-9 * res.total_volume:
                wrong[problem.pid] = f"discarded plus surviving volume {tiled} != {res.total_volume}"
                continue
            for enc in res.proven:
                _p, residual = grid_zoom_min(m, enc.box.bounds(), target=1e-13)
                if not residual <= PROVEN_RESIDUAL:
                    wrong[problem.pid] = f"PROVEN box {enc.box.bounds()} oracle residual {residual}"
                    break
        return wrong, {}


# ---------------------------------------------------------------------------
# trace-poly
# ---------------------------------------------------------------------------


class TracePoly(Workload):
    """trace_continuum over t in [0,1], grid 16, tol 1.5e-3 (1-D) or 0.2 (2-D);
    the two tolerances give both dimensions similar times per family."""

    name = "trace-poly"
    count = 100
    tols = {1: 1.5e-3, 2: 0.2}
    grid = 16

    def generate(self, seed):
        return gen.trace_poly(seed, self.count)

    def run(self, item):
        _problem, m, rect = item
        try:
            result = self.continuation.trace_continuum(
                m, (0.0, 1.0), rect.box, grid=self.grid, tol=self.tols[m.dim])
        except Exception as exc:
            return _error_answer(exc)
        return _library_answer(result, result.complete and not result.exhausted)

    def check(self, items, answers, seed):
        wrong, misses = {}, []
        for problem, _m, _rect in items:
            answer = answers[problem.pid]
            if answer.error:
                continue
            witness = answer.result
            reason = self._lost_branch(problem.facts["branch"], witness)
            if reason:
                wrong[problem.pid] = reason
            elif witness.complete and not self._chain_meets(problem.facts["branch"], witness):
                misses.append(problem.pid)
        return wrong, {"complete_chains_missing_branch": len(misses)}

    @staticmethod
    def _on_branch(coeffs, t, box):
        return all(c.lo - BRANCH_SLACK <= c0 + c1 * t + c2 * t * t <= c.hi + BRANCH_SLACK
                   for (c0, c1, c2), c in zip(coeffs, box.coords))

    def _lost_branch(self, coeffs, witness):
        """Localization never loses a fixed point: the branch point at each
        cell's mid parameter lies in one of that cell's slabs."""
        for cell in range(len(witness.t_grid) - 1):
            t = 0.5 * (witness.t_grid[cell] + witness.t_grid[cell + 1])
            if not any(s.cell == cell and self._on_branch(coeffs, t, s.box)
                       for s in witness.slabs):
                return f"branch point at t={t} lies in no slab of cell {cell}"
        return None

    def _chain_meets(self, coeffs, witness):
        """Whether some chain slab holds a branch point (sampled at 65
        parameters per slab).  The chain is documented as evidence, not
        proof: a survivor band beside the branch can carry it, so a miss is
        reported, not counted as a wrong answer."""
        return any(self._on_branch(coeffs, s.t.lo + k * (s.t.hi - s.t.lo) / 64, s.box)
                   for s in witness.chain_slabs() for k in range(65))


WORKLOADS = {w.name: w for w in (CertifyBatch, LocalizeTrig, TracePoly)}
