#!/usr/bin/env python3
"""fpcert timings, layer by layer and end to end, with their work counts.

    python3 scripts/bench.py --label NAME [--root CHECKOUT] [--seed 1]

Standard library only.  Measures the checkout at --root (default: the one
holding this script), so one copy of this script measures a parent commit
too, and writes BENCH_<label>.json next to this script's checkout:

    {"env": {"python", "nproc", "rev", "seed", "seconds"},
     "layers": [...], "end_to_end": [...]}

Every entry is {"name", "median_s", "repeats", "work"}: the median over
`repeats` of the time per operation, and `work` the count of what one
repeat did, so that a faster kernel can be told apart from a smaller
search.  Layer rows (one process, gc off while timing):

- `import`: one fresh import of fpcert and its nine modules, as perfbench's
  set-up does it (`import_fpcert`); its work is the modules loaded and the
  classes they define, and `bytecode_cache` says whether Python may write
  and read bytecode caches (PYTHONDONTWRITEBYTECODE unset), without which
  every import compiles the sources again;
- the add, mul, sqr, div, sin, exp and tanh pair kernels, per call, over
  fixed seeded operands;
- one evaluation of the baseline trig map, plain and through its memo view,
  one `localize._hansen_sengupta` step and one `localize._residual_pairs`
  call, each replayed on the coordinate tuples that a localize search of
  the trig map on [-2, 2]^2 at tol 1e-7 hands to those functions, in search
  order, and one `certify._mean_value_pairs` call on each residual-test
  box; the step row's work adds the calls that one replay of the steps
  makes to the pair kernels `localize` binds (SWEEP_KERNELS), map
  evaluations aside;
- one `subdivision.adaptive_cover` run proving a fixed-point-free box with
  the residual test; its throughput is work["boxes"] / median_s;
- the cover boxes of one holed-ball certificate (the first holed ball of
  the certify-batch workload at --seed, certified once to record them),
  each classified again by its condition of
  `certify._holed_ball_conditions` through the map's memo view, as
  `certify_holes` does; its work is the boxes, so a cheaper bound per box
  tells apart from a smaller cover;
- the front end of the certify-batch workload at --seed, per problem: the
  argv dispatch of `cli.main` (`cli._parse` on the `--format json
  --stable` argv of every problem), `mapdsl.parse_program` on every
  program (work: the tokens and literals of its map lines), and each
  certify task's JSON report (`Certificate.to_json(stable=True)`,
  certified once untimed; work: the characters written);
- one trace cell: the 16 cells of one fixed 2-D trace-poly family (the
  second family of seed 1, whatever --seed is), each localized over its t
  cell at the workload's tol as `trace_continuum` does, per cell; its work
  is the cells, and the operator steps (contraction steps included) and
  residual tests of one untimed run of them.

End-to-end rows run `perfbench/run.py --trace 0` once per workload, in a
fresh process (editing nothing under perfbench/): median_s is the
latency_p50 and repeats the problems timed, and the row keeps every metric,
the answer digest and whether the answers checked.  Its work is counted in
a separate untimed pass over the workload's problems: the boxes of every
`adaptive_cover` run, the localize searches, their boxes, operator steps
(contraction steps included) and residual tests, the LocalizeResult work
counts, and the `div_pair` calls through every fpcert module that binds
it.  The last row is tier-1 (pytest), timed once.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify-batch", "localize-trig", "trace-poly")
MODULES = ("cli", "mapdsl", "geometry", "interval", "subdivision", "certify", "localize",
           "degree", "continuation")  # the modules perfbench imports
TRIG = ("dim 2\nmap g1 = 0.9*sin(3*x1) + 0.3*x2^2\n"
        "map g2 = 0.8*cos(2*x2 - x1) + 0.1*x1*x2\n")
COVER_BOX = [(-2.0, 2.0), (-2.0, 0.24)]  # holds no fixed point of TRIG: 69 boxes
REPEATS = 15  # timing repeats of a layer row
SECONDS = 10  # perfbench run length, as BENCHMARK.json runs it
# A map line's lexemes, counted as the work of a parse: numbers, words, any other character.
LEXEME = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|[A-Za-z_]\w*|\S")
TRACE_GRID, TRACE_TOL = 16, 0.2  # the trace-poly workload's cells and 2-D tolerance
# The pair kernels that localize's operator step calls itself, map evaluations aside.
SWEEP_KERNELS = ("scale_pair", "mul_pair", "div_pair")
RESULT_COUNTS = ("operator_tests", "operator_proofs", "operator_exclusions",
                 "operator_undecided", "halves_cut", "halves_discarded")


def timed(body, per: int) -> float:
    """The median over REPEATS runs of body's time divided by per."""
    times = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            body()
            times.append((time.perf_counter() - t0) / per)
    finally:
        gc.enable()
    return statistics.median(times)


def entry(name, median_s, repeats, work, **extra):
    return {"name": name, "median_s": median_s, "repeats": repeats, "work": work, **extra}


@contextlib.contextmanager
def wrapped(patches):
    """Within the block, each (module, name, wrap) of patches has
    module.name replaced by wrap(module.name)."""
    originals = [(module, name, getattr(module, name)) for module, name, _wrap in patches]
    for (module, name, wrap), (_m, _n, fn) in zip(patches, originals):
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def counting(work: dict, key: str):
    """A wrap for `wrapped` that adds 1 to work[key] on each call."""
    def wrap(fn):
        def call(*args):
            work[key] += 1
            return fn(*args)
        return call
    return wrap


def kernel_counts(modules, names, work: dict):
    """Patches for `wrapped` that count in work[name] the calls of each pair
    kernel of names through each of modules that binds it."""
    patches = []
    for name in names:
        bound = [module for module in modules if hasattr(module, name)]
        if bound:
            work[name] = 0
            patches += [(module, name, counting(work, name)) for module in bound]
    return patches


def _fpcert_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "fpcert" or n.startswith("fpcert.")}


def import_row():
    """The median time of one fresh import of fpcert, as perfbench's
    import_fpcert does it; the modules imported before are restored."""
    saved = _fpcert_modules()

    def body():
        for name in _fpcert_modules():
            del sys.modules[name]
        importlib.import_module("fpcert")
        for name in MODULES:
            importlib.import_module(f"fpcert.{name}")

    try:
        median = timed(body, 1)
        modules = _fpcert_modules()
        classes = sum(isinstance(v, type) and v.__module__ == name
                      for name, module in modules.items() for v in vars(module).values())
    finally:
        for name in _fpcert_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return entry("import", median, REPEATS, {"modules": len(modules), "classes": classes},
                 bytecode_cache=not sys.dont_write_bytecode)


def kernel_rows(interval):
    rng = random.Random(1)
    quads = [(a, a + rng.uniform(0.0, 2.0), c, c + rng.uniform(0.0, 2.0))
             for a, c in ((rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(1000))]
    divisors = [(a, b, abs(c) + 0.5, abs(c) + 0.5 + (d - c)) for a, b, c, d in quads]
    pairs = [(a, b) for a, b, _c, _d in quads]
    add_down, add_up = interval.add_down, interval.add_up

    def add():
        for a, b, c, d in quads:
            add_down(a, c)
            add_up(b, d)

    def quad_kernel(fn, operands):
        def body():
            for a, b, c, d in operands:
                fn(a, b, c, d)
        return body

    def pair_kernel(fn):
        def body():
            for lo, hi in pairs:
                fn(lo, hi)
        return body

    bodies = (("add", add), ("mul", quad_kernel(interval.mul_pair, quads)),
              ("sqr", pair_kernel(interval.sqr_pair)),
              ("div", quad_kernel(interval.div_pair, divisors)),
              ("sin", pair_kernel(interval.sin_pair)), ("exp", pair_kernel(interval.exp_pair)),
              ("tanh", pair_kernel(interval.tanh_pair)))
    return [entry(f"interval.{name}_pair", timed(body, len(quads)), REPEATS,
                  {"calls": len(quads)}) for name, body in bodies]


def search_rows(fp):
    """The map, operator and residual rows, replayed on the tuples of one
    search of the trig map, and the adaptive_cover row."""
    localize, mapdsl = fp["localize"], fp["mapdsl"]
    m = mapdsl.parse_map(TRIG)
    rect = fp["geometry"].RectDomain(fp["interval"].Box.from_bounds([(-2, 2), (-2, 2)]))
    steps, tests = [], []

    def recorder(into):
        def wrap(fn):
            def call(*args):
                into.append(args[-1])  # the coordinate tuple
                return fn(*args)
            return call
        return wrap

    with wrapped([(localize, "_hansen_sengupta", recorder(steps)),
                  (localize, "_residual_pairs", recorder(tests))]):
        localize.localize_fixed_points(m, rect, tol=1e-7)
    evals = steps + tests

    def plain():
        for xs in evals:
            for comp in m.components:
                comp.eval_pair(xs)

    def memo():
        with m.memo_view() as (f, _jac):
            for xs in evals:
                for comp in f.components:
                    comp.eval_pair(xs)

    def operator():
        with m.memo_view() as (f, jac):
            for xs in steps:
                localize._hansen_sengupta(f, jac, xs)

    step_work = {"steps": len(steps)}
    with wrapped(kernel_counts([localize], SWEEP_KERNELS, step_work)):
        operator()

    def residual():
        with m.memo_view() as (f, _jac):
            for xs in tests:
                localize._residual_pairs(f, xs)

    jac = mapdsl.jacobian(m)
    boxes = [fp["interval"].Box(xs) for xs in tests]

    def mean_value():
        for box in boxes:
            fp["certify"]._mean_value_pairs(m, jac, box)

    subdivision = fp["subdivision"]
    cover_root = fp["interval"].Box.from_bounds(COVER_BOX)

    def classify(box):
        if localize._residual_pairs(m, box.coords) is localize._PRUNED:
            return subdivision.VERIFIED, None
        return subdivision.UNKNOWN, None

    def cover():
        return subdivision.adaptive_cover([cover_root], classify, 30, 100_000)

    result = cover()
    if result.status != "verified":
        raise RuntimeError(f"adaptive_cover on {COVER_BOX}: {result.status}")
    return [
        entry("mapdsl.eval_pair", timed(plain, len(evals)), REPEATS,
              {"evaluations": len(evals)}),
        entry("mapdsl.memo_view.eval_pair", timed(memo, len(evals)), REPEATS,
              {"evaluations": len(evals)}),
        entry("localize._hansen_sengupta", timed(operator, len(steps)), REPEATS, step_work),
        entry("localize._residual_pairs", timed(residual, len(tests)), REPEATS,
              {"calls": len(tests)}),
        entry("certify._mean_value_pairs", timed(mean_value, len(boxes)), REPEATS,
              {"calls": len(boxes)}),
        entry("subdivision.adaptive_cover", timed(cover, 1), REPEATS,
              {"boxes": result.boxes_examined}),
    ]


def holes_row(fp, seed: int):
    """The holed-ball classify row: the cover boxes of the first holed ball
    of the certify-batch workload, recorded per condition from one
    certify_holes run, classified again by _holed_ball_conditions."""
    import gen  # perfbench's, from the checkout measured (see main)

    certify = fp["certify"]
    problem = next(p for p in gen.certify_batch(seed, 1) if p.kind.startswith("holes"))
    program = fp["mapdsl"].parse_program(problem.source)
    m = program.map
    spec = fp["geometry"].parse_domain(program.domain_line, m.dim)
    covers = []  # the boxes each condition classified, one list per cover

    def recorder(fn):
        def call(seeds, classify, *rest):
            boxes = []
            covers.append(boxes)

            def recorded(box):
                boxes.append(box)
                return classify(box)
            return fn(seeds, recorded, *rest)
        return call

    with wrapped([(certify, "adaptive_cover", recorder)]):
        cert = certify.certify_holes(m, spec)
    domain_error = fp["interval"].DomainError

    def classify():
        with m.memo_view() as (view, jac):
            for cond, boxes in zip(certify._holed_ball_conditions(view, jac, spec), covers):
                for box in boxes:
                    try:
                        cond.classify(box)
                    except domain_error:  # adaptive_cover leaves such a box unknown
                        pass

    return entry("certify._holed_ball_conditions.classify", timed(classify, 1), REPEATS,
                 {"boxes": sum(map(len, covers))}, problem=problem.kind,
                 outcome=cert.outcome)


def front_end_rows(fp, seed: int):
    """The argv, parse and report rows of the certify-batch front end."""
    import gen  # perfbench's, from the checkout measured (see main)

    cli, mapdsl, geometry = fp["cli"], fp["mapdsl"], fp["geometry"]
    problems = gen.certify_batch(seed, 20)  # the workload's 1,000 problems, 20 blocks of 50
    argvs = [[p.task, f"p{p.pid:05d}.fp", "--format", "json", "--stable"] for p in problems]
    sources = [p.source for p in problems]
    lexemes = [lexeme for source in sources for line in source.splitlines()
               if line.startswith("map") for lexeme in LEXEME.findall(line.split("=", 1)[1])]
    certificates = []
    for p in problems:
        if p.task == "certify":
            program = mapdsl.parse_program(p.source)
            domain = geometry.parse_domain(program.domain_line, program.map.dim,
                                           program.domain_line_no)
            certificates.append(fp["certify"].certify_problem(program.map, domain))

    def dispatch():
        for argv in argvs:
            cli._parse(argv)

    def parse():
        for source in sources:
            mapdsl.parse_program(source)

    def report():
        for cert in certificates:
            cert.to_json(stable=True)

    literals = sum(lexeme[0] in "0123456789." for lexeme in lexemes)
    chars = sum(len(cert.to_json(stable=True)) for cert in certificates)
    return [
        entry("cli.main.argv", timed(dispatch, len(argvs)), REPEATS, {"calls": len(argvs)}),
        entry("mapdsl.parse_program", timed(parse, len(sources)), REPEATS,
              {"programs": len(sources), "tokens": len(lexemes), "literals": literals}),
        entry("certify.Certificate.to_json", timed(report, len(certificates)), REPEATS,
              {"reports": len(certificates), "characters": chars}),
    ]


def trace_cell_row(fp):
    """The trace-cell row: the 16 cells of one fixed 2-D trace-poly family
    (the second family of seed 1), each localized over its t cell as
    trace_continuum does, timed per cell; its work is the cells, and the
    operator steps and residual tests of one untimed run of them."""
    import gen  # perfbench's, from the checkout measured (see main)

    localize = fp["localize"]
    problem = gen.trace_poly(1, 2)[1]
    program = fp["mapdsl"].parse_program(problem.source)
    m = program.map
    rect = fp["geometry"].parse_domain(program.domain_line, m.dim, program.domain_line_no)
    interval = fp["interval"].Interval
    cells = [interval(j / TRACE_GRID, (j + 1) / TRACE_GRID) for j in range(TRACE_GRID)]
    work = {"cells": len(cells), "operator_steps": 0, "residual_tests": 0}

    def run():
        for t in cells:
            localize.localize_fixed_points(m, rect, TRACE_TOL, t=t)

    with wrapped([(localize, "_hansen_sengupta", counting(work, "operator_steps")),
                  (localize, "_residual_pairs", counting(work, "residual_tests"))]):
        run()
    return entry("continuation.trace_cell", timed(run, len(cells)), REPEATS, work,
                 problem=problem.kind)


def counted_pass(fp, workload: str, seed: int):
    """The work of one untimed pass over the workload's problems: the boxes
    of every adaptive_cover run, the localize searches with their boxes,
    operator steps, residual tests and LocalizeResult counts, and the
    div_pair calls."""
    import workloads  # perfbench's, from the checkout measured (see main)

    localize = fp["localize"]
    work = dict.fromkeys(("cover_boxes", "searches", "boxes", "operator_steps",
                          "residual_tests"), 0)

    def cover(fn):
        def call(*args):
            res = fn(*args)
            work["cover_boxes"] += res.boxes_examined
            return res
        return call

    def search(fn):
        def call(*args):
            res = fn(*args)
            work["searches"] += 1
            work["boxes"] += res.boxes_examined
            for key in RESULT_COUNTS:
                work[key] = work.get(key, 0) + getattr(res, key)
            return res
        return call

    # Every binding a pass calls through: certify and degree import adaptive_cover.
    patches = [(fp[name], "adaptive_cover", cover) for name in ("certify", "degree")]
    patches += [(localize, "_search", search),
                (localize, "_hansen_sengupta", counting(work, "operator_steps")),
                (localize, "_residual_pairs", counting(work, "residual_tests"))]
    patches += kernel_counts(fp.values(), ("div_pair",), work)
    wl = workloads.WORKLOADS[workload](fp)
    with wrapped(patches), tempfile.TemporaryDirectory() as workdir:
        items = wl.prepare(wl.generate(seed), workdir)
        answers = [wl.run(item) for item in items]
    work["problems"] = len(items)
    work["proven"] = sum(a.proven for a in answers)
    return work


def perfbench_row(fp, root: str, workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"perfbench {workload} printed nothing: {proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    digest = next((line.split()[-1] for line in lines if line.startswith("answer digest")), None)
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    return entry(f"perfbench/{workload}", metrics["latency_p50_ms"] / 1e3, report["attempted"],
                 counted_pass(fp, workload, seed), metrics=metrics, digest=digest,
                 correct=report["correct"], failed=report["failed"])


def tier1_row(root: str):
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return entry("tier-1", wall, 1, counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    ap.add_argument("--root", default=REPO, help="the checkout to measure")
    ap.add_argument("--seed", type=int, default=1, help="perfbench workload seed")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        ap.error(f"label {args.label!r}: use letters, digits, '.', '_' and '-' only")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, d) for d in ("src", "perfbench", "tests")]
    fp = {name: importlib.import_module(f"fpcert.{name}") for name in MODULES}
    rev = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=False).stdout.strip() or None
    layers = [import_row()] + kernel_rows(fp["interval"]) + search_rows(fp)
    layers.append(holes_row(fp, args.seed))
    layers += front_end_rows(fp, args.seed)
    layers.append(trace_cell_row(fp))
    end_to_end = [perfbench_row(fp, root, w, args.seed) for w in WORKLOADS]
    end_to_end.append(tier1_row(root))
    out = {"env": {"python": sys.version.split()[0], "nproc": os.cpu_count(), "rev": rev,
                   "seed": args.seed, "seconds": SECONDS},
           "layers": layers, "end_to_end": end_to_end}
    path = os.path.join(REPO, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for row in layers + end_to_end:
        print(f"{row['name']:32s} {row['median_s'] * 1e6:12.2f} us  x{row['repeats']:<5d} "
              f"{json.dumps(row['work'], sort_keys=True)}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
