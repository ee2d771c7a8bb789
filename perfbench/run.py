#!/usr/bin/env python3
"""fpcert benchmark: three seeded workloads in a closed loop.

    python3 perfbench/run.py --workload certify-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One process, one thread, one problem in
flight.  The loop runs whole passes over the workload's problems until a
pass ends after --seconds; every run so sees the workload's exact mix.
Timings are scaled by a machine-speed gauge (perfbench/speed.py).  After
timing, every answer is checked (perfbench/workloads.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and then one traced pass over the same problems, and prints the per-layer
metrics (perfbench/tracing.py) with the tracing overhead.  Both modes print
the workload's answer digest; runs of one commit and seed agree on it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A report with every answer's
digest is written to .perfbench_out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 9
WARM_UP = 10  # problems run untimed before the loop
GAUGE_EVERY_S = 0.15  # problem time between two readings of the speed gauge
MODULES = ("cli", "mapdsl", "geometry", "interval", "subdivision", "certify",
           "localize", "degree", "continuation")

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_pps", "problems/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("proven_share", "ratio"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Calls that must be non-zero on the workload the layer-to-end-to-end table
# says stresses them; zero means the wrappers missed a binding.
STRESSED = {
    "certify-batch": ("cli.main", "mapdsl.parse_program", "geometry.parse_domain",
                      "subdivision.adaptive_cover", "degree.winding_degree_2d",
                      "certify.holes_index_cross_check", "interval.mul", "interval.add",
                      "interval.pow_int"),
    "localize-trig": ("localize.localize_fixed_points", "certify.certify_miranda",
                      "interval.sin", "interval.cos", "interval.mul", "interval.add",
                      "interval.pow_int"),
    "trace-poly": ("continuation.trace_continuum", "localize.localize_fixed_points",
                   "interval.mul", "interval.add", "interval.pow_int"),
}


def import_fpcert():
    """Import fpcert afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "fpcert" or n.startswith("fpcert.")]:
        del sys.modules[name]
    importlib.import_module("fpcert")
    return {name: importlib.import_module(f"fpcert.{name}") for name in MODULES}


def set_up(workload_cls, seed, workdir):
    """One set-up; returns its raw and gauge-scaled times."""
    gauge = speed.Gauge()
    t0 = time.perf_counter()
    workload = workload_cls(import_fpcert())
    items = workload.prepare(workload.generate(seed), workdir)
    raw = time.perf_counter() - t0
    return raw, raw * gauge.factor(), workload, items


class LoopResult:
    """Answers and per-problem times of one closed-loop run.  times and
    wall are scaled by the speed gauge; raw_times and raw_wall are as timed."""

    def __init__(self):
        self.times = []
        self.raw_times = []
        self.order = []  # pid of each timed run
        self.first = {}  # pid -> first Answer
        self.changed = set()  # pids whose answer differed between passes
        self.wall = 0.0
        self.raw_wall = 0.0


def closed_loop(workload, items, seconds, before=None) -> LoopResult:
    """Run every item in order, pass after pass, until a pass ends after
    `seconds` of wall time (one pass when seconds is None).  Whole passes
    keep the workload's mix exact in every run."""
    run, clock, n = workload.run, time.perf_counter, len(items)
    out = LoopResult()
    gauge = speed.Gauge()
    pending = []  # raw times since the last gauge reading
    start = last_gauge = clock()
    while True:
        for pid in range(n):
            if before is not None:
                before(pid)
            t0 = clock()
            answer = run(items[pid])
            t1 = clock()
            pending.append(t1 - t0)
            out.order.append(pid)
            seen = out.first.get(pid)
            if seen is None:
                out.first[pid] = answer
            elif seen.digest != answer.digest:
                out.changed.add(pid)
            if t1 - last_gauge >= GAUGE_EVERY_S or pid == n - 1:
                f = gauge.factor()
                out.raw_times += pending
                out.times += [t * f for t in pending]
                out.raw_wall += sum(pending)
                out.wall += sum(pending) * f
                pending = []
                last_gauge = clock()
        if seconds is None or clock() - start >= seconds:
            return out


def judge(workload, items, answers, seed, changed):
    """pid -> reason, for every problem that failed: an error, a wrong
    answer, or an answer that changed between runs."""
    failed = {pid: a.error for pid, a in answers.items() if a.error}
    checked, notes = workload.check(items, answers, seed)
    failed.update(checked)
    for pid in changed:
        failed.setdefault(pid, "answer changed between runs of the same problem")
    wrong = {pid: why for pid, why in failed.items() if not answers[pid].error}
    return failed, wrong, notes


def workload_digest(answers):
    joined = "\n".join(answers[pid].digest for pid in sorted(answers))
    return hashlib.sha256(joined.encode("ascii")).hexdigest()


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))]


def end_to_end_metrics(loop, failed, setup_times, times, wall, peak_rss_kb):
    runs, problems = len(loop.order), len(loop.first)
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_pps": runs / wall,
        "latency_p50_ms": 1e3 * statistics.median(times),
        "latency_p90_ms": 1e3 * quantile(times, 0.9),
        "proven_share": sum(a.proven for a in loop.first.values()) / problems,
        "answered_share": sum(pid not in failed for pid in loop.first) / problems,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def traced_run(workload, items, seed, modules_base):
    untraced = closed_loop(workload, items, None)
    tracer = tracing.Tracer(seed)
    tracer.install(modules_base)

    def before(pid):
        tracer.problem = pid

    try:
        traced = closed_loop(workload, items, None, before=before)
    finally:
        tracer.uninstall()
    changed = untraced.changed | traced.changed | {
        pid for pid, a in traced.first.items() if a.digest != untraced.first[pid].digest}
    replay = tracer.replay(modules_base["interval"].Interval, speed.Gauge())
    metrics = tracer.metrics(replay, traced.wall / untraced.wall, traced.wall / traced.raw_wall)
    zero = [name for name in STRESSED[workload.name] if not metrics[f"{name}.calls"]]
    return untraced, changed, metrics, zero, tracer


def measure(workload_cls, args, workdir):
    """Set up, run and judge one workload; returns everything reported."""
    setup_times, raw_setup_times = [], []
    for _ in range(SETUP_REPEATS):
        raw, scaled, workload, items = set_up(workload_cls, args.seed, workdir)
        raw_setup_times.append(raw)
        setup_times.append(scaled)
    gc.collect()
    for item in items[:WARM_UP]:
        workload.run(item)

    tracer, zero, raw = None, [], {}
    if args.trace:
        modules = {name: sys.modules[f"fpcert.{name}"] for name in MODULES}
        loop, changed, metrics, zero, tracer = traced_run(workload, items, args.seed, modules)
        units = dict(tracing.per_layer_names())
    else:
        loop = closed_loop(workload, items, args.seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before the checks
        changed = loop.changed
        units = dict(END_TO_END)
    failed, wrong, notes = judge(workload, items, loop.first, args.seed, changed)
    if not args.trace:
        metrics = end_to_end_metrics(loop, failed, setup_times, loop.times, loop.wall,
                                     peak_rss_kb)
        raw = end_to_end_metrics(loop, failed, raw_setup_times, loop.raw_times, loop.raw_wall,
                                 peak_rss_kb)
    return {
        "items": items, "loop": loop, "failed": failed, "wrong": wrong, "notes": notes,
        "metrics": metrics, "raw": raw, "units": units, "zero": zero, "tracer": tracer,
        "setup_times": setup_times, "raw_setup_times": raw_setup_times,
    }


def write_report(args, r, digest):
    loop, answers = r["loop"], r["loop"].first
    first_ms = {}
    for pid, t in zip(loop.order, loop.times):
        first_ms.setdefault(pid, 1e3 * t)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "problems": len(r["items"]), "runs": len(loop.order),
        "wall_s": loop.raw_wall, "scaled_wall_s": loop.wall,
        "setup_s": r["setup_times"], "raw_setup_s": r["raw_setup_times"],
        "digest": digest, "metrics": r["metrics"], "raw_metrics": r["raw"],
        "self_check_zero": r["zero"], "notes": r["notes"],
        "answers": [{"pid": p.pid, "kind": p.kind, "task": p.task,
                     "ms": first_ms[p.pid], "digest": answers[p.pid].digest,
                     "proven": answers[p.pid].proven, "failed": r["failed"].get(p.pid)}
                    for p in (item[0] for item in r["items"])],
    }
    if r["tracer"] is not None:
        report["spans"] = r["tracer"].write_spans(os.path.join(OUT, f"{tag}.spans.jsonl.gz"))
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (os.path.join(SRC, "fpcert", "__init__.py"), os.path.join(TESTS, "oracles.py")):
        if not os.path.isfile(needed):
            print(f"perfbench: {os.path.relpath(needed, ROOT)} not found; run from the root "
                  "of an fpcert checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, TESTS]

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        r = measure(workloads.WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop, failed, items = r["loop"], r["failed"], r["items"]
    digest = workload_digest(loop.first)
    write_report(args, r, digest)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(items)} problems, {len(loop.order)} timed runs in {loop.raw_wall:.2f} s, "
          f"{len(failed)} failed ({len(r['wrong'])} wrong answers)")
    print(f"answer digest {digest}")
    for name, value in r["notes"].items():
        print(f"  note {name}: {value}")
    for pid, why in sorted(failed.items())[:20]:
        print(f"  failed p{pid} {items[pid][0].kind}: {why}")
    if r["zero"]:
        print("SELF-CHECK: zero calls on this workload for " + ", ".join(r["zero"]))
        print("perfbench: self-check failed: " + ", ".join(r["zero"]), file=sys.stderr)
    for name, value in r["metrics"].items():
        raw = r["raw"].get(name, value)
        unscaled = f"  (raw {raw:.6g})" if raw != value else ""
        print(f"  {name} = {value:.6g} {r['units'][name]}{unscaled}")
    # A traced run attempts each problem once; an untraced one counts every
    # timed run of every pass.
    attempted = len(items) if args.trace else len(loop.order)
    n_failed = len(failed) if args.trace else sum(pid in failed for pid in loop.order)
    print(json.dumps({
        "correct": not r["wrong"],
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": r["units"][name]}
                    for name, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
