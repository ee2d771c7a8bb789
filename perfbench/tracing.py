"""Traced run: spans around fpcert's public functions, interval op counts,
and the replay that prices each interval op.

Everything is patched from outside.  A function is replaced in every
``fpcert`` module that binds it (``fpcert.localize.certify_miranda``,
``fpcert.cli.main``, ...), since modules import each other's functions by
name and a patch on the defining module alone would miss those calls.
``Tracer.uninstall`` restores every binding.

Spans live in flat arrays (name, start, end, parent, problem) and are
written out once, after the traced pass.
"""

from __future__ import annotations

import gzip
import json
import random
import statistics
import sys
import time
from array import array

# (module, function) per layer; "Class.method" patches the class attribute.
FUNCTIONS = (
    ("mapdsl", "parse_program"),
    ("mapdsl", "MapSpec.eval_interval"),
    ("mapdsl", "MapSpec.eval_component_interval"),
    ("mapdsl", "MapSpec.eval_real"),
    ("geometry", "parse_domain"),
    ("subdivision", "adaptive_cover"),
    ("certify", "certify_problem"),
    ("certify", "certify_miranda"),
    ("certify", "certify_cylinder"),
    ("certify", "certify_cone_shell"),
    ("certify", "certify_holes"),
    ("certify", "holes_index_cross_check"),
    ("localize", "localize_fixed_points"),
    ("localize", "region_fixed_point_free"),
    ("degree", "fixed_point_index"),
    ("degree", "degree_1d"),
    ("degree", "winding_degree_2d"),
    ("continuation", "trace_continuum"),
    ("cli", "main"),
)

# Interval ops that are counted (not spanned), by the method implementing them.
INTERVAL_OPS = (
    ("add", "__add__"), ("sub", "__sub__"), ("mul", "__mul__"), ("div", "__truediv__"),
    ("pow_int", "pow_int"), ("sqrt", "sqrt"), ("exp", "exp"), ("tanh", "tanh"),
    ("sin", "sin"), ("cos", "cos"),
)
_BINARY = {"add", "sub", "mul", "div"}

COUNTS = (
    "subdivision.adaptive_cover.boxes",
    "subdivision.adaptive_cover.verified_ratio",
    "subdivision.adaptive_cover.budget_stops",
    "certify.boxes",
    "localize.localize_fixed_points.boxes",
    "localize.localize_fixed_points.enclosures",
    "localize.localize_fixed_points.proven",
    "degree.winding_degree_2d.segments",
    "continuation.trace_continuum.cells",
    "continuation.trace_continuum.slabs",
)

# Per-box map evaluations: timed and counted, and their time is taken out of
# the caller's self time, but with over a million calls per pass they are
# not kept as spans.
UNSPANNED = {"mapdsl.MapSpec.eval_interval", "mapdsl.MapSpec.eval_component_interval",
             "mapdsl.MapSpec.eval_real"}

RESERVOIR = 2000  # operands kept per interval op
REPLAY_ROUNDS = 7


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function}"


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for module, function in FUNCTIONS:
        base = layer_name(module, function)
        names += [(f"{base}.calls", "count"), (f"{base}.s", "s"), (f"{base}.self_s", "s")]
    names += [(n, "ratio" if n.endswith("ratio") else "count") for n in COUNTS]
    for op, _method in INTERVAL_OPS:
        names += [(f"interval.{op}.calls", "count"), (f"interval.{op}.us", "us")]
    names += [("interval.mul.mixed_sign_share", "ratio"), ("trace.overhead", "ratio")]
    return names


def _resolve(modules, module, function):
    """The object that holds the function and the function itself.  A
    function that moved to another fpcert module is found there, so that a
    planned move (holes_index_cross_check next to winding_degree_2d,
    ROADMAP item 2) keeps its metric name."""
    if "." in function:
        cls_name, meth = function.split(".")
        cls = getattr(modules[module], cls_name)
        return cls, meth, cls.__dict__[meth]
    fn = getattr(modules[module], function, None)
    if fn is None:
        for other in modules.values():
            cand = getattr(other, function, None)
            if callable(cand) and getattr(cand, "__module__", "").startswith("fpcert"):
                fn = cand
                break
    if fn is None:
        raise LookupError(f"fpcert has no function {module}.{function}")
    return modules[module], function, fn


class Tracer:
    def __init__(self, seed: int):
        self.names = [layer_name(m, f) for m, f in FUNCTIONS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_problem = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []  # open span indices
        self.child = []  # time covered by children of each open span
        self.depth = [0] * len(self.names)  # open spans per name, for recursion
        self.calls = [0] * len(self.names)
        self.incl = [0.0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cover_verified = 0
        self.problem = -1
        self.op_calls = {op: [0] for op, _m in INTERVAL_OPS}
        self.op_samples = {op: [] for op, _m in INTERVAL_OPS}
        self.mixed = [0]
        self.rng = random.Random(f"reservoir:{seed}")
        self.restore = []

    # -- installation --------------------------------------------------------

    def install(self, modules):
        fpcert_mods = [m for name, m in sys.modules.items()
                       if name == "fpcert" or name.startswith("fpcert.")]
        hooks = self._hooks()
        for nid, (module, function) in enumerate(FUNCTIONS):
            holder, attr, fn = _resolve(modules, module, function)
            wrapper = self._wrap(nid, fn, hooks.get(function.split(".")[-1]))
            if isinstance(holder, type):
                self._set(holder, attr, wrapper)
                continue
            for mod in fpcert_mods:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)
        interval = modules["interval"].Interval
        for op, method in INTERVAL_OPS:
            self._set(interval, method, self._count_op(op, interval.__dict__[method]))

    def _set(self, holder, attr, value):
        self.restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self):
        for holder, attr, value in reversed(self.restore):
            setattr(holder, attr, value)
        self.restore.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, nid, fn, hook):
        stack, child, depth = self.stack, self.child, self.depth
        calls, incl, self_s = self.calls, self.incl, self.self_s
        names, parents, problems = self.span_name, self.span_parent, self.span_problem
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        keep_span = self.names[nid] not in UNSPANNED

        def traced(*args, **kwargs):
            if keep_span:
                idx = len(starts)
                names.append(nid)
                parents.append(stack[-1] if stack else -1)
                problems.append(self.problem)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(idx)
            child.append(0.0)
            depth[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                covered = child.pop()
                depth[nid] -= 1
                span = t1 - t0
                if child:
                    child[-1] += span
                calls[nid] += 1
                self_s[nid] += span - covered
                if depth[nid] == 0:  # a recursive call's time is already inside
                    incl[nid] += span
                if keep_span:
                    stack.pop()
                    starts[idx] = t0
                    ends[idx] = t1
            if hook is not None and depth[nid] == 0:
                hook(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        counts = self.counts

        def cover(result, args, kwargs):
            max_boxes = kwargs["max_boxes"] if "max_boxes" in kwargs else args[3]
            counts["subdivision.adaptive_cover.boxes"] += result.boxes_examined
            self.cover_verified += len(result.verified)
            if result.status == "indeterminate" and result.boxes_examined >= max_boxes:
                counts["subdivision.adaptive_cover.budget_stops"] += 1

        def certificate(result, args, kwargs):
            counts["certify.boxes"] += result.stats.boxes

        def localize(result, args, kwargs):
            counts["localize.localize_fixed_points.boxes"] += result.boxes_examined
            counts["localize.localize_fixed_points.enclosures"] += len(result.enclosures)
            counts["localize.localize_fixed_points.proven"] += len(result.proven)

        def winding(result, args, kwargs):
            counts["degree.winding_degree_2d.segments"] += result.segments

        def trace(result, args, kwargs):
            counts["continuation.trace_continuum.cells"] += len(result.t_grid) - 1
            counts["continuation.trace_continuum.slabs"] += len(result.slabs)

        return {
            "adaptive_cover": cover,
            "certify_miranda": certificate,
            "certify_cylinder": certificate,
            "certify_cone_shell": certificate,
            "certify_holes": certificate,
            "localize_fixed_points": localize,
            "winding_degree_2d": winding,
            "trace_continuum": trace,
        }

    # -- interval ops ----------------------------------------------------------

    def _count_op(self, op, fn):
        calls, sample, rand = self.op_calls[op], self.op_samples[op], self.rng.random

        def keep(operands):
            # Reservoir sampling (Algorithm R): a uniform sample of all calls.
            n = calls[0]
            if n <= RESERVOIR:
                sample.append(operands)
            else:
                j = int(rand() * n)
                if j < RESERVOIR:
                    sample[j] = operands

        if op == "mul":
            mixed = self.mixed

            def counted(a, b):
                r = fn(a, b)
                calls[0] += 1
                if a.lo < 0.0 < a.hi and b.lo < 0.0 < b.hi:
                    mixed[0] += 1
                keep((a.lo, a.hi, b.lo, b.hi))
                return r
        elif op in _BINARY:
            def counted(a, b):
                r = fn(a, b)
                calls[0] += 1
                keep((a.lo, a.hi, b.lo, b.hi))
                return r
        elif op == "pow_int":
            def counted(a, n):
                r = fn(a, n)
                calls[0] += 1
                keep((a.lo, a.hi, n))
                return r
        else:
            def counted(a):
                r = fn(a)
                calls[0] += 1
                keep((a.lo, a.hi))
                return r
        return counted

    def replay(self, interval_cls, gauge):
        """Median time per op over the captured operands, in microseconds,
        with the original (unpatched) methods, scaled by the speed gauge
        read around each op's rounds."""
        out = {}
        for op, method in INTERVAL_OPS:
            sample = self.op_samples[op]
            if not sample:
                out[op] = 0.0
                continue
            fn = getattr(interval_cls, method)
            if op in _BINARY:
                args = [(interval_cls(a, b), interval_cls(c, d)) for a, b, c, d in sample]
            elif op == "pow_int":
                args = [(interval_cls(a, b), n) for a, b, n in sample]
            else:
                args = [(interval_cls(a, b),) for a, b in sample]
            gauge.factor()  # reading just before the rounds
            rounds = []
            for _ in range(REPLAY_ROUNDS):
                t0 = time.perf_counter()
                for a in args:
                    fn(*a)
                rounds.append(time.perf_counter() - t0)
            out[op] = statistics.median(rounds) / len(args) * 1e6 * gauge.factor()
        return out

    # -- results ---------------------------------------------------------------

    def metrics(self, replay_us, overhead, scale):
        """Per-layer metrics; span times are multiplied by scale, the traced
        pass's mean speed-gauge factor."""
        m = {}
        for nid, name in enumerate(self.names):
            m[f"{name}.calls"] = self.calls[nid]
            m[f"{name}.s"] = self.incl[nid] * scale
            m[f"{name}.self_s"] = self.self_s[nid] * scale
        m.update(self.counts)
        boxes = self.counts["subdivision.adaptive_cover.boxes"]
        m["subdivision.adaptive_cover.verified_ratio"] = self.cover_verified / boxes if boxes else 0.0
        for op, _method in INTERVAL_OPS:
            m[f"interval.{op}.calls"] = self.op_calls[op][0]
            m[f"interval.{op}.us"] = replay_us[op]
        muls = self.op_calls["mul"][0]
        m["interval.mul.mixed_sign_share"] = self.mixed[0] / muls if muls else 0.0
        m["trace.overhead"] = overhead
        return m

    def write_spans(self, path: str):
        """One JSON array per line and span, gzip-compressed: name, start and
        end (seconds, perf_counter), parent span index (-1 at top), problem."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i],
                                     self.span_problem[i]]))
                fh.write("\n")
        return len(self.span_start)
