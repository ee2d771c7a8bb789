"""The import graph of the fpcert modules, read from their relative imports
(``from .x import ...`` and ``from . import x``) with ast: it has no cycle,
localize imports neither certify nor degree, since it decides PROVEN by
its own rule, and degree imports neither localize nor certify, since its
winding walks need no fixed point free region.  The region tests of the
curved domains live in geometry: certify defines none of them and reads no
functional's coefficients.  Only mapdsl builds expression nodes: no other
module calls a node constructor, and geometry takes from mapdsl only the
literal pattern and the parse error.

The traced benchmark (``perfbench/tracing.py``) patches fpcert functions
and ``Interval`` operators by name; every name it lists must still exist.
Some of them only the benchmark still names: no CLI path may call them, so
that they can go once perfbench stops naming them.

Importing the CLI loads no class-generating machinery (dataclasses,
typing, inspect): every CLI call pays for its import.  No expression node
but the memo view's cache nodes defines its own ``__eq__``, ``__hash__``
or ``__repr__``: the rest compare, hash and print as a ``Record``."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "fpcert"


def _import_graph():
    graph = {}
    for path in sorted(_SRC.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps
    return graph


def _cycle(graph):
    """One cycle of the graph as a list of modules, or None."""
    state = {}  # module -> "open" while on the walk, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, path + [dep])
                if found:
                    return found
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [module])
            if found:
                return found
    return None


def test_import_graph_has_no_cycle():
    graph = _import_graph()
    assert {"interval", "mapdsl", "localize", "certify", "degree"} <= set(graph)
    assert _cycle(graph) is None, _cycle(graph)


def test_cycle_finder_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_localize_imports_no_certifier():
    deps = _import_graph()["localize"]
    assert "mapdsl" in deps
    assert not deps & {"certify", "degree"}, deps


def test_degree_imports_neither_localize_nor_certify():
    deps = _import_graph()["degree"]
    assert "subdivision" in deps
    assert not deps & {"localize", "certify"}, deps


_REGION_TESTS = {"_GUARD", "_filtered", "_radial_segment", "_bisect_segment", "_circle_tests"}


def test_region_tests_live_in_geometry():
    tree = ast.parse((_SRC / "certify.py").read_text())
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.alias):
            defined.add(node.asname or node.name)
    assert not defined & _REGION_TESTS, defined & _REGION_TESTS
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "coeffs"]
    geometry = importlib.import_module("fpcert.geometry")
    assert _REGION_TESTS <= set(vars(geometry)), _REGION_TESTS - set(vars(geometry))


_NODE_CONSTRUCTORS = {"BinOp", "Var", "Param", "Const", "Neg", "Power", "Call", "Select",
                      "float_const", "literal_const"}


def test_only_mapdsl_builds_expression_nodes():
    geometry = ast.parse((_SRC / "geometry.py").read_text())
    taken = {alias.name for node in ast.walk(geometry)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "mapdsl"
             for alias in node.names}
    assert taken == {"NUMBER", "ParseError"}
    calls = []
    for path in sorted(_SRC.glob("*.py")):
        if path.stem == "mapdsl":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in _NODE_CONSTRUCTORS:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []


def _perfbench_tracing():
    # perfbench is a directory of scripts, not a package: load by path.
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_traced_names_resolve():
    tracing = _perfbench_tracing()
    names = {module for module, _function in tracing.FUNCTIONS} | {"interval"}
    modules = {name: importlib.import_module(f"fpcert.{name}") for name in names}
    for module, function in tracing.FUNCTIONS:
        tracing._resolve(modules, module, function)  # raises when one is gone
    interval = modules["interval"].Interval
    assert [m for _op, m in tracing.INTERVAL_OPS if m not in interval.__dict__] == []


def test_no_cli_path_calls_a_name_only_perfbench_pins(monkeypatch):
    # Each catalog entry runs to its declared exit with these names made to
    # raise: MapSpec.eval_interval, MapSpec.eval_component_interval,
    # localize.region_fixed_point_free and the traced Interval operators.
    from fpcert import catalog, cli
    from fpcert.interval import Interval
    from fpcert.localize import region_fixed_point_free
    from fpcert.mapdsl import MapSpec

    def unreachable(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a CLI path called {name}")
        return call

    for name in ("eval_interval", "eval_component_interval"):
        monkeypatch.setattr(MapSpec, name, unreachable(f"MapSpec.{name}"))
    for module in [m for n, m in sys.modules.items() if n.startswith("fpcert.")]:
        if getattr(module, "region_fixed_point_free", None) is region_fixed_point_free:
            monkeypatch.setattr(module, "region_fixed_point_free",
                                unreachable("region_fixed_point_free"))
    for _op, method in _perfbench_tracing().INTERVAL_OPS:
        monkeypatch.setattr(Interval, method, unreachable(f"Interval.{method}"))
    assert len(catalog.CATALOG) == 29
    for entry in catalog.CATALOG.values():
        argv = [entry.task, "@" + entry.id, "--format", "json", "--stable"]
        for key, value in entry.kwargs.items():
            argv += [f"--{key}", str(value)]
        assert cli.main(argv) == entry.exit, entry.id


def test_cli_import_loads_no_class_generating_module():
    # site may preload some of these, so only the modules the import itself
    # loads count.
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             "import fpcert.cli\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(_SRC.parent)})
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "fpcert.cli" in loaded
    assert not loaded & {"dataclasses", "typing", "inspect"}, sorted(loaded)


def test_only_the_cache_nodes_override_records_methods():
    # Every expression node compares, hashes and prints by its fields, as a
    # Record; only the cache nodes of a memo view go by identity.
    from fpcert import mapdsl

    nodes, todo = [], [mapdsl.Expr]
    while todo:
        cls = todo.pop()
        nodes.append(cls)
        todo.extend(cls.__subclasses__())
    assert {"Select", "Memo", "Shared", "Param"} <= {c.__name__ for c in nodes}
    own = {c.__name__: sorted(m for m in ("__eq__", "__hash__", "__repr__") if m in vars(c))
           for c in nodes if c not in (mapdsl.Memo, mapdsl.Shared)}
    assert {name: methods for name, methods in own.items() if methods} == {}
