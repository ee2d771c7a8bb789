"""The import graph of the fpcert modules, read from their relative imports
(``from .x import ...`` and ``from . import x``) with ast: it has no cycle,
localize imports neither certify nor degree, since it decides PROVEN by
its own rule, and degree imports neither localize nor certify, since its
winding walks need no fixed point free region."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "fpcert"


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
