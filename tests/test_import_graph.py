"""The modules of the package import one another without a cycle.

Imports are read from the source with ``ast``, at the top of a module and
inside its functions alike: a function-level import hides a cycle from
the interpreter until the function runs, but not from this test.
"""

import ast
import os
from graphlib import CycleError, TopologicalSorter

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "hivekron")


MODULES = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}


def relative_imports():
    """(module, node) for every ``from .x import ...`` of the package."""
    for mod in sorted(MODULES):
        with open(os.path.join(SRC, mod + ".py")) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                yield mod, node


def import_graph() -> dict:
    """Each module of the package -> the package modules it imports."""
    graph = {mod: set() for mod in MODULES}
    for mod, node in relative_imports():
        if node.module:
            graph[mod].add(node.module.split(".")[0])
        else:
            # ``from . import x``: x is a module, or a name of the
            # package itself, which is set up before any module
            graph[mod].update(a.name for a in node.names if a.name in MODULES)
    return graph


def test_import_graph_reads_every_kind_of_import():
    graph = import_graph()
    assert "diamonds" in graph["pathmods"]      # top level
    assert "validate" in graph["cli"]           # inside cmd_validate
    assert set().union(*graph.values()) <= set(graph)


def test_import_graph_is_acyclic():
    try:
        tuple(TopologicalSorter(import_graph()).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_no_module_imports_a_private_name():
    # a leading underscore keeps a name to its own module; dunders such as
    # ``from . import __version__`` are public
    private = [f"{mod} -> {node.module or ''}.{a.name}"
               for mod, node in relative_imports() for a in node.names
               if a.name.startswith("_")
               and not (a.name.startswith("__") and a.name.endswith("__"))]
    assert not private, private
