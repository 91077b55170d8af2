"""The package's import graph, read from its source, has no cycle, and every
name a module exports exists."""

import ast
import graphlib
import importlib
from pathlib import Path

import pytest

import leadlag

PACKAGE = Path(leadlag.__file__).parent


def relative_imports(path):
    # sibling modules a module imports, at any depth (function-level imports too)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def absolute_imports(path):
    # top-level names of the outside modules a module imports, at any depth
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def import_graph():
    return {path.stem: relative_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert {"moments", "fitting"} <= graph["spectral"]  # the reader sees the imports
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_moments_does_not_import_spectral():
    assert "spectral" not in import_graph()["moments"]


def test_panel_io_does_not_import_spectral():
    assert "spectral" not in import_graph()["panel_io"]


def test_only_panel_io_imports_csv():
    # numeric rows are read by numpy alone; csv is left for the panel header
    users = {path.stem for path in PACKAGE.glob("*.py") if "csv" in absolute_imports(path)}
    assert users == {"panel_io"}


# __main__ runs the command line when imported
@pytest.mark.parametrize("name", ["leadlag"] + [
    f"leadlag.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "__main__")])
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
