"""The package's import graph, read from its source, has no cycle, every
name a module exports exists and has a caller beyond the unit tests, so does
every public attribute of an exported dataclass, and the runtime needs numpy
alone."""

import ast
import dataclasses
import graphlib
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leadlag

PACKAGE = Path(leadlag.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def test_no_module_imports_scipy():
    users = {path.stem for path in PACKAGE.glob("*.py") if "scipy" in absolute_imports(path)}
    assert not users


# a tiny run of every subcommand, in one fresh interpreter
_CLI_RUN = """
import sys
from pathlib import Path
from leadlag.cli import main

out = Path(sys.argv[1])
runs = [
    ["simulate", "--assets", "3", "--alpha", "0.3", "--gamma", "0.2", "--steps", "256",
     "--out", str(out / "panel.csv")],
    ["spectrum", "--in", str(out / "panel.csv"), "--taus", "1,2,4,8", "--top-k", "1",
     "--out", str(out / "curves.json")],
    ["fit", "--in", str(out / "curves.json"), "--out", str(out / "fits.json")],
    ["plot", "--curves", str(out / "curves.json"), "--fits", str(out / "fits.json"),
     "--out-dir", str(out / "plots")],
    ["reproduce", "--assets", "8", "--steps", "512", "--taus", "1,2,4,8",
     "--out-dir", str(out / "report")],
]
codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runtime_loads_no_scipy(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", _CLI_RUN, str(tmp_path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


# __main__ runs the command line when imported
@pytest.mark.parametrize("name", ["leadlag"] + [
    f"leadlag.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "__main__")])
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def referenced_names(path, with_imports):
    # names a file reads, bare or as an attribute of anything but `self`, and
    # (with_imports) imports
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.add(node.attr)
        elif with_imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def names_read_outside_unit_tests():
    # the public API is what the package, the benchmark, the scripts or the
    # acceptance tests use; a name only the unit tests read is dead surface
    used = set()
    for path in sorted((ROOT / "src" / "leadlag").glob("*.py")):
        used |= referenced_names(path, with_imports=False)
    outside = [*(ROOT / "benchmark").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    for path in outside:
        used |= referenced_names(path, with_imports=True)
    return used


def test_every_export_has_a_caller():
    used = names_read_outside_unit_tests()
    unused = [n for n in leadlag.__all__ if n != "__version__" and n not in used]
    assert not unused, f"exported but called only by the unit tests: {unused}"


def test_every_public_attribute_has_a_reader():
    # every field, property and method of an exported dataclass is read as
    # x.attr somewhere outside the unit tests.  The match is by name alone, so
    # an attribute whose name another type or a variable also uses (n_assets)
    # passes unread.
    used = names_read_outside_unit_tests()
    unread = []
    for cls in (getattr(leadlag, n) for n in leadlag.__all__):
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        members = {f.name for f in dataclasses.fields(cls)} | {
            name for name, value in vars(cls).items()
            if isinstance(value, (property, classmethod, staticmethod))
            or inspect.isfunction(value)}
        unread += [f"{cls.__name__}.{name}" for name in sorted(members)
                   if not name.startswith("_") and name not in used]
    assert not unread, f"read only by the unit tests: {unread}"
