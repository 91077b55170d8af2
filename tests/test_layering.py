"""The package's import graph, read from its source, has no cycle, every
name a module exports exists and has a caller beyond the unit tests, so does
every public attribute of an exported dataclass, every defaulted parameter of
an exported callable is passed beyond them, the runtime needs numpy alone,
every name the benchmark's tracer wraps is still bound, only the engine
picks the length of the chunks its sources yield, the engine's state is one
accumulator whose curves are of one kind, a simulated panel is the
simulator's one block, the CLI builds no panel, only panel_io parses rows
with numpy's loadtxt, one loadings type serves every factor count, and no
file text is split at str.splitlines' wider set of line separators."""

import ast
import dataclasses
import graphlib
import importlib
import importlib.util
import inspect
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


def test_only_panel_io_calls_loadtxt():
    # the rows' number grammar and the way a refusal names its line live in
    # one module, for panels and beta files alike; the CLI takes none of it
    def calls(path):
        return {getattr(node.func, "attr", None) for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8"))) if isinstance(node, ast.Call)}

    assert {path.stem for path in PACKAGE.glob("*.py") if "loadtxt" in calls(path)} == {
        "panel_io"}
    assert not {"_read_text", "_loadtxt", "_first_refused"} & identifiers(PACKAGE / "cli.py")


def test_no_module_imports_scipy():
    users = {path.stem for path in PACKAGE.glob("*.py") if "scipy" in absolute_imports(path)}
    assert not users


def identifiers(path):
    # every name a file's code defines, reads, writes or imports (not its comments)
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_only_the_engine_picks_the_chunk_length():
    # a chunk source is a callable `length -> chunks`: moments owns the length
    # rule and the pipeline's engine alone applies it, so the CLI, which only
    # yields chunks, needs nothing of moments
    users = {path.stem for path in PACKAGE.glob("*.py") if "_chunk_length" in identifiers(path)}
    assert users == {"moments", "pipeline"}
    assert "moments" not in import_graph()["cli"]


def test_the_engine_is_one_accumulator():
    # every scale's state lives in moments._ScaleMoments, which the pipeline's
    # engine alone drives; the loop it replaced and the symmetrizing divide
    # after it are gone
    named = {path.stem: identifiers(path) for path in PACKAGE.glob("*.py")}
    assert not [stem for stem, found in named.items()
                if found & {"_scale_covariances", "_covariance"}]
    assert {stem for stem, found in named.items() if "_ScaleMoments" in found} == {
        "moments", "pipeline"}


def test_the_engine_gives_correlation_curves_alone():
    # the paper's spectra are of correlation matrices: _eigencurves takes no
    # matrix kind, and no module names a covariance kind for it to take
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    engine = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_eigencurves")
    args = engine.args
    assert [arg.arg for arg in args.posonlyargs + args.args] == [
        "source", "labels", "taus", "top_k"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    assert not [path.stem for path in PACKAGE.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and node.value in ("covariance", "cov")]


def test_a_simulated_panel_is_the_simulators_one_block():
    # _emitted_blocks yields views of one reused buffer, and simulate_panel
    # takes its panel as the one block of that buffer: no output panel is
    # passed in, and simulate_panel runs no loop of its own
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    args = functions["_emitted_blocks"].args
    assert [arg.arg for arg in args.posonlyargs + args.args] == [
        "spec", "n_steps", "burn_in", "length"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    assert not [node for node in ast.walk(functions["simulate_panel"])
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]


def test_the_cli_builds_no_panel():
    # `simulate` streams the simulator's blocks into the panel writer and
    # `spectrum` the file's rows into the engine: the panel functions stay
    # bound in cli for the benchmark's tracer, and nothing there calls them
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"simulate_panel", "save_panel", "load_panel"}
    from leadlag import cli
    assert all(hasattr(cli, name) for name in ("simulate_panel", "save_panel", "load_panel"))


def test_one_loadings_type():
    # LoadingMatrix holds the loadings of any factor count, and the full
    # spectrum and the factor roots are one slicer at two floors: no
    # one-factor vector type sits beside it
    assert not [path.stem for path in PACKAGE.glob("*.py")
                if "LoadingVector" in identifiers(path)]
    assert "LoadingVector" not in leadlag.__all__


def splitlines_reads(tree):
    return sum(isinstance(node, ast.Attribute) and node.attr == "splitlines"
               for node in ast.walk(tree))


def test_only_the_label_check_calls_splitlines():
    # file text breaks only at LF, CRLF or CR, where open() breaks it;
    # str.splitlines breaks at eight more separators, which the label check
    # refuses on writing and reading, and every other reader takes as data
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert {path.name: n for path, tree in trees.items()
            if (n := splitlines_reads(tree))} == {"panel_io.py": 1}
    panel_io = trees[ROOT / "src" / "leadlag" / "panel_io.py"]
    check = next(node for node in ast.walk(panel_io)
                 if isinstance(node, ast.FunctionDef) and node.name == "_check_labels")
    assert splitlines_reads(check) == 1


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


def test_runtime_loads_no_scipy(tmp_path, run_python):
    result = run_python("-c", _CLI_RUN, str(tmp_path), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_traced_names_stay_bound():
    # the benchmark's tracer wraps these names where the pipeline and the CLI
    # look them up; a name the code no longer binds would go untraced
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from leadlag import cli, pipeline

    for module, names in ((pipeline, tracing.PIPELINE_NAMES), (cli, tracing.CLI_NAMES)):
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__} no longer binds {missing}"


# __main__ runs the command line when imported
@pytest.mark.parametrize("name", ["leadlag"] + [
    f"leadlag.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
    if path.stem not in ("__init__", "__main__")])
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def foreign_owner(node):
    # an attribute read off `self`, off `args` (the argparse namespace) or off
    # a numpy `.dtype`, none of which is an exported type's attribute
    owner = node.value
    return ((isinstance(owner, ast.Name) and owner.id in ("self", "args"))
            or (isinstance(owner, ast.Attribute) and owner.attr == "dtype"))


def referenced_names(path):
    # what a file reads: (bare names, attributes of anything but a foreign
    # owner, and imported names)
    names, attributes, imports = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not foreign_owner(node):
                attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(alias.name.split(".")[-1] for alias in node.names)
    return names, attributes, imports


def package_files():
    return sorted((ROOT / "src" / "leadlag").glob("*.py"))


def outside_files():
    # the public API is what the package, the benchmark, the scripts or the
    # acceptance tests use; what only the unit tests use is dead surface
    return [*(ROOT / "benchmark").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def names_read_outside_unit_tests():
    # (every name read bare or as an attribute, or imported by a file outside
    # the package, and the attributes read alone)
    package = package_files()
    used, attributes = set(), set()
    for path in [*package, *outside_files()]:
        names, read, imports = referenced_names(path)
        used |= names | read | (set() if path in package else imports)
        attributes |= read
    return used, attributes


def test_every_export_has_a_caller():
    used, _ = names_read_outside_unit_tests()
    unused = [n for n in leadlag.__all__ if n != "__version__" and n not in used]
    assert not unused, f"exported but called only by the unit tests: {unused}"


def test_every_public_attribute_has_a_reader():
    # every field, property and method of an exported dataclass is read as
    # x.attr somewhere outside the unit tests.  The match is by name alone, so
    # an attribute whose name another type also uses (n_assets) passes unread;
    # a bare variable of that name (kind) does not count.
    _, attributes = names_read_outside_unit_tests()
    unread = []
    for cls in (getattr(leadlag, n) for n in leadlag.__all__):
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            continue
        members = {f.name for f in dataclasses.fields(cls)} | {
            name for name, value in vars(cls).items()
            if isinstance(value, (property, classmethod, staticmethod))
            or inspect.isfunction(value)}
        unread += [f"{cls.__name__}.{name}" for name in sorted(members)
                   if not name.startswith("_") and name not in attributes]
    assert not unread, f"read only by the unit tests: {unread}"


def calls_outside_unit_tests():
    # (callee name, call) for every call outside the unit tests: the bare name
    # or the last attribute of what is called; `cls(...)` in a class body is
    # named after that class
    for path in [*package_files(), *outside_files()]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            for node in ast.walk(cls):
                if isinstance(node, ast.Name) and node.id == "cls":
                    node.id = cls.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield getattr(node.func, "id", None) or getattr(node.func, "attr", None), node


def passed_parameters(call, signature):
    # the parameters a call passes: by position, by keyword, or through * or **
    params = list(signature.parameters.values())
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        passed = set(positional)
    else:
        passed = set(positional[:len(call.args)])
    for keyword in call.keywords:
        if keyword.arg is None:
            passed |= {p.name for p in params if p.kind != p.POSITIONAL_ONLY}
        else:
            passed.add(keyword.arg)
    return passed


def test_every_defaulted_parameter_is_passed():
    # a parameter with a default that no call outside the unit tests passes is
    # a setting nobody sets: the exported functions, the constructors of the
    # exported dataclasses and the classmethods of the exported classes.  The
    # match is by callee name alone, as for attributes.
    targets = []
    for name in leadlag.__all__:
        obj = getattr(leadlag, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            targets.append((name, obj))
        if isinstance(obj, type):
            targets += [(attr, getattr(obj, attr)) for attr, value in vars(obj).items()
                        if isinstance(value, classmethod)]
    calls = list(calls_outside_unit_tests())
    unpassed = []
    for name, target in targets:
        signature = inspect.signature(target)
        passed = set().union(*(passed_parameters(call, signature)
                               for callee, call in calls if callee == name))
        unpassed += [f"{name}({p.name})" for p in signature.parameters.values()
                     if p.default is not p.empty and p.name not in passed]
    assert not unpassed, f"defaulted parameters only the unit tests pass: {unpassed}"
