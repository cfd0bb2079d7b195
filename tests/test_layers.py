"""The package's modules import each other along its layers, read from their syntax trees.

`report` and `core_map` are leaves.  The sweep kernel (`sweep`) touches no
file, clock or process, and imports no package module but `trajectory`;
its run layer (`verify`) touches all three.  `report` owns the JSON
document format: only it writes a document's schema_version and task
header, and only it and `tree` import `json`.  Only `report` builds a `RangeReport`:
every suite and the sweep get theirs from a `report.RangeRun`.  Every package module is
imported at the top of its importer, and only by its public names or as a
module, so the import graph is the one the files show.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "collatz_lab").glob("*.py"))
RUN_LAYER = {"json", "os", "time", "datetime", "pathlib", "contextlib", "multiprocessing"}


def _tree(name):
    path = next(p for p in SOURCES if p.stem == name)
    return ast.parse(path.read_text(), filename=str(path))


def _imports(node):
    """(module, names) of each import statement under `node`, relative ones as ".module"."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            yield from ((alias.name, []) for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            module = "." * sub.level + (sub.module or "")
            yield module, [alias.name for alias in sub.names]


def _is_package(module):
    return module.startswith(".") or module.split(".")[0] == "collatz_lab"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = [
        (fn.name, module)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for module, _ in _imports(fn)
        if _is_package(module)
    ]
    assert not inside, f"{path.name} imports package modules inside functions: {inside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_relative_import_names_a_private_name(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        (module, name)
        for module, names in _imports(tree)
        if module.startswith(".")
        for name in names
        if name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def test_the_sweep_kernel_imports_no_run_layer_module():
    found = {module.split(".")[0] for module, _ in _imports(_tree("sweep"))}
    assert not found & RUN_LAYER


def test_the_sweep_kernel_imports_no_package_module_but_trajectory():
    # `from . import x` names its modules; any other package import names one module.
    found = {
        name
        for module, names in _imports(_tree("sweep"))
        if _is_package(module)
        for name in (names if module in (".", "collatz_lab") else [module.split(".")[-1]])
    }
    assert found <= {"trajectory"}, f"sweep.py imports package modules {found}"


@pytest.mark.parametrize("name", ["report", "core_map"])
def test_leaf_modules_import_no_package_module(name):
    assert not [module for module, _ in _imports(_tree(name)) if _is_package(module)]


def test_only_report_and_tree_import_json():
    # `report` owns the document format; `tree` renders its export's header itself, for speed.
    found = {p.stem for p in SOURCES
             if any(module.split(".")[0] == "json" for module, _ in _imports(_tree(p.stem)))}
    assert found == {"report", "tree"}


def test_only_report_writes_a_task_header():
    # A dict display with both keys is a hand-written document header.
    found = {
        p.stem
        for p in SOURCES
        for node in ast.walk(_tree(p.stem))
        if isinstance(node, ast.Dict)
        and {"schema_version", "task"} <= {k.value for k in node.keys if type(k) is ast.Constant}
    }
    assert found == {"report"}


def test_only_report_builds_a_range_report():
    found = {
        p.stem
        for p in SOURCES
        for node in ast.walk(_tree(p.stem))
        if isinstance(node, ast.Call)
        and "RangeReport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert found == {"report"}
