"""The runtime package imports nothing outside the standard library, and little within it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "collatz_lab").glob("*.py"))

#: Standard-library modules that every command would pay for at start-up, for a
#: use that a few calls make (`fractions` pulls in `decimal`, `dataclasses` `inspect`).
SLOW_TO_IMPORT = {"dataclasses", "inspect", "fractions", "decimal", "datetime"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    outside = {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, f"{path.name} imports non-stdlib modules: {sorted(outside)}"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "sweep.py", "trajectory.py"}


def test_import_loads_no_slow_stdlib_module():
    """A fresh interpreter imports the package and its CLI without any of `SLOW_TO_IMPORT`.

    Only the modules that the import adds count, so one that a site hook
    loads before it does not fail the test.
    """
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import collatz_lab, collatz_lab.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    added = set(subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                               capture_output=True, text=True, check=True).stdout.split())
    assert "collatz_lab.cli" in added
    assert not added & SLOW_TO_IMPORT, sorted(added & SLOW_TO_IMPORT)
