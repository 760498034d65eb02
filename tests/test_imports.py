"""The package imports nothing at runtime beyond the standard library and numpy."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "epsnode").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "epsnode"}


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of every absolute import; relative imports are the package's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert "simulator.py" in {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imported_modules(tree) <= ALLOWED


def test_third_party_import_detected():
    tree = ast.parse("import json\nfrom scipy import linalg\nimport numpy.linalg\nfrom . import dataset\n")
    assert imported_modules(tree) - ALLOWED == {"scipy"}


def loaded_after(statement: str, *prefixes: str) -> str:
    """The sorted names of the loaded modules that start with one of
    ``prefixes``, printed by a fresh interpreter after it runs ``statement``."""
    code = (f"import sys; {statement}; "
            f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout.strip()


def test_import_loads_no_process_pool():
    """Only ``gridsearch.run`` above parallelism 1 needs a process pool, so
    ``import epsnode`` leaves ``concurrent.futures`` and ``multiprocessing``
    unloaded."""
    assert loaded_after("import epsnode", "concurrent", "multiprocessing") == "[]"


def test_import_loads_no_numpy_random():
    """Only simulating, splitting or training draws random numbers, so
    ``import epsnode`` loads no more of ``numpy.random`` than ``import
    numpy`` does (numpy 2 loads none of it)."""
    with_numpy = loaded_after("import numpy", "numpy.random")
    assert loaded_after("import epsnode", "numpy.random") == with_numpy
