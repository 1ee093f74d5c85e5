"""Every import in ``src/``, ``scripts/`` and ``tests/`` is used, only
``audio_io`` imports ``struct`` or ``zipfile``, and importing the package
pins BLAS to one thread unless the caller chose a count.

A name counts as used when the module reads it anywhere, in code or in an
annotation; no annotation here is a string, so each one is a Name node.
``__future__`` imports, lines marked ``# noqa`` and package ``__init__``
modules, whose imports are re-exports, are skipped.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_only_audio_io_imports_struct_or_zipfile():
    # every other module writes and reads its files through audio_io
    importers = set()
    for path in (ROOT / "src" / "sedpipe").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if {m.split(".")[0] for m in modules} & {"struct", "zipfile"}:
                importers.add(str(path.relative_to(ROOT)))
    assert importers <= {"src/sedpipe/audio_io.py"}


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "3"}], ids=["unset", "caller_set"])
def test_import_pins_blas_threads_unless_the_caller_set_them(caller):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(caller, PYTHONPATH=str(ROOT / "src"))
    script = "import os, sys, sedpipe; print(*(os.environ.get(v) for v in sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *BLAS_VARIABLES], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == [caller.get(v, "1") for v in BLAS_VARIABLES]


@pytest.mark.parametrize(
    "imports, warned", [("numpy, sedpipe", True), ("sedpipe", False)], ids=["numpy_first", "alone"]
)
def test_numpy_imported_first_with_blas_unset_warns_once(imports, warned):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {imports}"], env=env, capture_output=True, text=True, check=True
    )
    if warned:
        assert proc.stderr.count("numpy was imported before sedpipe") == 1
        assert all(v in proc.stderr for v in BLAS_VARIABLES)
    else:
        assert proc.stderr == ""
