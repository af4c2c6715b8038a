"""Dependency guard: the library runs on numpy alone, without scipy.

scipy is a test-only dependency (the ``dev`` extra): the parity oracles
in ``tests/oracles/`` use its L-BFGS-B solver.  No module under
``src/repro/`` may import it, and the entry points must import in an
interpreter where ``import scipy`` fails.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules whose import pulls in every runtime layer.
ENTRY_POINTS = (
    "repro.cli",
    "repro.ml",
    "repro.experiments.label_prediction",
    "repro.serve.daemon",
)


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_no_scipy_import_in_src():
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module.split(".")[0] == "scipy"
    ]
    assert offenders == []


def test_entry_points_import_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    __import__(name)\n"
        "assert sys.modules['scipy'] is None\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
