"""Dependency guard: the library runs on numpy alone.

scipy is a test-only dependency (the ``dev`` extra): the parity oracles
in ``tests/oracles/`` use its L-BFGS-B solver.  networkx is not a
dependency at all.  No module under ``src/repro/`` may import either,
and the entry points and every example must run in an interpreter where
importing them fails.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
EXAMPLES = sorted(str(path) for path in (REPO / "examples").glob("*.py"))

#: Modules the runtime must not need.  An explicit list rather than a
#: test against ``sys.stdlib_module_names``, which Python 3.9 lacks.
BANNED = ("scipy", "networkx")

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


def test_no_banned_import_in_src():
    offenders = [
        f"{path.relative_to(SRC)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module.split(".")[0] in BANNED
    ]
    assert offenders == []


def test_entry_points_and_examples_run_without_banned_modules():
    assert EXAMPLES
    code = (
        "import runpy, sys\n"
        f"for name in {BANNED!r}:\n"
        "    sys.modules[name] = None\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    __import__(name)\n"
        f"for path in {EXAMPLES!r}:\n"
        "    runpy.run_path(path, run_name='__main__')\n"
        f"assert all(sys.modules[name] is None for name in {BANNED!r})\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
