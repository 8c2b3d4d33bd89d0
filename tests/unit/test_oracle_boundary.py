"""The product never imports the test oracles.

``tests/oracles/`` holds scalar transcriptions of the equations that
exist only to pin the product kernels; ``src/repro`` has one
implementation of each kernel and must stay importable without the
test tree.  This walks every module under ``src/repro`` and fails on
any import whose top-level package is ``tests`` or ``oracles``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

FORBIDDEN = {"tests", "oracles"}
PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module.split(".")[0]


def test_walks_the_whole_package():
    modules = list(PACKAGE_ROOT.rglob("*.py"))
    assert PACKAGE_ROOT / "core" / "engine.py" in modules
    assert len(modules) > 50


def test_src_never_imports_tests_or_oracles():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, root in _imported_roots(tree):
            if root in FORBIDDEN:
                offenders.append(f"{path.relative_to(PACKAGE_ROOT)}:{lineno} imports {root}")
    assert not offenders, "product modules import the test oracles:\n" + "\n".join(
        offenders
    )
