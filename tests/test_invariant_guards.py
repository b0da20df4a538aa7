"""Invariant guards in the package are real exceptions.

``python -O`` drops ``assert`` statements, so a guard written as one would
silently stop checking.  Every module of ``mfcert`` is parsed and must hold
none.
"""

import ast
from pathlib import Path

import mfcert

PACKAGE = Path(mfcert.__file__).parent


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
