"""Invariants of the package source, checked on its syntax trees.

Guards are real exceptions: ``python -O`` drops ``assert`` statements, so a
guard written as one would silently stop checking.  Every module of
``mfcert`` is parsed and must hold none.

A polynomial's printed text is attached only where it is printed or
confirmed canonical, in ``polynomials.py``: any other module that passed a
text to ``Poly`` or touched ``_text`` could give a digest a text that is not
the canonical print.

The constructions build their filtered, null-homotopic totals in one
function, so the filtration move is made in exactly one place.

Every check reports as one verdict tree, ``complexes.Verdict``: no module
defines a second verdict class for the replay or anything else to wrap it in.
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


def test_only_polynomials_attaches_a_printed_text():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "polynomials.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_text":
                found.append(f"{path.name}:{node.lineno} touches _text")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "Poly" and (len(node.args) > 3 or node.keywords):
                found.append(f"{path.name}:{node.lineno} passes a text to Poly")
    assert found == []


def test_constructions_make_the_filtration_move_in_one_function():
    tree = ast.parse((PACKAGE / "constructions.py").read_text())
    makers = {func.name for func in ast.walk(tree)
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, ast.Call) and "FiltrationMove" in (
                  getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert makers == {"_filtered_total"}


def test_the_only_verdict_class_is_complexes_verdict():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name.endswith("Verdict")]
    assert found == ["complexes.Verdict"]
