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

The checker, the modules that ``verify`` runs, imports no builder at module
level, and the package imports only ``verify``: replaying a bundle never
loads the code that built it.  A fresh interpreter confirms it, and that a
replay loads no ``mfcert`` module outside the checker, the package and the
command line: not the exactness sampler, and not ``random``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mfcert
from mfcert.cli import main

PACKAGE = Path(mfcert.__file__).parent

CHECKER = ("kcert", "complexes", "supermod", "polynomials", "scalars", "serialize")
BUILDERS = ("constructions", "clifford", "generators")


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


def _module_level_imports(node):
    """(line, module) of every import run when the module is imported: those
    outside function bodies, with ``mfcert.`` and leading dots stripped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            yield from ((child.lineno, a.name.removeprefix("mfcert."))
                        for a in child.names)
        elif isinstance(child, ast.ImportFrom):
            if child.module in (None, "mfcert"):   # from . import kcert
                yield from ((child.lineno, a.name) for a in child.names)
            else:
                yield child.lineno, child.module.removeprefix("mfcert.")
        yield from _module_level_imports(child)


def test_the_checker_imports_no_builder_and_the_package_only_verify():
    found = []
    for name in CHECKER:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        found += [f"{name}.py:{line} imports {mod}"
                  for line, mod in _module_level_imports(tree) if mod in BUILDERS]
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    found += [f"__init__.py:{line} imports {mod}"
              for line, mod in _module_level_imports(tree) if mod != "kcert"]
    assert found == []


@pytest.fixture(scope="module")
def lemma1_bundle(tmp_path_factory):
    work = tmp_path_factory.mktemp("bundle")
    inst, bundle = work / "inst.txt", work / "lemma1.bundle"
    assert main(["gen", "--kind", "lambda-family", "--out", str(inst)]) == 0
    assert main(["lemma1", str(inst), "--out", str(bundle)]) == 0
    return bundle


@pytest.mark.parametrize("run", [
    "from mfcert.cli import main\nassert main(['verify', sys.argv[1]]) == 0",
    "import mfcert.serialize\nmfcert.serialize.parse_bundle(open(sys.argv[1]).read())",
    "import mfcert.kcert",
], ids=["cli-verify", "parse-bundle", "import-kcert"])
def test_replaying_a_bundle_loads_no_builder(run, lemma1_bundle):
    code = f"import sys\n{run}\nprint(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                                 if p])}
    # -S: a .pth hook in site-packages may import modules, random among them,
    # before the snippet runs; the checker needs only the standard library
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(lemma1_bundle)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "mfcert.kcert" in loaded
    assert loaded.isdisjoint(f"mfcert.{name}" for name in BUILDERS)
    assert "random" not in loaded and "mfcert.exactness" not in loaded
    allowed = {"mfcert", "mfcert.cli"} | {f"mfcert.{name}" for name in CHECKER}
    assert {m for m in loaded if m.split(".")[0] == "mfcert"} <= allowed
