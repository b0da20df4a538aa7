"""Every function and method of ``src/mfcert`` is run by a command, or is kept
for a named reader.

The guard records, under ``sys.setprofile``, every code object entered while
the command line runs: the seeded output sweep at seed 1 and size 2
(``output_sweep.sweep``), plus the inputs the sweep lacks.  Every top-level
function of a module of the package, and every method (properties included)
of a top-level class, must then have been entered, or be named in ``KEPT``
with the file that needs it.  A ``KEPT`` name must exist and must not be
entered, so the table lists exactly what only the benchmark, the reference
routines and the acceptance criteria pin.  Code written by ``dataclasses``
is not source of the package and is not counted.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

import mfcert
from mfcert.cli import main
from output_sweep import sweep
from test_golden_reports import MF_HEAD, NOT_SCALAR, _corrupt_homotopy_entry

PACKAGE_DIR = Path(mfcert.__file__).resolve().parent

PERFBENCH = "perfbench reads it"
REFERENCE = "tests/reference.py uses it"
HASH = "protocol: a class that defines __eq__ defines __hash__ to stay hashable"
REPR = "protocol: the text a traceback or a failed test shows"

# qualified name -> why it stays although no command enters it
KEPT = {
    # perfbench/workloads.py size_counters, perfbench/spans.py compose_counts
    # and perfbench/kernels.py
    "polynomials.Poly.terms": f"{PERFBENCH}: workloads.size_counters, spans.compose_counts",
    "polynomials.Poly.evaluate": f"{PERFBENCH}: kernels.poly_mul_us checks its product",
    "supermod.ParityMap.entries": f"{PERFBENCH}: workloads.size_counters, spans.compose_counts",
    "scalars.rationals": f"{PERFBENCH}: kernels.poly_mul_us builds its ring",
    "constructions.TotalResult.ok": f"{PERFBENCH}: workloads.build_total",
    "scalars.ScalarField.zero": f"{PERFBENCH}: kernels.scalar_muladd_us",
    "scalars.Scalar.__add__": f"{PERFBENCH}: kernels.scalar_muladd_us",
    "scalars.Scalar.__eq__": f"{PERFBENCH}: kernels.scalar_muladd_us checks its sums",
    # tests/reference.py scalar_rank
    "scalars.Scalar.is_zero": f"{REFERENCE}: scalar_rank",
    "scalars.Scalar.inverse": f"{REFERENCE}: scalar_rank",
    "scalars.Scalar.__sub__": f"{REFERENCE}: scalar_rank",
    "scalars.ScalarField._inv": f"{REFERENCE}: Scalar.inverse",
    "scalars._uxgcd": f"{REFERENCE}: Scalar.inverse",
    "scalars._zip_pad": f"{REFERENCE}: Scalar.inverse",
    # tests/test_acceptance.py
    "clifford.clifford_square": "tests/test_acceptance.py: criterion 3, the square law",
    "constructions.cone_lift": "tests/test_acceptance.py: criterion 7, the cone-lift suite",
    "complexes.CurvedComplex.ring": "tests/test_acceptance.py: criterion 9",
    "supermod.ParityMap.__sub__": "tests/test_acceptance.py: criterion 7",
    # the sampler's fallback, which generated complexes never need
    "exactness._bareiss_rank": "tests/test_exactness.py: the rank fallback of the sampler",
    "exactness._IntegerBlock.rank": "tests/test_exactness.py: the rank fallback of the sampler",
    # protocol methods
    "scalars.ScalarField.__hash__": HASH,
    "scalars.Scalar.__hash__": HASH,
    "scalars.Scalar.__repr__": REPR,
    "scalars.Scalar.is_rational": "protocol: Scalar.__eq__ and __hash__ across fields",
    "polynomials.PolyRing.__hash__": HASH,
    "polynomials.PolyRing.__repr__": REPR,
    "polynomials.Poly.__hash__": HASH,
    "polynomials.Poly.__repr__": REPR,
    "supermod.SuperModule.__repr__": REPR,
    "supermod.ParityMap.__repr__": REPR,
}

FLAT_TOTAL_KINDS = (("lambda-family", "3"), ("twist-family", "2"))


def _package_modules():
    return [importlib.import_module(f"mfcert.{info.name}")
            for info in pkgutil.iter_modules([str(PACKAGE_DIR)])]


def _functions(obj):
    """The plain functions behind a class attribute or module global."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    obj = getattr(obj, "__wrapped__", obj)   # functools.lru_cache
    return [obj] if inspect.isfunction(obj) else []


def targets() -> dict:
    """code object -> ``module.qualname`` of every function the guard covers."""
    out = {}
    for module in _package_modules():
        stem = module.__name__.split(".", 1)[1]
        for obj in vars(module).values():
            found = _functions(obj)
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                found = [f for member in vars(obj).values() for f in _functions(member)]
            for func in found:
                code = func.__code__
                if func.__module__ == module.__name__ and \
                        Path(code.co_filename).resolve().parent == PACKAGE_DIR:
                    out[code] = f"{stem}.{func.__qualname__}"
    return out


def _mf_total(kind: str, r: str, seed: int) -> str:
    """A flat null-homotopic total as ``kind mf`` text, the way the benchmark
    writes its exactness inputs."""
    from mfcert import constructions, generators, serialize
    if kind == "lambda-family":
        inst = generators.gen_lambda_family(int(r), 2, seed)
        result = constructions.lemma1_build(
            constructions.LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r))
    else:
        inst = generators.gen_twist_family(int(r), 2, seed)
        result = constructions.lemma2_build(
            constructions.TwistFamily(inst.module, inst.d, inst.functions))
    return serialize.write_instance(serialize.MfInstance(result.w.module, result.w.d))


# a cell only the token parser reads
PARSER_CELL = MF_HEAD + "block odd<-even\nrow (x + 1)^2, 0\nrow 0, 2*(y - x)\nend map\n"


def _run_commands(mf_totals: dict[str, str]) -> int:
    """The sweep at seed 1 and size 2, then the inputs it lacks; returns the
    number of commands the sweep ran."""
    quiet = io.StringIO()

    def run(argv) -> int:
        with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code

    commands = sweep(main, [1], [2], lambda label, sha: None)
    for name, text in (("nonscalar.txt", NOT_SCALAR), ("parsed.txt", PARSER_CELL)):
        Path(name).write_text(text)
        assert run(["check-mf", name]) == (1 if name == "nonscalar.txt" else 0)
    for kind, text in mf_totals.items():
        Path(f"{kind}.mf.txt").write_text(text)
        assert run(["check-mf", f"{kind}.mf.txt"]) == 0
        assert run(["exactness", f"{kind}.mf.txt", "--zgens", "x", "--trials", "3"]) == 0
    assert run(["gen", "--kind", "lambda-family", "--r", "3", "--out", "lam.txt"]) == 0
    assert run(["lemma1", "lam.txt", "--out", "bundle.txt"]) == 0
    Path("bundle.txt").write_text(_corrupt_homotopy_entry(Path("bundle.txt").read_text()))
    assert run(["verify", "bundle.txt"]) == 1
    assert run(["bogus"]) == 2
    return commands


def test_every_function_is_entered_or_kept(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    covered = targets()
    # built outside the profile, as the benchmark builds its exactness inputs
    mf_totals = {kind: _mf_total(kind, r, 1) for kind, r in FLAT_TOTAL_KINDS}
    # a cache filled by an earlier test would hide its function's entry
    for module in _package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()

    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        commands = _run_commands(mf_totals)
    finally:
        sys.setprofile(previous)
    assert commands > 100

    names = set(covered.values())
    reached = {covered[code] for code in entered if code in covered}
    assert sorted(names - reached - set(KEPT)) == [], "entered by no command and not in KEPT"
    assert sorted(set(KEPT) & reached) == [], "in KEPT but entered by a command"
    assert sorted(set(KEPT) - names) == [], "in KEPT but no function of the package"


def test_deleted_names_stay_gone():
    from mfcert import cli, clifford, constructions, exactness, polynomials, scalars, supermod
    gone = [(clifford.OrthoSection, "__add__"), (constructions.LambdaFamily, "total_map"),
            (polynomials.PolyRing, "monomial"), (polynomials.Poly, "constant_value"),
            (polynomials.Poly, "__rsub__"), (scalars.ScalarField, "kind"),
            (scalars.Scalar, "as_fraction"), (scalars.Scalar, "__rsub__"),
            (scalars.Scalar, "__truediv__"), (scalars.Scalar, "__rtruediv__"),
            (supermod.ParityMap, "nonzero"), (exactness.SampleReport, "__bool__"),
            (constructions.SLambdaResult, "ok"), (constructions.SXiReduceResult, "ok")]
    assert [f"{cls.__name__}.{name}" for cls, name in gone if hasattr(cls, name)] == []
    # one verdict tree from command to report: no second report or verdict shape
    assert [name for name in ("Report", "_verdict_checks") if hasattr(cli, name)] == []
    gone_fields = [(constructions.TotalResult, "verdicts"), (constructions.TotalResult, "replay"),
                   (constructions.SXiReduceResult, "verdicts"),
                   (constructions.SXiReduceResult, "replay"),
                   (constructions.ConeLiftResult, "verdicts"),
                   (constructions.SLambdaResult, "composition"),
                   (constructions.SLambdaResult, "verdict"),
                   (constructions.SLambdaResult, "square"),
                   (constructions.SLambdaResult, "section")]
    assert [f"{cls.__name__}.{name}" for cls, name in gone_fields
            if name in {f.name for f in dataclasses.fields(cls)}] == []
    prefixes = inspect.signature(supermod.direct_sum_modules).parameters["prefixes"]
    assert prefixes.default is inspect.Parameter.empty
