"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench

Covers the negative control (a corrupted homotopy witness must be rejected),
the alias-aware span wrappers, the recorded references, the metric names in
``BENCHMARK.json`` and the refusal to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(cli, *argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def _corrupt_homotopy_entry(text: str) -> str:
    """Add 1 to the first stored entry of the first homotopy witness."""
    lines = text.splitlines()
    start = lines.index("kind homotopy")
    row = next(i for i in range(start, len(lines)) if lines[i].startswith("row "))
    entries = lines[row][len("row "):].split(", ")
    entries[0] = f"{entries[0]} + 1"
    lines[row] = "row " + ", ".join(entries)
    return "\n".join(lines) + "\n"


def test_corrupted_homotopy_witness_is_rejected(tmp_path):
    cli = wl.fresh_import()
    inst, bundle = tmp_path / "inst.txt", tmp_path / "bundle.txt"
    assert _cli(cli, "gen", "--kind", "lambda-family", "--r", 3, "--size", 3,
                "--seed", 1, "--out", inst)[0] == 0
    rc, out = _cli(cli, "lemma1", inst, "--out", bundle)
    assert wl.passed(rc, out)
    assert wl.passed(*_cli(cli, "verify", bundle))

    bundle.write_text(_corrupt_homotopy_entry(bundle.read_text()))
    rc, out = _cli(cli, "verify", bundle)
    assert rc == 1, out
    assert out.splitlines()[-1] == "result: FAIL"
    assert any(line.startswith("check move-") and "FAIL" in line and "homotopy" in line
               for line in out.splitlines()), out


def test_tracer_rebinds_every_alias_and_restores_them():
    wl.fresh_import()
    cli, kcert, complexes = wl.program("cli"), wl.program("kcert"), wl.program("complexes")
    constructions, scalars = wl.program("constructions"), wl.program("scalars")
    package = sys.modules[wl.PACKAGE]
    verify, is_homotopy = kcert.verify, complexes.is_homotopy
    mul = scalars.Scalar.__mul__

    tracer = Tracer(wl.PACKAGE)
    tracer.install()
    try:
        assert kcert.verify is not verify
        assert cli.kcert_verify is kcert.verify is package.verify
        assert constructions.is_homotopy is complexes.is_homotopy is not is_homotopy
        assert scalars.Scalar.__rmul__ is scalars.Scalar.__mul__ is not mul
        field = scalars.cyclotomic_field(1)
        assert 2 * field.scalar(3) == field.scalar(3) * 2 == field.scalar(6)
    finally:
        tracer.uninstall()
    assert tracer.calls("scalars.Scalar.__mul__") == 2
    assert cli.kcert_verify is kcert.verify is package.verify is verify
    assert constructions.is_homotopy is complexes.is_homotopy is is_homotopy
    assert scalars.Scalar.__rmul__ is scalars.Scalar.__mul__ is mul


def test_self_times_account_for_a_traced_command(tmp_path):
    cli = wl.fresh_import()
    inst = tmp_path / "inst.txt"
    assert _cli(cli, "gen", "--kind", "twist-family", "--r", 2, "--size", 2,
                "--seed", 3, "--out", inst)[0] == 0
    ledger = wl.Ledger()
    tracer = Tracer(wl.PACKAGE)
    tracer.install()
    try:
        rc, out, _ = wl.call_cli(cli, ["lemma2", str(inst)], ledger)
    finally:
        tracer.uninstall()
    assert wl.passed(rc, out)
    assert tracer.layer_entries("cli") == 1
    assert tracer.calls("kcert.verify") == 1
    assert tracer.group_s("supermod.compose") > 0
    assert tracer.compose[1] <= tracer.compose[0]
    assert tracer.accounting_error(ledger.program_ns) < 0.01


def test_every_pooled_instance_has_a_reference():
    reference = json.loads((HERE / "reference.json").read_text())
    idents = {spec.instance_id(seed) for specs in wl.WORKLOADS.values()
              for spec in specs for seed in spec.pool}
    assert idents == set(reference)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert BENCHMARK["paths"] == [HERE.name]


def _run(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_run_prints_every_metric_named_in_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "twisted-cyclotomic", "--seed", 1,
                    "--seconds", 0, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "product-dense", "--seed", 1,
                "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
