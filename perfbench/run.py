"""The mfcert benchmark: one seeded workload per process, closed loop, one client.

    python3 perfbench/run.py --workload product-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a separate traced pass, the exact size counters and the kernel cases.
An earlier line, ``stamp {...}``, records the interpreter, core count, commit
and load averages of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kernels  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

REFERENCE = HERE / "reference.json"
# A traced run's spans must account for its wall time within this share
# (the tightest end-to-end bound in BENCHMARK.json).
ACCOUNTING_BOUND = 0.1


def git_sha(root: Path) -> str:
    """The commit of a git checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, root: Path, when: str) -> str:
    return "stamp " + json.dumps({
        "when": when, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(root),
        "loadavg": [round(x, 2) for x in os.getloadavg()]}, sort_keys=True)


def end_to_end(items, reference, seconds: float, ledger) -> dict:
    setups = []
    start = time.perf_counter()
    while len(setups) < wl.SETUP_REPEATS or time.perf_counter() - start < wl.SETUP_SECONDS:
        setups.append(wl.setup(items, ledger))
    wl.check_references(items, reference, ledger)
    phases = wl.median_phases(wl.closed_loop(items, reference, ledger, seconds))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (phases["total"], "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def traced(items, reference, seconds: float, ledger) -> dict:
    tracer = Tracer(wl.PACKAGE)
    before = ledger.program_ns
    wl.setup(items, ledger, tracer)
    measured = ledger.program_ns - before
    wl.check_references(items, reference, ledger)
    untraced = wl.closed_loop(items, reference, ledger, seconds)
    phases = wl.median_phases(untraced)

    before = ledger.program_ns
    tracer.install()
    try:
        traced_pass = wl.run_pass(items, reference, ledger)
    finally:
        tracer.uninstall()
    measured += ledger.program_ns - before
    accounting = tracer.accounting_error(measured)
    ledger.check(accounting <= ACCOUNTING_BOUND,
                 f"span accounting error {accounting:.4f} within {ACCOUNTING_BOUND}")

    sizes = wl.size_counters(items)
    kernel_values, kernel_failures = kernels.run_all()
    for name in kernel_values:
        ledger.check(name not in kernel_failures, f"kernel case {name}")

    t = tracer
    m = {}
    for layer in ("scalars", "polynomials", "supermod", "complexes", "clifford",
                  "constructions", "kcert", "serialize", "generators", "cli"):
        m[f"{layer}.self_s"] = (t.layer_self_s(layer), "s")
        m[f"{layer}.calls"] = (t.layer_entries(layer), "count")
    slots, pairs, products = t.compose
    m.update({
        "scalars.mul_calls": (t.calls("scalars.Scalar.__mul__"), "count"),
        "scalars.add_calls": (t.calls("scalars.Scalar.__add__"), "count"),
        "polynomials.mul_s": (t.group_s("polynomials.mul"), "s"),
        "polynomials.mul_calls": (t.calls("polynomials.Poly.__mul__"), "count"),
        "polynomials.add_calls": (t.calls("polynomials.Poly.__add__"), "count"),
        "polynomials.str_s": (t.group_s("polynomials.str"), "s"),
        "polynomials.str_calls": (t.calls("polynomials.Poly.__str__"), "count"),
        "polynomials.parse_s": (t.group_s("polynomials.parse"), "s"),
        "polynomials.max_terms": (sizes["max_terms"], "count"),
        "polynomials.max_coeff_bits": (sizes["max_coeff_bits"], "bits"),
        "supermod.compose_s": (t.group_s("supermod.compose"), "s"),
        "supermod.compose_calls": (t.calls("supermod.ParityMap.compose"), "count"),
        "supermod.compose_slots": (slots, "count"),
        "supermod.compose_pairs": (pairs, "count"),
        "supermod.compose_pair_ratio": (pairs / slots if slots else 0.0, "ratio"),
        "supermod.compose_term_products": (products, "count"),
        "supermod.map_init_s": (t.group_s("supermod.map_init"), "s"),
        "supermod.map_init_calls": (t.calls("supermod.ParityMap.__init__"), "count"),
        "supermod.map_entries": (sizes["map_entries"], "count"),
        "supermod.map_nnz": (sizes["map_nnz"], "count"),
        "supermod.max_rank": (sizes["max_rank"], "count"),
        "supermod.arith_s": (t.group_s("supermod.arith"), "s"),
        "supermod.evaluate_s": (t.group_s("supermod.evaluate"), "s"),
        "complexes.exactness_self_s": (t.group_self_s("complexes.exactness"), "s"),
        "complexes.exactness_points": (
            wl.TRIALS * sum(i.spec.command == wl.EXACTNESS for i in items), "count"),
        "complexes.digest_s": (t.group_s("complexes.digest"), "s"),
        "complexes.digest_calls": (t.calls("complexes.CurvedComplex.digest"), "count"),
        "complexes.curvature_check_s": (t.group_s("complexes.curvature_check"), "s"),
        "complexes.curvature_check_calls": (t.calls("complexes.curvature_check"), "count"),
        "complexes.is_homotopy_s": (t.group_s("complexes.is_homotopy"), "s"),
        "complexes.filtration_s": (t.group_s("complexes.filtration"), "s"),
        "kcert.verify_calls": (t.calls("kcert.verify"), "count"),
        "kcert.verify_self_s": (t.group_self_s("kcert.verify"), "s"),
        "kcert.homotopy_replay_s": (t.group_s("kcert.homotopy_replay"), "s"),
        "kcert.filtration_replay_s": (t.group_s("kcert.filtration_replay"), "s"),
        "kcert.iso_replay_s": (t.group_s("kcert.iso_replay"), "s"),
        "kcert.moves": (sum(t.calls(f"kcert.{k}.replay")
                            for k in ("HomotopyMove", "FiltrationMove", "IsoMove")), "count"),
        "serialize.parse_bundle_s": (t.group_s("serialize.parse_bundle"), "s"),
        "serialize.parse_instance_s": (t.group_s("serialize.parse_instance"), "s"),
        "serialize.write_bundle_s": (t.group_s("serialize.write_bundle"), "s"),
        "serialize.bundle_bytes": (sizes["bundle_bytes"], "bytes"),
        "phase.certify_s": (phases["certify"], "s"),
        "phase.replay_s": (phases["replay"], "s"),
        "phase.exactness_s": (phases[wl.EXACTNESS], "s"),
        "trace.overhead_ratio": (sum(traced_pass.values()) / phases["total"], "ratio"),
        "trace.accounting_error": (accounting, "ratio"),
        "trace.unattributed_s": ((t.wall_ns - measured) / 1e9, "s"),
        "run.passes": (len(untraced), "count"),
    })
    for name, value in kernel_values.items():
        m[name] = (value, name.rsplit("_", 1)[1])
    m["run.fail_ratio"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / wl.PACKAGE / "cli.py").is_file():
        print(f"perfbench: no {wl.PACKAGE} sources under {src}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    reference = json.loads(REFERENCE.read_text())

    print(stamp(args, root, "start"), flush=True)
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ledger = wl.Ledger()
    try:
        items = wl.choose(args.workload, args.seed, workdir)
        measure = traced if args.trace else end_to_end
        metrics = measure(items, reference, args.seconds, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # another run still uses it
    print(stamp(args, root, "end"), flush=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
