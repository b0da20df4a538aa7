"""Alternating parent/change pairs of the benchmark, summarised per metric.

Run it with two checkouts, each with its own ``perfbench/`` and ``src/``::

    python3 tests/bench_pairs.py --parent path/to/old --change path/to/new \\
        --pairs 10 --seconds 20

Pair k runs ``perfbench/run.py --workload W --seed F+k-1 --seconds S --trace 0``
once in each checkout, F being ``--first-seed`` (default 1; a later first seed
rechecks a claim on seeds not used while the change was written), the parent
first in odd pairs and the change first in even ones, one run at a time.
Each run gets a fresh empty bytecode cache (``PYTHONPYCACHEPREFIX``), so both
start cold and no bytecode is left in either checkout.  For each workload
and each end-to-end metric of the change's ``BENCHMARK.json`` it prints the
parent's median with its quartiles, the change's median, the pairs the
change won and the change of the medians.
A metric is ``unresolved`` when the parent's quartile spread is more than
the metric's bound times its median; a ``claim`` holds when the change won
at least nine pairs in ten and its median is better than the parent's by
more than the parent's quartile spread.  Each run's figures go to standard
error as it ends.  It exits 1 when a run reads ``correct: false`` or fails
an operation, and stops when a run exits non-zero.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run in ``checkout``."""
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(metric: dict, parent: list[float], change: list[float]) -> str:
    """One line: parent median (quartiles) -> change median, wins, verdicts."""
    lower = metric["better"] == "lower"
    q1, med, q3 = quartiles(parent)
    new = statistics.median(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    delta = (new - med) / med * 100 if med else 0.0
    gain = (med - new) if lower else (new - med)
    spread = q3 - q1
    notes = []
    if med and spread > metric["bound"] * med:
        notes.append(f"unresolved (spread {spread / med * 100:.0f} %)")
    if wins * 10 >= 9 * len(parent) and gain > spread:
        notes.append("claim holds")
    unit = metric["unit"]
    return (f"  {metric['name']}: {med:.4f} ({q1:.4f}-{q3:.4f}) -> {new:.4f} {unit}, "
            f"{wins}/{len(parent)}, {delta:+.1f} %" + "".join(f", {n}" for n in notes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the changed checkout")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=float, default=20, help="seconds per run")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the workload seed of pair 1; pair k uses first-seed + k - 1")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); default all")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    bad = 0
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k in range(1, args.pairs + 1):
            order = ["parent", "change"] if k % 2 else ["change", "parent"]
            seed = args.first_seed + k - 1
            for side in order:
                result = run_once(getattr(args, side), workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    bad += 1
                    print(f"{side} {workload} seed {seed}: correct {result['correct']}, "
                          f"failed {result['failed']}", file=sys.stderr)
                runs[side].append(result["metrics"])
                print(f"{workload} pair {k} (seed {seed}) {side}: " + ", ".join(
                    f"{m['name']} {result['metrics'][m['name']]['value']:.4f}"
                    for m in metrics), file=sys.stderr, flush=True)
        print(f"{workload} ({args.pairs} pairs of {args.seconds:g} s runs, "
              f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1})")
        for metric in metrics:
            name = metric["name"]
            print(summary(metric, [m[name]["value"] for m in runs["parent"]],
                          [m[name]["value"] for m in runs["change"]]), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
