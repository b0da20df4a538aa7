"""Seeded output sweep: one SHA-256 line per report, written file and exit code.

Run it on two checkouts and diff the output to check that a change keeps
every output byte-identical::

    python3 tests/output_sweep.py --src path/to/old/src > old.txt
    python3 tests/output_sweep.py --src src > new.txt
    diff old.txt new.txt

The sweep runs through ``mfcert.cli.main`` imported from ``--src``, in a
fresh temporary directory with relative paths.  It generates every kind over
Q, Q(zeta_3) and Q(zeta_4) for each seed, size and r, runs ``check-mf`` and
the construction of each instance with ``--json-report`` (and ``--out`` where
the command writes a bundle), then ``verify --json-report`` on each bundle.  Each line
reads ``<sha256>  <label>``: the label names the command and its file, and
a report's hash covers its exit code, stdout and stderr.  The last line
counts the commands run.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

FIELDS = {"q": "Q", "z3": "cyclotomic:3", "z4": "cyclotomic:4"}

# kind -> (the construction that reads it, the r values to generate)
KINDS = {
    "lambda-family": ("lemma1", (2, 3, 4, 5)),
    "twist-family": ("lemma2", (1, 2, 3)),
    "remark-family": ("remark", (None,)),
    "tau-data": ("slambda", (2, 3, 4)),
    "ramond-data": ("sxi", (2, 3)),
    "cone-lift": ("conelift", (None,)),
}
WRITES_BUNDLE = {"lemma1", "lemma2", "remark", "slambda", "sxi"}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(main, argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse refusing the command line
            rc = exc.code
    return f"exit {rc}\nstdout\n{out.getvalue()}stderr\n{err.getvalue()}".encode()


def sweep(main, seeds, sizes, emit) -> int:
    """Run the sweep in the current directory, calling ``emit(label, sha)``
    per artifact; returns the number of commands run."""
    commands = 0

    def run(label, argv, files=()):
        nonlocal commands
        commands += 1
        for name in files:
            Path(name).unlink(missing_ok=True)
        emit(label, _sha(_run(main, argv)))
        for name in files:
            path = Path(name)
            emit(f"{label} {name}", _sha(path.read_bytes()) if path.exists() else "absent")

    for kind, (command, rs) in KINDS.items():
        for tag, field in FIELDS.items():
            for r in rs:
                for size in sizes:
                    for seed in seeds:
                        flags = ["--size", str(size), "--seed", str(seed), "--field", field]
                        if r is not None:
                            flags += ["--r", str(r)]
                        stem = f"{kind}-{tag}{'' if r is None else f'-r{r}'}-n{size}-s{seed}"
                        inst = f"{stem}.txt"
                        run(f"gen {stem}", ["gen", "--kind", kind, *flags, "--out", inst],
                            [inst])
                        if not Path(inst).exists():
                            continue
                        run(f"check-mf {stem}",
                            ["check-mf", inst, "--json-report", "report.json"], ["report.json"])
                        argv = [command, inst, "--json-report", "report.json"]
                        files = ["report.json"]
                        if command in WRITES_BUNDLE:
                            argv += ["--out", "bundle.txt"]
                            files.append("bundle.txt")
                        run(f"{command} {stem}", argv, files)
                        if Path("bundle.txt").exists():
                            run(f"verify {stem}",
                                ["verify", "bundle.txt", "--json-report", "report.json"],
                                ["report.json"])
                            Path("bundle.txt").unlink()
    return commands


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the source tree whose mfcert package to run")
    parser.add_argument("--seeds", type=_ints, default=[1, 2, 3, 4],
                        help="comma-separated generator seeds")
    parser.add_argument("--sizes", type=_ints, default=list(range(9)),
                        help="comma-separated generator sizes")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from mfcert.cli import main as cli_main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            commands = sweep(cli_main, args.seeds, args.sizes,
                             lambda label, sha: print(f"{sha}  {label}"))
        finally:
            os.chdir(here)
    print(f"commands {commands}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
