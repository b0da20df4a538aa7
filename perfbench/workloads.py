"""Workload definitions, set-up and the closed-loop passes.

Every workload is a list of instance specs.  Each spec names a generator kind
and shape and a pool of generator seeds whose instance files and outputs have
recorded SHA-256 references in ``reference.json``.  The workload seed picks
one pool member per spec and the order of the instances in a pass; the
program only ever sees the generated files, through ``mfcert.cli.main``.

Pools hold a single seed where one instance dominates a pass: the cost of a
(64|64) twist-family instance varies about 2x between generator seeds, which
would swamp run-to-run noise in the spread across workload seeds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PACKAGE = "mfcert"
EXACTNESS = "exactness"
TRIALS = 3           # sample points per exactness run
SETUP_REPEATS = 5    # set-ups per run, at least; setup_s is their median
SETUP_SECONDS = 2.0  # ... and repeated until this much time has passed
MIN_PASSES = 3       # a run measures at least this many passes


@dataclass(frozen=True)
class Spec:
    kind: str                  # generator kind for ``mfcert gen``
    r: int | None
    size: int
    field: str | None          # ``--field`` value, None for Q
    command: str               # construction command, or EXACTNESS
    pool: tuple[int, ...]      # generator seeds with recorded references

    def instance_id(self, seed: int) -> str:
        r = "" if self.r is None else f"-r{self.r}"
        field = (self.field or "Q").replace(":", "")
        return f"{self.command}-{self.kind}{r}-size{self.size}-{field}-seed{seed}"

    def gen_argv(self, seed: int, out: Path) -> list[str]:
        argv = ["gen", "--kind", self.kind, "--size", str(self.size),
                "--seed", str(seed), "--out", str(out)]
        if self.r is not None:
            argv += ["--r", str(self.r)]
        if self.field:
            argv += ["--field", self.field]
        return argv


SEEDS4 = (1, 2, 3, 4)

WORKLOADS: dict[str, list[Spec]] = {
    # One dense (64|64) lemma2 total: ParityMap.compose dominates certify and replay.
    "product-dense": [Spec("twist-family", 4, 8, None, "lemma2", (1004,))],
    # Many small Q instances: per-object overhead (digests, printing, map construction).
    "deformation-sweep": (
        [Spec("lambda-family", r, size, None, "lemma1", SEEDS4)
         for r in (2, 3, 5) for size in range(1, 9)]
        + [Spec("remark-family", None, size, None, "remark", SEEDS4)
           for size in range(1, 5)]),
    # The only workload on clifford and the cyclotomic Scalar path; Q-only changes must not move it.
    "twisted-cyclotomic": [
        Spec("ramond-data", 3, 3, "cyclotomic:3", "sxi", (1,)),
        Spec("ramond-data", 4, 3, "cyclotomic:4", "sxi", (1,)),
        Spec("tau-data", 2, 3, None, "slambda", SEEDS4),
        Spec("tau-data", 3, 3, None, "slambda", SEEDS4),
    ],
    # Flat null-homotopic totals through the sampler, which no certify path reaches.
    "exactness-probe": [
        Spec("lambda-family", 5, 8, None, EXACTNESS, (1,)),
        Spec("twist-family", 4, 8, None, EXACTNESS, (1004,)),
    ],
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fresh_import():
    """Drop every loaded program module and import the command path anew.

    The generators are imported here too (``mfcert gen`` imports them on first
    use), so that a tracer installed after this call wraps them.
    """
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".generators")
    return importlib.import_module(PACKAGE + ".cli")


def program(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


class Ledger:
    """Operations attempted and failed, and the time spent inside the program."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.program_ns = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def call_cli(cli, argv: list[str], ledger: Ledger) -> tuple[int, str, int]:
    """Run one command in-process; returns exit code, stdout and elapsed ns."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:   # a crash is a failed operation, not the end of the run
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - t0
    ledger.program_ns += elapsed
    if rc != 0 and err.getvalue():
        print(f"perfbench: {' '.join(argv)}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


def passed(rc, out: str) -> bool:
    lines = out.rstrip("\n").splitlines()
    return rc == 0 and bool(lines) and lines[-1] == "result: PASS"


def build_total(instance_path: Path, ledger: Ledger) -> str:
    """The flat null-homotopic total of a lambda or twist family, as ``kind mf`` text."""
    serialize, constructions = program("serialize"), program("constructions")
    text = instance_path.read_text()
    t0 = time.perf_counter_ns()
    inst = serialize.parse_instance(text)
    if isinstance(inst, serialize.LambdaInstance):
        family = constructions.LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
        result = constructions.lemma1_build(family)
    else:
        family = constructions.TwistFamily(inst.module, inst.d, inst.functions)
        result = constructions.lemma2_build(family)
    mf = serialize.write_instance(serialize.MfInstance(result.w.module, result.w.d))
    ledger.program_ns += time.perf_counter_ns() - t0
    ledger.check(result.ok, f"total of {instance_path.name} is null-homotopic")
    return mf


@dataclass
class Item:
    spec: Spec
    seed: int          # generator seed, from the spec's pool
    instance: Path
    output: Path       # the bundle, or the mf file for EXACTNESS
    sample_seed: int   # sampler seed for EXACTNESS

    @property
    def ident(self) -> str:
        return self.spec.instance_id(self.seed)


def choose(workload: str, seed: int, workdir: Path) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for spec in WORKLOADS[workload]:
        gseed = rng.choice(spec.pool)
        ident = spec.instance_id(gseed)
        suffix = ".mf.txt" if spec.command == EXACTNESS else ".bundle.txt"
        items.append(Item(spec, gseed, workdir / f"{ident}.txt", workdir / f"{ident}{suffix}",
                          rng.randrange(1, 10**6)))
    rng.shuffle(items)
    return items


def setup(items: list[Item], ledger: Ledger, tracer=None) -> float:
    """Import the program, generate every instance and write the exactness totals.

    Returns the elapsed seconds.  With a tracer, it is installed right after
    the import, so the generators show in the traced figures.
    """
    t0 = time.perf_counter()
    cli = fresh_import()
    if tracer is not None:
        tracer.install()
    try:
        for item in items:
            rc, _, _ = call_cli(cli, item.spec.gen_argv(item.seed, item.instance), ledger)
            ledger.check(rc == 0, f"gen {item.ident}")
            if item.spec.command == EXACTNESS:
                item.output.write_text(build_total(item.instance, ledger))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


def check_references(items: list[Item], reference: dict, ledger: Ledger):
    for item in items:
        ref = reference.get(item.ident)
        if not ledger.check(ref is not None, f"reference recorded for {item.ident}"):
            continue
        ledger.check(sha256(item.instance) == ref["instance"], f"{item.ident} instance bytes")
        if item.spec.command == EXACTNESS:
            ledger.check(sha256(item.output) == ref["output"], f"{item.ident} total bytes")


def run_pass(items: list[Item], reference: dict, ledger: Ledger) -> dict[str, float]:
    """One closed-loop pass: every item once, back to back.  Returns phase seconds."""
    cli = program("cli")
    phases = {"certify": 0, "replay": 0, EXACTNESS: 0}
    gc.collect()
    for item in items:
        spec = item.spec
        if spec.command == EXACTNESS:
            rc, out, ns = call_cli(cli, [EXACTNESS, str(item.output), "--zgens", "x",
                                         "--trials", str(TRIALS),
                                         "--seed", str(item.sample_seed)], ledger)
            phases[EXACTNESS] += ns
            ledger.check(passed(rc, out) and f"points: {TRIALS}" in out.splitlines(),
                         f"exactness {item.ident}")
            continue
        rc, out, ns = call_cli(cli, [spec.command, str(item.instance),
                                     "--out", str(item.output)], ledger)
        phases["certify"] += ns
        ok = passed(rc, out) and item.output.is_file()
        ref = reference.get(item.ident, {})
        ledger.check(ok and sha256(item.output) == ref.get("output"),
                     f"{spec.command} {item.ident}")
        if not ok:
            continue
        rc, out, ns = call_cli(cli, ["verify", str(item.output)], ledger)
        phases["replay"] += ns
        ledger.check(passed(rc, out), f"verify {item.ident}")
    return {k: v / 1e9 for k, v in phases.items()}


def closed_loop(items: list[Item], reference: dict, ledger: Ledger,
                seconds: float) -> list[dict[str, float]]:
    """Passes back to back until ``seconds`` have gone, and at least MIN_PASSES."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(items, reference, ledger))
    return passes


def median_phases(passes: list[dict[str, float]]) -> dict[str, float]:
    out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    out["total"] = statistics.median(sum(p.values()) for p in passes)
    return out


# ---------------------------------------------------------------------------
# exact size counters, computed from the files a pass wrote
# ---------------------------------------------------------------------------

def _bundle_maps(cert) -> list:
    """Every map a certificate stores: differentials, homotopies, isomorphisms."""
    maps = [c.d for c in cert.all_complexes()]
    for _, move in cert.moves:
        if hasattr(move, "h"):
            maps.append(move.h)
        pairs = list(getattr(move, "isos", ())) + ([move.iso] if hasattr(move, "iso") else [])
        for pair in pairs:
            maps += [pair.forward, pair.inverse]
    return maps


def size_counters(items: list[Item]) -> dict[str, int]:
    serialize = program("serialize")
    sizes = {"map_entries": 0, "map_nnz": 0, "max_rank": 0, "max_terms": 0,
             "max_coeff_bits": 0, "bundle_bytes": 0}
    for item in items:
        text = item.output.read_text()
        if item.spec.command == EXACTNESS:
            maps = [serialize.parse_instance(text).d]
        else:
            sizes["bundle_bytes"] += len(text.encode())
            maps = _bundle_maps(serialize.parse_bundle(text))
        for m in maps:
            sizes["max_rank"] = max(sizes["max_rank"], m.source.total_rank, m.target.total_rank)
            for row in m.entries:
                sizes["map_entries"] += len(row)
                for p in row:
                    if not p.terms:
                        continue
                    sizes["map_nnz"] += 1
                    sizes["max_terms"] = max(sizes["max_terms"], len(p.terms))
                    for coeff in p.terms.values():
                        for q in coeff.coeffs:
                            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                            sizes["max_coeff_bits"] = max(sizes["max_coeff_bits"], bits)
    return sizes
