"""Command-line front end: generate, construct, verify, report.

Exit codes: 0 all checks pass, 1 a verdict or invariant failed, 2 usage or
parse errors.  Reports are deterministic for a fixed command line and seed;
``--json-report`` writes a structured mirror of the textual report.

The commands live in one table, ``COMMANDS``.  A call that names a command
builds only that command's parser.  ``--help``, a missing or unknown
command, and arguments the command leaves over go through the whole tree
(``build_parser``), so help and usage errors read the same either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .complexes import (CurvatureError, InvariantError, SupportLocus,
                        curvature_check)
from .kcert import verify as kcert_verify
from .polynomials import ParseError
from .scalars import FieldError, ScalarField, cyclotomic_field
from .serialize import (MAX_FIELD_ORDER, MAX_R, ConeLiftInstance,
                        FileFormatError, LambdaInstance, MfInstance,
                        RemarkInstance, TwistInstance, parse_bundle,
                        parse_instance, write_bundle, write_instance)
from .supermod import ShapeError

PASS, FAIL, USAGE = 0, 1, 2


class Report:
    """Accumulates check lines and their JSON mirror."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self.checks: list[dict] = []
        self.extra: dict = {}

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.config.items():
            lines.append(f"{key}: {value}")
        for c in self.checks:
            status = "pass" if c["ok"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            lines.append(f"check {c['name']}: {status}{detail}")
        for key, value in self.extra.items():
            lines.append(f"{key}: {value}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"command": self.command, "config": self.config,
                "checks": self.checks, **self.extra, "ok": self.ok}


def _parse_field_flag(spec: str) -> ScalarField:
    if spec in ("Q", "rationals"):
        return cyclotomic_field(1)
    if spec.startswith("cyclotomic:"):
        order = int(spec.split(":", 1)[1])
        if order > MAX_FIELD_ORDER:
            raise argparse.ArgumentTypeError(
                f"cyclotomic order {order} exceeds {MAX_FIELD_ORDER}")
        return cyclotomic_field(order)
    raise argparse.ArgumentTypeError(
        f"bad field {spec!r}; expected Q or cyclotomic:<r>")


def _trial_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one trial, got {n}")
    return n


def _r_value(text: str) -> int:
    try:
        r = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if r > MAX_R:
        raise argparse.ArgumentTypeError(f"r {r} exceeds {MAX_R}")
    return r


def _zlocus(instance_ring, text: str | None) -> SupportLocus:
    if not text:
        return SupportLocus()
    gens = tuple(instance_ring.parse(chunk) for chunk in text.split(","))
    return SupportLocus(gens)


def _load(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def _emit(report: Report, args) -> int:
    print(report.render())
    if getattr(args, "json_report", None):
        Path(args.json_report).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return PASS if report.ok else FAIL


def _write_bundle(cert, args, report: Report):
    if getattr(args, "out", None):
        Path(args.out).write_text(write_bundle(cert))
        report.extra["bundle"] = args.out


def _verdict_checks(report: Report, verdicts: dict):
    for name, v in verdicts.items():
        report.add(name, bool(v), "" if v else v.describe())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    from . import generators
    builders = {
        "lambda-family": lambda: generators.gen_lambda_family(
            args.r, args.size, args.seed, args.field),
        "twist-family": lambda: generators.gen_twist_family(
            args.r, args.size, args.seed, args.field),
        "tau-data": lambda: generators.gen_tau_data(
            args.r, args.size, args.seed, args.field),
        "ramond-data": lambda: generators.gen_ramond_data(
            args.r, args.size, args.seed, args.field),
        "remark-family": lambda: generators.gen_remark_family(
            args.size, args.seed, args.field),
        "cone-lift": lambda: generators.gen_cone_lift(
            args.size, args.seed, args.field),
    }
    if args.kind not in builders:
        print(f"unknown kind {args.kind!r}", file=sys.stderr)
        return USAGE
    if not 0 <= args.size <= 8:
        print("size is limited to 8" if args.size > 8 else "size must be at least 0",
              file=sys.stderr)
        return USAGE
    instance = builders[args.kind]()
    text = write_instance(instance)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return PASS


def cmd_check_mf(args) -> int:
    instance = _load(args.input)
    report = Report("check-mf", {"input": args.input})
    if isinstance(instance, (MfInstance, TwistInstance)):
        module, d = instance.module, instance.d
    elif isinstance(instance, (LambdaInstance, RemarkInstance)):
        module, d = instance.module, instance.d_lambda
    else:
        raise FileFormatError("check-mf needs an instance with a module and a map")
    try:
        c = curvature_check(module, d)
        report.add("square-is-scalar", True)
        report.extra["curvature"] = str(c.curvature)
    except CurvatureError as exc:
        report.add("square-is-scalar", False,
                   f"{exc} " + (f"entry {exc.entry}" if exc.entry else ""))
    return _emit(report, args)


def cmd_lemma1(args) -> int:
    from .constructions import LambdaFamily, lemma1_build
    instance = _load(args.input)
    if not isinstance(instance, LambdaInstance):
        raise FileFormatError("lemma1 needs a lambda-family instance")
    report = Report("lemma1", {"input": args.input, "r": instance.r})
    try:
        family = LambdaFamily.from_map(instance.module, instance.d_lambda, instance.r)
    except InvariantError as exc:
        report.add("family-invariant", False, str(exc))
        return _emit(report, args)
    report.add("family-invariant", True)
    result = lemma1_build(family, _zlocus(instance.module.ring, args.zgens))
    _verdict_checks(report, result.verdicts)
    _write_bundle(result.certificate, args, report)
    return _emit(report, args)


def cmd_lemma2(args) -> int:
    from .constructions import TwistFamily, lemma2_build
    instance = _load(args.input)
    if not isinstance(instance, TwistInstance):
        raise FileFormatError("lemma2 needs a twist-family instance")
    report = Report("lemma2", {"input": args.input, "r": len(instance.functions)})
    try:
        family = TwistFamily(instance.module, instance.d, instance.functions)
    except InvariantError as exc:
        report.add("family-invariant", False, str(exc))
        return _emit(report, args)
    report.add("family-invariant", True)
    result = lemma2_build(family, _zlocus(instance.module.ring, args.zgens))
    _verdict_checks(report, result.verdicts)
    report.add("certificate-replay", bool(result.replay))
    _write_bundle(result.certificate, args, report)
    return _emit(report, args)


def cmd_remark(args) -> int:
    from .constructions import remark_decompose
    instance = _load(args.input)
    if not isinstance(instance, RemarkInstance):
        raise FileFormatError("remark needs a remark-family instance")
    report = Report("remark", {"input": args.input,
                               "target": str(instance.target)})
    try:
        result = remark_decompose(instance.module, instance.d_lambda,
                                  instance.target, list(instance.roots),
                                  _zlocus(instance.module.ring, args.zgens))
    except InvariantError as exc:
        report.add("family-invariant", False, str(exc))
        return _emit(report, args)
    _verdict_checks(report, result.verdicts)
    report.add("certificate-replay", bool(result.replay))
    _write_bundle(result.certificate, args, report)
    return _emit(report, args)


def cmd_slambda(args) -> int:
    from .constructions import TauData, lemma1_build, s_lambda_check
    instance = _load(args.input)
    if not isinstance(instance, TauData):
        raise FileFormatError("slambda needs a tau-data instance")
    report = Report("slambda", {"input": args.input, "r": instance.r})
    result = s_lambda_check(instance)
    _verdict_checks(report, {"zero-composition": result.composition,
                             "square-is-lambda^r": result.verdict})
    if result.family is not None:
        chained = lemma1_build(result.family)
        report.add("induced-family-chain", chained.ok)
        _write_bundle(chained.certificate, args, report)
    return _emit(report, args)


def cmd_sxi(args) -> int:
    from .constructions import RamondData, s_xi_reduce
    instance = _load(args.input)
    if not isinstance(instance, RamondData):
        raise FileFormatError("sxi needs a ramond-data instance")
    report = Report("sxi", {"input": args.input, "r": instance.r})
    inv = instance.check()
    report.add("twist-isotropy", bool(inv), "" if inv else inv.describe())
    if not inv:
        return _emit(report, args)
    result = s_xi_reduce(instance, _zlocus(instance.ring, args.zgens))
    _verdict_checks(report, result.verdicts)
    report.add("certificate-replay", bool(result.replay))
    _write_bundle(result.certificate, args, report)
    return _emit(report, args)


def cmd_conelift(args) -> int:
    from .constructions import ChainMap, cone_lift_check
    instance = _load(args.input)
    if not isinstance(instance, ConeLiftInstance):
        raise FileFormatError("conelift needs a cone-lift instance")
    report = Report("conelift", {"input": args.input})
    result = cone_lift_check(ChainMap(instance.a, instance.b, instance.g),
                             ChainMap(instance.b, instance.c, instance.f), instance.h)
    _verdict_checks(report, result.verdicts)
    return _emit(report, args)


def cmd_verify(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {args.input}: {exc}") from None
    cert = parse_bundle(text)
    verdict = kcert_verify(cert)
    report = Report("verify", {"input": args.input})
    # children: the curvature pass, each move, the ledger; a curvature pass
    # that stops the replay is the only child, and fails the ledger line
    _verdict_checks(report, {f"move-{idx}": v
                             for idx, v in enumerate(verdict.children[1:-1])})
    report.add("ledger", verdict.children[-1].ok, verdict.message)
    if verdict.children[0] and (assumed := cert.assumed_exact()):
        report.extra["assumed-exact"] = ", ".join(assumed)
    return _emit(report, args)


def cmd_exactness(args) -> int:
    from .exactness import SampleError, strict_exactness_sample
    instance = _load(args.input)
    if isinstance(instance, (MfInstance, TwistInstance)):
        module, d = instance.module, instance.d
    else:
        raise FileFormatError("exactness needs an mf or twist-family instance")
    complex_ = curvature_check(module, d)
    report = Report("exactness", {"input": args.input, "seed": args.seed,
                                  "trials": args.trials})
    z = _zlocus(module.ring, args.zgens)
    try:
        sample = strict_exactness_sample(complex_, z, args.trials, args.seed)
        report.add("fiberwise-exactness", sample.ok, sample.message)
        report.extra["points"] = len(sample.points)
    except SampleError as exc:
        report.add("fiberwise-exactness", False, str(exc))
    return _emit(report, args)


# ---------------------------------------------------------------------------
# arguments
# ---------------------------------------------------------------------------

def _add_gen(p):
    p.add_argument("--kind", required=True)
    p.add_argument("--r", type=_r_value, default=2)
    p.add_argument("--size", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--field", type=_parse_field_flag, default=None)
    p.add_argument("--out")


def _add_input(p):
    p.add_argument("input")
    p.add_argument("--json-report", help="write a JSON mirror of the report")
    p.add_argument("--zgens", help="comma-separated locus generators")


def _add_input_and_out(p):
    _add_input(p)
    p.add_argument("--out", help="write the certificate bundle here")


def _add_verify(p):
    p.add_argument("input")
    p.add_argument("--json-report")


def _add_exactness(p):
    _add_input(p)
    p.add_argument("--trials", type=_trial_count, default=20)
    p.add_argument("--seed", type=int, default=1)


# name -> (help in the command list, or None to list none; the function that
# adds the command's arguments; the command), in the order --help lists them
COMMANDS = {
    "gen": ("generate a seeded instance file", _add_gen, cmd_gen),
    "check-mf": ("verify the square of a map is scalar", _add_input, cmd_check_mf),
    "lemma1": (None, _add_input_and_out, cmd_lemma1),
    "lemma2": (None, _add_input_and_out, cmd_lemma2),
    "remark": (None, _add_input_and_out, cmd_remark),
    "slambda": (None, _add_input_and_out, cmd_slambda),
    "sxi": (None, _add_input_and_out, cmd_sxi),
    "conelift": ("lift a map through a mapping cone", _add_input, cmd_conelift),
    "verify": ("replay a certificate bundle", _add_verify, cmd_verify),
    "exactness": ("sample fiberwise exactness off a locus", _add_exactness, cmd_exactness),
}


def _fill(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, add_arguments, func = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole tree: the top-level parser and one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="mfcert",
        description="exact certificates for graded factorization identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, _, _) in COMMANDS.items():
        _fill(sub.add_parser(name, **({} if help_ is None else {"help": help_})), name)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, building one parser.

    A command's parser alone is built under the prog the tree gives it, so
    its help and its own errors read as the tree's.  Anything else goes to
    the whole tree: no command or an unknown one, ``--help``, and arguments
    the command leaves over, which the tree reports under its usage.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = _fill(argparse.ArgumentParser(prog=f"mfcert {name}"), name)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = name
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (InvariantError, CurvatureError, ShapeError, FieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
