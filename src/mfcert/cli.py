"""Command-line front end: generate, construct, verify, report.

Exit codes: 0 all checks pass, 1 a verdict or invariant failed, 2 usage,
parse or write errors.  Each command builds one :class:`Verdict` tree: its
root is the command, its children are the report lines in order, and a line
read off a check has that check as its one child.  The text report and
``--json-report`` are two printers of that tree; the command's config and
extras (``r``, ``curvature``, ``bundle``, ...) are key/value pairs printed
beside it, not verdicts.  Reports are deterministic for a fixed command line
and seed.

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

from .complexes import (CurvatureError, InvariantError, SupportLocus, Verdict,
                        curvature_check, report_line)
from .kcert import verify as kcert_verify
from .polynomials import ParseError
from .scalars import FieldError, ScalarField, cyclotomic_field
from .serialize import (MAX_FIELD_ORDER, MAX_R, ConeLiftInstance,
                        FileFormatError, LambdaInstance, MfInstance,
                        RemarkInstance, TwistInstance, parse_bundle,
                        parse_instance, write_bundle, write_instance)
from .supermod import ShapeError

PASS, FAIL, USAGE = 0, 1, 2


def _render(root: Verdict, config: dict, extra: dict) -> str:
    """The text report of a command's verdict tree: one ``check`` line per
    child, its message in parentheses when it has one."""
    out = [f"command: {root.kind}"]
    out += [f"{key}: {value}" for key, value in config.items()]
    for line in root.children:
        detail = f" ({line.message})" if line.message else ""
        out.append(f"check {line.kind}: {'pass' if line else 'FAIL'}{detail}")
    out += [f"{key}: {value}" for key, value in extra.items()]
    out.append(f"result: {'PASS' if root else 'FAIL'}")
    return "\n".join(out)


def _to_json(root: Verdict, config: dict, extra: dict) -> dict:
    """The JSON report of the same tree, one ``checks`` entry per child."""
    checks = [{"name": line.kind, "ok": line.ok, "detail": line.message}
              for line in root.children]
    return {"command": root.kind, "config": config, "checks": checks, **extra,
            "ok": root.ok}


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


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    return parse_instance(_read(path))


def _write(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from None


def _emit(args, config: dict, lines, extra: dict | None = None) -> int:
    """Print the verdict tree whose root is the command and whose children
    are ``lines``, and write its JSON report when asked."""
    root = Verdict(all(lines), args.command, children=tuple(lines))
    extra = extra or {}
    print(_render(root, config, extra))
    if args.json_report:
        _write(args.json_report,
               json.dumps(_to_json(root, config, extra), indent=2, sort_keys=True) + "\n")
    return PASS if root else FAIL


def _write_bundle(cert, args) -> dict:
    """Write the bundle when ``--out`` names a file; the extras that say so."""
    if not args.out:
        return {}
    _write(args.out, write_bundle(cert))
    return {"bundle": args.out}


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
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return PASS


def cmd_check_mf(args) -> int:
    instance = _load(args.input)
    if isinstance(instance, (MfInstance, TwistInstance)):
        module, d = instance.module, instance.d
    elif isinstance(instance, (LambdaInstance, RemarkInstance)):
        module, d = instance.module, instance.d_lambda
    else:
        raise FileFormatError("check-mf needs an instance with a module and a map")
    try:
        c = curvature_check(module, d)
    except CurvatureError as exc:   # its message names the entry
        return _emit(args, {"input": args.input},
                     [Verdict(False, "square-is-scalar", str(exc))])
    return _emit(args, {"input": args.input},
                 [Verdict(True, "square-is-scalar")], {"curvature": str(c.curvature)})


def cmd_lemma1(args) -> int:
    from .constructions import LambdaFamily, lemma1_build
    instance = _load(args.input)
    if not isinstance(instance, LambdaInstance):
        raise FileFormatError("lemma1 needs a lambda-family instance")
    config = {"input": args.input, "r": instance.r}
    try:
        family = LambdaFamily.from_map(instance.module, instance.d_lambda, instance.r)
    except InvariantError as exc:
        return _emit(args, config, [Verdict(False, "family-invariant", str(exc))])
    result = lemma1_build(family, _zlocus(instance.module.ring, args.zgens))
    # lemma1 reports no certificate-replay line
    return _emit(args, config, [Verdict(True, "family-invariant"), *result.lines[:-1]],
                 _write_bundle(result.certificate, args))


def cmd_lemma2(args) -> int:
    from .constructions import TwistFamily, lemma2_build
    instance = _load(args.input)
    if not isinstance(instance, TwistInstance):
        raise FileFormatError("lemma2 needs a twist-family instance")
    config = {"input": args.input, "r": len(instance.functions)}
    try:
        family = TwistFamily.from_map(instance.module, instance.d, instance.functions)
    except InvariantError as exc:
        return _emit(args, config, [Verdict(False, "family-invariant", str(exc))])
    result = lemma2_build(family, _zlocus(instance.module.ring, args.zgens))
    return _emit(args, config, [Verdict(True, "family-invariant"), *result.lines],
                 _write_bundle(result.certificate, args))


def cmd_remark(args) -> int:
    from .constructions import remark_decompose
    instance = _load(args.input)
    if not isinstance(instance, RemarkInstance):
        raise FileFormatError("remark needs a remark-family instance")
    config = {"input": args.input, "target": str(instance.target)}
    try:
        result = remark_decompose(instance.module, instance.d_lambda,
                                  instance.target, list(instance.roots),
                                  _zlocus(instance.module.ring, args.zgens))
    except InvariantError as exc:
        # remark prints its family-invariant line only when it fails
        return _emit(args, config, [Verdict(False, "family-invariant", str(exc))])
    return _emit(args, config, result.lines, _write_bundle(result.certificate, args))


def cmd_slambda(args) -> int:
    from .constructions import TauData, lemma1_build, s_lambda_check
    instance = _load(args.input)
    if not isinstance(instance, TauData):
        raise FileFormatError("slambda needs a tau-data instance")
    result = s_lambda_check(instance)
    lines, extra = list(result.lines), {}
    if result.family is not None:
        chained = lemma1_build(result.family, _zlocus(instance.ring, args.zgens))
        lines.append(Verdict(all(chained.lines), "induced-family-chain",
                             children=chained.lines))
        extra = _write_bundle(chained.certificate, args)
    return _emit(args, {"input": args.input, "r": instance.r}, lines, extra)


def cmd_sxi(args) -> int:
    from .constructions import RamondData, s_xi_reduce
    instance = _load(args.input)
    if not isinstance(instance, RamondData):
        raise FileFormatError("sxi needs a ramond-data instance")
    config = {"input": args.input, "r": instance.r}
    isotropy = report_line("twist-isotropy", instance.check())
    if not isotropy:
        return _emit(args, config, [isotropy])
    result = s_xi_reduce(instance, _zlocus(instance.ring, args.zgens))
    return _emit(args, config, [isotropy, *result.lines],
                 _write_bundle(result.certificate, args))


def cmd_conelift(args) -> int:
    from .constructions import ChainMap, cone_lift_check
    instance = _load(args.input)
    if not isinstance(instance, ConeLiftInstance):
        raise FileFormatError("conelift needs a cone-lift instance")
    result = cone_lift_check(ChainMap(instance.a, instance.b, instance.g),
                             ChainMap(instance.b, instance.c, instance.f), instance.h)
    return _emit(args, {"input": args.input}, result.lines)


def cmd_verify(args) -> int:
    cert = parse_bundle(_read(args.input))
    verdict = kcert_verify(cert)
    # children: the curvature pass, each move, the ledger; a curvature pass
    # that stops the replay is the only child, and fails the ledger line,
    # whose message is the certificate's on pass and on fail
    last = verdict.children[-1]
    lines = [report_line(f"move-{idx}", v) for idx, v in enumerate(verdict.children[1:-1])]
    lines.append(Verdict(last.ok, "ledger", verdict.message, children=(last,)))
    extra = {}
    if verdict.children[0] and (assumed := cert.assumed_exact()):
        extra["assumed-exact"] = ", ".join(assumed)
    return _emit(args, {"input": args.input}, lines, extra)


def cmd_exactness(args) -> int:
    from .exactness import SampleError, strict_exactness_sample
    instance = _load(args.input)
    if isinstance(instance, (MfInstance, TwistInstance)):
        module, d = instance.module, instance.d
    else:
        raise FileFormatError("exactness needs an mf or twist-family instance")
    complex_ = curvature_check(module, d)
    config = {"input": args.input, "seed": args.seed, "trials": args.trials}
    z = _zlocus(module.ring, args.zgens)
    try:
        sample = strict_exactness_sample(complex_, z, args.trials, args.seed)
    except SampleError as exc:
        return _emit(args, config, [Verdict(False, "fiberwise-exactness", str(exc))])
    # the sample's message prints on a passing line too
    return _emit(args, config,
                 [Verdict(sample.ok, "fiberwise-exactness", sample.message)],
                 {"points": len(sample.points)})


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
    "check-mf": ("verify the square of a map is scalar", _add_verify, cmd_check_mf),
    "lemma1": (None, _add_input_and_out, cmd_lemma1),
    "lemma2": (None, _add_input_and_out, cmd_lemma2),
    "remark": (None, _add_input_and_out, cmd_remark),
    "slambda": (None, _add_input_and_out, cmd_slambda),
    "sxi": (None, _add_input_and_out, cmd_sxi),
    "conelift": ("lift a map through a mapping cone", _add_verify, cmd_conelift),
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
