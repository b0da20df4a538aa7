"""Hostile values of ``r`` and ``c1rank``, and datum entries that involve a
banned variable, through a real ``python -m mfcert.cli`` process.

Each ``r`` or ``c1rank`` case once hung or ended in a traceback.  It must now exit within
the timeout with its exit code (2 at the file reader or the ``--r`` flag, 1
where a generator refuses an r below its kind's minimum), a located message as
the last line of stderr, and no traceback.  A regressed hang fails the test at
the timeout instead of stalling the suite.  A banned datum entry exits 2 at
its own line, naming the same variable under every string-hash seed.  A
header line that the file's kind cannot use exits 2 at that line.  A cell
nested past the parser's depth cap exits 2 at its line.  A twist family at
the largest r the generator takes is written within five seconds.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfcert
from mfcert.cli import main
from mfcert.polynomials import MAX_NESTING

SRC = str(Path(mfcert.__file__).resolve().parents[1])
TIMEOUT = 10

LAMBDA_FAMILY = """mfcert instance v1
kind lambda-family
field rationals
variables x lambda
r {r}
even e0
odd o0
begin map d
parity odd
block odd<-even
row lambda
block even<-odd
row lambda
end map
"""

TAU_DATA = """mfcert instance v1
kind tau-data
field rationals
variables xh1 lambda
coords xh1
r {r}
c1rank 1
begin matrix
row 0, 1
end matrix
begin tensor
term 0 {r1} : 1
end tensor
"""

RAMOND_DATA = """mfcert instance v1
kind ramond-data
field rationals
variables xh1 lambda
coords xh1
r {r}
c1rank 1
begin matrix
row 1
end matrix
begin tensor
term {r1} : 1
end tensor
e1 1
e2 0
"""

R_LINE = r"^error: line {line}: r {r} exceeds 160$"
R_FLAG = r"^mfcert gen: error: argument --r: r {r} exceeds 160$"
R_LOW = r"^error: {kind} needs r >= {least}, got {r}$"
C1_LINE = r"^error: line 7: c1rank {c1} exceeds 8$"

# id, command, instance text (or None), exit code, last stderr line
CASES = [
    ("lemma1-r-huge", ["lemma1"], LAMBDA_FAMILY.format(r=999999999), 2,
     R_LINE.format(line=5, r=999999999)),
    ("slambda-r-huge", ["slambda"], TAU_DATA.format(r=999999999, r1=999999998), 2,
     R_LINE.format(line=6, r=999999999)),
    ("slambda-r-40000", ["slambda"], TAU_DATA.format(r=40000, r1=39999), 2,
     R_LINE.format(line=6, r=40000)),
    ("sxi-r-huge", ["sxi"], RAMOND_DATA.format(r=999999999, r1=999999998), 2,
     R_LINE.format(line=6, r=999999999)),
    # a spinor module of rank 2^22: once a MemoryError from the dense Clifford action
    ("slambda-c1rank-22", ["slambda"], TAU_DATA.format(r=3, r1=2).replace(
        "c1rank 1", "c1rank 22"), 2, C1_LINE.format(c1=22)),
    ("sxi-c1rank-22", ["sxi"], RAMOND_DATA.format(r=3, r1=2).replace(
        "c1rank 1", "c1rank 22"), 2, C1_LINE.format(c1=22)),
    ("gen-twist-r-huge", ["gen", "--kind", "twist-family", "--r", "999999999"], None, 2,
     R_FLAG.format(r=999999999)),
    ("gen-lambda-r-huge", ["gen", "--kind", "lambda-family", "--r", "999999999"], None, 2,
     R_FLAG.format(r=999999999)),
    *[(f"gen-lambda-r{r}", ["gen", "--kind", "lambda-family", "--r", str(r)], None, 1,
       R_LOW.format(kind="lambda-family", least=2, r=r)) for r in (1, 0, -3)],
    ("gen-tau-r0", ["gen", "--kind", "tau-data", "--r", "0"], None, 1,
     R_LOW.format(kind="tau-data", least=2, r=0)),
    ("gen-twist-r0", ["gen", "--kind", "twist-family", "--r", "0"], None, 1,
     R_LOW.format(kind="twist-family", least=1, r=0)),
    ("gen-ramond-r1", ["gen", "--kind", "ramond-data", "--r", "1"], None, 1,
     R_LOW.format(kind="ramond-data", least=2, r=1)),
]


# gen --kind tau-data --r 3 --size 1 --seed 1, its first row made to involve
# both the coordinate xh1 and lambda
TAU_XH1_LAMBDA = """mfcert instance v1
kind tau-data
field rationals
variables x y xh1 lambda
coords xh1
r 3
c1rank 2
begin matrix dtilde
row xh1*lambda, 1
row 0, 0
end matrix
begin tensor nu
term 0 2 : 1, -2
end tensor
"""

DATUM = r"^error: line {line}: malformed instance data: datum entry {entry} " \
        r"must not involve the coordinate {var}$"
NO_COORD = r"^error: line {line}: malformed instance data: coordinate xh9 missing from the ring$"

# a datum entry that involves a banned variable fails at its own line; with a
# coordinate missing from the ring, the datum check names that at its end
DATUM_CASES = [
    ("tau-row", ["slambda"], TAU_XH1_LAMBDA,
     DATUM.format(line=9, entry=r"xh1\*lambda", var="xh1")),
    ("tau-term", ["slambda"], TAU_DATA.format(r=3, r1=2).replace(
        "term 0 2 : 1", "term 0 2 : lambda"), DATUM.format(line=12, entry="lambda", var="lambda")),
    ("ramond-row", ["sxi"], RAMOND_DATA.format(r=3, r1=2).replace(
        "row 1", "row 2*xh1"), DATUM.format(line=9, entry=r"2\*xh1", var="xh1")),
    ("ramond-e1", ["sxi"], RAMOND_DATA.format(r=3, r1=2).replace(
        "e1 1", "e1 xh1"), DATUM.format(line=14, entry="xh1", var="xh1")),
    ("ramond-e2", ["sxi"], RAMOND_DATA.format(r=3, r1=2).replace(
        "e2 0", "e2 xh1^2"), DATUM.format(line=15, entry=r"xh1\^2", var="xh1")),
    ("tau-coord-missing", ["slambda"], TAU_DATA.format(r=3, r1=2).replace(
        "coords xh1", "coords xh9").replace("row 0, 1", "row xh1, 1"), NO_COORD.format(line=13)),
    ("ramond-coord-missing", ["sxi"], RAMOND_DATA.format(r=3, r1=2).replace(
        "coords xh1", "coords xh9").replace("e1 1", "e1 xh1"), NO_COORD.format(line=15)),
]


# a lambda-family (once a KeyError from the coefficient split), a
# remark-family (once an uncaught ContextError) or a tau-data (once located at
# its last line) over a ring without lambda
REMARK_FAMILY = """mfcert instance v1
kind remark-family
field rationals
variables x
target x^2
roots 0, 0
even e0
odd o0
begin map d
parity odd
block odd<-even
row x
block even<-odd
row x
end map
"""

BUNDLE = """mfcert bundle v1
field {field}
variables x
zgens
claim
"""

HEADER = r"^error: line {line}: {message}$"

# id, command, file text, last stderr line
HEADER_CASES = [
    ("lemma1-no-lambda", ["lemma1"],
     LAMBDA_FAMILY.format(r=2).replace("x lambda", "x").replace("row lambda", "row x"),
     HEADER.format(line=4, message="lambda-family needs the variable 'lambda'")),
    ("remark-no-lambda", ["remark"], REMARK_FAMILY,
     HEADER.format(line=4, message="remark-family needs the variable 'lambda'")),
    ("slambda-no-lambda", ["slambda"],
     TAU_DATA.format(r=3, r1=2).replace("xh1 lambda", "xh1"),
     HEADER.format(line=4, message="tau-data needs the variable 'lambda'")),
    ("instance-field-extra", ["check-mf"], LAMBDA_FAMILY.format(r=2).replace(
        "kind lambda-family", "kind mf").replace("r 2\n", "").replace(
        "field rationals", "field rationals extra"),
     HEADER.format(line=3, message="bad field spec 'rationals extra'")),
    ("bundle-field-extra", ["verify"], BUNDLE.format(field="rationals extra"),
     HEADER.format(line=2, message="bad field spec 'rationals extra'")),
]


def _run_cli(argv, text, tmp_path, hash_seed=None, timeout=TIMEOUT):
    if text is not None:
        (tmp_path / "inst.txt").write_text(text)
        argv = [*argv, "inst.txt"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, "-m", "mfcert.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == ""
    return proc


@pytest.mark.parametrize("command,text,code,message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_hostile_r_exits_with_a_located_message(command, text, code, message, tmp_path):
    proc = _run_cli(command, text, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert re.match(message, proc.stderr.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("command,text,message", [c[1:] for c in DATUM_CASES],
                         ids=[c[0] for c in DATUM_CASES])
def test_a_banned_datum_entry_fails_at_its_line(command, text, message, tmp_path):
    proc = _run_cli(command, text, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert re.match(message, proc.stderr.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("command,text,message", [c[1:] for c in HEADER_CASES],
                         ids=[c[0] for c in HEADER_CASES])
def test_an_unusable_header_line_fails_at_its_line(command, text, message, tmp_path):
    proc = _run_cli(command, text, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert re.match(message, proc.stderr.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("hash_seed", [1, 4])
def test_the_banned_variable_named_does_not_depend_on_the_string_hash(hash_seed, tmp_path):
    # the coordinates are tried in order, then lambda: xh1 under every seed
    proc = _run_cli(["slambda"], TAU_XH1_LAMBDA, tmp_path, hash_seed)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == ("error: line 9: malformed instance data: "
                                            "datum entry xh1*lambda must not involve "
                                            "the coordinate xh1")


def test_a_twist_family_at_the_largest_r_is_generated_at_once(tmp_path):
    # the generator once formed the product of all r functions and divided it
    # again by each of the first few: 8 to 40 seconds at r = 160
    proc = _run_cli(["gen", "--kind", "twist-family", "--r", "160", "--size", "1",
                     "--out", "inst.txt"], None, tmp_path, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "inst.txt").read_text().startswith(
        "mfcert instance v1\nkind twist-family\n")


# both once overflowed the recursive-descent parser: a RecursionError
# traceback and exit 1, in an instance and in a bundle alike
DEEP_CELLS = {"parentheses": "(" * 200 + "x" + ")" * 200, "minus-signs": "-" * 1000 + "x"}


@pytest.mark.parametrize("kind", ["instance", "bundle"])
@pytest.mark.parametrize("cell", DEEP_CELLS.values(), ids=DEEP_CELLS.keys())
def test_a_deeply_nested_cell_exits_2_at_its_line(kind, cell, tmp_path, capsys):
    inst = tmp_path / "lam.txt"
    assert main(["gen", "--kind", "lambda-family", "--r", "2", "--size", "2",
                 "--seed", "1", "--out", str(inst)]) == 0
    path, command = inst, "lemma1"
    if kind == "bundle":
        path, command = tmp_path / "bundle.txt", "verify"
        assert main(["lemma1", str(inst), "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("row") and line != "row 0")
    cells = lines[i][len("row "):].split(", ")
    cells[next(k for k, c in enumerate(cells) if c != "0")] = cell
    lines[i] = "row " + ", ".join(cells)
    proc = _run_cli([command], "\n".join(lines) + "\n", tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert re.match(rf"^error: line {i + 1}: bad polynomial .*: nesting exceeds "
                    rf"{MAX_NESTING} levels$", proc.stderr.splitlines()[-1]), proc.stderr
