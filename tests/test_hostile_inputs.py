"""Hostile values of ``r`` through a real ``python -m mfcert.cli`` process.

Each case once hung or ended in a traceback.  It must now exit within the
timeout with its exit code (2 at the file reader or the ``--r`` flag, 1 where
a generator refuses an r below its kind's minimum), a located message as the
last line of stderr, and no traceback.  A regressed hang fails the test at
the timeout instead of stalling the suite.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mfcert

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


@pytest.mark.parametrize("command,text,code,message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_hostile_r_exits_with_a_located_message(command, text, code, message, tmp_path):
    argv = list(command)
    if text is not None:
        (tmp_path / "inst.txt").write_text(text)
        argv.append("inst.txt")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-m", "mfcert.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=TIMEOUT)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == code, proc.stderr
    assert re.match(message, proc.stderr.splitlines()[-1]), proc.stderr
    assert proc.stdout == ""
