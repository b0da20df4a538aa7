"""Mutations of real generated instance and bundle files, read in process.

Hypothesis deletes, duplicates or swaps lines of a generated file, edits
its tokens or truncates it.  Within the time bound every mutant must do one
of three things:

* exit 2 with a message that names its line (``FileFormatError`` or a
  ``ParseError`` of an entry);
* exit 1: the construction refuses the instance, or the replay finds a
  false identity;
* exit 0 and keep the identity.  A construction on a mutated instance has
  built a certificate for a different family, and the bundle it writes must
  replay.  A mutated bundle that verifies must make the same claim as the
  original: the same field, support locus and claimed complexes with their
  coefficients, up to a relabelling of the basis and the complex names.
"""

import contextlib
import io
import re
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfcert.cli import main
from mfcert.serialize import parse_bundle

# the golden instances, by the command that builds each
GENS = {
    "lemma1": ["lambda-family", "--r", "3", "--size", "2", "--seed", "1"],
    "lemma2": ["twist-family", "--r", "3", "--size", "2", "--seed", "5"],
    "remark": ["remark-family", "--size", "2", "--seed", "1"],
    "slambda": ["tau-data", "--r", "3", "--size", "2", "--seed", "6"],
    "sxi": ["ramond-data", "--r", "3", "--size", "2", "--seed", "1",
            "--field", "cyclotomic:3"],
}
SECONDS = 5
EXAMPLES = 40
# tokens an edit may write, besides those of the file itself
SPECIAL = ["0", "1", "-1", "2", "1/2", "1/0", "x", "x^2", "x^99", "lambda", "zeta",
           "zeta^5", "99999999999999999999", "", ",", "*", "+", "(", ")", "row", "end",
           "begin", "block", "parity", "odd", "even", "C0", "C1", "C9", "move"]


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """The text of each golden instance and of the bundle built from it."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {}
    for command, gen in GENS.items():
        inst, bundle = root / f"{command}.txt", root / f"{command}.bundle"
        assert _run(["gen", "--kind", *gen, "--out", str(inst)])[0] == 0
        assert _run([command, str(inst), "--out", str(bundle)])[0] == 0
        texts[command] = (inst.read_text(), bundle.read_text())
    return texts


@st.composite
def _mutants(draw, text: str) -> str:
    lines = text.splitlines()
    pool = sorted({t for line in lines for t in line.split(" ")} | set(SPECIAL))
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "edit", "edit", "truncate"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "edit":
            tokens = lines[i].split(" ")
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(pool))
            lines[i] = " ".join(tokens)
        else:
            joined = "\n".join(lines)
            lines = joined[:draw(st.integers(0, len(joined)))].splitlines()
    return "\n".join(lines) + "\n"


def _exits_as_allowed(rc: int, err: str):
    """Exit 0 or 1, or exit 2 with a message that names its line."""
    assert rc in (0, 1, 2), err
    if rc == 2:
        assert re.match(r"error: line \d+: ", err.splitlines()[-1]), err


def _claim(text: str):
    """Field, support locus and claim of a bundle, blind to basis labels and names."""
    cert = parse_bundle(text)
    claim = Counter()
    for coeff, c in cert.claim:
        # canonical text after its two label lines: curvature and differential
        claim[(c.module.even_rank, c.module.odd_rank,
               c.canonical_text().split("\n", 2)[2])] += coeff
    return (cert.ring.field, tuple(map(str, cert.z.generators)),
            sorted((k, n) for k, n in claim.items() if n))


@pytest.mark.parametrize("command", GENS)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_instance_fails_located_or_builds_a_replayable_bundle(
        command, data, sources, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = data.draw(_mutants(sources[command][0]))
    (tmp_path / "inst.txt").write_text(text)
    (tmp_path / "bundle.txt").unlink(missing_ok=True)
    start = time.perf_counter()
    rc, _, err = _run([command, "inst.txt", "--out", "bundle.txt"])
    _exits_as_allowed(rc, err)
    if rc == 0:
        assert _run(["verify", "bundle.txt"])[0] == 0
    assert time.perf_counter() - start < SECONDS


@pytest.mark.parametrize("command", GENS)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_bundle_fails_located_or_keeps_its_claim(
        command, data, sources, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    original = sources[command][1]
    text = data.draw(_mutants(original))
    (tmp_path / "bundle.txt").write_text(text)
    start = time.perf_counter()
    rc, _, err = _run(["verify", "bundle.txt"])
    _exits_as_allowed(rc, err)
    if rc == 0 and text != original:
        assert _claim(text) == _claim(original)
    assert time.perf_counter() - start < SECONDS
