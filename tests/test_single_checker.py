"""The constructions only build; the one certificate replay checks every identity.

Counting: a construction command makes exactly the check calls of its
family's square (none for ``sxi``, whose product family the replay's
curvature pass proves) plus those of ``mfcert verify`` on the bundle it wrote, and
computes each polynomial part once; ``conelift``, which writes no bundle,
checks each of its identities once and builds its cone once.
Injected construction bugs: each broken identity fails its named report line,
and no line whose identity the replay did not prove reads ``pass``.
"""

import dataclasses
import sys
from collections import Counter

import pytest

from mfcert import clifford, complexes, constructions, kcert, supermod
from mfcert.cli import main
from mfcert.clifford import OrthoSection
from mfcert.constructions import RamondData
from mfcert.supermod import ParityMap

# instance kind and generator flags, and the products the construction itself
# composes (none: remark applies d(lambda) in the Newton basis by Horner's rule)
FIXTURES = {
    "lemma1": (["lambda-family", "--r", "3", "--size", "2", "--seed", "1"], 0),
    "lemma2": (["twist-family", "--r", "3", "--size", "2", "--seed", "5"], 0),
    "remark": (["remark-family", "--size", "2", "--seed", "1"], 0),
    "sxi": (["ramond-data", "--r", "3", "--size", "2", "--seed", "1",
             "--field", "cyclotomic:3"], 0),
    "slambda": (["tau-data", "--r", "3", "--size", "2", "--seed", "6"], 0),
}
# the squares of its family's map each command checks before the replay: sxi
# builds its product family unchecked, and the replay's curvature lines prove it
FAMILY_SQUARES = {"lemma1": 1, "lemma2": 1, "remark": 1, "sxi": 0, "slambda": 1}
CONE = ["cone-lift", "--size", "2", "--seed", "8"]

# the module-level functions counted through every alias
COUNTED = [(supermod, "residual"), (supermod, "scalar_square"), (constructions, "cone"),
           (clifford, "clifford_action"), (constructions, "cyclotomic_coupling")]


@pytest.fixture
def calls(monkeypatch):
    """Count the COUNTED functions through every alias, compose calls,
    ``RamondData.check`` calls, and the pairings of plain and of twisted
    (extended) sections."""
    counts = Counter()
    for home, name in COUNTED:
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("mfcert") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    compose, check, pairing = ParityMap.compose, RamondData.check, OrthoSection.pairing

    def counted_compose(self, other):
        counts["compose"] += 1
        return compose(self, other)

    def counted_check(self):
        counts["RamondData.check"] += 1
        return check(self)

    def counted_pairing(self):
        counts["twisted pairing" if self.extended else "pairing"] += 1
        return pairing(self)

    monkeypatch.setattr(ParityMap, "compose", counted_compose)
    monkeypatch.setattr(RamondData, "check", counted_check)
    monkeypatch.setattr(OrthoSection, "pairing", counted_pairing)
    return counts


def _run(argv, counts) -> Counter:
    counts.clear()
    assert main(argv) == 0
    return Counter(counts)


@pytest.mark.parametrize("command", FIXTURES)
def test_each_identity_is_checked_once(command, calls, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gen, construction_composes = FIXTURES[command]
    _run(["gen", "--kind", *gen, "--out", "inst.txt"], calls)
    made = _run([command, "inst.txt", "--out", "bundle.txt"], calls)
    replayed = _run(["verify", "bundle.txt"], calls)
    kernel = ("residual", "scalar_square")
    assert sum(made[k] for k in kernel) == \
        FAMILY_SQUARES[command] + sum(replayed[k] for k in kernel)
    assert made["compose"] == construction_composes
    assert replayed["compose"] == 0


# per command, the polynomial parts computed once: sxi checks its datum once
# (the twist-isotropy line), computes one coupling per root and no twisted
# pairing (the replay's curvature pass proves the isotropy); slambda computes
# one pairing and builds its Clifford action once
PARTS = {
    "sxi": {"RamondData.check": 1, "cyclotomic_coupling": 3, "twisted pairing": 0,
            "pairing": 1, "clifford_action": 4},
    "slambda": {"pairing": 1, "clifford_action": 1},
}


@pytest.mark.parametrize("command", PARTS)
def test_each_part_is_computed_once(command, calls, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(["gen", "--kind", *FIXTURES[command][0], "--out", "inst.txt"], calls)
    made = _run([command, "inst.txt"], calls)
    assert {k: made[k] for k in PARTS[command]} == PARTS[command]


def test_conelift_checks_each_identity_once(calls, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(["gen", "--kind", *CONE, "--out", "inst.txt"], calls)
    made = _run(["conelift", "inst.txt"], calls)
    # g-chain-map, f-chain-map and homotopy-witness, then the cone's curvature
    assert made["residual"] == 3
    assert made["scalar_square"] == 1
    # f g, the cone's coupling g u, the lift's h u, and the restriction to B
    assert made["compose"] == 4
    assert made["cone"] == 1


def _bump(m: ParityMap, skip: int = 0) -> ParityMap:
    """The map with 1 added at a parity-legal slot (the first after ``skip`` of them)."""
    slots = [(i, j) for i in range(m.target.total_rank) for j in range(m.source.total_rank)
             if (m.target.parity(i) - m.source.parity(j)) % 2 == m.parity]
    i, j = slots[skip]
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] + 1
    return ParityMap(m.source, m.target, m.parity, entries)


def _lines(out: str) -> dict[str, str]:
    """check name -> 'pass' or 'FAIL'."""
    return {line[len("check "):].split(":")[0]: line.split(": ", 1)[1][:4]
            for line in out.splitlines() if line.startswith("check ")}


# the construction steps as built, for the broken versions to wrap
PRODUCT_DIFFERENTIAL = constructions.product_differential
SLICE_ISOS = constructions._slice_isos
SPINOR_SPLIT = constructions.spinor_split
ORTHO_SECTION = constructions.OrthoSection


def _broken_product_differential(family, i):
    m = PRODUCT_DIFFERENTIAL(family, i)
    return _bump(m) if i == 1 else m


def _broken_homotopy(complex_, h):
    # the first slots meet zero rows and columns of d, where a bump keeps dh + hd
    return kcert.HomotopyMove(complex_, _bump(h, skip=3))


def _broken_slice_isos(c, filt, targets):
    isos = SLICE_ISOS(c, filt, targets)
    isos[0] = dataclasses.replace(isos[0], forward=_bump(isos[0].forward))
    return isos


def _broken_split(extended):
    split = SPINOR_SPLIT(extended)
    return dataclasses.replace(split, to_sum=_bump(split.to_sum))


def _broken_twisted_section(ring, vec, cov, l_part=None, linv_part=None):
    # a twisted section whose contraction part is off by 1: its pairing gains
    # l_part, so it is not isotropic and its action does not square to 0
    if linv_part is not None:
        linv_part = linv_part + 1
    return ORTHO_SECTION(ring, vec, cov, l_part, linv_part)


# command, the construction step replaced, the lines it must fail, and the
# lines the replay still proves
BUGS = [
    # the total's diagonal blocks are the d_i themselves, so a bad d_1 bends it too
    ("lemma2", "product_differential", _broken_product_differential,
     ["flat", "d1-flat", "filtration", "gr1", "gr2", "gr3", "homotopy",
      "certificate-replay"],
     ["family-invariant", "d2-flat", "d3-flat"]),
    ("lemma1", "HomotopyMove", _broken_homotopy,
     ["homotopy"],
     ["family-invariant", "flat", "filtration", "gr1", "gr2", "gr3"]),
    ("remark", "_slice_isos", _broken_slice_isos,
     ["gr1", "gr2", "certificate-replay"],
     ["flat", "filtration", "homotopy"]),
    ("sxi", "spinor_split", _broken_split,
     ["match-xi1", "match-xi2", "match-xi3", "certificate-replay"],
     ["twist-isotropy", "coupling-xi1", "coupling-xi2", "coupling-xi3",
      "product-of-twists", "flat", "d1-flat", "d2-flat", "d3-flat", "filtration",
      "gr1", "gr2", "gr3", "homotopy"]),
    # the replay stops at the curvature pass, so no move line is proved
    ("sxi", "OrthoSection", _broken_twisted_section,
     ["match-xi1", "match-xi2", "match-xi3", "filtration", "gr1", "gr2", "gr3",
      "homotopy", "certificate-replay"],
     ["twist-isotropy", "coupling-xi1", "coupling-xi2", "coupling-xi3",
      "product-of-twists", "flat", "d1-flat", "d2-flat", "d3-flat"]),
]


@pytest.mark.parametrize("command,step,broken,fails,passes", BUGS,
                         ids=[f"{b[0]}-{b[1]}" for b in BUGS])
def test_a_construction_bug_fails_its_line(command, step, broken, fails, passes,
                                           tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--kind", *FIXTURES[command][0], "--out", "inst.txt"]) == 0
    monkeypatch.setattr(constructions, step, broken)
    capsys.readouterr()
    assert main([command, "inst.txt"]) == 1
    out = capsys.readouterr().out
    lines = _lines(out)
    assert lines == {**{name: "FAIL" for name in fails},
                     **{name: "pass" for name in passes}}, out
    assert out.splitlines()[-1] == "result: FAIL"
