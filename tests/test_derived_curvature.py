"""The replay's curvature pass against a replay that squares every complex.

``verify`` does not square a target of a filtration move when the move's
whole complex W passed its own square, records the target's curvature, and
the move passes: the target's square is then W * id by the filtration and
slice-isomorphism argument.  The reference below is the replay with no such
step, squaring every complex and replaying every move; the two must give
the same verdict tree, child for child, whatever the certificate.
"""

import random

import pytest

from mfcert import kcert
from mfcert.complexes import CurvedComplex, Filtration, Verdict, graded_slice
from mfcert.constructions import TwistFamily, lemma2_build
from mfcert.generators import gen_twist_family
from mfcert.kcert import (MALFORMED_MOVE_ERRORS, Certificate, FiltrationMove,
                          HomotopyMove, IsoMove, IsoPair, verify)
from mfcert.serialize import parse_bundle
from mfcert.supermod import ParityMap
from test_acceptance import _corrupt_certificate, mutation_suites
from test_golden_reports import corpus


def reference_verify(cert: Certificate) -> Verdict:
    """The replay with every complex squared and every move replayed."""
    complexes = cert.all_complexes()
    checks = tuple(kcert._curvature_verdict(c) for c in complexes)
    stop = next((f"complex {cert.name_of(c)} does not have its recorded curvature"
                 for c, v in zip(complexes, checks) if not v), "")
    stop = stop or next((f"claim term {cert.name_of(c)} is curved, not a complex"
                         for coeff, c in cert.claim
                         if coeff != 0 and not c.curvature.is_zero()), "")
    curvature = Verdict(not stop, "curvature", message=stop, children=checks)
    if stop:
        return Verdict(False, "certificate", message=stop, children=(curvature,))
    moves = []
    for _, move in cert.moves:
        try:
            moves.append(move.replay())
        except MALFORMED_MOVE_ERRORS as exc:
            moves.append(Verdict(False, "move", message=f"malformed move data: {exc}"))
    residue = cert.claim_counter()
    for coeff, move in cert.moves:
        for digest, mult in move.relation().items():
            residue[digest] -= coeff * mult
    leftovers = ", ".join(f"{v} * [{cert.names.get(k, k)}]"
                          for k, v in sorted(residue.items()) if v != 0)
    message = f"unreduced terms: {leftovers}" if leftovers else ""
    ledger = Verdict(not leftovers, "ledger", message=message)
    return Verdict(all(moves) and ledger.ok, "certificate", message=message,
                   children=(curvature, *moves, ledger))


def assert_agrees(cert: Certificate) -> Verdict:
    got, want = verify(cert), reference_verify(cert)
    assert len(got.children) == len(want.children)
    for child, expected in zip(got.children, want.children):
        assert child == expected
    assert got == want
    return got


def lemma2_certificate():
    """A lemma2 r=4 certificate with four distinct targets: five complexes."""
    inst = gen_twist_family(4, 2, 2)
    return lemma2_build(TwistFamily.from_map(inst.module, inst.d, inst.functions)).certificate


def filtration_move(cert: Certificate) -> FiltrationMove:
    return next(m for _, m in cert.moves if isinstance(m, FiltrationMove))


def swap(cert: Certificate, old: CurvedComplex, new: CurvedComplex) -> Certificate:
    """``cert`` with the complex ``old`` replaced by ``new`` wherever it occurs."""
    def sub(c):
        return new if c.digest() == old.digest() else c
    moves = []
    for coeff, m in cert.moves:
        if isinstance(m, FiltrationMove):
            m = FiltrationMove(Filtration(sub(m.complex), m.steps),
                               tuple(map(sub, m.targets)), m.isos)
        elif isinstance(m, HomotopyMove):
            m = HomotopyMove(sub(m.complex), m.h)
        else:
            m = IsoMove(sub(m.source), sub(m.target), m.iso)
        moves.append((coeff, m))
    return Certificate(cert.ring, cert.z, [(k, sub(c)) for k, c in cert.claim],
                       moves, cert.names)


def with_move(cert: Certificate, move: FiltrationMove) -> Certificate:
    """``cert`` with its filtration move replaced by ``move``."""
    moves = [(coeff, move if isinstance(m, FiltrationMove) else m)
             for coeff, m in cert.moves]
    return Certificate(cert.ring, cert.z, cert.claim, moves, cert.names)


def first_entry_plus(m: ParityMap, extra) -> ParityMap:
    """``m`` with ``extra`` added to its first nonzero entry."""
    i = next(i for i, row in enumerate(m.rows) if row)
    j = m.rows[i][0][0]
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] + extra
    return ParityMap(m.source, m.target, m.parity, entries)


def leaking_steps(move: FiltrationMove) -> tuple[tuple[int, ...], ...]:
    """The move's steps with one basis vector of the first slice added to the
    second step, chosen so that d maps it out of that step."""
    steps, columns = move.steps, move.complex.d.transposed().rows
    second = set(steps[1])
    for i in sorted(set(steps[0]) - second):
        if any(row not in second | {i} for row, _ in columns[i]):
            return (steps[0], tuple(sorted(second | {i})), *steps[2:])
    raise AssertionError("no basis vector of the first slice leaks")


def targeted_mutants(cert: Certificate) -> dict[str, Certificate]:
    x = cert.ring.var("x")
    move = filtration_move(cert)
    w, target, pair = move.complex, move.targets[1], move.isos[1]
    isos = list(move.isos)
    negated = IsoPair(-pair.forward, -pair.inverse)
    doubled = IsoPair(pair.forward + pair.forward, pair.inverse)
    leaky = leaking_steps(move)
    mutants = {
        "target entry changed": swap(cert, target, CurvedComplex(
            target.module, first_entry_plus(target.d, x), target.curvature)),
        "target curvature changed": swap(cert, target, CurvedComplex(
            target.module, target.d, target.curvature + x)),
        "slice isomorphism negated": with_move(cert, FiltrationMove(
            move.filtration, move.targets, tuple(isos[:1] + [negated] + isos[2:]))),
        "slice isomorphism not inverse": with_move(cert, FiltrationMove(
            move.filtration, move.targets, tuple(isos[:1] + [doubled] + isos[2:]))),
        "filtration step leaks": with_move(cert, FiltrationMove(
            Filtration(w, leaky), move.targets, move.isos)),
        "whole square fails": swap(cert, w, CurvedComplex(
            w.module, first_entry_plus(w.d, x), w.curvature)),
        "whole curvature changed": swap(cert, w, CurvedComplex(
            w.module, w.d, w.curvature + x)),
    }
    # every complex of the move recording a curvature that is wrong for all
    # of them: the move still passes, W and the targets agree, W fails
    curved = cert
    for c in (w, *move.targets):
        curved = swap(curved, c, CurvedComplex(c.module, c.d, c.curvature + x))
    mutants["all curvatures changed"] = curved
    return mutants


def test_a_lemma2_replay_squares_only_the_whole_complex(monkeypatch):
    cert = lemma2_certificate()
    assert len(cert.all_complexes()) == 5
    squared, replayed = [], []
    square, replay = kcert._curvature_verdict, FiltrationMove.replay
    monkeypatch.setattr(kcert, "_curvature_verdict",
                        lambda c: squared.append(cert.name_of(c)) or square(c))
    monkeypatch.setattr(FiltrationMove, "replay",
                        lambda self: replayed.append(self) or replay(self))
    assert verify(cert)
    assert squared == ["W"]
    assert len(replayed) == 1
    squared.clear()
    assert reference_verify(cert)
    assert len(squared) == 5


def test_the_golden_corpus_bundles_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus()
    bundles = sorted(tmp_path.glob("*.bundle"))
    assert len(bundles) >= 10
    for path in bundles:
        assert_agrees(parse_bundle(path.read_text()))


@pytest.mark.parametrize("name", ["deformation", "product", "roots", "twisted"])
def test_the_mutation_suites_agree(name):
    cert = mutation_suites()[name]
    assert assert_agrees(cert)
    rng = random.Random(888)
    failed = 0
    for meaningful_only in [True] * 100 + [False] * 25:
        bad, _ = _corrupt_certificate(cert, rng, meaningful_only)
        failed += not assert_agrees(bad)
    assert failed >= 99


@pytest.mark.parametrize("mutant", sorted(targeted_mutants(lemma2_certificate())))
def test_targeted_mutants_agree(mutant, monkeypatch):
    bad = targeted_mutants(lemma2_certificate())[mutant]
    squared = []
    square = kcert._curvature_verdict
    monkeypatch.setattr(kcert, "_curvature_verdict",
                        lambda c: squared.append(c) or square(c))
    got = verify(bad)
    # a negated isomorphism is still one: only that mutant passes, and only
    # there are the targets spared their squares
    assert bool(got) == (mutant == "slice isomorphism negated")
    assert len(squared) == (1 if got else len(bad.all_complexes()))
    assert_agrees(bad)


def test_a_target_whose_whole_complex_is_itself_a_target_is_squared(monkeypatch):
    # lemma2's certificate with its W also the target of a filtration move
    # one level up: that W is not squared, so nothing derives from it
    cert = lemma2_certificate()
    move = filtration_move(cert)
    w = move.complex
    n = w.module.total_rank
    top = FiltrationMove(Filtration(w, (tuple(range(n)),)), (w,),
                         (IsoPair(ParityMap.identity(w.module),
                                  ParityMap.identity(w.module)),))
    stacked = Certificate(cert.ring, cert.z, cert.claim,
                          [*cert.moves, (0, top)], cert.names)
    squared = []
    square = kcert._curvature_verdict
    monkeypatch.setattr(kcert, "_curvature_verdict",
                        lambda c: squared.append(cert.name_of(c)) or square(c))
    assert assert_agrees(stacked)
    assert sorted(squared[:5]) == sorted(cert.name_of(c) for c in cert.all_complexes())


def aliased(c: CurvedComplex, digest: str) -> CurvedComplex:
    """``c`` under another complex's digest, as a hash collision would give."""
    object.__setattr__(c, "_digest", digest)
    return c


def test_a_complex_under_a_target_digest_is_squared():
    cert = lemma2_certificate()
    target = filtration_move(cert).targets[1]
    alias = aliased(CurvedComplex(target.module, first_entry_plus(
        target.d, cert.ring.var("x")), target.curvature), target.digest())
    # the alias is listed first, so the curvature pass checks it, not the target
    bad = Certificate(cert.ring, cert.z, [(0, alias), *cert.claim],
                      cert.moves, cert.names)
    assert not assert_agrees(bad)


def test_a_move_on_a_complex_under_the_whole_digest_derives_nothing():
    cert = lemma2_certificate()
    move = filtration_move(cert)
    w, target = move.complex, move.targets[1]
    # an entry added inside slice 2 keeps the filtration; the target becomes
    # that new slice, so the move still passes, but its square is not W*id
    inside = set(move.filtration.slice_indices(2))
    i = next(i for i in sorted(inside) if any(j in inside for j, _ in w.d.rows[i]))
    j = next(j for j, _ in w.d.rows[i] if j in inside)
    entries = [list(row) for row in w.d.entries]
    entries[i][j] = entries[i][j] + cert.ring.var("x")
    w_bad = aliased(CurvedComplex(w.module, ParityMap(
        w.module, w.module, w.d.parity, entries), w.curvature), w.digest())
    _, d = graded_slice(w_bad, Filtration(w_bad, move.steps), 2)
    t_bad = CurvedComplex(target.module, ParityMap._from_rows(
        target.module, target.module, d.parity, d.rows), target.curvature)
    moved = with_move(swap(cert, target, t_bad), FiltrationMove(
        Filtration(w_bad, move.steps), (move.targets[0], t_bad, *move.targets[2:]),
        move.isos))
    assert moved.moves[0][1].replay()
    # the good W is listed first, so the curvature pass squares it, not w_bad
    bad = Certificate(cert.ring, cert.z, [(0, w), *moved.claim], moved.moves, cert.names)
    assert not assert_agrees(bad)
