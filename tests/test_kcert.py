"""Certificate replay: soundness, localization, composition, serialization."""

import random

import pytest

from mfcert.complexes import CurvedComplex, SupportLocus, curvature_check
from mfcert.constructions import (LambdaFamily, TwistFamily, compose_certs,
                                  lemma1_build, lemma2_build)
from mfcert.generators import gen_lambda_family, gen_twist_family
from mfcert.kcert import (Certificate, FiltrationMove, HomotopyMove, IsoMove, IsoPair,
                          verify)
from mfcert.polynomials import PolyRing
from mfcert.scalars import rationals
from mfcert.serialize import parse_bundle, write_bundle
from mfcert.supermod import EVEN, ODD, ParityMap, ShapeError, SuperModule

RING = PolyRing(rationals(), ("x", "y", "lambda"))


def small_complex():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("-y")], [RING.parse("x"), z]])
    return curvature_check(v, d)


def flat_complex():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, z], [RING.parse("x"), z]])
    return curvature_check(v, d)


def moves_of(v):
    """The move verdicts of a replay: the children between the curvature
    pass and the ledger, none when the curvature pass stopped the replay."""
    return v.children[1:-1]


def ledger_of(v):
    """The ledger verdict of a replay that reached it."""
    assert v.children[-1].kind == "ledger"
    return v.children[-1]


def test_trivial_iso_certificate():
    c = flat_complex()
    move = IsoMove(c, c, IsoPair(ParityMap.identity(c.module),
                                 ParityMap.identity(c.module)))
    cert = Certificate(RING, SupportLocus(),
                       claim=[(1, c), (-1, c)], moves=[(1, move)])
    v = verify(cert)
    assert v and ledger_of(v)
    # an unsupported claim does not reduce
    cert2 = Certificate(RING, SupportLocus(), claim=[(1, c)],
                        moves=[(1, move)])
    assert not verify(cert2)


def test_lemma1_certificate_roundtrip_and_names():
    inst = gen_lambda_family(3, 2, 21)
    fam = LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
    res = lemma1_build(fam)
    v = verify(res.certificate)
    assert v
    assert res.certificate.assumed_exact() == ["V.d0"]
    text = write_bundle(res.certificate)
    again = parse_bundle(text)
    assert verify(again)
    assert write_bundle(again) == text


def test_ledger_failure_reports_leftovers():
    inst = gen_lambda_family(2, 1, 5)
    fam = LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
    res = lemma1_build(fam)
    cert = res.certificate
    bad = Certificate(cert.ring, cert.z,
                      [(coeff + 1, c) for coeff, c in cert.claim],
                      cert.moves, cert.names)
    v = verify(bad)
    assert not v and not ledger_of(v)
    assert "unreduced" in v.message


def _corrupt_map(m: ParityMap, rng: random.Random) -> ParityMap:
    slots = [(i, j) for i in range(m.target.total_rank)
             for j in range(m.source.total_rank)
             if (m.target.parity(i) - m.source.parity(j)) % 2 == m.parity]
    i, j = rng.choice(slots)
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] + 1
    return ParityMap(m.source, m.target, m.parity, entries)


def corrupt_one_move(cert: Certificate, rng: random.Random) -> tuple[Certificate, int]:
    idx = rng.randrange(len(cert.moves))
    coeff, move = cert.moves[idx]
    if isinstance(move, HomotopyMove):
        new_move = HomotopyMove(move.complex, _corrupt_map(move.h, rng))
    elif isinstance(move, FiltrationMove):
        j = rng.randrange(len(move.isos))
        pairs = list(move.isos)
        pairs[j] = IsoPair(_corrupt_map(pairs[j].forward, rng), pairs[j].inverse)
        new_move = FiltrationMove(move.complex, move.steps, move.targets, pairs)
    else:
        new_move = IsoMove(move.source, move.target,
                           IsoPair(_corrupt_map(move.iso.forward, rng),
                                   move.iso.inverse))
    moves = list(cert.moves)
    moves[idx] = (coeff, new_move)
    return Certificate(cert.ring, cert.z, cert.claim, moves, cert.names), idx


def test_corruption_flips_verdict_and_localizes():
    inst = gen_twist_family(2, 2, 9)
    fam = TwistFamily(inst.module, inst.d, inst.functions)
    res = lemma2_build(fam)
    rng = random.Random(1)
    for _ in range(25):
        bad, idx = corrupt_one_move(res.certificate, rng)
        v = verify(bad)
        assert not v
        failing = [i for i, mv in enumerate(moves_of(v)) if not mv]
        assert failing == [idx]


def test_compose_with_empty_certificate():
    inst = gen_twist_family(2, 1, 9)
    fam = TwistFamily(inst.module, inst.d, inst.functions)
    res = lemma2_build(fam)
    empty = Certificate(res.certificate.ring, res.certificate.z, [], [])
    combined = compose_certs(res.certificate, empty)
    assert combined.claim == res.certificate.claim
    assert len(combined.moves) == len(res.certificate.moves)
    assert verify(combined)


def test_compose_cancels_claims():
    c = small_complex()
    plus = Certificate(RING, SupportLocus(), [(1, c)], [])
    minus = Certificate(RING, SupportLocus(), [(-1, c)], [])
    combined = compose_certs(plus, minus)
    assert combined.claim == []
    assert verify(combined)


def test_compose_locus_mismatch():
    c = small_complex()
    a = Certificate(RING, SupportLocus(), [(1, c), (-1, c)], [])
    b = Certificate(RING, SupportLocus((RING.parse("x"),)),
                    [(1, c), (-1, c)], [])
    with pytest.raises(ShapeError):
        compose_certs(a, b)


def test_partial_first_step_is_rejected():
    # [C] = sum of slices is only a relation when the slices partition C
    inst = gen_lambda_family(2, 1, 5)
    fam = LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
    res = lemma1_build(fam)
    cert = res.certificate
    fmove_idx, (coeff, fmove) = next(
        (i, m) for i, m in enumerate(cert.moves)
        if isinstance(m[1], FiltrationMove))
    truncated = FiltrationMove(fmove.complex, fmove.steps[1:],
                               fmove.targets[1:], fmove.isos[1:])
    moves = list(cert.moves)
    moves[fmove_idx] = (coeff, truncated)
    bad = Certificate(cert.ring, cert.z, cert.claim, moves, cert.names)
    v = verify(bad)
    assert not v
    assert any("span" in mv.message for mv in moves_of(v) if not mv)


def test_curved_claim_terms_are_rejected():
    c = small_complex()   # curvature -x*y, not a complex
    cert = Certificate(RING, SupportLocus(), [(1, c), (-1, c)], [])
    v = verify(cert)
    assert not v and "curved" in v.message


def test_recorded_curvature_is_rechecked():
    c = small_complex()
    lying = CurvedComplex(c.module, c.d, RING.zero)
    cert = Certificate(RING, SupportLocus(),
                       claim=[(1, lying), (-1, lying)], moves=[])
    v = verify(cert)
    assert not v and "curvature" in v.message


def test_cyclotomic_bundle_file_roundtrip(tmp_path):
    # zeta-coefficient matrices survive the trip to disk and back
    from mfcert.scalars import cyclotomic_field
    from mfcert.constructions import RamondData, s_xi_reduce
    ring = PolyRing(cyclotomic_field(3), ("xh1", "lambda"))
    one = ring.one
    data = RamondData(ring, 3, ("xh1",), 1,
                      ((one,),), {(2,): (ring.parse("-1 + 2^3"),)},
                      (one,), (ring.parse("2"),))
    res = s_xi_reduce(data)
    text = write_bundle(res.certificate)
    assert "zeta" in text
    path = tmp_path / "cyc-bundle.txt"
    path.write_text(text)
    again = parse_bundle(path.read_text())
    assert verify(again)
    assert write_bundle(again) == text


def test_homotopy_move_must_be_odd():
    c = small_complex()
    move = HomotopyMove(c, c.d)
    assert move.replay().kind == "homotopy"
    even = ParityMap.identity(c.module)
    bad = HomotopyMove(c, even)
    assert not bad.replay()


def _lemma1_certificate():
    inst = gen_lambda_family(2, 1, 5)
    return lemma1_build(LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)).certificate


def test_malformed_move_data_fails_the_replay():
    # a homotopy witness on the wrong module raises ShapeError inside replay
    cert = _lemma1_certificate()
    c = next(m.complex for _, m in cert.moves if isinstance(m, HomotopyMove))
    wrong = SuperModule.free(RING, c.module.even_rank + 1, c.module.odd_rank)
    moves = [(1, HomotopyMove(c, ParityMap.zero(wrong, wrong, ODD)))]
    v = verify(Certificate(cert.ring, cert.z, [], moves, {}))
    assert not v
    assert "malformed move data" in moves_of(v)[0].message


def test_engine_errors_in_replay_propagate(monkeypatch):
    # only the declared error types read as bad input; a bug is not a FAIL verdict
    cert = _lemma1_certificate()

    def broken(self):
        raise TypeError("engine bug")

    monkeypatch.setattr(HomotopyMove, "replay", broken)
    with pytest.raises(TypeError, match="engine bug"):
        verify(cert)


def test_bundle_filtration_errors_are_narrowed(monkeypatch):
    from mfcert import serialize
    text = write_bundle(_lemma1_certificate())
    steps = next(line for line in text.splitlines() if line.startswith("steps"))
    with pytest.raises(serialize.FileFormatError, match="bad filtration steps"):
        parse_bundle(text.replace(steps, "steps 0 | 0 1"))   # not descending

    def broken(*args):
        raise TypeError("engine bug")

    monkeypatch.setattr(serialize, "Filtration", broken)
    with pytest.raises(TypeError, match="engine bug"):
        parse_bundle(text)


def test_altered_slice_target_fails_the_filtration_move():
    # the replay gives each graded slice the curvature of the whole complex
    # instead of squaring it; a target that differs from its slice in one
    # entry, with its own curvature intact, must still fail the move
    cert = _lemma1_certificate()
    coeff, move = cert.moves[0]
    assert isinstance(move, FiltrationMove)
    target = move.targets[0]
    rows = [list(row) for row in target.d.entries]
    rows[1][0] = rows[1][0] + cert.ring.var("x")
    altered = curvature_check(target.module,
                              ParityMap(target.module, target.module, ODD, rows))
    assert altered.curvature == target.curvature
    moves = [(coeff, FiltrationMove(move.complex, move.steps,
                                    [altered, *move.targets[1:]], move.isos)),
             *cert.moves[1:]]
    bundle = write_bundle(Certificate(cert.ring, cert.z, cert.claim, moves, {}))
    v = verify(parse_bundle(bundle))
    assert not v
    assert [r.describe() for r in moves_of(v)] == [
        "filtration-move gr1: FAIL forward map is not a chain map", "homotopy: pass"]


def test_replay_tree_has_the_curvature_pass_then_the_moves_then_the_ledger():
    cert = _lemma1_certificate()
    v = verify(cert)
    assert v and v.kind == "certificate"
    curvature, *moves, ledger = v.children
    assert curvature.kind == "curvature" and curvature
    assert len(curvature.children) == len(cert.all_complexes())
    assert all(c.kind == "curvature" and c for c in curvature.children)
    assert [m.kind for m in moves] == ["filtration-move", "homotopy"]
    assert ledger.kind == "ledger" and ledger


def test_a_stopped_replay_has_only_its_curvature_pass():
    c, flat = small_complex(), flat_complex()
    lying = CurvedComplex(c.module, c.d, RING.zero)   # d^2 = -x*y * id
    move = IsoMove(flat, flat, IsoPair(ParityMap.identity(flat.module),
                                       ParityMap.identity(flat.module)))
    for claim, message, passing in [
            ([(1, lying), (-1, flat)],
             "complex lying does not have its recorded curvature", [False, True]),
            ([(1, c), (-1, flat)],
             "claim term curved is curved, not a complex", [True, True])]:
        names = {lying.digest(): "lying", c.digest(): "curved"}
        v = verify(Certificate(RING, SupportLocus(), claim, [(1, move)], names))
        assert not v and v.kind == "certificate"
        (curvature,) = v.children
        assert curvature.kind == "curvature" and not curvature
        assert v.message == curvature.message == message
        assert [bool(k) for k in curvature.children] == passing


# Each rejection path of the replay, alone: the claim of each certificate
# below is its one move's relation, so the ledger balances and the move's
# own check is the only one that can fail.

def replay_one(move):
    """The verdict of ``move`` replayed by :func:`verify` in a certificate
    whose claim is the move's relation; the certificate must read FAIL."""
    by_digest = {c.digest(): c for c in move.involved()}
    claim = [(n, by_digest[d]) for d, n in move.relation().items() if n]
    v = verify(Certificate(RING, SupportLocus(), claim, [(1, move)]))
    assert ledger_of(v) and not v
    (mv,) = moves_of(v)
    return mv


def split_pair():
    """A flat complex C, the flat complex C + D, and the inclusion of C and
    the projection onto C: chain maps with proj . incl = id but not
    incl . proj = id."""
    c = flat_complex()
    v = SuperModule.free(RING, 2, 2)
    rows = [[RING.zero] * 4 for _ in range(4)]
    rows[2][0], rows[3][1] = RING.parse("x"), RING.parse("y")
    cd = curvature_check(v, ParityMap(v, v, ODD, rows))
    one, z = RING.one, RING.zero
    incl = ParityMap(c.module, v, EVEN, [[one, z], [z, z], [z, one], [z, z]])
    proj = ParityMap(v, c.module, EVEN, [[one, z, z, z], [z, z, one, z]])
    return c, cd, incl, proj


def test_a_split_inclusion_and_projection_are_no_isomorphism():
    c, cd, incl, proj = split_pair()
    assert replay_one(IsoMove(c, cd, IsoPair(incl, proj))).describe() == \
        "iso-move: FAIL forward . inverse is not the identity"
    assert replay_one(IsoMove(cd, c, IsoPair(proj, incl))).describe() == \
        "iso-move: FAIL inverse . forward is not the identity"


def test_an_iso_move_checks_parity_and_shapes():
    c, cd, incl, proj = split_pair()
    ident = ParityMap.identity(c.module)
    for move, message in [
            (IsoMove(c, c, IsoPair(c.d, c.d)), "isomorphisms must be even"),
            (IsoMove(c, cd, IsoPair(ident, proj)), "forward map has the wrong shape"),
            (IsoMove(c, cd, IsoPair(incl, ident)), "inverse map has the wrong shape")]:
        assert replay_one(move).describe() == f"iso-move: FAIL {message}"


def test_an_iso_pair_with_one_odd_map_fails_the_parity_check():
    # with an even forward map and an odd inverse (or the reverse) every
    # later check but the identity ones would pass
    c = flat_complex()
    ident = ParityMap.identity(c.module)
    for pair in (IsoPair(ident, c.d), IsoPair(c.d, ident)):
        assert replay_one(IsoMove(c, c, pair)).describe() == \
            "iso-move: FAIL isomorphisms must be even"


def test_an_iso_move_between_different_curvatures_fails():
    # a claim term must be flat, so two curved complexes are replayed directly
    c = small_complex()   # curvature -x*y
    v = c.module
    other = curvature_check(v, ParityMap(v, v, ODD, [[RING.zero, RING.parse("-x")],
                                                     [RING.parse("x"), RING.zero]]))
    ident = ParityMap.identity(v)
    assert other.curvature != c.curvature
    assert IsoMove(c, other, IsoPair(ident, ident)).replay().describe() == \
        "iso-move: FAIL curvature mismatch"


def test_an_even_homotopy_witness_fails_before_the_homotopy_check():
    c = flat_complex()
    move = HomotopyMove(c, ParityMap.identity(c.module))
    assert replay_one(move).describe() == "homotopy-move: FAIL witness must be odd"


def test_a_filtration_move_needs_one_target_and_one_iso_per_step():
    _, fmove = _lemma1_certificate().moves[0]
    assert isinstance(fmove, FiltrationMove) and len(fmove.steps) > 1
    cx, steps, targets, isos = fmove.complex, fmove.steps, fmove.targets, fmove.isos
    for short in (FiltrationMove(cx, steps, targets[:-1], isos[:-1]),
                  FiltrationMove(cx, steps, targets, isos[:-1])):
        assert replay_one(short).describe() == ("filtration-move: FAIL one target and "
                                                "one isomorphism per step required")


def test_a_filtration_move_whose_first_step_does_not_span_fails():
    _, fmove = _lemma1_certificate().moves[0]
    cx, steps = fmove.complex, fmove.steps
    for first in ((), steps[0][:-1]):
        partial = FiltrationMove(cx, (first, *steps[1:]), fmove.targets, fmove.isos)
        assert replay_one(partial).describe() == \
            "filtration-move: FAIL first filtration step must span the module"
    assert replay_one(FiltrationMove(cx, (), (), ())).describe() == \
        "filtration-move: FAIL first filtration step must span the module"


def test_a_filtration_move_whose_steps_are_no_filtration_fails_as_that_move():
    # the bundle reader refuses such steps before a move exists, so only a
    # move built in code reaches this check
    _, fmove = _lemma1_certificate().moves[0]
    n = fmove.complex.module.total_rank
    steps = (fmove.steps[0], (n,), *fmove.steps[2:])
    bad = replay_one(FiltrationMove(fmove.complex, steps, fmove.targets, fmove.isos))
    assert bad.describe() == f"filtration-move: FAIL filtration step ({n},) out of range"


def test_a_malformed_move_fails_a_certificate_whose_ledger_balances():
    cert = _lemma1_certificate()
    idx, c = next((i, m.complex) for i, (_, m) in enumerate(cert.moves)
                  if isinstance(m, HomotopyMove))
    wrong = SuperModule.free(RING, c.module.even_rank + 1, c.module.odd_rank)
    moves = list(cert.moves)
    moves[idx] = (moves[idx][0], HomotopyMove(c, ParityMap.zero(wrong, wrong, ODD)))
    v = verify(Certificate(cert.ring, cert.z, cert.claim, moves, cert.names))
    assert ledger_of(v) and not v
    bad = moves_of(v)[idx]
    assert bad.kind == "move" and not bad
    assert bad.message.startswith("malformed move data: ")
    assert all(m for i, m in enumerate(moves_of(v)) if i != idx)


def test_compose_ring_mismatch():
    c = flat_complex()
    a = Certificate(RING, SupportLocus(), [(1, c), (-1, c)], [])
    b = Certificate(PolyRing(rationals(), ("x", "y")), SupportLocus(), [], [])
    with pytest.raises(ShapeError, match="different rings"):
        compose_certs(a, b)
