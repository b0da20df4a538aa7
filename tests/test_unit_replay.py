"""Replay without unit matrices, against the product-based reference.

A slice isomorphism whose two maps are the unit matrix is checked by
comparing the two differentials entry by entry, and the homotopy identity
d.h + h.d = id takes the identity as a diagonal term.  Each is compared here
with the checks it replaces: three ``residual`` calls per isomorphism, and
``is_homotopy`` against an identity and a zero map.
"""

import pytest

from mfcert import kcert
from mfcert.complexes import (CurvedComplex, InvariantError,
                              curvature_check, graded_slice, is_homotopy)
from mfcert.constructions import (LambdaFamily, TwistFamily, _lambda_coefficients,
                                  lemma1_build, lemma2_build, remark_decompose)
from mfcert.generators import gen_lambda_family, gen_remark_family, gen_twist_family
from mfcert.kcert import FiltrationMove, HomotopyMove, IsoPair, _verify_iso
from mfcert.polynomials import LAMBDA, ContextError, PolyRing
from mfcert.scalars import cyclotomic_field, rationals
from mfcert.serialize import parse_bundle, write_bundle
from mfcert.supermod import EVEN, ODD, ParityMap, ShapeError, SuperModule, residual


def reference_iso(source, target, pair, kind):
    """The isomorphism check as three products: chain map, both inverses."""
    fwd, bwd = pair.forward, pair.inverse
    if fwd.parity != EVEN or bwd.parity != EVEN:
        return kcert.Verdict(False, kind, message="isomorphisms must be even")
    if fwd.source != source.module or fwd.target != target.module:
        return kcert.Verdict(False, kind, message="forward map has the wrong shape")
    if bwd.source != target.module or bwd.target != source.module:
        return kcert.Verdict(False, kind, message="inverse map has the wrong shape")
    if source.curvature != target.curvature:
        return kcert.Verdict(False, kind, message="curvature mismatch")
    if residual([(1, fwd, source.d), (-1, target.d, fwd)]) is not None:
        return kcert.Verdict(False, kind, message="forward map is not a chain map")
    one = source.module.ring.one
    if residual([(1, fwd, bwd)], diagonal=(target.module, one)) is not None:
        return kcert.Verdict(False, kind, message="forward . inverse is not the identity")
    if residual([(1, bwd, fwd)], diagonal=(source.module, one)) is not None:
        return kcert.Verdict(False, kind, message="inverse . forward is not the identity")
    return kcert.Verdict(True, kind)


@pytest.fixture
def residual_calls(monkeypatch):
    """The number of ``residual`` calls the replay makes, as a one-item list."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return residual(*args, **kwargs)

    monkeypatch.setattr(kcert, "residual", counted)
    return calls


def certificates():
    """Generated lemma1, remark and lemma2 certificates, each in memory and
    parsed back from its bundle."""
    out = []
    for r, size, seed, field in [(2, 1, 5, None), (3, 2, 21, None), (5, 3, 2, None),
                                 (3, 2, 7, cyclotomic_field(3))]:
        inst = gen_lambda_family(r, size, seed, field)
        out.append(lemma1_build(LambdaFamily.from_map(inst.module, inst.d_lambda,
                                                      inst.r)).certificate)
    for size, seed, field in [(2, 1, None), (3, 5, cyclotomic_field(3))]:
        inst = gen_remark_family(size, seed, field)
        out.append(remark_decompose(inst.module, inst.d_lambda, inst.target,
                                    list(inst.roots)).certificate)
    for r, size, seed in [(2, 2, 9), (3, 1, 4)]:
        inst = gen_twist_family(r, size, seed)
        out.append(lemma2_build(TwistFamily(inst.module, inst.d,
                                            inst.functions)).certificate)
    return out + [parse_bundle(write_bundle(cert)) for cert in out]


def slices(move):
    """``(graded slice, target, pair)`` of each step, as the replay builds them."""
    filt = move.filtration
    curvature = move.complex.curvature
    for j, (target, pair) in enumerate(zip(move.targets, move.isos), start=1):
        sub, d = graded_slice(move.complex, filt, j)
        yield CurvedComplex(sub, d, curvature if sub.total_rank else curvature.ring.zero), \
            target, pair


def filtration_moves(cert):
    return [m for _, m in cert.moves if isinstance(m, FiltrationMove)]


CERTS = certificates()
# those with a slice of even rank 2 or more, for an off-diagonal even entry
WIDE = [c for c in CERTS if any(gr.module.even_rank >= 2 for m in filtration_moves(c)
                                for gr, _, _ in slices(m))]


@pytest.mark.parametrize("cert", CERTS)
def test_unit_slice_isomorphisms_match_the_product_reference(cert, residual_calls):
    moves = filtration_moves(cert)
    assert moves
    for move in moves:
        for gr, target, pair in slices(move):
            got = _verify_iso(gr, target, pair, "gr")
            assert got == reference_iso(gr, target, pair, "gr") and got
        assert move.replay()
    assert residual_calls[0] == 0   # every builder's isomorphism is the unit matrix


def _altered(target: CurvedComplex, x) -> CurvedComplex:
    """``target`` with x added to the entry (first odd row, first column),
    its recorded curvature kept."""
    i = target.module.even_rank
    rows = [list(row) for row in target.d.entries]
    rows[i][0] = rows[i][0] + x
    return CurvedComplex(target.module, ParityMap(target.module, target.module, ODD, rows),
                         target.curvature)


@pytest.mark.parametrize("cert", CERTS)
def test_a_target_off_by_one_entry_is_no_chain_map(cert, residual_calls):
    move = filtration_moves(cert)[0]
    gr, target, pair = next(slices(move))
    bad = _altered(target, cert.ring.var("x"))
    got = _verify_iso(gr, bad, pair, "gr")
    assert got == reference_iso(gr, bad, pair, "gr")
    assert got.describe() == "gr: FAIL forward map is not a chain map"
    assert residual_calls[0] == 0


def _with_entry(m: ParityMap, i: int, j: int, value) -> ParityMap:
    rows = [list(row) for row in m.entries]
    rows[i][j] = value
    return ParityMap(m.source, m.target, m.parity, rows)


def _near_units(gr, target):
    """Isomorphism pairs that are the unit matrix but for one detail."""
    ring = gr.module.ring
    unit = [((i, ring.one),) for i in range(gr.module.total_rank)]
    fwd = ParityMap._from_rows(gr.module, target.module, EVEN, unit)
    bwd = ParityMap._from_rows(target.module, gr.module, EVEN, unit)
    yield IsoPair(_with_entry(fwd, 0, 0, ring.const(2)), bwd)    # a diagonal 2
    yield IsoPair(fwd, _with_entry(bwd, 0, 0, ring.const(2)))
    # one extra off-diagonal entry, inside the even block
    yield IsoPair(_with_entry(fwd, 1, 0, ring.var("x")), bwd)
    yield IsoPair(fwd, _with_entry(bwd, 1, 0, ring.one))


@pytest.mark.parametrize("cert", WIDE)
def test_near_unit_isomorphisms_fall_back_to_the_products(cert, residual_calls):
    move = filtration_moves(cert)[0]
    gr, target, _ = next(s for s in slices(move) if s[0].module.even_rank >= 2)
    for pair in _near_units(gr, target):
        before = residual_calls[0]
        got = _verify_iso(gr, target, pair, "gr")
        assert residual_calls[0] > before
        assert got == reference_iso(gr, target, pair, "gr")
        assert not got


def test_unequal_even_ranks_fall_back(residual_calls):
    ring = PolyRing(rationals(), ("x", "y"))
    one, z = ring.one, ring.zero
    a, b = SuperModule.free(ring, 2, 0), SuperModule.free(ring, 1, 1, "t")
    # unit-shaped rows between modules whose even ranks differ; only the
    # trusted constructor builds such maps
    fwd = ParityMap._from_rows(a, b, EVEN, (((0, one),), ((1, one),)))
    bwd = ParityMap._from_rows(b, a, EVEN, (((0, one),), ((1, one),)))
    source = CurvedComplex(a, ParityMap.zero(a, a, ODD), z)
    target = CurvedComplex(b, ParityMap.zero(b, b, ODD), z)
    got = _verify_iso(source, target, IsoPair(fwd, bwd), "iso")
    assert residual_calls[0] > 0
    assert got == reference_iso(source, target, IsoPair(fwd, bwd), "iso")


def test_differentials_off_one_frame_fall_back(residual_calls):
    ring = PolyRing(rationals(), ("x", "y"))
    v, w = SuperModule.free(ring, 1, 1), SuperModule.free(ring, 1, 1, "w")
    unit = IsoPair(ParityMap.identity(v), ParityMap.identity(v))
    source = CurvedComplex(v, ParityMap.zero(v, v, ODD), ring.zero)
    # an even differential: the products do not share a frame
    even = CurvedComplex(v, ParityMap.zero(v, v, EVEN), ring.zero)
    got = _verify_iso(source, even, unit, "iso")
    assert residual_calls[0] == 1
    assert got == reference_iso(source, even, unit, "iso")
    assert got.describe() == "iso: FAIL forward map is not a chain map"
    # a differential on another module: the products do not compose
    stray = CurvedComplex(v, ParityMap.zero(w, w, ODD), ring.zero)
    for check in (_verify_iso, reference_iso):
        for pair in ((source, stray), (stray, source)):
            with pytest.raises(ShapeError, match="cannot compose"):
                check(*pair, unit, "iso")


def _listed(m: ParityMap) -> ParityMap:
    """``m`` with every row stored as a list instead of a tuple."""
    return ParityMap._from_rows(m.source, m.target, m.parity, [list(row) for row in m.rows])


@pytest.mark.parametrize("cert", CERTS)
def test_rows_stored_as_lists_or_tuples_read_alike(cert, residual_calls):
    move = filtration_moves(cert)[0]
    gr, target, pair = next(slices(move))
    bad = _altered(target, cert.ring.one)
    for t in (target, bad):
        want = reference_iso(gr, t, pair, "gr")
        listed_t = CurvedComplex(t.module, _listed(t.d), t.curvature)
        listed_gr = CurvedComplex(gr.module, _listed(gr.d), gr.curvature)
        listed_pair = IsoPair(_listed(pair.forward), _listed(pair.inverse))
        for s, tt, p in [(gr, listed_t, pair), (listed_gr, t, pair),
                         (gr, t, listed_pair), (listed_gr, listed_t, listed_pair)]:
            assert _verify_iso(s, tt, p, "gr") == want
    assert residual_calls[0] == 0


# -- the homotopy identity ---------------------------------------------------

def _homotopy_move():
    inst = gen_lambda_family(3, 2, 21)
    cert = lemma1_build(LambdaFamily.from_map(inst.module, inst.d_lambda,
                                              inst.r)).certificate
    return next(m for _, m in cert.moves if isinstance(m, HomotopyMove))


def _reference_homotopy(move):
    c = move.complex
    return is_homotopy(c, c, move.h, ParityMap.identity(c.module),
                       ParityMap.zero(c.module, c.module, EVEN))


def test_a_correct_witness_passes_as_is_homotopy_says():
    move = _homotopy_move()
    assert move.replay() == _reference_homotopy(move)
    assert move.replay().describe() == "homotopy: pass"


def test_a_witness_off_at_one_entry_fails_there_as_is_homotopy_says():
    move = _homotopy_move()
    x = move.complex.module.ring.var("x")
    for i, j in [(i, j) for i, row in enumerate(move.h.rows) for j, _ in row][:3]:
        bad = HomotopyMove(move.complex, _with_entry(move.h, i, j, move.h.entries[i][j] + x))
        got = bad.replay()
        assert got == _reference_homotopy(bad)
        assert not got and got.location is not None and got.residual is not None


def test_a_witness_on_a_misframed_complex_raises_as_is_homotopy_does():
    ring = PolyRing(rationals(), ("x", "y"))
    u, v = SuperModule.free(ring, 1, 1), SuperModule(ring, ("a",), ("b",))
    x, y = ring.var("x"), ring.var("y")
    dv = ParityMap(v, v, ODD, [[ring.zero, x], [y, ring.zero]])
    # the recorded module differs from the frame of d and of the witness
    stray = CurvedComplex(u, dv, curvature_check(v, dv).curvature)
    move = HomotopyMove(stray, ParityMap.zero(v, v, ODD))
    for check in (move.replay, lambda: _reference_homotopy(move)):
        with pytest.raises(ShapeError, match="equal shape and parity"):
            check()


# -- splitting a lambda-family ------------------------------------------------

def reference_coefficients(m: ParityMap, limit: int):
    """A degree check of every entry, then one ``coefficient_in`` pass per degree."""
    for p in (p for row in m.rows for _, p in row):
        if p.degree_in(LAMBDA) >= limit:
            raise InvariantError(
                f"entry {p} has lambda-degree {p.degree_in(LAMBDA)} >= {limit}")
    return [m.entrywise(lambda p, k=k: p.coefficient_in(LAMBDA, k)) for k in range(limit)]


@pytest.mark.parametrize("r,size,seed", [(2, 1, 5), (3, 2, 21), (5, 8, 1), (4, 4, 3)])
def test_lambda_split_matches_one_pass_per_degree(r, size, seed):
    inst = gen_lambda_family(r, size, seed)
    got = _lambda_coefficients(inst.d_lambda, r)
    assert got == reference_coefficients(inst.d_lambda, r)
    assert all(isinstance(row, tuple) for m in got for row in m.rows)
    fam = LambdaFamily.from_map(inst.module, inst.d_lambda, r)
    assert fam == LambdaFamily(inst.module, tuple(got), r)
    lam = inst.module.ring.var(LAMBDA)
    total = ParityMap.zero(inst.module, inst.module, ODD)
    for k, m in enumerate(fam.coefficients):
        total = total + m.scale(lam ** k)
    assert total == inst.d_lambda


def test_from_map_refuses_with_the_fixed_messages():
    """The refusals and their order, as they read before the one-pass split."""
    ring = PolyRing(rationals(), ("x", "y", "lambda"))
    v, w = SuperModule.free(ring, 1, 1), SuperModule.free(ring, 2, 2)
    z, lam, x = ring.zero, ring.var("lambda"), ring.var("x")
    no_lambda = PolyRing(rationals(), ("x", "y"))
    u = SuperModule.free(no_lambda, 1, 1)
    cases = [
        (v, ParityMap(v, v, ODD, [[z, lam ** 2 + x], [lam ** 3, z]]), 2,
         InvariantError, "entry lambda^2 + x has lambda-degree 2 >= 2"),
        (v, ParityMap(v, v, ODD, [[z, lam ** 2], [lam, z]]), 1,       # degree first
         InvariantError, "entry lambda^2 has lambda-degree 2 >= 1"),
        (v, ParityMap(v, v, ODD, [[z, lam], [lam + x, z]]), 2,
         InvariantError, "family square is not lambda^r * id"),
        (v, ParityMap.zero(v, v, ODD), 1, InvariantError, "need r >= 2, got 1"),
        (v, ParityMap.zero(v, v, ODD), 0, InvariantError, "need r >= 2, got 0"),
        (v, ParityMap(v, v, EVEN, [[lam, z], [z, lam]]), 2,
         InvariantError, "coefficient 0 is not an odd endomorphism"),
        (w, ParityMap.zero(v, v, ODD), 2,
         InvariantError, "coefficient 0 is not an odd endomorphism"),
        (u, ParityMap.zero(u, u, ODD), 2,
         ContextError, "ring Q[x, y] must contain the variable 'lambda'"),
    ]
    for module, d, r, kind, message in cases:
        with pytest.raises(Exception) as got:
            LambdaFamily.from_map(module, d, r)
        assert type(got.value) is kind
        assert str(got.value) == message
