"""The residual kernel against the dense reference in ``reference.py``.

``supermod.residual`` returns the first nonzero entry of a signed sum of
products and maps minus c * id.  The reference builds every product and the
whole sum densely in its own ``Fraction`` polynomials and takes its first
nonzero entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert.complexes import (ChainMap, CurvatureError, CurvedComplex, InvariantError,
                              SupportLocus, curvature_check, is_chain_map, is_homotopy)
from mfcert.constructions import remark_decompose
from mfcert.kcert import Certificate, IsoMove, IsoPair, verify
from mfcert.polynomials import PolyRing
from mfcert.scalars import rationals
from mfcert.supermod import (EVEN, FRAME_MISMATCH, ODD, ParityMap, ShapeError,
                             SuperModule, residual, scalar_square)
from reference import (dense_add, dense_compose, dense_neg, dense_scalar,
                       first_nonzero, ref, ref_found)
from test_sparse_maps import RINGS, _as_lists, _dense, _module, _poly

# Extra denominators, one per term, so that the terms' lcm exceeds each one.
TERM_SCALES = (Fraction(1), Fraction(1, 5), Fraction(-2, 7), Fraction(3, 10))


@st.composite
def _sums(draw):
    """Terms of sum s*A*B + sum s*M - c*id with one frame source -> target."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    source = _module(draw, ring)
    endo = draw(st.booleans())
    target = source if endo else _module(draw, ring)
    parity = EVEN if endo and draw(st.booleans()) else draw(st.integers(0, 1))
    products, maps = [], []
    for _ in range(draw(st.integers(0, 3))):
        inner = _module(draw, ring)
        pa = draw(st.integers(0, 1))
        pb = (parity - pa) % 2
        a = ParityMap(inner, target, pa, _dense(draw, ring, inner, target, pa))
        b = ParityMap(source, inner, pb, _dense(draw, ring, source, inner, pb))
        a = a.scale(draw(st.sampled_from(TERM_SCALES)))
        products.append((draw(st.sampled_from((1, -1))), a, b))
    for _ in range(draw(st.integers(0, 2))):
        m = ParityMap(source, target, parity, _dense(draw, ring, source, target, parity))
        maps.append((draw(st.sampled_from((1, -1))), m.scale(draw(st.sampled_from(TERM_SCALES)))))
    # exact cancellation: repeat a term with the opposite sign
    if products and draw(st.booleans()):
        s, a, b = draw(st.sampled_from(products))
        products.append((-s, a, b))
    if maps and draw(st.booleans()):
        s, m = draw(st.sampled_from(maps))
        maps.append((-s, m))
    diagonal = None
    if endo and parity == EVEN and draw(st.booleans()):
        diagonal = (source, _poly(draw, ring) * ring.const(draw(st.sampled_from(TERM_SCALES))))
    return ring, source, target, products, maps, diagonal


def _reference(ring, source, target, products, maps, diagonal):
    total = [[{}] * source.total_rank for _ in range(target.total_rank)]
    for s, a, b in products:
        term = dense_compose(_as_lists(a), _as_lists(b), source.total_rank,
                             ring.field.modulus)
        total = dense_add(total, term if s > 0 else dense_neg(term))
    for s, m in maps:
        total = dense_add(total, _as_lists(m) if s > 0 else dense_neg(_as_lists(m)))
    if diagonal is not None:
        _, c = diagonal
        total = dense_add(total, dense_neg(dense_scalar(ref(c), source.total_rank)))
    return first_nonzero(total)


@settings(max_examples=300, deadline=None)
@given(_sums())
def test_residual_matches_dense_reference(case):
    ring, source, target, products, maps, diagonal = case
    want = _reference(*case)
    assert ref_found(residual(products, maps, diagonal)) == want
    if want is None and (products or maps):
        # the sum is c * id: the kernel agrees whichever term comes first
        assert residual(products[::-1], maps[::-1], diagonal) is None


@st.composite
def _odd_endomorphisms(draw):
    """Odd endomorphisms, often with scalar square p*q*id, one entry sometimes changed."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    if draw(st.booleans()):
        v = _module(draw, ring)
        return ring, ParityMap(v, v, ODD, _dense(draw, ring, v, v, ODD))
    k = draw(st.integers(0, 3))
    v = SuperModule.free(ring, k, k)
    rows = [[ring.zero] * (2 * k) for _ in range(2 * k)]
    p, q = _poly(draw, ring), _poly(draw, ring)
    for i in range(k):
        rows[i][k + i] = p
        rows[k + i][i] = q
    if k and draw(st.booleans()):
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        i, j = (a, k + b) if draw(st.booleans()) else (k + a, b)
        rows[i][j] = rows[i][j] + _poly(draw, ring)
    return ring, ParityMap(v, v, ODD, rows)


@settings(max_examples=200, deadline=None)
@given(_odd_endomorphisms())
def test_scalar_square_matches_dense_reference(case):
    ring, d = case
    n = d.source.total_rank
    sq = dense_compose(_as_lists(d), _as_lists(d), n, ring.field.modulus)
    c = sq[0][0] if n else {}
    got_c, found = scalar_square(d)
    assert (ref(got_c), ref_found(found)) == \
        (c, first_nonzero(dense_add(sq, dense_neg(dense_scalar(c, n)))))


def test_products_that_do_not_compose_raise():
    ring = RINGS[3]
    u, v = SuperModule.free(ring, 1, 1), SuperModule.free(ring, 2, 1)
    a = ParityMap.identity(u)
    b = ParityMap.zero(u, v, EVEN)
    with pytest.raises(ShapeError, match="cannot compose"):
        residual([(1, a, b)])
    with pytest.raises(ShapeError, match="cannot compose"):   # before any frame is compared
        residual([(1, a, a), (1, a, b)], diagonal=(v, ring.one))


def test_terms_on_different_frames_are_a_mismatch():
    ring = RINGS[4]
    u, v = SuperModule.free(ring, 1, 1), SuperModule.free(ring, 2, 1)
    ident = ParityMap.identity(u)
    odd = ParityMap.zero(u, u, ODD)
    assert residual([(1, ident, ident)], diagonal=(u, ring.one)) is None
    assert residual([(1, ident, ident)], diagonal=(v, ring.one)) is FRAME_MISMATCH
    assert residual([(1, ident, ident)], [(1, odd)]) is FRAME_MISMATCH
    assert residual(maps=[(1, ident), (-1, ParityMap.zero(u, v, EVEN))]) is FRAME_MISMATCH
    assert residual(maps=[(1, odd)], diagonal=(u, ring.zero)) is FRAME_MISMATCH
    assert residual() is None


def test_empty_module():
    ring = RINGS[5]
    e = SuperModule.free(ring, 0, 0)
    d = ParityMap.zero(e, e, ODD)
    assert residual([(1, d, d)], diagonal=(e, ring.parse("x + zeta"))) is None
    assert scalar_square(d) == (ring.zero, None)
    assert curvature_check(e, d).curvature == ring.zero


# The checks below keep what the parent arithmetic did on mismatched frames:
# where map addition raised ShapeError it is still raised, and where two maps
# were compared with == the check fails as a verdict.

def _two_modules():
    ring = RINGS[1]
    u = SuperModule.free(ring, 1, 1)
    v = SuperModule(ring, ("a",), ("b",))
    x, y = ring.var("x"), ring.var("y")
    du = ParityMap(u, u, ODD, [[ring.zero, x], [y, ring.zero]])
    dv = ParityMap(v, v, ODD, [[ring.zero, x], [y, ring.zero]])
    return ring, u, v, du, dv


def test_homotopy_with_a_misframed_side_raises():
    ring, u, v, du, _ = _two_modules()
    c = curvature_check(u, du)
    h = ParityMap.zero(u, u, ODD)
    with pytest.raises(ShapeError):
        is_homotopy(c, c, h, ParityMap.identity(u), ParityMap.zero(u, u, ODD))


def test_chain_map_with_a_misframed_differential_raises():
    ring, u, v, du, dv = _two_modules()
    cu = curvature_check(u, du)
    # the recorded module of the source differs from the frame of its d
    stray = CurvedComplex(u, ParityMap(v, u, ODD, [[ring.zero, ring.var("x")],
                                                   [ring.var("y"), ring.zero]]),
                          cu.curvature)
    ident = ParityMap.identity(u)
    with pytest.raises(ShapeError):
        is_chain_map(ChainMap(stray, cu, ident))


def test_recorded_curvature_on_a_misframed_complex_fails():
    ring, u, v, du, dv = _two_modules()
    stray = CurvedComplex(u, dv, ring.parse("x*y"))   # d acts on v, not u
    move = IsoMove(stray, stray, IsoPair(ParityMap.identity(u), ParityMap.identity(u)))
    cert = Certificate(ring, SupportLocus(), claim=[], moves=[(1, move)])
    verdict = verify(cert)
    assert not verdict and "does not have its recorded curvature" in verdict.message


def test_misframed_family_square_is_an_invariant_error():
    ring = PolyRing(rationals(), ("x", "lambda"))
    u = SuperModule.free(ring, 1, 1)
    v = SuperModule(ring, ("a",), ("b",))
    lam = ring.var("lambda")
    d = ParityMap(v, v, ODD, [[ring.zero, lam], [lam, ring.zero]])   # d acts on v, not u
    with pytest.raises(InvariantError, match="family square"):
        remark_decompose(u, d, lam * lam - ring.one, [ring.one, -ring.one])


def test_curvature_errors_keep_entry_and_value():
    ring = RINGS[3]
    v = SuperModule.free(ring, 2, 2)
    x, z = ring.var("x"), ring.const(ring.field.zeta)
    zero = ring.zero
    rows = [[zero, zero, x, zero], [zero, zero, zero, x],
            [x, zero, zero, zero], [zero, z * x, zero, zero]]
    with pytest.raises(CurvatureError) as err:
        curvature_check(v, ParityMap(v, v, ODD, rows))
    assert err.value.entry == (1, 1)
    assert err.value.value == z * x * x
    assert "diagonal entry (1,1) is" in str(err.value)
    rows[0][3] = ring.one
    with pytest.raises(CurvatureError) as err:
        curvature_check(v, ParityMap(v, v, ODD, rows))
    assert err.value.entry == (0, 1)
    assert err.value.value == z * x
    assert "off-diagonal entry (0,1)" in str(err.value)
