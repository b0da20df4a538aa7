"""Sparse-row ParityMap kernels against the dense reference in ``reference.py``."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert.complexes import (CurvatureError, CurvedComplex, Filtration,
                              curvature_check, filtration_verify, graded_slice)
from mfcert.exactness import _IntegerBlock
from mfcert.polynomials import Poly, PolyRing, _SLOT_BITS
from mfcert.scalars import FieldError, Scalar, ScalarField, cyclotomic_field
from mfcert.supermod import (EVEN, ODD, ParityMap, ShapeError, SuperModule, assemble,
                             direct_sum_modules, residual, scalar_square)
from reference import (dense_add, dense_compose, dense_neg, dense_scale,
                       dense_shift, dense_transpose, first_nonzero, ref,
                       ref_found, refs)

# Q (also as order 2), fields whose products fold one or several times by
# Phi_r (orders 3, 4, 5, 8), and Q(zeta_6), whose Phi_6 = t^2 - t + 1 has a
# negative coefficient.
FIELDS = {r: cyclotomic_field(r) for r in (1, 2, 3, 4, 5, 6, 8)}
RINGS = {r: PolyRing(f, ("x", "y", "z")) for r, f in FIELDS.items()}
MONOMIALS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0), (0, 0, 1),
             (1, 1, 1), (0, 2, 1), (3, 0, 0)]


def _poly(draw, ring):
    """A sparse polynomial, zero about a third of the time."""
    field = ring.field
    component = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 6])))
    scalar = st.tuples(*[component] * field.degree).map(lambda cs: Scalar(field, cs))
    if draw(st.integers(0, 2)) == 0:
        return ring.zero
    support = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1, max_size=3, unique=True))
    return ring.poly({m: draw(scalar) for m in support})


def _module(draw, ring):
    return SuperModule.free(ring, draw(st.integers(0, 3)), draw(st.integers(0, 3)))


def _dense(draw, ring, source, target, parity):
    """Dense rows of a map of the given parity, with zero rows and columns forced."""
    rows = [[_poly(draw, ring)
             if (target.parity(i) + source.parity(j)) % 2 == parity else ring.zero
             for j in range(source.total_rank)] for i in range(target.total_rank)]
    for i in draw(st.sets(st.integers(0, max(target.total_rank - 1, 0)), max_size=2)):
        if i < len(rows):
            rows[i] = [ring.zero] * source.total_rank
    for j in draw(st.sets(st.integers(0, max(source.total_rank - 1, 0)), max_size=2)):
        for row in rows:
            if j < len(row):
                row[j] = ring.zero
    return rows


@st.composite
def _chains(draw):
    """A field, three modules A, B, C and dense maps g: A -> B and f: B -> C."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    a, b, c = (_module(draw, ring) for _ in range(3))
    pf, pg = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return ring, (a, b, c), (pf, _dense(draw, ring, b, c, pf)), (pg, _dense(draw, ring, a, b, pg))


def _check_rows(m):
    """Sparse invariants: one row per target basis vector, columns ascending, no zeros."""
    assert len(m.rows) == m.target.total_rank
    for row in m.rows:
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols))
        assert all(0 <= j < m.source.total_rank for j in cols)
        assert all(not p.is_zero() for _, p in row)


def _as_lists(m):
    """The dense matrix of a map in the reference form."""
    return refs(m.entries)


@settings(max_examples=200, deadline=None)
@given(_chains())
def test_sparse_kernels_match_dense_reference(case):
    ring, (a, b, c), (pf, df), (pg, dg) = case
    f, g = ParityMap(b, c, pf, df), ParityMap(a, b, pg, dg)
    assert f.entries == tuple(tuple(row) for row in df)   # perfbench reads this view
    modulus = ring.field.modulus
    fg = f.compose(g)
    _check_rows(fg)
    assert fg.parity == (pf + pg) % 2
    assert _as_lists(fg) == dense_compose(refs(df), refs(dg), a.total_rank, modulus)

    f2 = ParityMap(b, c, pf, _dense_like(df, ring))
    for got, want in ((f + f2, dense_add(refs(df), _as_lists(f2))),
                      (f - f2, dense_add(refs(df), dense_neg(_as_lists(f2)))),
                      (-f, dense_neg(refs(df)))):
        _check_rows(got)
        assert _as_lists(got) == want
    c_poly = ring.parse("x - 2*y + 1")
    for scale in (c_poly, ring.zero, 3, Fraction(-1, 2), ring.field.zeta):
        got = f.scale(scale)
        _check_rows(got)
        factor = scale if isinstance(scale, Poly) else ring.const(scale)
        assert _as_lists(got) == dense_scale(refs(df), ref(factor), modulus)
    t = f.transposed()
    _check_rows(t)
    assert (t.source, t.target) == (c, b)
    assert _as_lists(t) == dense_transpose(refs(df), b.total_rank)
    s = f.shifted()
    _check_rows(s)
    assert _as_lists(s) == dense_shift(refs(df), b, c)
    assert s.shifted() == f

    # cancellation: f + (-f), and a product whose terms cancel pairwise
    assert f + (-f) == ParityMap.zero(b, c, pf)
    assert (f - f).is_zero() and not any((f - f).rows)
    bb, embs = direct_sum_modules([b, b], ["s0.", "s1."])
    doubled = assemble(c, [list(range(c.total_rank))], bb, embs, pf, {(0, 0): f, (0, 1): f})
    stacked = assemble(bb, embs, a, [list(range(a.total_rank))], pg, {(0, 0): g, (1, 0): -g})
    cancelled = doubled.compose(stacked)
    assert cancelled == ParityMap.zero(a, c, (pf + pg) % 2)
    assert residual(maps=[(1, cancelled)]) is None
    assert ref_found(residual(maps=[(1, f)])) == first_nonzero(refs(df))


def _dense_like(rows, ring):
    """Another matrix on the same support: each nonzero entry minus x, dropped if it cancels."""
    x = ring.var("x")
    return [[p - x if not p.is_zero() else p for p in row] for row in rows]


@settings(max_examples=100, deadline=None)
@given(_chains(), st.data())
def test_parity_violating_dense_entry_raises(case, data):
    ring, (_, b, c), (pf, df), _ = case
    illegal = [(i, j) for i in range(c.total_rank) for j in range(b.total_rank)
               if (c.parity(i) + b.parity(j)) % 2 != pf]
    if not illegal:
        return
    i, j = data.draw(st.sampled_from(illegal))
    df[i][j] = ring.one
    with pytest.raises(ShapeError, match="violates parity"):
        ParityMap(b, c, pf, df)


@st.composite
def _endomorphisms(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    v = _module(draw, ring)
    return ring, v, _dense(draw, ring, v, v, ODD)


@settings(max_examples=150, deadline=None)
@given(_endomorphisms(), st.data())
def test_curvature_and_filtration_checks_match_dense_reference(case, data):
    ring, v, dd = case
    d = ParityMap(v, v, ODD, dd)
    sq = dense_compose(refs(dd), refs(dd), v.total_rank, ring.field.modulus)
    n = v.total_rank
    want = None
    for i in range(n):
        for j in range(n):
            if (i == j and sq[i][j] != sq[0][0]) or (i != j and sq[i][j]):
                want = want or ((i, j), sq[i][j])
    if want is None:
        assert ref(curvature_check(v, d).curvature) == (sq[0][0] if n else {})
    else:
        with pytest.raises(CurvatureError) as err:
            curvature_check(v, d)
        assert (err.value.entry, ref(err.value.value)) == want

    cx = CurvedComplex(v, d, ring.zero)
    steps, current = [], list(range(n))
    while current:
        steps.append(tuple(current))
        current = data.draw(st.lists(st.sampled_from(current), unique=True,
                                     min_size=min(1, len(current) - 1),
                                     max_size=len(current) - 1))
    filt = Filtration(cx, tuple(steps))
    verdict = filtration_verify(cx, filt)
    leak = None
    for j in range(1, len(steps) + 1):
        step = filt.step_set(j)
        for col in step:
            for row in range(n):
                if row not in step and not dd[row][col].is_zero():
                    leak = leak or (row, col)
    assert verdict.ok == (leak is None)
    assert verdict.location == leak
    for j in range(1, len(steps) + 1):
        sub, piece = graded_slice(cx, filt, j)
        _check_rows(piece)
        order = [i for i in filt.slice_indices(j) if v.parity(i) == EVEN] + \
                [i for i in filt.slice_indices(j) if v.parity(i) == ODD]
        assert _as_lists(piece) == [[ref(dd[r][s]) for s in order] for r in order]


@pytest.mark.parametrize("r", sorted(FIELDS))
def test_top_zeta_powers_fold_back(r):
    """zeta^(deg-1) * zeta^(deg-1) and a full coefficient vector squared."""
    ring = RINGS[r]
    field = ring.field
    deg = field.degree
    top = ring.const(field.zeta ** (deg - 1))
    full = ring.const(Scalar(field, tuple(Fraction(k + 1, 6) for k in range(deg))))
    x = ring.var("x")
    v = SuperModule.free(ring, 2, 0)
    dense = [[top * x, full], [full * x, top]]
    m = ParityMap(v, v, EVEN, dense)
    squared = m.compose(m)
    assert _as_lists(squared) == dense_compose(refs(dense), refs(dense), 2, field.modulus)
    assert squared.entries[1][1] == ring.const(field.zeta ** (2 * deg - 2)) + full * full * x


def test_product_cancelling_to_an_empty_row():
    ring = RINGS[6]
    u, v = SuperModule.free(ring, 1, 0), SuperModule.free(ring, 2, 0)
    zx = ring.parse("zeta*x")
    f = ParityMap(v, v, EVEN, [[ring.one, ring.one], [ring.one, ring.zero]])
    g = ParityMap(u, v, EVEN, [[zx], [-zx]])
    assert f.compose(g).rows == ((), ((0, zx),))


def test_exponent_at_the_slot_limit_raises():
    ring = RINGS[4]
    limit = 1 << (_SLOT_BITS - 1)
    v = SuperModule.free(ring, 1, 0)
    below = ParityMap(v, v, EVEN, [[ring.poly({(limit - 1, 0, 1): ring.field.zeta})]])
    square = below.compose(below)
    assert square.entries == ((ring.poly({(2 * limit - 2, 0, 2): -1}),),)
    at = ParityMap(v, v, EVEN, [[ring.poly({(0, limit, 0): 1})]])
    for left, right in ((at, below), (below, at), (square, below)):
        with pytest.raises(OverflowError, match="slot"):
            left.compose(right)
        with pytest.raises(OverflowError, match="slot"):
            residual(products=((1, left, right),))
    for m in (at, square):
        with pytest.raises(OverflowError, match="slot"):
            scalar_square(m)


def test_the_largest_key_sum_stays_in_its_column():
    """A product whose every slot reaches 2 (2^15 - 1) and whose zeta power
    reaches 2 deg - 2 lands in its own column, not in the next one."""
    ring = RINGS[8]
    field = ring.field
    top = (1 << (_SLOT_BITS - 1)) - 1
    big = ring.poly({(top, top, top): field.zeta ** (field.degree - 1)})
    u, v = SuperModule.free(ring, 1, 0), SuperModule.free(ring, 3, 0)
    left = [[big]]
    right = [[ring.var("y"), big, ring.parse("x + 1")]]     # column 1 next to column 2
    a, b = ParityMap(u, u, EVEN, left), ParityMap(v, u, EVEN, right)
    dense = dense_compose(refs(left), refs(right), 3, field.modulus)
    assert _as_lists(a.compose(b)) == dense
    assert a.compose(b).entries[0][1] == big * big
    z = ring.zero
    reported = []
    for kept in ([[z, z, z]], [[right[0][0], z, z]], [[right[0][0], big, z]], right):
        c = ParityMap(v, u, EVEN, kept)    # a * c cancels the columns of a * b it keeps
        expected = first_nonzero(dense_add(
            dense, dense_neg(dense_compose(refs(left), refs(kept), 3, field.modulus))))
        found = residual(((1, a, b), (-1, a, c)))
        assert ref_found(found) == expected
        reported.append(found and found[0])
    assert reported == [(0, 0), (0, 1), (0, 2), None]


def test_compose_on_a_cached_map_repeats():
    ring = RINGS[5]
    v = SuperModule.free(ring, 1, 1)
    z = ring.zero
    dd = [[z, ring.parse("zeta^3*x + 1/2")], [ring.parse("(1/3)*zeta^2*y - z"), z]]
    other = [[z, ring.parse("zeta*y")], [ring.parse("x^3"), z]]
    d, e = ParityMap(v, v, ODD, dd), ParityMap(v, v, ODD, other)
    first = d.compose(d)
    assert d.compose(d) == first
    modulus = ring.field.modulus
    assert _as_lists(first) == dense_compose(refs(dd), refs(dd), 2, modulus)
    assert _as_lists(d.compose(e)) == dense_compose(refs(dd), refs(other), 2, modulus)
    assert _as_lists(e.compose(d)) == dense_compose(refs(other), refs(dd), 2, modulus)


def test_non_integral_modulus_raises():
    field = ScalarField(5)
    field.modulus = tuple(c / 2 for c in field.modulus)
    ring = PolyRing(field, ("x",))
    v = SuperModule.free(ring, 1, 0)
    m = ParityMap(v, v, EVEN, [[ring.var("x")]])
    with pytest.raises(FieldError, match="not integral"):
        m.compose(m)
    with pytest.raises(FieldError, match="not integral"):
        _IntegerBlock(m.rows, 1, field, 1)


def test_cached_digest_is_sha256_of_canonical_text():
    ring = RINGS[3]
    v = SuperModule.free(ring, 1, 1)
    z = ring.zero
    d = ParityMap(v, v, ODD, [[z, ring.parse("zeta*x")], [ring.parse("y"), z]])
    cx = curvature_check(v, d)
    text = cx.canonical_text()
    assert text.splitlines()[3:] == ["; ".join(str(p) for p in row) for row in d.entries]
    expected = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert cx.digest() == expected
    assert cx.digest() == expected          # second call reads the cache
    assert cx == CurvedComplex(v, d, cx.curvature)   # the cache takes no part in ==


def _dense_canonical_text(cx):
    """The canonical text with every row written out cell by cell."""
    lines = ["even " + " ".join(cx.module.even_labels), "odd " + " ".join(cx.module.odd_labels),
             f"curvature {cx.curvature}"]
    return "\n".join(lines + ["; ".join(str(p) for p in row) for row in cx.d.entries])


# nonzero columns per row: rank 0 and 1, then leading, trailing and adjacent
# zeros, zeros between entries, an all-zero row and a row with no zero
@pytest.mark.parametrize("width,supports", [
    (0, []), (1, [[0]]), (1, [[]]),
    (7, [[6], [0], [1, 2], [0, 6], [1, 4], [], list(range(7))]),
])
def test_canonical_text_rows_match_the_dense_join(width, supports):
    # an even map of an all-even module may have any support
    ring = RINGS[3]
    v = SuperModule.free(ring, width, 0)
    cells = [ring.parse("x"), ring.parse("-zeta*y + 1/2"), ring.parse("3")]
    dense = [[cells[(i + j) % 3] if j in cols else ring.zero for j in range(width)]
             for i, cols in enumerate(supports)]
    cx = CurvedComplex(v, ParityMap(v, v, EVEN, dense), ring.zero)
    assert cx.canonical_text() == _dense_canonical_text(cx)


@settings(max_examples=100, deadline=None)
@given(_endomorphisms())
def test_canonical_text_matches_the_dense_join(case):
    ring, v, dd = case
    cx = CurvedComplex(v, ParityMap(v, v, ODD, dd), ring.zero)
    assert cx.canonical_text() == _dense_canonical_text(cx)
