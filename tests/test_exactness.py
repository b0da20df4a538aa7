"""The exactness sampler's rank kernels against the reference rank.

At each point the sampler takes ranks modulo a prime and certifies them with
the two zero products; otherwise it falls back to the Bareiss rank.  Both
paths are compared with the ``Fraction`` reference, ``ScalarBlock``.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert import complexes
from mfcert.complexes import (CurvatureError, CurvedComplex, SupportLocus,
                              curvature_check, strict_exactness_sample, _bareiss_rank,
                              _IntegerBlock, _point_ranks, _product_is_zero,
                              _rank_mod_prime)
from mfcert.constructions import (LambdaFamily, TwistFamily, lemma1_build, lemma2_build,
                                  s_xi_reduce)
from mfcert.generators import gen_lambda_family, gen_ramond_data, gen_twist_family
from mfcert.polynomials import PolyRing
from mfcert.scalars import Scalar, cyclotomic_field
from mfcert.supermod import ODD, ParityMap, SuperModule, tensor
from reference import ScalarBlock

FIELDS = {r: cyclotomic_field(r) for r in (1, 3, 4, 5)}
RINGS = {r: PolyRing(f, ("x", "y")) for r, f in FIELDS.items()}


def _scalars(field):
    """Sparse field elements with small numerators and non-unit denominators."""
    fraction = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3, 6]))
    component = st.one_of(st.just(Fraction(0)), fraction)
    return st.tuples(*[component] * field.degree).map(lambda cs: Scalar(field, cs))


@st.composite
def _poly_matrices(draw):
    """A field, a rectangular polynomial matrix over it and an integer point."""
    r = draw(st.sampled_from(sorted(FIELDS)))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    rows = _draw_rows(draw, r, nrows, ncols)
    values = [draw(st.integers(-50, 50)), draw(st.integers(-50, 50))]
    return FIELDS[r], rows, ncols, values


def _draw_rows(draw, r, nrows, ncols):
    """The sparse rows of a polynomial matrix over Q(zeta_r) with ``ncols`` columns.

    Rows are drawn, then extra rows are appended that repeat a row, are
    zero, or combine two rows, and columns may be zeroed, so rank-deficient
    matrices are common.  There may be more than ``nrows`` rows.
    """
    field, ring = FIELDS[r], RINGS[r]
    monomials = [(0, 0), (1, 0), (0, 1), (2, 1)]

    def poly():
        coeffs = draw(st.lists(_scalars(field), min_size=len(monomials),
                               max_size=len(monomials)))
        return ring.poly(dict(zip(monomials, coeffs)))

    rows = [[poly() for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        kind = draw(st.sampled_from(["duplicate", "zero", "combine"]))
        a = draw(st.sampled_from(rows))
        if kind == "duplicate":
            rows.append(list(a))
        elif kind == "zero":
            rows.append([ring.zero] * ncols)
        else:
            b = draw(st.sampled_from(rows))
            ca, cb = poly(), ring.const(draw(_scalars(field)))
            rows.append([ca * p + cb * q for p, q in zip(a, b)])
    for j in draw(st.sets(st.integers(0, ncols - 1))) if ncols else ():
        for row in rows:
            row[j] = ring.zero
    order = draw(st.permutations(range(len(rows))))
    return [_sparse(rows[i]) for i in order]


@st.composite
def _poly_pairs(draw):
    """A field, blocks d+ and d- that compose both ways, and an integer point.

    d- is zero at times, so that both products vanish and the modular
    certificate can be met; otherwise the pair is random and the products
    almost never vanish.
    """
    r = draw(st.sampled_from(sorted(FIELDS)))
    m, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    plus = _draw_rows(draw, r, m, k)
    minus = [()] * k if draw(st.booleans()) else _draw_rows(draw, r, k, len(plus))
    values = [draw(st.integers(-50, 50)), draw(st.integers(-50, 50))]
    return FIELDS[r], plus, minus, values


def _sparse(row):
    """A dense row as the nonzero (column, Poly) pairs the kernel takes."""
    return tuple((j, p) for j, p in enumerate(row) if not p.is_zero())


def _odd_blocks(c, block):
    """d+ : V+ -> V- and d- : V- -> V+ of a complex, built as ``block`` objects."""
    e, n = c.module.even_rank, c.module.total_rank
    field, nvars = c.ring().field, len(c.ring().variables)
    rows = c.d.rows
    return (block(rows[e:], e, field, nvars),
            block([tuple((j - e, p) for j, p in row) for row in rows[:e]], n - e, field, nvars))


def _counting(calls):
    """``_bareiss_rank`` that records each call."""
    def rank(rows):
        calls.append(len(rows))
        return _bareiss_rank(rows)
    return rank


@settings(max_examples=300, deadline=None)
@given(_poly_matrices())
def test_integer_rank_matches_scalar_reference(case):
    field, rows, ncols, values = case
    expected = ScalarBlock(rows, ncols, field, 2).rank(values)
    assert _IntegerBlock(rows, ncols, field, 2).rank(values) == expected


def test_single_zeta_has_rank_one_over_its_field():
    # over Q the 1x1 matrix [zeta] of Q(zeta_3) expands to a 2x2 block of
    # rank 2; the rank over the field is that divided by the degree
    field, ring = FIELDS[3], RINGS[3]
    assert _IntegerBlock([_sparse((ring.const(field.zeta),))], 1, field, 2).rank([0, 0]) == 1


def test_entries_over_different_denominators_keep_their_ratios():
    # row 2 of d+ is twice row 1, its entries over denominators 1 and 3,
    # and d- = (2, -3x)^T (2, -1) vanishes against d+ on both sides
    field, ring = FIELDS[1], RINGS[1]
    x = ring.parse("x")
    d_plus = _IntegerBlock([_sparse((x.scalar_mul(Fraction(1, 2)), ring.const(Fraction(1, 3)))),
                            _sparse((x, ring.const(Fraction(2, 3))))], 2, field, 2)
    d_minus = _IntegerBlock([_sparse((ring.const(4), ring.const(-2))),
                             _sparse((x.scalar_mul(-6), x.scalar_mul(3)))], 2, field, 2)
    assert d_plus.rank([5, 7]) == 1
    assert _point_ranks(d_plus, d_minus, [5, 7]) == (1, 1)


def test_rank_not_multiple_of_degree_raises(monkeypatch):
    field, ring = FIELDS[4], RINGS[4]
    block = _IntegerBlock([_sparse((ring.one,))], 1, field, 2)
    monkeypatch.setattr(complexes, "_bareiss_rank", lambda rows: 3)
    with pytest.raises(ArithmeticError, match="not a multiple"):
        block.rank([0, 0])


def test_certified_rank_not_multiple_of_degree_raises(monkeypatch):
    # over Q(zeta_4), d+ = [1] and d- = [0] compose to zero both ways, and
    # modular ranks 1 + 1 reach the bound 2 of the expansions
    field, ring = FIELDS[4], RINGS[4]
    d_plus = _IntegerBlock([_sparse((ring.one,))], 1, field, 2)
    d_minus = _IntegerBlock([()], 1, field, 2)
    monkeypatch.setattr(complexes, "_rank_mod_prime", lambda rows: 1)
    with pytest.raises(ArithmeticError, match="not a multiple"):
        _point_ranks(d_plus, d_minus, [0, 0])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, complexes._PRIME]),
       st.integers(0, 6).flatmap(lambda n: st.lists(
           st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=5)),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3))))
def test_rank_mod_prime_is_a_lower_bound(prime, rows, combos):
    # rows that combine two others make rank-deficient matrices common
    for a, b in combos if rows else ():
        rows.append([a * x + b * y for x, y in zip(rows[a % len(rows)], rows[b % len(rows)])])
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_PRIME", prime)
        modular = _rank_mod_prime(sparse)
    exact = _bareiss_rank([list(row) for row in rows])
    assert modular <= exact
    # Hadamard: below this bound every nonzero minor is a unit modulo the prime
    if math.prod(max(1, sum(x * x for x in row)) for row in rows) < prime ** 2:
        assert modular == exact


@settings(max_examples=100, deadline=None)
@given(_poly_pairs())
def test_point_ranks_match_reference_on_random_pairs(case):
    field, plus, minus, values = case
    blocks = [(plus, len(minus)), (minus, len(plus))]
    fast = _point_ranks(*(_IntegerBlock(rows, n, field, 2) for rows, n in blocks), values)
    assert fast == tuple(ScalarBlock(rows, n, field, 2).rank(values) for rows, n in blocks)


def _koszul(ring, generators):
    """The Koszul complex of the generators folded to Z/2: flat, exact off their common zeros."""
    v = SuperModule.free(ring, 1, 1)
    z = ring.zero
    d = None
    for f in generators:
        line = ParityMap(v, v, ODD, [[z, z], [f, z]])
        d = line if d is None else (tensor(d, ParityMap.identity(v))
                                    + tensor(ParityMap.identity(d.source), line))
    return curvature_check(d.source, d)


@functools.cache
def _flat_complexes():
    """Flat complexes with small blocks: Koszul complexes and generated totals."""
    q, z3 = RINGS[1], RINGS[3]
    x, y = q.parse("x"), q.parse("y")
    lam = gen_lambda_family(3, 3, 2)
    tw = gen_twist_family(3, 2, 5)
    return [
        _koszul(q, [x, y, x - y]),
        _koszul(z3, [z3.parse("x"), z3.parse("y"), z3.parse("x") + z3.zeta * z3.parse("y")]),
        lemma1_build(LambdaFamily.from_map(lam.module, lam.d_lambda, lam.r)).w,
        lemma2_build(TwistFamily(tw.module, tw.d, tw.functions)).w,
        s_xi_reduce(gen_ramond_data(4, 2, 1)).lemma2.w,
    ]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.lists(st.integers(-4, 4), min_size=5, max_size=5),
       st.sampled_from([2, 3, complexes._PRIME]))
def test_point_ranks_match_reference_on_flat_complexes(k, values, prime):
    # small coordinates reach the common zeros, where the Koszul complexes
    # are not exact, and even ones make a Koszul complex vanish modulo 2:
    # at both the certificate is not met
    c = _flat_complexes()[k]
    assert c.is_flat()
    values = values[:len(c.ring().variables)]
    expected = tuple(block.rank(values) for block in _odd_blocks(c, ScalarBlock))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_PRIME", prime)
        assert _point_ranks(*_odd_blocks(c, _IntegerBlock), values) == expected


@functools.cache
def _totals():
    lam = gen_lambda_family(5, 8, 1)
    tw = gen_twist_family(4, 8, 1004)
    return [
        lemma1_build(LambdaFamily.from_map(lam.module, lam.d_lambda, lam.r)).w,
        lemma2_build(TwistFamily(tw.module, tw.d, tw.functions)).w,
        s_xi_reduce(gen_ramond_data(4, 2, 1)).lemma2.w,
    ]


def _sample_totals():
    """The sampler's reports on :func:`_totals`, off x, 3 trials, seed 7."""
    return [strict_exactness_sample(w, SupportLocus((w.ring().parse("x"),)), 3, seed=7)
            for w in _totals()]


@functools.cache
def _reference_reports():
    """:func:`_sample_totals` with every point rank taken by the reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "_IntegerBlock", ScalarBlock)
        mp.setattr(complexes, "_point_ranks",
                   lambda plus, minus, values: (plus.rank(values), minus.rank(values)))
        return _sample_totals()


def test_sample_reports_equal_reference_sampler():
    assert _totals()[2].ring().field == cyclotomic_field(4)
    fast = _sample_totals()
    assert fast == _reference_reports()
    assert all(rep.ok for rep in fast)
    ranks = [{(p.rank_plus, p.rank_minus) for p in rep.points} for rep in fast]
    assert ranks[:2] == [{(32, 8)}, {(32, 32)}]


def test_fast_path_is_taken_on_the_totals(monkeypatch):
    def refuse(rows):
        raise AssertionError("Bareiss fallback on a flat total")
    monkeypatch.setattr(complexes, "_bareiss_rank", refuse)
    assert _sample_totals() == _reference_reports()


@pytest.mark.parametrize("prime", [2, 3])
def test_small_prime_reports_equal_reference_sampler(monkeypatch, prime):
    # a prime that divides a pivot lowers a modular rank and sends the point
    # to the Bareiss fallback; on these totals the pivots that elimination
    # meets are units even modulo 2 and 3, so the certificate still holds
    monkeypatch.setattr(complexes, "_PRIME", prime)
    assert _sample_totals() == _reference_reports()


@pytest.mark.parametrize("even, odd, rows, ranks", [
    # d+ = diag(2x, 0) and d- = 1: both d+ d- and d- d+ are diag(2x, 0)
    (2, 2, ["0 0 1 0", "0 0 0 1", "2*x 0 0 0", "0 0 0 0"], (1, 2)),
    # d+ = (2x 0) and d- = (0 1)^T: d+ d- = 0, but d- d+ is not zero
    (2, 1, ["0 0 0", "0 0 1", "2*x 0 0"], (1, 1)),
    # d+ = (2x 0)^T and d- = (0 1): d- d+ = 0, but d+ d- is not zero
    (1, 2, ["0 0 1", "2*x 0 0", "0 0 0"], (1, 1)),
])
def test_unchecked_complex_with_nonzero_square_falls_back(monkeypatch, even, odd, rows, ranks):
    # curvature recorded as 0 without curvature_check
    ring = RINGS[1]
    v = SuperModule.free(ring, even, odd)
    d = ParityMap(v, v, ODD, [[ring.parse(t) for t in row.split()] for row in rows])
    with pytest.raises(CurvatureError):
        curvature_check(v, d)
    c = CurvedComplex(v, d, ring.zero)
    d_plus, d_minus = _odd_blocks(c, _IntegerBlock)
    plus, minus = d_plus.evaluate([3, 5]), d_minus.evaluate([3, 5])
    assert not (_product_is_zero(plus, minus, d_minus.width)
                and _product_is_zero(minus, plus, d_plus.width))
    # modulo 2 the entry 2x vanishes, and the modular ranks reach the bound
    monkeypatch.setattr(complexes, "_PRIME", 2)
    assert _rank_mod_prime(plus) + _rank_mod_prime(minus) == min(even, odd)
    calls = []
    monkeypatch.setattr(complexes, "_bareiss_rank", _counting(calls))
    report = strict_exactness_sample(c, SupportLocus((ring.parse("x"),)), 3, seed=7)
    assert len(calls) == 2 * len(report.points) == 6
    reference = _odd_blocks(c, ScalarBlock)
    for pt in report.points:
        values = [pt.point[name] for name in ring.variables]
        got = (pt.rank_plus, pt.rank_minus)
        assert got == (d_plus.rank(values), d_minus.rank(values)) == ranks
        assert got == tuple(block.rank(values) for block in reference)
        assert not pt.exact
    assert not report.ok


@pytest.mark.parametrize("trials", [0, -5])
def test_sampler_rejects_fewer_than_one_trial(trials):
    ring = RINGS[1]
    v = SuperModule.free(ring, 1, 1)
    d = ParityMap(v, v, ODD, [[ring.zero, ring.zero], [ring.parse("x"), ring.zero]])
    with pytest.raises(ValueError, match="at least one trial"):
        strict_exactness_sample(curvature_check(v, d), SupportLocus((ring.parse("x"),)),
                                trials, seed=1)
