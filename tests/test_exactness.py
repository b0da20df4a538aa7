"""The exactness sampler's integer rank kernel against the reference rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert import (ODD, LambdaFamily, ParityMap, PolyRing, SuperModule,
                    SupportLocus, TwistFamily, curvature_check,
                    cyclotomic_field, lemma1_build, lemma2_build, s_xi_reduce,
                    strict_exactness_sample)
from mfcert import complexes
from mfcert.complexes import _IntegerBlock
from mfcert.generators import (gen_lambda_family, gen_ramond_data,
                               gen_twist_family)
from mfcert.scalars import Scalar
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
    """A field, a rectangular polynomial matrix over it and an integer point.

    Rows are drawn, then extra rows are appended that repeat a row, are
    zero, or combine two rows, and columns may be zeroed, so rank-deficient
    matrices are common.
    """
    r = draw(st.sampled_from(sorted(FIELDS)))
    field, ring = FIELDS[r], RINGS[r]
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
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
    rows = [_sparse(rows[i]) for i in order]
    values = [draw(st.integers(-50, 50)), draw(st.integers(-50, 50))]
    return field, rows, ncols, values


def _sparse(row):
    """A dense row as the nonzero (column, Poly) pairs the kernel takes."""
    return tuple((j, p) for j, p in enumerate(row) if not p.is_zero())


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


def test_rank_not_multiple_of_degree_raises(monkeypatch):
    field, ring = FIELDS[4], RINGS[4]
    block = _IntegerBlock([_sparse((ring.one,))], 1, field, 2)
    monkeypatch.setattr(complexes, "_bareiss_rank", lambda rows: 3)
    with pytest.raises(ArithmeticError, match="not a multiple"):
        block.rank([0, 0])


def _totals():
    lam = gen_lambda_family(5, 8, 1)
    tw = gen_twist_family(4, 8, 1004)
    return [
        lemma1_build(LambdaFamily.from_map(lam.module, lam.d_lambda, lam.r)).w,
        lemma2_build(TwistFamily(tw.module, tw.d, tw.functions)).w,
        s_xi_reduce(gen_ramond_data(4, 2, 1)).lemma2.w,
    ]


def test_sample_reports_equal_reference_sampler(monkeypatch):
    totals = _totals()
    assert totals[2].ring().field == cyclotomic_field(4)
    loci = [SupportLocus((w.ring().parse("x"),)) for w in totals]
    fast = [strict_exactness_sample(w, z, 3, seed=7) for w, z in zip(totals, loci)]
    monkeypatch.setattr(complexes, "_IntegerBlock", ScalarBlock)
    slow = [strict_exactness_sample(w, z, 3, seed=7) for w, z in zip(totals, loci)]
    assert fast == slow
    assert all(rep.ok for rep in fast)
    ranks = [{(p.rank_plus, p.rank_minus) for p in rep.points} for rep in fast]
    assert ranks[:2] == [{(32, 8)}, {(32, 32)}]


@pytest.mark.parametrize("trials", [0, -5])
def test_sampler_rejects_fewer_than_one_trial(trials):
    ring = RINGS[1]
    v = SuperModule.free(ring, 1, 1)
    d = ParityMap(v, v, ODD, [[ring.zero, ring.zero], [ring.parse("x"), ring.zero]])
    with pytest.raises(ValueError, match="at least one trial"):
        strict_exactness_sample(curvature_check(v, d), SupportLocus((ring.parse("x"),)),
                                trials, seed=1)
