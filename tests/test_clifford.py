"""Clifford actions on exterior algebras: the square law and the split."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert.clifford import (OrthoSection, clifford_action, clifford_square,
                             contraction_operator, spinor_module, spinor_split,
                             wedge_operator)
from mfcert.generators import _rand_poly
from mfcert.polynomials import PolyRing
from mfcert.scalars import rationals
from mfcert.supermod import ParityMap, ShapeError

RING = PolyRing(rationals(), ("x", "y", "z"))
VARS = ("x", "y", "z")


def random_section(rng, n, degree=2, extended=False):
    vec = tuple(_rand_poly(rng, RING, VARS, degree, allow_zero=True) for _ in range(n))
    cov = tuple(_rand_poly(rng, RING, VARS, degree, allow_zero=True) for _ in range(n))
    if extended:
        return OrthoSection(RING, vec, cov,
                            _rand_poly(rng, RING, VARS, degree, allow_zero=True),
                            _rand_poly(rng, RING, VARS, degree, allow_zero=True))
    return OrthoSection(RING, vec, cov)


def test_zero_section_acts_by_zero():
    s = OrthoSection(RING, (RING.zero,), (RING.zero,))
    assert clifford_action(s, spinor_module(RING, 1)).is_zero()


def test_rank_one_action_matrix():
    spinor = spinor_module(RING, 1)
    s = OrthoSection(RING, (RING.parse("x"),), (RING.parse("y"),))
    act = clifford_action(s, spinor)
    # basis (1 | w1): 1 -> y*w1 and w1 -> x*1
    assert act.entries[1][0] == RING.parse("y")
    assert act.entries[0][1] == RING.parse("x")
    assert clifford_square(s, spinor) == RING.parse("x*y")


def test_rank_two_disjoint_supports_square_zero():
    spinor = spinor_module(RING, 2)
    s = OrthoSection(RING, (RING.parse("x"), RING.zero),
                     (RING.zero, RING.parse("y")))
    act = clifford_action(s, spinor)
    assert clifford_square(s, spinor).is_zero()
    assert act.compose(act).is_zero()
    assert act.source.total_rank == 4


def test_rank_mismatch_rejected():
    s = OrthoSection(RING, (RING.one,), (RING.one,))
    with pytest.raises(ShapeError):
        clifford_action(s, spinor_module(RING, 2))


def test_spinor_module_ranks():
    for n in range(1, 6):
        sp = spinor_module(RING, n)
        assert sp.module.even_rank == 2 ** (n - 1)
        assert sp.module.odd_rank == 2 ** (n - 1)


def test_square_law_randomized():
    rng = random.Random(60)
    for _ in range(30):
        n = rng.randint(1, 5)
        sp = spinor_module(RING, n)
        s = random_section(rng, n)
        q = clifford_square(s, sp)     # raises if action^2 != q * id
        assert q == s.pairing()


coeff_polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
              st.integers(-2, 2)),
    max_size=3)


def _poly_of(terms):
    p = RING.zero
    for exps, c in terms:
        p = p + RING.poly({exps: c})
    return p


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4),
       st.lists(coeff_polys, min_size=4, max_size=4),
       st.lists(coeff_polys, min_size=4, max_size=4))
def test_square_law_property(n, vec_terms, cov_terms):
    sp = spinor_module(RING, n)
    s = OrthoSection(RING, tuple(_poly_of(t) for t in vec_terms[:n]),
                     tuple(_poly_of(t) for t in cov_terms[:n]))
    assert clifford_square(s, sp) == s.pairing()


def _plus(s, t):
    """The plain section s + t, part by part."""
    return OrthoSection(RING, tuple(a + b for a, b in zip(s.vector_part, t.vector_part)),
                        tuple(a + b for a, b in zip(s.covector_part, t.covector_part)))


def test_bilinearity_and_polarization():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(1, 4)
        sp = spinor_module(RING, n)
        s, t = random_section(rng, n), random_section(rng, n)
        assert clifford_action(s, sp) + clifford_action(t, sp) == \
            clifford_action(_plus(s, t), sp)
        mixed = RING.zero
        for a, b in zip(s.covector_part, t.vector_part):
            mixed = mixed + a * b
        for a, b in zip(t.covector_part, s.vector_part):
            mixed = mixed + a * b
        assert _plus(s, t).pairing() - s.pairing() - t.pairing() == mixed


def test_wedge_and_contraction_square_to_zero():
    rng = random.Random(62)
    sp = spinor_module(RING, 3)
    coeffs = tuple(_rand_poly(rng, RING, VARS) for _ in range(3))
    w = wedge_operator(sp, coeffs)
    c = contraction_operator(sp, coeffs)
    assert w.compose(w).is_zero()
    assert c.compose(c).is_zero()


def test_extended_square_includes_the_product():
    rng = random.Random(63)
    sp = spinor_module(RING, 2, extended=True)
    s = random_section(rng, 2, extended=True)
    expected = s.l_part * s.linv_part
    for a, b in zip(s.covector_part, s.vector_part):
        expected = expected + a * b
    assert clifford_square(s, sp) == expected


def test_spinor_split_shapes_and_roundtrip():
    for n in (1, 2, 3):
        ext = spinor_module(RING, n, extended=True)
        split = spinor_split(ext)
        assert split.summand.even_rank == 2 ** n
        assert split.to_sum.compose(split.from_sum) == \
            ParityMap.identity(split.summand)
        assert split.from_sum.compose(split.to_sum) == \
            ParityMap.identity(ext.module)


def test_split_needs_extension():
    with pytest.raises(ShapeError):
        spinor_split(spinor_module(RING, 2))
