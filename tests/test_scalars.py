"""Field arithmetic: cyclotomic moduli, roots of unity, canonical forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert.polynomials import PolyRing
from mfcert.scalars import (FieldError, Scalar, cyclotomic_field, rationals,
                            roots_of_unity)


def test_field_of_order_one_is_rationals():
    f = cyclotomic_field(1)
    assert repr(f) == "Q"
    assert f.modulus == (Fraction(-1), Fraction(1))   # t - 1
    assert f.zeta == 1


def test_field_of_order_two_is_rationals_with_minus_one():
    f = cyclotomic_field(2)
    assert f.degree == 1
    assert f.modulus == (Fraction(1), Fraction(1))    # t + 1
    assert f.zeta == -1


def test_order_four_modulus_and_powers():
    f = cyclotomic_field(4)
    assert f.modulus == (Fraction(1), Fraction(0), Fraction(1))   # t^2 + 1
    z = f.zeta
    # oracle: repeated multiplication with reduction mod t^2 + 1
    assert z * z == -1
    assert z * z * z * z == 1
    assert z**3 == -z


def test_zero_order_rejected():
    with pytest.raises(FieldError):
        cyclotomic_field(0)


def test_roots_of_unity_r2_over_rationals():
    roots = roots_of_unity(rationals(), 2)
    assert roots == [rationals().one, rationals().scalar(-1)]


@pytest.mark.parametrize("r", [3, 4, 6])
def test_roots_product_expands_to_t_power_minus_one(r):
    # oracle: expand prod (t - xi) as a polynomial and compare coefficients
    field = cyclotomic_field(r)
    ring = PolyRing(field, ("t",))
    t = ring.var("t")
    prod = ring.one
    for xi in roots_of_unity(field, r):
        prod = prod * (t - ring.const(xi))
    assert prod == t**r - 1


def test_roots_of_unity_r4_values():
    field = cyclotomic_field(4)
    z = field.zeta
    roots = roots_of_unity(field, 4)
    assert roots == [field.one, z, field.scalar(-1), -z]


def test_roots_within_larger_field():
    field = cyclotomic_field(6)
    roots = roots_of_unity(field, 3)
    assert len(roots) == 3
    assert all(x**3 == 1 for x in roots)
    assert len({str(x) for x in roots}) == 3


def test_missing_roots_rejected():
    with pytest.raises(FieldError):
        roots_of_unity(rationals(), 3)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 8, 12])
def test_power_sum_orthogonality(r):
    field = cyclotomic_field(r)
    roots = roots_of_unity(field, r)
    for k in range(r + 1):
        total = field.zero
        for xi in roots:
            total = total + xi**k
        expected = field.scalar(r) if k % r == 0 else field.zero
        assert total == expected, f"power sum failed at k={k}"


scalars5 = st.builds(
    lambda coeffs: _from_coeffs(coeffs),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4))


def _from_coeffs(coeffs):
    f = cyclotomic_field(5)
    acc = f.zero
    for k, c in enumerate(coeffs):
        acc = acc + f.scalar(c) * f.zeta**k
    return acc


@settings(max_examples=40, deadline=None)
@given(scalars5, scalars5, scalars5)
def test_field_axioms_sampled(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(scalars5)
def test_inverse_when_nonzero(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1


def test_canonical_form_is_syntactic():
    f = cyclotomic_field(4)
    a = f.zeta * f.zeta * f.zeta * f.zeta  # reduces to 1
    assert a.coeffs == f.one.coeffs
    assert str(f.scalar(Fraction(2, 4))) == "1/2"


def test_wrong_length_coefficient_vector_raises():
    # a real exception, so the guard survives python -O
    with pytest.raises(FieldError, match="needs 2 coefficients"):
        Scalar(cyclotomic_field(3), (Fraction(1),))
