"""Polynomial ring semantics, exact division, and the canonical printer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert import (ContextError, DivisionError, ParseError, Poly, PolyRing,
                    cyclotomic_field, exact_divide, rationals)


@pytest.fixture
def ring():
    return PolyRing(rationals(), ("x", "y", "lambda"))


def test_difference_of_squares(ring):
    x, y = ring.var("x"), ring.var("y")
    assert (x + y) * (x - y) == x**2 - y**2


def test_substitute_lambda_zero_extracts_constant_term(ring):
    p = ring.parse("x + y*lambda + x*lambda^2")
    assert p.substitute("lambda", 0) == ring.var("x")


def test_substitute_by_polynomial(ring):
    p = ring.parse("lambda^2 + 1")
    assert p.substitute("lambda", ring.parse("x + y")) == ring.parse("(x+y)^2 + 1")


def test_evaluate(ring):
    p = ring.parse("x^2*y")
    assert p.evaluate({"x": 2, "y": 3, "lambda": 0}) == 12


def test_evaluate_requires_all_variables(ring):
    with pytest.raises(ContextError):
        ring.parse("x").evaluate({"x": 1})


def test_exact_divide_lambda_powers(ring):
    p = ring.parse("lambda^4 + 2*lambda^3")
    assert exact_divide(p, ring.parse("lambda^3")) == ring.parse("lambda + 2")
    assert exact_divide(ring.parse("x*lambda^3"), ring.parse("lambda^2")) == \
        ring.parse("x*lambda")


def test_exact_divide_multivariate(ring):
    quotient = exact_divide(ring.parse("x^2 - y^2"), ring.parse("x + y"))
    # multiply-back oracle
    assert quotient * ring.parse("x + y") == ring.parse("x^2 - y^2")
    assert quotient == ring.parse("x - y")


def test_exact_divide_failure_reports_remainder(ring):
    with pytest.raises(DivisionError) as err:
        exact_divide(ring.parse("x^2 + 1"), ring.parse("x + y"))
    assert err.value.remainder is not None


def test_divmod_in_variable(ring):
    f = ring.parse("lambda^2 - x^2")
    p = ring.parse("lambda^3 + x*lambda + 1")
    quo, rem = p.divmod_in("lambda", f)
    assert quo * f + rem == p
    assert rem.degree_in("lambda") < 2


def test_divmod_requires_monic(ring):
    with pytest.raises(DivisionError):
        ring.parse("lambda").divmod_in("lambda", ring.parse("x*lambda + 1"))


def test_context_mismatch(ring):
    other = PolyRing(rationals(), ("x",))
    with pytest.raises(ContextError):
        ring.var("x") + other.var("x")


def test_embed_by_variable_name(ring):
    sub = PolyRing(rationals(), ("x",))
    p = sub.parse("x^2 + 1")
    q = ring.embed(p)
    assert q == ring.parse("x^2 + 1")


def _polys(ring, max_terms=4):
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    term = st.tuples(exponents, st.integers(-3, 3))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: _build(ring, terms))


def _build(ring, terms):
    p = ring.zero
    for exps, c in terms:
        p = p + ring.monomial(exps, c)
    return p


RING = PolyRing(rationals(), ("x", "y", "lambda"))


@settings(max_examples=50, deadline=None)
@given(_polys(RING), _polys(RING), _polys(RING))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


@settings(max_examples=50, deadline=None)
@given(_polys(RING), _polys(RING))
def test_exact_divide_roundtrip(q, s):
    if q.is_zero():
        return
    assert exact_divide(q * s, q) == s


@settings(max_examples=60, deadline=None)
@given(_polys(RING))
def test_string_roundtrip(p):
    assert RING.parse(str(p)) == p


def test_string_roundtrip_cyclotomic():
    ring = PolyRing(cyclotomic_field(3), ("x",))
    z = ring.const(ring.field.zeta)
    p = (z - 1) * ring.var("x") ** 2 + z * ring.var("x") + ring.const(Fraction(1, 2))
    assert ring.parse(str(p)) == p


def test_parser_errors(ring):
    with pytest.raises(ParseError):
        ring.parse("x + w")       # unknown variable
    with pytest.raises(ParseError):
        ring.parse("x $ y")       # stray character
    with pytest.raises(ParseError):
        ring.parse("x^y")         # non-numeric exponent
    with pytest.raises(ParseError):
        ring.parse("(x + 1")      # unbalanced parenthesis


def test_scalar_mul(ring):
    p = ring.parse("x + 2*y")
    assert p.scalar_mul(Fraction(1, 2)) == ring.parse("1/2*x + y")


def test_zeta_reserved(ring):
    with pytest.raises(ContextError):
        PolyRing(rationals(), ("zeta",))


def test_coefficient_extraction(ring):
    p = ring.parse("x*lambda^2 + y*lambda^2 + x - 1")
    assert p.coefficient_in("lambda", 2) == ring.parse("x + y")
    assert p.coefficient_in("lambda", 0) == ring.parse("x - 1")
    assert p.degree_in("lambda") == 2
    assert ring.zero.degree_in("lambda") == -1


def test_parser_degree_budget(ring):
    from mfcert.polynomials import MAX_DEGREE
    assert ring.parse(f"x^{MAX_DEGREE}").total_degree() == MAX_DEGREE
    assert ring.parse(f"(x*y)^{MAX_DEGREE // 2}").total_degree() == MAX_DEGREE
    for text, pos in (("(x+y+1)^100000", 8), ("x^1000000000", 2),
                      (f"(x*y)^{MAX_DEGREE // 2 + 1}", 6), (f"2^{MAX_DEGREE + 1}", 2),
                      (f"x^{MAX_DEGREE} * y", 5), ("x^" + "1" * 5000, 2)):
        with pytest.raises(ParseError, match=f"exceeds {MAX_DEGREE}") as err:
            ring.parse(text)
        assert err.value.pos == pos


def test_parser_term_budget():
    from mfcert.polynomials import MAX_TERM_PRODUCTS
    ring = PolyRing(rationals(), ("x", "y", "z", "w"))
    assert ring.parse("(x+y+1)^12") == ring.parse("x+y+1") ** 12
    for text, pos in (("(x+y+z+w+1)^16", 12), ("(x+y+1)^60", 8),
                      ("(x+y+1)^20*(x+y+1)^20", 10)):
        with pytest.raises(ParseError, match=f"exceeds {MAX_TERM_PRODUCTS} term products") as err:
            ring.parse(text)
        assert err.value.pos == pos


def test_overlong_numeral_is_a_parse_error(ring):
    with pytest.raises(ParseError, match="too long") as err:
        ring.parse("x + " + "1" * 5000)
    assert err.value.pos == 4
