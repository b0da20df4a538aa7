"""Polynomial ring semantics and the canonical printer."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert.polynomials import (MAX_DEGREE, ContextError, ParseError,
                                Poly, PolyRing, _Parser, _read_printed)
from mfcert.scalars import Scalar, cyclotomic_field, rationals


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


def test_context_mismatch(ring):
    other = PolyRing(rationals(), ("x",))
    with pytest.raises(ContextError):
        ring.var("x") + other.var("x")


def _polys(ring, max_terms=4):
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1))
    term = st.tuples(exponents, st.integers(-3, 3))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: _build(ring, terms))


def _build(ring, terms):
    p = ring.zero
    for exps, c in terms:
        p = p + ring.poly({exps: c})
    return p


RING = PolyRing(rationals(), ("x", "y", "lambda"))


@settings(max_examples=50, deadline=None)
@given(_polys(RING), _polys(RING), _polys(RING))
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c


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


def test_parser_coefficient_budget():
    from mfcert.polynomials import MAX_COEFF_BITS
    ring = PolyRing(cyclotomic_field(3), ("x", "y"))
    widest = str(2 ** MAX_COEFF_BITS - 1)
    half = str(2 ** (MAX_COEFF_BITS // 2))          # one bit more than half the budget
    assert ring.parse(f"{widest}*x") == ring.var("x") * ring.const(int(widest))
    assert ring.parse(f"1/{widest} + zeta*y") == \
        ring.const(Fraction(1, int(widest))) + ring.var("y") * ring.const(ring.field.zeta)
    for text, pos in ((f"x + {2 ** MAX_COEFF_BITS}", 4),          # a numeral
                      (f"x + 1/{2 ** MAX_COEFF_BITS}", 4),
                      (f"{half}*{half}", len(half)),               # a product
                      (f"({half}*x + 1)^2", len(half) + 9)):       # a power step
        assert _read_printed(ring, text) is None                   # the reader declines
        with pytest.raises(ParseError, match=f"exceeds? {MAX_COEFF_BITS} bits") as err:
            ring.parse(text)
        assert err.value.pos == pos


def test_overlong_numeral_is_a_parse_error(ring):
    with pytest.raises(ParseError, match="too long") as err:
        ring.parse("x + " + "1" * 5000)
    assert err.value.pos == 4


# ---------------------------------------------------------------------------
# the term reader against the token parser
# ---------------------------------------------------------------------------

# Q (also as order 2) and cyclotomic fields of degree 2, 4 and 2 with a
# negative coefficient in Phi_6; three variables, as the sparse-map tests use.
READER_FIELDS = {r: cyclotomic_field(r) for r in (1, 2, 3, 4, 5, 6, 8)}
READER_VARS = ("x", "y", "lambda")


@st.composite
def _field_polys(draw):
    """A field and a polynomial over it, with multi-term coefficients."""
    field = READER_FIELDS[draw(st.sampled_from(sorted(READER_FIELDS)))]
    ring = PolyRing(field, READER_VARS)
    component = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 6])))
    scalar = st.tuples(*[component] * field.degree).map(lambda cs: Scalar(field, cs))
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    terms = draw(st.dictionaries(exponents, scalar, max_size=5))
    return ring, ring.poly(terms)


@settings(max_examples=150, deadline=None)
@given(_field_polys())
def test_reader_round_trips_printed_text(case):
    ring, p = case
    text = str(p)
    read = _read_printed(ring, text)
    assert read is not None, text
    assert read == p
    assert read == _Parser(ring, text).parse()
    assert ring.parse(text) == p


def _numeral():
    digits = st.integers(0, 12).map(str)
    padded = st.tuples(st.sampled_from(["", "0", "00"]), digits).map("".join)
    denominator = st.sampled_from(["1", "2", "03", "6", "0", "00"])
    return st.one_of(padded, st.tuples(padded, denominator).map("/".join))


def _power(base, top):
    return st.integers(0, top).map(lambda k: base if k == 1 else f"{base}^{k}")


@st.composite
def _flat_sums(draw):
    """Flat sums of printed-looking terms: duplicates, cancellation, zeros."""
    field = READER_FIELDS[draw(st.sampled_from(sorted(READER_FIELDS)))]
    ring = PolyRing(field, READER_VARS)
    factor = st.one_of(_numeral(), _power("zeta", 2 * field.degree + 2),
                       *[_power(v, 4) for v in READER_VARS])
    term = st.lists(factor, min_size=1, max_size=4).map("*".join)
    terms = draw(st.lists(term, min_size=1, max_size=5))
    terms += draw(st.lists(st.sampled_from(terms), max_size=3))   # repeats
    signs = draw(st.lists(st.sampled_from(["+", "-"]), min_size=len(terms),
                          max_size=len(terms)))
    text = ("-" if signs[0] == "-" else "") + terms[0]
    for sign, t in zip(signs[1:], terms[1:]):
        text += f" {sign} {t}"
    return ring, text


@settings(max_examples=300, deadline=None)
@given(_flat_sums())
def test_reader_agrees_with_parser_on_flat_sums(case):
    ring, text = case
    read = _read_printed(ring, text)
    if re.search(r"/0+(?![0-9])", text):
        assert read is None
        with pytest.raises(ParseError, match="zero denominator"):
            _Parser(ring, text).parse()
        return
    assert read is not None, text     # every budget is far away here
    assert read == _Parser(ring, text).parse()


@pytest.mark.parametrize("text", [
    f"x^{MAX_DEGREE + 1}", f"zeta^{MAX_DEGREE + 1}", f"x^{MAX_DEGREE}*y",
    "x^40*y^40*lambda", "x^100", "x^007", "2^3", "x^2^3", "1" * 5000,
    "1/0*x", "0/0", "x + 1/0", "", "+x", "1 - -1", "x + -y", "x  + y", "x +y",
    "(x + 1)*y", "(1 + zeta)^2", "((1 + zeta))*x", "(1 + zeta", "x*(1 + zeta)",
    "2x", "x + w", "x $ y", "x**y", "x*", "-(x)", "x^y", "x^-1"])
def test_reader_declines_past_its_grammar_and_budgets(text):
    ring = PolyRing(cyclotomic_field(3), READER_VARS)
    assert _read_printed(ring, text) is None


def test_zero_denominator_is_a_located_parse_error(ring):
    with pytest.raises(ParseError, match="zero denominator") as err:
        ring.parse("x + 1/0*lambda")
    assert err.value.pos == 4


@settings(max_examples=100, deadline=None)
@given(_field_polys(), _field_polys())
def test_reader_memo_is_inert(case, other):
    ring, p = case
    text = str(p)
    first = ring.parse(text)
    if other[0].field == ring.field:     # fill the memo with another text's terms
        ring.parse(str(other[1]))
    size = len(ring._terms)
    hit = ring.parse(text)
    assert len(ring._terms) == size      # every term came from the memo
    assert hit == first == PolyRing(ring.field, READER_VARS).parse(text)


def test_product_past_half_a_slot_raises():
    # packed keys hold each exponent in a 16-bit slot: a factor with an
    # exponent of 2^15 or more could carry into the next variable's slot
    ring = PolyRing(rationals(), ("x", "y"))
    x = ring.var("x")
    with pytest.raises(OverflowError, match="slot"):
        x ** 40000
    half = 1 << 15
    assert x ** (half - 1) * x ** (half - 1) == ring.poly({(2 * half - 2, 0): 1})
    assert (x ** (half - 1) * x ** (half - 1)).degree_in("y") == 0
