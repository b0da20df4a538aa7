"""Sparse multivariate polynomials over an exact scalar field.

Polynomials live in a :class:`PolyRing` (a field plus an ordered tuple of
variable names) and store only nonzero terms, keyed by exponent vectors.
The term order used for printing and leading terms is graded lexicographic
in the declared variable order, so string output is canonical and
``ring.parse(str(p)) == p`` exactly.  A polynomial keeps its printed text in
one private slot, so ``str`` prints each object at most once: a digest and
the bundle writer share that one print.

``PolyRing.parse`` reads in two steps.  The term reader (``_read_printed``)
accepts exactly what ``Poly.__str__`` prints: signed terms joined by `` + ``
and `` - ``, each a ``*``-product of unsigned numerals ``n`` or ``n/m``,
variables ``v`` or ``v^k`` and ``zeta`` or ``zeta^k``, optionally led by a
parenthesised cyclotomic coefficient ``(a + b*zeta^j ...)``.  It memoises
each signed term's text on the ring, since the entries of one file repeat a
few distinct terms many times.  With each term the memo keeps its grade and
whether the key is exactly what the printer writes for it; when every term
is, and the terms strictly descend in graded-lex order, the text is
canonical and the parsed polynomial keeps it as its print, so a file that
was read is hashed as read and never printed again.  Any other text (``x +
x``, reordered terms, ``2/4*x``, ``1*x``) keeps no text and prints on
demand.  Only this module attaches a text to a ``Poly``.

The term reader never raises: for a text outside that grammar, and for any
text at a budget (an exponent of more than two digits, a degree above
MAX_DEGREE, a numeral ``Fraction`` rejects, a zero denominator), it
declines, and the token parser ``_Parser`` reads the text.  That parser
takes hand-written expressions (parentheses around sums, powers of groups,
any spacing) and is the only source of ``ParseError`` and its position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .scalars import FieldError, Scalar, ScalarField

LAMBDA = "lambda"  # reserved deformation-parameter variable name


class ContextError(ValueError):
    """Operands do not share a variable context."""


class DivisionError(ArithmeticError):
    """Exact division failed; carries the offending remainder term."""

    def __init__(self, message: str, remainder: "Poly | None" = None):
        super().__init__(message)
        self.remainder = remainder


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos


class PolyRing:
    """A polynomial ring: scalar field + ordered variable names."""

    __slots__ = ("field", "variables", "_index", "_terms")

    def __init__(self, field: ScalarField, variables: tuple[str, ...] | list[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ContextError(f"duplicate variable names in {variables}")
        if "zeta" in variables:
            raise ContextError("'zeta' is reserved for the field root of unity")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9']*", v):
                raise ContextError(f"bad variable name {v!r}")
        self.field = field
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}
        # term reader memo: signed term text -> (exponents, coefficient or None,
        # grade key, whether the text is what the printer writes for the term)
        self._terms: dict[str, tuple] = {}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.field == other.field and self.variables == other.variables

    def __hash__(self) -> int:
        return hash((self.field, self.variables))

    def __repr__(self) -> str:
        return f"{self.field!r}[{', '.join(self.variables)}]"

    # -- constructors ---------------------------------------------------------

    def poly(self, terms: dict[tuple[int, ...], Scalar]) -> "Poly":
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != self.nvars:
                raise ContextError(f"exponent vector {exps} does not match arity {self.nvars}")
            c = self.field.scalar(coeff)
            if not c.is_zero():
                clean[tuple(exps)] = c
        return Poly(self, clean)

    @property
    def zero(self) -> "Poly":
        return Poly(self, {}, "0")

    @property
    def one(self) -> "Poly":
        return self.const(1)

    def const(self, value) -> "Poly":
        c = self.field.scalar(value)
        if c.is_zero():
            return self.zero
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name: str) -> "Poly":
        if name not in self._index:
            raise ContextError(f"unknown variable {name!r} in {self!r}")
        exps = [0] * self.nvars
        exps[self._index[name]] = 1
        return Poly(self, {tuple(exps): self.field.one})

    def monomial(self, exps: tuple[int, ...], coeff=1) -> "Poly":
        return self.poly({tuple(exps): self.field.scalar(coeff)})

    def parse(self, text: str) -> "Poly":
        p = _read_printed(self, text.strip())
        return _Parser(self, text).parse() if p is None else p


def _grade_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Poly:
    """A sparse multivariate polynomial; immutable after construction."""

    __slots__ = ("ring", "terms", "_text")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Scalar],
                 text: str | None = None):
        self.ring = ring
        self.terms = terms
        self._text = text    # the printed text, once printed or confirmed by the reader

    # -- predicates and views ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.constant_value() is not None and self.as_scalar().is_one()

    def constant_value(self) -> Scalar | None:
        """The scalar value if this is a constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            (exps, c), = self.terms.items()
            if all(e == 0 for e in exps):
                return c
        return None

    def as_scalar(self) -> Scalar:
        c = self.constant_value()
        if c is None:
            raise ContextError(f"{self} is not a constant")
        return c

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        i = self.ring._index[var]
        return max((e[i] for e in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        return sorted(self.terms.items(), key=lambda kv: _grade_key(kv[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], Scalar]:
        if not self.terms:
            raise ZeroDivisionError("zero polynomial has no leading term")
        exps = max(self.terms, key=_grade_key)
        return exps, self.terms[exps]

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise ContextError(f"operands live in {self.ring!r} vs {other.ring!r}")

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in o.terms.items():
            s = terms.get(exps)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(exps, None)
            else:
                terms[exps] = s
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def scalar_mul(self, c) -> "Poly":
        c = self.ring.field.scalar(c)
        if c.is_zero():
            return self.ring.zero
        return Poly(self.ring, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = self.ring.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset((e, str(c)) for e, c in self.terms.items())))

    # -- substitution and evaluation ---------------------------------------------

    def substitute(self, var: str, value) -> "Poly":
        """Replace one variable by a polynomial (Horner in that variable)."""
        val = self._coerce(value)
        if val is None:
            raise TypeError(f"cannot substitute {value!r}")
        coeffs = self.coefficients_in(var)
        if not coeffs:
            return self
        result = self.ring.zero
        for k in range(max(coeffs), -1, -1):
            result = result * val + coeffs.get(k, self.ring.zero)
        return result

    def evaluate(self, point: dict[str, object]) -> Scalar:
        """Evaluate with every variable assigned a scalar."""
        missing = [v for v in self.ring.variables if v not in point]
        if missing:
            raise ContextError(f"evaluate needs values for {missing}")
        vals = [self.ring.field.scalar(point[v]) for v in self.ring.variables]
        total = self.ring.field.zero
        for exps, c in self.terms.items():
            acc = c
            for v, e in zip(vals, exps):
                if e:
                    acc = acc * v**e
            total = total + acc
        return total

    def coefficient_in(self, var: str, k: int) -> "Poly":
        """The coefficient of var**k, as a polynomial with that slot cleared."""
        i = self.ring._index[var]
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                e = list(exps)
                e[i] = 0
                out[tuple(e)] = c
        return Poly(self.ring, out)

    def coefficients_in(self, var: str) -> dict[int, "Poly"]:
        i = self.ring._index[var]
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            e = list(exps)
            k = e[i]
            e[i] = 0
            buckets.setdefault(k, {})[tuple(e)] = c
        return {k: Poly(self.ring, t) for k, t in buckets.items()}

    def divmod_in(self, var: str, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Long division by a divisor that is monic in ``var``."""
        self._check(divisor)
        d = divisor.degree_in(var)
        if d < 0:
            raise DivisionError("division by zero polynomial")
        lead = divisor.coefficient_in(var, d)
        if not lead.is_one():
            raise DivisionError(f"divisor is not monic in {var}: leading coefficient {lead}")
        v = self.ring.var(var)
        quo = self.ring.zero
        rem = self
        while rem.degree_in(var) >= d:
            k = rem.degree_in(var)
            top = rem.coefficient_in(var, k)
            piece = top * v ** (k - d)
            quo = quo + piece
            rem = rem - piece * divisor
        return quo, rem

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = self._print()
        return text

    def _print(self) -> str:
        """The canonical text: terms in descending graded-lex order."""
        if not self.terms:
            return "0"
        variables = self.ring.variables
        parts = [_term_text(variables, e, c) for e, c in self.sorted_terms()]
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p[0] == "-" else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _term_text(variables: tuple[str, ...], exps: tuple[int, ...], coeff: Scalar) -> str:
    """One nonzero term as the printer writes it, led by ``-`` when negative."""
    mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)
    cs = coeff.coeffs
    if mono and not any(cs[1:]):     # a rational coefficient 1 or -1 is not written
        if cs[0] == 1:
            return mono
        if cs[0] == -1:
            return f"-{mono}"
    text = str(coeff)
    if coeff.n_terms() > 1:
        text = f"({text})"
    return f"{text}*{mono}" if mono else text


def exact_divide(p: Poly, q: Poly) -> Poly:
    """Return s with q*s == p, or raise DivisionError naming the remainder."""
    p._check(q)
    if q.is_zero():
        raise DivisionError("exact division by zero")
    quo_terms: dict[tuple[int, ...], Scalar] = {}
    rem = p
    q_exps, q_coeff = q.leading()
    while not rem.is_zero():
        r_exps, r_coeff = rem.leading()
        diff = tuple(a - b for a, b in zip(r_exps, q_exps))
        if any(d < 0 for d in diff):
            raise DivisionError(
                f"non-exact division: remainder term {Poly(p.ring, {r_exps: r_coeff})}",
                remainder=rem,
            )
        c = r_coeff / q_coeff
        quo_terms[diff] = c
        rem = rem - Poly(p.ring, {diff: c}) * q
    return Poly(p.ring, quo_terms)


def clear_denominators(field: ScalarField,
                       polys: list[Poly]) -> tuple[int, tuple[int, ...], list]:
    """Integer coefficients for exact arithmetic modulo Phi_r.

    Returns ``(den, modulus, cleared)``: ``den`` is the lcm of every
    coefficient denominator in ``polys`` (1 when there are none), ``modulus``
    the coefficients of Phi_r below its leading 1 as ints, low degree first,
    and ``cleared`` holds, per polynomial, its terms as ``(exponents,
    vector)`` with ``vector`` the int components of den * coefficient.
    Raises FieldError when the modulus is not integral, since integer
    arithmetic modulo Phi_r needs it to be.
    """
    if any(c.denominator != 1 for c in field.modulus):
        raise FieldError(f"modulus of {field} is not integral")
    den = 1
    for p in polys:
        for coeff in p.terms.values():
            for q in coeff.coeffs:
                if q.denominator != 1:
                    den = lcm(den, q.denominator)
    cleared = [[(exps, [q.numerator * (den // q.denominator) for q in coeff.coeffs])
                for exps, coeff in p.terms.items()] for p in polys]
    return den, tuple(int(c) for c in field.modulus[:-1]), cleared


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# The largest total degree the parser expands, in a power or in a product.
# Generated instance files and their bundles stay at or below degree 8 for
# r <= 8; the cap is ten times that, so that a hostile entry such as
# ``(x+y+1)^100000`` or ``x^1000000000`` fails at once instead of expanding.
MAX_DEGREE = 80

# The most term products (terms of one factor times terms of the other) the
# parser spends on one multiplication.  The degree cap alone does not bound
# work: ``(x+y+z+w+1)^16`` stays under it and takes minutes to expand.
# Generated instance files and their bundles multiply monomials only, one term
# product each; with this cap, hostile powers fail within a tenth of a second.
MAX_TERM_PRODUCTS = 1000

# The largest coefficient the parser reads or builds, in bits of a numerator
# or denominator.  Neither budget above bounds it: ``(10^60*x + 1)^80`` stays
# under both, and its coefficients, or the square of two 3000-digit numerals,
# have more digits than Python converts to text, so printing them crashed.
# Over 1,650 generated instance files and bundles (all six kinds, Q and
# Q(zeta_3), Q(zeta_4)) the largest coefficient has 10 bits; the cap is ten
# times that.  Every numeral is checked, and so is every product and power
# step before it is taken: m-bit by n-bit integers multiply to at least
# m + n - 1 bits, and a step is refused when that exceeds the cap, so a
# factor with coefficient 1 costs nothing.
MAX_COEFF_BITS = 100


def _scalar_bits(c: Scalar) -> int:
    """Bits of the largest numerator or denominator among c's components."""
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in c.coeffs)


def _coeff_bits(p: Poly) -> int:
    return max(map(_scalar_bits, p.terms.values()), default=0)


def _budgeted_product(p: Poly, q: Poly, pos: int) -> Poly:
    if len(p.terms) * len(q.terms) > MAX_TERM_PRODUCTS:
        raise ParseError(f"product of {len(p.terms)} by {len(q.terms)} terms exceeds "
                         f"{MAX_TERM_PRODUCTS} term products", pos)
    if _coeff_bits(p) + _coeff_bits(q) - 1 > MAX_COEFF_BITS:
        raise ParseError(f"product coefficients may exceed {MAX_COEFF_BITS} bits", pos)
    return p * q


_NUMERAL = re.compile(r"[0-9]+(?:/[0-9]+)?")
_EXPONENT = re.compile(r"[0-9]{1,2}")


def _read_printed(ring: PolyRing, text: str) -> Poly | None:
    """Read text in the form ``Poly.__str__`` prints, or return None.

    The text is a sum of signed terms joined by `` + `` and `` - ``; see
    :func:`_read_term` for one term.  Each signed term is read once per ring
    and memoised, so the repeated entries of a file cost a lookup each.
    When the text is canonical (every term printed as the printer writes it,
    the terms strictly descending in graded-lex order) the polynomial keeps
    it as its print.  Anything else, including every text past the parser's
    budgets, returns None and is left to :class:`_Parser`, the only source of
    ``ParseError``.
    """
    pieces = text.split(" ")
    if "(" in text:
        pieces = _join_groups(pieces)
        if pieces is None:
            return None
    if len(pieces) % 2 == 0:
        return None
    first = pieces[0]
    keys = [first if first[:1] == "-" else "+" + first]
    for i in range(1, len(pieces), 2):
        op = pieces[i]
        if op != "+" and op != "-":
            return None
        keys.append(op + pieces[i + 1])
    memo = ring._terms
    out: dict[tuple[int, ...], Scalar] = {}
    canonical = True
    last = None
    for key in keys:
        term = memo.get(key)
        if term is None:
            term = _read_term(ring, key)
            if term is None:
                return None
            memo[key] = term
        exps, c, grade, printed = term
        if canonical:
            canonical = printed and (last is None or grade < last)
            last = grade
        if c is None:
            continue
        s = out.get(exps)
        if s is None:
            out[exps] = c
        else:
            s = s + c
            if s.is_zero():
                del out[exps]
            else:
                out[exps] = s
    return Poly(ring, out, text if canonical else None)


def _join_groups(pieces: list[str]) -> list[str] | None:
    """Rejoin the space-split pieces of each parenthesised coefficient."""
    out = []
    i = 0
    while i < len(pieces):
        j = i
        if "(" in pieces[i]:
            while ")" not in pieces[j]:
                j += 1
                if j == len(pieces):
                    return None
        out.append(" ".join(pieces[i:j + 1]))
        i = j + 1
    return out


def _read_term(ring: PolyRing, key: str) -> tuple | None:
    """``(exponents, coefficient, grade, printed)`` of one term, or None to decline.

    ``key`` is a sign, ``+`` or ``-``, and then a ``*``-product of unsigned
    numerals ``n`` or ``n/m``, variables ``v`` or ``v^k`` and ``zeta`` or
    ``zeta^k``, optionally led by a parenthesised sum of such terms without
    variables (a cyclotomic coefficient).  The coefficient is None when the
    term is zero.  ``grade`` is the graded-lex key of the exponents, and
    ``printed`` is true when the coefficient is nonzero and ``key`` is, sign
    included, exactly what the printer writes for the term.  Exponents of
    more than two digits, degrees above MAX_DEGREE, numerals ``Fraction``
    rejects and terms whose coefficient the parser would find past
    MAX_COEFF_BITS are declined.
    """
    body = key[1:]
    field = ring.field
    coeff = field.one
    if body[:1] != "(":
        factors = body.split("*")
    else:
        close = body.find(")")
        if close < 0 or "(" in body[1:close]:
            return None
        group = _read_printed(ring, body[1:close])
        if group is None or any(any(e) for e in group.terms):
            return None
        coeff = group.constant_value()
        rest = body[close + 1:]
        if rest[:1] not in ("", "*"):
            return None
        factors = rest[1:].split("*") if rest else []
    exps = [0] * ring.nvars
    degree = 0
    # the coefficient is multiplied up factor by factor, as the parser does,
    # and declined where the parser's coefficient-bit check would fail;
    # bits is 0 while the coefficient is still the implicit 1
    bits = _scalar_bits(coeff) if body[:1] == "(" else 0
    for factor in factors:
        base, caret, power = factor.partition("^")
        k = 1
        if caret:
            if not _EXPONENT.fullmatch(power):
                return None
            k = int(power)
            if k > MAX_DEGREE:
                return None
        value = None                     # a variable has coefficient 1
        if base == "zeta":
            value = field.zeta ** k
        elif base in ring._index:
            exps[ring._index[base]] += k
            degree += k
            if degree > MAX_DEGREE:
                return None
        elif caret or not _NUMERAL.fullmatch(base):
            return None
        else:
            try:
                value = field.scalar(Fraction(base))
            except (ValueError, ZeroDivisionError):   # too many digits, or n/0
                return None
        size = 1 if value is None else _scalar_bits(value)
        if size > MAX_COEFF_BITS or (bits and bits + size - 1 > MAX_COEFF_BITS):
            return None
        if value is not None:
            coeff = coeff * value if bits else value
            bits = _scalar_bits(coeff)
    if key[0] == "-":
        coeff = -coeff
    exps = tuple(exps)
    if coeff.is_zero():
        return exps, None, None, False
    text = _term_text(ring.variables, exps, coeff)
    return exps, coeff, _grade_key(exps), key == (text if text[0] == "-" else "+" + text)


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9']*)|(?P<op>[-+*^()]))"
)


class _Parser:
    def __init__(self, ring: PolyRing, text: str):
        self.ring = ring
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ParseError(f"bad character {text[pos]!r} in polynomial", pos)
                break
            pos = m.end()
            for kind in ("num", "name", "op"):
                if m.group(kind) is not None:
                    self.tokens.append((kind, m.group(kind), m.start(kind)))
                    break
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected {val!r} in polynomial", pos)
        return p

    def expr(self) -> Poly:
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Poly:
        p = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                q = self.unary()
                if p.total_degree() + q.total_degree() > MAX_DEGREE:
                    raise ParseError(f"product degree exceeds {MAX_DEGREE}", pos)
                p = _budgeted_product(p, q, pos)
            else:
                return p

    def unary(self) -> Poly:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Poly:
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.take()
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a natural number", pos)
            digits = val.lstrip("0")   # never convert an exponent of thousands of digits
            if len(digits) > len(str(MAX_DEGREE)) or \
                    int(val) * max(p.total_degree(), 1) > MAX_DEGREE:
                raise ParseError(f"power degree exceeds {MAX_DEGREE}", pos)
            # step by step, so the budget is checked before each expansion
            power = self.ring.one
            for _ in range(int(val)):
                power = _budgeted_product(power, p, pos)
            return power
        return p

    def atom(self) -> Poly:
        kind, val, pos = self.take()
        if kind == "num":
            try:
                numeral = Fraction(val)
            except ValueError:   # more digits than int() converts
                raise ParseError(f"number of {len(val)} characters is too long", pos) from None
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val!r}", pos) from None
            if max(numeral.numerator.bit_length(), numeral.denominator.bit_length()) \
                    > MAX_COEFF_BITS:
                raise ParseError(f"number {val[:20]}... exceeds {MAX_COEFF_BITS} bits", pos)
            return self.ring.const(numeral)
        if kind == "name":
            if val == "zeta":
                return self.ring.const(self.ring.field.zeta)
            try:
                return self.ring.var(val)
            except ContextError:
                raise ParseError(f"unknown variable {val!r}", pos) from None
        if kind == "op" and val == "(":
            p = self.expr()
            kind, val, pos = self.take()
            if val != ")":
                raise ParseError("missing closing parenthesis", pos)
            return p
        raise ParseError(f"unexpected token {val!r}", pos)
