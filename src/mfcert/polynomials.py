"""Sparse multivariate polynomials over Q or Q(zeta_r), in one integer form.

A :class:`Poly` of a :class:`PolyRing` (a field and ordered variable names)
is one positive int ``den`` over a dict ``nums`` from packed keys to nonzero
ints, with ``gcd(den, every numerator) == 1``, so equality is syntactic.  A
key packs a monomial's exponents into 16-bit slots above a lowest slot for
the power of zeta, which stays below deg Phi_r; Q is the case deg = 1.  A
monomial product is one integer add (packed exponent vectors, Monagan and
Pearce, CASC 2007) and zeta powers of deg and up fold back by the integral
Phi_r; one denominator over int numerators is FLINT's ``fmpq_poly`` layout.
A factor with an exponent of 2^15 or more raises OverflowError before a
product, so no slot carries into the next.  Only this module knows the
layout: the map kernels build their results with :func:`normalised` and
:func:`fold`, ``PolyRing.poly`` builds a polynomial from ``{exponents:
coefficient}``, and ``Poly.terms`` is the ``{exponents: Scalar}`` view back
for readers outside them.

The printer groups the keys by monomial and writes the monomials in graded
lexicographic order of the declared variables, so string output is
canonical and ``ring.parse(str(p)) == p`` exactly.  A polynomial keeps its printed text in
one private slot, so ``str`` prints each object at most once: a digest and
the bundle writer share that one print.  The ring keeps a print memo from
each printed value, its denominator and the frozenset of its numerators, to
its text, so equal polynomials reached by a parse, a product or a sum are
printed once per ring; like the term memo, it holds no ``Poly``.

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
MAX_DEGREE, a numeral of more digits than ``int`` converts, a zero
denominator), it declines, and the token parser ``_Parser`` reads the text.
That parser takes hand-written expressions (parentheses around sums, powers
of groups, any spacing) and is the only source of ``ParseError`` and its
position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import itemgetter, or_

from .scalars import FieldError, Scalar, ScalarField

LAMBDA = "lambda"  # reserved deformation-parameter variable name

# The key layout: one slot per variable above the lowest slot, which holds
# the power of zeta.  A product adds two keys, so a factor may not hold an
# exponent of _SLOT_HALF or more: then no sum reaches the next slot.
_SLOT_BITS = 16
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_SLOT_HALF = 1 << (_SLOT_BITS - 1)


class ContextError(ValueError):
    """Operands do not share a variable context."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message)
        self.pos = pos


def int_modulus(field: ScalarField) -> tuple[int, ...]:
    """Phi_r below its leading 1 as ints, low degree first; FieldError if not integral."""
    if any(c.denominator != 1 for c in field.modulus):
        raise FieldError(f"modulus of {field} is not integral")
    return tuple(int(c) for c in field.modulus[:-1])


def _zeta_folds(modulus: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """t^deg, ..., t^(2 deg - 2) reduced modulo the monic integral Phi_r.

    ``modulus`` is :func:`int_modulus`; entry z - deg of the result is the
    coefficient vector of t^z, low degree first.  These are the zeta powers a
    product of two reduced coefficients reaches.
    """
    deg = len(modulus)
    folds = []
    power = [0] * (deg - 1) + [1]          # t^(deg-1)
    for _ in range(deg - 1):
        top = power[-1]                    # t * power, then t^deg = -sum m_i t^i
        power = [0] + power[:-1]
        power = [x - top * m for x, m in zip(power, modulus)]
        folds.append(tuple(power))
    return tuple(folds)


def fold(nums: dict[int, int], folds):
    """Fold zeta powers of deg and up back below deg by Phi_r, in place.

    ``folds`` is ``ring.folds``, one vector per power from deg to 2 deg - 2
    (none over Q); folded keys are left at 0 for :func:`normalised` to drop.
    """
    deg = len(folds) + 1
    for key, c in list(nums.items()):
        z = key & _SLOT_MASK
        if z >= deg and c:
            base = key - z
            for i, m in enumerate(folds[z - deg]):
                if m:
                    nums[base + i] = nums.get(base + i, 0) + c * m
            nums[key] = 0


def _pack(exps) -> int:
    """The key of a monomial, with the zeta slot empty."""
    key = 0
    for e in reversed(exps):
        if not 0 <= e <= _SLOT_MASK:
            raise OverflowError(f"exponent {e} does not fit a {_SLOT_BITS}-bit slot")
        key = (key | e) << _SLOT_BITS
    return key


def split_key(key: int, nvars: int) -> tuple[tuple[int, ...], int]:
    """``(exponents, zeta power)`` of a key."""
    return (tuple((key >> (_SLOT_BITS * (i + 1))) & _SLOT_MASK for i in range(nvars)),
            key & _SLOT_MASK)


def check_room(keys, ring: "PolyRing"):
    """Raise OverflowError if a key holds an exponent a product could carry out of its slot."""
    if reduce(or_, keys, 0) & ring._high:
        raise OverflowError(f"an exponent of {_SLOT_HALF} or more leaves its "
                            f"{_SLOT_BITS}-bit slot no room for a product")


def normalised(ring: "PolyRing", den: int, nums: dict[int, int]) -> "Poly":
    """The polynomial nums / den (den > 0): zeros dropped, common factors cancelled."""
    nums = {k: n for k, n in nums.items() if n}
    if not nums:
        return Poly(ring, 1, nums)
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return Poly(ring, den, nums)


class PolyRing:
    """A polynomial ring: scalar field + ordered variable names."""

    __slots__ = ("field", "variables", "key_bits", "_index", "_high", "_folds", "_terms",
                 "_monos", "_prints")

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
        # the width of a packed key: every product of two factors stays below 2^key_bits
        self.key_bits = _SLOT_BITS * (len(variables) + 1)
        # the top bit of every variable slot: a factor must hold none of them
        self._high = sum(_SLOT_HALF << (_SLOT_BITS * (i + 1)) for i in range(len(variables)))
        self._folds = None
        # term reader memo: signed term text -> (den, nums or None when the
        # term is 0, grade key, whether the text is what the printer writes)
        self._terms: dict[str, tuple] = {}
        # printer memos: key >> _SLOT_BITS -> (grade key, monomial text), and
        # (den, frozenset of nums items) -> the printed text of that polynomial
        self._monos: dict[int, tuple] = {}
        self._prints: dict[tuple, str] = {}

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def folds(self) -> tuple[tuple[int, ...], ...]:
        """:func:`_zeta_folds` of this ring's field, built on first use."""
        if self._folds is None:
            self._folds = _zeta_folds(int_modulus(self.field))
        return self._folds

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.field == other.field and self.variables == other.variables

    def __hash__(self) -> int:
        return hash((self.field, self.variables))

    def __repr__(self) -> str:
        return f"{self.field!r}[{', '.join(self.variables)}]"

    # -- constructors ---------------------------------------------------------

    def poly(self, terms: dict[tuple[int, ...], object]) -> "Poly":
        """The polynomial with coefficients (int, Fraction or Scalar) on exponent vectors."""
        vectors = []
        for exps, coeff in terms.items():
            if len(exps) != self.nvars:
                raise ContextError(f"exponent vector {exps} does not match arity {self.nvars}")
            vectors.append((_pack(exps), self.field.scalar(coeff).coeffs))
        den = lcm(*(c.denominator for _, cs in vectors for c in cs))
        return normalised(self, den, {mono + z: c.numerator * (den // c.denominator)
                                      for mono, cs in vectors for z, c in enumerate(cs)})

    @property
    def zero(self) -> "Poly":
        return Poly(self, 1, {}, "0")

    @property
    def one(self) -> "Poly":
        return Poly(self, 1, {0: 1})

    def const(self, value) -> "Poly":
        if isinstance(value, int):
            return Poly(self, 1, {0: value} if value else {})
        if isinstance(value, Fraction):
            return normalised(self, value.denominator, {0: value.numerator})
        return self.poly({(0,) * self.nvars: value})

    def var(self, name: str) -> "Poly":
        if name not in self._index:
            raise ContextError(f"unknown variable {name!r} in {self!r}")
        return Poly(self, 1, {1 << (_SLOT_BITS * (self._index[name] + 1)): 1})

    @property
    def zeta(self) -> "Poly":
        """The field's root of unity as a constant: 1 or -1 when deg = 1."""
        if self.field.degree == 1:
            return self.const(1 if self.field.order == 1 else -1)
        return Poly(self, 1, {1: 1})

    def parse(self, text: str) -> "Poly":
        p = _read_printed(self, text.strip())
        return _Parser(self, text).parse() if p is None else p


def _grade_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class Poly:
    """A sparse multivariate polynomial ``nums / den``; immutable after construction."""

    __slots__ = ("ring", "den", "nums", "_text")

    def __init__(self, ring: PolyRing, den: int, nums: dict[int, int],
                 text: str | None = None):
        self.ring = ring
        self.den = den       # positive, coprime to the numerators together
        self.nums = nums     # packed key -> nonzero int numerator
        self._text = text    # the printed text, once printed or confirmed by the reader

    # -- predicates and views ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        """``{exponents: Scalar}``, built on each call; for readers outside the kernels."""
        field, den = self.ring.field, self.den
        vectors: dict[tuple[int, ...], list[int]] = {}
        for key, n in self.nums.items():
            exps, z = split_key(key, self.ring.nvars)
            vectors.setdefault(exps, [0] * field.degree)[z] = n
        return {exps: Scalar(field, tuple(Fraction(n, den) for n in vector))
                for exps, vector in vectors.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def is_one(self) -> bool:
        return self.den == 1 and len(self.nums) == 1 and self.nums.get(0) == 1

    def total_degree(self) -> int:
        nvars = self.ring.nvars
        return max((sum(split_key(key, nvars)[0]) for key in self.nums), default=-1)

    def degree_in(self, var: str) -> int:
        shift = _SLOT_BITS * (self.ring._index[var] + 1)
        return max(((key >> shift) & _SLOT_MASK for key in self.nums), default=-1)

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
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
        den = self.den if self.den == o.den else lcm(self.den, o.den)
        left, right = den // self.den, den // o.den
        nums = dict(self.nums) if left == 1 else {k: n * left for k, n in self.nums.items()}
        get = nums.get
        for k, n in o.nums.items():
            nums[k] = get(k, 0) + n * right
        return normalised(self.ring, den, nums)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        check_room(self.nums, ring)
        check_room(o.nums, ring)
        out: dict[int, int] = {}
        get = out.get
        right = o.nums.items()
        for k1, n1 in self.nums.items():
            for k2, n2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + n1 * n2
        if ring.field.degree > 1:
            fold(out, ring.folds)
        return normalised(ring, self.den * o.den, out)

    __rmul__ = __mul__

    def scalar_mul(self, c) -> "Poly":
        return self * self.ring.const(c)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = self.ring.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Scalar)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.ring, self.den, frozenset(self.nums.items())))

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
        shift = _SLOT_BITS * (self.ring._index[var] + 1)
        return normalised(self.ring, self.den, {key - (k << shift): n
                                                for key, n in self.nums.items()
                                                if (key >> shift) & _SLOT_MASK == k})

    def coefficients_in(self, var: str) -> dict[int, "Poly"]:
        shift = _SLOT_BITS * (self.ring._index[var] + 1)
        buckets: dict[int, dict[int, int]] = {}
        for key, n in self.nums.items():
            k = (key >> shift) & _SLOT_MASK
            buckets.setdefault(k, {})[key - (k << shift)] = n
        return {k: normalised(self.ring, self.den, t) for k, t in buckets.items()}

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        text = self._text
        if text is None:
            prints = self.ring._prints
            key = (self.den, frozenset(self.nums.items()))
            text = prints.get(key)
            if text is None:
                text = prints[key] = self._print()
            self._text = text
        return text

    def _print(self) -> str:
        """The canonical text: terms in descending graded-lex order."""
        if not self.nums:
            return "0"
        ring = self.ring
        groups: dict[int, dict[int, int]] = {}
        for key, n in self.nums.items():
            groups.setdefault(key >> _SLOT_BITS, {})[key & _SLOT_MASK] = n
        terms = sorted(((_monomial(ring, mono), comps) for mono, comps in groups.items()),
                       key=itemgetter(0), reverse=True)
        return _joined([_term_text(mono, self.den, comps) for (_, mono), comps in terms])

    def __repr__(self) -> str:
        return f"Poly({self})"


def _monomial(ring: PolyRing, mono: int) -> tuple:
    """``(grade key, text)`` of the monomial with key ``mono << _SLOT_BITS``, memoised."""
    entry = ring._monos.get(mono)
    if entry is None:
        exps = split_key(mono << _SLOT_BITS, ring.nvars)[0]
        text = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(ring.variables, exps) if e)
        entry = ring._monos[mono] = (_grade_key(exps), text)
    return entry


def _joined(parts: list[str]) -> str:
    """Signed pieces joined as the printer joins them, by `` + `` and `` - ``."""
    return parts[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in parts[1:])


def _fraction_text(n: int, den: int) -> str:
    """n / den in lowest terms, as ``str(Fraction)`` writes it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _term_text(mono: str, den: int, comps: dict[int, int]) -> str:
    """One nonzero term as the printer writes it, led by ``-`` when negative.

    ``comps`` maps each zeta power to its nonzero numerator over ``den``.
    """
    if mono and len(comps) == 1 and abs(comps.get(0, 0)) == den:
        return mono if comps[0] > 0 else f"-{mono}"   # a rational 1 or -1 is not written
    parts = []
    for k in sorted(comps):
        n, power = comps[k], "zeta" if k == 1 else f"zeta^{k}"
        if k == 0:
            parts.append(_fraction_text(n, den))
        elif abs(n) == den:
            parts.append(power if n > 0 else f"-{power}")
        else:
            parts.append(f"{_fraction_text(n, den)}*{power}")
    text = _joined(parts)
    if len(parts) > 1:
        text = f"({text})"
    return f"{text}*{mono}" if mono else text


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

# The deepest nesting the parser descends: open parentheses plus unary minus
# signs, counted with the term they lead to.  The parser recurses once per
# level, so a cell nested 200 deep or led by 1,000 minus signs overflowed the
# stack.  Over 324 generated instance files and their bundles (all six kinds,
# Q, Q(zeta_3) and Q(zeta_4)) the deepest cell, ``(-1 - 2*zeta)*xh1``,
# reaches 3 levels; the cap is ten times that.
MAX_NESTING = 30


def _coeff_bits(p: Poly) -> int:
    """Bits of the widest numerator or denominator of p's coefficients in lowest terms."""
    den, bits = p.den, 0
    for n in p.nums.values():
        g = gcd(n, den)
        bits = max(bits, (n // g).bit_length(), (den // g).bit_length())
    return bits


def _budgeted_product(p: Poly, q: Poly, pos: int) -> Poly:
    n, m = (len({key >> _SLOT_BITS for key in f.nums}) for f in (p, q))   # monomials
    if n * m > MAX_TERM_PRODUCTS:
        raise ParseError(f"product of {n} by {m} terms exceeds "
                         f"{MAX_TERM_PRODUCTS} term products", pos)
    if _coeff_bits(p) + _coeff_bits(q) - 1 > MAX_COEFF_BITS:
        raise ParseError(f"product coefficients may exceed {MAX_COEFF_BITS} bits", pos)
    return p * q


def _numeral(text: str) -> tuple[int, int]:
    """``n`` or ``n/m`` in lowest terms; raises as ``Fraction`` does, in its order."""
    num, _, den = text.partition("/")
    n, d = int(num), int(den) if den else 1
    if d == 0:
        raise ZeroDivisionError(text)
    g = gcd(n, d)
    return n // g, d // g


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
    parts = []
    canonical = True
    last = None
    for key in keys:
        term = memo.get(key)
        if term is None:
            term = _read_term(ring, key)
            if term is None:
                return None
            memo[key] = term
        den, nums, grade, printed = term
        if canonical:
            canonical = printed and (last is None or grade < last)
            last = grade
        if nums is not None:
            parts.append((den, nums))
    if len(parts) == 1:
        den, nums = parts[0]
        return Poly(ring, den, nums, text if canonical else None)
    den = lcm(*(d for d, _ in parts))
    out: dict[int, int] = {}
    get = out.get
    for d, nums in parts:
        scale = den // d
        for k, n in nums.items():
            out[k] = get(k, 0) + n * scale
    if canonical:
        # distinct monomials: no sum cancels, and each term's own normal form
        # keeps a numerator off every prime of the lcm
        return Poly(ring, den, out, text)
    return normalised(ring, den, out)


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
    """``(den, nums, grade, printed)`` of one term, or None to decline.

    ``key`` is a sign, ``+`` or ``-``, and then a ``*``-product of unsigned
    numerals ``n`` or ``n/m``, variables ``v`` or ``v^k`` and ``zeta`` or
    ``zeta^k``, optionally led by a parenthesised sum of such terms without
    variables (a cyclotomic coefficient).  The term is ``nums / den``, with
    ``nums`` None when it is zero; ``grade`` is its graded-lex key, and
    ``printed`` true when ``key`` is, sign included, exactly what the printer
    writes for the nonzero term.  The memo keeps no ``Poly``, so no ring
    refers to itself.
    Exponents of more than two digits, degrees above MAX_DEGREE, numerals
    ``Fraction`` rejects and coefficients the parser would find past
    MAX_COEFF_BITS are declined.
    """
    body = key[1:]
    coeff = ring.one
    if body[:1] != "(":
        factors = body.split("*")
    else:
        close = body.find(")")
        if close < 0 or "(" in body[1:close]:
            return None
        coeff = _read_printed(ring, body[1:close])
        if coeff is None or any(k >> _SLOT_BITS for k in coeff.nums):
            return None
        rest = body[close + 1:]
        if rest[:1] not in ("", "*"):
            return None
        factors = rest[1:].split("*") if rest else []
    exps = [0] * ring.nvars
    degree = 0
    # the coefficient is multiplied up factor by factor, as the parser does,
    # and declined where the parser's coefficient-bit check would fail; bits
    # is 0 while the coefficient is still the implicit 1, and a coefficient
    # 0 counts 1 bit, as its denominator does
    bits = max(_coeff_bits(coeff), 1) if body[:1] == "(" else 0
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
            value = ring.zeta ** k
        elif base in ring._index:
            exps[ring._index[base]] += k
            degree += k
            if degree > MAX_DEGREE:
                return None
        elif caret or not _NUMERAL.fullmatch(base):
            return None
        else:
            try:
                n, d = _numeral(base)
            except (ValueError, ZeroDivisionError):   # too many digits, or n/0
                return None
            value = normalised(ring, d, {0: n})
        size = 1 if value is None else max(_coeff_bits(value), 1)
        if size > MAX_COEFF_BITS or (bits and bits + size - 1 > MAX_COEFF_BITS):
            return None
        if value is not None:
            coeff = coeff * value if bits else value
            bits = max(_coeff_bits(coeff), 1)
    if not coeff.nums:
        return 1, None, None, False
    mono = _pack(exps)
    sign = -1 if key[0] == "-" else 1
    comps = {z: sign * n for z, n in coeff.nums.items()}
    grade, mono_text = _monomial(ring, mono >> _SLOT_BITS)
    text = _term_text(mono_text, coeff.den, comps)
    return (coeff.den, {mono + z: n for z, n in comps.items()}, grade,
            key == (text if text[0] == "-" else "+" + text))


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
        self.depth = 0

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
        # one level per term, and one more per open parenthesis or unary minus around it
        kind, val, pos = self.peek()
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting exceeds {MAX_NESTING} levels", pos)
        self.depth += 1
        if kind == "op" and val == "-":
            self.take()
            p = -self.unary()
        else:
            p = self.power()
        self.depth -= 1
        return p

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
                n, d = _numeral(val)
            except ValueError:   # more digits than int() converts
                raise ParseError(f"number of {len(val)} characters is too long", pos) from None
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in {val!r}", pos) from None
            if max(n.bit_length(), d.bit_length()) > MAX_COEFF_BITS:
                raise ParseError(f"number {val[:20]}... exceeds {MAX_COEFF_BITS} bits", pos)
            return normalised(self.ring, d, {0: n})
        if kind == "name":
            if val == "zeta":
                return self.ring.zeta
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
