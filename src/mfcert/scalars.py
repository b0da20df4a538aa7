"""Exact scalar fields, the rationals and their cyclotomic extensions.

A scalar field here is Q[t]/(Phi_r(t)) where Phi_r is the r-th cyclotomic
polynomial.  For r = 1 or 2 the quotient is Q itself (with the distinguished
root of unity 1 resp. -1); for larger r it is a proper extension carrying a
primitive r-th root of unity ``zeta``.  :class:`ScalarField` describes the
field: its order, Phi_r and degree.  A :class:`Scalar` is one field element,
a coefficient vector of length deg(Phi_r) over reduced fractions, so
equality is syntactic.  Polynomials do not store scalars (they hold one
integer form, see ``polynomials``): a Scalar is what ``PolyRing.const``
takes, what ``roots_of_unity`` returns, and what ``Poly.evaluate`` and the
``Poly.terms`` view give back.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    """Requested field operation is not available (bad order, missing roots)."""


_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# dense univariate helpers over Fraction, coefficients low degree -> high
# ---------------------------------------------------------------------------

def _trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _umul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb == 0:
                continue
            out[i + j] += ca * cb
    return _trim(out)


def _udivmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("univariate division by zero polynomial")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        k = len(rem) - len(b)
        quo[k] = c
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
        _trim(rem)
        if not rem:
            break
    return _trim(quo), rem


def _uxgcd(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """Extended gcd: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _udivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x - y for x, y in _zip_pad(s0, _umul(q, s1))])
        t0, t1 = t1, _trim([x - y for x, y in _zip_pad(t0, _umul(q, t1))])
    return r0, s0, t0


def _zip_pad(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    za = a + [Fraction(0)] * (n - len(a))
    zb = b + [Fraction(0)] * (n - len(b))
    return zip(za, zb)


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(r: int) -> tuple[Fraction, ...]:
    """Coefficients of the r-th cyclotomic polynomial, exact and monic."""
    if r < 1:
        raise FieldError(f"cyclotomic order must be >= 1, got {r}")
    # x^r - 1 divided by the product of Phi_d over proper divisors d of r
    num = [Fraction(-1)] + [Fraction(0)] * (r - 1) + [Fraction(1)]
    den = [Fraction(1)]
    for d in range(1, r):
        if r % d == 0:
            den = _umul(den, list(_cyclotomic_coeffs(d)))
    quo, rem = _udivmod(num, den)
    if rem:
        raise FieldError(f"cyclotomic division left a remainder for r={r}")
    return tuple(quo)


class ScalarField:
    """Q(zeta_r), represented as Q[t] modulo the r-th cyclotomic polynomial."""

    __slots__ = ("order", "modulus", "degree")

    def __init__(self, order: int):
        if order < 1:
            raise FieldError(f"field order must be a positive integer, got {order}")
        self.order = order
        self.modulus = _cyclotomic_coeffs(order)
        self.degree = len(self.modulus) - 1

    def __repr__(self) -> str:
        return "Q" if self.degree == 1 else f"Q(zeta_{self.order})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarField):
            return NotImplemented
        # all degree-1 quotients are plain Q regardless of their labelled order
        if self.degree == 1 and other.degree == 1:
            return True
        return self.order == other.order

    def __hash__(self) -> int:
        return hash(("ScalarField", 1 if self.degree == 1 else self.order))

    # -- element constructors ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field != self:
                if value.field.degree == 1:
                    return self.scalar(value.coeffs[0])
                raise FieldError(f"cannot coerce {value} from {value.field} into {self}")
            return value
        if isinstance(value, (int, Fraction)):
            coeffs = [Fraction(value)] + [Fraction(0)] * (self.degree - 1)
            return Scalar(self, tuple(coeffs))
        raise TypeError(f"cannot build a scalar from {value!r}")

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    @property
    def zeta(self) -> "Scalar":
        """The distinguished primitive root of unity of this field's order."""
        if self.degree == 1:
            # t = 1 mod (t - 1); t = -1 mod (t + 1)
            return self.scalar(1 if self.order == 1 else -1)
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return Scalar(self, tuple(coeffs))

    # -- internal coefficient-vector arithmetic -------------------------------

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        _, rem = _udivmod(coeffs, list(self.modulus))
        rem = rem + [Fraction(0)] * (self.degree - len(rem))
        return tuple(rem)

    def _inv(self, coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        a = _trim(list(coeffs))
        if not a:
            raise ZeroDivisionError("scalar division by zero")
        g, s, _ = _uxgcd(a, list(self.modulus))
        if len(g) != 1:
            raise FieldError("cyclotomic modulus is irreducible, gcd must be constant")
        inv = [c / g[0] for c in s]
        return self._reduce(inv)


@lru_cache(maxsize=None)
def cyclotomic_field(r: int) -> ScalarField:
    """The field Q(zeta_r); for r <= 2 this is Q with zeta = +/-1."""
    return ScalarField(r)


def rationals() -> ScalarField:
    return cyclotomic_field(1)


class Scalar:
    """An exact field element: a reduced coefficient vector over Q."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ScalarField, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != field.degree:
            raise FieldError(f"{field} needs {field.degree} coefficients, got {len(coeffs)}")
        self.field = field
        self.coeffs = coeffs

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            if other.field == self.field:
                return other
            if other.field.degree == 1:
                return self.field.scalar(other.coeffs[0])
            if self.field.degree == 1:
                return None  # handled by reflected op
            raise FieldError(f"mixing scalars of {self.field} and {other.field}")
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        if field.degree == 1:
            return Scalar(field, (self.coeffs[0] * o.coeffs[0],))
        prod = _umul(list(self.coeffs), list(o.coeffs))
        if len(prod) <= field.degree:
            prod = prod + [_ZERO] * (field.degree - len(prod))
            return Scalar(field, tuple(prod))
        return Scalar(field, field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field._inv(self.coeffs))

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.field != other.field:
            if self.is_rational() and other.is_rational():
                return self.coeffs[0] == other.coeffs[0]
            return False
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if self.field.degree == 1:
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = "zeta" if k == 1 else f"zeta^{k}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Scalar({self})"


def roots_of_unity(field: ScalarField, r: int) -> list[Scalar]:
    """All r distinct solutions of x^r = 1 in the field, deterministically ordered.

    The product of (t - xi) over the returned list is t^r - 1; the field must
    contain a primitive r-th root for this to be possible.
    """
    if r < 1:
        raise FieldError(f"need r >= 1, got {r}")
    if r == 1:
        return [field.one]
    n = field.order if field.degree > 1 else 1
    if field.degree > 1 and n % r == 0:
        gen = field.zeta ** (n // r)
    else:
        # the torsion group of Q(zeta_n) is cyclic of order lcm(2, n)
        m = n if n % 2 == 0 else 2 * n
        if m % r != 0:
            raise FieldError(f"{field} contains no primitive {r}-th root of unity")
        torsion_gen = -field.zeta if field.degree > 1 else field.scalar(-1)
        gen = torsion_gen ** (m // r)
    roots = [gen**k for k in range(r)]
    if len({str(x) for x in roots}) != r:
        raise FieldError(f"powers of {gen} are not {r} distinct roots of unity")
    return roots
