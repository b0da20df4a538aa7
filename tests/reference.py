"""Small, obviously correct reference implementations for differential tests.

Fast kernels in ``mfcert`` are compared against these on random inputs.
They favour clarity over speed.  A polynomial here is a plain dict
``{exponents: coefficient vector}`` read off ``Poly.terms``: the vector holds
the ``Fraction`` coefficients of 1, zeta, ..., zeta^(deg - 1), and zero
coefficients are not stored.  Its arithmetic is written out below, with the
reduction modulo Phi_r by long division, so no kernel of ``mfcert`` is
checked against itself.  Field elements for the reference rank are
:class:`Scalar` values.
"""

from fractions import Fraction

from mfcert.scalars import Scalar


def scalar_rank(matrix: list[list[Scalar]]) -> int:
    """Rank over the scalar field, by Gauss-Jordan elimination."""
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = rows[row][col].inverse()
        rows[row] = [x * inv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[row])]
        rank += 1
        row += 1
        if row == len(rows):
            break
    return rank


class ScalarBlock:
    """Stand-in for the rank of ``exactness._IntegerBlock``, built on the reference rank.

    Takes the same sparse rows.  Each entry is evaluated in the reference
    form (:func:`ref_evaluate`) into a dense matrix of scalars whose rank is
    taken by :func:`scalar_rank`.
    """

    def __init__(self, rows, ncols, field, nvars):
        self.rows, self.ncols, self.field = rows, ncols, field

    def rank(self, values: list[int]) -> int:
        matrix = [[self.field.zero] * self.ncols for _ in self.rows]
        for dense, row in zip(matrix, self.rows):
            for j, p in row:
                dense[j] = Scalar(self.field, ref_evaluate(ref(p), values, self.field.degree))
        return scalar_rank(matrix)


# ---------------------------------------------------------------------------
# reference polynomials: {exponents: tuple of Fraction}, zeros not stored
# ---------------------------------------------------------------------------

def ref(p) -> dict:
    """A ``Poly`` in the reference form, read off its ``terms`` view."""
    return {exps: tuple(c.coeffs) for exps, c in p.terms.items()}


def refs(rows) -> list[list[dict]]:
    """A matrix of ``Poly`` entries in the reference form."""
    return [[ref(p) for p in row] for row in rows]


def ref_found(found):
    """A kernel's ``((i, j), Poly)`` result with the entry in the reference form."""
    if found is None:
        return None
    where, p = found
    return where, ref(p)


def ref_reduce(vector: list[Fraction], modulus) -> tuple[Fraction, ...]:
    """A coefficient vector (low degree first) modulo the monic ``modulus``.

    ``modulus`` is the coefficient tuple of Phi_r, low degree first, ending
    in its leading 1.  Long division: the top coefficient c of t^k is removed
    by subtracting c * t^(k - deg) * Phi_r, until the degree is below deg.
    """
    deg = len(modulus) - 1
    rem = list(vector)
    while len(rem) > deg:
        top = rem.pop()
        shift = len(rem) - deg
        for i in range(deg):
            rem[shift + i] -= top * modulus[i]
    return tuple(rem + [Fraction(0)] * (deg - len(rem)))


def _put(out: dict, exps, vector):
    """out[exps] += vector, dropping the entry when the sum is zero."""
    old = out.get(exps)
    if old is not None:
        vector = tuple(a + b for a, b in zip(old, vector))
    if any(vector):
        out[exps] = vector
    else:
        out.pop(exps, None)


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for exps, vector in b.items():
        _put(out, exps, vector)
    return out


def ref_neg(a: dict) -> dict:
    return {exps: tuple(-c for c in vector) for exps, vector in a.items()}


def ref_mul(a: dict, b: dict, modulus) -> dict:
    """The product: every pair of terms, coefficient vectors multiplied and reduced."""
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            product = [Fraction(0)] * (len(v1) + len(v2) - 1)
            for i, x in enumerate(v1):
                for j, y in enumerate(v2):
                    product[i + j] += x * y
            _put(out, tuple(s + t for s, t in zip(e1, e2)), ref_reduce(product, modulus))
    return out


def ref_evaluate(a: dict, values: list[int], deg: int) -> tuple[Fraction, ...]:
    """The value at a rational point, as a coefficient vector of length deg."""
    total = [Fraction(0)] * deg
    for exps, vector in a.items():
        m = Fraction(1)
        for x, e in zip(values, exps):
            m *= Fraction(x) ** e
        for k, c in enumerate(vector):
            total[k] += c * m
    return tuple(total)


# ---------------------------------------------------------------------------
# dense matrices of reference polynomials: the reference for the ParityMap kernels
# ---------------------------------------------------------------------------

def dense_compose(a, b, n_cols, modulus):
    """The product a * b of dense matrices, b with n_cols columns."""
    out = []
    for row in a:
        out_row = []
        for j in range(n_cols):
            acc = {}
            for k, x in enumerate(row):
                acc = ref_add(acc, ref_mul(x, b[k][j], modulus))
            out_row.append(acc)
        out.append(out_row)
    return out


def dense_add(a, b):
    return [[ref_add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def dense_neg(a):
    return [[ref_neg(x) for x in row] for row in a]


def dense_scale(a, c, modulus):
    return [[ref_mul(x, c, modulus) for x in row] for row in a]


def dense_transpose(a, n_cols):
    return [[row[i] for row in a] for i in range(n_cols)]


def dense_shift(a, source, target):
    """Reindex the entries of a map source -> target for the shifted modules."""
    sp, tp = source.shift_perm(), target.shift_perm()
    out = [[{}] * source.total_rank for _ in range(target.total_rank)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            out[tp[i]][sp[j]] = x
    return out


def dense_scalar(c, n):
    """c times the n x n identity."""
    return [[c if i == j else {} for j in range(n)] for i in range(n)]


def first_nonzero(a):
    """Row-major first nonzero entry of a dense matrix, as ((i, j), entry)."""
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                return (i, j), x
    return None
