"""Small, obviously correct reference implementations for differential tests.

Fast kernels in ``mfcert`` are compared against these on random inputs.
They use :class:`Scalar` arithmetic throughout and favour clarity over speed.
"""

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
    """Stand-in for ``complexes._IntegerBlock`` built on the reference rank.

    Takes the same sparse rows.  Each entry is evaluated with
    ``Poly.evaluate`` into a dense matrix whose rank is taken by
    :func:`scalar_rank`, as the sampler did before its integer kernel.
    """

    def __init__(self, rows, ncols, field, nvars):
        self.rows, self.ncols, self.field = rows, ncols, field

    def rank(self, values: list[int]) -> int:
        matrix = [[self.field.zero] * self.ncols for _ in self.rows]
        for dense, row in zip(matrix, self.rows):
            for j, p in row:
                dense[j] = p.evaluate(dict(zip(p.ring.variables, values)))
        return scalar_rank(matrix)


# ---------------------------------------------------------------------------
# dense polynomial matrices: the reference for the sparse ParityMap kernels
# ---------------------------------------------------------------------------

def dense_compose(a, b, n_cols, zero):
    """The product a * b of dense polynomial matrices, b with n_cols columns."""
    out = []
    for row in a:
        out_row = []
        for j in range(n_cols):
            acc = zero
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def dense_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def dense_neg(a):
    return [[-x for x in row] for row in a]


def dense_scale(a, c):
    return [[x * c for x in row] for row in a]


def dense_transpose(a, n_cols):
    return [[row[i] for row in a] for i in range(n_cols)]


def dense_shift(a, source, target, zero):
    """Reindex the entries of a map source -> target for the shifted modules."""
    sp, tp = source.shift_perm(), target.shift_perm()
    out = [[zero] * source.total_rank for _ in range(target.total_rank)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            out[tp[i]][sp[j]] = x
    return out


def first_nonzero(a):
    """Row-major first nonzero entry of a dense matrix, as ((i, j), entry)."""
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if not x.is_zero():
                return (i, j), x
    return None
