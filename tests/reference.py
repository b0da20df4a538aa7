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

    Each entry is evaluated with ``Poly.evaluate`` and the rank is taken by
    :func:`scalar_rank`, as the sampler did before its integer kernel.
    """

    def __init__(self, rows, field, nvars):
        self.rows = rows

    def rank(self, values: list[int]) -> int:
        if not self.rows or not self.rows[0]:
            return 0
        point = dict(zip(self.rows[0][0].ring.variables, values))
        return scalar_rank([[p.evaluate(point) for p in row] for row in self.rows])
