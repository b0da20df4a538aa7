"""Sampling-based exactness diagnostic for flat complexes.

:func:`strict_exactness_sample` probes fiberwise exactness at random integer
points off a locus, with exact ranks.  It is a diagnostic outside the
checker: ``mfcert exactness`` imports it when it runs, and neither
``verify`` nor any certificate depends on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .complexes import CurvatureError, CurvedComplex, SupportLocus
from .polynomials import int_modulus, split_key
from .scalars import ScalarField
from .supermod import Row


class SampleError(RuntimeError):
    """Point sampling could not find a point off the excluded locus."""


@dataclass(frozen=True)
class SamplePoint:
    point: dict
    rank_plus: int
    rank_minus: int
    exact: bool


@dataclass(frozen=True)
class SampleReport:
    ok: bool
    kind: str = "strict-exactness-sample"
    points: tuple[SamplePoint, ...] = ()
    message: str = ""


# rank modulo this prime is the sampler's lower bound for a rank over Q
_PRIME = 2147483647   # 2^31 - 1

# sampled coordinates are integers in [-_HEIGHT // 2, _HEIGHT // 2]
_HEIGHT = 101


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): every entry after step k is a (k+1)-minor
    of the input, so the division by the previous pivot is exact and entries
    stay integers.  Rows are pivoted, zero rows are dropped, and leading
    columns with no nonzero entry are skipped.
    """
    rows = [r for r in rows if any(r)]
    rank, prev = 0, 1
    while rows:
        col = min(next(j for j, x in enumerate(r) if x) for r in rows)
        at = next(i for i, r in enumerate(rows) if r[col])
        pivot_row = rows.pop(at)
        p = pivot_row[col]
        tail = pivot_row[col + 1:]
        reduced = []
        for r in rows:
            a = r[col]
            if a:
                nr = [(p * x - a * y) // prev for x, y in zip(r[col + 1:], tail)]
            else:
                nr = [p * x // prev for x in r[col + 1:]]
            if any(nr):
                reduced.append(nr)
        rows = reduced
        prev = p
        rank += 1
    return rank


def _rank_mod_prime(rows: list[dict[int, int]]) -> int:
    """Rank modulo ``_PRIME`` of a sparse integer matrix, rows ``{column: int}``.

    A lower bound for the rank over Q: a minor that is nonzero modulo the
    prime is nonzero.  Each row is reduced by the stored pivot rows, at its
    leading column, until it is zero or leads at a new pivot column.
    """
    p = _PRIME
    pivots: dict[int, dict[int, int]] = {}   # column -> row with 1 there
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[col]
            for j, y in pivot.items():
                x = (row.get(j, 0) - f * y) % p
                if x:
                    row[j] = x
                else:
                    del row[j]
    return len(pivots)


def _product_is_zero(left: list[dict[int, int]], right: list[dict[int, int]],
                     width: int) -> bool:
    """Whether left * right is zero; sparse integer rows ``{column: int}``, right ``width`` wide."""
    for row in left:
        acc = [0] * width
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] += a * b
        if any(acc):
            return False
    return True


class _IntegerBlock:
    """A polynomial matrix over Q(zeta_r), prepared for exact rank at integer points.

    The entries are brought to one denominator, the lcm of theirs, which
    scales the matrix and so keeps its rank and its zero products; then
    evaluation at an integer point is integer arithmetic on the entries'
    numerators and yields a coefficient vector of length deg per entry.  An
    entry a is expanded into its deg x deg multiplication matrix, the regular
    representation of Q(zeta_r) over Q (1x1 for Q).  That is an injective
    ring homomorphism, so a product of two blocks is zero iff the product of
    their expansions is, and the rank over the field is the rank over Q of
    the expansion divided by deg.
    """

    def __init__(self, rows: list[Row], ncols: int, field: ScalarField, nvars: int):
        """``rows`` are sparse: nonzero ``(column, Poly)`` pairs, columns below ``ncols``."""
        self.modulus = int_modulus(field)
        self.deg = field.degree
        self.width = ncols * self.deg
        den = lcm(*(p.den for row in rows for _, p in row))
        index: dict[tuple[int, ...], int] = {}   # exponents -> monomial number
        slots: dict[int, tuple[int, int]] = {}   # key -> (monomial number, zeta power)
        self.rows = []
        for row in rows:
            entries = []
            for j, p in row:
                scale = den // p.den
                terms = []
                for key, n in p.nums.items():
                    slot = slots.get(key)
                    if slot is None:
                        exps, z = split_key(key, nvars)
                        slot = slots[key] = (index.setdefault(exps, len(index)), z)
                    terms.append((*slot, n * scale))
                entries.append((j, terms))
            self.rows.append(entries)
        self.monomials = [tuple((v, e) for v, e in enumerate(exps) if e) for exps in index]
        self.max_exp = [max((exps[v] for exps in index), default=0) for v in range(nvars)]

    def evaluate(self, values: list[int]) -> list[dict[int, int]]:
        """The expansion at the given variable values, as sparse rows ``{column: int}``."""
        powers = []
        for x, top in zip(values, self.max_exp):
            table = [1]
            for _ in range(top):
                table.append(table[-1] * x)
            powers.append(table)
        monomials = []
        for mono in self.monomials:
            c = 1
            for v, e in mono:
                c *= powers[v][e]
            monomials.append(c)
        deg, modulus = self.deg, self.modulus
        expanded = []
        for entries in self.rows:
            block = [{} for _ in range(deg)]
            for j, terms in entries:
                value = [0] * deg
                for m, z, c in terms:
                    value[z] += c * monomials[m]
                # row k of the multiplication matrix is value * t^k reduced mod Phi_r
                for k, out in enumerate(block):
                    if k:
                        top = value[-1]
                        value = [0] + value[:-1]
                        if top:
                            value = [x - top * m for x, m in zip(value, modulus)]
                    for t, x in enumerate(value, j * deg):
                        if x:
                            out[t] = x
            expanded.extend(block)
        return expanded

    def field_rank(self, rank_q: int) -> int:
        """The rank over the field of a matrix whose expansion has rank ``rank_q`` over Q."""
        if rank_q % self.deg:
            raise ArithmeticError(
                f"rank {rank_q} over Q of the expanded matrix is not a multiple "
                f"of the field degree {self.deg}")
        return rank_q // self.deg

    def rank(self, values: list[int]) -> int:
        """Rank over the field at the given variable values, by :func:`_bareiss_rank`."""
        width = self.width
        return self.field_rank(_bareiss_rank(
            [[row.get(j, 0) for j in range(width)] for row in self.evaluate(values)]))


def _off_locus(z: SupportLocus, point: dict[str, int]) -> bool:
    """Whether no generator of ``z`` vanishes at a point with integer coordinates."""
    for g in z.generators:
        values = [point[v] for v in g.ring.variables]
        total = [0] * g.ring.field.degree
        for key, n in g.nums.items():
            exps, power = split_key(key, len(values))
            for x, e in zip(values, exps):
                n *= x ** e
            total[power] += n
        if not any(total):     # 1, zeta, ..., zeta^(deg-1) are independent over Q
            return False
    return True


def _point_ranks(d_plus: _IntegerBlock, d_minus: _IntegerBlock,
                 values: list[int]) -> tuple[int, int]:
    """Exact ranks over the field of the two odd blocks at an integer point.

    The ranks modulo ``_PRIME`` of the expansions are lower bounds.  If both
    products d+ d- and d- d+ are zero, the image of each block lies in the
    kernel of the other, so rank(d+) + rank(d-) is at most the number of
    rows of either block; modular ranks that reach that bound are the ranks
    over Q.  Otherwise both ranks are Bareiss ranks.
    """
    plus, minus = d_plus.evaluate(values), d_minus.evaluate(values)
    rp, rm = _rank_mod_prime(plus), _rank_mod_prime(minus)
    if (rp + rm == min(len(plus), len(minus))
            and _product_is_zero(plus, minus, d_minus.width)
            and _product_is_zero(minus, plus, d_plus.width)):
        return d_plus.field_rank(rp), d_minus.field_rank(rm)
    return d_plus.rank(values), d_minus.rank(values)


def strict_exactness_sample(c: CurvedComplex, z: SupportLocus, trials: int,
                            seed: int) -> SampleReport:
    """Probe fiberwise exactness of a flat complex at random points off the locus.

    At each sampled point p the two-periodic fiber sequence is exact iff
    rank(d+) + rank(d-) equals both the odd and the even dimension; rank
    constancy across samples stands in for strictness.  This is a diagnostic:
    the certificate layer only accepts homotopy-based exactness proofs.

    Ranks are exact.  At each point only the nonzero entries of the two odd
    blocks d+ and d- are evaluated, in integers, into sparse rows: each
    block is brought to one denominator once, and each monomial's value
    comes from a table of powers of the point's coordinates.  Over Q(zeta_r)
    every value is expanded into its multiplication matrix (the regular
    representation over Q), and a rank over the field is the rank of the
    integer expansion divided by deg Phi_r.  Each rank is certified as
    follows.  Ranks modulo the fixed prime ``_PRIME`` are lower bounds.  The
    products d+ d- and d- d+ are formed exactly in integers; when both are
    zero, rank(d+) + rank(d-) is at most the number of rows of either block,
    and modular ranks that reach that bound are the ranks over Q.  At any
    other point (a non-exact one, an unlucky prime, or a complex recorded
    flat whose square is not zero) both ranks are fraction-free Bareiss
    ranks.  Either way the ranks, and so the reports, are the same.
    """
    if trials < 1:
        raise ValueError(f"exactness sampling needs at least one trial, got {trials}")
    if not c.is_flat():
        raise CurvatureError(f"exactness sampling needs curvature 0, got {c.curvature}")
    if not z.generators:
        return SampleReport(True, message="excluded locus is the whole space; vacuously exact")
    if c.module.total_rank == 0:
        return SampleReport(True, message="zero complex; vacuously exact")
    rng = random.Random(seed)
    half = _HEIGHT // 2
    variables = c.module.ring.variables
    field, e, n = c.module.ring.field, c.module.even_rank, c.module.total_rank
    rows = c.d.rows   # d is odd: rows e: hold even columns only, rows :e odd ones
    d_plus = _IntegerBlock(rows[e:], e, field, len(variables))   # V+ -> V-
    d_minus = _IntegerBlock([tuple((j - e, p) for j, p in row) for row in rows[:e]],
                            n - e, field, len(variables))        # V- -> V+
    points: list[SamplePoint] = []
    attempts = 0
    limit = max(100, 20 * trials)
    while len(points) < trials:
        attempts += 1
        if attempts > limit:
            raise SampleError(
                f"no point off the locus found in {limit} attempts")
        point = {v: rng.randint(-half, half) for v in variables}
        if not _off_locus(z, point):
            continue
        values = [point[v] for v in variables]
        rp, rm = _point_ranks(d_plus, d_minus, values)
        exact = (rp + rm == c.module.odd_rank) and (rm + rp == c.module.even_rank)
        points.append(SamplePoint(point, rp, rm, exact))
    all_exact = all(pt.exact for pt in points)
    ranks = {(pt.rank_plus, pt.rank_minus) for pt in points}
    constant = len(ranks) <= 1
    ok = all_exact and constant
    msg = ""
    if not all_exact:
        bad = next(pt for pt in points if not pt.exact)
        where = ", ".join(f"{v} = {bad.point[v]}" for v in variables)
        msg = (f"fiberwise exactness failed at the sampled point {where}: "
               f"rank d+ {bad.rank_plus}, rank d- {bad.rank_minus}")
    elif not constant:
        msg = f"ranks vary across samples: {sorted(ranks)}"
    return SampleReport(ok, points=tuple(points), message=msg)
