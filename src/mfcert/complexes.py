"""Curved Z/2-graded complexes: homotopies, cones, filtrations, exactness checks.

A curved complex is a module with an odd endomorphism d whose square is a
scalar polynomial times the identity (the curvature); curvature zero means a
genuine complex.  Identity checks return :class:`Verdict` values carrying the
first failing entry and its residual, so a false identity is data rather than
an exception.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import lcm

from .polynomials import Poly, int_modulus, split_key
from .scalars import ScalarField
from .supermod import (EVEN, FRAME_MISMATCH, ODD, ParityMap, Row, ShapeError,
                       SuperModule, assemble, direct_sum_modules, parity_unit,
                       residual, scalar_square)


class CurvatureError(ValueError):
    def __init__(self, message: str, entry: tuple[int, int] | None = None,
                 value: Poly | None = None):
        super().__init__(message)
        self.entry = entry
        self.value = value


class SampleError(RuntimeError):
    """Point sampling could not find a point off the excluded locus."""


class InvariantError(ValueError):
    """Constructor data violates its defining identity."""


@dataclass(frozen=True)
class SupportLocus:
    """A closed locus given by generators; no generators means the whole space."""

    generators: tuple[Poly, ...] = ()

    def is_everything(self) -> bool:
        return not self.generators

    def off_locus(self, point: dict) -> bool:
        """Whether no generator vanishes at a point with integer coordinates."""
        return not any(g.vanishes_at(point) for g in self.generators)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str
    message: str = ""
    location: tuple[int, int] | None = None
    residual: Poly | None = None
    # the checks this verdict was read from, in order; the first failing one ends them
    children: tuple["Verdict", ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"{self.kind}: pass"
        where = f" at entry {self.location}" if self.location else ""
        res = f", residual {self.residual}" if self.residual is not None else ""
        return f"{self.kind}: FAIL{where}{res} {self.message}".rstrip()


@dataclass(frozen=True)
class CurvedComplex:
    module: SuperModule
    d: ParityMap
    curvature: Poly
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def ring(self):
        return self.module.ring

    def is_flat(self) -> bool:
        return self.curvature.is_zero()

    def shifted(self) -> "CurvedComplex":
        """Parity shift; the differential changes sign, curvature is unchanged."""
        return CurvedComplex(self.module.shifted(), -self.d.shifted(), self.curvature)

    def identity_map(self) -> ParityMap:
        return ParityMap.identity(self.module)

    def zero_map(self) -> ParityMap:
        return ParityMap.zero(self.module, self.module, EVEN)

    def canonical_text(self) -> str:
        lines = [
            "even " + " ".join(self.module.even_labels),
            "odd " + " ".join(self.module.odd_labels),
            "curvature " + str(self.curvature),
        ]
        # each row is its cells joined by "; ", written as the runs of zeros
        # between its nonzero entries; every row ends in "; ", cut off below
        width = self.module.total_rank
        for row in self.d.rows:
            parts, col = [], 0
            for j, p in row:
                parts.append("0; " * (j - col))
                parts.append(str(p))
                parts.append("; ")
                col = j + 1
            parts.append("0; " * (width - col))
            lines.append("".join(parts)[:-2])
        return "\n".join(lines)

    def digest(self) -> str:
        """The first 16 hex digits of the SHA-256 of canonical_text(), computed once.

        Each entry's text is the polynomial's one print: the text the reader
        confirmed canonical for a complex read from a file, so a bundle is
        hashed as read, and otherwise the print the bundle writer reuses.
        """
        if self._digest is None:
            object.__setattr__(self, "_digest",
                               hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16])
        return self._digest


def curvature_check(module: SuperModule, d: ParityMap) -> CurvedComplex:
    """Verify d is an odd endomorphism with scalar square and record the curvature."""
    if d.source != module or d.target != module:
        raise ShapeError("differential is not an endomorphism of the module")
    if d.parity != ODD:
        raise CurvatureError("differential must be odd")
    # one pass over d*d: c is entry (0, 0), and the first nonzero entry of
    # d*d - c*id is the first bad entry of the square
    c, bad = scalar_square(d)
    if bad is not None:
        (i, j), p = bad
        if i == j:
            got = p + c
            raise CurvatureError(
                f"square is not scalar: diagonal entry ({i},{i}) is {got}, "
                f"entry (0,0) is {c}", entry=(i, i), value=got)
        raise CurvatureError(
            f"square is not scalar: off-diagonal entry ({i},{j}) is {p}",
            entry=(i, j), value=p)
    return CurvedComplex(module, d, c)


@dataclass(frozen=True)
class ChainMap:
    source: CurvedComplex
    target: CurvedComplex
    map: ParityMap


def is_chain_map(f: ChainMap) -> Verdict:
    """Check the intertwining identity f.d = (-1)^{|f|} d.f, exactly."""
    if f.map.source != f.source.module or f.map.target != f.target.module:
        raise ShapeError("chain map shape does not match its complexes")
    if f.source.curvature != f.target.curvature:
        return Verdict(False, "chain-map", message="curvature mismatch")
    # f.d - (-1)^{|f|} d.f
    sign = 1 if f.map.parity == ODD else -1
    bad = residual([(1, f.map, f.source.d), (sign, f.target.d, f.map)])
    if bad is None:
        return Verdict(True, "chain-map")
    if bad is FRAME_MISMATCH:
        raise ShapeError("can only add maps with equal shape and parity")
    (i, j), p = bad
    return Verdict(False, "chain-map", location=(i, j), residual=p)


def is_homotopy(source: CurvedComplex, target: CurvedComplex, h: ParityMap,
                lhs: ParityMap, rhs: ParityMap) -> Verdict:
    """Check d_target.h + h.d_source == lhs - rhs, exactly."""
    if h.parity != ODD:
        return Verdict(False, "homotopy", message="homotopy must be odd")
    bad = residual([(1, target.d, h), (1, h, source.d)], [(-1, lhs), (1, rhs)])
    if bad is None:
        return Verdict(True, "homotopy")
    if bad is FRAME_MISMATCH:
        raise ShapeError("can only add maps with equal shape and parity")
    (i, j), p = bad
    return Verdict(False, "homotopy", location=(i, j), residual=p)


# -----------------------------------------------------------------------------
# cones
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class Cone:
    complex: CurvedComplex
    inclusion: ChainMap    # target of f -> cone
    projection: ChainMap   # cone -> shifted source of f


def cone(f: ChainMap) -> Cone:
    """Mapping cone of an even chain map f: A -> B on B + A[1].

    The differential is [[d_B, f u], [0, d_A[1]]] with u: A[1] -> A the
    parity unit.  Its square is [[c_B, (d_B f - f d_A) u], [0, c_A]], so the
    one curvature check of the cone is the chain-map check of f: a map that
    is not a chain map raises CurvatureError there, and complexes of
    different curvature are refused before it.  The inclusion of B and the
    projection onto A[1] are chain maps by their block form and are not
    checked.
    """
    if f.map.parity != EVEN:
        raise ShapeError("cone needs an even chain map")
    a, b = f.source, f.target
    if f.map.source != a.module or f.map.target != b.module:
        raise ShapeError("chain map shape does not match its complexes")
    if a.curvature != b.curvature:
        raise CurvatureError("cone of a map between complexes of different curvature")
    a1 = a.shifted()
    module, embs = direct_sum_modules([b.module, a1.module], ["b.", "a."])
    coupling = f.map.compose(parity_unit(a.module))  # A[1] -> B, odd
    d = assemble(module, embs, module, embs, ODD, {
        (0, 0): b.d,
        (0, 1): coupling,
        (1, 1): a1.d,
    })
    total = curvature_check(module, d)
    incl = assemble(module, embs, b.module, [list(range(b.module.total_rank))], EVEN,
                    {(0, 0): ParityMap.identity(b.module)})
    one = module.ring.one
    proj = ParityMap._from_rows(module, a1.module, EVEN, (((pos, one),) for pos in embs[1]))
    return Cone(total, ChainMap(b, total, incl), ChainMap(total, a1, proj))


# -----------------------------------------------------------------------------
# filtrations
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class Filtration:
    """A descending chain of basis-aligned submodules, indices into the full basis."""

    complex: CurvedComplex
    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        prev = None
        n = self.complex.module.total_rank
        for step in self.steps:
            s = set(step)
            if any(i < 0 or i >= n for i in s):
                raise ShapeError(f"filtration step {step} out of range")
            if prev is not None and not s.issubset(prev):
                raise ShapeError("filtration steps must be descending")
            prev = s

    def step_set(self, j: int) -> set[int]:
        """1-based; steps past the end are empty."""
        if j <= 0:
            raise ShapeError("filtration steps are 1-based")
        if j > len(self.steps):
            return set()
        return set(self.steps[j - 1])

    def slice_indices(self, j: int) -> list[int]:
        sl = self.step_set(j) - self.step_set(j + 1)
        return sorted(sl)


def filtration_verify(c: CurvedComplex, f: Filtration) -> Verdict:
    """Check the differential maps every step into itself."""
    if f.complex is not c and f.complex != c:
        raise ShapeError("filtration belongs to a different complex")
    columns = c.d.transposed().rows
    for j in range(1, len(f.steps) + 1):
        step = f.step_set(j)
        for col in step:
            for row, p in columns[col]:
                if row not in step:
                    return Verdict(
                        False, "filtration",
                        message=f"step {j} not invariant: basis vector "
                                f"{c.module.labels[col]} leaks to {c.module.labels[row]}",
                        location=(row, col), residual=p)
    return Verdict(True, "filtration")


def slice_basis(c: CurvedComplex, f: Filtration, j: int) -> tuple[SuperModule, list[int]]:
    """The j-th slice module and the indices of its basis in c, even first.

    This builds no map; :func:`graded_slice` adds the induced differential.
    """
    indices = f.slice_indices(j)
    mod = c.module
    even = [i for i in indices if mod.parity(i) == EVEN]
    odd = [i for i in indices if mod.parity(i) == ODD]
    sub = SuperModule(mod.ring, tuple(mod.labels[i] for i in even),
                      tuple(mod.labels[i] for i in odd))
    return sub, even + odd


def graded_slice(c: CurvedComplex, f: Filtration, j: int) -> tuple[SuperModule, ParityMap]:
    """The j-th slice module and the induced map, without curvature checking."""
    sub, ordered = slice_basis(c, f, j)
    position = {old: new for new, old in enumerate(ordered)}
    rows = [tuple((position[s], p) for s, p in c.d.rows[r] if s in position)
            for r in ordered]
    return sub, ParityMap._from_rows(sub, sub, ODD, rows)


# -----------------------------------------------------------------------------
# sampling-based exactness diagnostic
# -----------------------------------------------------------------------------

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

    def __bool__(self) -> bool:
        return self.ok


# rank modulo this prime is the sampler's lower bound for a rank over Q
_PRIME = 2147483647   # 2^31 - 1


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
                            seed: int, height: int = 101) -> SampleReport:
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
    if z.is_everything():
        return SampleReport(True, message="excluded locus is the whole space; vacuously exact")
    if c.module.total_rank == 0:
        return SampleReport(True, message="zero complex; vacuously exact")
    rng = random.Random(seed)
    half = height // 2
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
        if not z.off_locus(point):
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
        msg = "fiberwise exactness failed at a sampled point"
    elif not constant:
        msg = f"ranks vary across samples: {sorted(ranks)}"
    return SampleReport(ok, points=tuple(points), message=msg)
