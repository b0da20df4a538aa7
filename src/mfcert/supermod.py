"""Z/2-graded free modules over a polynomial ring and parity-homogeneous maps.

A :class:`SuperModule` is a free module split into even and odd labelled
summands.  A :class:`ParityMap` is a matrix over the combined basis (even
labels first, then odd), stored as immutable sparse rows: each row holds its
nonzero ``(column, Poly)`` entries in column order and no zeros.  The parity
of a map dictates which blocks may be nonzero; the constructor checks that
once per nonzero entry, and every kernel walks the nonzero entries only.
Matrices act on column vectors, composition is left multiplication, and
tensor products follow the Koszul sign rule.

Composition runs on the integer form every ``Poly`` already has (one
denominator over packed keys with int numerators, see ``polynomials``),
brought to one map-wide denominator D, the lcm of the entries'
denominators: an entry whose denominator is D is used as stored, any other
is scaled once, and the result is cached in flat form: each row one list of
terms whose key carries the column above the key's own bits.  A monomial
product is one integer add of two keys, so Q and Q(zeta_r) share one
kernel, and an output row is one accumulator dict (Gustavson's row-wise
product): one store per term product, one fold by Phi_r per row, and each
output entry built once, over the denominator D_left * D_right.

Identity checks build no product: :func:`residual` accumulates a signed sum
of products and maps minus c * id row by row in the same flat accumulator,
over the lcm of the terms' denominators.  It tests each folded row at once
and builds only the first nonzero entry as a polynomial; c * id is a
diagonal term, never a map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm
from operator import itemgetter

from .polynomials import Poly, PolyRing, check_room, fold, normalised

EVEN = 0
ODD = 1

Row = tuple[tuple[int, Poly], ...]   # nonzero (column, entry) pairs, columns ascending

_column = itemgetter(0)


class ShapeError(ValueError):
    """Incompatible map shapes, parities or module contexts."""


@dataclass(frozen=True)
class SuperModule:
    ring: PolyRing
    even_labels: tuple[str, ...]
    odd_labels: tuple[str, ...]

    def __post_init__(self):
        labels = self.even_labels + self.odd_labels
        if len(set(labels)) != len(labels):
            raise ShapeError(f"duplicate basis labels in {labels}")

    @classmethod
    def free(cls, ring: PolyRing, even: int, odd: int, prefix: str = "") -> "SuperModule":
        return cls(
            ring,
            tuple(f"{prefix}e{i}" for i in range(even)),
            tuple(f"{prefix}o{i}" for i in range(odd)),
        )

    @property
    def even_rank(self) -> int:
        return len(self.even_labels)

    @property
    def odd_rank(self) -> int:
        return len(self.odd_labels)

    @property
    def total_rank(self) -> int:
        return self.even_rank + self.odd_rank

    @property
    def labels(self) -> tuple[str, ...]:
        return self.even_labels + self.odd_labels

    def parity(self, index: int) -> int:
        return EVEN if index < self.even_rank else ODD

    def shifted(self) -> "SuperModule":
        """The parity shift: even and odd summands trade places."""
        return SuperModule(self.ring, self.odd_labels, self.even_labels)

    def shift_perm(self) -> list[int]:
        """old basis index -> index of the same basis vector in shifted()."""
        e, o = self.even_rank, self.odd_rank
        return [o + i for i in range(e)] + [i for i in range(o)]

    def __repr__(self) -> str:
        return f"SuperModule({self.even_rank}|{self.odd_rank})"


def _check_frame(source: SuperModule, target: SuperModule, parity: int):
    if source.ring != target.ring:
        raise ShapeError("source and target live over different rings")
    if parity not in (EVEN, ODD):
        raise ShapeError(f"parity must be 0 or 1, got {parity}")


def _accumulate(row: dict[int, Poly], col: int, p: Poly):
    """row[col] += p, dropping the entry when the sum cancels."""
    q = row.get(col)
    if q is None:
        row[col] = p
        return
    s = q + p
    if s.nums:
        row[col] = s
    else:
        del row[col]


def _sorted_row(row: dict[int, Poly]) -> Row:
    return tuple(sorted(row.items(), key=_column))


# -- the flat row accumulator shared by compose and residual --
#
# A flat key is ``key + (j << S)``, j the column and S = ``ring.key_bits``.
# ``check_room`` keeps every key sum of a product below 2^S, and ``fold`` only
# moves terms within the zeta slot, so no term reaches another column: one
# output row is one dict from flat key to int numerator, zeta powers up to
# 2 deg - 2 until the row is folded.

def _add_row_product(acc: dict, row, flat, scale: int, shift: int):
    """acc += scale * (row * right): ``row`` is a flat row of the left factor,
    ``flat`` the flat form of the right one and ``shift`` the key width S."""
    get = acc.get
    mask = (1 << shift) - 1
    for fa, ca in row:
        targets = flat[fa >> shift]
        if not targets:
            continue
        ka = fa & mask
        ca *= scale
        for kb, cb in targets:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb


def _add_rows(r1: Row, r2: Row) -> Row:
    if not r2:
        return r1
    if not r1:
        return r2
    acc = dict(r1)
    for j, p in r2:
        _accumulate(acc, j, p)
    return _sorted_row(acc)


class ParityMap:
    """A parity-homogeneous module map, stored as sparse rows of nonzero entries.

    ``rows[i]`` lists the nonzero entries of row ``i`` as ``(column, Poly)``
    pairs in column order.  The constructor takes the dense matrix (a list of
    target-rank rows of source-rank polynomials) and checks the ring and the
    parity of every nonzero entry; ``entries`` gives the dense matrix back.
    """

    __slots__ = ("source", "target", "parity", "rows", "_dense", "_ints")

    def __init__(self, source: SuperModule, target: SuperModule, parity: int,
                 entries: list[list[Poly]] | tuple[tuple[Poly, ...], ...]):
        _check_frame(source, target, parity)
        dense = [tuple(row) for row in entries]
        if len(dense) != target.total_rank or any(len(r) != source.total_rank for r in dense):
            raise ShapeError(
                f"matrix shape {len(dense)}x{len(dense[0]) if dense else 0} does not match "
                f"{target.total_rank}x{source.total_rank}"
            )
        ring = source.ring
        e_t, e_s = target.even_rank, source.even_rank
        rows = []
        for i, row in enumerate(dense):
            sparse = []
            for j, p in enumerate(row):
                if not p.nums:
                    continue
                if p.ring is not ring and p.ring != ring:
                    raise ShapeError(f"entry ({i},{j}) lives in the wrong ring")
                if ((i >= e_t) - (j >= e_s)) % 2 != parity:
                    raise ShapeError(
                        f"entry ({i},{j})={p} violates parity "
                        f"({'even' if parity == EVEN else 'odd'} map)"
                    )
                sparse.append((j, p))
            rows.append(tuple(sparse))
        self.source = source
        self.target = target
        self.parity = parity
        self.rows = tuple(rows)
        self._dense = None
        self._ints = None

    @classmethod
    def _from_rows(cls, source: SuperModule, target: SuperModule, parity: int,
                   rows) -> "ParityMap":
        """A map from sparse rows that respect parity and hold no zeros.

        The trusted path for kernels and the bundle parser, which produce such
        rows by construction; nothing is re-checked.
        """
        m = object.__new__(cls)
        m.source = source
        m.target = target
        m.parity = parity
        m.rows = tuple(rows)
        m._dense = None
        m._ints = None
        return m

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, source: SuperModule, target: SuperModule, parity: int) -> "ParityMap":
        _check_frame(source, target, parity)
        return cls._from_rows(source, target, parity, ((),) * target.total_rank)

    @classmethod
    def identity(cls, module: SuperModule) -> "ParityMap":
        one = module.ring.one
        return cls._from_rows(module, module, EVEN,
                              (((i, one),) for i in range(module.total_rank)))

    # -- basic queries ------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Poly, ...], ...]:
        """The dense matrix, zeros included; built on first use and cached."""
        if self._dense is None:
            zero = self.source.ring.zero
            width = self.source.total_rank
            dense = []
            for row in self.rows:
                full = [zero] * width
                for j, p in row:
                    full[j] = p
                dense.append(tuple(full))
            self._dense = tuple(dense)
        return self._dense

    def entrywise(self, fn) -> "ParityMap":
        """The map with every nonzero entry p replaced by fn(p).

        ``fn`` must send 0 to 0 (so zero entries stay zero); entries it sends
        to 0 are dropped.
        """
        rows = []
        for row in self.rows:
            out = []
            for j, p in row:
                q = fn(p)
                if q.nums:
                    out.append((j, q))
            rows.append(tuple(out))
        return ParityMap._from_rows(self.source, self.target, self.parity, rows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParityMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.parity == other.parity and self.rows == other.rows)

    def __repr__(self) -> str:
        tag = "even" if self.parity == EVEN else "odd"
        return f"ParityMap({tag}, {self.source!r} -> {self.target!r})"

    # -- arithmetic ---------------------------------------------------------------

    def compose(self, other: "ParityMap") -> "ParityMap":
        """self after other (matrix product self * other), in integer arithmetic.

        Row k of ``other`` is visited only for a nonzero entry (i, k) of
        ``self``, so the work is the number of nonzero pairs, not the number
        of dense slots.  Each term product is one int multiply, one key add
        and one store in the flat accumulator of the output row; the row is
        folded by Phi_r once, then split by column, and every output entry is
        built once, over the denominator D_self * D_other.
        """
        if other.target != self.source:
            raise ShapeError(f"cannot compose: {other.target!r} != {self.source!r}")
        ring = self.source.ring
        den_left, left = self._integer_form()
        den_right, right = other._integer_form()
        folds = ring.folds
        den = den_left * den_right
        shift = ring.key_bits
        mask = (1 << shift) - 1
        out = []
        for row in left:
            acc: dict[int, int] = {}
            _add_row_product(acc, row, right, 1, shift)
            if folds:
                fold(acc, folds)
            cols: dict[int, dict[int, int]] = {}
            for key, n in acc.items():
                if n:
                    cols.setdefault(key >> shift, {})[key & mask] = n
            out.append(tuple((j, normalised(ring, den, cols[j])) for j in sorted(cols)))
        return ParityMap._from_rows(other.source, self.target,
                                    (self.parity + other.parity) % 2, out)

    def _integer_form(self):
        """``(D, rows)``: the map over the integers in flat form, built once
        and cached.

        D is the lcm of the entries' denominators.  ``rows[i]`` lists the
        terms of D * entry over the nonzero entries of row i as flat terms
        ``(key + (column << ring.key_bits), n)``.  Raises OverflowError when
        an exponent has no room for a product (see ``polynomials.check_room``).
        """
        if self._ints is None:
            ring = self.source.ring
            shift = ring.key_bits
            den = lcm(*{p.den for row in self.rows for _, p in row})
            rows = [[(k + col, n * scale) for j, p in row
                     for col, scale in ((j << shift, den // p.den),)
                     for k, n in p.nums.items()] for row in self.rows]
            # the column bits of a flat key lie above the slots check_room reads
            check_room(map(_column, chain.from_iterable(rows)), ring)
            self._ints = (den, rows)
        return self._ints

    def __add__(self, other: "ParityMap") -> "ParityMap":
        if (other.source, other.target, other.parity) != (self.source, self.target, self.parity):
            raise ShapeError("can only add maps with equal shape and parity")
        return ParityMap._from_rows(self.source, self.target, self.parity,
                                    map(_add_rows, self.rows, other.rows))

    def __neg__(self) -> "ParityMap":
        return ParityMap._from_rows(self.source, self.target, self.parity,
                                    (tuple((j, -p) for j, p in row) for row in self.rows))

    def __sub__(self, other: "ParityMap") -> "ParityMap":
        return self + (-other)

    def scale(self, c) -> "ParityMap":
        """Multiply every entry by a polynomial or an int, Fraction or Scalar (an even operation)."""
        if not isinstance(c, Poly):
            c = self.source.ring.const(c)
        return self.entrywise(lambda p: p * c)

    # -- structural operations ------------------------------------------------------

    def transposed(self) -> "ParityMap":
        """The dual map: plain transpose between the (self-dual) modules."""
        cols: list[list] = [[] for _ in range(self.source.total_rank)]
        for i, row in enumerate(self.rows):
            for j, p in row:
                cols[j].append((i, p))
        return ParityMap._from_rows(self.target, self.source, self.parity, map(tuple, cols))

    def shifted(self) -> "ParityMap":
        """The same map between the parity-shifted modules."""
        sp = self.source.shift_perm()
        tp = self.target.shift_perm()
        out: list[Row] = [()] * self.target.total_rank
        for i, row in enumerate(self.rows):
            # parity keeps a row's entries inside one column block, and the
            # shift moves each block in order, so columns stay ascending
            out[tp[i]] = tuple((sp[j], p) for j, p in row)
        return ParityMap._from_rows(self.source.shifted(), self.target.shifted(),
                                    self.parity, out)


# -----------------------------------------------------------------------------
# identity checks: the residual kernel
# -----------------------------------------------------------------------------

# What residual() returns when its terms do not share one frame (source,
# target and parity), so that their sum cannot be compared entry by entry.
FRAME_MISMATCH = (None, None)


def residual(products=(), maps=(), diagonal=None):
    """The first nonzero entry of sum s*A*B + sum s*M - c*id, or None.

    ``products`` holds ``(s, A, B)`` with s = +1 or -1 for the term s * A * B,
    ``maps`` holds ``(s, M)`` for s * M, and ``diagonal`` is ``(module, c)``
    for the term -c * id on ``module``, with c a polynomial; no identity map
    is built.  Each row of the sum is one flat accumulator, filled from the
    cached flat integer forms of the operands over the lcm of the terms'
    denominators, as :meth:`ParityMap.compose` fills it; the row is folded by
    Phi_r once, c is subtracted at column i, and the row is tested at once.
    Only a row that is not zero is split, and only its first nonzero entry
    is built as a polynomial.  The result is ``((i, j), Poly)`` for the
    first nonzero entry in row-major, column-ascending order.

    A product whose factors do not compose raises ShapeError, as compose
    does.  When the terms, or the terms and ``module -> module``, differ in
    source, target or parity, the result is FRAME_MISMATCH.
    """
    return _residual(products, maps, diagonal)[1]


def scalar_square(d: ParityMap) -> tuple[Poly, object]:
    """``(c, first nonzero entry of d*d - c*id)`` with c entry (0, 0) of d*d.

    One pass over d*d: c is read off row 0 before row 0 is compared.  ``d``
    must be an endomorphism; c is 0 on the zero module.
    """
    return _residual(((1, d, d),), (), (d.source, None))


def _residual(products, maps, diagonal):
    frames = []
    for _, a, b in products:
        if b.target != a.source:
            raise ShapeError(f"cannot compose: {b.target!r} != {a.source!r}")
        frames.append((b.source, a.target, (a.parity + b.parity) % 2))
    frames.extend((m.source, m.target, m.parity) for _, m in maps)
    c = None
    if diagonal is not None:
        module, c = diagonal
        frames.append((module, module, EVEN))
    if not frames:
        return c, None
    if any(f != frames[0] for f in frames):
        return c, FRAME_MISMATCH
    target = frames[0][1]
    ring = target.ring
    learn = diagonal is not None and c is None   # c is entry (0, 0) of the sum
    den, diag = 1, {}
    if diagonal is not None and not learn:
        den, diag = c.den, c.nums
    dc = den
    prods = [(s, a._integer_form(), b._integer_form()) for s, a, b in products]
    adds = [(s, m._integer_form()) for s, m in maps]
    for _, (da, _), (db, _) in prods:
        den = lcm(den, da * db)
    for _, (dm, _) in adds:
        den = lcm(den, dm)
    folds = ring.folds
    shift = ring.key_bits
    diag = [(key, n * (den // dc)) for key, n in diag.items()]
    prods = [(a_rows, b_rows, s * (den // (da * db)))
             for s, (da, a_rows), (db, b_rows) in prods]
    adds = [(rows, s * (den // dm)) for s, (dm, rows) in adds]
    if learn:
        c = ring.zero
    for i in range(target.total_rank):
        acc: dict[int, int] = {}
        get = acc.get
        for left, right, scale in prods:
            _add_row_product(acc, left[i], right, scale, shift)
        for rows, scale in adds:
            for key, n in rows[i]:
                acc[key] = get(key, 0) + n * scale
        if folds:
            fold(acc, folds)
        if diagonal is not None:
            if learn and i == 0:
                diag = [(key, n) for key, n in acc.items() if n and not key >> shift]
                c = normalised(ring, den, dict(diag))
            col = i << shift
            for key, n in diag:
                key += col
                acc[key] = get(key, 0) - n
        if any(acc.values()):
            j = min(key >> shift for key, n in acc.items() if n)
            col = j << shift
            return c, ((i, j), normalised(ring, den, {key - col: n for key, n in acc.items()
                                                      if n and key >> shift == j}))
    return c, None


# -----------------------------------------------------------------------------
# module-level constructions
# -----------------------------------------------------------------------------

def parity_unit(module: SuperModule) -> ParityMap:
    """The odd map shifted(module) -> module that is the identity underneath."""
    one = module.ring.one
    return ParityMap._from_rows(module.shifted(), module, ODD,
                                (((new, one),) for new in module.shift_perm()))


def direct_sum_modules(parts: list[SuperModule],
                       prefixes: list[str]) -> tuple[SuperModule, list[list[int]]]:
    """Concatenate modules, prefixing the labels of part k by ``prefixes[k]``;
    returns the sum and per-part index embeddings.

    ``embeddings[k][i]`` is the full-basis index in the sum of basis vector
    ``i`` of part ``k``.
    """
    if not parts:
        raise ShapeError("direct sum of no modules")
    ring = parts[0].ring
    even, odd = [], []
    even_pos, odd_pos = [], []
    for k, m in enumerate(parts):
        if m.ring != ring:
            raise ShapeError("direct summands live over different rings")
        even_pos.append(len(even))
        odd_pos.append(len(odd))
        even.extend(prefixes[k] + lbl for lbl in m.even_labels)
        odd.extend(prefixes[k] + lbl for lbl in m.odd_labels)
    total_even = len(even)
    embeddings = []
    for k, m in enumerate(parts):
        emb = [even_pos[k] + i for i in range(m.even_rank)]
        emb += [total_even + odd_pos[k] + i for i in range(m.odd_rank)]
        embeddings.append(emb)
    return SuperModule(ring, tuple(even), tuple(odd)), embeddings


def assemble(target: SuperModule, target_embs: list[list[int]],
             source: SuperModule, source_embs: list[list[int]],
             parity: int, blocks: dict[tuple[int, int], ParityMap]) -> ParityMap:
    """Build a map on direct sums from component maps indexed by (tgt, src) part.

    Every placed entry is checked against the parity of its new position, so
    embeddings that do not preserve parity are rejected.
    """
    _check_frame(source, target, parity)
    e_t, e_s = target.even_rank, source.even_rank
    acc: list[dict[int, Poly]] = [{} for _ in range(target.total_rank)]
    for (ti, si), block in blocks.items():
        temb, semb = target_embs[ti], source_embs[si]
        if block.parity != parity:
            raise ShapeError(f"block ({ti},{si}) has parity {block.parity}, expected {parity}")
        if block.source.ring != source.ring:
            raise ShapeError(f"block ({ti},{si}) lives in the wrong ring")
        for i, row in enumerate(block.rows):
            if not row:
                continue
            r = temb[i]
            out = acc[r]
            for j, p in row:
                c = semb[j]
                if ((r >= e_t) - (c >= e_s)) % 2 != parity:
                    raise ShapeError(f"block ({ti},{si}) entry ({i},{j}) lands at "
                                     f"({r},{c}), which violates parity")
                _accumulate(out, c, p)
    return ParityMap._from_rows(source, target, parity, map(_sorted_row, acc))


def tensor_module(m: SuperModule, n: SuperModule) -> tuple[SuperModule, dict[tuple[int, int], int]]:
    """Tensor product module with pair-basis ordered lexicographically.

    Returns the module and the map (i, j) -> full index, where i, j run over
    the full bases of the factors.
    """
    if m.ring != n.ring:
        raise ShapeError("tensor factors live over different rings")
    even, odd = [], []
    placement = {}
    for i in range(m.total_rank):
        for j in range(n.total_rank):
            label = f"{m.labels[i]}*{n.labels[j]}"
            if (m.parity(i) + n.parity(j)) % 2 == EVEN:
                placement[(i, j)] = (EVEN, len(even))
                even.append(label)
            else:
                placement[(i, j)] = (ODD, len(odd))
                odd.append(label)
    module = SuperModule(m.ring, tuple(even), tuple(odd))
    index = {}
    for key, (par, pos) in placement.items():
        index[key] = pos if par == EVEN else len(even) + pos
    return module, index


def tensor(f: ParityMap, g: ParityMap) -> ParityMap:
    """Tensor product of maps with the Koszul sign (-1)^{|g||v|} on f(v)x g(w)."""
    src, src_idx = tensor_module(f.source, g.source)
    tgt, tgt_idx = tensor_module(f.target, g.target)
    acc: list[dict[int, Poly]] = [{} for _ in range(tgt.total_rank)]
    for i, frow in enumerate(f.rows):
        for a, fe in frow:
            negate = (g.parity * f.source.parity(a)) % 2
            for j, grow in enumerate(g.rows):
                if not grow:
                    continue
                out = acc[tgt_idx[(i, j)]]
                for b, ge in grow:
                    val = fe * ge
                    if negate:
                        val = -val
                    _accumulate(out, src_idx[(a, b)], val)
    return ParityMap._from_rows(src, tgt, (f.parity + g.parity) % 2, map(_sorted_row, acc))
