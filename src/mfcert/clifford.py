"""Spinor modules (exterior algebras) and the Clifford action of orthogonal sections.

The spinor module on a rank-n bundle is the exterior algebra on n dual
generators w1..wn, graded by exterior degree mod 2 and ordered
lexicographically on increasing multi-indices within each parity.  A section
acts by wedging with its covector part and contracting with its vector part;
the square of the action is the pairing of the two parts times the identity.

For the rank-one extension the exterior algebra gains one more generator
``u`` (the extension slot, always last).  The extension pair (f, g) acts with
f on the wedge side and g on the contraction side, so the square picks up the
product f*g; this is the polarization under which twisted sections transport
to the product-family differentials entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .polynomials import Poly, PolyRing
from .supermod import (EVEN, ODD, ParityMap, ShapeError, SuperModule,
                       direct_sum_modules, residual)


def _subset_label(subset: tuple[int, ...], base_rank: int) -> str:
    if not subset:
        return "1"
    return "^".join("u" if i == base_rank + 1 else f"w{i}" for i in subset)


@dataclass(frozen=True)
class SpinorModule:
    ring: PolyRing
    base_rank: int
    extended: bool
    module: SuperModule
    subsets: tuple[tuple[int, ...], ...]   # full basis order: even sizes, then odd
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.subsets)})

    @property
    def generators(self) -> int:
        return self.base_rank + (1 if self.extended else 0)


def spinor_module(ring: PolyRing, base_rank: int, extended: bool = False) -> SpinorModule:
    if base_rank < 0:
        raise ShapeError("base rank must be non-negative")
    n = base_rank + (1 if extended else 0)
    all_subsets = []
    for k in range(n + 1):
        all_subsets.extend(combinations(range(1, n + 1), k))
    even = sorted([s for s in all_subsets if len(s) % 2 == 0])
    odd = sorted([s for s in all_subsets if len(s) % 2 == 1])
    even_labels = tuple(_subset_label(s, base_rank) for s in even)
    odd_labels = tuple(_subset_label(s, base_rank) for s in odd)
    module = SuperModule(ring, even_labels, odd_labels)
    return SpinorModule(ring, base_rank, extended, module, tuple(even) + tuple(odd))


@dataclass(frozen=True)
class OrthoSection:
    """A section of the orthogonal bundle C1 + C1^v (plus an optional rank-one pair).

    vector_part pairs against the dual generators (contraction); covector_part
    wedges.  The optional (l_part, linv_part) pair occupies the extension slot:
    l_part wedges with the extra generator, linv_part contracts it.
    """

    ring: PolyRing
    vector_part: tuple[Poly, ...]
    covector_part: tuple[Poly, ...]
    l_part: Poly | None = None
    linv_part: Poly | None = None

    def __post_init__(self):
        if len(self.vector_part) != len(self.covector_part):
            raise ShapeError("vector and covector parts must have equal length")
        if (self.l_part is None) != (self.linv_part is None):
            raise ShapeError("the extension pair must be given together")

    @property
    def base_rank(self) -> int:
        return len(self.vector_part)

    @property
    def extended(self) -> bool:
        return self.l_part is not None

    def wedge_coeffs(self) -> tuple[Poly, ...]:
        return self.covector_part + ((self.l_part,) if self.extended else ())

    def contract_coeffs(self) -> tuple[Poly, ...]:
        return self.vector_part + ((self.linv_part,) if self.extended else ())

    def pairing(self) -> Poly:
        q = self.ring.zero
        for a, b in zip(self.wedge_coeffs(), self.contract_coeffs()):
            q = q + a * b
        return q


def wedge_operator(spinor: SpinorModule, coeffs: tuple[Poly, ...]) -> ParityMap:
    """Wedging with sum(coeffs[i] * generator_{i+1}); squares to zero."""
    n = spinor.generators
    if len(coeffs) != n:
        raise ShapeError(f"expected {n} wedge coefficients, got {len(coeffs)}")
    idx = spinor._index
    size = spinor.module.total_rank
    z = spinor.ring.zero
    out = [[z] * size for _ in range(size)]
    for col, subset in enumerate(spinor.subsets):
        present = set(subset)
        for gen in range(1, n + 1):
            if gen in present or coeffs[gen - 1].is_zero():
                continue
            sign = -1 if sum(1 for s in subset if s < gen) % 2 else 1
            new = tuple(sorted(subset + (gen,)))
            row = idx[new]
            val = coeffs[gen - 1] if sign > 0 else -coeffs[gen - 1]
            out[row][col] = out[row][col] + val
    return ParityMap(spinor.module, spinor.module, ODD, out)


def contraction_operator(spinor: SpinorModule, coeffs: tuple[Poly, ...]) -> ParityMap:
    """Contraction by the vector with the given pairing coefficients.

    On a basis monomial it removes one generator at a time with the
    alternating sign of its position, which is the unique odd-derivation
    extension of the degree-one pairing.
    """
    n = spinor.generators
    if len(coeffs) != n:
        raise ShapeError(f"expected {n} contraction coefficients, got {len(coeffs)}")
    idx = spinor._index
    size = spinor.module.total_rank
    z = spinor.ring.zero
    out = [[z] * size for _ in range(size)]
    for col, subset in enumerate(spinor.subsets):
        for pos, gen in enumerate(subset):
            c = coeffs[gen - 1]
            if c.is_zero():
                continue
            new = subset[:pos] + subset[pos + 1:]
            row = idx[new]
            val = c if pos % 2 == 0 else -c
            out[row][col] = out[row][col] + val
    return ParityMap(spinor.module, spinor.module, ODD, out)


def clifford_action(s: OrthoSection, spinor: SpinorModule) -> ParityMap:
    if s.extended != spinor.extended or s.base_rank != spinor.base_rank:
        raise ShapeError(
            f"section shape ({s.base_rank}, extended={s.extended}) does not match "
            f"spinor module ({spinor.base_rank}, extended={spinor.extended})")
    return wedge_operator(spinor, s.wedge_coeffs()) + \
        contraction_operator(spinor, s.contract_coeffs())


def clifford_square(s: OrthoSection, spinor: SpinorModule) -> Poly:
    """The pairing q(s); asserts action(s)^2 == q(s) * id as a regression guard."""
    q = s.pairing()
    action = clifford_action(s, spinor)
    if residual([(1, action, action)], diagonal=(spinor.module, q)) is not None:
        raise AssertionError(
            "clifford action square disagrees with the pairing; "
            "sign convention regression")
    return q


@dataclass(frozen=True)
class SpinorSplit:
    """Identification of the extended spinor module with S + S[1].

    The first summand is spanned by the plain multi-indices; the second is
    wedging with the extension generator, with the sign that moves the
    generator to the front.
    """

    extended: SpinorModule
    plain: SpinorModule
    summand: SuperModule
    to_sum: ParityMap
    from_sum: ParityMap


def spinor_split(s_ext: SpinorModule) -> SpinorSplit:
    if not s_ext.extended:
        raise ShapeError("spinor_split needs an extended spinor module")
    plain = spinor_module(s_ext.ring, s_ext.base_rank, extended=False)
    summand, embs = direct_sum_modules(
        [plain.module, plain.module.shifted()], ["x.", "x'."])
    theta = s_ext.base_rank + 1
    z, one = s_ext.ring.zero, s_ext.ring.one
    to_entries = [[z] * s_ext.module.total_rank for _ in range(summand.total_rank)]
    plain_idx = plain._index
    shift_perm = plain.module.shift_perm()
    for col, subset in enumerate(s_ext.subsets):
        if theta not in subset:
            row = embs[0][plain_idx[subset]]
            to_entries[row][col] = one
        else:
            rest = tuple(i for i in subset if i != theta)
            row = embs[1][shift_perm[plain_idx[rest]]]
            to_entries[row][col] = one if len(rest) % 2 == 0 else -one
    to_sum = ParityMap(s_ext.module, summand, EVEN, to_entries)
    from_sum = to_sum.transposed()   # entries are +-1, so the inverse is the transpose
    return SpinorSplit(s_ext, plain, summand, to_sum, from_sum)
