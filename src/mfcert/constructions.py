"""The named constructions: certified decompositions and section calculus.

* :func:`lemma1_build`, :func:`remark_decompose` and :func:`lemma2_build`
  make one argument three times: a flat total complex W whose slot
  filtration has the target complexes as its graded slices, and a
  contracting homotopy of W, so that the targets sum to zero in K-theory.
  Each assembles its W and homotopy and hands them to the one builder,
  ``_filtered_total``, which makes the filtration, the slice isomorphisms and
  the certificate; each returns a :class:`TotalResult`.  lemma1 and remark
  share W: ``_newton_total`` writes V[lambda]/(f) in the Newton basis of the
  roots of f, with d(lambda) acting by Horner's rule, and its slices are the
  evaluations (V, d(z)) at the roots.  For lemma1 f is ``lambda**r``, the
  root 0 taken r times, so the targets are r copies of (V, d0); for remark f
  is squarefree and split.  The targets of lemma2 are the r flat
  differentials on V + V[1] of an odd endomorphism with square -(f1...fr).
* :func:`s_lambda_check` and :func:`s_xi_reduce` drive the spinor-side
  constructions: a deformed isotropic section squaring to lambda**r, and the
  root-of-unity twisted sections whose transported actions are exactly the
  product-family differentials.
* :func:`cone_lift` extends a map along a mapping cone using a homotopy
  witness; :func:`cone_lift_check` reports its preconditions line by line.
  The cone itself (:class:`ChainMap`, :func:`is_chain_map`, :func:`cone`)
  lives here, with its one user, and so does :func:`compose_certs`, which
  only :func:`s_xi_reduce` calls: the replay runs none of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import factorial, prod

from .clifford import (OrthoSection, SpinorModule, clifford_action,
                       spinor_module, spinor_split)
from .complexes import (CurvatureError, CurvedComplex, Filtration,
                        InvariantError, SupportLocus, Verdict, curvature_check,
                        homotopy_verdict, is_homotopy, report_line, slice_basis)
from .kcert import (Certificate, FiltrationMove, HomotopyMove,
                    IsoMove, IsoPair, verify)
from .polynomials import LAMBDA, ContextError, Poly, PolyRing
from .scalars import Scalar
from .serialize import check_datum_entries
from .supermod import (EVEN, ODD, ParityMap, ShapeError,
                       SuperModule, assemble, direct_sum_modules, parity_unit,
                       residual)


def _vanishes(kind: str, diff: Poly, message: str = "") -> Verdict:
    """The verdict that ``diff`` is zero, with ``diff`` as its residual if not."""
    if diff.is_zero():
        return Verdict(True, kind)
    return Verdict(False, kind, message=message, residual=diff)


def _require_lambda(ring: PolyRing):
    if LAMBDA not in ring.variables:
        raise ContextError(f"ring {ring!r} must contain the variable '{LAMBDA}'")


def _lambda_coefficients(m: ParityMap, limit: int) -> list[ParityMap]:
    """Split a map into lambda-degree coefficient maps; degrees >= limit rejected.

    Each entry is split in one pass; the first entry in row-major order whose
    lambda-degree reaches ``limit`` is the one rejected.
    """
    rows = [[[] for _ in m.rows] for _ in range(limit)]
    for i, row in enumerate(m.rows):
        for j, p in row:
            parts = p.coefficients_in(LAMBDA)
            top = max(parts)
            if top >= limit:
                raise InvariantError(f"entry {p} has lambda-degree {top} >= {limit}")
            for k, q in parts.items():
                rows[k][i].append((j, q))
    return [ParityMap._from_rows(m.source, m.target, m.parity, map(tuple, split))
            for split in rows]


# ---------------------------------------------------------------------------
# deformation families with square lambda^r
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaFamily:
    """d(lambda) = d0 + d1*lambda + ... with d(lambda)^2 = lambda^r * id.

    Build one with :meth:`from_map`, which checks the family.
    """

    module: SuperModule
    coefficients: tuple[ParityMap, ...]
    r: int

    @classmethod
    def from_map(cls, module: SuperModule, d_lambda: ParityMap, r: int) -> "LambdaFamily":
        """The family of ``d_lambda``, split by lambda-degree and squared as read.

        The coefficients are lambda-free by construction and share the parity
        and frame of ``d_lambda``, so checking ``d_lambda`` checks them all.
        """
        coefficients = tuple(_lambda_coefficients(d_lambda, r))
        if r < 2:
            raise InvariantError(f"need r >= 2, got {r}")
        _require_lambda(module.ring)
        if d_lambda.parity != ODD or d_lambda.source != module or d_lambda.target != module:
            raise InvariantError("coefficient 0 is not an odd endomorphism")
        lam = module.ring.var(LAMBDA)
        if residual([(1, d_lambda, d_lambda)], diagonal=(module, lam ** r)) is not None:
            raise InvariantError("family square is not lambda^r * id")
        return cls(module, coefficients, r)


# ---------------------------------------------------------------------------
# filtered totals: graded slices that sum to a null-homotopic complex
# ---------------------------------------------------------------------------

@dataclass
class TotalResult:
    """A flat total complex ``w`` whose slot filtration has ``targets`` as its
    graded slices and which ``homotopy`` contracts, so ``certificate`` proves
    that the targets sum to zero.

    The builders only construct: each complex carries the curvature its lemma
    states, and the one replay of the certificate checks every identity.
    :meth:`read` fills in ``lines``, the report lines read off that replay.
    """

    w: CurvedComplex
    filtration: Filtration
    targets: list[CurvedComplex]
    homotopy: HomotopyMove
    certificate: Certificate
    lines: tuple[Verdict, ...] = ()

    @property
    def ok(self) -> bool:
        return all(self.lines)

    def read(self, flat: dict[str, CurvedComplex], cert: Certificate | None = None,
             at: int = 0) -> "TotalResult":
        """Replay ``cert`` (by default ``certificate``) and read the report
        lines off it: one per complex in ``flat`` from the curvature pass,
        ``filtration`` and ``gr1``... from the filtration move at index
        ``at``, ``homotopy`` from the move after it, and last
        ``certificate-replay``, whose one child is the replay."""
        cert = cert or self.certificate
        replay = verify(cert)
        # the curvature pass has one child per complex of the replayed certificate
        curvature = dict(zip((c.digest() for c in cert.all_complexes()),
                             replay.children[0].children))
        lines = [report_line(name, curvature[c.digest()]) for name, c in flat.items()]
        moves = replay.children[1:-1]
        parts = (moves[at].children or (moves[at],)) if moves else ()
        slices = [f"gr{j}" for j in range(1, len(self.targets) + 1)]
        lines += [_reached(replay, parts, k, name)
                  for k, name in enumerate(["filtration", *slices])]
        lines.append(_reached(replay, moves, at + 1, "homotopy"))
        lines.append(Verdict(replay.ok, "certificate-replay", children=(replay,)))
        self.lines = tuple(lines)
        return self


def _reached(replay: Verdict, verdicts, k: int, name: str) -> Verdict:
    """The line ``name`` read off ``verdicts[k]`` of the replay, or FAIL when
    the replay stopped before it."""
    if k < len(verdicts):
        return report_line(name, verdicts[k])
    why = "an earlier check of its move failed" if replay.children[0] else replay.message
    return report_line(name, Verdict(False, name, message=f"not replayed: {why}"))


def _identity_between(source: SuperModule, target: SuperModule) -> ParityMap:
    """The unit matrix between modules of identical shape but different labels."""
    if (source.even_rank, source.odd_rank) != (target.even_rank, target.odd_rank):
        raise ShapeError("identity between modules of different shape")
    one = source.ring.one
    return ParityMap._from_rows(source, target, EVEN,
                                (((i, one),) for i in range(source.total_rank)))


def _slot_filtration(c: CurvedComplex, embeddings: list[list[int]]) -> Filtration:
    """Descending filtration whose j-th step is the span of slots >= j-1."""
    steps = []
    r = len(embeddings)
    for j in range(r):
        idx = sorted(i for emb in embeddings[j:] for i in emb)
        steps.append(tuple(idx))
    return Filtration(c, tuple(steps))


def _slice_isos(c: CurvedComplex, filt: Filtration,
                targets: list[CurvedComplex]) -> list[IsoPair]:
    """Identity-shaped isomorphisms between each graded slice and its target."""
    isos = []
    for j, target in enumerate(targets, start=1):
        sub, _ = slice_basis(c, filt, j)
        isos.append(IsoPair(_identity_between(sub, target.module),
                            _identity_between(target.module, sub)))
    return isos


def _filtered_total(z: SupportLocus, w_module: SuperModule, embs: list[list[int]],
                    d_w: ParityMap, h: ParityMap, targets: list[CurvedComplex],
                    claim: list[tuple[int, CurvedComplex]],
                    labels: list[str]) -> TotalResult:
    """The flat W = (w_module, d_w), filtered by the slots ``embs`` with
    ``targets`` as its slices and contracted by ``h``, certifying ``claim``.

    The certificate names W ``W`` and each target by its label; when two of
    them share a digest, W wins, then the first label.
    """
    ring = w_module.ring
    w = CurvedComplex(w_module, d_w, ring.zero)
    filt = _slot_filtration(w, embs)
    homotopy = HomotopyMove(w, h)
    names = {w.digest(): "W"}
    for t, label in zip(targets, labels):
        names.setdefault(t.digest(), label)
    moves = [(-1, FiltrationMove(filt, tuple(targets), tuple(_slice_isos(w, filt, targets)))),
             (+1, homotopy)]
    return TotalResult(w, filt, targets, homotopy, Certificate(ring, z, claim, moves, names))


def _newton_total(module: SuperModule, coefficients: list[ParityMap], roots: list[Poly],
                  prefix: str, z: SupportLocus | None, targets: list[CurvedComplex],
                  claim: list[tuple[int, CurvedComplex]], labels: list[str]) -> TotalResult:
    """The read total on V[lambda]/(f) of d(lambda) = sum_m coefficients[m] lambda^m,
    f = prod (lambda - z_k) over ``roots``, in the Newton basis
    b_k = (lambda - z_1)...(lambda - z_k): slot k is V b_k.

    There lambda b_k = b_(k+1) + z_(k+1) b_k, and d(lambda) acts on each b_j by
    Horner's rule.  With the roots taken twice, b_(r+k) = f b_k: the slots
    r..2r-1 of d(lambda) b_j carry its quotient by f, the contracting homotopy.
    """
    r = len(roots)
    zs = [*roots, *roots]
    d_blocks: dict[tuple[int, int], ParityMap] = {}
    h_blocks: dict[tuple[int, int], ParityMap] = {}
    for j in range(r):
        column: dict[int, ParityMap] = {}   # slot k -> the coefficient map of b_k
        for coeff in reversed(coefficients):   # column <- lambda column + coeff b_j
            shifted = {j: coeff}
            for k, m in column.items():
                _add_slot(shifted, k + 1, m)
                if not zs[k].is_zero():
                    _add_slot(shifted, k, m.scale(zs[k]))
            column = shifted
        for k, m in column.items():
            if not m.is_zero():
                (d_blocks if k < r else h_blocks)[(k % r, j)] = m
    w_module, embs = direct_sum_modules([module] * r, [f"{prefix}{i}." for i in range(r)])
    res = _filtered_total(z or SupportLocus(), w_module, embs,
                          assemble(w_module, embs, w_module, embs, ODD, d_blocks),
                          assemble(w_module, embs, w_module, embs, ODD, h_blocks),
                          targets, claim, labels)
    return res.read({"flat": res.w})


def _add_slot(column: dict[int, ParityMap], k: int, m: ParityMap):
    """column[k] += m, placing m in an empty slot."""
    column[k] = column[k] + m if k in column else m


def lemma1_build(family: LambdaFamily,
                 z: SupportLocus | None = None) -> TotalResult:
    """Total complex on V[lambda]/(lambda^r) with filtration and null homotopy:
    the Newton total of f = lambda^r, whose root 0 is taken r times."""
    module, r, zero = family.module, family.r, family.module.ring.zero
    # flat: d0^2 is the lambda^0 coefficient of d(lambda)^2 = lambda^r * id
    d0 = CurvedComplex(module, family.coefficients[0], zero)
    return _newton_total(module, family.coefficients, [zero] * r, "l", z,
                         [d0] * r, [(r, d0)], ["V.d0"] * r)


# ---------------------------------------------------------------------------
# squarefree split target polynomial: one summand per root
# ---------------------------------------------------------------------------

def remark_decompose(module: SuperModule, d_lambda: ParityMap, f: Poly,
                     roots: list[Poly],
                     z: SupportLocus | None = None) -> TotalResult:
    """Split d(lambda)^2 = f(lambda) * id over the given distinct roots of f.

    The total complex V[lambda]/(f) is written in the Newton basis
    b_k = (lambda - z_1)...(lambda - z_k) of the roots, where d(lambda) acts by
    Horner's rule; the slot filtration then has the evaluation complexes
    (V, d(z_k)) as its graded slices, and the quotient of d(lambda) * b_j by
    f supplies the contracting homotopy.
    """
    ring = module.ring
    _require_lambda(ring)
    lam = ring.var(LAMBDA)
    r = f.degree_in(LAMBDA)
    if r < 2:
        raise InvariantError(f"target polynomial must have degree >= 2, got {r}")
    if not f.coefficient_in(LAMBDA, r).is_one():
        raise InvariantError(f"target polynomial {f} is not monic in {LAMBDA}")
    if len(roots) != r:
        raise InvariantError(f"expected {r} roots, got {len(roots)}")
    for zr in roots:
        if zr.degree_in(LAMBDA) > 0:
            raise InvariantError(f"root {zr} must be lambda-free")
    product = prod((lam - zr for zr in roots), start=ring.one)
    if product != f:
        raise InvariantError(f"product of (lambda - root) is {product}, not {f}")
    for i in range(r):
        for j in range(i + 1, r):
            if (roots[i] - roots[j]).is_zero():
                raise InvariantError(
                    f"repeated root {roots[i]}: target polynomial is not squarefree")
    # family shape: coefficients lambda-free of degree <= r-1
    coefficients = _lambda_coefficients(d_lambda, r)
    if residual([(1, d_lambda, d_lambda)], diagonal=(module, f)) is not None:
        raise InvariantError("family square is not f(lambda) * id")

    targets = []
    for zr in roots:   # flat: d(z)^2 = f(z) * id = 0 at a root z
        d_at = d_lambda.entrywise(lambda p: p.substitute(LAMBDA, zr))
        targets.append(CurvedComplex(module, d_at, ring.zero))
    return _newton_total(module, coefficients, roots, "b", z, targets,
                         [(1, t) for t in targets],
                         [f"V.d(root{k})" for k in range(1, r + 1)])


# ---------------------------------------------------------------------------
# product families: d^2 = -(f1...fr) * id
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistFamily:
    """An odd endomorphism whose square is minus the product of the given functions.

    Build one with :meth:`from_map`, which checks the family.
    """

    module: SuperModule
    d: ParityMap
    functions: tuple[Poly, ...]

    @classmethod
    def from_map(cls, module: SuperModule, d: ParityMap,
                 functions: tuple[Poly, ...]) -> "TwistFamily":
        """The family of ``d``, its square checked against -(f1...fr) * id."""
        if len(functions) < 1:
            raise InvariantError("need at least one function")
        if d.parity != ODD or d.source != module or d.target != module:
            raise InvariantError("d must be an odd endomorphism of the module")
        product = prod(functions, start=module.ring.one)
        if residual([(1, d, d)], diagonal=(module, -product)) is not None:
            raise InvariantError("square of d is not minus the product of the functions")
        return cls(module, d, tuple(functions))

    @property
    def r(self) -> int:
        return len(self.functions)


def _vv_module(module: SuperModule) -> tuple[SuperModule, list[list[int]]]:
    return direct_sum_modules([module, module.shifted()], ["x.", "x'."])


def product_differential(family: TwistFamily, i: int) -> ParityMap:
    """The i-th differential on V + V[1] (1-based):
    (x, x') -> (d x + prod_{j != i} f_j x', -d x' + f_i x)."""
    module, fs = family.module, family.functions
    ring = module.ring
    vv, embs = _vv_module(module)
    g = prod((f for j, f in enumerate(fs, start=1) if j != i), start=ring.one)
    unit = parity_unit(module)                     # V[1] -> V
    unit_rev = parity_unit(module.shifted())       # V -> V[1]
    blocks = {
        (0, 0): family.d,
        (0, 1): unit.scale(g),
        (1, 0): unit_rev.scale(fs[i - 1]),
        (1, 1): -family.d.shifted(),
    }
    return assemble(vv, embs, vv, embs, ODD, blocks)


def lemma2_build(family: TwistFamily,
                 z: SupportLocus | None = None) -> TotalResult:
    """The r flat differentials, their filtered total complex, and its homotopy."""
    res = _lemma2_total(family, z or SupportLocus())
    return res.read(_lemma2_flat(res))


def _lemma2_flat(res: TotalResult) -> dict[str, CurvedComplex]:
    """The lemma2 curvature lines: the total W, then each differential d_i."""
    return {"flat": res.w, **{f"d{i}-flat": dc for i, dc in enumerate(res.targets, start=1)}}


def _lemma2_total(family: TwistFamily, z: SupportLocus) -> TotalResult:
    """The unread lemma2 total, its targets the differentials d_i.

    Each d_i is flat: d_i^2 = d^2 + f_1...f_r = 0, and so is the total W.
    """
    module, fs = family.module, family.functions
    ring = module.ring
    r = family.r
    vv, embs2 = _vv_module(module)
    unit = parity_unit(module)
    unit_rev = parity_unit(module.shifted())

    d_list = [CurvedComplex(vv, product_differential(family, i), ring.zero)
              for i in range(1, r + 1)]

    w_module, embs = direct_sum_modules([vv] * r, [f"c{i}." for i in range(1, r + 1)])

    def vv_block(xxp=None, px=None) -> ParityMap:
        blocks = {}
        if xxp is not None:
            blocks[(0, 1)] = xxp
        if px is not None:
            blocks[(1, 0)] = px
        return assemble(vv, embs2, vv, embs2, ODD, blocks)

    def prefix_product(lo: int, hi: int) -> Poly:
        """f_lo * ... * f_hi with 1-based inclusive bounds; empty when lo > hi."""
        return prod(fs[lo - 1:hi], start=ring.one)

    # block (i, i) is d_i; block (i, k), k < i, carries f_{i+1}..f_r f_1..f_{k-1},
    # and the block just below the diagonal also sends x to -x'
    d_blocks: dict[tuple[int, int], ParityMap] = {}
    for i in range(1, r + 1):
        for k in range(1, i):
            coeff = prefix_product(i + 1, r) * prefix_product(1, k - 1)
            d_blocks[(i - 1, k - 1)] = vv_block(
                xxp=unit.scale(coeff), px=unit_rev.scale(-1) if k == i - 1 else None)
        d_blocks[(i - 1, i - 1)] = d_list[i - 1].d
    h_blocks: dict[tuple[int, int], ParityMap] = {}
    for i in range(1, r):
        for k in range(i + 1, r + 1):
            coeff = prefix_product(i + 1, k - 1)
            h_blocks[(i - 1, k - 1)] = vv_block(xxp=unit.scale(-coeff))
    h_blocks[(0, r - 1)] = (h_blocks.get((0, r - 1), vv_block())
                            + vv_block(px=unit_rev))
    return _filtered_total(z, w_module, embs,
                           assemble(w_module, embs, w_module, embs, ODD, d_blocks),
                           assemble(w_module, embs, w_module, embs, ODD, h_blocks),
                           d_list, [(1, dc) for dc in d_list],
                           [f"VV.d{i}" for i in range(1, r + 1)])


# ---------------------------------------------------------------------------
# deformed isotropic sections squaring to lambda^r
# ---------------------------------------------------------------------------

def _multisets(slots: int, degree: int):
    if slots == 0:
        if degree == 0:
            yield ()
        return
    for first in range(degree, -1, -1):
        for rest in _multisets(slots - 1, degree - first):
            yield (first,) + rest


def multinomial(exps: tuple[int, ...]) -> int:
    out = factorial(sum(exps))
    for e in exps:
        out //= factorial(e)
    return out


def _check_datum(data, matrix: str, unit: bool, forms=()):
    """The checks of a section datum, in order: r >= 2, then (with a ``unit``
    slot) lambda in the ring, the coordinates in the ring, the shapes of the
    ``matrix`` field, of the linear ``forms`` and of the tensor keys, and no
    entry of the three involving a coordinate (or, with a unit slot, lambda)."""
    if data.r < 2:
        raise InvariantError(f"need r >= 2, got {data.r}")
    if unit:
        _require_lambda(data.ring)
    for v in data.coords:
        if v not in data.ring.variables:
            raise ContextError(f"coordinate {v} missing from the ring")
    n0 = len(data.coords)
    rows = getattr(data, matrix)
    if len(rows) != data.c1_rank or any(len(row) != n0 + unit for row in rows):
        raise ShapeError(f"{matrix} has the wrong shape")
    if any(len(form) != n0 for form in forms):
        raise ShapeError("e1/e2 must be rows over the C0 coordinates")
    for m, vec in data.nu.items():
        if len(m) != n0 + unit or sum(m) != data.r - 1 or len(vec) != data.c1_rank:
            raise ShapeError(f"bad symmetric tensor key {m}")
    check_datum_entries(chain(*rows, *data.nu.values(), *forms), data.coords, unit)


@dataclass(frozen=True)
class TauData:
    """A two-term datum with unit slot and a symmetric pairing tensor.

    ``dtilde`` maps C0 + <unit> to C1 (the unit column last); ``nu`` stores
    the symmetric degree-(r-1) tensor into the dual of C1, keyed by exponent
    vectors over the C0 coordinates plus the unit slot.  Entries must not
    involve the fiber coordinates or lambda.
    """

    ring: PolyRing
    r: int
    coords: tuple[str, ...]
    c1_rank: int
    dtilde: tuple[tuple[Poly, ...], ...]
    nu: dict[tuple[int, ...], tuple[Poly, ...]]

    def __post_init__(self):
        _check_datum(self, "dtilde", unit=True)

    def section(self) -> OrthoSection:
        """The deformed section at the generic column x + lambda 1: vector part
        dtilde(x + lambda 1), covector part nu((x + lambda 1)^{r-1})."""
        cols = [self.ring.var(v) for v in self.coords] + [self.ring.var(LAMBDA)]
        return OrthoSection(self.ring,
                            tuple(_matrix_column(self.dtilde, cols, self.ring)),
                            tuple(apply_sym_tensor(self.nu, cols, self.c1_rank, self.ring)))

    def check(self) -> Verdict:
        """The zero-composition condition on the section's pairing."""
        return _zero_composition(self.section().pairing(), self.r)


def _zero_composition(q: Poly, r: int) -> Verdict:
    """Only the pure-unit term lambda^r of the pairing q may survive."""
    return _vanishes("zero-composition",
                     q - q.coefficient_in(LAMBDA, r) * q.ring.var(LAMBDA)**r,
                     "pairing has terms outside the unit direction")


def _matrix_column(rows, column: list[Poly], ring: PolyRing) -> list[Poly]:
    out = []
    for row in rows:
        acc = ring.zero
        for p, c in zip(row, column):
            acc = acc + p * c
        out.append(acc)
    return out


def apply_sym_tensor(nu: dict[tuple[int, ...], tuple[Poly, ...]],
                     column: list[Poly], n_out: int, ring: PolyRing) -> list[Poly]:
    """Evaluate a symmetric multilinear tensor on the power of a generic column."""
    out = [ring.zero] * n_out
    for m, vec in nu.items():
        mono = ring.const(multinomial(m))
        for c, e in zip(column, m):
            if e:
                mono = mono * c**e
        for b in range(n_out):
            if not vec[b].is_zero():
                out[b] = out[b] + mono * vec[b]
    return out


@dataclass
class SLambdaResult:
    """The two report lines, the section at lambda = 0 on its spinor module,
    and the induced family when the square is lambda^r."""

    lines: tuple[Verdict, Verdict]
    section_at_zero: OrthoSection
    spinor: SpinorModule
    family: LambdaFamily | None


def s_lambda_check(tau: TauData) -> SLambdaResult:
    """Form the deformed section and read both of its identities off one pairing.

    The pairing q = <nu((x + lambda 1)^{r-1}), dtilde(x + lambda 1)> is
    computed once, and both report lines are read off it: the
    ``zero-composition`` condition and ``square-is-lambda^r``, q = lambda^r.
    Only when q = lambda^r is the Clifford action built, once, as the family
    d(lambda); the square check of :class:`LambdaFamily` is then the one
    map-level check, since action^2 = q * id is the identity
    action^2 = lambda^r * id.  The action's entries have lambda-degree at
    most r - 1, as the datum's entries are lambda-free.
    """
    ring = tau.ring
    section = tau.section()
    q = section.pairing()
    verdict = _vanishes("s-lambda", q - ring.var(LAMBDA)**tau.r,
                        "square is not lambda^r")
    at_zero = OrthoSection(
        ring,
        tuple(p.substitute(LAMBDA, 0) for p in section.vector_part),
        tuple(p.substitute(LAMBDA, 0) for p in section.covector_part))
    spinor = spinor_module(ring, tau.c1_rank)
    family = None
    if verdict:
        family = LambdaFamily.from_map(spinor.module, clifford_action(section, spinor),
                                       tau.r)
    lines = (report_line("zero-composition", _zero_composition(q, tau.r)),
             report_line("square-is-lambda^r", verdict))
    return SLambdaResult(lines, at_zero, spinor, family)


# ---------------------------------------------------------------------------
# twisted sections over roots of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RamondData:
    """Section data with two linear functionals twisting over roots of unity."""

    ring: PolyRing
    r: int
    coords: tuple[str, ...]
    c1_rank: int
    d: tuple[tuple[Poly, ...], ...]
    nu: dict[tuple[int, ...], tuple[Poly, ...]]
    e1: tuple[Poly, ...]
    e2: tuple[Poly, ...]

    def __post_init__(self):
        _check_datum(self, "d", unit=False, forms=(self.e1, self.e2))

    def linear_form(self, row: tuple[Poly, ...]) -> Poly:
        acc = self.ring.zero
        for p, v in zip(row, self.coords):
            acc = acc + p * self.ring.var(v)
        return acc

    def section(self) -> OrthoSection:
        """The untwisted section at the generic column x: (d(x), nu(x^{r-1}))."""
        cols = [self.ring.var(v) for v in self.coords]
        return OrthoSection(self.ring, tuple(_matrix_column(self.d, cols, self.ring)),
                            tuple(apply_sym_tensor(self.nu, cols, self.c1_rank, self.ring)))

    def check(self) -> Verdict:
        """Isotropy across all twists: <nu(x^{r-1}), d(x)> = -(e1^r - e2^r)."""
        return _vanishes("twist-isotropy", self.section().pairing()
                         + self.linear_form(self.e1)**self.r
                         - self.linear_form(self.e2)**self.r)


def cyclotomic_coupling(ring: PolyRing, e1: Poly, e2: Poly, r: int,
                        xi: Scalar) -> Poly:
    """sum_{i=0}^{r-1} xi^{r-1-i} e1^i e2^{r-1-i}."""
    acc = ring.zero
    for i in range(r):
        acc = acc + (e1**i) * (e2 ** (r - 1 - i)) * ring.const(xi ** (r - 1 - i))
    return acc


@dataclass
class SXiReduceResult:
    """``lemma2`` holds the product-family construction, its lines read off
    the one replay of the combined ``certificate``; ``lines`` holds the
    coupling, product and match lines, then the lemma2 lines."""

    roots: list[Scalar]
    f_list: list[Poly]
    lemma2: TotalResult
    sections: list[OrthoSection]
    certificate: Certificate
    lines: tuple[Verdict, ...]


def compose_certs(c1: Certificate, c2: Certificate) -> Certificate:
    """Concatenate moves and add claims; both parts must share ring and locus."""
    if c1.ring != c2.ring:
        raise ShapeError("certificates live over different rings")
    if c1.z != c2.z:
        raise ShapeError("certificates have different support loci")
    by_digest: dict[str, CurvedComplex] = {}
    combined: Counter = Counter()
    for coeff, c in c1.claim + c2.claim:
        by_digest.setdefault(c.digest(), c)
        combined[c.digest()] += coeff
    claim = [(coeff, by_digest[d]) for d, coeff in combined.items() if coeff != 0]
    names = {**c1.names, **c2.names}
    return Certificate(c1.ring, c1.z, claim, c1.moves + c2.moves, names)


def s_xi_reduce(data: RamondData,
                z: SupportLocus | None = None) -> SXiReduceResult:
    """Transport every twisted section to a product-family differential.

    The section twisted by an r-th root of unity xi is (d(x), nu(x^{r-1}))
    extended by the pair (f_xi, c_xi): f_xi = e1 - xi*e2 wedges and the
    cyclotomic coupling c_xi contracts.  It acts on the extended spinor
    module; through the canonical split the action equals, entry for entry,
    one differential of the product family of the twists f_xi on the plain
    spinor module.

    Each part is computed once: the section parts and e1, e2 for all roots,
    and c_xi once per root, as both the operand of the ``coupling-xiK`` line
    and the section's contraction part.  No pairing is computed here,
    :meth:`RamondData.check` is not called and the product family is built
    unchecked: each complex ``spinor.s_xiK`` and each ``dK`` is recorded
    flat, so the replay's curvature pass proves action^2 = pairing * id = 0
    and d_K^2 = d^2 + f1...fr = 0, the isotropy, or fails it.  A datum that
    fails ``check()`` gives a result whose replay stops at that pass.
    """
    from .scalars import roots_of_unity

    z = z or SupportLocus()
    ring = data.ring
    r = data.r
    roots = roots_of_unity(ring.field, r)
    e1 = data.linear_form(data.e1)
    e2 = data.linear_form(data.e2)
    f_list = [e1 - e2 * ring.const(xi) for xi in roots]
    s0 = data.section()

    lines = []
    sections = []
    for i, xi in enumerate(roots):
        others = prod((f for j, f in enumerate(f_list) if j != i), start=ring.one)
        coupling = cyclotomic_coupling(ring, e1, e2, r, xi)
        name = f"coupling-xi{i + 1}"
        lines.append(report_line(name, _vanishes(name, others - coupling)))
        sections.append(OrthoSection(ring, s0.vector_part, s0.covector_part,
                                     f_list[i], coupling))
    total = prod(f_list, start=ring.one)
    lines.append(report_line("product-of-twists", _vanishes(
        "product-of-twists", total - (e1**r - e2**r))))

    plain = spinor_module(ring, data.c1_rank)
    twist = TwistFamily(plain.module, clifford_action(s0, plain), tuple(f_list))
    lemma2 = _lemma2_total(twist, z)
    differentials = lemma2.targets

    extended = spinor_module(ring, data.c1_rank, extended=True)
    split = spinor_split(extended)
    iso_moves = []
    names: dict[str, str] = {}
    ext_complexes = []
    for i, section in enumerate(sections):
        action = clifford_action(section, extended)
        # flat: the action squares to the pairing, 0 for an isotropic section
        ext_complex = CurvedComplex(extended.module, action, ring.zero)
        ext_complexes.append(ext_complex)
        target = differentials[i]
        names[ext_complex.digest()] = f"spinor.s_xi{i + 1}"
        names.setdefault(target.digest(), f"VV.d{i + 1}")
        iso_moves.append((+1, IsoMove(ext_complex, target,
                                      IsoPair(split.to_sum, split.from_sum))))

    iso_claim = [(1, c) for c in ext_complexes] + \
                [(-1, dc) for dc in differentials]
    combined = compose_certs(Certificate(ring, z, iso_claim, iso_moves, names),
                             lemma2.certificate)
    (replay,) = lemma2.read(_lemma2_flat(lemma2), combined, at=r).lines[-1].children
    # the iso move for xi_i proves the transported action equals d_i
    moves = replay.children[1:-1]
    lines += [_reached(replay, moves, i, f"match-xi{i + 1}") for i in range(r)]
    return SXiReduceResult(roots, f_list, lemma2, sections, combined,
                           (*lines, *lemma2.lines))


# ---------------------------------------------------------------------------
# lifting maps through mapping cones
# ---------------------------------------------------------------------------

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
    return homotopy_verdict(residual([(1, f.map, f.source.d), (sign, f.target.d, f.map)]),
                            "chain-map")


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


@dataclass
class ConeLiftResult:
    """The cone of g and the lift of f along it, both None unless every
    precondition line passes; ``lines`` holds the report lines."""

    cone: Cone | None
    lift: ChainMap | None
    lines: tuple[Verdict, ...]


def cone_lift_check(g: ChainMap, f: ChainMap, h: ParityMap) -> ConeLiftResult:
    """Check the preconditions of a cone lift once each, then build it once.

    The lines are ``g-chain-map``, ``f-chain-map`` and ``homotopy-witness``
    (d h + h d = f g for the odd map h: A -> C).  When all three pass, the
    cone of g is built once; its curvature check restates that g is a chain
    map.  The lift restricts to f on B and acts by h on the shifted copy of
    A; it is a chain map exactly when f is one and h is a witness, so that is
    not checked again.  The one identity checked on the lift is
    ``restriction-equals-f``: the lift composed with the inclusion of B is f.
    """
    if g.target is not f.source and g.target != f.source:
        raise ShapeError("maps do not compose: g must land in the source of f")
    a, c = g.source, f.target
    lines = (report_line("g-chain-map", is_chain_map(g)),
             report_line("f-chain-map", is_chain_map(f)),
             report_line("homotopy-witness", is_homotopy(
                 a, c, h, f.map.compose(g.map), ParityMap.zero(a.module, c.module, EVEN))))
    if not all(lines):
        return ConeLiftResult(None, None, lines)
    cn = cone(g)
    _, embs = direct_sum_modules([f.source.module, a.module.shifted()], ["b.", "a."])
    h_shift = h.compose(parity_unit(a.module))   # A[1] -> C, even
    lift = ChainMap(cn.complex, c, assemble(
        c.module, [list(range(c.module.total_rank))], cn.complex.module, embs, EVEN,
        {(0, 0): f.map, (0, 1): h_shift}))
    restriction = Verdict(lift.map.compose(cn.inclusion.map) == f.map, "restriction-equals-f")
    return ConeLiftResult(cn, lift, (*lines, report_line("restriction-equals-f", restriction)))


def cone_lift(g: ChainMap, f: ChainMap, h: ParityMap) -> ChainMap:
    """Extend f: B -> C along the cone of g: A -> B using a homotopy witness.

    ``h`` must be an odd map A -> C with d h + h d = f g.  Raises
    InvariantError naming the first line of :func:`cone_lift_check` that
    fails, such as a bad witness or a g that is not a chain map.
    """
    result = cone_lift_check(g, f, h)
    for line in result.lines:
        if not line:   # a failing line's message is its check's description
            raise InvariantError(f"cone lift precondition fails: {line.message}")
    return result.lift
