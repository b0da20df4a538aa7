"""Replayable certificates for identities between classes of complexes.

A certificate claims that an integer combination of flat complexes vanishes
relative to a support locus, and justifies it by an ordered list of moves,
each of which encodes one admissible relation:

* a filtration move: a filtered complex equals the sum of its graded slices,
* a homotopy move: a null-homotopic complex vanishes,
* an isomorphism move: isomorphic complexes are equal.

Verification replays every move with exact arithmetic and then checks that
the claim is the stated integer combination of the move relations.  Nothing
is sampled on this path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .complexes import (CurvatureError, CurvedComplex, Filtration,
                        SupportLocus, Verdict, filtration_verify, graded_slice,
                        homotopy_verdict)
from .polynomials import ContextError, PolyRing
from .scalars import FieldError
from .supermod import EVEN, ODD, ParityMap, ShapeError, residual

# What replaying a move with inconsistent data raises: mismatched shapes or
# rings, a square that is not scalar, an unavailable field operation.
# Anything else is a fault of the engine and propagates.
MALFORMED_MOVE_ERRORS = (ShapeError, ContextError, CurvatureError, FieldError)


@dataclass(frozen=True)
class IsoPair:
    forward: ParityMap
    inverse: ParityMap


@dataclass(frozen=True)
class HomotopyMove:
    """[C] = 0, witnessed by a contracting homotopy."""

    complex: CurvedComplex
    h: ParityMap

    def relation(self) -> Counter:
        return Counter({self.complex.digest(): 1})

    def involved(self) -> list[CurvedComplex]:
        return [self.complex]

    def replay(self) -> Verdict:
        if self.h.parity != ODD:
            return Verdict(False, "homotopy-move", message="witness must be odd")
        # d.h + h.d - 1*id, the identity a diagonal term rather than a map
        c, h = self.complex, self.h
        return homotopy_verdict(residual([(1, c.d, h), (1, h, c.d)],
                                         diagonal=(c.module, c.module.ring.one)), "homotopy")


@dataclass(frozen=True)
class FiltrationMove:
    """[C] = sum of the graded-slice targets, witnessed by slice isomorphisms.

    ``filtration`` is the checked :class:`Filtration` of C that its builder
    or the bundle reader made; C and the steps are read off it.
    """

    filtration: Filtration
    targets: tuple[CurvedComplex, ...]
    isos: tuple[IsoPair, ...]

    @property
    def complex(self) -> CurvedComplex:
        return self.filtration.complex

    @property
    def steps(self) -> tuple[tuple[int, ...], ...]:
        return self.filtration.steps

    def relation(self) -> Counter:
        rel = Counter({self.complex.digest(): 1})
        for t in self.targets:
            rel[t.digest()] -= 1
        return rel

    def involved(self) -> list[CurvedComplex]:
        return [self.complex, *self.targets]

    def replay(self) -> Verdict:
        """Replay the move; sound only once d^2 = W*id is checked on the whole
        complex, as :func:`verify`'s curvature pass does before it replays.

        The graded slices are not squared again: each takes the curvature of
        the whole complex, which the curvature pass has checked.  The verdict's
        children are the filtration check and then one check per slice, up to
        the first that fails; a failing move reads as that check.
        """
        filt, c = self.filtration, self.complex
        if len(self.targets) != len(filt.steps) or len(self.isos) != len(filt.steps):
            return Verdict(False, "filtration-move",
                           message="one target and one isomorphism per step required")
        # the slices only sum to the whole complex if the first step spans it
        n = c.module.total_rank
        if not filt.steps or set(filt.steps[0]) != set(range(n)):
            return Verdict(False, "filtration-move",
                           message="first filtration step must span the module")
        parts = [filtration_verify(c, filt)]
        # No product for the slices.  verify() has checked d^2 = W*id on the
        # whole complex, and filtration_verify that d keeps every step F_j.
        # For a, c in the slice S_j = F_j - F_(j+1), (d^2)[a][c] sums
        # d[a][b] * d[b][c] over b: d[b][c] != 0 puts b in F_j, and b in
        # F_(j+1) would put a in F_(j+1).  So b runs over S_j alone, and
        # gr_j(d)^2 = gr_j(d^2) = W*id.  An empty slice keeps the curvature
        # 0 that curvature_check gives the zero module.
        curvature = c.curvature
        for j, (target, pair) in enumerate(zip(self.targets, self.isos), start=1):
            if not parts[-1]:
                break
            sub, d = graded_slice(c, filt, j)
            gr = CurvedComplex(sub, d, curvature if sub.total_rank else curvature.ring.zero)
            parts.append(_verify_iso(gr, target, pair, f"filtration-move gr{j}"))
        head = parts[-1] if not parts[-1] else Verdict(True, "filtration-move")
        return replace(head, children=tuple(parts))


@dataclass(frozen=True)
class IsoMove:
    """[C] = [C'], witnessed by mutually inverse even chain isomorphisms."""

    source: CurvedComplex
    target: CurvedComplex
    iso: IsoPair

    def relation(self) -> Counter:
        rel = Counter({self.source.digest(): 1})
        rel[self.target.digest()] -= 1
        return rel

    def involved(self) -> list[CurvedComplex]:
        return [self.source, self.target]

    def replay(self) -> Verdict:
        return _verify_iso(self.source, self.target, self.iso, "iso-move")


Move = HomotopyMove | FiltrationMove | IsoMove


def _verify_iso(source: CurvedComplex, target: CurvedComplex, pair: IsoPair,
                kind: str) -> Verdict:
    fwd, bwd = pair.forward, pair.inverse
    if fwd.parity != EVEN or bwd.parity != EVEN:
        return Verdict(False, kind, message="isomorphisms must be even")
    if fwd.source != source.module or fwd.target != target.module:
        return Verdict(False, kind, message="forward map has the wrong shape")
    if bwd.source != target.module or bwd.target != source.module:
        return Verdict(False, kind, message="inverse map has the wrong shape")
    if source.curvature != target.curvature:
        return Verdict(False, kind, message="curvature mismatch")
    d_s, d_t = source.d, target.d
    if (_is_unit(fwd) and _is_unit(bwd) and d_s.parity == d_t.parity
            and d_s.source == d_s.target == source.module
            and d_t.source == d_t.target == target.module):
        # Both maps are the unit matrix, so fwd.bwd and bwd.fwd are the
        # identity and fwd.d_s - d_t.fwd is d_s - d_t: the two differentials
        # agree entry by entry or fwd is not a chain map.  No product is formed.
        if any(tuple(a) != tuple(b) for a, b in zip(d_s.rows, d_t.rows)):
            return Verdict(False, kind, message="forward map is not a chain map")
        return Verdict(True, kind)
    if residual([(1, fwd, d_s), (-1, d_t, fwd)]) is not None:
        return Verdict(False, kind, message="forward map is not a chain map")
    one = source.module.ring.one
    if residual([(1, fwd, bwd)], diagonal=(target.module, one)) is not None:
        return Verdict(False, kind, message="forward . inverse is not the identity")
    if residual([(1, bwd, fwd)], diagonal=(source.module, one)) is not None:
        return Verdict(False, kind, message="inverse . forward is not the identity")
    return Verdict(True, kind)


def _is_unit(m: ParityMap) -> bool:
    """Whether ``m`` is the unit matrix between modules of one shape: row i
    holds exactly the entry (i, 1)."""
    source, target = m.source, m.target
    if source.even_rank != target.even_rank or source.odd_rank != target.odd_rank:
        return False
    if len(m.rows) != source.total_rank:
        return False
    for i, row in enumerate(m.rows):
        if len(row) != 1 or row[0][0] != i or not row[0][1].is_one():
            return False
    return True


@dataclass
class Certificate:
    """A claim sum a_i [C_i] = 0 rel Z together with its justifying moves."""

    ring: PolyRing
    z: SupportLocus
    claim: list[tuple[int, CurvedComplex]]
    moves: list[tuple[int, Move]]
    names: dict[str, str] = field(default_factory=dict)

    def name_of(self, c: CurvedComplex) -> str:
        return self.names.get(c.digest(), c.digest())

    def all_complexes(self) -> list[CurvedComplex]:
        seen: dict[str, CurvedComplex] = {}
        for _, c in self.claim:
            seen.setdefault(c.digest(), c)
        for _, move in self.moves:
            for c in move.involved():
                seen.setdefault(c.digest(), c)
        return list(seen.values())

    def claim_counter(self) -> Counter:
        total: Counter = Counter()
        for coeff, c in self.claim:
            total[c.digest()] += coeff
        return total

    def assumed_exact(self) -> list[str]:
        """The names of the claim terms no homotopy move discharges, in claim
        order: these rely on an exactness assumption."""
        discharged = {m.complex.digest() for _, m in self.moves
                      if isinstance(m, HomotopyMove)}
        return list(dict.fromkeys(self.name_of(c) for coeff, c in self.claim
                                  if coeff != 0 and c.digest() not in discharged))


def verify(cert: Certificate) -> Verdict:
    """Replay every move exactly and reduce the formal claim to zero.

    The verdict, of kind ``certificate``, is a tree.  Its first child is the
    ``curvature`` pass, with one child per complex of ``cert.all_complexes()``
    in that order (see :func:`_curvature_pass`).  When a complex lacks its
    recorded curvature, or a claim term is curved, the replay stops there:
    the curvature pass is the only child, and its message is the
    certificate's.  Otherwise one verdict per move follows, then the
    ``ledger``, whose message is the certificate's.  Each move is replayed at
    most once: a filtration move the curvature pass replayed shows that
    verdict.
    """
    complexes = cert.all_complexes()
    replays: dict[int, Verdict] = {}

    def replay(k: int) -> Verdict:
        if k not in replays:
            try:
                replays[k] = cert.moves[k][1].replay()
            except MALFORMED_MOVE_ERRORS as exc:
                replays[k] = Verdict(False, "move", message=f"malformed move data: {exc}")
        return replays[k]

    checks = _curvature_pass(cert, complexes, replay)
    # no move verdict is shown unless every complex has its recorded curvature
    stop = next((f"complex {cert.name_of(c)} does not have its recorded curvature"
                 for c, v in zip(complexes, checks) if not v), "")
    stop = stop or next((f"claim term {cert.name_of(c)} is curved, not a complex"
                         for coeff, c in cert.claim
                         if coeff != 0 and not c.curvature.is_zero()), "")
    curvature = Verdict(not stop, "curvature", message=stop, children=checks)
    if stop:
        return Verdict(False, "certificate", message=stop, children=(curvature,))
    moves = [replay(k) for k in range(len(cert.moves))]
    residue = cert.claim_counter()
    for coeff, move in cert.moves:
        for digest, mult in move.relation().items():
            residue[digest] -= coeff * mult
    leftovers = ", ".join(f"{v} * [{cert.names.get(k, k)}]"
                          for k, v in sorted(residue.items()) if v != 0)
    message = f"unreduced terms: {leftovers}" if leftovers else ""
    ledger = Verdict(not leftovers, "ledger", message=message)
    return Verdict(all(moves) and ledger.ok, "certificate", message=message,
                   children=(curvature, *moves, ledger))


def _curvature_pass(cert: Certificate, complexes: list[CurvedComplex],
                    replay) -> tuple[Verdict, ...]:
    """The curvature verdict of each of ``complexes``, in order.

    Every complex is squared except a target T of a filtration move whose
    whole complex W was squared here and passed, records the curvature of T,
    and whose move passes when ``replay`` (by index into ``cert.moves``)
    replays it.  Then T passes unsquared, and squaring it would pass too:
    d_W^2 = W*id and the filtration check give gr_j(d)^2 = W*id on the
    slice (see :meth:`FiltrationMove.replay`), and the checked slice
    isomorphism f with inverse g gives d_T = f.gr_j(d).g, so d_T^2 = W*id.
    W must be no target of a filtration move itself: one step only.
    """
    by_digest = {c.digest(): c for c in complexes}
    sources: dict[str, list[int]] = {}   # target digest -> its filtration moves
    for k, (_, move) in enumerate(cert.moves):
        if isinstance(move, FiltrationMove):
            for t in move.targets:
                sources.setdefault(t.digest(), []).append(k)
    squared = {key: _curvature_verdict(c) for key, c in by_digest.items()
               if key not in sources}

    def derives(target: CurvedComplex, k: int) -> bool:
        move = cert.moves[k][1]
        w = move.complex
        # W and T must be the complexes checked under their digests here
        return (bool(squared.get(w.digest()))
                and _same(by_digest[w.digest()], w)
                and w.curvature == target.curvature
                and any(_same(t, target) for t in move.targets)
                and bool(replay(k)))

    def check(c: CurvedComplex) -> Verdict:
        key = c.digest()
        if key in squared:
            return squared[key]
        if any(derives(c, k) for k in sources[key]):
            return Verdict(True, "curvature")
        return _curvature_verdict(c)

    return tuple(check(c) for c in complexes)


def _same(a: CurvedComplex, b: CurvedComplex) -> bool:
    return a is b or a == b


def _curvature_verdict(c: CurvedComplex) -> Verdict:
    bad = residual([(1, c.d, c.d)], diagonal=(c.module, c.curvature))
    if bad is None:
        return Verdict(True, "curvature")
    where, value = bad   # FRAME_MISMATCH reads (None, None)
    return Verdict(False, "curvature", location=where, residual=value,
                   message=f"d^2 differs from the recorded curvature {c.curvature}")
