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
                        is_homotopy)
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
        c = self.complex
        return is_homotopy(c, c, self.h, c.identity_map(), c.zero_map())


@dataclass(frozen=True)
class FiltrationMove:
    """[C] = sum of the graded-slice targets, witnessed by slice isomorphisms."""

    complex: CurvedComplex
    steps: tuple[tuple[int, ...], ...]
    targets: tuple[CurvedComplex, ...]
    isos: tuple[IsoPair, ...]

    def __init__(self, complex, steps, targets, isos):
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "steps", tuple(tuple(s) for s in steps))
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "isos", tuple(isos))

    def relation(self) -> Counter:
        rel = Counter({self.complex.digest(): 1})
        for t in self.targets:
            rel[t.digest()] -= 1
        return rel

    def involved(self) -> list[CurvedComplex]:
        return [self.complex, *self.targets]

    def replay(self) -> Verdict:
        """Replay the move; sound only after :func:`verify`'s curvature pass.

        The graded slices are not squared again: each takes the curvature of
        the whole complex, which the curvature pass has checked.  The verdict's
        children are the filtration check and then one check per slice, up to
        the first that fails; a failing move reads as that check.
        """
        if len(self.targets) != len(self.steps) or len(self.isos) != len(self.steps):
            return Verdict(False, "filtration-move",
                           message="one target and one isomorphism per step required")
        # the slices only sum to the whole complex if the first step spans it
        n = self.complex.module.total_rank
        if not self.steps or set(self.steps[0]) != set(range(n)):
            return Verdict(False, "filtration-move",
                           message="first filtration step must span the module")
        try:
            filt = Filtration(self.complex, self.steps)
        except ShapeError as exc:
            return Verdict(False, "filtration-move", message=str(exc))
        parts = [filtration_verify(self.complex, filt)]
        # No product for the slices.  verify() has checked d^2 = W*id on the
        # whole complex, and filtration_verify that d keeps every step F_j.
        # For a, c in the slice S_j = F_j - F_(j+1), (d^2)[a][c] sums
        # d[a][b] * d[b][c] over b: d[b][c] != 0 puts b in F_j, and b in
        # F_(j+1) would put a in F_(j+1).  So b runs over S_j alone, and
        # gr_j(d)^2 = gr_j(d^2) = W*id.  An empty slice keeps the curvature
        # 0 that curvature_check gives the zero module.
        curvature = self.complex.curvature
        for j, (target, pair) in enumerate(zip(self.targets, self.isos), start=1):
            if not parts[-1]:
                break
            sub, d = graded_slice(self.complex, filt, j)
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
    if residual([(1, fwd, source.d), (-1, target.d, fwd)]) is not None:
        return Verdict(False, kind, message="forward map is not a chain map")
    one = source.module.ring.one
    if residual([(1, fwd, bwd)], diagonal=(target.module, one)) is not None:
        return Verdict(False, kind, message="forward . inverse is not the identity")
    if residual([(1, bwd, fwd)], diagonal=(source.module, one)) is not None:
        return Verdict(False, kind, message="inverse . forward is not the identity")
    return Verdict(True, kind)


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
    in that order.  When a complex lacks its recorded curvature, or a claim
    term is curved, the replay stops there: the curvature pass is the only
    child, and its message is the certificate's.  Otherwise one verdict per
    move follows, then the ``ledger``, whose message is the certificate's.
    """
    complexes = cert.all_complexes()
    checks = tuple(_curvature_verdict(c) for c in complexes)
    # no move is replayed unless every complex has its recorded curvature
    stop = next((f"complex {cert.name_of(c)} does not have its recorded curvature"
                 for c, v in zip(complexes, checks) if not v), "")
    stop = stop or next((f"claim term {cert.name_of(c)} is curved, not a complex"
                         for coeff, c in cert.claim
                         if coeff != 0 and not c.curvature.is_zero()), "")
    curvature = Verdict(not stop, "curvature", message=stop, children=checks)
    if stop:
        return Verdict(False, "certificate", message=stop, children=(curvature,))
    moves = []
    for _, move in cert.moves:
        try:
            moves.append(move.replay())
        except MALFORMED_MOVE_ERRORS as exc:
            moves.append(Verdict(False, "move", message=f"malformed move data: {exc}"))
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


def _curvature_verdict(c: CurvedComplex) -> Verdict:
    bad = residual([(1, c.d, c.d)], diagonal=(c.module, c.curvature))
    if bad is None:
        return Verdict(True, "curvature")
    where, value = bad   # FRAME_MISMATCH reads (None, None)
    return Verdict(False, "curvature", location=where, residual=value,
                   message=f"d^2 differs from the recorded curvature {c.curvature}")
