"""Curved Z/2-graded complexes: curvature, homotopies, filtrations, slices.

A curved complex is a module with an odd endomorphism d whose square is a
scalar polynomial times the identity (the curvature); curvature zero means a
genuine complex.  Identity checks return :class:`Verdict` values carrying the
first failing entry and its residual, so a false identity is data rather than
an exception.  A command's report is a verdict tree too: its root is the
command, and each child is a line that :func:`report_line` reads off a check.

This module holds what the certificate replay runs.  Mapping cones live in
:mod:`mfcert.constructions`, their one user, and the exactness sampler in
:mod:`mfcert.exactness`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .polynomials import Poly
from .supermod import (FRAME_MISMATCH, ODD, ParityMap, ShapeError,
                       SuperModule, residual, scalar_square)


class CurvatureError(ValueError):
    def __init__(self, message: str, entry: tuple[int, int] | None = None,
                 value: Poly | None = None):
        super().__init__(message)
        self.entry = entry
        self.value = value


class InvariantError(ValueError):
    """Constructor data violates its defining identity."""


@dataclass(frozen=True)
class SupportLocus:
    """A closed locus given by generators; no generators means the whole space."""

    generators: tuple[Poly, ...] = ()


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: str
    message: str = ""
    location: tuple[int, int] | None = None
    residual: Poly | None = None
    # the checks this verdict was read from, in order; in a replay the first
    # failing one ends them
    children: tuple["Verdict", ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"{self.kind}: pass"
        where = f" at entry {self.location}" if self.location else ""
        res = f", residual {self.residual}" if self.residual is not None else ""
        return f"{self.kind}: FAIL{where}{res} {self.message}".rstrip()


def report_line(kind: str, check: Verdict) -> Verdict:
    """The report line ``kind`` read off ``check``, its one child; a failing
    line's message is the check's description, naming its entry and residual."""
    return Verdict(check.ok, kind, "" if check else check.describe(), children=(check,))


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


def is_homotopy(source: CurvedComplex, target: CurvedComplex, h: ParityMap,
                lhs: ParityMap, rhs: ParityMap) -> Verdict:
    """Check d_target.h + h.d_source == lhs - rhs, exactly."""
    if h.parity != ODD:
        return Verdict(False, "homotopy", message="homotopy must be odd")
    return homotopy_verdict(residual([(1, target.d, h), (1, h, source.d)],
                                     [(-1, lhs), (1, rhs)]), "homotopy")


def homotopy_verdict(bad, kind: str) -> Verdict:
    """The verdict of kind ``kind`` on what :func:`residual` returned for a
    map identity; a frame mismatch raises ShapeError."""
    if bad is None:
        return Verdict(True, kind)
    if bad is FRAME_MISMATCH:
        raise ShapeError("can only add maps with equal shape and parity")
    (i, j), p = bad
    return Verdict(False, kind, location=(i, j), residual=p)


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
    labels, e = mod.labels, mod.even_rank
    even = [i for i in indices if i < e]
    odd = [i for i in indices if i >= e]
    sub = SuperModule(mod.ring, tuple(labels[i] for i in even),
                      tuple(labels[i] for i in odd))
    return sub, even + odd


def graded_slice(c: CurvedComplex, f: Filtration, j: int) -> tuple[SuperModule, ParityMap]:
    """The j-th slice module and the induced map, without curvature checking."""
    sub, ordered = slice_basis(c, f, j)
    position = {old: new for new, old in enumerate(ordered)}
    rows = [tuple((position[s], p) for s, p in c.d.rows[r] if s in position)
            for r in ordered]
    return sub, ParityMap._from_rows(sub, sub, ODD, rows)
