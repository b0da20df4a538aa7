"""Textual file formats: instance files and certificate bundles.

All formats are line-based: blank lines and '#' comments are skipped, each
record starts with a keyword, and nested records use begin/end fences.
Polynomial entries round-trip exactly through the canonical printer.  A
reader parses each distinct cell text of a file once and skips the zero
cells ``0`` before any tokenising, so the equal entries of a file share one
immutable ``Poly``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import CurvedComplex, Filtration, SupportLocus, slice_basis
from .kcert import (Certificate, FiltrationMove, HomotopyMove, IsoMove,
                    IsoPair, Move)
from .polynomials import LAMBDA, MAX_DEGREE, ContextError, ParseError, Poly, PolyRing
from .scalars import ScalarField, cyclotomic_field
from .supermod import EVEN, ODD, ParityMap, ShapeError, SuperModule

MAGIC_INSTANCE = "mfcert instance v1"
MAGIC_BUNDLE = "mfcert bundle v1"

# The largest cyclotomic order a file or the ``--field`` flag may name.  Tests
# and generators use orders up to 12; the cap is ten times that, so that a
# hostile ``field cyclotomic 20011`` line fails at once instead of building
# the quadratic tables of a field of degree 20010.
MAX_FIELD_ORDER = 120

# The largest r an instance file or the ``gen --r`` flag may name.  A lambda
# family whose entries stay under ``polynomials.MAX_DEGREE`` squares to
# lambda-degree at most 2 * MAX_DEGREE, so no larger r can hold; the cap is
# over ten times the largest r the tests use (12).  A hostile ``r 999999999``
# line fails at once instead of building r coefficient maps or computing
# factorial(r - 1).
MAX_R = 2 * MAX_DEGREE

# The largest c1rank a tau-data or ramond-data file may name: the Clifford
# action is dense on 2^c1rank spinors (twice that for sxi), so a hostile
# ``c1rank 22`` ran out of memory.  Generated files stay at c1rank 3 or below.
MAX_C1_RANK = 8


class FileFormatError(ParseError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# instance payloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MfInstance:
    """A bare module with an odd endomorphism, for curvature checking."""

    module: SuperModule
    d: ParityMap


@dataclass(frozen=True)
class LambdaInstance:
    module: SuperModule
    d_lambda: ParityMap
    r: int


@dataclass(frozen=True)
class RemarkInstance:
    module: SuperModule
    d_lambda: ParityMap
    target: Poly
    roots: tuple[Poly, ...]


@dataclass(frozen=True)
class TwistInstance:
    module: SuperModule
    d: ParityMap
    functions: tuple[Poly, ...]


@dataclass(frozen=True)
class ConeLiftInstance:
    a: CurvedComplex
    b: CurvedComplex
    c: CurvedComplex
    g: ParityMap   # A -> B, even
    f: ParityMap   # B -> C, even
    h: ParityMap   # A -> C, odd


# ---------------------------------------------------------------------------
# low-level reading
# ---------------------------------------------------------------------------

class _Reader:
    def __init__(self, text: str):
        self.rows: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                self.rows.append((i, line))
        self.pos = 0
        self.last_line = 1
        self.cells: dict[str, Poly] = {}   # cell text -> entry, see _learn_cells

    def eof(self) -> bool:
        return self.pos >= len(self.rows)

    def peek(self) -> tuple[int, str]:
        if self.eof():
            return (self.rows[-1][0] + 1 if self.rows else 1, "")
        return self.rows[self.pos]

    def next(self) -> tuple[int, str]:
        row = self.peek()
        self.pos += 1
        self.last_line = row[0]
        return row

    def expect(self, keyword: str) -> tuple[int, list[str]]:
        line_no, line = self.next()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise FileFormatError(f"expected '{keyword}', found {line!r}", line_no)
        return line_no, parts[1:]


def _parse_field(parts: list[str], line_no: int) -> ScalarField:
    if parts == ["rationals"]:
        return cyclotomic_field(1)
    if len(parts) == 2 and parts[0] == "cyclotomic":
        order = int(parts[1])
        if order > MAX_FIELD_ORDER:
            raise FileFormatError(f"cyclotomic order {order} exceeds {MAX_FIELD_ORDER}",
                                  line_no)
        return cyclotomic_field(order)
    raise FileFormatError(f"bad field spec {' '.join(parts)!r}", line_no)


def _parse_r(reader: _Reader) -> int:
    line_no, parts = reader.expect("r")
    r = int(parts[0])
    if r > MAX_R:
        raise FileFormatError(f"r {r} exceeds {MAX_R}", line_no)
    return r


def field_spec(field: ScalarField) -> str:
    if field.degree == 1 and field.order == 1:
        return "rationals"
    return f"cyclotomic {field.order}"


def _cells(text: str) -> list[str]:
    """The comma-separated cell texts of ``text``, as split; none when it is blank."""
    return text.split(",") if text and not text.isspace() else []


def _learn_cells(reader: _Reader, ring: PolyRing, cells: list[str],
                 line_no: int) -> dict[str, Poly]:
    """The reader's memo from cell text to polynomial, holding each of ``cells``.

    Each distinct text is parsed once per file (a file has one ring), a zero
    cell without tokenising; the first malformed cell raises.
    """
    memo = reader.cells
    for cell in cells:
        if cell in memo:
            continue
        if cell == " 0" or cell == "0":
            memo[cell] = ring.zero
            continue
        try:
            memo[cell] = ring.parse(cell)
        except ParseError as exc:
            entry = cell.strip()
            if len(entry) > 20:
                entry = f"{entry[:20]}..."
            raise FileFormatError(f"bad polynomial {entry!r}: {exc}", line_no) from None
    return memo


def _parse_polys(reader: _Reader, ring: PolyRing, text: str, line_no: int) -> list[Poly]:
    cells = _cells(text)
    memo = _learn_cells(reader, ring, cells, line_no)
    return [memo[cell] for cell in cells]


def _parse_labels(reader: _Reader, ring: PolyRing) -> SuperModule:
    _, even = reader.expect("even")
    _, odd = reader.expect("odd")
    return SuperModule(ring, tuple(even), tuple(odd))


def _module_lines(module: SuperModule) -> list[str]:
    return ["even " + " ".join(module.even_labels),
            "odd " + " ".join(module.odd_labels)]


_BLOCK_TAGS = {
    EVEN: (("even", "even"), ("odd", "odd")),
    ODD: (("odd", "even"), ("even", "odd")),
}


def _part_indices(module: SuperModule, part: str) -> list[int]:
    if part == "even":
        return list(range(module.even_rank))
    return list(range(module.even_rank, module.total_rank))


def map_lines(name: str, m: ParityMap, header_extra: str = "") -> list[str]:
    lines = [f"begin map {name}" + (f" {header_extra}" if header_extra else "")]
    lines.append("parity " + ("odd" if m.parity == ODD else "even"))
    for tgt_part, src_part in _BLOCK_TAGS[m.parity]:
        rows = _part_indices(m.target, tgt_part)
        cols = _part_indices(m.source, src_part)
        if not rows or not cols:
            continue
        # parity confines the nonzero entries of these rows to these columns
        block = [m.rows[i] for i in rows]
        if not any(block):
            continue
        lines.append(f"block {tgt_part}<-{src_part}")
        for row in block:
            cells = ["0"] * len(cols)
            for j, p in row:
                cells[j - cols[0]] = str(p)
            lines.append("row " + ", ".join(cells))
    lines.append("end map")
    return lines


def parse_map(reader: _Reader, source: SuperModule, target: SuperModule) -> tuple[str, ParityMap]:
    line_no, parts = reader.expect("begin")
    if not parts or parts[0] != "map":
        raise FileFormatError("expected 'begin map'", line_no)
    name = parts[1] if len(parts) > 1 else "map"
    line_no, parts = reader.expect("parity")
    if parts not in (["even"], ["odd"]):
        raise FileFormatError("parity must be 'even' or 'odd'", line_no)
    parity = EVEN if parts == ["even"] else ODD
    ring = source.ring
    rows: list[tuple] = [()] * target.total_rank
    while True:
        line_no, line = reader.next()
        if line == "end map":
            break
        words = line.split(None, 1)
        if words[0] != "block":
            raise FileFormatError(f"expected 'block' or 'end map', found {line!r}",
                                  line_no)
        tag = words[1].strip()
        if "<-" not in tag:
            raise FileFormatError(f"bad block tag {tag!r}", line_no)
        tgt_part, src_part = tag.split("<-")
        if (tgt_part, src_part) not in _BLOCK_TAGS[parity]:
            raise FileFormatError(f"block {tag!r} not allowed for this parity",
                                  line_no)
        cols = _part_indices(source, src_part)
        for i in _part_indices(target, tgt_part):
            line_no, line = reader.next()
            if not line.startswith("row"):
                raise FileFormatError(f"expected a row line, found {line!r}", line_no)
            cells = _cells(line[3:])
            if len(cells) != len(cols):
                _learn_cells(reader, ring, cells, line_no)   # a malformed cell comes first
                raise FileFormatError(
                    f"row has {len(cells)} entries, expected {len(cols)}", line_no)
            # most cells are the printer's zero, skipped before any lookup
            nonzero = [(j, cell) for j, cell in zip(cols, cells) if cell != " 0"]
            memo = _learn_cells(reader, ring, [cell for _, cell in nonzero], line_no)
            rows[i] = tuple([(j, memo[cell]) for j, cell in nonzero if memo[cell].nums])
    # the block tags admit only entries of this parity, parsed in this ring
    return name, ParityMap._from_rows(source, target, parity, rows)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def write_instance(instance) -> str:
    from .constructions import RamondData, TauData
    lines = [MAGIC_INSTANCE]
    if isinstance(instance, MfInstance):
        ring = instance.module.ring
        lines += [f"kind mf", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables)]
        lines += _module_lines(instance.module)
        lines += map_lines("d", instance.d)
    elif isinstance(instance, LambdaInstance):
        ring = instance.module.ring
        lines += ["kind lambda-family", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables), f"r {instance.r}"]
        lines += _module_lines(instance.module)
        lines += map_lines("d", instance.d_lambda)
    elif isinstance(instance, RemarkInstance):
        ring = instance.module.ring
        lines += ["kind remark-family", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables),
                  f"target {instance.target}",
                  "roots " + ", ".join(str(p) for p in instance.roots)]
        lines += _module_lines(instance.module)
        lines += map_lines("d", instance.d_lambda)
    elif isinstance(instance, TwistInstance):
        ring = instance.module.ring
        lines += ["kind twist-family", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables),
                  f"r {len(instance.functions)}",
                  "functions " + ", ".join(str(p) for p in instance.functions)]
        lines += _module_lines(instance.module)
        lines += map_lines("d", instance.d)
    elif isinstance(instance, TauData):
        ring = instance.ring
        lines += ["kind tau-data", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables),
                  "coords " + " ".join(instance.coords),
                  f"r {instance.r}", f"c1rank {instance.c1_rank}"]
        lines.append("begin matrix dtilde")
        for row in instance.dtilde:
            lines.append("row " + ", ".join(str(p) for p in row))
        lines.append("end matrix")
        lines += _tensor_lines(instance.nu)
    elif isinstance(instance, RamondData):
        ring = instance.ring
        lines += ["kind ramond-data", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables),
                  "coords " + " ".join(instance.coords),
                  f"r {instance.r}", f"c1rank {instance.c1_rank}"]
        lines.append("begin matrix d")
        for row in instance.d:
            lines.append("row " + ", ".join(str(p) for p in row))
        lines.append("end matrix")
        lines += _tensor_lines(instance.nu)
        lines.append("e1 " + ", ".join(str(p) for p in instance.e1))
        lines.append("e2 " + ", ".join(str(p) for p in instance.e2))
    elif isinstance(instance, ConeLiftInstance):
        ring = instance.a.module.ring
        lines += ["kind cone-lift", f"field {field_spec(ring.field)}",
                  "variables " + " ".join(ring.variables)]
        for tag, cx in (("A", instance.a), ("B", instance.b), ("C", instance.c)):
            lines.append(f"begin complex {tag}")
            lines += _module_lines(cx.module)
            lines.append(f"curvature {cx.curvature}")
            lines += map_lines("d", cx.d)
            lines.append("end complex")
        lines += map_lines("g", instance.g, "from A to B")
        lines += map_lines("f", instance.f, "from B to C")
        lines += map_lines("h", instance.h, "from A to C")
    else:
        raise TypeError(f"cannot serialize {instance!r}")
    return "\n".join(lines) + "\n"


def _tensor_lines(nu: dict[tuple[int, ...], tuple[Poly, ...]]) -> list[str]:
    lines = ["begin tensor nu"]
    for m in sorted(nu):
        vec = nu[m]
        if all(p.is_zero() for p in vec):
            continue
        lines.append("term " + " ".join(str(e) for e in m) + " : "
                     + ", ".join(str(p) for p in vec))
    lines.append("end tensor")
    return lines


def check_datum_entries(entries, coords: tuple[str, ...], unit: bool):
    """Refuse the first entry that involves a coordinate, in the order of
    ``coords``, or then, with a ``unit`` slot, lambda.  A variable missing
    from the ring is left to ``constructions._check_datum``."""
    banned = (*coords, LAMBDA) if unit else coords
    for p in entries:
        for v in banned:
            if v in p.ring.variables and p.degree_in(v) > 0:
                raise ContextError(f"datum entry {p} must not involve the coordinate {v}")


def _parse_tensor(reader: _Reader, ring: PolyRing, coords: tuple[str, ...], unit: bool,
                  width: int, degree: int) -> dict[tuple[int, ...], tuple[Poly, ...]]:
    slots = len(coords) + unit
    line_no, parts = reader.expect("begin")
    if parts[:1] != ["tensor"]:
        raise FileFormatError("expected 'begin tensor'", line_no)
    nu: dict[tuple[int, ...], tuple[Poly, ...]] = {}
    while True:
        line_no, line = reader.next()
        if line == "end tensor":
            break
        if not line.startswith("term"):
            raise FileFormatError(f"expected 'term' or 'end tensor', found {line!r}",
                                  line_no)
        if ":" not in line:
            raise FileFormatError("tensor term needs a ':' separator", line_no)
        head, tail = line[4:].split(":", 1)
        exps = tuple(int(w) for w in head.split())
        if len(exps) != slots or sum(exps) != degree:
            raise FileFormatError(
                f"tensor key {exps} must have {slots} slots summing to {degree}",
                line_no)
        vec = _parse_polys(reader, ring, tail, line_no)
        if len(vec) != width:
            raise FileFormatError(f"tensor value needs {width} entries", line_no)
        check_datum_entries(vec, coords, unit)
        nu[exps] = tuple(vec)
    return nu


def _parse_matrix(reader: _Reader, ring: PolyRing, n_rows: int, coords: tuple[str, ...],
                  unit: bool) -> tuple[tuple[Poly, ...], ...]:
    n_cols = len(coords) + unit
    line_no, parts = reader.expect("begin")
    if parts[:1] != ["matrix"]:
        raise FileFormatError("expected 'begin matrix'", line_no)
    rows = []
    for _ in range(n_rows):
        line_no, line = reader.next()
        if not line.startswith("row"):
            raise FileFormatError(f"expected a row line, found {line!r}", line_no)
        values = _parse_polys(reader, ring, line[3:], line_no)
        if len(values) != n_cols:
            raise FileFormatError(
                f"row has {len(values)} entries, expected {n_cols}", line_no)
        check_datum_entries(values, coords, unit)
        rows.append(tuple(values))
    reader.expect("end")
    return tuple(rows)


def parse_instance(text: str):
    reader = _Reader(text)
    try:
        return _parse_instance(reader)
    except FileFormatError:
        raise
    except (IndexError, KeyError, ValueError, ShapeError) as exc:
        raise FileFormatError(f"malformed instance data: {exc}",
                              reader.last_line) from None


def _parse_instance(reader: _Reader):
    line_no, line = reader.next()
    if line != MAGIC_INSTANCE:
        raise FileFormatError(f"not an instance file (missing {MAGIC_INSTANCE!r})",
                              line_no)
    kind_line, parts = reader.expect("kind")
    kind = parts[0] if parts else ""
    line_no, parts = reader.expect("field")
    fld = _parse_field(parts, line_no)
    names_line, names = reader.expect("variables")
    if kind in ("lambda-family", "remark-family", "tau-data") and LAMBDA not in names:
        raise FileFormatError(f"{kind} needs the variable '{LAMBDA}'", names_line)
    ring = PolyRing(fld, tuple(names))

    if kind == "mf":
        module = _parse_labels(reader, ring)
        _, d = parse_map(reader, module, module)
        return MfInstance(module, d)
    if kind == "lambda-family":
        r = _parse_r(reader)
        module = _parse_labels(reader, ring)
        _, d = parse_map(reader, module, module)
        return LambdaInstance(module, d, r)
    if kind == "remark-family":
        line_no, line = reader.next()
        if not line.startswith("target"):
            raise FileFormatError("expected a 'target' line", line_no)
        target = _parse_polys(reader, ring, line[len("target"):], line_no)[0]
        line_no, line = reader.next()
        if not line.startswith("roots"):
            raise FileFormatError("expected a 'roots' line", line_no)
        roots = tuple(_parse_polys(reader, ring, line[len("roots"):], line_no))
        module = _parse_labels(reader, ring)
        _, d = parse_map(reader, module, module)
        return RemarkInstance(module, d, target, roots)
    if kind == "twist-family":
        r = _parse_r(reader)
        line_no, line = reader.next()
        if not line.startswith("functions"):
            raise FileFormatError("expected a 'functions' line", line_no)
        functions = tuple(_parse_polys(reader, ring, line[len("functions"):], line_no))
        if len(functions) != r:
            raise FileFormatError(f"expected {r} functions", line_no)
        module = _parse_labels(reader, ring)
        _, d = parse_map(reader, module, module)
        return TwistInstance(module, d, functions)
    if kind in ("tau-data", "ramond-data"):
        _, parts = reader.expect("coords")
        coords = tuple(parts)
        r = _parse_r(reader)
        line_no, parts = reader.expect("c1rank")
        c1_rank = int(parts[0])
        if c1_rank > MAX_C1_RANK:
            raise FileFormatError(f"c1rank {c1_rank} exceeds {MAX_C1_RANK}", line_no)
        # each entry is checked as it is read, so an error names its line
        unit = kind == "tau-data"
        dmat = _parse_matrix(reader, ring, c1_rank, coords, unit)
        nu = _parse_tensor(reader, ring, coords, unit, c1_rank, r - 1)
        from .constructions import RamondData, TauData
        if unit:
            return TauData(ring, r, coords, c1_rank, dmat, nu)
        forms = []
        for tag in ("e1", "e2"):
            line_no, line = reader.next()
            if not line.startswith(tag):
                raise FileFormatError(f"expected an '{tag}' line", line_no)
            forms.append(tuple(_parse_polys(reader, ring, line[2:], line_no)))
            check_datum_entries(forms[-1], coords, unit)
        e1, e2 = forms
        return RamondData(ring, r, coords, c1_rank, dmat, nu, e1, e2)
    if kind == "cone-lift":
        complexes = {}
        for tag in ("A", "B", "C"):
            line_no, parts = reader.expect("begin")
            if parts[:2] != ["complex", tag]:
                raise FileFormatError(f"expected 'begin complex {tag}'", line_no)
            complexes[tag] = _parse_complex_body(reader, ring)
        maps = {}
        for tag, (src, tgt) in (("g", ("A", "B")), ("f", ("B", "C")), ("h", ("A", "C"))):
            _, m = parse_map(reader, complexes[src].module, complexes[tgt].module)
            maps[tag] = m
        return ConeLiftInstance(complexes["A"], complexes["B"], complexes["C"],
                                maps["g"], maps["f"], maps["h"])
    raise FileFormatError(f"unknown instance kind {kind!r}", kind_line)


def _parse_complex_body(reader: _Reader, ring: PolyRing) -> CurvedComplex:
    module = _parse_labels(reader, ring)
    line_no, line = reader.next()
    if not line.startswith("curvature"):
        raise FileFormatError("expected a 'curvature' line", line_no)
    curvature = _parse_polys(reader, ring, line[len("curvature"):], line_no)[0]
    _, d = parse_map(reader, module, module)
    reader.expect("end")
    return CurvedComplex(module, d, curvature)


# ---------------------------------------------------------------------------
# certificate bundles
# ---------------------------------------------------------------------------

def write_bundle(cert: Certificate) -> str:
    ring = cert.ring
    lines = [MAGIC_BUNDLE,
             f"field {field_spec(ring.field)}",
             "variables " + " ".join(ring.variables)]
    zline = "zgens"
    if cert.z.generators:
        zline += " " + ", ".join(str(p) for p in cert.z.generators)
    lines.append(zline)

    ids: dict[str, str] = {}
    for k, c in enumerate(cert.all_complexes()):
        cid = f"C{k}"
        ids[c.digest()] = cid
        lines.append(f"begin complex {cid}")
        if c.digest() in cert.names:
            lines.append(f"name {cert.names[c.digest()]}")
        lines += _module_lines(c.module)
        lines.append(f"curvature {c.curvature}")
        lines += map_lines("d", c.d)
        lines.append("end complex")

    claim_terms = " + ".join(f"{coeff} * {ids[c.digest()]}"
                             for coeff, c in cert.claim)
    lines.append(f"claim {claim_terms}" if claim_terms else "claim")

    for idx, (coeff, move) in enumerate(cert.moves):
        lines.append(f"begin move {idx}")
        lines.append(f"coeff {coeff}")
        if isinstance(move, HomotopyMove):
            lines.append("kind homotopy")
            lines.append(f"complex {ids[move.complex.digest()]}")
            lines += map_lines("h", move.h)
        elif isinstance(move, FiltrationMove):
            lines.append("kind filtration")
            lines.append(f"complex {ids[move.complex.digest()]}")
            lines.append("steps " + " | ".join(
                " ".join(str(i) for i in step) if step else "-"
                for step in move.steps))
            for j, (target, pair) in enumerate(zip(move.targets, move.isos), start=1):
                lines.append(f"target {j} {ids[target.digest()]}")
                lines += map_lines(f"fwd{j}", pair.forward)
                lines += map_lines(f"bwd{j}", pair.inverse)
        elif isinstance(move, IsoMove):
            lines.append("kind iso")
            lines.append(f"source {ids[move.source.digest()]}")
            lines.append(f"target {ids[move.target.digest()]}")
            lines += map_lines("fwd", move.iso.forward)
            lines += map_lines("bwd", move.iso.inverse)
        else:
            raise TypeError(f"cannot serialize move {move!r}")
        lines.append("end move")
    return "\n".join(lines) + "\n"


def parse_bundle(text: str) -> Certificate:
    reader = _Reader(text)
    try:
        return _parse_bundle(reader)
    except FileFormatError:
        raise
    except (IndexError, KeyError, ValueError, ShapeError) as exc:
        raise FileFormatError(f"malformed bundle data: {exc}",
                              reader.last_line) from None


def _parse_bundle(reader: _Reader) -> Certificate:
    line_no, line = reader.next()
    if line != MAGIC_BUNDLE:
        raise FileFormatError(f"not a bundle file (missing {MAGIC_BUNDLE!r})", line_no)
    line_no, parts = reader.expect("field")
    fld = _parse_field(parts, line_no)
    _, names = reader.expect("variables")
    ring = PolyRing(fld, tuple(names))
    line_no, line = reader.next()
    if not line.startswith("zgens"):
        raise FileFormatError("expected a 'zgens' line", line_no)
    z = SupportLocus(tuple(_parse_polys(reader, ring, line[len("zgens"):], line_no)))

    table: dict[str, CurvedComplex] = {}
    cert_names: dict[str, str] = {}
    while True:
        line_no, line = reader.peek()
        if not line.startswith("begin complex"):
            break
        reader.next()
        parts = line.split()
        cid = parts[2]
        nline_no, nline = reader.peek()
        if nline.startswith("name "):
            reader.next()
            label = nline[len("name "):].strip()
        else:
            label = None
        cx = _parse_complex_body(reader, ring)
        table[cid] = cx
        if label:
            cert_names[cx.digest()] = label

    def lookup(cid: str, where: int) -> CurvedComplex:
        if cid not in table:
            raise FileFormatError(f"unknown complex id {cid!r}", where)
        return table[cid]

    line_no, line = reader.next()
    if not line.startswith("claim"):
        raise FileFormatError("expected a 'claim' line", line_no)
    claim: list[tuple[int, CurvedComplex]] = []
    body = line[len("claim"):].strip()
    if body:
        for chunk in body.split("+"):
            bits = chunk.split("*")
            if len(bits) != 2:
                raise FileFormatError(f"bad claim term {chunk.strip()!r}", line_no)
            claim.append((int(bits[0].strip()), lookup(bits[1].strip(), line_no)))

    moves: list[tuple[int, Move]] = []
    while not reader.eof():
        line_no, parts = reader.expect("begin")
        if parts[:1] != ["move"]:
            raise FileFormatError("expected 'begin move'", line_no)
        _, parts = reader.expect("coeff")
        coeff = int(parts[0])
        line_no, parts = reader.expect("kind")
        kind = parts[0]
        if kind == "homotopy":
            line_no, parts = reader.expect("complex")
            cx = lookup(parts[0], line_no)
            _, h = parse_map(reader, cx.module, cx.module)
            moves.append((coeff, HomotopyMove(cx, h)))
        elif kind == "filtration":
            line_no, parts = reader.expect("complex")
            cx = lookup(parts[0], line_no)
            line_no, line = reader.next()
            if not line.startswith("steps"):
                raise FileFormatError("expected a 'steps' line", line_no)
            steps = []
            for chunk in line[len("steps"):].split("|"):
                chunk = chunk.strip()
                steps.append(() if chunk in ("", "-")
                             else tuple(int(w) for w in chunk.split()))
            steps = tuple(steps)
            try:
                filt = Filtration(cx, steps)
            except ShapeError as exc:
                raise FileFormatError(f"bad filtration steps: {exc}", line_no) from None
            targets, isos = [], []
            for j in range(1, len(steps) + 1):
                line_no, parts = reader.expect("target")
                if int(parts[0]) != j:
                    raise FileFormatError(f"targets must be listed in order, got "
                                          f"{parts[0]} instead of {j}", line_no)
                target = lookup(parts[1], line_no)
                gr_module, _ = slice_basis(cx, filt, j)
                _, fwd = parse_map(reader, gr_module, target.module)
                _, bwd = parse_map(reader, target.module, gr_module)
                targets.append(target)
                isos.append(IsoPair(fwd, bwd))
            moves.append((coeff, FiltrationMove(filt, tuple(targets), tuple(isos))))
        elif kind == "iso":
            line_no, parts = reader.expect("source")
            src = lookup(parts[0], line_no)
            line_no, parts = reader.expect("target")
            tgt = lookup(parts[0], line_no)
            _, fwd = parse_map(reader, src.module, tgt.module)
            _, bwd = parse_map(reader, tgt.module, src.module)
            moves.append((coeff, IsoMove(src, tgt, IsoPair(fwd, bwd))))
        else:
            raise FileFormatError(f"unknown move kind {kind!r}", line_no)
        reader.expect("end")
    return Certificate(ring, z, claim, moves, cert_names)
