"""The one print of a polynomial: the text the reader confirmed, or the printer's.

A polynomial read from canonical text keeps that text as its print, so a
digest hashes what was read; any other text keeps nothing and prints on
demand.  Each check here compares against ``Poly._print``, the printer run
afresh, so a kept text that differs from the printer's would show.
"""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcert.cli import main
from mfcert.complexes import CurvedComplex
from mfcert.constructions import TwistFamily, lemma2_build
from mfcert.generators import gen_twist_family
from mfcert.polynomials import Poly, PolyRing
from mfcert.scalars import Scalar, cyclotomic_field
from mfcert.serialize import parse_bundle
from mfcert.supermod import ODD, ParityMap, SuperModule

FIELDS = {r: cyclotomic_field(r) for r in (1, 3, 4, 5, 8)}
VARS = ("x", "y", "lambda")


def _fresh(p: Poly) -> Poly:
    """An equal polynomial that holds no text, so ``str`` runs the printer."""
    return p.ring.poly(p.terms)


@st.composite
def _field_polys(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ring = PolyRing(field, VARS)
    component = st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6])))
    scalar = st.tuples(*[component] * field.degree).map(lambda cs: Scalar(field, cs))
    exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    return ring, ring.poly(draw(st.dictionaries(exponents, scalar, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(_field_polys())
def test_parsed_canonical_text_is_kept_as_the_print(case):
    ring, p = case
    text = p._print()
    read = ring.parse(f"  {text} ")
    assert read == p
    assert read._text == (text if p.terms else None)   # zero has no term to confirm


def _joined(terms: list[str]) -> str:
    """Printed terms joined as the printer joins them."""
    out = terms[0] if terms else "0"
    for t in terms[1:]:
        out += f" - {t[1:]}" if t[0] == "-" else f" + {t}"
    return out


@settings(max_examples=200, deadline=None)
@given(_field_polys(), st.randoms(use_true_random=False))
def test_reordered_terms_print_canonically(case, rnd):
    ring, p = case
    terms = [ring.poly({e: c})._print()
             for e, c in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)]
    rnd.shuffle(terms)
    text = _joined(terms)
    read = ring.parse(text)
    assert read == p
    if read._text is not None:       # kept only when the shuffle left the order
        assert read._text == text == p._print()
    assert str(read) == p._print()


# (text, its canonical print), over Q(zeta_3)[x, y, lambda]
VARIANTS = [
    ("x + x", "2*x"),
    ("y + x", "x + y"),
    ("1 + x", "x + 1"),
    ("x + y^2", "y^2 + x"),
    ("2/4*x", "1/2*x"),
    ("04*x", "4*x"),
    ("1*x", "x"),
    ("-1*x", "-x"),
    ("x^1", "x"),
    ("x^01*y", "x*y"),
    ("y*x", "x*y"),
    ("x^0*y", "y"),
    ("x + 0*y", "x"),
    ("x + 0", "x"),
    ("0", "0"),
    ("0*x", "0"),
    ("x - x + y", "y"),
    ("zeta^3*x", "x"),
    ("1*zeta*x", "zeta*x"),
    ("x*zeta", "zeta*x"),
    ("(zeta + 1)*x", "(1 + zeta)*x"),
    ("(1 + zeta)*x + (1 + zeta)*x", "(2 + 2*zeta)*x"),
    ("x +  y", "x + y"),
    ("(1 +  zeta)*x", "(1 + zeta)*x"),
    ("- x", "-x"),
    ("(x + y)^2", "x^2 + 2*x*y + y^2"),
]


def _complex(ring: PolyRing, entry: Poly) -> CurvedComplex:
    module = SuperModule(ring, ("e",), ("o",))
    zero = ring.zero
    return CurvedComplex(module, ParityMap(module, module, ODD, [[zero, entry], [entry, zero]]),
                         zero)


@pytest.mark.parametrize("text, canonical", VARIANTS)
def test_non_canonical_text_gets_the_canonical_print_and_digest(text, canonical):
    ring = PolyRing(cyclotomic_field(3), VARS)
    read = ring.parse(text)
    assert read == ring.parse(canonical)
    if text != "0":
        assert read._text is None
    assert str(read) == canonical == _fresh(read)._print()
    assert _complex(ring, read).digest() == _complex(ring, ring.parse(canonical)).digest()


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

GENS = {
    "lemma1": ["lambda-family", "--r", "3", "--size", "2", "--seed", "1"],
    "lemma2": ["twist-family", "--r", "3", "--size", "2", "--seed", "5"],
    "remark": ["remark-family", "--size", "2", "--seed", "1"],
    "slambda": ["tau-data", "--r", "3", "--size", "2", "--seed", "6"],
    "sxi": ["ramond-data", "--r", "3", "--size", "2", "--seed", "1",
            "--field", "cyclotomic:3"],
}


def _quiet(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """The bundle text each construction command writes, by command."""
    root = tmp_path_factory.mktemp("bundles")
    out = {}
    for command, gen in GENS.items():
        inst, bundle = root / f"{command}.txt", root / f"{command}.bundle"
        assert _quiet(["gen", "--kind", *gen, "--out", str(inst)])[0] == 0
        assert _quiet([command, str(inst), "--out", str(bundle)])[0] == 0
        out[command] = bundle.read_text()
    return out


@pytest.fixture
def printed(monkeypatch):
    """Every polynomial the printer runs on, in order."""
    seen = []
    original = Poly._print

    def counted(self):
        seen.append(self)
        return original(self)

    monkeypatch.setattr(Poly, "_print", counted)
    return seen


def _reprinted(c: CurvedComplex) -> CurvedComplex:
    rows = [tuple((j, _fresh(p)) for j, p in row) for row in c.d.rows]
    return CurvedComplex(c.module, ParityMap._from_rows(c.module, c.module, ODD, rows),
                         _fresh(c.curvature))


@pytest.mark.parametrize("command", GENS)
def test_bundle_digests_hash_what_was_read(command, bundles):
    complexes = parse_bundle(bundles[command]).all_complexes()
    assert complexes
    for c in complexes:
        fresh = _reprinted(c)
        assert c.canonical_text() == fresh.canonical_text()
        assert c.digest() == hashlib.sha256(fresh.canonical_text().encode()).hexdigest()[:16]


def _scrambled(entry: str) -> str:
    """An equal text the reader does not confirm: a zero term, then the terms reversed."""
    pieces = [entry] if "(" in entry else re.split(r" ([-+]) ", entry)
    first = pieces[0]
    signed = [("-", first[1:]) if first[0] == "-" else ("+", first)]
    signed += zip(pieces[1::2], pieces[2::2])
    return "0" + "".join(f" {sign} {term}" for sign, term in reversed(signed))


def _scramble_bundle(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("row "):
            cells = [c if c == "0" else _scrambled(c) for c in line[4:].split(", ")]
            line = "row " + ", ".join(cells)
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", GENS)
def test_non_canonical_bundle_verifies_with_the_same_report(command, bundles, tmp_path,
                                                           monkeypatch):
    scrambled = _scramble_bundle(bundles[command])
    assert scrambled != bundles[command]
    reports = []
    for name, text in (("canonical", bundles[command]), ("scrambled", scrambled)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        (tmp_path / name / "bundle.txt").write_text(text)
        rc, out = _quiet(["verify", "bundle.txt", "--json-report", "report.json"])
        reports.append((rc, out, json.loads((tmp_path / name / "report.json").read_text())))
    assert reports[0][0] == 0
    assert reports[0] == reports[1]
    canonical, scrambled = (parse_bundle(t).all_complexes()
                            for t in (bundles[command], scrambled))
    assert [c.digest() for c in canonical] == [c.digest() for c in scrambled]


@pytest.mark.parametrize("command", GENS)
def test_verify_of_a_canonical_bundle_prints_nothing(command, bundles, printed, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bundle.txt").write_text(bundles[command])
    printed.clear()
    assert _quiet(["verify", "bundle.txt"])[0] == 0
    assert printed == []


def test_lemma2_build_prints_each_polynomial_at_most_once(printed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _quiet(["gen", "--kind", *GENS["lemma2"], "--out", "inst.txt"])[0] == 0
    printed.clear()
    assert _quiet(["lemma2", "inst.txt", "--out", "bundle.txt"])[0] == 0
    assert printed                                    # the build path prints
    assert len({id(p) for p in printed}) == len(printed)   # `printed` keeps them alive


# ---------------------------------------------------------------------------
# the print memo: one print per distinct polynomial of a ring
# ---------------------------------------------------------------------------

def test_one_polynomial_prints_one_text_however_it_was_reached():
    ring = PolyRing(cyclotomic_field(3), VARS)
    product = ring.parse("x + 1/2*zeta") * ring.parse("x - 1/2*zeta")
    total = ring.parse("x^2") + ring.parse("-1/4*zeta^2")
    read = ring.parse("-1/4*zeta^2 + x^2")       # reordered, so it keeps no text
    assert product == total == read
    assert read._text is None
    text = str(product)
    assert text == product._print() == "x^2 + (1/4 + 1/4*zeta)"
    assert str(total) is text and str(read) is text   # the memo's one text


def test_the_print_memo_keeps_no_polynomial():
    ring = PolyRing(cyclotomic_field(4), VARS)
    for text in ("x + 1", "1/3*zeta*x*y - 2", "(1/2 + zeta)*lambda^2", "0"):
        str(ring.parse(f"{text} + 0"))             # a non-canonical text: printed
    assert len(ring._prints) == 4
    for (den, nums), text in ring._prints.items():
        assert type(text) is str and type(den) is int
        assert type(nums) is frozenset
        assert all(type(key) is int and type(n) is int for key, n in nums)


def test_a_lemma2_total_digest_does_not_depend_on_the_memo(printed):
    inst = gen_twist_family(3, 2, 5, cyclotomic_field(3))
    total = lemma2_build(TwistFamily(inst.module, inst.d, inst.functions)).w
    ring = total.module.ring
    assert ring._prints                             # the build printed through the memo
    digest = total.digest()
    fresh_ring = PolyRing(ring.field, ring.variables)
    assert not fresh_ring._prints

    def copy(p: Poly) -> Poly:
        return Poly(fresh_ring, p.den, dict(p.nums))

    module = SuperModule(fresh_ring, total.module.even_labels, total.module.odd_labels)
    rows = [tuple((j, copy(p)) for j, p in row) for row in total.d.rows]
    fresh = CurvedComplex(module, ParityMap._from_rows(module, module, ODD, rows),
                          copy(total.curvature))
    printed.clear()
    assert fresh.digest() == digest
    values = [(p.den, frozenset(p.nums.items())) for p in printed]
    assert printed and len(set(values)) == len(values)   # each distinct entry printed once
