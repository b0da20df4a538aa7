"""File formats: block-tagged matrices, instances, bundles."""

import pytest

from mfcert.generators import (gen_cone_lift, gen_lambda_family, gen_ramond_data,
                               gen_remark_family, gen_tau_data, gen_twist_family)
from mfcert.polynomials import PolyRing
from mfcert.scalars import cyclotomic_field, rationals
from mfcert.serialize import (MAX_R, FileFormatError, map_lines, parse_instance,
                              parse_map, write_instance, _Reader)
from mfcert.supermod import ODD, ParityMap, SuperModule

RING = PolyRing(rationals(), ("x", "y"))


def test_map_block_serialization_roundtrip():
    src = SuperModule.free(RING, 2, 1, "s")
    tgt = SuperModule.free(RING, 1, 2, "t")
    z = RING.zero
    entries = [
        [z, z, RING.parse("x - y")],
        [RING.parse("2*x"), z, z],
        [z, RING.parse("y^2"), z],
    ]
    m = ParityMap(src, tgt, ODD, entries)
    lines = map_lines("f", m)
    assert lines[1] == "parity odd"
    assert any(line.startswith("block odd<-even") for line in lines)
    reader = _Reader("\n".join(lines))
    name, back = parse_map(reader, src, tgt)
    assert name == "f"
    assert back == m


def test_zero_blocks_are_omitted():
    src = SuperModule.free(RING, 1, 1)
    m = ParityMap.zero(src, src, ODD)
    lines = map_lines("z", m)
    assert not any(line.startswith("block") for line in lines)
    reader = _Reader("\n".join(lines))
    _, back = parse_map(reader, src, src)
    assert back == m


@pytest.mark.parametrize("maker", [
    lambda: gen_lambda_family(2, 2, 1),
    lambda: gen_lambda_family(5, 0, 1),
    lambda: gen_twist_family(3, 3, 4, cyclotomic_field(3)),
    lambda: gen_remark_family(1, 2),
    lambda: gen_tau_data(3, 1, 5),
    lambda: gen_ramond_data(2, 2, 6),
    lambda: gen_cone_lift(1, 7),
])
def test_instance_roundtrip(maker):
    instance = maker()
    text = write_instance(instance)
    back = parse_instance(text)
    assert back == instance
    assert write_instance(back) == text


def test_magic_required():
    with pytest.raises(FileFormatError):
        parse_instance("kind mf\n")


def test_row_width_checked():
    text = ("mfcert instance v1\nkind mf\nfield rationals\nvariables x\n"
            "even e0 e1\nodd o0 o1\n"
            "begin map d\nparity odd\nblock odd<-even\nrow x\n")
    with pytest.raises(FileFormatError) as err:
        parse_instance(text)
    assert "line" in str(err.value)


def test_unknown_kind():
    with pytest.raises(FileFormatError, match=r"^line 2: unknown instance kind 'mystery'$"):
        parse_instance("mfcert instance v1\nkind mystery\nfield rationals\n"
                       "variables x\n")


# An odd map on a (3|3) module whose zero cells take every spelling the reader
# reads as zero, and whose nonzero cells repeat across rows and columns.
ZERO_SPELLINGS = """begin map d
parity odd
block odd<-even
row 0, x - y,  0
row x - y, 0/7, 2*x
row -0, 2*x, x - y
block even<-odd
row (0), 0*x, y^2
row y^2, 0, 2*x
row 0, 0, 0
end map"""


def test_zero_spellings_and_repeated_cells_read_as_their_canonical_print():
    v = SuperModule.free(RING, 3, 3)
    _, m = parse_map(_Reader(ZERO_SPELLINGS), v, v)
    z, d, t, s = RING.zero, RING.parse("x - y"), RING.parse("2*x"), RING.parse("y^2")
    dense = [[z, z, z, z, z, s], [z, z, z, s, z, t], [z] * 6,
             [z, d, z, z, z, z], [d, z, t, z, z, z], [z, t, d, z, z, z]]
    assert m == ParityMap(v, v, ODD, dense)
    _, back = parse_map(_Reader("\n".join(map_lines("d", m))), v, v)
    assert back.rows == m.rows


def test_a_repeated_cell_is_one_shared_entry():
    v = SuperModule.free(RING, 3, 3)
    _, m = parse_map(_Reader(ZERO_SPELLINGS), v, v)
    # the same text in any column but the first, where the row prints no space before it
    spaced = [p for row in m.rows for _, p in row if p == RING.parse("2*x")]
    assert len(spaced) == 3 and all(p is spaced[0] for p in spaced)


def test_a_repeated_malformed_cell_fails_at_its_first_line():
    v = SuperModule.free(RING, 3, 3)
    text = ZERO_SPELLINGS.replace("2*x", "2*x +")
    with pytest.raises(FileFormatError, match=r"^line 5: bad polynomial '2\*x \+'"):
        parse_map(_Reader(text), v, v)
    text = ZERO_SPELLINGS.replace("y^2", "y^^2")
    with pytest.raises(FileFormatError, match=r"^line 8: bad polynomial 'y\^\^2'"):
        parse_map(_Reader(text), v, v)


def test_comments_and_blanks_ignored():
    inst = gen_lambda_family(2, 1, 3)
    text = write_instance(inst)
    noisy = "# generated\n\n" + text.replace("\nr 2", "\n# rank line\nr 2")
    assert parse_instance(noisy) == inst


def test_truncated_files_raise_format_errors():
    from mfcert.constructions import TwistFamily, lemma2_build
    from mfcert.serialize import parse_bundle, write_bundle
    inst = gen_twist_family(2, 1, 3)
    fam = TwistFamily(inst.module, inst.d, inst.functions)
    bundle = write_bundle(lemma2_build(fam).certificate)
    instance = write_instance(inst)
    for text, parser in ((bundle, parse_bundle), (instance, parse_instance)):
        lines = text.splitlines()
        for cut in range(1, len(lines), 3):
            try:
                parser("\n".join(lines[:cut]) + "\n")
            except FileFormatError:
                continue


def test_missing_values_raise_format_errors():
    # keyword lines stripped of their arguments must not crash the parser
    text = write_instance(gen_twist_family(2, 1, 3))
    broken = text.replace("r 2", "r")
    with pytest.raises(FileFormatError):
        parse_instance(broken)
    broken = text.replace("field rationals", "field")
    with pytest.raises(FileFormatError):
        parse_instance(broken)


@pytest.mark.parametrize("gen", [gen_lambda_family, gen_twist_family, gen_tau_data,
                                 gen_ramond_data])
def test_r_above_the_cap_fails_at_its_line(gen):
    lines = write_instance(gen(3, 1, 1)).splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("r "))
    lines[at] = f"r {MAX_R + 1}"
    with pytest.raises(FileFormatError, match=f"r {MAX_R + 1} exceeds {MAX_R}") as exc:
        parse_instance("\n".join(lines))
    assert exc.value.line == at + 1


def test_r_at_the_cap_is_read():
    lines = write_instance(gen_lambda_family(3, 1, 1)).splitlines()
    lines = [f"r {MAX_R}" if line.startswith("r ") else line for line in lines]
    assert parse_instance("\n".join(lines)).r == MAX_R
