"""Curved complexes: curvature, homotopies, cones, filtrations, exactness probes.

Cones and chain maps come from ``constructions`` and the probe from
``exactness``; the rest is the checker's ``complexes``.
"""

import pytest

from mfcert.complexes import (CurvatureError, CurvedComplex, Filtration, SupportLocus,
                              curvature_check, filtration_verify, graded_slice,
                              is_homotopy)
from mfcert.constructions import ChainMap, cone, is_chain_map
from mfcert.exactness import SampleError, strict_exactness_sample
from mfcert.polynomials import PolyRing
from mfcert.scalars import rationals
from mfcert.supermod import (EVEN, ODD, ParityMap, SuperModule, assemble,
                             direct_sum_modules, parity_unit)

RING = PolyRing(rationals(), ("x", "y", "lambda"))


def koszul_complex():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("-y")], [RING.parse("x"), z]])
    return curvature_check(v, d)


def zero_complex(e=1, o=1):
    v = SuperModule.free(RING, e, o)
    return curvature_check(v, ParityMap.zero(v, v, ODD))


def test_zero_map_curvature():
    assert zero_complex().curvature.is_zero()


def test_koszul_curvature():
    assert koszul_complex().curvature == RING.parse("-x*y")


def test_triangular_family_curvature():
    # blocks a=[[l,x],[0,l]], b=[[l^2,-x*l],[0,l^2]] square to lambda^3
    v = SuperModule.free(RING, 2, 2)
    z = RING.zero
    d = ParityMap(v, v, ODD, [
        [z, z, RING.parse("lambda^2"), RING.parse("-x*lambda")],
        [z, z, z, RING.parse("lambda^2")],
        [RING.parse("lambda"), RING.parse("x"), z, z],
        [z, RING.parse("lambda"), z, z]])
    c = curvature_check(v, d)
    assert c.curvature == RING.parse("lambda^3")
    # multiply-back oracle
    assert d.compose(d).entries[0][0] == RING.parse("lambda^3")


def test_non_scalar_square_reports_entry():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("y")], [RING.parse("x"), z]])
    d2 = ParityMap(v, v, ODD, [[z, RING.parse("y")], [RING.parse("x + 1"), z]])
    ok = curvature_check(v, d)
    assert ok.curvature == RING.parse("x*y")
    bad_v = SuperModule.free(RING, 2, 2)
    bad = ParityMap(bad_v, bad_v, ODD, [
        [z, z, RING.one, z],
        [z, z, z, RING.parse("x")],
        [RING.one, z, z, z],
        [z, RING.one, z, z]])
    with pytest.raises(CurvatureError) as err:
        curvature_check(bad_v, bad)
    assert err.value.entry is not None


def test_is_chain_map_and_failure_location():
    c = koszul_complex()
    ident = ChainMap(c, c, ParityMap.identity(c.module))
    assert is_chain_map(ident)
    z = RING.zero
    skew = ParityMap(c.module, c.module, EVEN,
                     [[RING.parse("x"), z], [z, RING.parse("y")]])
    v = is_chain_map(ChainMap(c, c, skew))
    assert not v
    assert v.location is not None and v.residual is not None


def test_odd_chain_maps_anticommute():
    # on a flat complex the differential itself is an odd chain map
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, z], [RING.parse("x"), z]])
    c = curvature_check(v, d)
    assert is_chain_map(ChainMap(c, c, c.d))
    # an odd map that fails to anticommute is flagged
    skew = ParityMap(v, v, ODD, [[z, RING.one], [RING.one, z]])
    assert not is_chain_map(ChainMap(c, c, skew))


def test_homotopy_trivial_and_perturbed():
    c = zero_complex()
    h = ParityMap.zero(c.module, c.module, ODD)
    ident = ParityMap.identity(c.module)
    assert is_homotopy(c, c, h, ident, ident)
    bad = is_homotopy(c, c, h, ident, ParityMap.zero(c.module, c.module, EVEN))
    assert not bad and bad.location == (0, 0)


def test_cone_of_identity_is_null_homotopic():
    c = koszul_complex()
    ident = ChainMap(c, c, ParityMap.identity(c.module))
    cn = cone(ident)
    assert cn.complex.curvature == c.curvature
    # h sends the target copy identically onto the shifted source copy
    module, embs = direct_sum_modules([c.module, c.module.shifted()],
                                      ["b.", "a."])
    h = assemble(module, embs, module, embs, ODD,
                 {(1, 0): parity_unit(c.module.shifted())})
    flat_cone = CurvedComplex(cn.complex.module, cn.complex.d, cn.complex.curvature)
    v = is_homotopy(flat_cone, flat_cone, h,
                    ParityMap.identity(flat_cone.module),
                    ParityMap.zero(flat_cone.module, flat_cone.module, EVEN))
    assert v, v.describe()


def one_sided_complex(poly):
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    return curvature_check(v, ParityMap(v, v, ODD, [[z, z], [RING.parse(poly), z]]))


def test_cone_of_zero_is_direct_sum():
    a = one_sided_complex("x")
    b = one_sided_complex("y")
    zero = ChainMap(a, b, ParityMap.zero(a.module, b.module, EVEN))
    cn = cone(zero)
    shifted = a.shifted()
    module, embs = direct_sum_modules([b.module, shifted.module], ["b.", "a."])
    expected = assemble(module, embs, module, embs, ODD,
                        {(0, 0): b.d, (1, 1): shifted.d})
    assert cn.complex.d == expected


def test_cone_inclusion_projection_composition_vanishes():
    c = koszul_complex()
    ident = ChainMap(c, c, ParityMap.identity(c.module))
    cn = cone(ident)
    composite = cn.projection.map.compose(cn.inclusion.map)
    assert composite.is_zero()
    assert is_chain_map(cn.inclusion)
    assert is_chain_map(cn.projection)


def test_cone_of_a_non_chain_map_raises():
    # d_B g - g d_A is the off-diagonal block of the cone's square, so the
    # cone's one curvature check refuses g; so does a curvature mismatch
    a = one_sided_complex("x")
    b = one_sided_complex("y")
    g = ChainMap(a, b, ParityMap.identity(a.module))
    assert not is_chain_map(g)
    with pytest.raises(CurvatureError, match="not scalar"):
        cone(g)
    curved = koszul_complex()
    assert not curved.is_flat()
    with pytest.raises(CurvatureError, match="different curvature"):
        cone(ChainMap(b, curved, ParityMap.identity(b.module)))


def test_trivial_filtration_slice_is_whole_complex():
    c = koszul_complex()
    filt = Filtration(c, (tuple(range(c.module.total_rank)),))
    assert filtration_verify(c, filt)
    gr = curvature_check(*graded_slice(c, filt, 1))
    assert gr.d.entries == c.d.entries


def test_filtration_violation_reports_vector():
    c = koszul_complex()
    filt = Filtration(c, ((0, 1), (0,)))   # span(e0) is not d-invariant
    v = filtration_verify(c, filt)
    assert not v
    assert "e0" in v.message


def test_filtration_descending_enforced():
    c = koszul_complex()
    with pytest.raises(Exception):
        Filtration(c, ((0,), (0, 1)))


def test_strict_exactness_zero_complex_vacuous():
    c = curvature_check(SuperModule.free(RING, 0, 0),
                        ParityMap.zero(SuperModule.free(RING, 0, 0),
                                       SuperModule.free(RING, 0, 0), ODD))
    report = strict_exactness_sample(c, SupportLocus((RING.one,)), 5, seed=1)
    assert report.ok


def test_strict_exactness_koszul_off_its_zero_locus():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, z], [RING.parse("x"), z]])
    c = curvature_check(v, d)
    report = strict_exactness_sample(c, SupportLocus((RING.parse("x"),)), 10, seed=3)
    assert report.ok
    assert all(p.rank_plus == 1 for p in report.points)


def test_strict_exactness_fails_on_the_locus():
    # at x = 0 the fiber sequence is not exact; force sampling onto it
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, z], [RING.parse("x"), z]])
    c = curvature_check(v, d)
    point = {"x": 0, "y": 1, "lambda": 1}
    assert all(p.evaluate(point).is_zero() for row in c.d.entries for p in row)
    # probabilistic run documented: with enough trials a zero of x appears
    report = strict_exactness_sample(c, SupportLocus((RING.parse("y + 100"),)),
                                     trials=300, seed=0)
    assert not report.ok


def test_whole_space_locus_is_vacuous():
    c = koszul_complex()
    flat = zero_complex()
    report = strict_exactness_sample(flat, SupportLocus(()), 5, seed=1)
    assert report.ok and "vacuously" in report.message


def test_sample_error_when_no_point_off_locus():
    flat = zero_complex()
    with pytest.raises(SampleError):
        strict_exactness_sample(flat, SupportLocus((RING.zero,)), 5, seed=1)


def test_curvature_required_zero_for_sampling():
    with pytest.raises(CurvatureError):
        strict_exactness_sample(koszul_complex(), SupportLocus((RING.one,)), 5, 1)
