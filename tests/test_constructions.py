"""The named constructions against hand-computed and documented instances."""

import random

import pytest

from mfcert.complexes import InvariantError, curvature_check, is_homotopy
from mfcert.constructions import (ChainMap, LambdaFamily, RamondData, TauData,
                                  TwistFamily, compose_certs, cone, cone_lift,
                                  cyclotomic_coupling, lemma1_build, lemma2_build,
                                  remark_decompose, s_lambda_check, s_xi_reduce)
from mfcert.generators import (gen_cone_lift, gen_ramond_data, gen_tau_data,
                               gen_twist_family)
from mfcert.kcert import IsoMove, IsoPair, verify
from mfcert.polynomials import PolyRing
from mfcert.scalars import cyclotomic_field, rationals, roots_of_unity
from mfcert.supermod import (EVEN, ODD, ParityMap, SuperModule, assemble,
                             direct_sum_modules, parity_unit)

RING = PolyRing(rationals(), ("x", "y", "lambda"))


def lambda_family_documented(r=2):
    v = SuperModule.free(RING, 2, 2)
    z = RING.zero
    lam, x = RING.var("lambda"), RING.var("x")
    d = ParityMap(v, v, ODD, [
        [z, z, lam ** (r - 1), -x * lam ** (r - 2)],
        [z, z, z, lam ** (r - 1)],
        [lam, x, z, z],
        [z, lam, z, z]])
    return LambdaFamily.from_map(v, d, r)


def koszul_twist():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("-y")], [RING.parse("x"), z]])
    return TwistFamily(v, d, (RING.parse("x"), RING.parse("y")))


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

def test_lambda_family_rejects_wrong_square():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("lambda")],
                              [RING.parse("lambda + x"), z]])
    with pytest.raises(InvariantError):
        LambdaFamily.from_map(v, d, 2)


def test_lambda_family_rejects_high_degree():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("lambda^2")], [RING.one, z]])
    with pytest.raises(InvariantError):
        LambdaFamily.from_map(v, d, 2)


def test_lemma1_empty_module():
    v = SuperModule.free(RING, 0, 0)
    fam = LambdaFamily.from_map(v, ParityMap.zero(v, v, ODD), 2)
    res = lemma1_build(fam)
    assert res.ok
    assert res.w.module.total_rank == 0
    assert verify(res.certificate)
    # W and V.d0 share a digest; the certificate names that complex W
    assert res.certificate.names == {res.w.digest(): "W"}


@pytest.mark.parametrize("r", [2, 3])
def test_lemma1_documented_family(r):
    res = lemma1_build(lambda_family_documented(r))
    assert res.ok, {k: v.describe() for k, v in res.verdicts.items()}
    assert res.w.module.total_rank == 4 * r
    assert len(res.filtration.steps) == r
    assert verify(res.certificate)
    # claim says r copies of the constant-term complex cancel
    assert res.certificate.claim == [(r, res.targets[0])]


def test_lemma1_homotopy_is_sound_witness():
    res = lemma1_build(lambda_family_documented(2))
    h = res.homotopy.h
    entries = [list(row) for row in h.entries]
    # perturb one parity-legal entry
    w = res.w
    done = False
    for i in range(w.module.total_rank):
        for j in range(w.module.total_rank):
            if (w.module.parity(i) - w.module.parity(j)) % 2 == 1:
                entries[i][j] = entries[i][j] + 1
                done = True
                break
        if done:
            break
    bad = ParityMap(w.module, w.module, ODD, entries)
    v = is_homotopy(w, w, bad, w.identity_map(), w.zero_map())
    assert not v and v.location is not None


# ---------------------------------------------------------------------------
# root decompositions
# ---------------------------------------------------------------------------

def remark_instance(root_exprs, block="x"):
    z1, z2 = (RING.parse(e) for e in root_exprs)
    lam = RING.var("lambda")
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, lam - z2], [lam - z1, z]])
    return v, d, (lam - z1) * (lam - z2), [z1, z2]


def test_remark_rejects_repeated_roots():
    lam = RING.var("lambda")
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, lam], [lam, z]])
    with pytest.raises(InvariantError, match="squarefree"):
        remark_decompose(v, d, lam**2, [RING.zero, RING.zero])


def test_remark_rejects_wrong_product():
    v, d, f, roots = remark_instance(("1", "-1"))
    with pytest.raises(InvariantError):
        remark_decompose(v, d, f, [RING.one, RING.one + 1])


def test_remark_constant_roots():
    v, d, f, roots = remark_instance(("1", "-1"))
    res = remark_decompose(v, d, f, roots)
    assert res.ok
    assert [c.curvature.is_zero() for c in res.targets] == [True, True]
    assert verify(res.certificate)
    # the summands are the evaluations of the family at the roots
    assert res.targets[0].d.entries[0][1] == RING.parse("1 - -1")


def test_remark_polynomial_roots():
    v, d, f, roots = remark_instance(("x", "-x"))
    res = remark_decompose(v, d, f, roots)
    assert res.ok
    assert verify(res.certificate)


def test_remark_constant_roots_admit_evaluation_isomorphism():
    """With invertible root differences the evaluation map is an honest
    isomorphism onto the direct sum of the summands (the interpolation
    change of basis); replayed as an extra certificate move."""
    v, d, f, roots = remark_instance(("1", "-1"))
    res = remark_decompose(v, d, f, roots)
    w = res.w
    r = len(roots)
    n = v.total_rank
    summand, embs = direct_sum_modules([c.module for c in res.targets],
                                       [f"z{k}." for k in range(r)])
    blocks = {}
    # basis polys of the telescoping basis evaluated at each root
    lam = RING.var("lambda")
    basis = [RING.one]
    for k in range(1, r):
        basis.append(basis[-1] * (lam - roots[k - 1]))
    values = [[basis[j].substitute("lambda", roots[k]) for j in range(r)]
              for k in range(r)]
    fwd_entries = [[RING.zero] * w.module.total_rank for _ in range(summand.total_rank)]
    # slot embeddings of w follow the direct-sum layout used by the builder
    _, wembs = direct_sum_modules([v] * r, [f"b{i}." for i in range(r)])
    for k in range(r):
        for j in range(r):
            val = values[k][j]
            if val.is_zero():
                continue
            for i in range(n):
                fwd_entries[embs[k][i]][wembs[j][i]] = val
    fwd = ParityMap(w.module, summand, EVEN, fwd_entries)
    # invert the r x r scalar slot matrix exactly
    import fractions
    mat = [[values[k][j].constant_value().as_fraction() for j in range(r)]
           for k in range(r)]
    inv = _invert(mat)
    bwd_entries = [[RING.zero] * summand.total_rank for _ in range(w.module.total_rank)]
    for j in range(r):
        for k in range(r):
            if inv[j][k] == 0:
                continue
            for i in range(n):
                bwd_entries[wembs[j][i]][embs[k][i]] = RING.const(inv[j][k])
    bwd = ParityMap(summand, w.module, EVEN, bwd_entries)
    dsum = assemble(summand, embs, summand, embs, ODD,
                    {(k, k): c.d for k, c in enumerate(res.targets)})
    target = curvature_check(summand, dsum)
    move = IsoMove(w, target, IsoPair(fwd, bwd))
    assert move.replay(), move.replay().describe()


def _invert(mat):
    import fractions
    n = len(mat)
    aug = [[fractions.Fraction(mat[i][j]) for j in range(n)]
           + [fractions.Fraction(1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# product families
# ---------------------------------------------------------------------------

def test_twist_family_rejects_wrong_square():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, RING.parse("y")], [RING.parse("x"), z]])
    with pytest.raises(InvariantError):
        TwistFamily(v, d, (RING.parse("x"), RING.parse("y")))


def test_lemma2_documented_koszul_formulas():
    """The r=2 total differential and homotopy, written out by hand:
    D(x1,x1',x2,x2') = (dx1+f2 x1', -dx1'+f1 x1, dx2+x1'+f1 x2', -dx2'+f2 x2-x1)
    h: y1 = -x2', y1' = x2, rest zero."""
    fam = koszul_twist()
    res = lemma2_build(fam)
    assert res.ok
    v = fam.module
    vv, embs2 = direct_sum_modules([v, v.shifted()], ["x.", "x'."])
    w_module, embs = direct_sum_modules([vv] * 2, ["c1.", "c2."])
    f1, f2 = fam.functions
    unit = parity_unit(v)
    unit_rev = parity_unit(v.shifted())

    def vvb(**kw):
        blocks = {}
        if "xx" in kw:
            blocks[(0, 0)] = kw["xx"]
        if "xxp" in kw:
            blocks[(0, 1)] = kw["xxp"]
        if "px" in kw:
            blocks[(1, 0)] = kw["px"]
        if "pp" in kw:
            blocks[(1, 1)] = kw["pp"]
        return assemble(vv, embs2, vv, embs2, ODD, blocks)

    d_shift = -fam.d.shifted()
    expected_d = assemble(w_module, embs, w_module, embs, ODD, {
        (0, 0): vvb(xx=fam.d, xxp=unit.scale(f2), px=unit_rev.scale(f1),
                    pp=d_shift),
        (1, 0): vvb(xxp=unit.scale(1), px=unit_rev.scale(-1)),
        (1, 1): vvb(xx=fam.d, xxp=unit.scale(f1), px=unit_rev.scale(f2),
                    pp=d_shift),
    })
    assert res.w.d == expected_d
    expected_h = assemble(w_module, embs, w_module, embs, ODD, {
        (0, 1): vvb(xxp=unit.scale(-1), px=unit_rev),
    })
    assert res.homotopy.h == expected_h


def test_lemma2_matches_documented_differentials():
    fam = koszul_twist()
    res = lemma2_build(fam)
    d1, d2 = res.targets
    # d1 couples x' into x by f2 = y and x into x' by f1 = x
    x_row, xp_row = 0, 3   # even part: [x.e0, x'.o0 -> index 1], layout checked below
    labels = d1.module.labels
    assert labels == ("x.e0", "x'.o0", "x.o0", "x'.e0")
    assert d1.d.entries[0][3] == RING.parse("y")     # x <- x' coupling f2
    assert d1.d.entries[3][0] == RING.parse("x")     # x' <- x coupling f1
    assert d2.d.entries[0][3] == RING.parse("x")
    assert d2.d.entries[3][0] == RING.parse("y")


def test_lemma2_degenerate_zero_functions():
    v = SuperModule.free(RING, 1, 1)
    z = RING.zero
    d = ParityMap(v, v, ODD, [[z, z], [RING.parse("x"), z]])
    fam = TwistFamily(v, d, (RING.zero, RING.zero))
    res = lemma2_build(fam)
    assert res.ok
    assert verify(res.certificate)


def test_lemma2_r3_tensor_instance():
    inst = gen_twist_family(3, 4, 99)
    fam = TwistFamily(inst.module, inst.d, inst.functions)
    res = lemma2_build(fam)
    assert res.ok
    assert verify(res.certificate)
    prod = RING.one
    for f in fam.functions:
        prod = prod * f
    assert fam.d.compose(fam.d).entries[0][0] == -prod


def test_lemma2_filtration_is_block_triangular():
    """Passing filtration_verify pins the shape: slice-diagonal blocks are the
    graded differentials and everything above the slice diagonal vanishes."""
    fam = koszul_twist()
    res = lemma2_build(fam)
    w, filt = res.w, res.filtration
    slice_of = {}
    for j in range(1, len(filt.steps) + 1):
        for i in filt.slice_indices(j):
            slice_of[i] = j
    for i in range(w.module.total_rank):
        for j in range(w.module.total_rank):
            if slice_of[i] < slice_of[j]:
                assert w.d.entries[i][j].is_zero()
    from mfcert.complexes import graded_slice
    for j, target in enumerate(res.targets, start=1):
        gr = curvature_check(*graded_slice(w, filt, j))
        assert gr.d.entries == target.d.entries


def tensor_trick_family(r):
    """A deformation family whose constant term is contractible: the tensor
    of a two-term contraction with a rank-one family."""
    from mfcert.supermod import tensor, tensor_module
    v1 = SuperModule.free(RING, 1, 1, "a")
    v2 = SuperModule.free(RING, 1, 1, "b")
    z = RING.zero
    lam = RING.var("lambda")
    c = ParityMap(v1, v1, ODD, [[z, z], [RING.one, z]])
    k = ParityMap(v1, v1, ODD, [[z, RING.one], [z, z]])
    f = ParityMap(v2, v2, ODD, [[z, lam ** (r - 1)], [lam, z]])
    d = tensor(c, ParityMap.identity(v2)) + tensor(ParityMap.identity(v1), f)
    module, _ = tensor_module(v1, v2)
    family = LambdaFamily.from_map(module, d, r)
    h0 = tensor(k, ParityMap.identity(v2))
    return family, h0


@pytest.mark.parametrize("r", [2, 3])
def test_lemma1_with_discharged_exactness(r):
    """When the constant-term complex is itself null-homotopic, composing in
    that homotopy empties the assumed-exactness list of the certificate."""
    from mfcert.kcert import Certificate, HomotopyMove
    family, h0 = tensor_trick_family(r)
    res = lemma1_build(family)
    assert res.ok
    d0 = res.targets[0]
    v = is_homotopy(d0, d0, h0, d0.identity_map(), d0.zero_map())
    assert v, v.describe()
    assert res.certificate.assumed_exact() == ["V.d0"]
    discharge = Certificate(
        res.certificate.ring, res.certificate.z, claim=[],
        moves=[(0, HomotopyMove(d0, h0))])
    combined = compose_certs(res.certificate, discharge)
    v2 = verify(combined)
    assert v2 and combined.assumed_exact() == []


# ---------------------------------------------------------------------------
# deformed sections
# ---------------------------------------------------------------------------

def documented_tau(r=3):
    ring = PolyRing(rationals(), ("x", "y", "xh1", "lambda"))
    z, one = ring.zero, ring.one
    pure = (0, r - 1)
    return TauData(ring, r, ("xh1",), 1, ((z, one),), {pure: (one,)})


def test_tau_documented_instance_passes():
    tau = documented_tau()
    assert tau.check()
    res = s_lambda_check(tau)
    assert res.ok
    assert res.square == tau.ring.parse("lambda^3")
    assert res.section_at_zero.pairing().is_zero()
    assert res.family is not None
    chained = lemma1_build(res.family)
    assert chained.ok and verify(chained.certificate)


def test_tau_perturbation_fails_with_residual():
    tau = documented_tau()
    ring = tau.ring
    # send the mixed monomial to the dual generator too
    nu = dict(tau.nu)
    nu[(1, 1)] = (ring.one,)
    bad = TauData(ring, tau.r, tau.coords, 1, tau.dtilde, nu)
    assert not bad.check()
    res = s_lambda_check(bad)
    assert not res.ok
    # hand expansion oracle: the stray term is binom(2,1) xh1 lambda^2
    assert res.verdict.residual == ring.parse("2*xh1*lambda^2")
    assert res.family is None


def test_tau_entries_must_avoid_coordinates():
    ring = PolyRing(rationals(), ("x", "xh1", "lambda"))
    with pytest.raises(Exception):
        TauData(ring, 2, ("xh1",), 1, ((ring.var("xh1"), ring.one),),
                {(0, 1): (ring.one,)})


def test_slambda_degree_guard_and_family_square():
    tau = gen_tau_data(3, 2, 77)
    res = s_lambda_check(tau)
    assert res.ok
    fam = res.family
    lam = tau.ring.var("lambda")
    total = fam.total_map()
    sq = total.compose(total)
    ident = ParityMap.identity(fam.module).scale(lam**tau.r)
    assert sq == ident


# ---------------------------------------------------------------------------
# twisted sections
# ---------------------------------------------------------------------------

def worked_ramond():
    ring = PolyRing(cyclotomic_field(2), ("xh1", "lambda"))
    one = ring.one
    return RamondData(ring, 2, ("xh1",), 1,
                      ((one,),), {(1,): (ring.parse("3"),)},
                      (one,), (ring.parse("2"),))


def test_s_xi_build_worked_example():
    """The twisted sections s_xi_reduce builds, one per root: isotropic, with
    the wedge part e1 - xi*e2 and the coupling as the contraction part."""
    data = worked_ramond()
    ring = data.ring
    res = s_xi_reduce(data)
    assert res.roots == roots_of_unity(ring.field, 2)
    for s in res.sections:
        assert s.pairing().is_zero()
    s1 = res.sections[res.roots.index(ring.field.one)]
    assert s1.l_part == ring.parse("-xh1")            # e1 - e2 = x - 2x
    assert s1.linv_part == ring.parse("3*xh1")        # e1 + e2


def test_s_xi_build_e2_zero_degenerates():
    ring = PolyRing(cyclotomic_field(3), ("xh1", "lambda"))
    one, z = ring.one, ring.zero
    data = RamondData(ring, 3, ("xh1",), 1,
                      ((one,),), {(2,): (ring.parse("-1"),)},
                      (one,), (z,))
    assert data.check()
    res = s_xi_reduce(data)
    assert res.ok
    for s in res.sections:
        assert s.linv_part == ring.parse("xh1^2")  # only the e1^{r-1} term survives


def test_cyclotomic_coupling_symbolic_r3():
    ring = PolyRing(cyclotomic_field(3), ("e1", "e2"))
    e1, e2 = ring.var("e1"), ring.var("e2")
    roots = roots_of_unity(ring.field, 3)
    for xi in roots:
        prod = ring.one
        for xj in roots:
            if xj != xi:
                prod = prod * (e1 - e2 * ring.const(xj))
        assert prod == cyclotomic_coupling(ring, e1, e2, 3, xi)
    total = ring.one
    for xj in roots:
        total = total * (e1 - e2 * ring.const(xj))
    assert total == e1**3 - e2**3


def test_s_xi_reduce_worked_example():
    data = worked_ramond()
    res = s_xi_reduce(data)
    assert res.ok
    assert [str(f) for f in res.f_list] == ["-xh1", "3*xh1"]
    assert res.verdicts["match-xi1"] and res.verdicts["match-xi2"]
    assert verify(res.certificate)
    # the composed claim is about the twisted spinor complexes only
    names = [res.certificate.name_of(c) for _, c in res.certificate.claim]
    assert all(n.startswith("spinor.s_xi") for n in names)


@pytest.mark.parametrize("r,size,seed", [(2, 1, 5), (3, 2, 8), (4, 1, 3)])
def test_s_xi_reduce_generated(r, size, seed):
    data = gen_ramond_data(r, size, seed)
    res = s_xi_reduce(data)
    assert res.ok
    assert verify(res.certificate)


# ---------------------------------------------------------------------------
# cone lifting
# ---------------------------------------------------------------------------

def test_cone_lift_restriction_and_difference():
    inst = gen_cone_lift(2, 5)
    g = ChainMap(inst.a, inst.b, inst.g)
    f = ChainMap(inst.b, inst.c, inst.f)
    lift = cone_lift(g, f, inst.h)
    cn = cone(g)
    assert lift.map.compose(cn.inclusion.map) == inst.f

    rng = random.Random(6)
    from mfcert.generators import _rand_poly
    entries = [[inst.a.module.ring.zero] * inst.a.module.total_rank
               for _ in range(inst.c.module.total_rank)]
    for i in range(inst.c.module.total_rank):
        for j in range(inst.a.module.total_rank):
            if (inst.c.module.parity(i) + inst.a.module.parity(j)) % 2 == 1:
                entries[i][j] = _rand_poly(rng, inst.a.module.ring, ("x", "y"),
                                           allow_zero=True)
    k = ParityMap(inst.a.module, inst.c.module, ODD, entries)
    lift2 = cone_lift(g, f, inst.h + k)
    assert lift2.map - lift.map == \
        k.compose(parity_unit(inst.a.module)).compose(cn.projection.map)


def test_cone_lift_on_contractible_total_complex():
    """g = f = id on a null-homotopic complex; the contracting homotopy is a
    witness for f.g ~ 0 and adding the differential gives a second witness."""
    res = lemma1_build(lambda_family_documented(2))
    w = res.w
    ident = ChainMap(w, w, ParityMap.identity(w.module))
    h = res.homotopy.h
    lift = cone_lift(ident, ident, h)
    cn = cone(ident)
    assert lift.map.compose(cn.inclusion.map) == ident.map
    h2 = h + w.d
    lift2 = cone_lift(ident, ident, h2)
    assert lift2.map - lift.map == \
        w.d.compose(parity_unit(w.module)).compose(cn.projection.map)


def test_cone_lift_with_zero_attaching_map():
    # g = 0: the cone is B + A[1] and with h = 0 the lift is (f, 0);
    # a chain-map h gives the lift (f, h) on the shifted summand
    inst = gen_cone_lift(1, 13)
    zero_g = ChainMap(inst.a, inst.b,
                      ParityMap.zero(inst.a.module, inst.b.module, EVEN))
    f = ChainMap(inst.b, inst.c, inst.f)
    h0 = ParityMap.zero(inst.a.module, inst.c.module, ODD)
    lift = cone_lift(zero_g, f, h0)
    cn = cone(zero_g)
    assert lift.map.compose(cn.inclusion.map) == inst.f
    assert lift.map.compose(_shift_embedding(cn)).is_zero()
    lift2 = cone_lift(zero_g, f, inst.h)
    assert lift2.map.compose(_shift_embedding(cn)) == \
        inst.h.compose(parity_unit(inst.a.module))


def test_cone_lift_with_zero_f():
    # f = 0: any chain map out of the shift is a witness and the lift is (0, h)
    inst = gen_cone_lift(1, 14)
    g = ChainMap(inst.a, inst.b, inst.g)
    zero_f = ChainMap(inst.b, inst.c,
                      ParityMap.zero(inst.b.module, inst.c.module, EVEN))
    lift = cone_lift(g, zero_f, inst.h)
    cn = cone(g)
    assert lift.map.compose(cn.inclusion.map).is_zero()
    assert lift.map.compose(_shift_embedding(cn)) == \
        inst.h.compose(parity_unit(inst.a.module))


def _shift_embedding(cn):
    """The section of the cone projection landing in the shifted summand."""
    proj = cn.projection.map
    module = proj.source
    a1 = proj.target
    ring = module.ring
    entries = [[ring.zero] * a1.total_rank for _ in range(module.total_rank)]
    for i in range(a1.total_rank):
        col = next(j for j in range(module.total_rank)
                   if proj.entries[i][j].is_one())
        entries[col][i] = ring.one
    return ParityMap(a1, module, EVEN, entries)


def test_cone_lift_rejects_bad_witness():
    # all differentials vanish in these instances, so the witness condition
    # is f.g = 0 exactly; route f into the image of g to break it
    inst = gen_cone_lift(1, 9)
    g = ChainMap(inst.a, inst.b, inst.g)
    ring = inst.a.module.ring
    entries = [list(row) for row in inst.f.entries]
    entries[0][0] = entries[0][0] + ring.one
    wrong = ChainMap(inst.b, inst.c,
                     ParityMap(inst.b.module, inst.c.module, EVEN, entries))
    assert not wrong.map.compose(inst.g).is_zero()
    with pytest.raises(Exception):
        cone_lift(g, wrong, inst.h)


@pytest.mark.parametrize("gen, cls", [(gen_tau_data, TauData), (gen_ramond_data, RamondData)])
def test_generator_self_check_failure_raises(monkeypatch, gen, cls):
    # a real exception, so the guard survives python -O
    monkeypatch.setattr(cls, "check", lambda self: False)
    with pytest.raises(InvariantError, match="generated"):
        gen(3, 2, 1)
