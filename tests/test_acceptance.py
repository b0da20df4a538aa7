"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Everything here is exact arithmetic: the only
tolerances are "equal" and "zero".
"""

import random
import time

import pytest

from mfcert.clifford import OrthoSection, clifford_square, spinor_module
from mfcert.complexes import SupportLocus, is_homotopy
from mfcert.constructions import (ChainMap, LambdaFamily, TwistFamily, cone, cone_lift,
                                  cyclotomic_coupling, lemma1_build, lemma2_build,
                                  remark_decompose, s_lambda_check, s_xi_reduce)
from mfcert.exactness import strict_exactness_sample
from mfcert.generators import (gen_cone_lift, gen_lambda_family, gen_ramond_data,
                               gen_tau_data, gen_twist_family, _rand_poly)
from mfcert.kcert import (Certificate, FiltrationMove, HomotopyMove, IsoMove, IsoPair,
                          verify)
from mfcert.polynomials import PolyRing
from mfcert.scalars import cyclotomic_field, rationals, roots_of_unity
from mfcert.serialize import parse_instance, write_instance
from mfcert.supermod import ODD, ParityMap, parity_unit

# registry of (complex, locus-cycle position) pairs certified null-homotopic,
# shared with the exactness-consistency criterion
NULL_HOMOTOPIC = []


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. deformation-family suite
# ---------------------------------------------------------------------------

def test_criterion_1_lambda_family_suite():
    t0 = time.time()
    r_values = [2, 3, 5]
    sizes = [1, 2, 3, 4, 2, 1, 3, 2, 4, 1]
    runs = 0
    for seed in range(99):
        r = r_values[seed % 3]
        size = sizes[seed % len(sizes)]
        inst = gen_lambda_family(r, size, seed)
        if seed % 10 == 0:   # exercise the generator's file surface too
            inst = parse_instance(write_instance(inst))
        family = LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
        res = lemma1_build(family)
        assert res.ok, {k: v.describe() for k, v in res.verdicts.items()}
        assert verify(res.certificate)
        NULL_HOMOTOPIC.append(res.w)
        runs += 1
    for r in r_values:   # full-size instances at every r
        inst = gen_lambda_family(r, 8, 1000 + r)
        family = LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
        assert family.module.even_rank == 8
        res = lemma1_build(family)
        assert res.ok and verify(res.certificate)
        NULL_HOMOTOPIC.append(res.w)
        runs += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(1, runs >= 100 and elapsed < 120,
           f"{runs} deformation families (r in 2/3/5, ranks to (8|8)) "
           f"all four checks exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. product-family suite
# ---------------------------------------------------------------------------

def test_criterion_2_twist_family_suite():
    t0 = time.time()
    r_values = [2, 3, 4]
    sizes = [1, 2, 3, 4, 2, 1, 3, 2]
    runs = 0
    for seed in range(99):
        r = r_values[seed % 3]
        size = sizes[seed % len(sizes)]
        inst = gen_twist_family(r, size, seed)
        if seed % 10 == 0:
            inst = parse_instance(write_instance(inst))
        family = TwistFamily(inst.module, inst.d, inst.functions)
        res = lemma2_build(family)
        assert res.ok, {k: v.describe() for k, v in res.verdicts.items()}
        assert verify(res.certificate)
        NULL_HOMOTOPIC.append(res.w)
        runs += 1
    for r in r_values:
        inst = gen_twist_family(r, 8, 2000 + r)
        family = TwistFamily(inst.module, inst.d, inst.functions)
        assert family.module.even_rank == 8
        res = lemma2_build(family)
        assert res.ok and verify(res.certificate)
        runs += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(2, runs >= 100 and elapsed < 120,
           f"{runs} product families (r in 2/3/4, ranks to (8|8)) "
           f"differentials, filtration, homotopy, certificate replay "
           f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Clifford square law
# ---------------------------------------------------------------------------

def test_criterion_3_clifford_square_law():
    ring = PolyRing(rationals(), ("x", "y", "z"))
    names = ("x", "y", "z")
    rng = random.Random(333)
    modules = {n: spinor_module(ring, n) for n in range(1, 6)}
    runs = 0
    for _ in range(500):
        n = rng.choices([1, 2, 3, 4, 5], weights=[30, 30, 20, 15, 5])[0]
        vec = tuple(_rand_poly(rng, ring, names, degree=3, allow_zero=True)
                    for _ in range(n))
        cov = tuple(_rand_poly(rng, ring, names, degree=3, allow_zero=True)
                    for _ in range(n))
        s = OrthoSection(ring, vec, cov)
        q = clifford_square(s, modules[n])   # raises on any matrix deviation
        assert q == s.pairing()
        runs += 1
    report(3, runs >= 500,
           f"{runs} random sections, base rank <= 5, entry degree <= 3, "
           f"square law exact with zero tolerance")


# ---------------------------------------------------------------------------
# 4. root-of-unity coupling identities
# ---------------------------------------------------------------------------

def test_criterion_4_cyclotomic_identities():
    checked = 0
    for r in range(2, 13):
        field = cyclotomic_field(r)
        ring = PolyRing(field, ("e1", "e2"))
        e1, e2 = ring.var("e1"), ring.var("e2")
        roots = roots_of_unity(field, r)
        total = ring.one
        for xi in roots:
            total = total * (e1 - e2 * ring.const(xi))
        assert total == e1**r - e2**r
        for xi in roots:
            prod = ring.one
            for xj in roots:
                if xj is not xi:
                    prod = prod * (e1 - e2 * ring.const(xj))
            assert prod == cyclotomic_coupling(ring, e1, e2, r, xi)
            checked += 1
    report(4, checked == sum(range(2, 13)),
           f"coupling identity and full product verified symbolically for "
           f"all r <= 12 and all {checked} roots")


# ---------------------------------------------------------------------------
# 5. deformed-section chain
# ---------------------------------------------------------------------------

def test_criterion_5_deformed_section_chain():
    ring = PolyRing(rationals(), ("x", "y", "xh1", "lambda"))
    z, one = ring.zero, ring.one
    from mfcert.constructions import TauData
    documented = TauData(ring, 3, ("xh1",), 1, ((z, one),), {(0, 2): (one,)})
    data = [documented]
    r_values = [2, 3, 4]
    for seed in range(20):
        data.append(gen_tau_data(r_values[seed % 3], 1 + seed % 3, seed))
    runs = 0
    for tau in data:
        res = s_lambda_check(tau)
        assert res.ok, res.verdict.describe()
        assert res.section_at_zero.pairing().is_zero()
        assert clifford_square(res.section_at_zero, res.spinor).is_zero()
        chained = lemma1_build(res.family)
        assert chained.ok and verify(chained.certificate)
        NULL_HOMOTOPIC.append(chained.w)
        runs += 1
    report(5, runs >= 21,
           f"{runs} section data (documented + generated): square lambda^r, "
           f"isotropic specialization, induced family certified")


# ---------------------------------------------------------------------------
# 6. twisted-section chain
# ---------------------------------------------------------------------------

def test_criterion_6_twisted_section_chain():
    r_values = [2, 3, 4]
    runs = 0
    matched = 0
    for seed in range(21):
        r = r_values[seed % 3]
        data = gen_ramond_data(r, 1 + seed % 3, seed)
        res = s_xi_reduce(data)
        assert res.ok
        matches = [v for name, v in res.verdicts.items() if name.startswith("match-xi")]
        assert all(matches) and len(matches) == r
        matched += len(matches)
        assert verify(res.certificate)
        names = [res.certificate.name_of(c) for _, c in res.certificate.claim]
        assert all(n.startswith("spinor.s_xi") for n in names)
        NULL_HOMOTOPIC.append(res.lemma2.w)
        runs += 1
    report(6, runs >= 20,
           f"{runs} twisted-section data (r in 2/3/4): {matched} per-root "
           f"matrix matches and composed certificates replayed")


# ---------------------------------------------------------------------------
# 7. cone-lifting identities
# ---------------------------------------------------------------------------

def test_criterion_7_cone_lift_suite():
    runs = 0
    rng = random.Random(777)
    for seed in range(40):
        inst = gen_cone_lift(1 + seed % 3, seed)
        g = ChainMap(inst.a, inst.b, inst.g)
        f = ChainMap(inst.b, inst.c, inst.f)
        lift = cone_lift(g, f, inst.h)
        cn = cone(g)
        assert lift.map.compose(cn.inclusion.map) == inst.f
        k = _random_odd_map(rng, inst.a.module, inst.c.module)
        lift2 = cone_lift(g, f, inst.h + k)
        assert lift2.map - lift.map == \
            k.compose(parity_unit(inst.a.module)).compose(cn.projection.map)
        runs += 1
    # contractible totals provide witnesses with nonzero differentials
    for seed in range(12):
        inst = gen_lambda_family(2 + seed % 2, 1 + seed % 3, 3000 + seed)
        family = LambdaFamily.from_map(inst.module, inst.d_lambda, inst.r)
        res = lemma1_build(family)
        w = res.w
        if w.module.total_rank == 0:
            continue
        ident = ChainMap(w, w, ParityMap.identity(w.module))
        lift = cone_lift(ident, ident, res.homotopy.h)
        cn = cone(ident)
        assert lift.map.compose(cn.inclusion.map) == ident.map
        lift2 = cone_lift(ident, ident, res.homotopy.h + w.d)
        assert lift2.map - lift.map == \
            w.d.compose(parity_unit(w.module)).compose(cn.projection.map)
        runs += 1
    report(7, runs >= 50,
           f"{runs} lifting instances: restriction equality and the "
           f"two-witness difference identity, exact")


def _random_odd_map(rng, src, tgt):
    entries = []
    for i in range(tgt.total_rank):
        row = []
        for j in range(src.total_rank):
            if (tgt.parity(i) + src.parity(j)) % 2 == 1:
                row.append(_rand_poly(rng, src.ring, ("x", "y"), allow_zero=True))
            else:
                row.append(src.ring.zero)
        entries.append(row)
    return ParityMap(src, tgt, ODD, entries)


# ---------------------------------------------------------------------------
# 8. mutation soundness
# ---------------------------------------------------------------------------

def _legal_slots(m):
    return [(i, j) for i in range(m.target.total_rank)
            for j in range(m.source.total_rank)
            if (m.target.parity(i) - m.source.parity(j)) % 2 == m.parity]


def _preserves_homotopy_identity(d, i, j):
    """Adding a unit at (i, j) of h changes dh + hd by (col i of d) placed in
    column j plus (row j of d) placed in row i; zero iff both vanish."""
    col_zero = all(d.entries[k][i].is_zero() for k in range(d.target.total_rank))
    row_zero = all(d.entries[j][k].is_zero() for k in range(d.source.total_rank))
    return col_zero and row_zero


def _corrupt_map(m, rng, slots=None):
    i, j = rng.choice(slots if slots is not None else _legal_slots(m))
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] + 1
    return ParityMap(m.source, m.target, m.parity, entries), (i, j)


def _corrupt_certificate(cert, rng, meaningful_only):
    idx = rng.randrange(len(cert.moves))
    coeff, move = cert.moves[idx]
    preserving = False
    if isinstance(move, HomotopyMove):
        slots = _legal_slots(move.h)
        if meaningful_only:
            slots = [s for s in slots
                     if not _preserves_homotopy_identity(move.complex.d, *s)]
        bad, slot = _corrupt_map(move.h, rng, slots)
        preserving = _preserves_homotopy_identity(move.complex.d, *slot)
        new = HomotopyMove(move.complex, bad)
    elif isinstance(move, FiltrationMove):
        j = rng.randrange(len(move.isos))
        pairs = list(move.isos)
        bad, _ = _corrupt_map(pairs[j].forward, rng)
        pairs[j] = IsoPair(bad, pairs[j].inverse)
        new = FiltrationMove(move.complex, move.steps, move.targets, pairs)
    else:
        bad, _ = _corrupt_map(move.iso.forward, rng)
        new = IsoMove(move.source, move.target,
                      IsoPair(bad, move.iso.inverse))
    moves = list(cert.moves)
    moves[idx] = (coeff, new)
    return Certificate(cert.ring, cert.z, cert.claim, moves, cert.names), preserving


def test_criterion_8_mutation_soundness():
    rng = random.Random(888)
    inst1 = gen_lambda_family(2, 2, 17)
    cert1 = lemma1_build(
        LambdaFamily.from_map(inst1.module, inst1.d_lambda, 2)).certificate
    inst2 = gen_twist_family(2, 2, 18)
    cert2 = lemma2_build(
        TwistFamily(inst2.module, inst2.d, inst2.functions)).certificate
    from mfcert.generators import gen_remark_family
    rem = gen_remark_family(2, 19)
    cert3 = remark_decompose(rem.module, rem.d_lambda, rem.target,
                             list(rem.roots)).certificate
    cert4 = s_xi_reduce(gen_ramond_data(2, 1, 20)).certificate
    suites = {"deformation": cert1, "product": cert2,
              "roots": cert3, "twisted": cert4}
    results = {}
    for name, cert in suites.items():
        detected = 0
        for _ in range(100):
            bad, _ = _corrupt_certificate(cert, rng, meaningful_only=True)
            if not verify(bad):
                detected += 1
        results[name] = detected
        assert detected >= 99, f"{name}: only {detected}/100 mutations detected"
        # unrestricted corruption: whatever slips through must be provably
        # identity-preserving, i.e. the mutated witness is still a witness
        for _ in range(25):
            bad, preserving = _corrupt_certificate(cert, rng,
                                                   meaningful_only=False)
            if verify(bad):
                assert preserving, f"{name}: unexplained undetected mutation"

    # lifting suite: corrupt the homotopy witness of a contractible total
    inst = gen_lambda_family(2, 2, 21)
    res = lemma1_build(LambdaFamily.from_map(inst.module, inst.d_lambda, 2))
    w = res.w
    slots = [s for s in _legal_slots(res.homotopy.h)
             if not _preserves_homotopy_identity(w.d, *s)]
    detected = 0
    for _ in range(100):
        bad, _ = _corrupt_map(res.homotopy.h, rng, slots)
        if not is_homotopy(w, w, bad, w.identity_map(), w.zero_map()):
            detected += 1
    results["lifting"] = detected
    assert detected >= 99
    report(8, all(v >= 99 for v in results.values()),
           "mutation detection per suite: " +
           ", ".join(f"{k} {v}/100" for k, v in results.items()))


# ---------------------------------------------------------------------------
# 9. exactness-oracle consistency
# ---------------------------------------------------------------------------

def test_criterion_9_exactness_oracle_consistency():
    assert NULL_HOMOTOPIC, "earlier criteria populate the registry"
    from mfcert.constructions import remark_decompose
    from mfcert.generators import gen_remark_family
    for seed in range(6):   # root-decomposition totals join the registry too
        rem = gen_remark_family(1 + seed % 3, seed)
        res = remark_decompose(rem.module, rem.d_lambda, rem.target,
                               list(rem.roots))
        assert res.ok
        NULL_HOMOTOPIC.append(res.w)
    checked = 0
    failures = 0
    for k, w in enumerate(NULL_HOMOTOPIC):
        ring = w.ring()
        locus_cycle = [
            SupportLocus(()),                              # whole space
            SupportLocus((ring.parse("x"),)),
            SupportLocus((ring.parse("x"), ring.parse("y"))),
            SupportLocus((ring.parse("x + 1"),)),
        ]
        z = locus_cycle[k % len(locus_cycle)]
        rep = strict_exactness_sample(w, z, trials=20, seed=9000 + k)
        checked += 1
        if not rep.ok:
            failures += 1
    report(9, failures == 0,
           f"{checked} null-homotopic complexes sampled at 20 points each "
           f"over cycling loci; {failures} counterexamples")
