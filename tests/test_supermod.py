"""Graded modules and parity-homogeneous maps: composition, shift, dual, tensor."""

import random

import pytest

from mfcert.polynomials import PolyRing
from mfcert.scalars import rationals
from mfcert.supermod import (EVEN, ODD, ParityMap, ShapeError, SuperModule, parity_unit,
                             tensor)

RING = PolyRing(rationals(), ("x", "y"))


def modmake(e, o):
    return SuperModule.free(RING, e, o)


def koszul_map():
    v = modmake(1, 1)
    z = RING.zero
    return v, ParityMap(v, v, ODD, [[z, RING.parse("-y")], [RING.parse("x"), z]])


def random_map(rng, source, target, parity):
    entries = []
    for i in range(target.total_rank):
        row = []
        for j in range(source.total_rank):
            if (target.parity(i) - source.parity(j)) % 2 == parity and rng.random() < 0.7:
                row.append(RING.poly({(rng.randint(0, 1), rng.randint(0, 1)):
                                      rng.choice([-2, -1, 1, 2])}))
            else:
                row.append(RING.zero)
        entries.append(row)
    return ParityMap(source, target, parity, entries)


def test_identity_composition():
    v, d = koszul_map()
    ident = ParityMap.identity(v)
    assert ident.compose(d) == d
    assert d.compose(ident) == d


def test_odd_compose_odd_is_even():
    v, d = koszul_map()
    assert d.compose(d).parity == EVEN


def test_koszul_square_has_both_blocks_minus_xy():
    v, d = koszul_map()
    sq = d.compose(d)
    minus_xy = RING.parse("-x*y")
    assert sq.entries[0][0] == minus_xy
    assert sq.entries[1][1] == minus_xy
    assert sq.entries[0][1].is_zero() and sq.entries[1][0].is_zero()


def test_compose_associativity_random():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c, d = (modmake(rng.randint(0, 2), rng.randint(0, 2))
                      for _ in range(4))
        f = random_map(rng, c, d, rng.randint(0, 1))
        g = random_map(rng, b, c, rng.randint(0, 1))
        h = random_map(rng, a, b, rng.randint(0, 1))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_shape_mismatch():
    v, d = koszul_map()
    w = modmake(2, 1)
    f = ParityMap.zero(w, w, EVEN)
    with pytest.raises(ShapeError):
        d.compose(f)


def test_parity_pattern_enforced():
    v = modmake(1, 1)
    one = RING.one
    with pytest.raises(ShapeError):
        ParityMap(v, v, ODD, [[one, RING.zero], [RING.zero, RING.zero]])


def test_shift_involution_on_modules():
    m = modmake(2, 3)
    assert m.shifted().shifted() == m
    assert m.shifted().even_rank == 3 and m.shifted().odd_rank == 2


def test_shift_on_maps_preserves_action():
    v, d = koszul_map()
    shifted = d.shifted()
    assert shifted.shifted() == d
    assert shifted.parity == ODD
    # the underlying matrix is a reindexing: entry (odd0 <- even0) moves
    assert shifted.entries[0][1] == RING.parse("x")
    assert shifted.entries[1][0] == RING.parse("-y")


def test_dual_involution():
    rng = random.Random(3)
    m, n = modmake(2, 1), modmake(1, 2)
    f = random_map(rng, m, n, ODD)
    assert f.transposed().transposed() == f
    assert f.transposed().entries[0][0] == f.entries[0][0]


def test_tensor_koszul_sign_on_one_dimensional_pieces():
    # f odd: (0|1) -> (1|0), g odd: (1|0) -> (0|1); on the odd source vector
    # the rule (f x g)(v x w) = (-1)^{|g||v|} f(v) x g(w) contributes -1
    a = modmake(0, 1)
    b = modmake(1, 0)
    one = RING.one
    f = ParityMap(a, b, ODD, [[one]])
    g = ParityMap(b, a, ODD, [[one]])
    fg = tensor(f, g)
    assert fg.parity == EVEN
    assert fg.source.total_rank == 1 and fg.target.total_rank == 1
    assert fg.entries[0][0] == -one


def test_tensor_composition_sign_rule():
    rng = random.Random(11)
    for _ in range(8):
        a, b, c = (modmake(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(3))
        a2, b2, c2 = (modmake(rng.randint(1, 2), rng.randint(1, 2)) for _ in range(3))
        pf, pg, pf2, pg2 = (rng.randint(0, 1) for _ in range(4))
        f = random_map(rng, b, c, pf)
        g = random_map(rng, b2, c2, pg)
        f2 = random_map(rng, a, b, pf2)
        g2 = random_map(rng, a2, b2, pg2)
        lhs = tensor(f, g).compose(tensor(f2, g2))
        rhs = tensor(f.compose(f2), g.compose(g2))
        if (pg * pf2) % 2:
            rhs = -rhs
        assert lhs == rhs


def test_parity_unit_roundtrip():
    m = modmake(2, 1)
    u = parity_unit(m)                 # m.shifted() -> m
    u_rev = parity_unit(m.shifted())   # m -> m.shifted()
    assert u.compose(u_rev) == ParityMap.identity(m)
    assert u_rev.compose(u) == ParityMap.identity(m.shifted())
    assert u.parity == ODD
