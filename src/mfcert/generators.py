"""Seeded, deterministic instance generators.

Every generated instance satisfies its defining identity by construction:
deformation families come from block-triangular atoms, product families from
tensor products of rank-one factorizations, and the section data from a
normal form transported by exact unipotent changes of basis.  The randomness
is a single seeded generator, so identical parameters reproduce identical
instances byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from .complexes import InvariantError
from .constructions import (LambdaFamily, RamondData, TauData, TwistFamily,
                            _multisets, apply_sym_tensor, multinomial)
from .polynomials import LAMBDA, Poly, PolyRing
from .scalars import FieldError, ScalarField, cyclotomic_field, roots_of_unity
from .serialize import (MAX_FIELD_ORDER, ConeLiftInstance, LambdaInstance,
                        RemarkInstance, TwistInstance)
from .supermod import (EVEN, ODD, ParityMap, SuperModule, direct_sum_modules,
                       assemble, tensor, tensor_module)

BASE_VARS = ("x", "y")


def _rand_poly(rng: random.Random, ring: PolyRing, allowed: tuple[str, ...],
               degree: int = 1, allow_zero: bool = False) -> Poly:
    """A small random polynomial in the allowed variables."""
    while True:
        n_terms = rng.randint(0 if allow_zero else 1, 2)
        p = ring.zero
        for _ in range(n_terms):
            c = rng.choice([-2, -1, 1, 2])
            mono = ring.const(c)
            for _ in range(rng.randint(0, degree)):
                mono = mono * ring.var(rng.choice(allowed))
            p = p + mono
        if allow_zero or not p.is_zero():
            return p


def _unipotent(rng: random.Random, module: SuperModule,
               allowed: tuple[str, ...]) -> tuple[ParityMap, ParityMap]:
    """A random even unipotent automorphism and its exact inverse."""
    n = module.total_rank
    z = module.ring.zero
    nil = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if module.parity(i) != module.parity(j):
                continue
            if rng.random() < 0.4:
                nil[i][j] = _rand_poly(rng, module.ring, allowed)
    nmap = ParityMap(module, module, EVEN, nil)
    ident = ParityMap.identity(module)
    u = ident + nmap
    inv = ident
    power = nmap
    sign = -1
    while not power.is_zero():
        inv = inv + (power if sign > 0 else -power)
        power = power.compose(nmap)
        sign = -sign
    return u, inv


def _require_r(r: int, least: int, kind: str):
    """Refuse an r below the kind's minimum before anything is built."""
    if r < least:
        raise InvariantError(f"{kind} needs r >= {least}, got {r}")


def _conjugate(d: ParityMap, u: ParityMap, u_inv: ParityMap) -> ParityMap:
    return u.compose(d).compose(u_inv)


# ---------------------------------------------------------------------------
# deformation families with square lambda^r
# ---------------------------------------------------------------------------

def _lambda_block(rng: random.Random, ring: PolyRing, r: int,
                  rank: int) -> tuple[SuperModule, ParityMap]:
    """A (rank|rank) block with d(lambda)^2 = lambda^r, rank in {1, 2}."""
    lam = ring.var(LAMBDA)
    module = SuperModule.free(ring, rank, rank)
    z = ring.zero
    if rank == 1:
        k = rng.randint(1, r - 1)
        a = [[lam**k]]
        b = [[lam ** (r - k)]]
    else:
        p = _rand_poly(rng, ring, BASE_VARS)
        a = [[lam, p], [z, lam]]
        b = [[lam ** (r - 1), -p * lam ** (r - 2)], [z, lam ** (r - 1)]]
    entries = [[z] * (2 * rank) for _ in range(2 * rank)]
    for i in range(rank):
        for j in range(rank):
            entries[rank + i][j] = a[i][j]       # even -> odd
            entries[i][rank + j] = b[i][j]       # odd -> even
    return module, ParityMap(module, module, ODD, entries)


def gen_lambda_family(r: int, size: int, seed: int,
                      field: ScalarField | None = None) -> LambdaInstance:
    _require_r(r, 2, "lambda-family")
    rng = random.Random(seed)
    field = field or cyclotomic_field(1)
    ring = PolyRing(field, BASE_VARS + (LAMBDA,))
    if size == 0:
        module = SuperModule.free(ring, 0, 0)
        return LambdaInstance(module, ParityMap.zero(module, module, ODD), r)
    parts = []
    remaining = size
    while remaining > 0:
        rank = 2 if remaining >= 2 and rng.random() < 0.7 else 1
        parts.append(_lambda_block(rng, ring, r, rank))
        remaining -= rank
    module, embs = direct_sum_modules([m for m, _ in parts],
                                      [f"p{k}." for k in range(len(parts))])
    d = assemble(module, embs, module, embs, ODD,
                 {(k, k): dm for k, (_, dm) in enumerate(parts)})
    u, u_inv = _unipotent(rng, module, BASE_VARS)
    d = _conjugate(d, u, u_inv)
    LambdaFamily.from_map(module, d, r)   # generator self-check
    return LambdaInstance(module, d, r)


def gen_remark_family(size: int, seed: int,
                      field: ScalarField | None = None) -> RemarkInstance:
    """d(lambda)^2 = (lambda - z1)(lambda - z2) for distinct lambda-free roots."""
    rng = random.Random(seed)
    field = field or cyclotomic_field(1)
    ring = PolyRing(field, BASE_VARS + (LAMBDA,))
    lam = ring.var(LAMBDA)
    if rng.random() < 0.5:
        z1 = ring.const(rng.choice([1, 2, -1]))
        z2 = ring.const(rng.choice([-2, 0, 3]))
        if z1 == z2:
            z2 = z2 + 1
    else:
        z1 = ring.var("x")
        z2 = -ring.var("x") + rng.choice([0, 1])
    target = (lam - z1) * (lam - z2)
    blocks = []
    size = max(1, size)
    for _ in range(size):
        module = SuperModule.free(ring, 1, 1)
        z = ring.zero
        entries = [[z, lam - z2], [lam - z1, z]]
        blocks.append((module, ParityMap(module, module, ODD, entries)))
    module, embs = direct_sum_modules([m for m, _ in blocks],
                                      [f"p{k}." for k in range(len(blocks))])
    d = assemble(module, embs, module, embs, ODD,
                 {(k, k): dm for k, (_, dm) in enumerate(blocks)})
    u, u_inv = _unipotent(rng, module, BASE_VARS)
    d = _conjugate(d, u, u_inv)
    return RemarkInstance(module, d, target, (z1, z2))


# ---------------------------------------------------------------------------
# product families: d^2 = -(f1...fr)
# ---------------------------------------------------------------------------

def _twist_tensor_piece(rng: random.Random, ring: PolyRing, fs: list[Poly],
                        n_factors: int) -> tuple[SuperModule, ParityMap]:
    """Tensor of rank-one factorizations whose curvatures sum to -prod(fs)."""
    split = rng.randint(0, len(fs))
    carrier_a = prod(fs[:split], start=ring.one)
    carrier_b = -prod(fs[split:], start=ring.one)
    atoms = [(carrier_a, carrier_b)]
    while len(atoms) < n_factors:
        p = _rand_poly(rng, ring, BASE_VARS)
        if rng.random() < 0.5 or len(atoms) + 2 > n_factors:
            atoms.append((p, ring.zero))
        else:
            q = _rand_poly(rng, ring, BASE_VARS)
            atoms.append((p, q))
            atoms.append((p, -q))
    rng.shuffle(atoms)
    module = None
    d = None
    for a, b in atoms:
        block_mod = SuperModule.free(ring, 1, 1)
        block = ParityMap(block_mod, block_mod, ODD,
                          [[ring.zero, b], [a, ring.zero]])
        if module is None:
            module, d = block_mod, block
        else:
            d = tensor(d, ParityMap.identity(block_mod)) + \
                tensor(ParityMap.identity(module), block)
            module, _ = tensor_module(module, block_mod)
    return module, d


def gen_twist_family(r: int, size: int, seed: int,
                     field: ScalarField | None = None) -> TwistInstance:
    _require_r(r, 1, "twist-family")
    rng = random.Random(seed)
    field = field or cyclotomic_field(1)
    ring = PolyRing(field, BASE_VARS + (LAMBDA,))
    fs = [_rand_poly(rng, ring, BASE_VARS) for _ in range(r)]
    if size == 0:
        module = SuperModule.free(ring, 0, 0)
        return TwistInstance(module, ParityMap.zero(module, module, ODD), tuple(fs))
    pieces = []
    remaining = size
    while remaining > 0:
        n_factors = 1
        while 2 ** n_factors <= remaining and n_factors < 4 and rng.random() < 0.5:
            n_factors += 1
        while 2 ** (n_factors - 1) > remaining:
            n_factors -= 1
        pieces.append(_twist_tensor_piece(rng, ring, fs, n_factors))
        remaining -= 2 ** (n_factors - 1)
    module, embs = direct_sum_modules([m for m, _ in pieces],
                                      [f"p{k}." for k in range(len(pieces))])
    d = assemble(module, embs, module, embs, ODD,
                 {(k, k): dm for k, (_, dm) in enumerate(pieces)})
    u, u_inv = _unipotent(rng, module, BASE_VARS)
    d = _conjugate(d, u, u_inv)
    TwistFamily.from_map(module, d, tuple(fs))   # generator self-check
    return TwistInstance(module, d, tuple(fs))


# ---------------------------------------------------------------------------
# section data
# ---------------------------------------------------------------------------

def _int_unipotent(rng: random.Random, n: int) -> list[list[int]]:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                u[i][j] = rng.choice([-2, -1, 1, 2])
    return u


def _int_inverse_unipotent(u: list[list[int]]) -> list[list[int]]:
    n = len(u)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = 0
            for k in range(i + 1, j + 1):
                acc += u[i][k] * inv[k][j]
            inv[i][j] = -acc
    return inv


def extract_sym_tensor(polys: list[Poly], slot_vars: tuple[str, ...],
                       degree: int) -> dict[tuple[int, ...], tuple[Poly, ...]]:
    """Read a symmetric tensor back off its generic-column evaluation."""
    nu = {}
    for m in _multisets(len(slot_vars), degree):
        vec = []
        for p in polys:
            q = p
            for v, e in zip(slot_vars, m):
                q = q.coefficient_in(v, e)
            vec.append(q.scalar_mul(Fraction(1, multinomial(m))))
        if any(not q.is_zero() for q in vec):
            nu[m] = tuple(vec)
    return nu


def gen_tau_data(r: int, size: int, seed: int,
                 field: ScalarField | None = None) -> TauData:
    _require_r(r, 2, "tau-data")
    rng = random.Random(seed)
    field = field or cyclotomic_field(1)
    n0 = 1 if size <= 1 else 2
    n1 = 1 + (size % 3)
    coords = tuple(f"xh{i + 1}" for i in range(n0))
    ring = PolyRing(field, BASE_VARS + coords + (LAMBDA,))
    z = ring.zero
    # normal form: the unit column hits the first C1 slot, the coordinate
    # columns avoid it, and nu pairs the pure unit power with its dual
    dtilde = [[z] * (n0 + 1) for _ in range(n1)]
    dtilde[0][n0] = ring.one
    for a in range(n0):
        for b in range(1, n1):
            if rng.random() < 0.7:
                dtilde[b][a] = _rand_poly(rng, ring, BASE_VARS, allow_zero=True)
    pure = tuple(0 for _ in range(n0)) + (r - 1,)
    nu = {pure: tuple(ring.one if b == 0 else z for b in range(n1))}

    # exact change of basis on C1
    g = _int_unipotent(rng, n1)
    g_inv = _int_inverse_unipotent(g)
    dtilde = [[sum((ring.const(g[i][k]) * dtilde[k][j] for k in range(n1)),
                   start=z) for j in range(n0 + 1)] for i in range(n1)]
    nu = {m: tuple(sum((ring.const(g_inv[k][i]) * vec[k] for k in range(n1)),
                       start=z) for i in range(n1))
          for m, vec in nu.items()}

    # change of basis on C0 + <unit>: C0 is preserved and the unit moves by
    # an element of C0, so the unit projection is untouched
    a_mat = _int_unipotent(rng, n0)
    gamma = [rng.choice([-1, 0, 0, 1]) for _ in range(n0)]
    u = [[ring.const(a_mat[i][j]) for j in range(n0)] + [ring.const(gamma[i])]
         for i in range(n0)]
    u.append([z] * n0 + [ring.one])
    dtilde = [[sum((dtilde[i][k] * u[k][j] for k in range(n0 + 1)), start=z)
               for j in range(n0 + 1)] for i in range(n1)]
    slot_vars = coords + (LAMBDA,)
    column = [sum((u[a][b] * ring.var(slot_vars[b]) for b in range(n0 + 1)),
                  start=z) for a in range(n0 + 1)]
    evaluated = apply_sym_tensor(nu, column, n1, ring)
    nu = extract_sym_tensor(evaluated, slot_vars, r - 1)

    data = TauData(ring, r, coords, n1,
                   tuple(tuple(row) for row in dtilde), nu)
    if not data.check():
        raise InvariantError("generated tau datum must satisfy the zero-composition")
    return data


def gen_ramond_data(r: int, size: int, seed: int,
                    field: ScalarField | None = None) -> RamondData:
    _require_r(r, 2, "ramond-data")
    if field is None and r > MAX_FIELD_ORDER:   # its default field is Q(zeta_r)
        raise InvariantError(f"ramond-data over cyclotomic {r} needs r <= {MAX_FIELD_ORDER}")
    if field is not None:   # sxi twists by every r-th root of unity
        try:
            roots_of_unity(field, r)
        except FieldError:
            raise InvariantError(f"ramond-data with r = {r} needs a primitive root of "
                                 f"unity of order {r}, which {field!r} lacks") from None
    rng = random.Random(seed)
    field = field or cyclotomic_field(r)
    n0 = 1 if size <= 1 else 2
    n1 = 2 + (size % 2)
    coords = tuple(f"xh{i + 1}" for i in range(n0))
    ring = PolyRing(field, BASE_VARS + coords + (LAMBDA,))
    z = ring.zero
    e1c = [rng.choice([-2, -1, 1, 2]) for _ in range(n0)]
    e2c = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(n0)]
    d = [[z] * n0 for _ in range(n1)]
    for a in range(n0):
        d[0][a] = ring.const(e1c[a])
        d[1][a] = ring.const(e2c[a])
    for a in range(n0):
        for b in range(2, n1):
            if rng.random() < 0.5:
                d[b][a] = _rand_poly(rng, ring, BASE_VARS, allow_zero=True)
    nu = {}
    for m in _multisets(n0, r - 1):
        v1 = 1
        v2 = 1
        for c, e in zip(e1c, m):
            v1 *= c**e
        for c, e in zip(e2c, m):
            v2 *= c**e
        vec = [ring.const(-v1), ring.const(v2)] + [z] * (n1 - 2)
        if any(not p.is_zero() for p in vec):
            nu[m] = tuple(vec)

    g = _int_unipotent(rng, n1)
    g_inv = _int_inverse_unipotent(g)
    d = [[sum((ring.const(g[i][k]) * d[k][j] for k in range(n1)), start=z)
          for j in range(n0)] for i in range(n1)]
    nu = {m: tuple(sum((ring.const(g_inv[k][i]) * vec[k] for k in range(n1)),
                       start=z) for i in range(n1))
          for m, vec in nu.items()}

    data = RamondData(ring, r, coords, n1,
                      tuple(tuple(row) for row in d), nu,
                      tuple(ring.const(c) for c in e1c),
                      tuple(ring.const(c) for c in e2c))
    if not data.check():
        raise InvariantError("generated twist datum must satisfy its isotropy identity")
    return data


# ---------------------------------------------------------------------------
# cone-lift instances (used by tests and the cone-lift command)
# ---------------------------------------------------------------------------

def gen_cone_lift(size: int, seed: int,
                  field: ScalarField | None = None) -> ConeLiftInstance:
    """Flat complexes with f.g = 0 strictly, plus a chain-map perturbation of h = 0.

    A: (k, d=0) in even degree; B: the cone-ready middle with d_B = 0; the
    composite f.g is forced to vanish by routing g into the kernel of f.
    """
    from .complexes import curvature_check

    rng = random.Random(seed)
    field = field or cyclotomic_field(1)
    ring = PolyRing(field, BASE_VARS + (LAMBDA,))
    n = max(1, size)
    z = ring.zero

    a_mod = SuperModule.free(ring, n, n, "a")
    b_mod = SuperModule.free(ring, 2 * n, 2 * n, "b")
    c_mod = SuperModule.free(ring, n, n, "c")
    zero_a = ParityMap.zero(a_mod, a_mod, ODD)
    zero_b = ParityMap.zero(b_mod, b_mod, ODD)
    zero_c = ParityMap.zero(c_mod, c_mod, ODD)
    a = curvature_check(a_mod, zero_a)
    b = curvature_check(b_mod, zero_b)
    c = curvature_check(c_mod, zero_c)

    # g lands in the first half of B, f only sees the second half
    g_entries = [[z] * a_mod.total_rank for _ in range(b_mod.total_rank)]
    for i in range(n):
        g_entries[i][i] = _rand_poly(rng, ring, BASE_VARS)
        g_entries[2 * n + i][n + i] = _rand_poly(rng, ring, BASE_VARS)
    f_entries = [[z] * b_mod.total_rank for _ in range(c_mod.total_rank)]
    for i in range(n):
        f_entries[i][n + i] = _rand_poly(rng, ring, BASE_VARS)
        f_entries[n + i][2 * n + n + i] = _rand_poly(rng, ring, BASE_VARS)
    g = ParityMap(a_mod, b_mod, EVEN, g_entries)
    f = ParityMap(b_mod, c_mod, EVEN, f_entries)

    # with all differentials zero, any odd map A -> C is a homotopy witness
    h_entries = [[z] * a_mod.total_rank for _ in range(c_mod.total_rank)]
    for i in range(c_mod.total_rank):
        for j in range(a_mod.total_rank):
            if (c_mod.parity(i) + a_mod.parity(j)) % 2 == 1 and rng.random() < 0.4:
                h_entries[i][j] = _rand_poly(rng, ring, BASE_VARS)
    h = ParityMap(a_mod, c_mod, ODD, h_entries)
    return ConeLiftInstance(a, b, c, g, f, h)
