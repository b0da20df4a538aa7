"""Isolated kernel cases: one layer each, timed alone, results checked.

Each case returns ``(value, ok)``.  Timings are medians over a few repeats.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from workloads import program

MULADDS = 10_000
REPEATS = 5


def _median_ns(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def scalar_muladd_us(order: int) -> tuple[float, bool]:
    """Microseconds per ``acc + a * b`` over Q(zeta_order), operands from ScalarField.scalar."""
    scalars = program("scalars")
    field = scalars.cyclotomic_field(order)
    zeta = field.zeta
    a = [field.scalar(i % 7 - 3) + zeta * field.scalar(i % 3) for i in range(MULADDS)]
    b = [field.scalar(i % 5 - 2) for i in range(MULADDS)]
    result = []

    def kernel():
        acc = field.zero
        for x, y in zip(a, b):
            acc = acc + x * y
        result.append(acc)

    ns = _median_ns(kernel)
    # reference in plain integers: a_i = p_i + q_i zeta, b_i = s_i
    p = sum((i % 7 - 3) * (i % 5 - 2) for i in range(MULADDS))
    q = sum((i % 3) * (i % 5 - 2) for i in range(MULADDS))
    expected = field.scalar(p) + zeta * field.scalar(q)
    return ns / MULADDS / 1e3, all(r == expected for r in result)


def poly_mul_us() -> tuple[float, bool]:
    """Microseconds for one fixed product of two dense trivariate cubics over Q."""
    polynomials, scalars = program("polynomials"), program("scalars")
    ring = polynomials.PolyRing(scalars.rationals(), ("x", "y", "lambda"))
    p = ring.parse("(x + 2*y - 3*lambda + 1)^3")
    q = ring.parse("(2*x - y + lambda - 4)^3")
    result = []
    ns = _median_ns(lambda: result.append(p * q), repeats=21)
    point = {"x": 3, "y": -2, "lambda": 5}
    expected = Fraction((3 - 4 - 15 + 1) ** 3 * (6 + 2 + 5 - 4) ** 3)
    return ns / 1e3, result[0].evaluate(point) == expected


def twist_certificate():
    """The lemma2 result on twist-family r=4, size 8, seed 1004: a (64|64) total."""
    generators, constructions = program("generators"), program("constructions")
    inst = generators.gen_twist_family(4, 8, 1004)
    return constructions.lemma2_build(
        constructions.TwistFamily(inst.module, inst.d, inst.functions))


def compose_total_ms(result) -> tuple[float, bool]:
    """Milliseconds for d composed with h on the total; checks dh + hd = id."""
    supermod = program("supermod")
    d, h = result.w.d, result.homotopy.h
    out = []
    ns = _median_ns(lambda: out.append(d.compose(h)), repeats=3)
    ok = out[0] + h.compose(d) == supermod.ParityMap.identity(result.w.module)
    return ns / 1e6, ok


def roundtrip_ms(result) -> tuple[float, bool]:
    """Milliseconds to write and parse the certificate bundle; checks the bytes round-trip."""
    serialize = program("serialize")
    texts = []

    def kernel():
        text = serialize.write_bundle(result.certificate)
        texts.append((text, serialize.parse_bundle(text)))

    ns = _median_ns(kernel, repeats=3)
    text, parsed = texts[0]
    return ns / 1e6, serialize.write_bundle(parsed) == text


def run_all() -> tuple[dict[str, float], list[str]]:
    """Every kernel case; returns metric values and the names of failed checks."""
    values, failed = {}, []
    cases = {
        "scalars.q_muladd_us": lambda: scalar_muladd_us(1),
        "scalars.zeta4_muladd_us": lambda: scalar_muladd_us(4),
        "polynomials.mul_kernel_us": poly_mul_us,
    }
    for name, case in cases.items():
        values[name], ok = case()
        if not ok:
            failed.append(name)
    result = twist_certificate()
    for name, case in (("supermod.compose_total_ms", compose_total_ms),
                       ("serialize.roundtrip_ms", roundtrip_ms)):
        values[name], ok = case(result)
        if not ok:
            failed.append(name)
    return values, failed
