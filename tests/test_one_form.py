"""One coefficient form: the replay and the sampler build no Fraction and no Scalar.

Every ``Poly`` is one int denominator over packed int numerators, so reading
a bundle, replaying it and sampling exactness run in integers alone.
Counting: after one warm-up call, which may fill the field's caches,
``mfcert verify`` on each golden bundle and on the (64|64) lemma2 bundle,
``mfcert exactness`` on a Koszul instance, and ``ParityMap.compose`` on the
maps of a bundle over Q(zeta_3) construct no ``Fraction`` and no ``Scalar``.
"""

from collections import Counter
from fractions import Fraction

import pytest

from mfcert.cli import main
from mfcert.scalars import Scalar
from mfcert.serialize import parse_bundle

# command and generator flags; the last is the product-dense benchmark's bundle
GENS = {
    "lemma1": ("lemma1", ["lambda-family", "--r", "3", "--size", "2", "--seed", "1"]),
    "lemma2": ("lemma2", ["twist-family", "--r", "3", "--size", "2", "--seed", "5"]),
    "remark": ("remark", ["remark-family", "--size", "2", "--seed", "1"]),
    "slambda": ("slambda", ["tau-data", "--r", "3", "--size", "2", "--seed", "6"]),
    "sxi": ("sxi", ["ramond-data", "--r", "3", "--size", "2", "--seed", "1",
                    "--field", "cyclotomic:3"]),
    "lemma2-64": ("lemma2", ["twist-family", "--r", "4", "--size", "8", "--seed", "1004"]),
}
KOSZUL = ("mfcert instance v1\nkind mf\nfield cyclotomic 3\nvariables x y\n"
          "even e0\nodd o0\nbegin map d\nparity odd\nblock odd<-even\nrow x + zeta*y\n"
          "end map\n")


@pytest.fixture
def built(monkeypatch):
    """Count the Fraction and Scalar objects constructed."""
    counts = Counter()
    new, init = Fraction.__new__, Scalar.__init__

    def counted_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["Scalar"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    monkeypatch.setattr(Scalar, "__init__", counted_init)
    return counts


def _warm_then_count(argv, counts) -> Counter:
    assert main(argv) == 0
    counts.clear()
    assert main(argv) == 0
    return Counter(counts)


@pytest.mark.parametrize("name", GENS)
def test_verify_builds_no_fraction_and_no_scalar(name, built, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command, gen = GENS[name]
    assert main(["gen", "--kind", *gen, "--out", "inst.txt"]) == 0
    assert main([command, "inst.txt", "--out", "bundle.txt"]) == 0
    assert _warm_then_count(["verify", "bundle.txt"], built) == Counter()


def test_exactness_sampling_builds_no_fraction_and_no_scalar(built, tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "koszul.txt").write_text(KOSZUL)
    argv = ["exactness", "koszul.txt", "--trials", "5", "--seed", "1", "--zgens", "x"]
    assert _warm_then_count(argv, built) == Counter()


def test_compose_builds_no_fraction_and_no_scalar(built, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    command, gen = GENS["sxi"]
    assert main(["gen", "--kind", *gen, "--out", "inst.txt"]) == 0
    assert main([command, "inst.txt", "--out", "bundle.txt"]) == 0
    maps = [c.d for c in parse_bundle((tmp_path / "bundle.txt").read_text()).all_complexes()]
    maps[0].compose(maps[0].transposed())
    built.clear()
    products = [d.compose(d.transposed()) for d in maps]
    assert built == Counter()
    assert any(not p.is_zero() for p in products)
