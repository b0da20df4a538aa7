"""Golden corpus: seeded commands whose reports, JSON reports and bundles are fixed.

Every command runs in a fresh directory with relative paths, so the
``input:`` and ``bundle:`` lines do not depend on where the test runs.  The
SHA-256 of each text report (with its exit code), each ``--json-report`` file,
each written bundle and each generated instance is compared with the value
recorded before the constructions stopped checking identities themselves.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from mfcert.cli import main

GENS = {
    "lambda.txt": ["lambda-family", "--r", "3", "--size", "2", "--seed", "1"],
    "twist.txt": ["twist-family", "--r", "3", "--size", "2", "--seed", "5"],
    "remark.txt": ["remark-family", "--size", "2", "--seed", "1"],
    "tau.txt": ["tau-data", "--r", "3", "--size", "2", "--seed", "6"],
    "ramond.txt": ["ramond-data", "--r", "3", "--size", "2", "--seed", "1",
                   "--field", "cyclotomic:3"],
    "cone.txt": ["cone-lift", "--size", "2", "--seed", "8"],
    # roots x and -x + 1: a root that is not a constant, over Q(zeta_3)
    "remark3.txt": ["remark-family", "--size", "3", "--seed", "5", "--field", "cyclotomic:3"],
    "lambda5.txt": ["lambda-family", "--r", "5", "--size", "3", "--seed", "2"],
}

# commands with their input, extra flags and the bundle they write, if any
RUNS = [
    ("lemma1", "lambda.txt", [], "lemma1.bundle"),
    ("lemma2", "twist.txt", [], "lemma2.bundle"),
    ("remark", "remark.txt", [], "remark.bundle"),
    ("slambda", "tau.txt", [], "slambda.bundle"),
    ("sxi", "ramond.txt", [], "sxi.bundle"),
    ("conelift", "cone.txt", [], None),
    ("check-mf", "twist.txt", [], None),
    ("exactness", "koszul.txt", ["--trials", "5", "--seed", "1", "--zgens", "x"], None),
    ("lemma1", "invalid.txt", [], None),
    ("remark", "remark3.txt", [], "remark3.bundle"),
    ("lemma1", "lambda5.txt", [], "lemma1-r5.bundle"),
    # failing and message-bearing lines, which the seeded sweep never prints
    ("check-mf", "nonscalar.txt", [], None),
    ("exactness", "zero.txt", ["--trials", "5", "--seed", "1", "--zgens", "x"], None),
    ("exactness", "vacuous.txt", ["--trials", "5", "--seed", "1"], None),
    ("slambda", "badtau.txt", [], None),
    ("sxi", "badramond.txt", [], None),
    ("conelift", "badcone.txt", [], None),
]

KOSZUL = ("mfcert instance v1\nkind mf\nfield rationals\nvariables x\n"
          "even e0\nodd o0\nbegin map d\nparity odd\nblock odd<-even\nrow x\nend map\n")
INVALID = ("mfcert instance v1\nkind lambda-family\nfield rationals\n"
           "variables x lambda\nr 2\neven e0\nodd o0\n"
           "begin map d\nparity odd\nblock odd<-even\nrow lambda + x\n"
           "block even<-odd\nrow lambda\nend map\n")
MF_HEAD = ("mfcert instance v1\nkind mf\nfield rationals\nvariables x y\n"
           "even e0 e1\nodd o0 o1\nbegin map d\nparity odd\n")
# d^2 = diag(x, y, x, y): not scalar
NOT_SCALAR = MF_HEAD + ("block odd<-even\nrow 1, 0\nrow 0, 1\n"
                        "block even<-odd\nrow x, 0\nrow 0, y\nend map\n")
# d = 0: not exact off the locus x = 0, and vacuously exact when no locus
# is given, as the excluded locus is then the whole space
ZERO_MAP = ("mfcert instance v1\nkind mf\nfield rationals\nvariables x\n"
            "even e0\nodd o0\nbegin map d\nparity odd\nend map\n")

# instances written as text, and instances edited from a generated one
TEXTS = {"koszul.txt": KOSZUL, "invalid.txt": INVALID, "nonscalar.txt": NOT_SCALAR,
         "zero.txt": ZERO_MAP, "vacuous.txt": ZERO_MAP}
EDITS = {
    # nu(x^2) gains the mixed term 2*xh1*lambda: the pairing is not lambda^3
    "badtau.txt": ("tau.txt", "term 0 0 2 :", "term 1 0 1 :"),
    # one coefficient of nu changes: the twisted sections are not isotropic
    "badramond.txt": ("ramond.txt", "term 0 2 : -4, 12", "term 0 2 : -4, 13"),
    # g sends ae0 into the support of f, so f.g is not zero and the witness
    # h fails (every differential of the file is zero, so h itself cannot)
    "badcone.txt": ("cone.txt", "row 0, -1\nrow 0, 0\n", "row 0, -1\nrow 1, 0\n"),
}

EXPECTED = {
    "lambda.txt":
        "662d74215f0842a059e14ef64be5164512a242217c1a7ecdf9e1b93d9d5cbb5c",
    "twist.txt":
        "c8f7bab86bc228dc538684bb9db51047c9eb1419cbfe35f862dffb7ab0682210",
    "remark.txt":
        "0a38b7214847f2c44723a8d4b32392f00546540c607a41f0ca066048bf49ff43",
    "tau.txt":
        "3f1ae8eecda210bb1449ae8939ebca2c5c53ab3991a733bf92b99d99b7521f78",
    "ramond.txt":
        "2a6f83875c4fb817424d99343ae779ab625830dd13d01674efe00c61add7be2f",
    "cone.txt":
        "629fa78c84a3f41eac40f864ebfd2f0277e378931197da040099460ed1c7b4c9",
    "lemma1 lambda.txt":
        "9d27827676b8cb62688b03984587fac3cc058819aa8bb80ceaf9c194fd478d78",
    "lemma1 lambda.txt json":
        "52b6440a8a6a60647ca22b56323de2210e1233883dc79d35a5d67a32dc21d4af",
    "lemma1 lambda.txt bundle":
        "e2832b7d6da41fb23b4f2efcc2e8ab275d9f017710edaf6e2b3a0b53d2e3db39",
    "lemma2 twist.txt":
        "4cc19faae160559deadefd7eb765c51ffa8cd0e3e098ecb7e4c279624f26396c",
    "lemma2 twist.txt json":
        "43268e59b5ee7e6a5b5f28917b2c9857e18b7b6340e8fd0f2ea84f6404dae6ff",
    "lemma2 twist.txt bundle":
        "690ce4c9844aaba1c7fb43d3e847dab6029d63b2b150dc14fcda15b3b4be04a7",
    "remark remark.txt":
        "6fad42440b6e43f723fde4b39f4f203c2b40b0c5817e136ed8c234efcb9087fe",
    "remark remark.txt json":
        "dbfc78a74f44e202d8e269a8d66768eb8f5bff7469425c11badc514fb8234343",
    "remark remark.txt bundle":
        "526f49730a3acf4c4d5a2ec34de88f706102499d124496df0710f69973b21caa",
    "slambda tau.txt":
        "5fac8ccea365296b4c7153366b2fd76209faec7d4e48bc3c99553fdc226d6631",
    "slambda tau.txt json":
        "40cbe071cfaa1884b5d0ebb9dbda5f7a458be30407206f9439f6818dca4bfc9f",
    "slambda tau.txt bundle":
        "9caa0b6607624f062c77e5689cdcee05090c79dc810054d44443d26bdf77822f",
    "sxi ramond.txt":
        "79fb15bd9dc60dfd6bc053002685371133500a60194c5383678e2350afb01edb",
    "sxi ramond.txt json":
        "1941191e3ed1d323d64a8d83db72799ff09ea22aa75f669541177b416b742b8a",
    "sxi ramond.txt bundle":
        "85e8e26a19ad7d7af7151fee5991c3a7c0d9585c03b52fce0916c64d2c822975",
    "conelift cone.txt":
        "fc3c7ce1a3dde17c0c75b6c39f49b6af05e23559335b452d00329913da2aa49c",
    "conelift cone.txt json":
        "ec6bb3ce29befc457df7af80257914c5eae05b33b4dc503e84a27b6a3c7a22c1",
    "check-mf twist.txt":
        "554a562b0e87da4c480172a4369b2c43009dff1f0a6ce5367583d6059d5101f8",
    "check-mf twist.txt json":
        "e24b7ad8dd2eaeb4bbd4800d430c05c74ba3cecdced6f4302cdeb63e5e6a51af",
    "exactness koszul.txt":
        "2cd41ca47943e2ddc4e0830e83a5df3927a7dd2e9eeb9d2cd9d87db529259347",
    "exactness koszul.txt json":
        "3d27fbe2194b3231a84d7d7c23e909518bcddea5716240e4f0e5546d276177d9",
    "lemma1 invalid.txt":
        "09da302053c12e7b978e7c1515bd770625a0d58388770d970596190b3bd9e489",
    "lemma1 invalid.txt json":
        "8a6c38d51cce62284b2dcd0c9b14b11f40a4d71447bd1a656ddfd9c63fce0981",
    "verify lemma1.bundle":
        "5171ae44a165b9fe37189e9588948fc655564220332a5f7376a155f39cd7056f",
    "verify lemma1.bundle json":
        "a0a24620c475c8987284db073a70ea3ca2d04d553927bab5dc976ff6040d9840",
    "verify lemma2.bundle":
        "8d83d1178204d1e04b8171426a5306974ef7b7a8711b884ad6a8d2af48a0bad4",
    "verify lemma2.bundle json":
        "cf2ae586b963d157c0980c4bff6631359bf5d47dbfe950111934708213f682eb",
    "verify remark.bundle":
        "480e8e2e3b62c1d6ccdbc398a26113ed3e6e6acfb72cedbe91fbe10425257b34",
    "verify remark.bundle json":
        "c762bee3092767c3269eb3c48aee1d4446cf5bd88370c13dc895be6b64c6c654",
    "verify slambda.bundle":
        "4e631423c5f14f78f40a8a58ad0ed0652bfbe807305ada3e7d441634bac1fd90",
    "verify slambda.bundle json":
        "6f46811ff47de83b5084c034bad224b9b2e9e78676273935420ad137e75a34d2",
    "verify sxi.bundle":
        "e3fa1152376b1614fdff7e301c34369dc0a74239e1cdd8a1f6a397f91c9f58ae",
    "verify sxi.bundle json":
        "77ed3692c4c5e9086108b0d9a9b9efcd9ee47fb6ede3157040f9232e10e98d00",
    "verify corrupt.bundle":
        "d106e900378e1c06bb583e2015c743e474886cf04c49e702b6931d5c1cb38242",
    "verify corrupt.bundle json":
        "cadbc3b31ae1dda05633371424b5d4ca4d99c6030ff7cb2cfdb7ffc885cfd883",
    "verify curved.bundle":
        "756cda1d94b93b0de671cd4228ca2aec19912bc6a8e972d1c109c6796a5b682d",
    "verify curved.bundle json":
        "8377279623caae2c77161c02afae1e21788f641146e52d336b497a11569e644a",
    "verify overclaim.bundle":
        "8872ee812c53a1c66a9a3c9301b53196fb8df3831625fc1f9a5fbd1020350dc4",
    "verify overclaim.bundle json":
        "21d514d235d13269834b46a3b83f655caa0639c7c72f8903d85e3c5ecfc63405",
    # recorded before remark and lemma1 shared the Newton-basis builder
    "remark3.txt":
        "1ca27681984559653cfaf66e71bc6c056e6ba671247f96acbb8a2cd37a44a5fb",
    "lambda5.txt":
        "e87a9ea639c73e185ec0c92e880be62ddb377323669f8b2cd373c4740279f7ce",
    "remark remark3.txt":
        "a6ce4373cea977f68459d53b27ad2acec1b47344bb627836b0eefa40f431d741",
    "remark remark3.txt json":
        "ed2fff9ca000e42b8de8a06169e959b7b88220700ad55571e81488986701d0a2",
    "remark remark3.txt bundle":
        "5fe2e25e2f06338270476713360dfde3539ffec47124bf65921cf27111ffff98",
    "lemma1 lambda5.txt":
        "1908f2394e3bbb8f05771b4b9d0c684ae79db6a43bae543c43dbde2eb8ddda64",
    "lemma1 lambda5.txt json":
        "bbbc7f3e8154456264a10ead836b7bb35b5e75fb979b1da469e0dc5186f3c17b",
    "lemma1 lambda5.txt bundle":
        "9036ea2f258b68aa2f8f73920aac5c62029dc9b16738ece1d6074b8239a9965a",
    "verify remark3.bundle":
        "8dff2d66437dea3358a50391387147f74d5e2a582bcc91edcaee2748052ef32e",
    "verify remark3.bundle json":
        "580c1cfe145cc417f15c5f30a495b5b68bae6b1a357fd2cf98b9ae9961532c5e",
    "verify lemma1-r5.bundle":
        "073d996da7fe2f33bd98c5188842bafe6adbc3757297412fabe398f87a685486",
    "verify lemma1-r5.bundle json":
        "0fd4877d4190c53b203cd052b143df153b0cde0ffac703ef66c84a43eb5cfd76",
    # recorded before the report was printed from one verdict tree, except the
    # four nonscalar.txt and zero.txt digests: recorded when the failing lines
    # came to name the bad entry once and the first non-exact sampled point
    "check-mf nonscalar.txt":
        "2cbb9a628073105b16e6d6cbbf31e9faefe2e6c814fbcf5a17d238edc6ab8b81",
    "check-mf nonscalar.txt json":
        "a047b5529160d4a66484e8a82c38599c59a651671d6474d1f11b66b212ec7184",
    "exactness zero.txt":
        "4e24e67672155a4de7a2e08d4744f5768e15bd4a397f14f4d1082b71d42e92da",
    "exactness zero.txt json":
        "aa739510a14263dbeed802e86e51d2b1e043fe4253daa86bd8ca38543e4ab315",
    "exactness vacuous.txt":
        "5ad65b0b1bff7eb43d0e05a2dda3a5bac8113d371e833dfff750bb4bd0bbd726",
    "exactness vacuous.txt json":
        "4cb969a39093985a5d2dbcf701804a40f15069fa4080f5dfac699b15196e004f",
    "slambda badtau.txt":
        "317145f1d2cb97fb1f29c98833dd4596484421e37d788a1136f629d1f0610e1e",
    "slambda badtau.txt json":
        "e4dc3c0edb17525da82073509c7e81024eb2022016ffb2c0d03a4810e474c3b7",
    "sxi badramond.txt":
        "a216a1808f61dda0f0e581d7586708c78a6d9dfb80c451777133b17acf4965f9",
    "sxi badramond.txt json":
        "4d5e91a54d912389db44ad2f95792df0132821bcaac8ddf21b5a4944b1b8272d",
    "conelift badcone.txt":
        "786ec216649fca50e842764517c88a7534b4e5166cccefdea1a37d573c02231b",
    "conelift badcone.txt json":
        "16c2154455316be0fa8f6c842c451c1d1f68b4c26668117b240433b51e7ba457",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return f"exit {rc}\n{out.getvalue()}".encode()


def _corrupt_homotopy_entry(text: str) -> str:
    """Add 1 to the first stored entry of the first homotopy witness."""
    lines = text.splitlines()
    start = lines.index("kind homotopy")
    row = next(i for i in range(start, len(lines)) if lines[i].startswith("row "))
    entries = lines[row][len("row "):].split(", ")
    entries[0] = f"{entries[0]} + 1"
    lines[row] = "row " + ", ".join(entries)
    return "\n".join(lines) + "\n"


def _curve_first_complex(text: str) -> str:
    """Record the curvature x for the first complex, which is flat."""
    return text.replace("\ncurvature 0\n", "\ncurvature x\n", 1)


def _raise_claim(text: str) -> str:
    """Add one to the coefficient of the single claim term."""
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("claim "))
    coeff, term = lines[row][len("claim "):].split(" * ")
    lines[row] = f"claim {int(coeff) + 1} * {term}"
    return "\n".join(lines) + "\n"


def corpus() -> dict[str, str]:
    """Run every command in the current directory; artifact name -> SHA-256."""
    digests = {}
    for name, args in GENS.items():
        assert _run(["gen", "--kind", *args, "--out", name]) == b"exit 0\n"
        digests[name] = _sha(Path(name).read_bytes())
    for name, text in TEXTS.items():
        Path(name).write_text(text)
    for name, (source, old, new) in EDITS.items():
        text = Path(source).read_text()
        assert text.count(old) == 1
        Path(name).write_text(text.replace(old, new))
    bundles = []
    for command, source, extra, bundle in RUNS:
        tag = f"{command} {source}"
        argv = [command, source, *extra, "--json-report", "report.json"]
        if bundle:
            argv += ["--out", bundle]
            bundles.append(bundle)
        digests[tag] = _sha(_run(argv))
        digests[f"{tag} json"] = _sha(Path("report.json").read_bytes())
        if bundle:
            digests[f"{tag} bundle"] = _sha(Path(bundle).read_bytes())
    lemma1 = Path("lemma1.bundle").read_text()
    derived = {"corrupt.bundle": _corrupt_homotopy_entry(lemma1),
               "curved.bundle": _curve_first_complex(lemma1),
               "overclaim.bundle": _raise_claim(lemma1)}
    for bundle, text in derived.items():
        Path(bundle).write_text(text)
    for bundle in bundles + list(derived):
        digests[f"verify {bundle}"] = _sha(
            _run(["verify", bundle, "--json-report", "report.json"]))
        digests[f"verify {bundle} json"] = _sha(Path("report.json").read_bytes())
    return digests


def test_golden_corpus_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert corpus() == EXPECTED
