"""End-to-end command-line behaviour: exit codes, determinism, round trips."""

import argparse
import json
import time

import pytest

from mfcert import cli
from mfcert.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def twist_file(tmp_path):
    path = tmp_path / "twist.txt"
    assert run(["gen", "--kind", "twist-family", "--r", "2", "--size", "2",
                "--seed", "3", "--out", path]) == 0
    return path


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run(["gen", "--kind", "lambda-family", "--r", "3", "--size", "4",
                    "--seed", "11", "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_documented_family_at_seed_one(tmp_path):
    path = tmp_path / "doc.txt"
    assert run(["gen", "--kind", "lambda-family", "--r", "2", "--size", "2",
                "--seed", "1", "--out", path]) == 0
    text = path.read_text()
    assert "row lambda, -1" in text and "row lambda, 1" in text


def test_gen_cyclotomic_field_flag(tmp_path):
    path = tmp_path / "cyc.txt"
    assert run(["gen", "--kind", "twist-family", "--r", "3", "--size", "1",
                "--seed", "2", "--field", "cyclotomic:3", "--out", path]) == 0
    assert "field cyclotomic 3" in path.read_text()
    assert run(["lemma2", path]) == 0


def test_gen_size_zero_is_valid(tmp_path):
    path = tmp_path / "empty.txt"
    assert run(["gen", "--kind", "lambda-family", "--r", "2", "--size", "0",
                "--seed", "1", "--out", path]) == 0
    assert run(["lemma1", path]) == 0


def test_gen_rejects_oversize(tmp_path, capsys):
    assert run(["gen", "--kind", "twist-family", "--size", "64",
                "--out", tmp_path / "x.txt"]) == 2


@pytest.mark.parametrize("size", [-1, 9])
@pytest.mark.parametrize("kind", ["lambda-family", "twist-family", "remark-family",
                                  "tau-data", "ramond-data", "cone-lift"])
def test_gen_rejects_size_outside_zero_to_eight(kind, size, tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert run(["gen", "--kind", kind, "--size", size, "--out", out]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == ("size is limited to 8\n" if size > 8 else "size must be at least 0\n")


def test_check_mf_reports_curvature(twist_file, capsys):
    assert run(["check-mf", twist_file]) == 0
    out = capsys.readouterr().out
    assert "curvature:" in out and "result: PASS" in out


def test_check_mf_zero_map(tmp_path, capsys):
    inst = tmp_path / "zero.txt"
    inst.write_text(
        "mfcert instance v1\nkind mf\nfield rationals\nvariables x\n"
        "even e0\nodd o0\nbegin map d\nparity odd\nend map\n")
    assert run(["check-mf", inst]) == 0
    out = capsys.readouterr().out
    assert "curvature: 0" in out


def test_check_mf_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("mfcert instance v1\nkind twist-family\nfield rationals\n"
                   "variables x\nr 1\nfunctions x\neven e0\nodd o0\n"
                   "begin map d\nparity odd\nblock odd<-even\nrow x $ y\n"
                   "end map\n")
    assert run(["check-mf", bad]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_file_is_usage_error(capsys):
    assert run(["check-mf", "/nonexistent/file.txt"]) == 2


@pytest.mark.parametrize("flag", ["gen --out", "lemma1 --out", "lemma1 --json-report"])
def test_a_write_that_fails_exits_2_with_its_path(flag, tmp_path, capsys):
    inst = tmp_path / "lam.txt"
    assert run(["gen", "--kind", "lambda-family", "--r", "3", "--out", inst]) == 0
    command, option = flag.split()
    target = tmp_path / "missing" / "x.txt"
    argv = ["gen", "--kind", "lambda-family"] if command == "gen" else [command, inst]
    assert run([*argv, option, target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert not target.exists()


def test_lemma2_writes_replayable_bundle(twist_file, tmp_path, capsys):
    bundle = tmp_path / "bundle.txt"
    report = tmp_path / "report.json"
    assert run(["lemma2", twist_file, "--out", bundle,
                "--json-report", report]) == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True
    assert any(c["name"] == "homotopy" for c in data["checks"])
    assert run(["verify", bundle]) == 0


def test_verify_detects_corruption(twist_file, tmp_path, capsys):
    bundle = tmp_path / "bundle.txt"
    assert run(["lemma2", twist_file, "--out", bundle]) == 0
    text = bundle.read_text()
    lines = text.splitlines()
    # flip one matrix entry inside the homotopy move
    idx = next(i for i, line in enumerate(lines)
               if line.startswith("begin move 1"))
    row = next(i for i in range(idx, len(lines))
               if lines[i].startswith("row") and lines[i] != "row 0")
    lines[row] = lines[row].replace("1", "2", 1)
    corrupted = tmp_path / "corrupted.txt"
    corrupted.write_text("\n".join(lines) + "\n")
    assert run(["verify", corrupted]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_lemma1_and_report_determinism(tmp_path, capsys):
    inst = tmp_path / "lam.txt"
    assert run(["gen", "--kind", "lambda-family", "--r", "2", "--size", "2",
                "--seed", "1", "--out", inst]) == 0
    assert run(["lemma1", inst]) == 0
    first = capsys.readouterr().out
    assert run(["lemma1", inst]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_lemma1_rejects_invalid_family(tmp_path, capsys):
    inst = tmp_path / "bad.txt"
    inst.write_text(
        "mfcert instance v1\nkind lambda-family\nfield rationals\n"
        "variables x lambda\nr 2\neven e0\nodd o0\n"
        "begin map d\nparity odd\nblock odd<-even\nrow lambda + x\n"
        "block even<-odd\nrow lambda\nend map\n")
    assert run(["lemma1", inst]) == 1
    out = capsys.readouterr().out
    assert "family-invariant: FAIL" in out


def test_remark_command(tmp_path):
    inst = tmp_path / "remark.txt"
    assert run(["gen", "--kind", "remark-family", "--size", "2", "--seed", "4",
                "--out", inst]) == 0
    bundle = tmp_path / "remark-bundle.txt"
    assert run(["remark", inst, "--out", bundle]) == 0
    assert run(["verify", bundle]) == 0


def test_slambda_command(tmp_path, capsys):
    inst = tmp_path / "tau.txt"
    assert run(["gen", "--kind", "tau-data", "--r", "3", "--size", "2",
                "--seed", "6", "--out", inst]) == 0
    assert run(["slambda", inst]) == 0
    out = capsys.readouterr().out
    assert "square-is-lambda^r: pass" in out
    assert "induced-family-chain: pass" in out


def test_sxi_command(tmp_path, capsys):
    inst = tmp_path / "ramond.txt"
    assert run(["gen", "--kind", "ramond-data", "--r", "3", "--size", "1",
                "--seed", "2", "--out", inst]) == 0
    bundle = tmp_path / "sxi-bundle.txt"
    assert run(["sxi", inst, "--out", bundle]) == 0
    out = capsys.readouterr().out
    assert "match-xi1: pass" in out and "match-xi3: pass" in out
    assert run(["verify", bundle]) == 0


def test_gen_ramond_data_refuses_a_field_without_the_roots_of_unity(tmp_path, capsys):
    # sxi twists by every r-th root of unity, so such a file could never certify
    for r, field in [(3, "Q"), (3, "cyclotomic:4"), (4, "cyclotomic:3")]:
        inst = tmp_path / f"ramond-{r}-{field}.txt"
        assert run(["gen", "--kind", "ramond-data", "--r", r, "--size", "1",
                    "--seed", "2", "--field", field, "--out", inst]) == 1
        assert not inst.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"primitive root of unity of order {r}" in err
    # the fields that hold them still generate, and the file certifies
    for r, field in [(2, "Q"), (4, "cyclotomic:4"), (3, "cyclotomic:6")]:
        inst = tmp_path / f"ramond-{r}-{field}.txt"
        assert run(["gen", "--kind", "ramond-data", "--r", r, "--size", "1",
                    "--seed", "2", "--field", field, "--out", inst]) == 0
        assert run(["sxi", inst]) == 0


def test_conelift_command(tmp_path, capsys):
    inst = tmp_path / "cone.txt"
    assert run(["gen", "--kind", "cone-lift", "--size", "2", "--seed", "8",
                "--out", inst]) == 0
    assert run(["conelift", inst]) == 0
    out = capsys.readouterr().out
    assert "restriction-equals-f: pass" in out


def koszul_cone_lift():
    """A cone-lift instance whose differentials are not zero.

    A = B = C is the Koszul complex of (x, y): basis e0 = 1, e1 = ex.ey even,
    o0 = ex, o1 = ey odd, with d(ex) = x, d(ey) = y.  g is x * id, f is the
    identity, and h = ex ^ - is a witness: d h + h d = x * id = f g.  Every
    odd slot of h meets a nonzero row or column of d, so changing any one
    entry of h breaks the identity.
    """
    from mfcert.complexes import curvature_check
    from mfcert.polynomials import PolyRing
    from mfcert.scalars import rationals
    from mfcert.serialize import ConeLiftInstance
    from mfcert.supermod import EVEN, ODD, ParityMap, SuperModule

    ring = PolyRing(rationals(), ("x", "y"))
    x, y, z, one = ring.var("x"), ring.var("y"), ring.zero, ring.one
    module = SuperModule(ring, ("e0", "e1"), ("o0", "o1"))
    k = curvature_check(module, ParityMap(module, module, ODD, [
        [z, z, x, y], [z, z, z, z], [z, -y, z, z], [z, x, z, z]]))
    assert k.is_flat() and any(row for row in k.d.rows)
    h = ParityMap(module, module, ODD, [
        [z, z, z, z], [z, z, z, one], [one, z, z, z], [z, z, z, z]])
    g = ParityMap(module, module, EVEN, [[x if i == j else z for j in range(4)]
                                         for i in range(4)])
    return ConeLiftInstance(k, k, k, g, ParityMap.identity(module), h)


def test_conelift_catches_a_witness_off_at_one_entry(tmp_path, capsys):
    from dataclasses import replace

    from mfcert.serialize import write_instance
    from mfcert.supermod import ParityMap

    inst = koszul_cone_lift()
    good = tmp_path / "good.txt"
    good.write_text(write_instance(inst))
    assert run(["conelift", good]) == 0
    assert "check homotopy-witness: pass" in capsys.readouterr().out
    h = inst.h
    odd_slots = [(i, j) for i in range(4) for j in range(4)
                 if (h.target.parity(i) - h.source.parity(j)) % 2 == h.parity]
    assert len(odd_slots) == 8
    for i, j in odd_slots:
        entries = [list(row) for row in h.entries]
        entries[i][j] = entries[i][j] + 1
        bad = tmp_path / f"bad-{i}-{j}.txt"
        bad.write_text(write_instance(replace(
            inst, h=ParityMap(h.source, h.target, h.parity, entries))))
        assert run(["conelift", bad]) == 1
        out = capsys.readouterr().out
        assert "check homotopy-witness: FAIL" in out, (i, j)
        assert "result: FAIL" in out


@pytest.fixture
def koszul_mf(tmp_path):
    path = tmp_path / "mf.txt"
    path.write_text(
        "mfcert instance v1\nkind mf\nfield rationals\nvariables x\n"
        "even e0\nodd o0\n"
        "begin map d\nparity odd\nblock odd<-even\nrow x\nend map\n")
    return path


def test_exactness_command(koszul_mf, capsys):
    assert run(["exactness", koszul_mf, "--trials", "5", "--seed", "1",
                "--zgens", "x"]) == 0
    out = capsys.readouterr().out
    assert "fiberwise-exactness: pass" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_exactness_rejects_fewer_than_one_trial(koszul_mf, capsys, trials):
    with pytest.raises(SystemExit) as exc:
        run(["exactness", koszul_mf, "--trials", trials, "--zgens", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "need at least one trial" in captured.err
    assert "result: PASS" not in captured.out


def test_zgens_threads_through_to_bundle(twist_file, tmp_path):
    bundle = tmp_path / "bundle.txt"
    assert run(["lemma2", twist_file, "--out", bundle, "--zgens", "x,y"]) == 0
    text = bundle.read_text()
    assert "zgens x, y" in text
    # slambda writes its induced lambda-family's bundle over the same locus
    tau = tmp_path / "tau.txt"
    assert run(["gen", "--kind", "tau-data", "--r", "3", "--size", "2",
                "--seed", "6", "--out", tau]) == 0
    assert run(["slambda", tau, "--out", bundle, "--zgens", "x,y"]) == 0
    assert "zgens x, y\n" in bundle.read_text()
    assert run(["verify", bundle]) == 0


@pytest.mark.parametrize("command,kind", [("check-mf", "twist-family"),
                                          ("conelift", "cone-lift")])
def test_a_command_without_a_locus_refuses_zgens(command, kind, tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert run(["gen", "--kind", kind, "--out", inst]) == 0
    assert run([command, inst]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([command, inst, "--zgens", "((("])
    assert exc.value.code == 2
    assert "unrecognized arguments: --zgens" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["(x+y+1)^100000", "x^1000000000"])
def test_huge_power_is_rejected_at_once(tmp_path, capsys, entry):
    path = tmp_path / "huge.txt"
    path.write_text(
        "mfcert instance v1\nkind mf\nfield rationals\nvariables x y\n"
        "even e0\nodd o0\n"
        f"begin map d\nparity odd\nblock odd<-even\nrow {entry}\nend map\n")
    t0 = time.perf_counter()
    assert run(["check-mf", path]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert "line 10" in err and "degree exceeds" in err


@pytest.mark.parametrize("entry", ["(x+y+z+w+1)^16", "(x+y+1)^60"])
def test_costly_expansion_is_rejected_at_once(tmp_path, capsys, entry):
    path = tmp_path / "costly.txt"
    path.write_text(
        "mfcert instance v1\nkind mf\nfield rationals\nvariables x y z w\n"
        "even e0\nodd o0\n"
        f"begin map d\nparity odd\nblock odd<-even\nrow {entry}\nend map\n")
    t0 = time.perf_counter()
    assert run(["check-mf", path]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert "line 10" in err and "term products" in err


@pytest.mark.parametrize("rows", [
    ["(1" + "0" * 60 + "*x + 1)^80", "1"],       # coefficients grow by power steps
    ["7" * 3000, "3" * 3000],                     # their product would land in d^2
], ids=["power", "numerals"])
def test_coefficient_blowup_is_rejected_at_once(tmp_path, capsys, rows):
    # at the parent both printed a 4300-digit ValueError traceback and exited 1
    path = tmp_path / "wide.txt"
    path.write_text(
        "mfcert instance v1\nkind mf\nfield rationals\nvariables x y\n"
        "even e0\nodd o0\n"
        f"begin map d\nparity odd\nblock odd<-even\nrow {rows[0]}\n"
        f"block even<-odd\nrow {rows[1]}\nend map\n")
    t0 = time.perf_counter()
    assert run(["check-mf", path]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert "line 10" in err and "exceeds 100 bits" in err
    assert "Traceback" not in err
    assert all(len(line) < 200 for line in err.splitlines())


def _first_entry_replaced(text, entry):
    """The file with the first nonzero entry of its first map row replaced."""
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith("row") and line != "row 0")
    cells = lines[i][len("row "):].split(", ")
    k = next(k for k, cell in enumerate(cells) if cell != "0")
    cells[k] = entry
    lines[i] = "row " + ", ".join(cells)
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize("kind", ["instance", "bundle"])
def test_zero_denominator_exits_2_with_its_line(tmp_path, capsys, kind):
    inst = tmp_path / "lam.txt"
    assert run(["gen", "--kind", "lambda-family", "--r", "2", "--size", "2",
                "--seed", "1", "--out", inst]) == 0
    path = inst
    if kind == "bundle":
        path = tmp_path / "bundle.txt"
        assert run(["lemma1", inst, "--out", path]) == 0
    text, line = _first_entry_replaced(path.read_text(), "1/0*lambda")
    path.write_text(text)
    capsys.readouterr()
    assert run(["verify" if kind == "bundle" else "check-mf", path]) == 2
    err = capsys.readouterr().err
    assert f"line {line}" in err and "zero denominator in '1/0'" in err


@pytest.mark.parametrize("kind", ["instance", "bundle"])
def test_huge_field_order_is_rejected_at_once(tmp_path, capsys, kind):
    inst = tmp_path / "lam.txt"
    assert run(["gen", "--kind", "lambda-family", "--r", "2", "--size", "2",
                "--seed", "1", "--out", inst]) == 0
    path = inst
    if kind == "bundle":
        path = tmp_path / "bundle.txt"
        assert run(["lemma1", inst, "--out", path]) == 0
    lines = path.read_text().splitlines()
    line = next(i for i, text in enumerate(lines) if text.startswith("field")) + 1
    lines[line - 1] = "field cyclotomic 20011"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run(["verify" if kind == "bundle" else "check-mf", path]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert f"line {line}" in err and "exceeds" in err


def test_huge_field_order_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--kind", "lambda-family", "--field", "cyclotomic:20011",
             "--out", tmp_path / "x.txt"])
    assert exc.value.code == 2
    assert "exceeds" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


# The one-command path against the whole tree: help, usage errors and what
# they parse to.  Leftover arguments are the trap: the tree reports them under
# a usage line that lists every command.
COMMAND_ARGV = [
    [], [""], ["bogus"], ["--help"], ["-h"], ["-h", "verify"], ["--", "verify", "x"],
    ["verify", "x", "--bogus"], ["verify", "--bogus", "x"], ["lemma1", "x", "y"],
    ["verify", "x", "--", "y"], ["verify", "--", "x"], ["lemma1", "--he"],
    ["gen", "--kind", "x", "--r", "99"], ["gen", "--kind", "x", "--r", "999"],
    ["gen", "--kind", "x", "--field", "bad"], ["exactness", "x", "--trials", "0"],
    ["verify"], ["verify", "x", "--json-report"], ["lemma1", "x", "--help", "--bogus"],
    *([name, "-h", "x"] for name in cli.COMMANDS),
    ["gen", "--ki", "k", "--fi", "Q", "--se", "-3"], ["check-mf", "x", "--json", "r"],
    ["lemma1", "x", "--z", "x,y", "--o", "b"], ["lemma2", "x", "--o", "b"],
    ["remark", "x", "--j", "r"], ["slambda", "x", "--zg", "x"], ["sxi", "x", "--ou", "b"],
    ["conelift", "x", "--zg", "x"], ["verify", "x", "--js", "r"],
    ["exactness", "x", "--tr", "3", "--se", "2", "--z", "x"],
]


def _outcome(parse, argv, capsys):
    """What ``parse(argv)`` returns or its exit code, and what it printed."""
    try:
        result, code = parse(argv), None
    except SystemExit as exc:
        result, code = None, exc.code
    out, err = capsys.readouterr()
    return result, code, out, err


@pytest.mark.parametrize("argv", COMMAND_ARGV, ids=" ".join)
def test_one_command_parses_and_fails_as_the_whole_tree(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    tree = _outcome(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    if tree[1] is None:
        assert _outcome(cli.parse_args, argv, capsys) == tree
    else:
        assert _outcome(main, argv, capsys) == tree


def test_a_command_builds_only_its_own_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    inst, bundle = tmp_path / "lam.txt", tmp_path / "bundle.txt"
    assert run(["gen", "--kind", "lambda-family", "--size", "1", "--out", inst]) == 0
    for argv in (["lemma1", inst, "--out", bundle], ["verify", bundle]):
        built.clear()
        assert run(argv) == 0
        assert built == [f"mfcert {argv[0]}"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert len(built) == 1 + len(cli.COMMANDS)
