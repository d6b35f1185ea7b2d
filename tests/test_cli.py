"""Command-line interface: verbs, formats, exit codes."""

import importlib.util
import itertools
import json
import os
import subprocess
import sys
import time
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import zrelalg
from zrelalg import cli, dalg, tabular
from zrelalg.cli import build_parser, format_label, main, parse_label
from zrelalg.dalg import ALGEBRAS, AlgebraElement, basis, dim_formula
from zrelalg.errors import UsageError
from zrelalg.ring import Poly
from zrelalg.repn import cell_module, gram, irreducible_table
from zrelalg.tabular import CellLabel, cellular_basis
from zrelalg.zpart import ZStablePartition

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_script(name, *argv):
    env = dict(os.environ,
               PYTHONPATH=str(Path(zrelalg.__file__).parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, env=env)


def run_cli(*argv):
    """``python -m zrelalg.cli`` in a fresh process, so that a traceback
    would show on stderr."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(zrelalg.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "zrelalg.cli", *argv],
                          capture_output=True, text=True, env=env)


def assert_usage_error(done):
    assert done.returncode == 2, done.stderr
    assert "error:" in done.stderr and "Traceback" not in done.stderr


def test_dim_formula_and_enumerate(capsys):
    code, out, _ = run(capsys, "dim", "--algebra", "z2rel", "--k", "2")
    assert code == 0 and out.strip() == "164"
    code, out, _ = run(capsys, "dim", "--algebra", "signed", "--k", "2",
                       "--method", "enumerate")
    assert code == 0 and out.strip() == "85"
    code, out, _ = run(capsys, "dim", "--algebra", "signed", "--k", "3")
    assert code == 0 and out.strip() == "5055"


def test_basis_json_lines(capsys):
    code, out, _ = run(capsys, "basis", "--algebra", "partition", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    diagrams = [ZStablePartition.from_json(json.loads(l)) for l in lines]
    assert diagrams == basis("partition", 1)


def test_basis_out_file(tmp_path, capsys):
    path = tmp_path / "basis.jsonl"
    code, out, _ = run(capsys, "basis", "--algebra", "signed", "--k", "1",
                       "--out", str(path))
    assert code == 0 and out == ""
    assert len(path.read_text().strip().splitlines()) == 3


def test_mul_verb(tmp_path, capsys):
    d1, d2 = basis("z2rel", 1)[0], basis("z2rel", 1)[3]
    a = AlgebraElement.of("z2rel", d1)
    b = AlgebraElement.of("z2rel", d2)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.to_json()))
    pb.write_text(json.dumps(b.to_json()))
    code, out, _ = run(capsys, "mul", "--k", "1", str(pa), str(pb))
    assert code == 0
    assert AlgebraElement.from_json(json.loads(out)) == a * b


def test_mul_size_mismatch_is_usage_error(tmp_path, capsys):
    a = AlgebraElement.identity("z2rel", 1)
    pa = tmp_path / "a.json"
    pa.write_text(json.dumps(a.to_json()))
    code, _, err = run(capsys, "mul", "--k", "2", str(pa), str(pa))
    assert code == 2 and "error" in err


def test_decompose_verb(tmp_path, capsys):
    d = basis("z2rel", 2)[10]
    p = tmp_path / "d.json"
    p.write_text(json.dumps(d.to_json()))
    code, out, _ = run(capsys, "decompose", "--k", "2", str(p))
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"top", "bottom", "group"}
    assert set(obj["group"]) == {"f", "sigma1", "sigma2"}


@pytest.mark.parametrize("suite", ["assoc", "roundtrip", "tabular",
                                   "cellular", "gram-oracle"])
def test_verify_suites_pass_k1(suite, capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "signed", "--k", "1",
                       "--suite", suite)
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == []
    assert report["checked"] > 0
    assert "elapsed_ms" in report


def test_verify_elapsed_ms_ignores_wall_clock_steps(monkeypatch, capsys):
    # a wall clock stepping backwards must not give a negative time
    clock = itertools.count(10 ** 6, -1)
    monkeypatch.setattr(cli.time, "time", lambda: next(clock))
    code, out, _ = run(capsys, "verify", "--algebra", "signed", "--k", "1",
                       "--suite", "roundtrip")
    assert code == 0
    assert json.loads(out)["elapsed_ms"] >= 0


def test_verify_sampled_k2(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "z2rel", "--k", "2",
                       "--suite", "tabular", "--samples", "25", "--seed", "3")
    assert code == 0
    assert json.loads(out)["checked"] == 25


def test_samples_must_be_positive(capsys):
    for samples in ("-5", "0", "abc"):
        code, out, err = run(capsys, "verify", "--algebra", "z2rel", "--k",
                             "2", "--suite", "assoc", "--samples", samples)
        assert code == 2 and out == "" and "--samples" in err
    done = run_script("verification_sweep.py", "--samples", "-3")
    assert done.returncode == 2 and "checked" not in done.stdout


def _patch_everywhere(monkeypatch, fn, replacement):
    """Replace fn in every zrelalg module that holds it by some name."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("zrelalg"):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, replacement)


def test_cellular_basis_builds_no_element(monkeypatch):
    """The basis is a view over M and the layers: building it, a Gram
    matrix and an at-a-point table reconstructs no diagram and enumerates
    no basis."""
    def boom(*args):
        raise AssertionError("called")

    _patch_everywhere(monkeypatch, tabular.reconstruct, boom)
    _patch_everywhere(monkeypatch, dalg.basis, boom)
    cellular_basis.cache_clear()
    try:
        cbs = {algebra: cellular_basis(algebra, 3) for algebra in ALGEBRAS}
        label = cbs["signed"].labels()[5]
        assert gram(label, "signed", 3).nrows == len(
            cbs["signed"].left_data(label))
        rows = irreducible_table("partition", 3, char=0,
                                 x_value=Fraction(5))
        assert sum(r["dim_W"] ** 2 for r in rows) == 203
    finally:
        cellular_basis.cache_clear()


def test_verify_cellular_catches_a_non_bijection(monkeypatch, capsys):
    """Two triples reconstructing to one diagram fail the cellular suite."""
    reconstruct = tabular.reconstruct
    first, second = basis("z2rel", 1)[:2]

    def clash(*args):
        d = reconstruct(*args)
        return first if d == second else d

    _patch_everywhere(monkeypatch, reconstruct, clash)
    code, out, _ = run(capsys, "verify", "--algebra", "z2rel", "--k", "1",
                       "--suite", "cellular")
    assert code == 1
    assert any("cellular basis" in f for f in json.loads(out)["failures"])


def test_gram_csv(tmp_path, capsys):
    path = tmp_path / "gram.csv"
    code, out, _ = run(capsys, "gram", "--algebra", "z2rel", "--k", "1",
                       "--label", "0,0,0,-,-,-", "--out", str(path))
    assert code == 0
    rows = [json.loads("[%s]" % line)
            for line in path.read_text().splitlines()]
    assert len(rows) == 2 and [len(row) for row in rows] == [2, 2]
    assert str(Poly.parse(rows[0][0])) == "x^2"


def test_irreducibles_table(capsys):
    code, out, _ = run(capsys, "irreducibles", "--algebra", "signed",
                       "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["label", "dim_W", "dim_D", "nonzero", "det"]
    assert len(lines) == 4
    code, out, _ = run(capsys, "irreducibles", "--algebra", "z2rel",
                       "--k", "1", "--char", "3", "--x", "1")
    assert code == 0
    assert "p_restricted" in out.splitlines()[0]


@pytest.mark.slow
@pytest.mark.parametrize("algebra", ["signed", "z2rel"])
def test_k3_cells_and_point_table(algebra, capsys):
    cb = cellular_basis(algebra, 3)
    dims = [cell_module(label, algebra, 3).dim for label in cb.labels()]
    assert sum(d * d for d in dims) == dim_formula(algebra, 3) == {
        "signed": 5055, "z2rel": 6841}[algebra]
    code, out, _ = run(capsys, "irreducibles", "--algebra", algebra,
                       "--k", "3", "--char", "2147483647", "--x", "12345")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert sorted(int(r.split()[1]) for r in rows) == sorted(dims)


@pytest.mark.slow
@pytest.mark.parametrize("algebra, dim", [("z2rel", 6841), ("signed", 5055)])
def test_k3_symbolic_table(algebra, dim, capsys):
    code, out, _ = run(capsys, "irreducibles", "--algebra", algebra,
                       "--k", "3")
    assert code == 0
    rows = [r.split() for r in out.strip().splitlines()[1:]]
    assert sum(int(r[1]) ** 2 for r in rows) == dim
    assert all(r[1] == r[2] for r in rows)


@pytest.mark.slow
@pytest.mark.parametrize("algebra, cells, dim, crc",
                         [("signed", 55, 378732, "6ab6b8f3"),
                          ("z2rel", 86, 428131, "58e2632d")],
                         ids=["signed", "z2rel"])
def test_k4_point_table(algebra, cells, dim, crc, capsys):
    # k = 4 at a point, both algebras through the Murphy basis of layer
    # (4, 0); n reaches 244 (signed); the CRC pins the whole table
    code, out, _ = run(capsys, "irreducibles", "--algebra", algebra, "--k",
                       "4", "--char", "2147483647", "--x", "12345")
    assert code == 0
    rows = [r.split() for r in out.strip().splitlines()[1:]]
    assert len(rows) == cells
    assert sum(int(r[1]) ** 2 for r in rows) == dim_formula(algebra, 4)
    assert dim_formula(algebra, 4) == dim
    assert "%08x" % zlib.crc32(out.encode()) == crc


# scripts/output_digest.py on the tree whose outputs every refactor keeps;
# a change that means to alter a family updates its line here and says why
DIGEST = """\
gram-csv         bb85a7a0 100
irreducibles     f628ee4d 38
rank-det-field   b4bc8b2f 233
nullspace-field  9e70454e 233
murphy-coords    ddc720be 92
struct-const     25801725 92
murphy-records   15019b8b 92
symbolic-det     19787bfd 100
phi              71cebe17 7188
glue             076e1aba 7188
compose          a975269a 40408
decompose        82dc681a 12375
star-reconstruct 66118c20 12375
classes          bba3014f 7052
"""


@pytest.mark.slow
def test_output_digest_is_pinned():
    done = run_script("output_digest.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == DIGEST


def test_char_above_2_53(capsys):
    # 2^61 - 1 is prime; trial division up to its square root never ended
    code, out, _ = run(capsys, "irreducibles", "--algebra", "z2rel", "--k",
                       "1", "--char", str(2 ** 61 - 1), "--x", "1")
    assert code == 0 and len(out.strip().splitlines()) == 5


@pytest.mark.slow
@pytest.mark.parametrize("algebra, checked",
                         [("signed", 308), ("z2rel", 406), ("partition", 86)])
def test_k3_gram_oracle_sampled(algebra, checked, capsys):
    code, out, _ = run(capsys, "verify", "--algebra", algebra, "--k", "3",
                       "--suite", "gram-oracle", "--samples", "20")
    assert code == 0
    assert json.loads(out)["checked"] == checked


def test_label_parsing_roundtrip():
    for algebra, text in [("z2rel", "0,0,0,-,-,-"),
                          ("z2rel", "3,1,1,1,-,1"),
                          ("signed", "4,2,0,1.1,-,-"),
                          ("partition", "2,1,0,1,-,-")]:
        label = parse_label(text, algebra)
        assert format_label(label) == text
    assert parse_label("2,1,0,1,-,-", "partition") == CellLabel(1, 0, (1,))


def test_label_parsing_rejects_bad_input():
    for algebra, text in [("z2rel", "1,0,0,-,-,-"),       # r mismatch
                          ("z2rel", "2,1,0,2,-,-"),       # shape size
                          ("z2rel", "a,b,c,-,-,-"),
                          ("z2rel", "0,0,0,-,-"),
                          ("partition", "1,0,1,-,-,1")]:
        with pytest.raises(UsageError):
            parse_label(text, algebra)


def _with_coeffs(coeffs):
    """The z2rel k = 1 identity as an operand file, its one coefficient
    replaced by the given JSON coefficients."""
    obj = AlgebraElement.identity("z2rel", 1).to_json()
    obj["terms"][0]["coeff"]["coeffs"] = coeffs
    return json.dumps(obj)


def _twice():
    """The z2rel k = 1 identity as an operand file listing its diagram in
    two terms, the second with its blocks in reverse order."""
    obj = AlgebraElement.identity("z2rel", 1).to_json()
    (term,) = obj["terms"]
    diagram = dict(term["diagram"], blocks=term["diagram"]["blocks"][::-1])
    obj["terms"].append({"coeff": term["coeff"], "diagram": diagram})
    return json.dumps(obj)


def _with_vertex(old, new, element):
    """The z2rel k = 1 identity, as an operand file (``element``) or as a
    bare diagram, with the vertex ``old`` written as the JSON value
    ``new``."""
    obj = AlgebraElement.identity("z2rel", 1).to_json()
    diagram = obj["terms"][0]["diagram"]
    diagram["blocks"] = [[new if vertex == old else vertex for vertex in block]
                         for block in diagram["blocks"]]
    return json.dumps(obj if element else diagram)


def _with_vertex_name(old, new, element):
    """The z2rel k = 1 identity, as an operand file (``element``) or as a
    bare diagram, with vertex name ``old`` written ``new``."""
    obj = AlgebraElement.identity("z2rel", 1).to_json()
    diagram = obj["terms"][0]["diagram"]
    for block in diagram["blocks"]:
        for vertex in block:
            if vertex[0] == old:
                vertex[0] = new
    return json.dumps(obj if element else diagram)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(capsys, "dim", "--algebra", "bogus", "--k", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "mul", "--k", "1", "/no/such/file", "/none")[0] == 2
    assert run(capsys, "gram", "--algebra", "z2rel", "--k", "1",
               "--label", "banana")[0] == 2
    for extra in (["--char", "4", "--x", "1"], ["--char", "abc"],
                  ["--char", "2", "--x", "1"], ["--x", "foo"],
                  ["--x", "1/0"], ["--char", "3", "--x", "1/3"],
                  ["--char", "3"],
                  ["--char", str(10 ** 400 + 1), "--x", "1"],
                  ["--char", "318665857834031151167461", "--x", "1"]):
        assert run(capsys, "irreducibles", "--algebra", "z2rel", "--k", "1",
                   *extra)[0] == 2
    good = tmp_path / "good.json"
    good.write_text(json.dumps(AlgebraElement.identity("z2rel", 1).to_json()))
    bad = []
    for name, text in [("text.json", "not json"),
                       ("keys.json", '{"algebra": "z2rel"}'),
                       ("shape.json", "[]"),
                       ("vertex.json",
                        '{"k": 1, "rows": 2, "blocks": [[[1, "e"]]]}'),
                      ("zero-denominator.json", _with_coeffs({"0": "1/0"})),
                      ("laurent.json", _with_coeffs({"-1": "1"})),
                      ("float.json", _with_coeffs({"0": 0.1})),
                      ("bool.json", _with_coeffs({"0": True})),
                      # int and Fraction read "01" as degree 1 (dropping
                      # the 2x), "1_0" as 10, and " 3" and an Arabic-Indic 3
                      ("same-degree.json",
                       _with_coeffs({"1": "2", "01": "3"})),
                      ("degree-underscore.json", _with_coeffs({"1_0": "1"})),
                      ("coeff-underscore.json", _with_coeffs({"0": "1_5"})),
                      ("coeff-space.json", _with_coeffs({"0": " 3"})),
                      ("coeff-arabic.json", _with_coeffs({"0": "\u0663"})),
                      # the coefficients were summed: the square read 4
                      ("repeated-diagram.json", _twice())] + [
            ("name-%d-%s.json" % (n, form),
             _with_vertex_name(old, new, form == "element"))
            for n, (old, new) in enumerate([("1'", "1''"), ("1", " +1"),
                                            ("1", "1_0"), ("1", "0_1"),
                                            ("1", "\uff11"), ("1'", "'")])
            for form in ("element", "diagram")] + [
            # both unpacked into ("1", "e") and were read as vertex 1e
            ("vertex-%d-%s.json" % (n, form),
             _with_vertex(["1", "e"], new, form == "element"))
            for n, new in enumerate(["1e", {"1": 0, "e": 0}])
            for form in ("element", "diagram")]:
        bad.append(tmp_path / name)
        bad[-1].write_text(text)
    for operand in bad + [tmp_path]:
        for argv in (["mul", "--k", "1", str(operand), str(good)],
                     ["decompose", "--k", "1", str(operand)]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "basis", "--algebra", "z2rel", "--k", "1",
                       "--out", str(tmp_path))
    assert code == 2 and err.startswith("error:")


def test_empty_block_is_usage_error(tmp_path):
    diagram = {"k": 1, "rows": 2,
               "blocks": [[], [["1", "e"], ["1'", "e"]],
                          [["1", "g"], ["1'", "g"]]]}
    element = AlgebraElement.identity("z2rel", 1).to_json()
    element["terms"][0]["diagram"] = diagram
    d = tmp_path / "d.json"
    d.write_text(json.dumps(diagram))
    a = tmp_path / "a.json"
    a.write_text(json.dumps(element))
    for argv in (["decompose", "--k", "1", str(d)],
                 ["mul", "--k", "1", str(a), str(a)]):
        done = run_cli(*argv)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:")
        assert "empty block" in done.stderr and "Traceback" not in done.stderr


def test_huge_size_is_usage_error(tmp_path):
    # two vertices against 2k*rows = 4 * 10^5: rejected by the count, before
    # anything of that size is built
    element = AlgebraElement.identity("z2rel", 1).to_json()
    element["terms"][0]["diagram"] = {
        "k": 10 ** 5, "rows": 2, "blocks": [[["1", "e"]], [["1", "g"]]]}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(element))
    done = run_cli("mul", "--k", "1", str(a), str(a))
    assert_usage_error(done)
    assert "coverage violation" in done.stderr


@pytest.mark.parametrize("verb", ["mul", "decompose"])
def test_deeply_nested_operand_is_usage_error(tmp_path, verb):
    # json.load raised RecursionError, which escaped as a traceback, exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    argv = [verb, "--k", "1", str(deep)]
    if verb == "mul":
        argv.append(str(deep))
    assert_usage_error(run_cli(*argv))


@pytest.mark.parametrize("where, key, value", [
    ("element", "k", 1.9), ("element", "k", True),
    ("diagram", "k", 1.9), ("diagram", "rows", 2.2),
    ("diagram", "k", True), ("diagram", "rows", " 2")] + [
    (where, "k", value) for where in ("element", "diagram")
    for value in ("0_1", " +1", "\uff11", "1_0")])
def test_non_integer_size_is_usage_error(tmp_path, where, key, value):
    # int() read k = 1.9 as 1 and rows = 2.2 as 2, and the strings "0_1",
    # " +1" and a full-width 1 as 1, so mul exited 0
    element = AlgebraElement.identity("z2rel", 1).to_json()
    diagram = element["terms"][0]["diagram"]
    (element if where == "element" else diagram)[key] = value
    d = tmp_path / "d.json"
    d.write_text(json.dumps(diagram))
    a = tmp_path / "a.json"
    a.write_text(json.dumps(element))
    argvs = [["mul", "--k", "1", str(a), str(a)]]
    if where == "diagram":
        argvs.append(["decompose", "--k", "1", str(d)])
    for argv in argvs:
        done = run_cli(*argv)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:")
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("label", ["2,0_1,0,1,-,-", "\uff12,1,0,1,-,-",
                                   "2,+1,0,1,-,-", "2, 1,0,1,-,-",
                                   "2,1,0,\uff11,-,-", "2,1,0,+1,-,-"])
def test_label_fields_are_ascii_digits(label):
    # int() read "0_1", "+1", " 1" and full-width digits, so gram exited 0
    assert_usage_error(run_cli("gram", "--algebra", "signed", "--k", "2",
                               "--label", label))


@pytest.mark.parametrize("argv", [
    ["dim", "--algebra", "z2rel", "--k", k] for k in
    (" 1", "0_1", "+1", "\uff11", "1 ", "-1")] + [
    ["irreducibles", "--algebra", "z2rel", "--k", "1", "--x", "1",
     "--char", c] for c in (" 3", "+3", "0_3", "\uff13")] + [
    ["verify", "--algebra", "z2rel", "--k", "1", "--suite", "tabular",
     "--samples", n] for n in (" 3", "+3", "0_3", "\uff13", "0")] + [
    ["verify", "--algebra", "z2rel", "--k", "1", "--suite", "tabular",
     "--seed", " 3"],
    ["decompose", "--k", "+1", "d.json"], ["mul", "--k", " 1", "a", "b"]])
def test_integer_options_are_ascii_digits(argv):
    # int() read " 1", "0_1", "+1" and full-width digits, so these exited 0
    done = run_cli(*argv)
    assert_usage_error(done)
    option = next(a for a in reversed(argv) if a.startswith("--"))
    assert "argument %s:" % option in done.stderr    # the bad option last


@pytest.mark.parametrize("script, argv", [
    ("irreducible_report.py", ["--k", " 1"]),
    ("irreducible_report.py", ["--k", "1", "--char", "+3"]),
    ("verification_sweep.py", ["--max-k", "0_1"]),
    ("verification_sweep.py", ["--max-k", "0"]),
    ("verification_sweep.py", ["--max-k", "1", "--seed", " 2"]),
    ("dimension_table.py", ["--max-k", " 1"]),
    ("dimension_table.py", ["--max-k", "1", "--check-k", "+1"])])
def test_script_integer_options_are_ascii_digits(script, argv):
    # the scripts read these with int(), so " 1" and "+3" exited 0
    done = run_script(script, *argv)
    assert_usage_error(done)
    assert "argument %s:" % argv[-2] in done.stderr


@pytest.mark.parametrize("x", ["1_0", " 1", "1 ", "\t1/2", "\uff11",
                               "1\u00a0"])
def test_point_is_ascii_without_separators(x):
    # Fraction() read "1_0" as 10 and skipped spaces, so these exited 0
    assert_usage_error(run_cli("irreducibles", "--algebra", "z2rel", "--k",
                               "1", "--x", x))
    assert_usage_error(run_script("irreducible_report.py", "--k", "1",
                                  "--points", "0," + x))
    assert cli._rational("-1/2") == Fraction(-1, 2)
    assert cli._rational("3") == 3


@pytest.mark.parametrize("argv", [["--points", "foo"], ["--char", "4"],
                                  ["--char", "3", "--points", "1/3"]])
def test_irreducible_report_usage_errors(argv):
    done = run_script("irreducible_report.py", "--k", "1", *argv)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "error:" in done.stderr


def test_verification_sweep_times_are_monotonic(monkeypatch, capsys):
    """The sweep times its suites with a monotonic clock: a wall clock
    stepping backwards does not show as a negative time."""
    spec = importlib.util.spec_from_file_location(
        "verification_sweep", SCRIPTS / "verification_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    wall = itertools.count(1e9, -60.0)
    monkeypatch.setattr(time, "time", lambda: next(wall))
    assert sweep.run(1, 5, 0) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(ALGEBRAS) * len(cli._SUITES)
    assert all(float(line.split()[-1].rstrip("s")) >= 0 for line in lines)


def test_negative_point_in_equals_form(capsys):
    # argparse reads a separate "-1/2" as an option, hence the = form
    argv = ["irreducibles", "--algebra", "z2rel", "--k", "1"]
    assert run(capsys, *argv, "--x", "-1/2")[0] == 2
    code, out, _ = run(capsys, *argv, "--x=-1/2")
    assert code == 0 and len(out.strip().splitlines()) == 5
    done = run_script("irreducible_report.py", "--k", "1",
                      "--points=-1/2,0")
    assert done.returncode == 0 and "x=-1/2" in done.stdout


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["dim", "--algebra", "z2rel", "--k", "1"])
    assert args.verb == "dim"
