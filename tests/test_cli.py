"""Command-line interface: verbs, formats, exit codes."""

import json

import pytest

from zrelalg.cli import build_parser, format_label, main, parse_label
from zrelalg.dalg import AlgebraElement, basis, dim_formula
from zrelalg.errors import UsageError
from zrelalg.ring import poly_matrix_from_csv
from zrelalg.repn import cell_module
from zrelalg.tabular import CellLabel, cellular_basis
from zrelalg.zpart import ZStablePartition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_sampled_k2(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "z2rel", "--k", "2",
                       "--suite", "tabular", "--samples", "25", "--seed", "3")
    assert code == 0
    assert json.loads(out)["checked"] == 25


def test_gram_csv(tmp_path, capsys):
    path = tmp_path / "gram.csv"
    code, out, _ = run(capsys, "gram", "--algebra", "z2rel", "--k", "1",
                       "--label", "0,0,0,-,-,-", "--out", str(path))
    assert code == 0
    m = poly_matrix_from_csv(path.read_text())
    assert m.nrows == m.ncols == 2
    assert str(m.entries[0][0]) == "x^2"


def test_irreducibles_table(capsys):
    code, out, _ = run(capsys, "irreducibles", "--algebra", "signed",
                       "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["label", "dim_W", "dim_D", "nonzero"]
    assert len(lines) == 4
    code, out, _ = run(capsys, "irreducibles", "--algebra", "z2rel",
                       "--k", "1", "--char", "3", "--x", "1")
    assert code == 0
    assert "p_restricted" in out.splitlines()[0]


@pytest.mark.slow
def test_signed_k3_cells_and_point_table(capsys):
    cb = cellular_basis("signed", 3)
    dims = [cell_module(label, "signed", 3).dim for label in cb.labels()]
    assert sum(d * d for d in dims) == dim_formula("signed", 3) == 5055
    code, out, _ = run(capsys, "irreducibles", "--algebra", "signed",
                       "--k", "3", "--char", "2147483647", "--x", "12345")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert sorted(int(r.split()[1]) for r in rows) == sorted(dims)


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


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "dim", "--algebra", "bogus", "--k", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "mul", "--k", "1", "/no/such/file", "/none")[0] == 2
    assert run(capsys, "gram", "--algebra", "z2rel", "--k", "1",
               "--label", "banana")[0] == 2
    for extra in (["--char", "4", "--x", "1"], ["--char", "abc"],
                  ["--char", "2", "--x", "1"], ["--x", "foo"],
                  ["--x", "1/0"], ["--char", "3", "--x", "1/3"],
                  ["--char", "3"]):
        assert run(capsys, "irreducibles", "--algebra", "z2rel", "--k", "1",
                   *extra)[0] == 2


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["dim", "--algebra", "z2rel", "--k", "1"])
    assert args.verb == "dim"
