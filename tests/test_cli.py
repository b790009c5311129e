from pathlib import Path

import pytest

from futs import cli
from futs.cli import main
from futs.textio import parse_system

from conftest import DATA, nat_chain_text

FIG1 = str(DATA / "fig1.futs")
W3 = str(DATA / "w3.futs")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bisim_fig1(capsys):
    code, out, _ = run(capsys, "bisim", FIG1)
    assert code == 0
    assert out.strip() == "{ {s0}, {s1}, {s2}, {s3} }"


def test_bisim_w3_and_quotient(capsys, tmp_path, w3):
    quot = tmp_path / "q.futs"
    code, out, _ = run(capsys, "bisim", W3, "--quotient", str(quot))
    assert code == 0
    assert out.strip() == "{ {x, x'}, {y, z} }"
    q = parse_system(quot.read_text())
    assert q.states == ("x", "y")


def test_bisim_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.futs"
    bad.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
                   "states { x }\ntrans 0 x zzz -> { x: 1 }\n")
    code, out, err = run(capsys, "bisim", str(bad))
    assert code == 2
    assert "unknown label" in err and out == ""


def test_reduce_to_wts_golden(capsys, tmp_path):
    out_file = tmp_path / "out.futs"
    map_file = tmp_path / "out.map"
    code, _, _ = run(capsys, "reduce", FIG1, "--to", "wts",
                     "-o", str(out_file), "--map", str(map_file))
    assert code == 0
    golden = Path(__file__).parent / "golden" / "fig1_wts.futs"
    assert out_file.read_text() == golden.read_text()
    lines = map_file.read_text().strip().split("\n")
    assert lines == ["s0 -> s0", "s1 -> s1", "s2 -> s2", "s3 -> s3"]


def test_reduce_wlts_keeps_state_count(capsys, tmp_path):
    out_file = tmp_path / "out.futs"
    code, _, _ = run(capsys, "reduce", W3, "--to", "wts", "-o", str(out_file))
    assert code == 0
    assert len(parse_system(out_file.read_text()).states) == 4


def test_reduce_nested_precondition(capsys, tmp_path):
    code, _, err = run(capsys, "reduce", FIG1, "--to", "nested",
                       "-o", str(tmp_path / "x.futs"))
    assert code == 2
    assert "tabular homogeneous" in err


def test_check_table(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--formula", "<0|b|tt, 1/2> T")
    assert code == 0
    assert out.splitlines() == ["s0: false", "s1: true", "s2: false", "s3: false"]


def test_check_top_everywhere(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--formula", "T")
    assert code == 0
    assert all(line.endswith("true") for line in out.splitlines())


def test_check_single_state_exit(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--formula",
                       "<0|a|tt,1/2> <0|b|tt,1/2> T", "--state", "s2")
    assert code == 1
    assert out.strip() == "s2: false"


def test_check_formula_file(capsys, tmp_path):
    f = tmp_path / "props.fcl"
    f.write_text("<0|b|tt, 1/2> T\n")
    code, out, _ = run(capsys, "check", FIG1, "--formula-file", str(f))
    assert code == 0 and "s1: true" in out


def test_check_formula_file_multiple(capsys, tmp_path):
    f = tmp_path / "props.fcl"
    f.write_text("<0|b|tt, 1/2> T\nT\n")
    code, out, _ = run(capsys, "check", FIG1, "--formula-file", str(f),
                       "--state", "s0")
    assert code == 1  # first formula is false at s0
    assert out.count("formula:") == 2


# the deeper case runs on a short chain beside a cycle; see test_logic.DEEP_CASES
@pytest.mark.parametrize("depth, chain, ring", [pytest.param(600, 620, 0, id="600"),
                                                pytest.param(5000, 20, 3, id="5000")])
def test_check_deep_formula(capsys, tmp_path, depth, chain, ring):
    path = tmp_path / "chain.futs"
    path.write_text(nat_chain_text(chain, ring))
    formula = "<1> " * depth + "T"
    holds = {f"c{k}": k < chain - depth for k in range(chain)} | {f"r{k}": True for k in range(ring)}
    code, out, _ = run(capsys, "check", str(path), "--formula", formula)
    assert code == 0
    assert out == "".join(f"{x}: {'true' if v else 'false'}\n" for x, v in sorted(holds.items()))
    code, out, _ = run(capsys, "check", str(path), "--formula", formula, "--state", "c0")
    assert (code, out) == ((0, "c0: true\n") if holds["c0"] else (1, "c0: false\n"))


def test_translate_deep_formula(capsys, tmp_path):
    path = tmp_path / "chain.futs"
    path.write_text(nat_chain_text(20))
    code, out, err = run(capsys, "translate", "--formula", "<1> " * 5000 + "T",
                         "--sig", str(path), "--to", "wts")
    assert (code, out, err) == (0, "<({ a: 1 })> " * 5000 + "T\n", "")


def test_check_malformed_formula(capsys):
    code, _, err = run(capsys, "check", FIG1, "--formula", "<0|b|tt> T")
    assert code == 2 and "bounds" in err


def test_equiv_bisimilar(capsys):
    code, out, _ = run(capsys, "equiv", W3, "x", "x'")
    assert code == 0 and "bisimilar" in out


def test_equiv_same_state(capsys):
    code, _, _ = run(capsys, "equiv", W3, "y", "y")
    assert code == 0


def test_equiv_logic_distinguished(capsys):
    code, out, _ = run(capsys, "equiv", FIG1, "s0", "s2", "--logic")
    assert code == 1
    assert "distinguished" in out and "distinguishing formula" in out
    assert "reduced weighted system" in out


def test_equiv_unknown_state(capsys):
    code, _, err = run(capsys, "equiv", W3, "x", "nope")
    assert code == 2 and "unknown state" in err


def test_verify_fig1(capsys):
    code, out, _ = run(capsys, "verify", FIG1, "--to", "wts", "--exhaustive")
    assert code == 0
    assert out.strip() == "15/15 relations checked, 1 bisimulations, 0 violations"


def test_verify_w3_unlabelled(capsys):
    code, out, _ = run(capsys, "verify", W3, "--to", "unlabelled", "--exhaustive")
    assert code == 0 and out.startswith("15/15")


def test_verify_exhaustive_refused_for_big_input(capsys, tmp_path):
    big = tmp_path / "big.futs"
    states = ", ".join(f"s{i}" for i in range(6))
    big.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
                   f"states {{ {states} }}\n")
    code, _, err = run(capsys, "verify", str(big), "--to", "wts", "--exhaustive")
    assert code == 2 and "drop the flag" in err


def test_translate_unlabelled(capsys):
    code, out, _ = run(capsys, "translate", "--formula", "<0|a|tt,1/2> T",
                       "--sig", FIG1, "--to", "unlabelled")
    assert code == 0
    assert out.strip() == "<{ a: tt }, 1/2> T"


def test_translate_top(capsys):
    code, out, _ = run(capsys, "translate", "--formula", "T",
                       "--sig", FIG1, "--to", "tabular")
    assert code == 0 and out.strip() == "T"


def test_translate_composite(capsys):
    code, out, _ = run(capsys, "translate", "--formula", "<0|b|tt,1/2> T",
                       "--sig", FIG1, "--to", "wts")
    assert code == 0
    # a chain of unary diamonds over the reduced signature
    assert out.count("<") == 2 and "b: tt" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "bisim", "no-such-file.futs")
    assert code == 2 and "error" in err


def test_usage_error(capsys):
    assert main(["reduce", FIG1]) == 2  # missing --to/-o


@pytest.mark.parametrize("exc", [RuntimeError("boom\nsecond line"),
                                 RecursionError("maximum recursion depth exceeded")])
def test_internal_error_exit_3(capsys, monkeypatch, exc):
    def failing(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_bisim", failing)
    code, out, err = run(capsys, "bisim", FIG1)
    assert code == 3 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {str(exc).replace(chr(10), ' ')}\n"


def test_trans_line_without_monoids_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.futs"
    bad.write_text("futs\nlabels A0 = { a }\nstates { x }\ntrans 0 x a -> { x: 1 }\n")
    code, out, err = run(capsys, "bisim", str(bad))
    assert (code, out, err) == (2, "", "4:7: error: missing monoids line for component 0\n")


def test_overlong_weight_exit_2(capsys, tmp_path):
    bad = tmp_path / "long.futs"
    bad.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { x }\n"
                   f"trans 0 x a -> {{ x: {'9' * 5000} }}\n")
    code, out, err = run(capsys, "bisim", str(bad))
    assert (code, out, err) == (2, "", "5:21: error: number too long (5000 digits)\n")


def test_overlong_quotient_weight_exit_2(capsys, tmp_path):
    """Two 4300-digit weights into bisimilar states sum to a 4301-digit
    quotient weight, too long to write: no partition, no file, exit 2."""
    src, quot = tmp_path / "sum.futs", tmp_path / "q.futs"
    big = "9" * 4300
    src.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { x, y, z }\n"
                   f"trans 0 x a -> {{ y: {big}, z: {big} }}\n")
    code, out, err = run(capsys, "bisim", str(src), "--quotient", str(quot))
    assert (code, out) == (2, "") and not quot.exists()
    assert err == "error: trans 0 x a: a weight has more than 4300 digits, too many to write\n"
