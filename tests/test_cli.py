import io
import sys
from collections import Counter
from pathlib import Path

import pytest

import futs.logic
from futs import cli
from futs.cli import main
from futs.bisim import Partition, largest_bisimulation
from futs.logic import sat_set, witness_formula
from futs.reduce import to_wts
from futs.textio import MAX_NESTING, parse_formula, parse_system, write_system

import logic_oracle
from conftest import DATA, nat_chain_text, restrict

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
    assert out.strip() == "{ {x, `x'`}, {y, z} }"  # x' is no plain identifier
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


def test_check_formula_file_of_blank_lines(capsys, tmp_path):
    f = tmp_path / "blank.fcl"
    f.write_text("\n  \n\t\n")
    assert run(capsys, "check", FIG1, "--formula-file", str(f)) == (
        2, "", "error: no formulas in file\n")


def test_check_formula_file_multiple(capsys, tmp_path):
    f = tmp_path / "props.fcl"
    f.write_text("<0|b|tt, 1/2> T\nT\n")
    code, out, _ = run(capsys, "check", FIG1, "--formula-file", str(f),
                       "--state", "s0")
    assert code == 1  # first formula is false at s0
    assert out.count("formula:") == 2


def test_check_formula_file_evaluates_each_diamond_once(capsys, tmp_path, monkeypatch):
    """Each line extends one ladder, and the last conjoins two of its rungs:
    one job evaluates each of the four distinct diamonds once, where an
    evaluator per line would evaluate 1 + 2 + 3 + 4 + 3 of them."""
    from futs import logic
    diamond, seen = logic._diamond, []
    monkeypatch.setattr(logic, "_diamond",
                        lambda s, f, body: seen.append(f) or diamond(s, f, body))
    f = tmp_path / "ladder.fcl"
    f.write_text("<1> T\n<2> <1> T\n<1> <2> <1> T\n<2> <1> <2> <1> T\n"
                 "<2> <1> T & <1> <2> <1> T\n")
    for _ in range(2):  # each job loads its own system, so it starts afresh
        seen.clear()
        code, out, _ = run(capsys, "check", W3, "--formula-file", str(f), "--state", "x")
        assert (code, out.count("formula:")) == (1, 5)
        assert len(seen) == len(set(seen)) == 4


def test_check_validates_each_formula_once(capsys, tmp_path, monkeypatch):
    """``sat_set`` validates each formula; the parser's result needs no
    second ``check_formula`` fold."""
    from futs import logic
    check_formula, calls = logic.check_formula, []
    monkeypatch.setattr(logic, "check_formula",
                        lambda phi, sig: calls.append(phi) or check_formula(phi, sig))
    f = tmp_path / "props.fcl"
    f.write_text("<1> T\n<2> <1> T\nT\n<1> T & <2> T\n")
    assert run(capsys, "check", W3, "--formula-file", str(f))[0] == 0
    assert len(calls) == 4
    calls.clear()
    assert run(capsys, "check", W3, "--formula", "<2> T", "--state", "x")[0] == 0
    assert len(calls) == 1


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("state", [[], ["--state", "x"]], ids=["table", "state"])
def test_check_writes_one_block_per_formula(tmp_path, monkeypatch, state):
    """Each formula's lines (its header and a line per state) are written
    at once: one write, and print's newline, however many states."""
    f = tmp_path / "props.fcl"
    f.write_text("T\n<1> T\n<2> T\n")
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    main(["check", W3, "--formula-file", str(f), *state])
    assert out.getvalue().count("formula:") == 3
    assert out.getvalue().count("\n") == 3 * (1 + (1 if state else 4))
    assert out.writes <= 2 * 3


@pytest.mark.parametrize("lines, diagnostic", [
    (["T", "<0|b|tt, 1/2> T", "<<< bad"], "3:1: error: unterminated modality"),
    (["T", "", "  \t<0|b|tt, 1/2> T &"], "3:21: error: expected formula, found end of input"),
], ids=["unterminated", "indented"])
def test_check_formula_file_bad_formula(capsys, tmp_path, lines, diagnostic):
    """Every formula is read before any is checked: a bad one prints no
    table, and its diagnostic gives the file's line and counts columns
    from the start of that line."""
    f = tmp_path / "props.fcl"
    f.write_text("\n".join(lines) + "\n")
    assert run(capsys, "check", FIG1, "--formula-file", str(f)) == (2, "", diagnostic + "\n")


# the deeper cases run on a short chain beside a cycle; see test_logic.DEEP_CASES.
# "1500-conj" conjoins two equal, separately parsed chains, which compare equal
@pytest.mark.parametrize("depth, chain, ring, twice", [
    pytest.param(600, 620, 0, False, id="600"), pytest.param(5000, 20, 3, False, id="5000"),
    pytest.param(1500, 20, 3, True, id="1500-conj")])
def test_check_deep_formula(capsys, tmp_path, depth, chain, ring, twice):
    path = tmp_path / "chain.futs"
    path.write_text(nat_chain_text(chain, ring))
    formula = "<1> " * depth + "T"
    formula = f"({formula}) & ({formula})" if twice else formula
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


def test_equiv_logic_distinguished(capsys, fig1):
    """Fig. 1 is not simple, and its witness is written in its own logic."""
    code, out, _ = run(capsys, "equiv", FIG1, "s0", "s2", "--logic")
    head, line = out.splitlines()
    assert (code, head) == (1, "s0 and s2 are distinguished")
    assert line.startswith("distinguishing formula: ")
    phi = parse_formula(line.split(": ", 1)[1], fig1.sig)
    assert sat_set(fig1, phi) & {"s0", "s2"} == {"s0"}


STACKED = """futs
labels A0 = { a, b }
monoids M0 = [ bool-or, rat-plus ]
states { x, y, A, B }
trans 0 x a -> { { A: 1 }: tt, { B: 1 }: tt }
trans 0 y a -> { { A: 1 }: tt, { B: 1 }: tt, { A: 1/2, B: 1/2 }: tt }
trans 0 A a -> { { A: 1 }: tt }
trans 0 B b -> { { B: 1 }: tt }
"""


def test_equiv_logic_incomplete_search_is_an_internal_error(capsys, monkeypatch):
    """A witness search that finds nothing for a non-bisimilar pair fails the
    completeness check: exit 3 and one stderr line.  With a depth the search's
    None is the answer, and no check runs."""
    monkeypatch.setattr(futs.logic, "witness_formula", lambda *args: None)
    assert run(capsys, "equiv", W3, "x", "y", "--logic") == (
        3, "", "internal error: RuntimeError: states 'x' and 'y' are not bisimilar but no "
               "distinguishing formula was found; the bounded family is incomplete here\n")
    assert run(capsys, "equiv", W3, "x", "y", "--logic", "--depth", "1") == (
        0, "x and y are logically equivalent\n", "")


def test_equiv_logic_stacked_verdict_is_the_futs_logics(capsys, tmp_path):
    """Wherever y's extra half-and-half mixture reaches a bound on a set of
    states, one of the two distributions it mixes, which x has too, reaches
    it: no formula of the FuTS logic tells x from y.  They are not
    bisimilar, and the WTS's logic, with a state per distribution, separates
    them."""
    path = tmp_path / "stacked.futs"
    path.write_text(STACKED)
    assert run(capsys, "equiv", str(path), "x", "y", "--logic") == (
        0, "x and y are logically equivalent\n", "")
    assert run(capsys, "equiv", str(path), "x", "y") == (1, "x and y are not bisimilar\n", "")
    assert witness_formula(to_wts(parse_system(STACKED)).target, "x", "y") is not None


def test_equiv_logic_builds_one_grid(capsys, monkeypatch):
    """A system's verdict is its witness search: one bound grid and no
    bisimulation for a distinguished pair, on a simple system and on Fig. 1,
    which is not simple."""
    from futs import bisim, logic
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(logic, "realizable_grid", counted(logic.realizable_grid))
    monkeypatch.setattr(bisim, "largest_bisimulation", counted(bisim.largest_bisimulation))
    code, out, _ = run(capsys, "equiv", W3, "x", "y", "--logic")
    assert (code, out) == (1, "x and y are distinguished\ndistinguishing formula: <1> T\n")
    assert calls == {"realizable_grid": 1}
    calls.clear()
    assert run(capsys, "equiv", FIG1, "s0", "s2", "--logic")[0] == 1
    assert calls == {"realizable_grid": 1}


def test_equiv_logic_chain_witness_is_short(capsys, tmp_path):
    """d1 and d20 of a nat-plus chain split at the 20th level, whose block
    bodies are small DAGs that print as megabytes of text; the witness is
    the level's first separating diamond, shrunk, and the one-sweep shrink
    gives the witness of the oracle's shrinker, which restarts after each
    accepted step."""
    names = [f"d{k}" for k in range(40)]
    text = ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
            "states { " + ", ".join(names) + " }\n"
            + "".join(f"trans 0 {x} a -> {{ {y}: 3 }}\n" for x, y in zip(names, names[1:])))
    path = tmp_path / "chain.futs"
    path.write_text(text)
    code, out, err = run(capsys, "equiv", str(path), "d1", "d20", "--logic")
    head, line = out.splitlines()
    assert (code, head, err) == (1, "d1 and d20 are distinguished", "")
    assert line.startswith("distinguishing formula: ") and len(line) < 200
    s = parse_system(text)
    held = sat_set(s, parse_formula(line.removeprefix("distinguishing formula: "), s.sig))
    assert ("d1" in held) != ("d20" in held)
    want = logic_oracle.write_formula(logic_oracle.witness_formula(s, "d1", "d20"), s.sig)
    assert line == f"distinguishing formula: {want}"


@pytest.mark.parametrize("argv", [
    ["equiv", FIG1, "s0", "s2", "--logic", "--depth", "-1"],
    ["verify", FIG1, "--to", "wts", "--samples", "-4"],
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{argv[-2]}: invalid natural value: '{argv[-1]}'" in err


@pytest.mark.parametrize("path, x, y", [(FIG1, "s0", "s2"), (W3, "x", "y")])
def test_equiv_logic_depth_zero_keeps_pairs_together(capsys, path, x, y):
    code, out, _ = run(capsys, "equiv", path, x, y, "--logic", "--depth", "0")
    assert (code, out) == (0, f"{x} and {y} are logically equivalent\n")


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


@pytest.mark.parametrize("stage", ["wts", "unlabelled"])
def test_verify_exhaustive_refused_before_reducing(capsys, tmp_path, monkeypatch, stage):
    big = tmp_path / "big.futs"
    big.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
                   "states { s0, s1, s2, s3, s4, s5 }\n")
    monkeypatch.setattr(cli, "_run_reduction", lambda *args: pytest.fail("reduction ran"))
    assert run(capsys, "verify", str(big), "--to", stage, "--exhaustive") == (
        2, "", "error: --exhaustive is limited to 5 states (6 given); "
               "drop the flag to sample instead\n")


def test_verify_prints_violations_exit_1(capsys, tmp_path, monkeypatch):
    """A faulty extension that merges the source's first two blocks: each
    violation gets a line after the report, and the exit code is 1."""
    path = tmp_path / "dead.futs"
    path.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { p, q }\n")
    monkeypatch.setattr("futs.reduce._extend", lambda r, p: Partition.of_blocks(
        r.target.states, [sum(p.blocks[:2], ()), *p.blocks[2:]]))
    assert run(capsys, "verify", str(path), "--to", "wts") == (
        1, "2/2 relations checked, 2 bisimulations, 2 violations\n"
           "violation: pair (p, q) related False at the source but True at the target "
           "under { {p}, {q} }\n"
           "violation: round trip of { {p}, {q} } returned { {p, q} }\n", "")


@pytest.mark.parametrize("lines, diagnostic", [
    ("monoids M0 = [ prod(nat-plus, nat-plus) ]\nstates { x }\ntrans 0 x a -> { x: (1) }\n",
     "5:21: error: product weight needs 2 components, got 1"),
    ("states { x }\nmonoids M0 = [ nat-plus ]\n", "4:1: error: monoids line after states line"),
], ids=["product-too-few", "monoids-after-states"])
def test_parser_refusal_exit_2(capsys, tmp_path, lines, diagnostic):
    path = tmp_path / "bad.futs"
    path.write_text("futs\nlabels A0 = { a }\n" + lines)
    assert run(capsys, "bisim", str(path)) == (2, "", diagnostic + "\n")


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


@pytest.mark.parametrize("argv", [
    ("check", "<tmp>", "--formula", "T"),
    ("bisim", "<tmp>"),
    ("check", FIG1, "--formula-file", "<tmp>"),
    ("reduce", FIG1, "--to", "wts", "-o", "<tmp>"),
    ("bisim", W3, "--quotient", "<tmp>"),
    ("bisim", W3, "--quotient", "<tmp>/no-such-dir/q.futs"),
    ("reduce", FIG1, "--to", "wts", "-o", f"{FIG1}/out.futs"),
    ("reduce", FIG1, "--to", "wts", "-o", "<tmp>/out.futs", "--map", "<tmp>"),
], ids=["check", "bisim", "formula-file", "output", "quotient", "quotient-missing-dir",
        "not-a-directory", "map"])
def test_unusable_path_exit_2(capsys, tmp_path, argv):
    """A path that names a directory, or runs through a missing directory
    or a file, is one error line and exit 2, with nothing on stdout (no
    partition either, when the quotient cannot be written) and no output
    file left behind (none when the map cannot be written)."""
    code, out, err = run(capsys, *(a.replace("<tmp>", str(tmp_path)) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert not (tmp_path / "out.futs").exists()


def test_failed_reduce_changes_no_existing_file(capsys, tmp_path):
    """The map cannot be written: the input, named as the output too, is
    left as it was rather than overwritten and then removed."""
    source = tmp_path / "in.futs"
    source.write_text(Path(FIG1).read_text())
    code, out, err = run(capsys, "reduce", str(source), "--to", "wts", "-o", str(source),
                         "--map", str(tmp_path / "no-such-dir" / "m.map"))
    assert (code, out) == (2, "") and err.startswith("error: [Errno ")
    assert source.read_text() == Path(FIG1).read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.futs"]


@pytest.mark.parametrize("existing", [False, True])
def test_reduce_output_and_map_one_file_is_usage_error(capsys, tmp_path, existing):
    """``-o X --map X`` would leave only the map in X: exit 2, nothing written."""
    target = tmp_path / "x.futs"
    if existing:
        target.write_text("kept\n")
    spelled = str(tmp_path / "." / "x.futs")
    code, out, err = run(capsys, "reduce", FIG1, "--to", "wts", "-o", str(target), "--map", spelled)
    assert (code, out, err) == (2, "", "error: -o and --map name the same file\n")
    assert target.read_text() == "kept\n" if existing else not target.exists()


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


def test_overlong_grid_sum_exit_2(capsys, tmp_path):
    """The bound grid orders its sums by their text, and x's two 4300-digit
    weights sum to 4301 digits: one error line naming the limit, exit 2,
    although y and z never touch the weights."""
    src = tmp_path / "sum.futs"
    big = "9" * 4300
    src.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { x, y, z }\n"
                   f"trans 0 x a -> {{ y: {big}, z: {big} }}\n")
    code, out, err = run(capsys, "equiv", str(src), "y", "z", "--logic")
    assert (code, out) == (2, "")
    assert err == "error: a sum of weights has more than 4300 digits, too many to write\n"


def test_overlong_nested_sum_exit_2(capsys, tmp_path):
    """An inner term's two 4300-digit weights sum to 4301 digits, too many
    for the key that orders the outer term's entries: a diagnostic at the
    inner term's brace, while the same sum in a one-level term parses."""
    big = "9" * 4300
    nested, flat = tmp_path / "nested.futs", tmp_path / "flat.futs"
    nested.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or, nat-plus ]\n"
                      f"states {{ x, y }}\ntrans 0 x a -> {{ {{ y: {big}, y: {big} }}: tt }}\n")
    flat.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
                    f"states {{ x, y }}\ntrans 0 x a -> {{ y: {big}, y: {big} }}\n")
    assert run(capsys, "bisim", str(nested)) == (
        2, "", "5:18: error: a sum of weights has more than 4300 digits, too many to write\n")
    assert run(capsys, "bisim", str(flat)) == (0, "{ {x}, {y} }\n", "")


CLASH = ("futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or, nat-plus ]\n"
         "states { x, y, p, q, `#1:{p:({},1)}` }\n"
         "trans 0 x a -> { { p: 1 }: tt }\n"
         "trans 0 y a -> { { p: 1, q: 1 }: tt }\n")


@pytest.mark.parametrize("argv, prefix", [
    (("reduce", "--to", "wts", "-o", "w.futs"), "reduction to wts failed: "),
    (("verify", "--to", "wts"), "reduction to wts failed: "),
], ids=["reduce", "verify"])
def test_colliding_term_state_names_exit_2(capsys, tmp_path, argv, prefix):
    """A state named like the term-state flatten generates for another term
    (``#1:{p:({},1)}``) collides with it: one error line, exit 2, no file."""
    path = tmp_path / "clash.futs"
    path.write_text(CLASH)
    command, *rest = argv
    rest = [str(tmp_path / a) if a.endswith(".futs") else a for a in rest]
    assert run(capsys, command, str(path), *rest) == (
        2, "", f"error: {prefix}generated state ids collide with carrier: "
               "['#1:{p:({},1)}']\n")
    assert not (tmp_path / "w.futs").exists()


def test_colliding_term_state_names_equiv_logic_answers(capsys, tmp_path):
    """``equiv --logic`` builds no weighted system, so the generated name
    that collides with a state never arises: a witness over the file's own
    signature separates x and y."""
    path = tmp_path / "clash.futs"
    path.write_text(CLASH)
    code, out, err = run(capsys, "equiv", str(path), "x", "y", "--logic")
    head, line = out.splitlines()
    assert (code, head, err) == (1, "x and y are distinguished", "")
    s = parse_system(CLASH)
    sat = sat_set(s, parse_formula(line.split("distinguishing formula: ", 1)[1], s.sig))
    assert ("x" in sat) != ("y" in sat)


def test_colliding_term_state_names_answer(capsys, tmp_path):
    """A state named like the unquoted key of another term (``p:({},1),q``)
    gets a term-state of its own: the reduced file reads back and has the
    source's bisimulation, the reduction verifies, and ``equiv --logic``
    agrees with ``equiv`` on every pair, with a witness in the source's
    logic that separates."""
    path, wts = tmp_path / "clash.futs", tmp_path / "w.futs"
    path.write_text("futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or, nat-plus ]\n"
                    "states { x, y, p, q, `p:({},1),q` }\n"
                    "trans 0 x a -> { { p: 1, q: 1 }: tt }\n"
                    "trans 0 y a -> { { `p:({},1),q`: 1 }: tt }\n")
    source = parse_system(path.read_text())
    assert run(capsys, "reduce", str(path), "--to", "wts", "-o", str(wts)) == (0, "", "")
    target = parse_system(wts.read_text())
    assert set(target.states) - set(source.states) == {
        "#1:{p:({},1),q:({},1)}", "#1:{'p:({},1),q':({},1)}"}
    assert restrict(largest_bisimulation(target), source.states) == largest_bisimulation(source)
    assert run(capsys, "bisim", str(wts))[0] == 0
    code, out, _ = run(capsys, "verify", str(path), "--to", "wts")
    assert code == 0 and out.endswith(" 0 violations\n")
    for i, x in enumerate(source.states):
        for y in source.states[i + 1:]:
            plain = run(capsys, "equiv", str(path), x, y)
            logic = run(capsys, "equiv", str(path), x, y, "--logic")
            assert plain[0] == logic[0] and logic[2] == ""
            if logic[0] == 1:
                text = logic[1].split("distinguishing formula: ", 1)[1]
                sat = sat_set(source, parse_formula(text, source.sig))
                assert (x in sat) != (y in sat)


def nested_system(tmp_path, stack: int, nesting: int):
    """A file whose one stack holds ``stack`` monoids, each nested
    ``nesting`` products deep, in which x steps through every level to y,
    and a formula that holds at x only."""
    m = "prod(" * nesting + "nat-plus" + ")" * nesting
    w = "(" * nesting + "1" + ")" * nesting
    term = "y"
    for _ in range(stack):
        term = f"{{ {term}: {w} }}"
    path = tmp_path / "nested.futs"
    path.write_text(f"futs\nlabels A0 = {{ a }}\nmonoids M0 = [ {', '.join([m] * stack)} ]\n"
                    f"states {{ x, y }}\ntrans 0 x a -> {term}\n")
    return str(path), "<" + ", ".join([w] * stack) + "> T"


@pytest.mark.parametrize("stack, nesting", [(MAX_NESTING, 0), (1, MAX_NESTING)],
                         ids=["stack", "nesting"])
def test_nesting_limit_answers(capsys, tmp_path, stack, nesting):
    path, formula = nested_system(tmp_path, stack, nesting)
    assert run(capsys, "bisim", path) == (0, "{ {x}, {y} }\n", "")
    # these stages add a prod( or pow( level, which the reader refuses past the
    # limit, so the writer refuses it too and no file is written
    refused = (2, "", f"error: monoid type nested more than {MAX_NESTING} deep\n")
    for stage in ("wts", "unlabelled", "homogeneous"):
        out = tmp_path / f"{stage}.futs"
        answer = run(capsys, "reduce", path, "--to", stage, "-o", str(out))
        assert (answer, out.exists()) == ((refused, False) if nesting else ((0, "", ""), True))
    assert run(capsys, "check", path, "--formula", formula) == (0, "x: true\ny: false\n", "")


def test_equiv_logic_stacked_levels_answer(capsys, tmp_path):
    """x steps through ten nat-plus levels to y: one search in the file's
    own logic separates them, without a weighted system of the levels."""
    path, _ = nested_system(tmp_path, 10, 0)
    assert run(capsys, "equiv", path, "x", "y", "--logic") == (
        1, "x and y are distinguished\ndistinguishing formula: <1" + ", 0" * 9 + "> T\n", "")


# unlabel adds a pow( level and homogenize a prod( level, so these are the
# deepest inputs whose reduced system the parser still reads
@pytest.mark.parametrize("stage, nesting", [
    ("wts", MAX_NESTING - 2), ("unlabelled", MAX_NESTING - 1), ("homogeneous", MAX_NESTING - 1),
])
def test_reduced_deep_monoid_reads_back(capsys, tmp_path, stage, nesting):
    path, _ = nested_system(tmp_path, 1, nesting)
    out = tmp_path / "r.futs"
    assert run(capsys, "reduce", path, "--to", stage, "-o", str(out)) == (0, "", "")
    text = out.read_text()
    assert write_system(parse_system(text)) == text
    assert run(capsys, "bisim", str(out))[0] == 0


# a monoid in the stack takes 10 columns ("nat-plus, "), a nesting level 5 ("prod(")
@pytest.mark.parametrize("stack, nesting, column, message", [
    (MAX_NESTING + 1, 0, 16 + 10 * MAX_NESTING, f"more than {MAX_NESTING} monoids in a stack"),
    (1200, 0, 16 + 10 * MAX_NESTING, f"more than {MAX_NESTING} monoids in a stack"),
    (1, MAX_NESTING + 1, 16 + 5 * MAX_NESTING, f"monoid type nested more than {MAX_NESTING} deep"),
    (1, 1200, 16 + 5 * MAX_NESTING, f"monoid type nested more than {MAX_NESTING} deep"),
], ids=["stack", "stack-1200", "nesting", "nesting-1200"])
def test_nesting_limit_exceeded_exit_2(capsys, tmp_path, stack, nesting, column, message):
    path, _ = nested_system(tmp_path, stack, nesting)
    for argv in (("bisim", path), ("reduce", path, "--to", "wts", "-o", str(tmp_path / "w.futs")),
                 ("check", path, "--formula", "T")):
        assert run(capsys, *argv) == (2, "", f"3:{column}: error: {message}\n")
