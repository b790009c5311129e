"""The CLI's argument table (``futs.cli.COMMANDS``): the argparse parser built
from it against the one written out call by call (``tests/cli_oracle.py``),
and the table's own reader (``futs.cli.read_args``) against argparse: where
the reader answers, argparse gives the same namespace, and ``main`` answers
every command line as it does when argparse reads them all."""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from futs import cli
from futs.cli import COMMANDS, build_parser, main, read_args

import cli_oracle
from conftest import DATA

FIXTURES = {name: (DATA / name).read_bytes() for name in ("fig1.futs", "w3.futs")}
FIXTURES["props.fcl"] = b"<1> T\nT\n<2> <1> T\n"

STAGES = sorted(cli.STAGE_BY_NAME)
# the values each argument is drawn from: good ones, and some that the
# command or argparse refuses
VALUES = {
    "file": ["fig1.futs", "w3.futs", "missing.futs"],
    "x": ["s0", "s2", "x", "x'", "nope"],
    "y": ["s1", "y", "z"],
    "--quotient": ["q.futs", "fig1.futs"],
    "--to": STAGES + ["bogus", "WTS"],
    "--output": ["out.futs", "out.map"],
    "--map": ["out.map"],
    "--formula": ["T", "<1> T", "<0|b|tt, 1/2> T", "<2> <1> T & T", "<<"],
    "--formula-file": ["props.fcl", "missing.fcl"],
    "--state": ["s0", "x", "nope"],
    "--depth": ["0", "1", "3", "x"],
    "--samples": ["0", "5", " 7", "1_0"],
    "--seed": ["0", "7", "+3"],
    "--sig": ["fig1.futs", "w3.futs"],
}
SPELLINGS = sorted({s for _, spec in COMMANDS.values() for *names, _ in spec
                    for s in names if s[0] == "-"})
ODD = (["-h", "--help", "--", "-", "-1", "", "-o-", "--to=wts", "--depth=2", "--formula=T",
        "--logic=1", "-oout.futs", "bisim", "check"]
       + [s[:k] for s in SPELLINGS for k in range(3, len(s))])  # abbreviations
TOKENS = st.sampled_from(sorted({v for vs in VALUES.values() for v in vs}
                                | set(SPELLINGS) | set(ODD) | set(COMMANDS)))


@st.composite
def command_lines(draw):
    """A subcommand, its positionals and some of its options, each with a
    value, in any order, then possibly with tokens dropped or inserted."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    parts = []
    for *names, keywords in COMMANDS[name][1]:
        if names[0][0] != "-":
            parts.append([draw(st.sampled_from(VALUES[names[0]]))])
        elif keywords.get("required") or draw(st.booleans()):
            spelling = draw(st.sampled_from(names))
            value = [] if "action" in keywords else [draw(st.sampled_from(VALUES[names[-1]]))]
            parts.append([spelling] + value)
    argv = [name] + [tok for part in draw(st.permutations(parts)) for tok in part]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(i, draw(TOKENS))
        elif i < len(argv):
            del argv[i]
    return argv


ARGVS = st.one_of(command_lines(), command_lines(), st.lists(TOKENS, max_size=8))


def subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def test_help_is_the_oracles():
    new, old = build_parser(), cli_oracle.build_parser()
    assert new.format_help() == old.format_help()
    assert list(subparsers(new)) == list(subparsers(old))
    for name, parser in subparsers(old).items():
        assert subparsers(new)[name].format_help() == parser.format_help()


def oracle_args(argv):
    """The oracle parser's namespace for ``argv`` as a dict, or None for a usage error."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(cli_oracle.build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("argv", [
    ["bisim", "fig1.futs"],
    ["bisim", "--quotient", "q.futs", "w3.futs"],
    ["reduce", "fig1.futs", "--to", "wts", "-o", "out.futs", "--map", "out.map"],
    ["check", "w3.futs", "--formula-file", "props.fcl", "--state", "x"],
    ["check", "fig1.futs", "--formula", "<0|b|tt, 1/2> T"],
    ["equiv", "w3.futs", "x", "--logic", "y", "--depth", "2"],
    ["verify", "fig1.futs", "--to", "nested", "--exhaustive", "--samples", "5", "--seed", "3"],
    ["translate", "--formula", "T", "--sig", "fig1.futs", "--to", "unlabelled"],
])
def test_reader_reads_plain_command_lines(argv):
    args = read_args(argv)
    assert args is not None and vars(args) == oracle_args(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bisim", "-h"], ["bisim"], ["bisim", "a", "b"], ["bisim", "f", "--quot", "q"],
    ["bisim", "f", "--quotient=q"], ["bisim", "f", "--quotient", "q", "--quotient", "r"],
    ["bisim", "--", "f"], ["bisim", "-f"], ["equiv", "f", "x", "y", "--depth", "-1"],
    ["equiv", "f", "x", "y", "--depth", "two"], ["reduce", "f", "--to", "bogus", "-o", "o"],
    ["reduce", "f", "--to", "wts"], ["check", "f"], ["check", "f", "--formula", "T",
                                                      "--formula-file", "g"],
    ["check", "f", "--formula"], ["translate", "--formula", "T", "--to", "wts"],
])
def test_reader_leaves_the_rest_to_argparse(argv):
    assert read_args(argv) is None


def answer(argv, directory, reader=True):
    """(exit code, stdout, stderr, the directory's files) of ``main(argv)``
    run in ``directory``, which holds the fixtures and nothing else."""
    for name in os.listdir(directory):
        os.remove(os.path.join(directory, name))
    for name, data in FIXTURES.items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        if not reader:
            mp.setattr(cli, "read_args", lambda argv: None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return code, out.getvalue(), err.getvalue(), files


@settings(deadline=None, max_examples=200)
@given(ARGVS)
def test_reader_answers_as_argparse(tmp_path_factory, argv):
    """(a) Where the reader answers, the oracle parser gives its namespace;
    (b) ``main`` answers alike with the reader and with argparse alone:
    exit code, stdout, stderr and the files written; (c) it never raises."""
    args = read_args(argv)
    if args is not None:
        assert vars(args) == oracle_args(argv)
    directory = tmp_path_factory.mktemp("cwd")
    with_reader = answer(argv, directory)
    assert with_reader[0] in (0, 1, 2)
    assert with_reader == answer(argv, directory, reader=False)
