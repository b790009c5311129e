"""CLI transcripts on the fixtures of ``tests/data`` and ``tests/golden``.

Every subcommand runs on every fixture, each command in a fresh directory
holding the fixture and a formula file.  Its exit code, stdout, stderr
and the files it writes must equal the transcript in ``tests/golden/cli``
byte for byte.  To rewrite the transcripts from the ``futs`` on the path::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from futs.cli import main
from futs.logic import logical_witness
from futs.textio import parse_system, write_formula

HERE = Path(__file__).parent
CLI_GOLDEN = HERE / "golden" / "cli"
STAGES = ["unlabelled", "tabular", "homogeneous", "nested", "wts"]

# fixture -> (formulas, of which the last is malformed; states to compare)
FIXTURES = {
    HERE / "data" / "fig1.futs": (
        ["T", "<0|a|tt, 1/2> T", "<0|b|tt, 1/6> T & T",
         "<0|a|tt, 1/2> (<0|b|tt, 1/2> T & <0|a|tt, 1> T)", "<0|b|tt> T"],
        ["s0", "s1", "s2", "s3"]),
    HERE / "data" / "w3.futs": (
        ["T", "<2> T", "<a|1> T & <1> T", "<0|a|1> (<1> T & T)", "<3 T"],
        ["x", "x'", "y", "z"]),
    HERE / "golden" / "fig1_wts.futs": (
        ["T", "<({ a: tt }, 1/2)> T", "<({}, 1/6)> <({}, 1/2)> T", "<(tt, 1)> T"],
        ["s0", "s1", "s2", "s3", "#1:{s0:({},1/2),s1:({},1/2)}"]),
    HERE / "data" / "shared.futs": (
        ["T", "<0|a|2, 1> T", "<1|c|3> T & <0|b|1, 2> T", "<0|a|1, 1> (<1|c|1> T & T)",
         "<1|c|1, 1> T"],
        ["x", "y", "z", "w"]),
}


def commands(path: Path) -> list[list[str]]:
    f = path.name
    formulas, states = FIXTURES[path]
    cmds = [["bisim", f], ["bisim", f, "--quotient", "q.futs"]]
    cmds += [["reduce", f, "--to", to, "-o", f"{to}.futs"] for to in STAGES]
    cmds.append(["reduce", f, "--to", "wts", "-o", "wts.futs", "--map", "wts.map"])
    for phi in formulas:
        cmds += [["check", f, "--formula", phi], ["check", f, "--formula", phi, "--state", states[0]]]
        cmds += [["translate", "--formula", phi, "--sig", f, "--to", to] for to in STAGES]
    cmds += [["check", f, "--formula-file", "formulas.fcl"],
             ["check", f, "--formula-file", "formulas.fcl", "--state", states[-1]]]
    for x, y in itertools.combinations(states, 2):
        cmds += [["equiv", f, x, y], ["equiv", f, x, y, "--logic"]]
    cmds += [["verify", f, "--to", to, "--samples", "8", "--seed", "1"] for to in STAGES]
    cmds += [["verify", f, "--to", "wts", "--exhaustive"],
             ["equiv", f, states[0], "nope"], ["check", f, "--formula", "T", "--state", "nope"],
             ["bisim", "missing.futs"]]
    return cmds


def _lines(text: str) -> list[str]:
    if not text:
        return []
    out = ["|" + (" " + line if line else "") for line in text.split("\n")]
    if text.endswith("\n"):
        out.pop()
    else:
        out.append("\\ no newline at end")
    return out


@contextlib.contextmanager
def _inside(directory: str):
    back = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(back)


def transcript(path: Path) -> str:
    formulas, _ = FIXTURES[path]
    out = []
    for argv in commands(path):
        with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
            shutil.copy(path, path.name)
            Path("formulas.fcl").write_text("\n".join(formulas[:-1]) + "\n", encoding="utf-8")
            inputs = set(os.listdir("."))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out += ["$ futs " + " ".join(argv), f"exit {code}", "stdout:", *_lines(stdout.getvalue()),
                    "stderr:", *_lines(stderr.getvalue())]
            for name in sorted(set(os.listdir(".")) - inputs):
                out += [f"file {name}:", *_lines(Path(name).read_text(encoding="utf-8"))]
    return "\n".join(out) + "\n"


def golden_file(path: Path) -> Path:
    return CLI_GOLDEN / (path.stem + ".txt")


@pytest.mark.parametrize("path", list(FIXTURES), ids=lambda p: p.name)
def test_cli_transcript(path):
    assert transcript(path) == golden_file(path).read_text(encoding="utf-8")


@pytest.mark.parametrize("path", list(FIXTURES), ids=lambda p: p.name)
def test_logical_witness_is_the_cli_answer(path):
    """``equiv --logic`` prints what ``futs.logic.logical_witness`` returns,
    on every ordered pair of the fixture's states."""
    s = parse_system(path.read_text(encoding="utf-8"))
    for x, y in itertools.product(s.states, repeat=2):
        phi = logical_witness(s, x, y)
        want = ((0, f"{x} and {y} are logically equivalent\n") if phi is None else
                (1, f"{x} and {y} are distinguished\n"
                    f"distinguishing formula: {write_formula(phi, s.sig)}\n"))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["equiv", str(path), x, y, "--logic"])
        assert (code, stdout.getvalue()) == want, (x, y)


if __name__ == "__main__":
    CLI_GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        golden_file(fixture).write_text(transcript(fixture), encoding="utf-8")
        print(f"wrote {golden_file(fixture)}", file=sys.stderr)
