"""The process entry ``futs.cli.run`` against ``sys.exit(main())``, and the
library's freedom from reference cycles, on which ``run`` relies when it
turns the cyclic collector off."""

import contextlib
import gc
import io
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import futs
from futs.cli import main

from conftest import DATA

FIG1 = str(DATA / "fig1.futs")
W3 = str(DATA / "w3.futs")
SRC = str(Path(futs.__file__).parents[1])

# the process entry as ``python -m futs.cli`` runs it, and the plain exit it
# must match; PATCH, if set, makes ``bisim`` raise an unexpected error
ENTRIES = {
    "run": "import futs.cli as cli\n{patch}cli.run()",
    "exit": "import sys, futs.cli as cli\n{patch}sys.exit(cli.main())",
}
PATCH = "cli.cmd_bisim = lambda args: {}['no such key']\n"


def launch(entry, argv, cwd, stdout=subprocess.PIPE, close=None, patch=False,
           unbuffered=False):
    """(exit code, stdout, stderr) of one launch of ``entry``.  ``close``
    names a standard stream the shell closes (``>&-``) before the start, or
    is ``"stderr-read-only"`` to open stderr for reading only;
    ``stdout="head"`` pipes the output into ``head -c 1``, and ``"gone"``
    into a pipe whose reader has left.  Output is block-buffered, as by
    default, unless ``unbuffered``."""
    code = ENTRIES[entry].format(patch=PATCH if patch else "")
    cmd = [sys.executable, "-c", code, *argv]
    if entry == "run" and not patch:
        cmd = [sys.executable, "-m", "futs.cli", *argv]
    if close:
        redirect = {"stdout": "1>&-", "stderr": "2>&-", "stderr-read-only": "2</dev/null"}
        cmd = ["sh", "-c", f'exec "$@" {redirect[close]}', "sh", *cmd]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if stdout not in ("head", "gone"):
        p = subprocess.run(cmd, cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE,
                           timeout=60)
        return p.returncode, p.stdout, p.stderr
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as p:
        out = b""
        if stdout == "head":
            out = subprocess.run(["head", "-c", "1"], stdin=p.stdout, capture_output=True,
                                 timeout=60).stdout
        p.stdout.close()  # the writer now has no reader left
        err = p.stderr.read()
        return p.wait(timeout=60), out, err


def both(tmp_path, argv, **kw):
    """Each entry's launch in a directory of its own, with the files it left."""
    results = []
    for entry in ENTRIES:
        cwd = tmp_path / entry
        cwd.mkdir()
        outcome = launch(entry, argv, cwd, **kw)
        results.append((outcome, {p.name: p.read_bytes() for p in cwd.iterdir()}))
    return results


@pytest.mark.parametrize("argv, code", [
    (["bisim", FIG1], 0),
    (["reduce", FIG1, "--to", "wts", "-o", "out.futs", "--map", "out.map"], 0),
    (["check", FIG1, "--formula", "<0|b|tt, 1/2> T", "--state", "s0"], 1),
    (["equiv", W3, "x", "x'", "--logic"], 0),
    (["--help"], 0),
    (["bisim", "missing.futs"], 2),
    (["reduce", FIG1], 2),
], ids=["bisim", "reduce", "check-false", "equiv-logic", "help", "missing-file", "usage"])
def test_run_exits_as_plain_exit(tmp_path, argv, code):
    (ran, ran_files), (plain, plain_files) = both(tmp_path, argv)
    assert ran == plain and ran[0] == code
    assert ran_files == plain_files
    if argv[0] == "reduce" and code == 0:
        assert sorted(ran_files) == ["out.futs", "out.map"]


def test_run_internal_error_exits_3(tmp_path):
    (ran, _), (plain, _) = both(tmp_path, ["bisim", FIG1], patch=True)
    assert ran == plain == (3, b"", b"internal error: KeyError: 'no such key'\n")


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
@pytest.mark.parametrize("argv", [["bisim", FIG1], ["bisim", "missing.futs"]],
                         ids=["answer", "error"])
@pytest.mark.parametrize("close", ["stdout", "stderr"])
def test_run_with_a_closed_stream(tmp_path, argv, close, unbuffered):
    """A stream closed at start-up is None in the interpreter: nothing to
    flush, and the exit code is the plain exit's (0 for a closed stdout)."""
    (ran, _), (plain, _) = both(tmp_path, argv, close=close, unbuffered=unbuffered)
    assert ran == plain
    if close == "stdout" and argv[1] == FIG1:
        assert ran == (0, b"", b"")


@BUFFERING
@pytest.mark.parametrize("patch, code", [(False, 2), (True, 3)], ids=["usage", "internal"])
@pytest.mark.parametrize("close", ["stderr", "stderr-read-only"])
def test_error_with_an_unusable_stderr(tmp_path, close, patch, code, unbuffered):
    """An error line that stderr cannot take is lost: it never reaches
    stdout, and the exit code stays 2 (usage) or 3 (internal), not 1.
    (Buffered, a plain exit would fail again flushing the line at exit.)"""
    argv = ["bisim", FIG1 if patch else "missing.futs"]
    assert launch("run", argv, tmp_path, close=close, patch=patch,
                  unbuffered=unbuffered)[:2] == (code, b"")


@BUFFERING
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_run_into_a_full_device(tmp_path, unbuffered):
    """Buffered, the write fails only in the flush after ``main``."""
    with open("/dev/full", "wb") as full:
        (ran, _), (plain, _) = both(tmp_path, ["bisim", FIG1], stdout=full,
                                    unbuffered=unbuffered)
    assert ran == plain and ran[0] != 0 and b"No space left on device" in ran[2]


def wide_text(n: int = 120, width: int = 800) -> str:
    """A system whose ``check`` table is far larger than a pipe holds."""
    names = [f"s{k}_" + "x" * width for k in range(n)]
    return ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
            "states { " + ", ".join(names) + " }\n")


@BUFFERING
@pytest.mark.parametrize("reader", ["head", "gone"])
def test_run_into_a_broken_pipe(tmp_path, reader, unbuffered):
    """``futs check ... | head -c 1``: the reader leaves after one byte while
    the table is still being written.  Or it has left before a short answer,
    which, buffered, fails only in the flush after ``main``."""
    system = tmp_path / "wide.futs"
    system.write_text(wide_text())
    argv = ["check", str(system), "--formula", "T"] if reader == "head" else ["bisim", FIG1]
    (ran, _), (plain, _) = both(tmp_path, argv, stdout=reader, unbuffered=unbuffered)
    assert ran == plain and ran[1] == (b"s" if reader == "head" else b"")
    assert ran[0] != 0 and b"Broken pipe" in ran[2]


# --- no reference cycles ------------------------------------------------------

def made_in_futs(obj) -> bool:
    """An object or function whose class or code the futs package defines."""
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    owner = obj if isinstance(obj, (type, types.FunctionType)) else type(obj)
    return (getattr(owner, "__module__", None) or "").split(".")[0] == "futs"


def cyclic_garbage(argv: list[str]) -> list:
    """What the cyclic collector alone would free after ``main(argv)``."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()


@pytest.mark.parametrize("argv", [
    ["bisim", FIG1, "--quotient", "{tmp}/q.futs"],
    ["bisim", W3],
    ["reduce", FIG1, "--to", "wts", "-o", "{tmp}/out.futs", "--map", "{tmp}/out.map"],
    ["reduce", W3, "--to", "nested", "-o", "{tmp}/out.futs"],
    ["check", FIG1, "--formula", "<0|b|tt, 1/2> T"],
    ["equiv", FIG1, "s0", "s2"],
    ["equiv", FIG1, "s0", "s2", "--logic"],
    ["equiv", W3, "x", "y", "--logic"],
    ["verify", FIG1, "--to", "wts", "--exhaustive"],
    ["verify", W3, "--to", "wts", "--samples", "5"],
    ["translate", "--formula", "<0|b|tt, 1/2> T", "--sig", FIG1, "--to", "wts"],
], ids=["bisim-quotient", "bisim", "reduce-map", "reduce-nested", "check", "equiv",
        "equiv-logic-nonsimple", "equiv-logic", "verify-exhaustive", "verify", "translate"])
def test_commands_leave_no_futs_cycle(tmp_path, argv):
    garbage = cyclic_garbage([a.format(tmp=tmp_path) for a in argv])
    assert not [obj for obj in garbage if made_in_futs(obj)]


def test_verify_garbage_does_not_grow_with_samples():
    """Each sampled partition is checked on the compiled graph; none of them
    may leave work behind for the collector."""
    few, many = (len(cyclic_garbage(["verify", FIG1, "--to", "wts", "--samples", n]))
                 for n in ("5", "50"))
    assert many <= few
