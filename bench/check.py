"""Answer checkers: parse CLI output and compare with known answers.

Every checker takes the finished job (stdout, stderr, exit code, working
directory) and returns None when the answer is right, else a one-line
reason.  Nothing here imports ``futs``; expected answers come from the
generators.  A job also fails on a timeout, on a Python traceback on
stderr, or on an exit code other than the expected one: exit 1 means
"property fails" to the CLI but is also what an uncaught exception gives,
so exit codes alone prove nothing.
"""

from __future__ import annotations

import os
import re

import gen

TRACEBACK = "Traceback (most recent call last)"


def classify(returncode, stdout: str, stderr: str, timed_out: bool, check, workdir) -> str | None:
    """The reason a finished job failed, or None if its answer is right."""
    if timed_out:
        return "timeout"
    if TRACEBACK in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return f"traceback: {last[:120]}"
    return check(returncode, stdout, stderr, workdir)


def _exit(returncode, want):
    return None if returncode == want else f"exit code {returncode}, expected {want}"


def parse_partition(line: str) -> list[list[str]]:
    """Blocks of a rendered partition ``{ {a, b}, {c} }``.  State names may
    themselves contain balanced brackets and commas (generated WTS states),
    so members are split on ', ' at block level only."""
    line = line.strip()
    if not (line.startswith("{") and line.endswith("}")):
        raise ValueError(f"not a partition: {line[:60]!r}")
    body = line[1:-1].strip()
    blocks, depth, cur, member = [], 0, None, []
    i = 0
    while i < len(body):
        ch = body[i]
        if depth == 0:
            if ch == "{":
                cur, member, depth = [], [], 1
            elif ch not in ", ":
                raise ValueError(f"unexpected {ch!r} between blocks")
        elif depth == 1 and ch == "}":
            if member:
                cur.append("".join(member))
            blocks.append(cur)
            depth = 0
        elif depth == 1 and body.startswith(", ", i):
            cur.append("".join(member))
            member = []
            i += 1
        else:
            depth += ch in "{("
            depth -= ch in "})"
            member.append(ch)
        i += 1
    if depth:
        raise ValueError("unbalanced partition")
    return blocks


def _same_blocks(got, want) -> bool:
    return {frozenset(b) for b in got} == {frozenset(b) for b in want}


def partition(blocks, restrict=None, quotient=None, system=None):
    """`bisim`: the first stdout line is the partition; with `restrict`,
    only those states are kept (the WTS route); with `quotient`, the
    written quotient has one state per block (its least member) and a
    transition line exactly where that member has a non-zero one."""
    def check(rc, out, _err, workdir):
        bad = _exit(rc, 0)
        if bad:
            return bad
        try:
            got = parse_partition(out.splitlines()[0] if out else "")
        except ValueError as e:
            return str(e)
        if restrict is not None:
            got = [[x for x in b if x in restrict] for b in got]
            got = [b for b in got if b]
        if not _same_blocks(got, blocks):
            return f"wrong partition: {len(got)} blocks, expected {len(blocks)}"
        if quotient is not None:
            return _quotient(os.path.join(workdir, quotient), blocks, system)
        return None
    return check


_TRANS_RE = re.compile(r"trans (\d+) (\S+) (\S+) ->")


def _quotient(path, blocks, system) -> str | None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    reps = sorted(min(b) for b in blocks)
    states = next((ln for ln in lines if ln.startswith("states ")), "")
    if states != "states { " + ", ".join(reps) + " }":
        return "quotient states are not the block representatives"
    keys = {(int(m[1]), m[2], m[3]) for m in map(_TRANS_RE.match, lines) if m}
    rep_set = set(reps)
    want = {(i, x, a) for (i, x, a) in system.trans if x in rep_set}
    return None if keys == want else f"quotient has {len(keys)} transitions, expected {len(want)}"


def bisimilar(x, y, verdict: bool):
    def check(rc, out, _err, _workdir):
        word = "bisimilar" if verdict else "not bisimilar"
        if out.strip() != f"{x} and {y} are {word}":
            return f"expected '{word}', got {out.strip()[:80]!r}"
        return _exit(rc, 0 if verdict else 1)
    return check


def logically(x, y, verdict: bool, system=None):
    """`equiv --logic`.  A reported witness on a simple single-component
    system is parsed and evaluated: it must hold at exactly one state."""
    def check(rc, out, _err, _workdir):
        lines = out.strip().splitlines()
        head = f"{x} and {y} are " + ("logically equivalent" if verdict else "distinguished")
        if not lines or lines[0] != head:
            return f"expected {head!r}, got {lines[0][:80] if lines else ''!r}"
        bad = _exit(rc, 0 if verdict else 1)
        if bad or verdict:
            return bad
        if len(lines) != 2 or not lines[1].startswith("distinguishing formula: "):
            return "missing distinguishing formula"
        if system is not None:
            try:
                phi = parse_formula(lines[1].split(": ", 1)[1], system)
            except ValueError as e:
                return f"unreadable witness: {e}"
            sat = gen.sat_set(system, phi)
            if (x in sat) == (y in sat):
                return "witness does not separate the states"
        return None
    return check


def sat_lines(expected, states, single: bool = False):
    """`check`: per formula a 'formula: TEXT' line (files with several
    formulas) and one 'x: true|false' line per state."""
    def check(rc, out, _err, _workdir):
        bad = _exit(rc, 0)
        if bad:
            return bad
        lines = out.splitlines()
        per = len(states) + (0 if single else 1)
        if len(lines) != per * len(expected):
            return f"{len(lines)} output lines, expected {per * len(expected)}"
        for n, (text, sat) in enumerate(expected):
            chunk = lines[n * per:(n + 1) * per]
            if not single:
                if chunk[0] != f"formula: {text}":
                    return f"formula {n}: header {chunk[0][:60]!r}"
                chunk = chunk[1:]
            want = [f"{x}: {'true' if x in sat else 'false'}" for x in sorted(states)]
            if chunk != want:
                return f"formula {n}: wrong satisfaction set"
        return None
    return check


def holds_at(holds: bool):
    """`check --state`: exit 0 iff the formula holds there."""
    def check(rc, out, _err, _workdir):
        if not out.strip().endswith(": true" if holds else ": false"):
            return f"expected {holds}, got {out.strip()[:60]!r}"
        return _exit(rc, 0 if holds else 1)
    return check


def text_is(expected: str):
    def check(rc, out, _err, _workdir):
        bad = _exit(rc, 0)
        if bad:
            return bad
        return None if out.strip() == expected else f"got {out.strip()[:80]!r}"
    return check


def wts_written(output, mapping, originals):
    """`reduce --to wts -o OUT --map MAP`: the map is the identity on the
    original states and OUT is a single-level single-label system on a
    carrier containing them."""
    def check(rc, _out, _err, workdir):
        bad = _exit(rc, 0)
        if bad:
            return bad
        with open(os.path.join(workdir, mapping), encoding="utf-8") as fh:
            pairs = fh.read().splitlines()
        if pairs != [f"{x} -> {x}" for x in sorted(originals)]:
            return "state map is not the identity on the original states"
        with open(os.path.join(workdir, output), encoding="utf-8") as fh:
            head = [fh.readline().strip() for _ in range(4)]
        if not (re.fullmatch(r"labels A0 = \{ [^,]+ \}", head[1])
                and re.fullmatch(r"monoids M0 = \[ [^\[\],]*(\(.*\))? \]", head[2])
                and head[3].startswith("states {")):
            return "output is not a single-level unlabelled system"
        return None
    return check


def verified(min_bisims: int):
    """`verify`: zero violations, by the coherence theorem."""
    def check(rc, out, _err, _workdir):
        m = re.fullmatch(r"(\d+)/\1 relations checked, (\d+) bisimulations, 0 violations",
                         out.strip())
        if not m:
            return f"unexpected report {out.strip()[:80]!r}"
        if int(m[2]) < min_bisims:
            return f"{m[2]} bisimulations, expected at least {min_bisims}"
        return _exit(rc, 0)
    return check


def exit_zero(rc, _out, _err, _workdir):
    return _exit(rc, 0)


def help_text(rc, out, _err, _workdir):
    return _exit(rc, 0) or (None if out.startswith("usage:") else "no usage text")


# --- witness formulas over simple single-component systems -------------------

_FTOK = re.compile(r"\s*(<[^<>]*>|&|\(|\)|T)")


def parse_formula(text: str, s: gen.System):
    """Read `T`, `A & B`, `(A)` and `<bound> A` / `<label|bound> A` for a
    single-component, single-level system over nat-plus or bool-or."""
    toks, pos = [], 0
    while pos < len(text.rstrip()):
        m = _FTOK.match(text, pos)
        if not m:
            raise ValueError(f"bad formula text at {pos}")
        toks.append(m[1])
        pos = m.end()
    labels = s.comps[0][0]

    def conj(i):
        phi, i = unary(i)
        while i < len(toks) and toks[i] == "&":
            rhs, i = unary(i + 1)
            phi = ("and", phi, rhs)
        return phi, i

    def unary(i):
        if i >= len(toks):
            raise ValueError("truncated formula")
        t = toks[i]
        if t == "T":
            return ("T",), i + 1
        if t == "(":
            phi, i = conj(i + 1)
            if i >= len(toks) or toks[i] != ")":
                raise ValueError("missing )")
            return phi, i + 1
        if t.startswith("<"):
            parts = t[1:-1].split("|")
            label = parts[0].strip() if len(parts) == 2 else labels[0]
            body, j = unary(i + 1)
            bound = parts[-1].strip()
            weight = bound == "tt" if bound in ("tt", "ff") else int(bound)
            return ("dia", 0, label, (weight,), body), j
        raise ValueError(f"unexpected {t!r}")

    phi, i = conj(0)
    if i != len(toks):
        raise ValueError("trailing tokens")
    return phi
