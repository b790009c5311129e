"""The two-pass tokenizer and the cursor-only term parser, kept as the
differential oracle for ``futs.textio``.

``tokenize`` matches blanks and every token separately; ``_parse_term``
reads every token through ``_Cursor`` and checks states against a set.
``parse_system`` runs ``futs.textio.parse_system`` with both swapped in
and then checks the result with ``system.validate``, as the parser once
did itself.
"""

from __future__ import annotations

import re
from unittest import mock

from futs import textio
from futs.monoid import Monoid
from futs.system import Futs, validate
from futs.textio import Diagnostic, ParseError, Token, _Cursor, _fail, _parse_weight
from futs.weightfn import Leaf, Term, node

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t]+)
    | (?P<comment>\#[^\n]*)
    | (?P<btick>`[^`\n]*`)
    | (?P<arrow>->)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]+)*)
    | (?P<star>\*)
    | (?P<nat>[0-9]+)
    | (?P<punct>[{}\[\](),:|<>&/=])
    """,
    re.VERBOSE,
)


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    out: list[Token] = []
    for lineno, raw in enumerate(text.split("\n"), start=first_line):
        pos = 0
        while pos < len(raw):
            m = _TOKEN_RE.match(raw, pos)
            if m is None:
                _fail(lineno, pos + 1, f"unexpected character {raw[pos]!r}")
            kind = m.lastgroup
            value = m.group()
            if kind == "btick":
                out.append(Token("ident", value[1:-1], lineno, pos + 1))
            elif kind == "star":
                out.append(Token("ident", value, lineno, pos + 1))
            elif kind not in ("ws", "comment"):
                out.append(Token(kind, value, lineno, pos + 1))
            pos = m.end()
    return out


def _parse_term(cur: _Cursor, stack: tuple[Monoid, ...], states) -> Term:
    if not stack:
        tok = cur.next("ident", what="state id")
        if tok.value not in states:
            _fail(tok.line, tok.column, f"unknown state {tok.value!r}")
        return Leaf(tok.value)
    cur.next(value="{")
    entries = []
    if not cur.at("}"):
        while True:
            key = _parse_term(cur, stack[1:], states)
            cur.next(value=":")
            entries.append((key, _parse_weight(cur, stack[0])))
            if not cur.at(","):
                break
            cur.next()
    cur.next(value="}")
    return node(stack, entries)


def parse_system(text: str) -> Futs:
    with mock.patch.multiple(textio, tokenize=tokenize, _parse_term=_parse_term):
        s = textio.parse_system(text)
    problems = validate(s)
    if problems:
        raise ParseError([Diagnostic(1, 1, msg) for msg in problems])
    return s
