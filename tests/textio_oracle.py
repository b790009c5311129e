"""The token-object reading path of ``futs.textio``, kept as its
differential oracle.

``tokenize`` turns a text into ``Token`` objects, one ``_TOKEN_RE``
match per token with its line and column, and reports an unexpected
character before any line is parsed.  Every reader goes through
``_Cursor``, which positions each diagnostic from the token in hand;
``_parse_term`` reads every entry through the cursor and checks states
against the state dict.  ``parse_system`` checks its result with
``validate`` (now a test helper in ``conftest``), as the parser once
did itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from futs import logic, monoid as mo
from futs.monoid import Monoid
from futs.system import Component, Futs, Signature
from futs.textio import MAX_NESTING, Diagnostic, ParseError, _fail, _MONOID_NAMES
from futs.weightfn import Leaf, Node, Term, node

from conftest import validate


def _int(tok: Token, digits: str | None = None) -> int:
    """The natural written by ``digits`` (default: the token's value)."""
    digits = tok.value if digits is None else digits
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts from text
        _fail(tok.line, tok.column, f"number too long ({len(digits)} digits)")


@dataclass(slots=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


# one match per token: leading blanks are part of the match, and a
# character no token can start with falls through to ``bad``
_TOKEN_RE = re.compile(
    r"""
    [ \t]*
    (?:
      (?P<comment>\#[^\n]*)
    | (?P<btick>`[^`\n\r]*`)
    | (?P<arrow>->)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]+)*)
    | (?P<star>\*)
    | (?P<nat>[0-9]+)
    | (?P<punct>[{}\[\](),:|<>&/=])
    | (?P<bad>[^ \t])
    )
    """,
    re.VERBOSE,
)


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    out: list[Token] = []
    for lineno, raw in enumerate(text.split("\n"), start=first_line):
        for m in _TOKEN_RE.finditer(raw):
            kind = m.lastgroup
            value = m[kind]
            column = m.start(kind) + 1
            if kind == "btick":
                out.append(Token("ident", value[1:-1], lineno, column))
            elif kind == "star":
                out.append(Token("ident", value, lineno, column))
            elif kind == "bad":
                _fail(lineno, column, f"unexpected character {value!r}")
            elif kind != "comment":
                out.append(Token(kind, value, lineno, column))
    return out


class _Cursor:
    def __init__(self, tokens: list[Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, kind=None, value=None, what="token") -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else self.end_line
            col = last.column + len(last.value) if last else 1
            _fail(line, col, f"expected {what}, found end of input")
        if kind is not None and tok.kind != kind:
            _fail(tok.line, tok.column, f"expected {what}, found {tok.value!r}")
        if value is not None and tok.value != value:
            _fail(tok.line, tok.column, f"expected {value!r}, found {tok.value!r}")
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.value == value and tok.kind != "ident"

    def expect_done(self):
        tok = self.peek()
        if tok is not None:
            _fail(tok.line, tok.column, f"unexpected trailing {tok.value!r}")


def _parse_monoid(cur: _Cursor, nesting: int = 0) -> Monoid:
    tok = cur.next("ident", what="monoid")
    if tok.value in _MONOID_NAMES:
        return _MONOID_NAMES[tok.value]
    if tok.value in ("prod", "pow") and nesting == MAX_NESTING:
        _fail(tok.line, tok.column, f"monoid type nested more than {MAX_NESTING} deep")
    if tok.value == "prod":
        cur.next(value="(")
        factors = [_parse_monoid(cur, nesting + 1)]
        while cur.at(","):
            cur.next()
            factors.append(_parse_monoid(cur, nesting + 1))
        cur.next(value=")")
        return mo.Product(tuple(factors))
    if tok.value == "pow":
        cur.next(value="(")
        cur.next(value="{")
        labels = [cur.next("ident", what="label").value]
        while cur.at(","):
            cur.next()
            labels.append(cur.next("ident", what="label").value)
        cur.next(value="}")
        cur.next(value=",")
        base = _parse_monoid(cur, nesting + 1)
        cur.next(value=")")
        return mo.Power(tuple(labels), base)
    _fail(tok.line, tok.column, f"unknown monoid {tok.value!r}")


def _parse_weight(cur: _Cursor, m: Monoid):
    tok = cur.peek()
    if isinstance(m, mo.BoolOr):
        t = cur.next("ident", what="tt or ff")
        if t.value not in ("tt", "ff"):
            _fail(t.line, t.column, f"expected tt or ff, found {t.value!r}")
        return t.value == "tt"
    if isinstance(m, (mo.NatPlus, mo.NatMax)):
        return _int(cur.next("nat", what="natural number"))
    if isinstance(m, mo.RatPlus):
        t = cur.next("nat", what="rational number")
        num = _int(t)
        if cur.at("/"):
            cur.next()
            den = _int(cur.next("nat", what="denominator"))
            if den == 0:
                _fail(t.line, t.column, "zero denominator")
            return Fraction(num, den)
        return Fraction(num)
    if isinstance(m, mo.Product):
        open_tok = cur.next(value="(")
        values = [_parse_weight(cur, m.factors[0])]
        i = 1
        while cur.at(","):
            cur.next()
            if i >= len(m.factors):
                _fail(open_tok.line, open_tok.column,
                      f"product weight has more than {len(m.factors)} components")
            values.append(_parse_weight(cur, m.factors[i]))
            i += 1
        if i != len(m.factors):
            _fail(open_tok.line, open_tok.column,
                  f"product weight needs {len(m.factors)} components, got {i}")
        cur.next(value=")")
        return tuple(values)
    if isinstance(m, mo.Power):
        open_tok = cur.next(value="{")
        items = []
        if not cur.at("}"):
            while True:
                lab = cur.next("ident", what="label")
                if lab.value not in m.labels:
                    _fail(lab.line, lab.column,
                          f"label {lab.value!r} not in power label set")
                cur.next(value=":")
                items.append((lab.value, _parse_weight(cur, m.base)))
                if not cur.at(","):
                    break
                cur.next()
        cur.next(value="}")
        try:
            return mo.check_weight(m, tuple(items))
        except mo.WeightError as e:
            _fail(open_tok.line, open_tok.column, str(e))
    assert tok is not None
    _fail(tok.line, tok.column, f"cannot parse weight for {mo.format_monoid(m)}")


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
    """Parse a system file; raises ParseError with positioned diagnostics."""
    lines = text.split("\n")
    rows: list[tuple[int, list[Token]]] = []
    for lineno, raw in enumerate(lines, start=1):
        toks = tokenize(raw, lineno)
        if toks:
            rows.append((lineno, toks))
    if not rows:
        _fail(1, 1, "empty input, expected a futs header")
    header_line, header = rows[0]
    if not (header[0].kind == "ident" and header[0].value == "futs"):
        _fail(header[0].line, header[0].column, "expected 'futs' header")
    if len(header) > 1:
        _fail(header[1].line, header[1].column, "unexpected token after header")

    labels: dict[int, tuple[str, ...]] = {}
    monoids: dict[int, tuple[Monoid, ...]] = {}
    states: list[str] | None = None
    leaves: dict[str, Leaf] = {}   # one leaf per state, also the known-state check
    trans: dict[tuple[int, str, str], Node] = {}
    trans_lines: dict[tuple[int, str, str], int] = {}

    def comp_index(tok: Token, prefix: str) -> int:
        m = re.fullmatch(prefix + r"([0-9]+)", tok.value)
        if not m:
            _fail(tok.line, tok.column, f"expected {prefix}<index>, found {tok.value!r}")
        return _int(tok, m.group(1))

    for lineno, toks in rows[1:]:
        cur = _Cursor(toks, lineno)
        head = cur.next("ident", what="directive")
        if head.value == "labels":
            if states is not None:
                _fail(head.line, head.column, "labels line after states line")
            i = comp_index(cur.next("ident", what="A<index>"), "A")
            cur.next(value="=")
            cur.next(value="{")
            labs = [cur.next("ident", what="label").value]
            while cur.at(","):
                cur.next()
                labs.append(cur.next("ident", what="label").value)
            cur.next(value="}")
            cur.expect_done()
            if i in labels:
                _fail(head.line, head.column, f"duplicate labels line for component {i}")
            labels[i] = tuple(labs)
        elif head.value == "monoids":
            if states is not None:
                _fail(head.line, head.column, "monoids line after states line")
            i = comp_index(cur.next("ident", what="M<index>"), "M")
            cur.next(value="=")
            cur.next(value="[")
            ms = [_parse_monoid(cur)]
            while cur.at(","):
                cur.next()
                tok = cur.peek()
                ms.append(_parse_monoid(cur))
                if len(ms) > MAX_NESTING:
                    _fail(tok.line, tok.column, f"more than {MAX_NESTING} monoids in a stack")
            cur.next(value="]")
            cur.expect_done()
            if i in monoids:
                _fail(head.line, head.column, f"duplicate monoids line for component {i}")
            monoids[i] = tuple(ms)
        elif head.value == "states":
            if states is not None:
                _fail(head.line, head.column, "duplicate states line")
            open_tok = cur.next(value="{")
            found = []
            if not cur.at("}"):
                while True:
                    found.append(cur.next("ident", what="state id").value)
                    if not cur.at(","):
                        break
                    cur.next()
            cur.next(value="}")
            cur.expect_done()
            if not found:
                _fail(open_tok.line, open_tok.column, "empty carrier")
            states, leaves = found, {x: Leaf(x) for x in found}
        elif head.value == "trans":
            if states is None:
                _fail(head.line, head.column, "trans line before states line")
            itok = cur.next("nat", what="component index")
            i = _int(itok)
            if i not in labels:
                _fail(itok.line, itok.column, f"unknown component {i}")
            if i not in monoids:
                _fail(itok.line, itok.column, f"missing monoids line for component {i}")
            xtok = cur.next("ident", what="source state")
            if xtok.value not in leaves:
                _fail(xtok.line, xtok.column, f"unknown state {xtok.value!r}")
            atok = cur.next("ident", what="label")
            if atok.value not in labels[i]:
                _fail(atok.line, atok.column, f"unknown label {atok.value!r}")
            cur.next("arrow", what="->")
            term = _parse_term(cur, monoids[i], leaves)
            cur.expect_done()
            key = (i, xtok.value, atok.value)
            if key in trans_lines:
                _fail(head.line, head.column,
                      f"duplicate transition for component {i}, state {xtok.value!r}, "
                      f"label {atok.value!r} (first at line {trans_lines[key]})")
            trans_lines[key] = lineno
            trans[key] = term
        else:
            _fail(head.line, head.column, f"unknown directive {head.value!r}")

    if states is None:
        _fail(len(lines), 1, "missing states line")
    indices = sorted(set(labels) | set(monoids))
    if indices != list(range(len(indices))):
        _fail(1, 1, f"component indices must be contiguous from 0, found {indices}")
    comps = []
    for i in indices:
        if i not in labels:
            _fail(1, 1, f"missing labels line for component {i}")
        if i not in monoids:
            _fail(1, 1, f"missing monoids line for component {i}")
        comps.append(Component(labels[i], monoids[i]))
    if not comps:
        _fail(1, 1, "at least one component (labels/monoids pair) is required")

    s = Futs(Signature(tuple(comps)), states, trans)
    problems = validate(s)
    if problems:
        raise ParseError([Diagnostic(1, 1, msg) for msg in problems])
    return s


def parse_formula(text: str, sig: Signature):
    """Parse a formula against a signature; raises ParseError.  Diamond
    chains and parentheses are read with a stack, so they nest to any depth."""
    cur = _Cursor(tokenize(text), 1)
    outer = []          # per open parenthesis: the enclosing (conjunction, diamond heads)
    phi, heads = None, []
    while True:
        tok = cur.peek()
        if tok is None:
            cur.next(what="formula")
        if tok.kind == "ident" and tok.value == "T":
            cur.next()
            unary = logic.TOP
        elif cur.at("("):
            cur.next()
            outer.append((phi, heads))
            phi, heads = None, []
            continue
        elif cur.at("<"):
            heads.append(_parse_modality(cur, sig))
            continue
        else:
            _fail(tok.line, tok.column, f"expected a formula, found {tok.value!r}")
        while True:  # the unary is complete: wrap it in its diamonds and conjoin
            for i, label, bounds in reversed(heads):
                unary = logic.Diamond(i, label, bounds, unary)
            phi = unary if phi is None else logic.And(phi, unary)
            if cur.at("&"):
                cur.next()
                heads = []
                break
            if not outer:
                cur.expect_done()
                try:
                    return logic.check_formula(phi, sig)
                except logic.FormulaError as e:
                    raise ParseError([Diagnostic(1, 1, str(e))]) from e
            cur.next(value=")")
            unary = phi
            phi, heads = outer.pop()


def _parse_modality(cur: _Cursor, sig: Signature):
    """``<`` ... ``>``: the component index, label and bounds of a diamond."""
    open_tok = cur.next()
    segments: list[list[Token]] = [[]]
    depth = 0
    while True:
        t = cur.peek()
        if t is None:
            _fail(open_tok.line, open_tok.column, "unterminated modality")
        if t.kind == "punct" and t.value in "{([":
            depth += 1
        elif t.kind == "punct" and t.value in "})]":
            depth -= 1
        elif t.kind == "punct" and t.value == ">" and depth == 0:
            cur.next()
            break
        elif t.kind == "punct" and t.value == "|" and depth == 0:
            cur.next()
            segments.append([])
            continue
        segments[-1].append(cur.next())
    i, label, bound_toks = _resolve_modality(segments, sig, open_tok)
    comp = sig.components[i]
    bcur = _Cursor(bound_toks, open_tok.line)
    bounds = [_parse_weight(bcur, comp.monoids[0])]
    j = 1
    while bcur.at(","):
        bcur.next()
        if j >= comp.depth:
            _fail(open_tok.line, open_tok.column,
                  f"too many bounds for component {i} (row length {comp.depth})")
        bounds.append(_parse_weight(bcur, comp.monoids[j]))
        j += 1
    bcur.expect_done()
    if j != comp.depth:
        _fail(open_tok.line, open_tok.column,
              f"expected {comp.depth} bounds for component {i}, got {j}")
    return i, label, tuple(bounds)


def _resolve_modality(segments, sig: Signature, open_tok: Token):
    def single_ident(seg, what):
        if len(seg) != 1 or seg[0].kind != "ident":
            where = seg[0] if seg else open_tok
            _fail(where.line, where.column, f"expected {what}")
        return seg[0]

    if len(segments) == 3:
        itok = segments[0]
        if len(itok) != 1 or itok[0].kind != "nat":
            where = itok[0] if itok else open_tok
            _fail(where.line, where.column, "expected a component index")
        i = _int(itok[0])
        if not 0 <= i < len(sig.components):
            _fail(itok[0].line, itok[0].column, f"component index {i} out of range")
        lab = single_ident(segments[1], "a label")
        if lab.value not in sig.components[i].labels:
            _fail(lab.line, lab.column, f"unknown label {lab.value!r}")
        return i, lab.value, segments[2]
    if len(segments) == 2:
        if len(sig.components) != 1:
            _fail(open_tok.line, open_tok.column,
                  "component index required for multi-component signatures")
        lab = single_ident(segments[0], "a label")
        if lab.value not in sig.components[0].labels:
            _fail(lab.line, lab.column, f"unknown label {lab.value!r}")
        return 0, lab.value, segments[1]
    if len(segments) == 1:
        if len(sig.components) != 1 or len(sig.components[0].labels) != 1:
            _fail(open_tok.line, open_tok.column,
                  "label required unless the signature is unlabelled and nested")
        return 0, sig.components[0].labels[0], segments[0]
    _fail(open_tok.line, open_tok.column, "too many '|' separators in modality")
