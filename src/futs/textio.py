"""Text format for systems and formulas, with positioned diagnostics.

System files are line oriented::

    futs
    labels A0 = { a, b }
    monoids M0 = [ bool-or, rat-plus ]
    states { s0, s1, s2, s3 }
    trans 0 s0 a -> { { s0: 1/2, s1: 1/2 }: tt }

Weight terms nest braces to the component's depth; missing transition
lines denote the zero term.  Weight literals are ``tt``/``ff``, naturals,
``p/q`` rationals, ``(w, ..., w)`` product tuples and ``{ label: w, ... }``
power maps.  Names other than ``[A-Za-z_][A-Za-z0-9_]*`` (``#level:...``
states, the ``*`` label) are written backtick-quoted; bare ``*`` and
hyphenated names read too.  ``#`` outside backticks starts a comment.

The writer emits a canonical form (components, states, labels and term
keys sorted) and ``parse_system(write_system(s))`` returns an identical
system.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import TYPE_CHECKING

from .monoid import Monoid, quote_id
from . import monoid as mo
from .system import Component, Futs, Signature
from .weightfn import Leaf, Node, canonical_node, format_term

if TYPE_CHECKING:  # formulas are imported where they are read or written
    from .logic import Formula


class Diagnostic:
    def __init__(self, line: int, column: int, message: str):
        self.line, self.column, self.message = line, column, message

    def render(self) -> str:
        return f"{self.line}:{self.column}: error: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


def _fail(line: int, column: int, message: str):
    raise ParseError([Diagnostic(line, column, message)])


class _At(ValueError):  # a ValueError where write_system applies a reader's rule
    """A diagnostic at token ``index`` of the token list being read, or
    ``shift`` columns past that token's start (``None``: column 1 of its
    line).  Tokens are plain strings without positions; ``_raise_at``
    finds the line and column again from the text."""

    def __init__(self, index: int, message: str, shift: int | None = 0):
        super().__init__(message)
        self.index, self.message, self.shift = index, message, shift


# one match per token, which is the group: leading blanks are skipped, and
# a character no token can start with is a (bad) token of its own
_TOKEN_RE = re.compile(
    r"""
    [ \t]*
    ( \#[^\n]*                                      # a comment
    | `[^`\n\r]*`                                   # a quoted identifier
    | ->
    | [A-Za-z_][A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]+)*
    | \*
    | [0-9]+
    | [{}\[\](),:|<>&/=]
    | [^ \t]
    )
    """,
    re.VERBOSE,
)
# a token's kind is read off its first character; a bad token is one
# character, and no other one-character token
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_IDENT_START = frozenset(_LETTERS + "_*`")
_DIGITS = frozenset("0123456789")
_ONE_CHAR = frozenset(_LETTERS + "0123456789_*{}[](),:|<>&/=")


def _tokens(raw: str, pieces: dict | None = None) -> list[str]:
    """The tokens of one line, its comment dropped, then ``""`` for its end.  No token but
    a comment or a quoted name holds a blank, so with ``pieces`` a line with neither is
    read one blank-free piece at a time, each piece's tokens kept in ``pieces``."""
    if pieces is None or "#" in raw or "`" in raw:
        toks = _TOKEN_RE.findall(raw)
        return toks[:-1] + [""] if toks and toks[-1][0] == "#" else toks + [""]
    toks = []
    for piece in raw.split(" "):
        toks += pieces.get(piece) or pieces.setdefault(piece, _TOKEN_RE.findall(piece))
    return toks + [""]


def _value(tok: str) -> str:
    """A token as diagnostics quote it: identifiers without backticks."""
    return tok[1:-1] if tok[:1] == "`" else tok


def _name(tok: str) -> str | None:
    """The identifier a token spells, or None if it is not an identifier."""
    return _value(tok) if tok[:1] in _IDENT_START and tok != "`" else None


def _scan(lines, first_line: int):
    """(line, column, token) for each token of ``lines``, comments dropped."""
    for lineno, raw in enumerate(lines, start=first_line):
        for m in _TOKEN_RE.finditer(raw):
            if m[1][0] != "#":
                yield lineno, m.start(1) + 1, m[1]


def _raise_at(e: _At, toks: list[str], lines: list[str], first_line: int):
    """Report ``e``, raised reading ``toks``, the tokens of ``lines`` from
    their first.  As if every line were tokenized before any is read, an
    unexpected character anywhere in ``lines`` is reported instead."""
    for lineno, column, tok in _scan(lines, first_line):
        if len(tok) == 1 and tok not in _ONE_CHAR:
            _fail(lineno, column, f"unexpected character {tok!r}")
    index, shift = e.index, e.shift
    if not toks[index]:  # the end of input: just past the last token
        if index == 0:
            _fail(first_line, 1, e.message)
        index, shift = index - 1, len(_value(toks[index - 1]))
    lineno, column, _ = next(itertools.islice(_scan(lines, first_line), index, None))
    _fail(lineno, 1 if shift is None else column + shift, e.message)


def _expected(toks: list[str], i: int, what: str):
    found = repr(_value(toks[i])) if toks[i] else "end of input"
    raise _At(i, f"expected {what}, found {found}")


def _skip(toks: list[str], i: int, value: str) -> int:
    """The index past token ``i``, which must spell ``value``."""
    tok = toks[i]
    if tok != value and _value(tok) != value:
        _expected(toks, i, repr(value) if tok else "token")
    return i + 1


def _done(toks: list[str], i: int):
    if toks[i]:
        raise _At(i, f"unexpected trailing {_value(toks[i])!r}")


def _ident(toks: list[str], i: int, what: str) -> str:
    name = _name(toks[i])
    if name is None:
        _expected(toks, i, what)
    return name


def _idents(toks: list[str], i: int, what: str) -> tuple[list[str], int]:
    """Identifiers separated by ``,`` from token ``i``, and the index past them."""
    names = [_ident(toks, i, what)]
    while toks[i + 1] == ",":
        i += 2
        names.append(_ident(toks, i, what))
    return names, i + 1


def _int(toks: list[str], i: int, digits: str | None = None) -> int:
    """The natural written by ``digits`` (default: token ``i``)."""
    digits = toks[i] if digits is None else digits
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts from text
        raise _At(i, f"number too long ({len(digits)} digits)") from None


def _nat(toks: list[str], i: int, what: str) -> int:
    if toks[i][:1] not in _DIGITS:
        _expected(toks, i, what)
    return _int(toks, i)


# --- monoid and weight parsing ----------------------------------------------
# Each reader takes the token list and the index of its first token, and
# returns what it read and the index past it.

_MONOID_NAMES = {m._name: m for m in (mo.BOOL_OR, mo.NAT_PLUS, mo.NAT_MAX, mo.RAT_PLUS)}


# the most prod(/pow( levels a monoid type nests, and the most monoids in
# one stack: weights and terms are read and written recursively
MAX_NESTING = 100


def _parse_monoid(toks: list[str], i: int, nesting: int = 0) -> tuple[Monoid, int]:
    name = _ident(toks, i, "monoid")
    if name in _MONOID_NAMES:
        return _MONOID_NAMES[name], i + 1
    if name in ("prod", "pow") and nesting == MAX_NESTING:
        raise _At(i, f"monoid type nested more than {MAX_NESTING} deep")
    if name == "prod":
        m, j = _parse_monoid(toks, _skip(toks, i + 1, "("), nesting + 1)
        factors = [m]
        while toks[j] == ",":
            m, j = _parse_monoid(toks, j + 1, nesting + 1)
            factors.append(m)
        return mo.Product(tuple(factors)), _skip(toks, j, ")")
    if name == "pow":
        labels, j = _idents(toks, _skip(toks, _skip(toks, i + 1, "("), "{"), "label")
        base, j = _parse_monoid(toks, _skip(toks, _skip(toks, j, "}"), ","), nesting + 1)
        return mo.Power(tuple(labels), base), _skip(toks, j, ")")
    raise _At(i, f"unknown monoid {name!r}")


def _parse_stack(toks: list[str], i: int) -> tuple[tuple[Monoid, ...], int]:
    ms, j = [], i
    while not ms or toks[j] == ",":  # the first monoid follows the '[', each other a ','
        m, k = _parse_monoid(toks, _skip(toks, j, "," if ms else "["))
        ms.append(m)
        if len(ms) > MAX_NESTING:
            raise _At(j + 1, f"more than {MAX_NESTING} monoids in a stack")
        j = k
    return tuple(ms), _skip(toks, j, "]")


def _nat_weight(toks: list[str], i: int, m: Monoid):
    return _nat(toks, i, "natural number"), i + 1


def _bool_weight(toks: list[str], i: int, m: Monoid):
    name = _ident(toks, i, "tt or ff")
    if name != "tt" and name != "ff":
        raise _At(i, f"expected tt or ff, found {name!r}")
    return name == "tt", i + 1


def _rat_weight(toks: list[str], i: int, m: Monoid):
    num = _nat(toks, i, "rational number")
    if toks[i + 1] != "/":
        return m._payload(num), i + 1
    den = _nat(toks, i + 2, "denominator")
    if den == 0:
        raise _At(i, "zero denominator")
    return m._payload(num, den), i + 3


def _product_weight(toks: list[str], i: int, m: Monoid):
    n = len(m.factors)
    w, j = _parse_weight(toks, _skip(toks, i, "("), m.factors[0])
    values = [w]
    while toks[j] == ",":
        if len(values) >= n:
            raise _At(i, f"product weight has more than {n} components")
        w, j = _parse_weight(toks, j + 1, m.factors[len(values)])
        values.append(w)
    if len(values) != n:
        raise _At(i, f"product weight needs {n} components, got {len(values)}")
    return tuple(values), _skip(toks, j, ")")


def _power_weight(toks: list[str], i: int, m: Monoid):
    j, items = _skip(toks, i, "{"), []
    if toks[j] != "}":
        while True:
            label = _ident(toks, j, "label")
            if label not in m.labels:
                raise _At(j, f"label {label!r} not in power label set")
            w, j = _parse_weight(toks, _skip(toks, j + 1, ":"), m.base)
            items.append((label, w))
            if toks[j] != ",":
                break
            j += 1
    j = _skip(toks, j, "}")
    try:
        return mo.check_weight(m, tuple(items)), j
    except mo.WeightError as e:
        raise _At(i, str(e)) from None


# the weight reader of each descriptor class: (toks, i, m) -> (weight, index past it)
_WEIGHT_READERS = {mo.NatPlus: _nat_weight, mo.NatMax: _nat_weight, mo.BoolOr: _bool_weight,
                   mo.RatPlus: _rat_weight, mo.Product: _product_weight, mo.Power: _power_weight}


def _parse_weight(toks: list[str], i: int, m: Monoid):
    return _WEIGHT_READERS[type(m)](toks, i, m)


def _state(toks: list[str], i: int, leaves: dict[str, Leaf], what: str = "state id") -> Leaf:
    leaf = leaves.get(toks[i])
    if leaf is None:
        raise _At(i, f"unknown state {_ident(toks, i, what)!r}")
    return leaf


def _parse_term(toks: list[str], i: int, stack: tuple[Monoid, ...],
                leaves: dict[str, Leaf]) -> tuple[Node, int]:
    """A weight term over ``stack``; ``leaves`` maps each spelling of a
    state (quoted, and bare where that is one identifier) to its one leaf."""
    j = _skip(toks, i, "{")
    outer, rest = stack[0], stack[1:]
    read, triples = _WEIGHT_READERS[type(outer)], []
    if toks[j] != "}":
        while True:
            if rest:
                key, k = _parse_term(toks, j, rest, leaves)
                try:  # the key text, kept in key._key; str() refuses
                    format_term(key, True)  # integers longer than sys.get_int_max_str_digits()
                except ValueError:
                    raise _At(j, f"a sum of weights has more than {sys.get_int_max_str_digits()} "
                                 "digits, too many to write") from None
                j = k
            else:
                key, j = leaves.get(toks[j]) or _state(toks, j, leaves), j + 1
            w, j = read(toks, j + 1 if toks[j] == ":" else _skip(toks, j, ":"), outer)
            triples.append((key._key if rest else key.state, key, w))  # checked as read
            if toks[j] != ",":
                break
            j += 1
    return canonical_node(stack, triples), _skip(toks, j, "}")


# --- system files ------------------------------------------------------------

def _comp_index(toks: list[str], prefix: str) -> int:
    name = _ident(toks, 1, f"{prefix}<index>")
    m = re.fullmatch(prefix + r"([0-9]+)", name)
    if not m:
        raise _At(1, f"expected {prefix}<index>, found {name!r}")
    return _int(toks, 1, m.group(1))


def parse_system(text: str) -> Futs:
    """Parse a system file; raises ParseError with positioned diagnostics.  Each line is read
    in turn, but a ``trans`` line whose head (before its first `` -> ``) is 4 tokens, with no
    backtick or ``#``, gets the ``Node`` read from its raw term text on its component, if any."""
    lines = text.split("\n")
    header, pieces = False, {}  # pieces: see _tokens
    labels: dict[int, tuple[str, ...]] = {}
    monoids: dict[int, tuple[Monoid, ...]] = {}
    states: list[str] | None = None
    leaves: dict[str, Leaf] = {}   # see _parse_term; also the known-state check
    trans: dict[tuple[int, str, str], Node] = {}
    trans_lines: dict[tuple[int, str, str], int] = {}
    read: dict[int, dict[str, Node]] = {}  # per component, raw term text -> the term read from it

    for lineno, raw in enumerate(lines, start=1):
        before, arrow, text = raw.partition(" -> ")
        plain = arrow and before.startswith("trans ") and "`" not in before and "#" not in before
        toks = _tokens(before, pieces)[:-1] + ["->"] if plain else _tokens(raw)
        if not toks[0]:
            continue
        try:
            if not header:
                if _name(toks[0]) != "futs":
                    raise _At(0, "expected 'futs' header")
                if toks[1]:
                    raise _At(1, "unexpected token after header")
                header = True
                continue
            head = "trans" if plain else _ident(toks, 0, "directive")
            if head == "trans":
                if states is None:
                    raise _At(0, "trans line before states line")
                i = _nat(toks, 1, "component index")
                if i not in labels:
                    raise _At(1, f"unknown component {i}")
                if i not in monoids:
                    raise _At(1, f"missing monoids line for component {i}")
                x = _state(toks, 2, leaves, "source state").state
                label = _ident(toks, 3, "label")
                if label not in labels[i]:
                    raise _At(3, f"unknown label {label!r}")
                if toks[4] != "->":
                    _expected(toks, 4, "->")
                term = read[i].get(text) if plain and len(toks) == 5 else None
                if term is None:
                    if plain:  # the head's tokens, then the term's
                        toks += _tokens(text, pieces)
                    term, j = _parse_term(toks, 5, monoids[i], leaves)
                    _done(toks, j)
                    if plain:
                        read[i][text] = term
                key = (i, x, label)
                if key in trans_lines:
                    raise _At(0, f"duplicate transition for component {i}, state {x!r}, "
                                 f"label {label!r} (first at line {trans_lines[key]})")
                trans_lines[key] = lineno
                trans[key] = term
            elif head == "labels":
                if states is not None:
                    raise _At(0, "labels line after states line")
                i = _comp_index(toks, "A")
                labs, j = _idents(toks, _skip(toks, _skip(toks, 2, "="), "{"), "label")
                _done(toks, _skip(toks, j, "}"))
                if i in labels:
                    raise _At(0, f"duplicate labels line for component {i}")
                labels[i] = tuple(labs)
            elif head == "monoids":
                if states is not None:
                    raise _At(0, "monoids line after states line")
                i = _comp_index(toks, "M")
                ms, j = _parse_stack(toks, _skip(toks, 2, "="))
                _done(toks, j)
                if i in monoids:
                    raise _At(0, f"duplicate monoids line for component {i}")
                monoids[i], read[i] = ms, {}
            elif head == "states":
                if states is not None:
                    raise _At(0, "duplicate states line")
                j, found = _skip(toks, 1, "{"), []
                if toks[j] != "}":
                    found, j = _idents(toks, j, "state id")
                _done(toks, _skip(toks, j, "}"))
                if not found:
                    raise _At(1, "empty carrier")
                states = found
                for x in found:
                    leaves[f"`{x}`"] = leaf = Leaf(x)
                    # a bare name as quote_id writes it reads as itself; the regex asks the rest
                    if (x.isascii() and x.isidentifier()
                            or _TOKEN_RE.findall(x) == [x] and x[0] in _IDENT_START):
                        leaves[x] = leaf
            else:
                raise _At(0, f"unknown directive {head!r}")
        except _At as e:
            _raise_at(e, toks, lines[lineno - 1:], lineno)

    if not header:
        _fail(1, 1, "empty input, expected a futs header")
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

    # every check of validate (now in tests/conftest.py) was made above, line by line
    return Futs(Signature(tuple(comps)), states, trans)


def write_system(s: Futs) -> str:
    """Canonical text form; stable across runs and round-trip safe."""
    out = ["futs"]
    for i, comp in enumerate(s.sig.components):
        labs = ", ".join(quote_id(a) for a in comp.labels)
        mons = "[ " + ", ".join(mo.format_monoid(m) for m in comp.monoids) + " ]"
        _parse_stack(_tokens(mons), 0)  # the reader's monoid and stack rules, so it reads back
        out.append(f"labels A{i} = {{ {labs} }}")
        out.append(f"monoids M{i} = {mons}")
    out.append("states { " + ", ".join(quote_id(x) for x in s.states) + " }")
    for (i, x, a), term in sorted(s.trans.items()):  # keys are unique: no term is compared
        line = f"trans {i} {quote_id(x)} {quote_id(a)}"
        try:
            out.append(f"{line} -> {format_term(term)}")
        except ValueError:  # str() refuses integers longer than sys.get_int_max_str_digits()
            raise ValueError(f"{line}: a weight has more than {sys.get_int_max_str_digits()} "
                             "digits, too many to write") from None
    return "\n".join(out) + "\n"


# --- formulas -----------------------------------------------------------------

def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a formula against a signature; raises ParseError.  Diamond
    chains and parentheses are read with a stack, so they nest to any depth."""
    from .logic import TOP, And, Diamond
    lines = text.split("\n")
    toks = [tok for raw in lines for tok in _tokens(raw)[:-1]] + [""]
    outer = []          # per open parenthesis: the enclosing (conjunction, diamond heads)
    phi, heads, i = None, [], 0
    try:
        while True:
            if _name(toks[i]) == "T":
                unary, i = TOP, i + 1
            elif toks[i] == "(":
                outer.append((phi, heads))
                phi, heads, i = None, [], i + 1
                continue
            elif toks[i] == "<":
                head, i = _parse_modality(toks, i, sig)
                heads.append(head)
                continue
            else:
                _expected(toks, i, "a formula" if toks[i] else "formula")
            while True:  # the unary is complete: wrap it in its diamonds and conjoin
                for c, label, bounds in reversed(heads):
                    unary = Diamond(c, label, bounds, unary)
                phi = unary if phi is None else And(phi, unary)
                if toks[i] == "&":
                    heads, i = [], i + 1
                    break
                if not outer:
                    _done(toks, i)
                    return phi  # checked as read, bounds canonical: check_formula keeps it
                unary, i = phi, _skip(toks, i, ")")
                phi, heads = outer.pop()
    except _At as e:
        _raise_at(e, toks, lines, 1)


def _parse_modality(toks: list[str], i: int, sig: Signature):
    """``<`` ... ``>`` from token ``i``: the component index, label and
    bounds of a diamond, and the index past it."""
    cuts, depth = [i], 0  # the '<', each '|' outside brackets, then the '>'
    while toks[cuts[-1]] != ">":
        i += 1
        if not toks[i]:
            raise _At(cuts[0], "unterminated modality")
        if toks[i] in ("{", "(", "["):
            depth += 1
        elif toks[i] in ("}", ")", "]"):
            depth -= 1
        elif depth == 0 and toks[i] in ("|", ">"):
            cuts.append(i)
    start, segments = cuts[0], [(a + 1, b) for a, b in zip(cuts, cuts[1:])]
    c, label, (a, b) = _resolve_modality(toks, segments, sig, start)
    comp = sig.components[c]
    bound = toks[a:b] + [""]
    try:  # positions in ``bound``: the '<' is at start - a
        w, j = _parse_weight(bound, 0, comp.monoids[0])
        bounds = [w]
        while bound[j] == ",":
            if len(bounds) >= comp.depth:
                raise _At(start - a, f"too many bounds for component {c} "
                                     f"(row length {comp.depth})")
            w, j = _parse_weight(bound, j + 1, comp.monoids[len(bounds)])
            bounds.append(w)
        _done(bound, j)
    except _At as e:  # back to positions in ``toks``; the end of the bounds is just
        if e.index < b - a:  # past their last token, or column 1 when there is none
            e.index += a
        elif b > a:
            e.index, e.shift = b - 1, len(_value(toks[b - 1]))
        else:
            e.index, e.shift = start, None
        raise
    if len(bounds) != comp.depth:
        raise _At(start, f"expected {comp.depth} bounds for component {c}, got {len(bounds)}")
    return (c, label, tuple(bounds)), i + 1


def _resolve_modality(toks: list[str], segments, sig: Signature, start: int):
    """The component, label and bounds segment of the diamond whose ``<`` is
    token ``start``; ``segments`` are the index ranges between its ``|``s."""
    if len(segments) > 3:
        raise _At(start, "too many '|' separators in modality")
    if len(segments) == 1:
        if len(sig.components) != 1 or len(sig.components[0].labels) != 1:
            raise _At(start, "label required unless the signature is unlabelled and nested")
        return 0, sig.components[0].labels[0], segments[0]
    c = 0
    if len(segments) == 3:
        a, b = segments[0]
        if b - a != 1 or toks[a][:1] not in _DIGITS:
            raise _At(a if b > a else start, "expected a component index")
        c = _int(toks, a)
        if not 0 <= c < len(sig.components):
            raise _At(a, f"component index {c} out of range")
    elif len(sig.components) != 1:
        raise _At(start, "component index required for multi-component signatures")
    a, b = segments[-2]
    label = _name(toks[a]) if b - a == 1 else None
    if label is None:
        raise _At(a if b > a else start, "expected a label")
    if label not in sig.components[c].labels:
        raise _At(a, f"unknown label {label!r}")
    return c, label, segments[-1]


def write_formula(phi: Formula, sig: Signature) -> str:
    """The text ``parse_formula`` reads back; a formula's text is built as a
    tree of pieces shared where the formula is, then joined in one pass."""
    from .logic import And, fold

    def diamond(f, body):
        comp = sig.components[f.component]
        bounds = ", ".join(mo.format_weight(m, b) for m, b in zip(comp.monoids, f.bounds))
        if len(sig.components) > 1:
            head = f"<{f.component}|{quote_id(f.label)}|{bounds}> "
        elif len(comp.labels) > 1:
            head = f"<{quote_id(f.label)}|{bounds}> "
        else:
            head = f"<{bounds}> "
        return (head, ("(", body, ")") if isinstance(f.body, And) else body)

    def conjunction(f, left, right):
        return (left, " & ", ("(", right, ")") if isinstance(f.right, And) else right)

    out, stack = [], [fold(phi, "T", conjunction, diamond)]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack += reversed(piece)
    return "".join(out)
