"""The string-token reader against the token-object reader it replaced
(``textio_oracle``) on systems and formulas, the write/parse round trip,
and totality of the text entry points."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from futs.monoid import NAT_MAX, NAT_PLUS
from futs.system import Component, Signature
from futs.textio import (
    ParseError,
    parse_formula,
    parse_system,
    write_formula,
    write_system,
)

import textio_oracle as oracle
from conftest import (
    CORPUS_SIGS,
    DATA,
    GOLDEN,
    NESTED3,
    TWO_COMP,
    ULTRAS_RAT,
    WLTS_NAT,
    WLTS_PROD,
    WLTS_RAT,
    random_formula,
    random_futs,
    systems_equal,
    validate,
)

FIXTURES = [p.read_text() for p in sorted(DATA.glob("*.futs")) + sorted(GOLDEN.glob("*.futs"))]
SIGS = [WLTS_NAT, WLTS_RAT, WLTS_PROD, ULTRAS_RAT, NESTED3, TWO_COMP]
ALPHABET = "{}[](),:|<>&/=-*#`' \t\nabfmstx_01279é\r"


def outcome(fn, text):
    try:
        return "value", fn(text)
    except ParseError as e:
        return "error", [d.render() for d in e.diagnostics]


def assert_same_as_oracle(text):
    new, old = outcome(parse_system, text), outcome(oracle.parse_system, text)
    assert new[0] == old[0]
    if new[0] == "value":
        assert systems_equal(new[1], old[1]) and validate(new[1]) == []
        assert write_system(new[1]) == write_system(old[1])
    else:
        assert new[1] == old[1]


def vary(rng: random.Random, text: str) -> str:
    """Other blanks (runs of spaces and tabs, trailing blanks, comments and
    blank lines), and some weights written as zeros: ``ff`` for ``tt``,
    ``0`` for a natural or a numerator."""
    out = []
    for line in text.split("\n"):
        line = re.sub(r": (tt|[0-9]+)", lambda m: m[0] if rng.random() < 0.7
                      else ": ff" if m[1] == "tt" else ": 0", line)
        line = "".join(rng.choice((" ", "\t", "  ", " \t")) if c == " " else c for c in line)
        out.append(line + rng.choice(("", " ", "\t", "  # note", "#")))
        if rng.random() < 0.2:
            out.append(rng.choice(("", "   ", "# comment -> { x }")))
    return "\n".join(out)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SIGS), st.integers(1, 6), st.randoms(use_true_random=False))
def test_generated_systems_agree_with_oracle(sig, n, rng):
    text = write_system(random_futs(rng, sig, n))
    assert_same_as_oracle(text)
    assert_same_as_oracle(vary(rng, text))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([sig for sig in CORPUS_SIGS if len(sig.components) > 1]),
       st.integers(1, 6), st.randoms(use_true_random=False))
def test_multi_component_round_trip(sig, n, rng):
    s = random_futs(rng, sig, n)
    assert systems_equal(parse_system(write_system(s)), s)


# two components whose term texts also read on each other's stack: the
# corpus's multi-component signatures stack different depths
SAME_DEPTH = [
    Signature((Component(("a",), (NAT_PLUS,)), Component(("b",), (NAT_MAX,)))),
    Signature((Component(("a", "b"), (NAT_PLUS, NAT_PLUS)), Component(("c",), (NAT_MAX, NAT_PLUS)))),
]


@st.composite
def copied_term_lines(draw):
    """A written system with term texts copied onto other states and other
    components: into a free slot, over a slot's line, or beside it (a
    duplicate transition).  A copy need not read on its new stack."""
    sig = draw(st.sampled_from(CORPUS_SIGS + SAME_DEPTH))
    rng = draw(st.randoms(use_true_random=False))
    s = random_futs(rng, sig, draw(st.integers(1, 6)), draw(st.sampled_from([0.3, 0.6, 0.9])))
    lines = write_system(s).split("\n")
    texts = {}  # (component, state, label) -> the "-> term" texts of its lines
    for line in lines:
        if line.startswith("trans "):
            _trans, i, x, a, rest = line.split(" ", 4)
            texts[(i, x, a)] = [rest]
    slots = [(str(i), x, a) for i, c in enumerate(sig.components) for x in s.states
             for a in c.labels]
    for _ in range(draw(st.integers(0 if texts else 1, 8))):
        term = rng.choice(sorted(texts.values()) or [["-> {}"]])[0]
        slot = rng.choice(slots)
        if draw(st.integers(0, 9)):
            texts[slot] = [term]
        else:
            texts.setdefault(slot, []).append(term)
    trans = [f"trans {i} {x} {a} {rest}" for (i, x, a), rests in texts.items() for rest in rests]
    rng.shuffle(trans)
    return "\n".join([line for line in lines if line and not line.startswith("trans ")] + trans)


@settings(deadline=None, max_examples=150)
@given(copied_term_lines())
def test_copied_term_texts_agree_with_oracle(text):
    """Equal systems or byte-identical diagnostics; in a system read, the
    lines of one component with one term text share one ``Node``."""
    assert_same_as_oracle(text)
    kind, s = outcome(parse_system, text)
    if kind == "value":
        first = {}
        for line in text.split("\n"):
            if line.startswith("trans "):
                _trans, i, x, a, rest = line.split(" ", 4)
                term = s.trans.get((int(i), x, a))  # the zero term is not stored
                assert term is None or first.setdefault((i, rest), term) is term


def mutate(text: str, where: int, op: str, char: str) -> str:
    i = where % (len(text) + 1)
    if op == "delete":
        return text[:i] + text[i + 1:]
    if op == "insert":
        return text[:i] + char + text[i:]
    return text[:i] + char + text[i + 1:]


EDITS = (st.integers(0, 10**6), st.sampled_from("delete insert replace"),
         st.sampled_from(ALPHABET))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FIXTURES), *EDITS)
def test_fixture_mutations_agree_with_oracle(text, where, op, char):
    assert_same_as_oracle(mutate(text, where, op, char))


@pytest.mark.parametrize("term", [
    "{ x: 1 `,` y: 2 }", "{ x: 1 `}`", "{ x `:` 1 }", "{ `x`: 1, y: 2 }", "{ x: `1` }",
    "{ x: 1, }", "{ x: 1 y: 2 }", "{ x: 01, y: 0 }", "{ z: 1 }", "{ x: 1", "{ x: 1 } }",
])
@pytest.mark.parametrize("monoid", ["nat-plus", "nat-max", "rat-plus", "bool-or"])
def test_odd_terms_agree_with_oracle(term, monoid):
    """Quoted punctuation, stray or missing separators and braces."""
    if monoid == "bool-or":
        term = term.replace("1", "tt").replace("2", "ff")
    assert_same_as_oracle(f"futs\nlabels A0 = {{ a }}\nmonoids M0 = [ {monoid} ]\n"
                          f"states {{ x, y }}\ntrans 0 x a -> {term}\n")


ODD_HEAD = "futs\nlabels A0 = { a, b }\nmonoids M0 = [ nat-plus ]\nstates { x, y }\n"


@pytest.mark.parametrize("text", [
    ODD_HEAD + "trans 0 x a -> { `x`",
    ODD_HEAD.replace("x, y", "x, a-b, `*`") + "trans 0 a-b a -> { a-b: 1, `a-b`: 2, *: 3 }\n",
    ODD_HEAD.replace("x, y", "x, `"),
    ODD_HEAD.replace("x, y", "x, ``") + "trans 0 x a -> { ``: 1 }\n",
], ids=["end-after-quoted", "state-spellings", "lone-backtick", "empty-name"])
def test_odd_systems_agree_with_oracle(text):
    """End of input just past a quoted identifier, states spelled bare
    and quoted, and backticks that quote nothing or an empty name."""
    assert_same_as_oracle(text)


@pytest.mark.parametrize("text", [
    "T &  <a|> T", "<a|1/  > T", "<a|(1,  > T", "<1/  > T", "<a|(1> T", "<`a`|1> T",
    "<a|1 2> T", "<a|1", "<a", "(T & <b|2> T", "T\n  & <a|`x`> T", "<a|b|1> T", "<0|a|1> T",
    "", " # T",
], ids=["empty-bounds", "bounds-end", "product-end", "unlabelled-end", "paren-bound",
        "quoted-label", "trailing-bound", "unterminated", "unterminated-label",
        "unclosed-paren", "two-lines", "too-many-bars", "index-on-one-component", "empty",
        "comment"])
@pytest.mark.parametrize("sig", [WLTS_NAT, WLTS_RAT, WLTS_PROD], ids=["nat", "rat", "prod"])
def test_odd_formulas_agree_with_oracle(text, sig):
    """Diagnostics inside and at the end of a diamond's bounds, and at the
    end of input, against the oracle."""
    assert_formula_same_as_oracle(text, sig)


def test_bad_character_is_reported_before_an_earlier_directive_error():
    """An unexpected character anywhere in the file is reported first, as
    if every line were tokenized before any is read."""
    text = ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { x }\n"
            "nonsense 1\ntrans 0 x a -> { x: 1 }\n\n# a comment: é\n"
            "trans 0 x a -> { x: 2 } é\n")
    expected = ("error", ["9:25: error: unexpected character 'é'"])
    assert outcome(parse_system, text) == outcome(oracle.parse_system, text) == expected


def assert_formula_same_as_oracle(text, sig):
    new = outcome(lambda t: parse_formula(t, sig), text)
    assert new == outcome(lambda t: oracle.parse_formula(t, sig), text)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False),
       st.lists(st.tuples(*EDITS), min_size=1, max_size=3))
def test_formulas_agree_with_oracle(sig, rng, edits):
    """Written random formulas, then the same text with one to three
    characters deleted, inserted or replaced from ``ALPHABET``: equal
    formulas, or byte-identical diagnostics."""
    text = write_formula(random_formula(rng, sig, 4), sig)
    assert_formula_same_as_oracle(text, sig)
    for edit in edits:
        text = mutate(text, *edit)
    assert_formula_same_as_oracle(text, sig)


# --- totality: a value or a ParseError, nothing else ---------------------------

PIECES = ["futs", "labels", "monoids", "states", "trans", "A0", "A1", "M0", "M1", "=",
          "{", "}", "[", "]", "(", ")", ",", ":", "->", "-", "/", "|", "<", ">", "&", "*",
          "nat-plus", "nat-max", "bool-or", "rat-plus", "prod", "pow", "x", "y", "a", "b",
          "0", "1", "2", "tt", "ff", "T", "`x'`", "``", "#", " ", "\t", "\n", "é"]
HEADER = "futs\nlabels A0 = { a, b }\nmonoids M0 = [ nat-plus ]\nstates { x, y }\n"
MONOIDS = ["nat-plus", "bool-or, rat-plus", "prod(nat-max, pow({ a }, nat-plus))", "rat-plus"]
TRANS = ["trans {i} x a -> {{ y: 1, x: 2 }}", "trans {i} y b -> {{ {{ x: 1/2 }}: tt }}",
         "trans {i} x a -> {{ x: (1, {{ a: 2 }}) }}", "trans {i} y a -> {{ }}", "trans {i} x b -> {{ y: 0 }}"]


@st.composite
def system_lines(draw, max_trans: int = 3):
    """Directive lines in a plausible order, any of which may be missing."""
    lines = ["futs"]
    for i in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            lines.append(f"labels A{i} = {{ a, b }}")
        if draw(st.booleans()):
            lines.append(f"monoids M{i} = [ {draw(st.sampled_from(MONOIDS))} ]")
    lines.append(draw(st.sampled_from(["states { x, y }", "states { }", "states { x, x }", ""])))
    for _ in range(draw(st.integers(0, max_trans))):
        lines.append(draw(st.sampled_from(TRANS)).format(i=draw(st.integers(0, 2))))
    return "\n".join(lines)


TEXTS = st.one_of(
    st.text(max_size=60),
    st.text(ALPHABET, max_size=60),
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.lists(st.sampled_from(PIECES), max_size=40).map(lambda ps: HEADER + "".join(ps)),
    system_lines(),
)
FORMULA_SIGS = [parse_system((DATA / name).read_text()).sig for name in ("fig1.futs", "w3.futs")]


def value_or_parse_error(fn, *args):
    try:
        fn(*args)
    except ParseError:
        pass


@settings(deadline=None, max_examples=300)
@given(TEXTS)
def test_parse_system_is_total(text):
    value_or_parse_error(parse_system, text)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FORMULA_SIGS + [TWO_COMP, NESTED3]), TEXTS)
def test_parse_formula_is_total(sig: Signature, text):
    value_or_parse_error(parse_formula, text, sig)


# texts of 60 to 400 characters: long enough for several lines, diamonds
# and nested terms, where the short texts above stop
LONG_TEXTS = st.one_of(
    st.text(min_size=60, max_size=400),
    st.text(ALPHABET, min_size=60, max_size=400),
    st.lists(st.sampled_from(PIECES), min_size=60, max_size=200).map("".join),
    st.tuples(system_lines(max_trans=12), st.lists(st.sampled_from(PIECES), max_size=60))
    .map(lambda t: t[0] + "\n" + "".join(t[1])),
).map(lambda text: text[:400]).filter(lambda text: len(text) >= 60)


@st.composite
def long_formula_texts(draw, sig: Signature):
    """Written random formulas joined by ``&`` up to 60 characters or
    more, with one character edited."""
    rng = draw(st.randoms(use_true_random=False))
    text = write_formula(random_formula(rng, sig, 4), sig)
    while len(text) < 61:  # a deleted character leaves 60
        text += " & " + write_formula(random_formula(rng, sig, 4), sig)
    return mutate(text, *(draw(e) for e in EDITS))[:400]


@settings(deadline=None, max_examples=200)
@given(LONG_TEXTS)
def test_parse_system_is_total_on_long_texts(text):
    assert 60 <= len(text) <= 400
    value_or_parse_error(parse_system, text)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(FORMULA_SIGS + [TWO_COMP, NESTED3]), st.data())
def test_parse_formula_is_total_on_long_texts(sig: Signature, data):
    text = data.draw(st.one_of(LONG_TEXTS, long_formula_texts(sig)))
    assert 60 <= len(text) <= 400
    value_or_parse_error(parse_formula, text, sig)


def test_trans_without_monoids_line_is_diagnosed():
    text = "futs\nlabels A0 = { a }\nstates { x }\ntrans 0 x a -> { x: 1 }\n"
    kind, diagnostics = outcome(parse_system, text)
    assert (kind, diagnostics) == ("error", ["4:7: error: missing monoids line for component 0"])
