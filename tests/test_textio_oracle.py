"""The one-match tokenizer and the direct term parser against the old code
(``textio_oracle``), and totality of the text entry points."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from futs.system import Signature, systems_equal, validate
from futs.textio import ParseError, parse_formula, parse_system, tokenize, write_system

import textio_oracle as oracle
from conftest import (
    DATA,
    GOLDEN,
    NESTED3,
    TWO_COMP,
    ULTRAS_RAT,
    WLTS_NAT,
    WLTS_PROD,
    WLTS_RAT,
    random_futs,
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
    kind, toks = outcome(tokenize, text)
    assert (kind, toks) == outcome(oracle.tokenize, text)
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


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FIXTURES), st.integers(0, 10**6), st.sampled_from("delete insert replace"),
       st.sampled_from(ALPHABET))
def test_fixture_mutations_agree_with_oracle(text, where, op, char):
    i = where % (len(text) + 1)
    if op == "delete":
        text = text[:i] + text[i + 1:]
    elif op == "insert":
        text = text[:i] + char + text[i:]
    else:
        text = text[:i] + char + text[i + 1:]
    assert_same_as_oracle(text)


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
def system_lines(draw):
    """Directive lines in a plausible order, any of which may be missing."""
    lines = ["futs"]
    for i in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            lines.append(f"labels A{i} = {{ a, b }}")
        if draw(st.booleans()):
            lines.append(f"monoids M{i} = [ {draw(st.sampled_from(MONOIDS))} ]")
    lines.append(draw(st.sampled_from(["states { x, y }", "states { }", "states { x, x }", ""])))
    for _ in range(draw(st.integers(0, 3))):
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
def test_tokenize_and_parse_system_are_total(text):
    value_or_parse_error(tokenize, text)
    value_or_parse_error(parse_system, text)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(FORMULA_SIGS + [TWO_COMP, NESTED3]), TEXTS)
def test_parse_formula_is_total(sig: Signature, text):
    value_or_parse_error(parse_formula, text, sig)


def test_trans_without_monoids_line_is_diagnosed():
    text = "futs\nlabels A0 = { a }\nstates { x }\ntrans 0 x a -> { x: 1 }\n"
    kind, diagnostics = outcome(parse_system, text)
    assert (kind, diagnostics) == ("error", ["4:7: error: missing monoids line for component 0"])
