import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import futs.monoid
import futs.textio
import textio_oracle
from futs.logic import TOP, And, Diamond, check_formula
from futs.monoid import BOOL_OR, NAT_PLUS, Power, Product
from futs.reduce import to_wts
from futs.system import Component, Futs, Signature
from futs.textio import (
    MAX_NESTING,
    Diagnostic,
    ParseError,
    parse_formula,
    parse_system,
    write_formula,
    write_system,
)
from futs.weightfn import Leaf, node

from conftest import (
    CORPUS_SIGS,
    GOLDEN,
    NESTED3,
    TWO_COMP,
    ULTRAS_RAT,
    WLTS_NAT,
    WLTS_PROD,
    random_formula,
    random_futs,
    systems_equal,
)


def test_parse_fig1_ok(fig1):
    assert fig1.states == ("s0", "s1", "s2", "s3")
    assert len(fig1.trans) == 5


def test_unknown_label_position(fig1):
    text = (
        "futs\nlabels A0 = { a, b }\nmonoids M0 = [ bool-or, rat-plus ]\n"
        "states { s0 }\ntrans 0 s0 c -> { { s0: 1 }: tt }\n")
    with pytest.raises(ParseError) as err:
        parse_system(text)
    (diag,) = err.value.diagnostics
    assert diag.line == 5 and "unknown label 'c'" in diag.message
    assert diag.column == 12


def test_empty_carrier_position():
    text = "futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { }\n"
    with pytest.raises(ParseError) as err:
        parse_system(text)
    (diag,) = err.value.diagnostics
    assert "empty carrier" in diag.message and diag.line == 4


def test_unknown_state_in_term():
    text = ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
            "states { x }\ntrans 0 x a -> { y: 1 }\n")
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert any("unknown state 'y'" in d.message for d in err.value.diagnostics)


def test_depth_mismatch_is_positioned():
    text = ("futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or, rat-plus ]\n"
            "states { x }\ntrans 0 x a -> { x: tt }\n")
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert err.value.diagnostics[0].line == 5


def test_duplicate_transition_rejected():
    text = ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
            "states { x }\ntrans 0 x a -> { x: 1 }\ntrans 0 x a -> { x: 2 }\n")
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert "duplicate transition" in err.value.diagnostics[0].message


SHARED_HEAD = ("futs\nlabels A0 = { a, b }\nmonoids M0 = [ nat-plus ]\n"
               "labels A1 = { c }\nmonoids M1 = [ nat-max ]\nstates { x, y, z }\n")


def count_term_reads(monkeypatch) -> list:
    """Patches the parser to record each term text it tokenizes (a ``_tokens``
    argument that is one, or a whole line holding one) and each top-level
    term it reads (a ``_parse_term`` call at token 5, past a line's ``->``)."""
    reads, tokens, parse_term = [], futs.textio._tokens, futs.textio._parse_term

    def counted_tokens(raw, *rest):
        if raw.lstrip().startswith("{") or " -> {" in raw:
            reads.append(("tokens", raw))
        return tokens(raw, *rest)

    def counted_parse_term(toks, i, *rest):
        if i == 5:
            reads.append(("term", i))
        return parse_term(toks, i, *rest)

    monkeypatch.setattr(futs.textio, "_tokens", counted_tokens)
    monkeypatch.setattr(futs.textio, "_parse_term", counted_parse_term)
    return reads


def test_repeated_term_text_is_read_once(monkeypatch):
    """Six lines of one component with four distinct term texts: each text
    is tokenized and read once, and lines with one text get one and the same
    ``Node``.  Texts that differ only in blanks or comments are read apart,
    into equal terms."""
    text = SHARED_HEAD + (
        "trans 0 x a -> { y: 1, y: 1 }\n"
        "trans 0 y a -> { y: 1, y: 1 }   # the same tokens\n"
        "trans 0 z b -> {y:1,y:1}\n"
        "trans 0 x b -> { z: 2 }\n"
        "trans 0 y b -> { z: 2 }\n"
        "trans 0 z a -> { z: 2 }\n")
    reads = count_term_reads(monkeypatch)
    s = parse_system(text)
    assert [kind for kind, _ in reads] == ["tokens", "term"] * 4
    t = s.trans
    assert t[(0, "x", "a")] == t[(0, "y", "a")] == t[(0, "z", "b")]
    assert t[(0, "x", "b")] is t[(0, "y", "b")] is t[(0, "z", "a")]
    assert t[(0, "x", "a")].entries == ((Leaf("y"), 2),)
    assert systems_equal(s, textio_oracle.parse_system(text))


def test_written_system_reads_each_text_once(monkeypatch):
    """``write_system`` output with 5 distinct term texts over 40 lines of a
    nested component, and one of them again on a second component: terms are
    tokenized and read once per distinct (component, text) pair."""
    sig = Signature((Component(("a", "b"), (BOOL_OR, NAT_PLUS)),
                     Component(("c",), (BOOL_OR, NAT_PLUS))))
    states = [f"s{k}" for k in range(20)]
    terms = [node(sig.components[0].monoids, [(node((NAT_PLUS,), [(Leaf(states[k]), k + 1)]), True),
                                              (node((NAT_PLUS,), [(Leaf("s0"), 1)]), True)])
             for k in range(5)]
    trans = {(0, x, a): terms[(k + len(a)) % 5] for k, x in enumerate(states) for a in ("a", "b")}
    trans[(1, "s3", "c")] = terms[0]
    text = write_system(Futs(sig, states, trans))
    pairs = {(line.split()[1], line.split(" -> ", 1)[1])
             for line in text.split("\n") if line.startswith("trans ")}
    assert len(pairs) == 6 and text.count("\ntrans ") == 41
    reads = count_term_reads(monkeypatch)
    s = parse_system(text)
    assert reads.count(("term", 5)) == len(pairs)
    assert len([raw for kind, raw in reads if kind == "tokens"]) == len(pairs)
    assert systems_equal(s, Futs(sig, states, trans))
    assert systems_equal(s, textio_oracle.parse_system(text))


def test_same_text_is_read_on_each_component():
    """One text on two stacks is two terms: nat-plus sums a repeated key,
    nat-max takes its largest weight."""
    s = parse_system(SHARED_HEAD + "trans 0 x a -> { y: 1, y: 3 }\ntrans 1 x c -> { y: 1, y: 3 }\n"
                     "trans 1 y c -> { y: 1, y: 3 }\n")
    assert s.trans[(0, "x", "a")].entries == ((Leaf("y"), 4),)
    assert s.trans[(1, "x", "c")].entries == ((Leaf("y"), 3),)
    assert s.trans[(1, "x", "c")] is s.trans[(1, "y", "c")]


NAT_AND_BOOL = ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
                "labels A1 = { c }\nmonoids M1 = [ bool-or ]\nstates { x, y }\n")


@pytest.mark.parametrize("lines, expected", [
    ("trans 0 x a -> { y: 2 }\ntrans 1 y c -> { y: 2 }\n",
     "8:21: error: expected tt or ff, found '2'"),
    ("trans 1 y c -> { y: 2 }\ntrans 0 x a -> { y: 2 }\n",
     "7:21: error: expected tt or ff, found '2'"),
    ("trans 0 x a -> { y: }\ntrans 0 y a -> { y: }\n",
     "7:21: error: expected natural number, found '}'"),
    ("trans 0 x a -> { y: 2 }\ntrans 0 y a -> { y: 2 } }\n",
     "8:25: error: unexpected trailing '}'"),
    ("trans 0 x a -> { y: 2 }\ntrans 0 y a -> { y: 2 }\ntrans 0 x a -> {y:2}\n",
     "9:1: error: duplicate transition for component 0, state 'x', label 'a' (first at line 7)"),
    ("trans 0 x a -> { y: 2 }\ntrans 0 y b -> { y: 2 }\n",
     "8:11: error: unknown label 'b'"),
    ("trans 0 x a -> { y: 2 }\ntrans 0 y a -> { y: 2 }\ntrans 1 x c -> { y: 2 }\n# é\n"
     "trans 1 y c -> { x: tt } é\n",
     "11:26: error: unexpected character 'é'"),
], ids=["other-stack-fails", "other-stack-fails-first", "malformed-repeated", "trailing-after-repeat",
        "duplicate-of-repeat", "label-before-repeat", "character-after-repeat"])
def test_repeated_term_text_keeps_diagnostics(lines, expected):
    """A term text read on one component is read again on another, where it
    may fail; a repeat is checked like any line, its head first."""
    text = NAT_AND_BOOL + lines
    for parse in (parse_system, textio_oracle.parse_system):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert [d.render() for d in e.value.diagnostics] == [expected]


# a label and a state whose quoted names hold " -> "
QUOTED_ARROWS = ("futs\nlabels A0 = { a, `b -> c` }\nmonoids M0 = [ nat-plus ]\n"
                 "states { x, y, `p -> q` }\ntrans 0 x a -> { y: 2 }\n")


@pytest.mark.parametrize("lines, expected", [
    ("trans 0 w a -> { y: 2 }\n", "6:9: error: unknown state 'w'"),
    ("trans 0 y c -> { y: 2 }\n", "6:11: error: unknown label 'c'"),
    ("trans 0 y a -> { y: 2 }\ntrans 0 x a -> { y: 2 }\n",
     "7:1: error: duplicate transition for component 0, state 'x', label 'a' (first at line 5)"),
    ("trans 0 `w -> v` a -> { y: 2 }\n", "6:9: error: unknown state 'w -> v'"),
    ("trans 0 y `c -> d` -> { y: 2 }\n", "6:11: error: unknown label 'c -> d'"),
    ("trans 0 y a # c -> { y: 2 }\n", "6:12: error: expected ->, found end of input"),
    ("trans 0 w a\t->\t{ y: 2 }\n", "6:9: error: unknown state 'w'"),
    ("trans 0 w a -> { y: 2 }\ntrans 0 y a -> { y: 2 } é\n",
     "7:25: error: unexpected character 'é'"),
    ("trans 0 y a é -> { y: 2 }\n", "6:13: error: unexpected character 'é'"),
    ("trans 0 y a ->{} -> { y: 2 }\n", "6:18: error: unexpected trailing '->'"),
    ("trans 0 y a-> -> { y: 2 }\n", "6:15: error: expected '{', found '->'"),
], ids=["unknown-state", "unknown-label", "duplicate", "quoted-state", "quoted-label",
        "comment-in-head", "tabs", "character-later", "character-in-head", "five-token-head",
        "glued-arrow"])
def test_repeated_raw_term_text_keeps_diagnostics(lines, expected):
    """A line whose raw term text repeats line 5's exactly: its head is
    checked as on any line, and a head that is not 4 plain tokens before the
    first " -> " (a term starting earlier) is read whole."""
    text = QUOTED_ARROWS + lines
    for parse in (parse_system, textio_oracle.parse_system):
        with pytest.raises(ParseError) as e:
            parse(text)
        assert [d.render() for d in e.value.diagnostics] == [expected]


def test_repeated_raw_term_text_variants_read_alike():
    """Quoted names holding " -> ", tabs and comments around a repeated term
    text: the system equals the oracle's, and each line whose head is plain
    shares line 5's ``Node``."""
    text = QUOTED_ARROWS + (
        "trans 0 `p -> q` a -> { y: 2 }\n"
        "trans 0 y `b -> c` -> { y: 2 }\n"
        "trans 0 x `b -> c`\t->\t{ y: 2 }\n"
        "trans 0 y a -> { y: 2 }\n"
        "# trans 0 `p -> q` `b -> c` -> { y: 2 }\n"
        "trans 0 `p -> q` `b -> c`   -> { y: 2 }  # note\n")
    s = parse_system(text)
    assert systems_equal(s, textio_oracle.parse_system(text)) and len(s.trans) == 6
    assert s.trans[(0, "y", "a")] is s.trans[(0, "x", "a")]
    assert all(t == s.trans[(0, "x", "a")] for t in s.trans.values())


def test_round_trip_fixtures(fig1, w3):
    for s in (fig1, w3):
        assert systems_equal(parse_system(write_system(s)), s)


def test_round_trip_generated_systems():
    rng = random.Random(77)
    for _ in range(60):
        sig = rng.choice([WLTS_NAT, WLTS_PROD, ULTRAS_RAT, TWO_COMP, NESTED3])
        s = random_futs(rng, sig, rng.randint(1, 5))
        assert systems_equal(parse_system(write_system(s)), s)


def test_round_trip_reduced_systems(fig1, w3):
    for s in (fig1, w3):
        t = to_wts(s).target
        assert systems_equal(parse_system(write_system(t)), t)


def test_round_trip_single_factor_product(w3):
    # homogenizing a single-monoid system yields 1-tuple weights "(w)"
    from futs.reduce import homogenize
    t = homogenize(w3).target
    assert "(2)" in write_system(t)
    assert systems_equal(parse_system(write_system(t)), t)


def test_nat_max_system_round_trip():
    s = parse_system(
        "futs\nlabels A0 = { a }\nmonoids M0 = [ nat-max ]\n"
        "states { x, y }\ntrans 0 x a -> { y: 3 }\n")
    assert systems_equal(parse_system(write_system(s)), s)


def test_zero_denominator_rejected():
    text = ("futs\nlabels A0 = { a }\nmonoids M0 = [ rat-plus ]\n"
            "states { x }\ntrans 0 x a -> { x: 1/0 }\n")
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert "zero denominator" in err.value.diagnostics[0].message


def test_power_map_read_canonical_is_not_checked(monkeypatch):
    """Every weight reader returns a canonical payload, so a power map whose
    labels ascend and whose weights are non-zero is kept as read: the Fig. 1
    WTS, with 16 power maps, reads without one ``check_weight`` call.  A map
    out of order or with a zero entry is checked, into its canonical form."""
    calls, check = [], futs.monoid.check_weight
    monkeypatch.setattr(futs.monoid, "check_weight", lambda m, w: calls.append(w) or check(m, w))
    parse_system((GOLDEN / "fig1_wts.futs").read_text())
    assert calls == []
    s = parse_system("futs\nlabels A0 = { a }\nmonoids M0 = [ pow({a, b}, nat-plus) ]\n"
                     "states { x, y }\ntrans 0 x a -> { y: { b: 1, a: 0 } }\n")
    assert calls == [(("b", 1), ("a", 0))]
    assert write_system(s).endswith("trans 0 x a -> { y: { b: 1 } }\n")


def test_write_deterministic(fig1):
    assert write_system(fig1) == write_system(parse_system(write_system(fig1)))


def test_backtick_ids(w3):
    out = write_system(w3)
    assert "`x'`" in out
    assert systems_equal(parse_system(out), w3)


# names a quoted identifier can hold: blanks, comment and key punctuation, none
ODD_NAMES = ("", " ", " a  b ", "\t", "#", "#x", "'", "it's", "{},:()", "{ p: 1 }", "x")


def test_round_trip_odd_names():
    power = Power(ODD_NAMES, NAT_PLUS)
    sig = Signature((Component(ODD_NAMES, (power,)),
                     Component(ODD_NAMES[:2], (BOOL_OR, NAT_PLUS))))
    trans = {}
    for k, x in enumerate(ODD_NAMES):
        trans[(0, x, ODD_NAMES[-1 - k])] = node(
            (power,), [(Leaf(y), ((lab, 1 + k),)) for y in ODD_NAMES for lab in ODD_NAMES[k:k + 2]])
        trans[(1, x, ODD_NAMES[k % 2])] = node(
            (BOOL_OR, NAT_PLUS), [(node((NAT_PLUS,), [(Leaf(y), k + 1)]), True) for y in ODD_NAMES])
    s = Futs(sig, ODD_NAMES, trans)
    text = write_system(s)
    assert systems_equal(parse_system(text), s) and write_system(parse_system(text)) == text


@pytest.mark.parametrize("name", ["a`b", "`", "a\nb", "\n", "p\rq"])
@pytest.mark.parametrize("build", [
    lambda name: Futs(Signature((Component(("a",), (NAT_PLUS,)),)), ["x", name]),
    lambda name: Component(("a", name), (NAT_PLUS,)),
    lambda name: Power(("a", name), NAT_PLUS),
], ids=["state", "label", "power-label"])
def test_unwritable_name_refused(build, name):
    """A quoted name holds anything but a backtick or a newline (a carriage
    return included), so no system, component or power monoid takes one."""
    with pytest.raises(ValueError, match="backtick or a newline"):
        build(name)


def nested_product(depth: int):
    m = NAT_PLUS
    for _ in range(depth):
        m = Product((m,))
    return m


@pytest.mark.parametrize("limit, over, message", [
    ((NAT_PLUS,) * MAX_NESTING, (NAT_PLUS,) * (MAX_NESTING + 1),
     f"more than {MAX_NESTING} monoids in a stack"),
    ((nested_product(MAX_NESTING),), (nested_product(MAX_NESTING + 1),),
     f"monoid type nested more than {MAX_NESTING} deep"),
], ids=["stack", "nesting"])
def test_unreadable_stack_is_not_written(limit, over, message):
    """The writer applies the reader's monoid and stack rules: a system the
    reader would refuse is a ValueError naming the rule; one at the limit
    reads back."""
    with pytest.raises(ValueError, match=message):
        write_system(Futs(Signature((Component(("a",), over),)), ["x"]))
    s = Futs(Signature((Component(("a",), limit),)), ["x"])
    assert systems_equal(parse_system(write_system(s)), s)


def test_carriage_return_in_quoted_name_positioned():
    """A file read with universal newlines cannot keep a carriage return, so
    a quoted identifier stops at one, and the parser points at its quote."""
    head = "futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
    with pytest.raises(ParseError) as err:
        parse_system(head + "states { x, `p\rq` }\n")
    assert str(err.value) == "4:13: error: unexpected character '`'"


def test_parse_formula_examples(fig1):
    phi = parse_formula("<0|b|tt, 1/2> T", fig1.sig)
    assert phi == Diamond(0, "b", (True, Fraction(1, 2)), TOP)
    assert parse_formula("T & T", fig1.sig) == And(TOP, TOP)
    nested = parse_formula("<0|a|tt,1/2> <0|b|tt,1/2> T", fig1.sig)
    assert nested.body == Diamond(0, "b", (True, Fraction(1, 2)), TOP)


def test_parse_formula_arity_error(fig1):
    with pytest.raises(ParseError) as err:
        parse_formula("<0|b|tt> T", fig1.sig)
    assert "2 bounds" in err.value.diagnostics[0].message


def test_parse_formula_label_omission(w3):
    # single-label component: both <a|m> and <m> forms are accepted
    assert parse_formula("<a|2> T", w3.sig) == Diamond(0, "a", (2,), TOP)
    assert parse_formula("<2> T", w3.sig) == Diamond(0, "a", (2,), TOP)
    assert parse_formula("<0|a|2> T", w3.sig) == Diamond(0, "a", (2,), TOP)


def test_parse_formula_requires_index_for_multi_component():
    rng = random.Random(9)
    s = random_futs(rng, TWO_COMP, 2)
    with pytest.raises(ParseError):
        parse_formula("<a|1> T", s.sig)
    phi = parse_formula("<0|a|1> T", s.sig)
    assert phi.component == 0


def test_formula_round_trip(fig1, w3):
    rng = random.Random(10)
    for sig in (fig1.sig, w3.sig, TWO_COMP, NESTED3):
        for _ in range(40):
            phi = random_formula(rng, sig, 3)
            from futs.logic import check_formula
            phi = check_formula(phi, sig)
            assert parse_formula(write_formula(phi, sig), sig) == phi


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_parsed_formula_needs_no_check(sig, rng):
    """The parser checks each diamond as it reads it and reads its bounds
    canonical, so ``check_formula`` returns the parsed formula unchanged,
    down to the types of the bounds (a rational bound is a ``Fraction``)."""
    text = write_formula(check_formula(random_formula(rng, sig, 5), sig), sig)
    phi = parse_formula(text, sig)
    assert repr(check_formula(phi, sig)) == repr(phi)


def test_formula_round_trip_on_reduced_signature(fig1):
    # fused labels and the * label are backticked and re-parsed
    r = to_wts(fig1)
    from futs.logic import translate_to_wts
    phi, sig2 = translate_to_wts(
        fig1.sig, parse_formula("<0|a|tt,1/2> T", fig1.sig))
    text = write_formula(phi, sig2)
    assert parse_formula(text, r.target.sig) == phi


def test_conjunction_parens_round_trip(fig1):
    phi = parse_formula("<0|a|tt,1/2> (T & <0|b|tt,1/2> T)", fig1.sig)
    assert isinstance(phi.body, And)
    assert parse_formula(write_formula(phi, fig1.sig), fig1.sig) == phi


def test_deep_formula_round_trip():
    """5000 diamonds, every other one over a parenthesised conjunction:
    deeper than the recursion limit, and read back as written."""
    sig = parse_system(NAT_HEAD).sig
    phi = TOP
    for k in range(5000):
        phi = Diamond(0, "a", (k % 3 + 1,), And(TOP, phi) if k % 2 else phi)
    text = write_formula(phi, sig)
    assert text.startswith("<2> (T & <1> <3> (T & <2> <1> (T & ") and text.count("(") == 2500
    back = parse_formula(text, sig)
    assert back == phi and back is not phi and write_formula(back, sig) == text


def test_deeply_parenthesised_formula():
    sig = parse_system(NAT_HEAD).sig
    assert parse_formula("(" * 5000 + "T" + ")" * 5000, sig) == TOP
    assert parse_formula("(" * 5000 + "<1> T" + ")" * 5000, sig) == Diamond(0, "a", (1,), TOP)
    with pytest.raises(ParseError) as err:
        parse_formula("(" * 5000 + "T" + ")" * 4999, sig)
    assert str(err.value) == "1:10001: error: expected token, found end of input"


def test_diagnostic_render():
    d = Diagnostic(3, 7, "boom")
    assert d.render() == "3:7: error: boom"


LONG = "1" * 5000  # more digits than int() converts from text by default
NAT_HEAD = "futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { x, y }\n"


@pytest.mark.parametrize("text, line, column", [
    (NAT_HEAD + f"trans 0 x a -> {{ y: {LONG} }}\n", 5, 21),                 # one-token weight
    (NAT_HEAD + f"trans 0 x a -> {{ y: 1, x: {LONG}, }}\n", 5, 27),          # cursor path
    (NAT_HEAD.replace("nat-plus", "rat-plus") + f"trans 0 x a -> {{ y: 1/{LONG} }}\n", 5, 23),
    (NAT_HEAD.replace("nat-plus", "bool-or, nat-plus")
     + f"trans 0 x a -> {{ {{ y: {'0' * 4999}1 }}: tt }}\n", 5, 23),
    (NAT_HEAD + f"trans {LONG} x a -> {{ y: 1 }}\n", 5, 7),                   # component index
    (NAT_HEAD.replace("A0", "A" + LONG), 2, 8),
    (NAT_HEAD.replace("M0", "M" + LONG), 3, 9),
], ids=["weight", "weight-in-list", "denominator", "inner-weight", "trans-index",
        "labels-index", "monoids-index"])
def test_overlong_numeral_in_system_is_positioned(text, line, column):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.column, diag.message) == (line, column, "number too long (5000 digits)")


@pytest.mark.parametrize("text, column", [
    (f"<a|{LONG}> T", 4),                  # bound
    (f"<{LONG}|a|1> T", 2),                # component index
    (f"<a|1> T & <a|1/{LONG}> T", 16),     # denominator (over rat-plus)
], ids=["bound", "component-index", "denominator"])
def test_overlong_numeral_in_formula_is_positioned(text, column):
    rat = "/" in text
    s = parse_system(NAT_HEAD.replace("nat-plus", "rat-plus") if rat else NAT_HEAD)
    with pytest.raises(ParseError) as err:
        parse_formula(text, s.sig)
    (diag,) = err.value.diagnostics
    assert (diag.line, diag.column, diag.message) == (1, column, "number too long (5000 digits)")
