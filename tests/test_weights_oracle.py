"""Differential tests: the monoid operations the descriptors carry and the
sort-and-merge ``node`` against the ``isinstance`` dispatch and the
dict-merging ``node`` they replaced (``weights_oracle``).  Each call must
give an equal result (for terms: equal, with the same entry order, the
same key objects and the same ``repr``) or the same exception type and
message, on valid and invalid input alike.

The oracle writes names unquoted in the compact key, so its key is
compared only where every name is plain; the library's key is always
compared with ``key_text``, the documented encoding applied here to the
oracle's term structure."""

import re
from fractions import Fraction
from types import MappingProxyType

from hypothesis import given, settings, strategies as st

import weights_oracle as O
from futs import monoid as mo
from futs.weightfn import Leaf, Node, format_term, node

from conftest import CORPUS_SIGS, add_all, leaves
from test_monoid import monoid_strategy, weight_strategy

# "p:1,q" makes the oracle's keys collide: a node over it alone and one over
# p and q share its compact key text
STATES = ["p", "q", "p:1,q", "r"]
STACKS = sorted({c.monoids[j:] for sig in CORPUS_SIGS for c in sig.components
                 for j in range(len(c.monoids))}, key=repr)


def key_name(name: str) -> str:
    """A state or power label as the compact key spells it."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        return name
    return "'" + name.replace("'", "''") + "'"


def key_weight(m, w) -> str:
    if isinstance(m, mo.Product):
        return "(" + ",".join(key_weight(f, x) for f, x in zip(m.factors, w)) + ")"
    if isinstance(m, mo.Power):
        return "{" + ",".join(f"{key_name(l)}:{key_weight(m.base, v)}" for l, v in w) + "}"
    return O.format_weight(m, w, True)


def entry_order(entry):
    """Entries sort by a leaf's state or by a child node's key."""
    k = entry[0]
    return k.state if isinstance(k, Leaf) else key_text(k)


def key_text(t) -> str:
    """The compact key of a term, its entries put in canonical order."""
    if isinstance(t, Leaf):
        return key_name(t.state)
    return "{" + ",".join(f"{key_text(k)}:{key_weight(t.stack[0], w)}"
                          for k, w in sorted(t.entries, key=entry_order)) + "}"


def outcome(fn, *args):
    """What a call gives: ("ok", result) or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as e:  # the oracle and the library must fail alike
        return ("raised", type(e), str(e))


def junk():
    """Payloads of the wrong shape for most monoids."""
    return st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3),
        st.text("ab:", max_size=2),
        st.lists(st.one_of(st.integers(-1, 2), st.booleans(), st.text("ab", max_size=1),
                           st.tuples(st.sampled_from(["a", "b", "c", 1]), st.integers(-1, 2))),
                 max_size=3).map(tuple))


def payload(m):
    return st.one_of(weight_strategy(m), junk())


@settings(deadline=None, max_examples=400)
@given(monoid_strategy().flatmap(lambda m: st.tuples(st.just(m), payload(m), payload(m))))
def test_operations_match_the_isinstance_dispatch(mw):
    m, w1, w2 = mw
    got, want = outcome(mo.check_weight, m, w1), outcome(O.check_weight, m, w1)
    assert got == want
    for name in ("add", "nat_leq"):
        assert outcome(getattr(mo, name), m, w1, w2) == outcome(getattr(O, name), m, w1, w2)
    assert outcome(add_all, m, [w1, w2]) == outcome(O.add_all, m, [w1, w2])


@settings(deadline=None, max_examples=300)
@given(monoid_strategy().flatmap(lambda m: st.tuples(st.just(m), weight_strategy(m))),
       st.booleans())
def test_format_weight_matches(mw, compact):
    """Formatting takes valid payloads, canonical or not (an int for rat-plus)."""
    m, w = mw
    assert mo.format_weight(m, w, compact) == O.format_weight(m, w, compact)
    assert mo.format_weight(m, w, True) == key_weight(m, w)
    if m == mo.RAT_PLUS and w.denominator == 1:
        assert mo.format_weight(m, int(w), compact) == O.format_weight(m, int(w), compact)


def test_unknown_monoid_errors_match():
    for m in (None, "nat-plus", Leaf("p")):
        for fn, args in (("check_weight", (1,)), ("add", (1, 2)), ("nat_leq", (1, 2)),
                         ("format_weight", (1,))):
            got = outcome(getattr(mo, fn), m, *args)
            assert got == outcome(getattr(O, fn), m, *args) == (
                "raised", TypeError, f"unknown monoid {m!r}")
        assert outcome(node, (m,), [(Leaf("p"), 1)]) == outcome(O.node, (m,), [(Leaf("p"), 1)])
        assert outcome(node, (m,), [("p", 1)]) == outcome(O.node, (m,), [("p", 1)])
        assert outcome(node, (m,), []) == outcome(O.node, (m,), [])


def terms(stack):
    """Terms over ``stack`` built by the library, from few keys, so that
    entries repeat; a few are rebuilt as distinct but equal objects."""
    if not stack:
        return st.sampled_from(STATES).map(Leaf)
    entries = st.lists(st.tuples(terms(stack[1:]), weight_strategy(stack[0])), max_size=3)
    built = entries.map(lambda es: node(stack, es))
    return st.one_of(built, built.map(lambda t: Node(t.stack, t.entries)))


def bad_key(stack):
    rest = stack[1:]
    wrong_depth = Leaf("p") if rest else Node(stack, ())
    return st.sampled_from([wrong_depth, "p", 3, None, Node(stack + (mo.NAT_PLUS,), ())])


@st.composite
def node_calls(draw):
    stack = draw(st.sampled_from(STACKS))
    keys = draw(st.lists(terms(stack[1:]), min_size=1, max_size=4))
    key = st.sampled_from(keys)
    if draw(st.integers(0, 9)) == 0:
        key = st.one_of(key, bad_key(stack))
    weight = weight_strategy(stack[0])
    if draw(st.integers(0, 9)) == 0:
        weight = payload(stack[0])
    entries = draw(st.lists(st.tuples(key, weight), max_size=8))
    shape = draw(st.sampled_from(["list", "tuple", "dict", "mapping"]))
    if shape in ("dict", "mapping"):
        entries = dict(entries)
        if shape == "mapping":
            entries = MappingProxyType(entries)
    elif shape == "tuple":
        entries = tuple(entries)
    return stack, entries


@settings(deadline=None, max_examples=400)
@given(node_calls())
def test_node_matches_the_dict_merge(call):
    stack, entries = call
    got, want = outcome(node, stack, entries), outcome(O.node, stack, entries)
    if want[0] == "raised":
        assert got == want
        return
    assert got[0] == "ok"
    t, o = got[1], want[1]
    ordered = Node(o.stack, tuple(sorted(o.entries, key=entry_order)))
    assert t == ordered and t.entries == ordered.entries and repr(t) == repr(ordered)
    assert all(k is ok for (k, _), (ok, _) in zip(t.entries, ordered.entries))
    assert format_term(t, True) == key_text(o)
    assert format_term(t) == O.format_term(ordered)
    if all(key_name(x) == x for x in leaves(o)):
        assert t == o and t.entries == o.entries and repr(t) == repr(o)
        assert format_term(t, True) == O.format_term(o, True)


def test_node_keeps_distinct_children_that_share_a_key_text():
    """``{p:1,q:1}`` spells, in the oracle's key, a node over p and q and
    one over the state ``p:1,q``.  The library's keys tell them apart, so
    its node sorts them apart and sums only equal keys, as the oracle's
    dict merge does, in whatever order they come."""
    nat = (mo.NAT_PLUS,)
    a = node(nat, [(Leaf("p"), 1), (Leaf("q"), 1)])
    b = node(nat, [(Leaf("p:1,q"), 1)])
    assert O.format_term(a, True) == O.format_term(b, True) == "{p:1,q:1}"
    assert (format_term(a, True), format_term(b, True)) == ("{p:1,q:1}", "{'p:1,q':1}")
    stack = (mo.RAT_PLUS, mo.NAT_PLUS)
    entries = [(b, Fraction(1, 2)), (a, 1), (Node(nat, b.entries), Fraction(1, 3)), (a, 2)]
    t = node(stack, entries)
    assert t.entries == ((b, Fraction(5, 6)), (a, 3))
    assert node(stack, entries[::-1]) == t == Node(stack, O.node(stack, entries).entries)
