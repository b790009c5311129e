import pickle
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import futs.weightfn
from futs.bisim import Partition, largest_bisimulation
from futs.monoid import BOOL_OR, NAT_PLUS, RAT_PLUS, Power, format_weight
from futs.reduce import flatten
from futs.system import Component, Futs, Signature
from futs.textio import parse_system, write_system
from futs.weightfn import (
    Leaf,
    Node,
    format_term,
    node,
    pushforward,
    quotient_term,
    zero_term,
)

from reduce_oracle import subterms_at_depths

from conftest import (
    NESTED3,
    TWO_COMP,
    ULTRAS_RAT,
    WLTS_PROD,
    Hashed,
    class_sum,
    intermediates,
    leaves,
    load_from_other_process,
    random_term,
    random_weight,
    restrict,
    singleton,
    support,
    term_depth,
    term_equal,
    weight_of,
)

RAT1 = (RAT_PLUS,)
NAT1 = (NAT_PLUS,)
BR2 = (BOOL_OR, RAT_PLUS)


def rat(n, d=1):
    return Fraction(n, d)


def t_dist(*pairs):
    return node(RAT1, [(Leaf(x), rat(n, d)) for x, n, d in pairs])


def test_support_examples():
    t = t_dist(("s0", 1, 2), ("s1", 1, 2))
    assert set(support(t)) == {Leaf("s0"), Leaf("s1")}
    assert support(zero_term(RAT1)) == ()
    nested = node(BR2, [(t_dist(("s0", 1, 1)), True)])
    assert support(nested) == (t_dist(("s0", 1, 1)),)
    with pytest.raises(TypeError):
        support(Leaf("s0"))


def test_node_merges_and_elides():
    t = node(NAT1, [(Leaf("x"), 1), (Leaf("x"), 2), (Leaf("y"), 0)])
    assert t == node(NAT1, [(Leaf("x"), 3)])
    assert weight_of(t, Leaf("y")) == 0


def test_node_hashes_no_key_and_formats_each_child_once(monkeypatch):
    """k leaf entries, states repeated by distinct leaves, make a node
    without one ``__hash__`` or ``__eq__`` call on a term, where a dict
    merge hashes every key; over child nodes that repeat, each child's
    compact key is formatted once.  Compiling a system whose equal terms
    are distinct objects makes no such call either: the graph hash-conses
    terms on their children's node ids."""
    k = 12
    calls = Counter()
    for cls in (Leaf, Node):
        for name in ("__hash__", "__eq__"):
            original = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *args, _o=original, _c=f"{cls.__name__}.{name}":
                                calls.update([_c]) or _o(*args))
    t = node(NAT1, [(Leaf(f"s{j % 5}"), 1) for j in range(k)])
    assert [w for _, w in t.entries] == [3, 3, 2, 2, 2] and not calls
    children = [t_dist((f"s{j}", 1, j + 1)) for j in range(4)]
    formatted = Counter()
    original = futs.weightfn.format_term

    def format_term_counted(t, compact=False):
        if isinstance(t, Node):
            formatted[id(t), compact] += 1
        return original(t, compact)

    monkeypatch.setattr(futs.weightfn, "format_term", format_term_counted)
    t = node(BR2, [(c, True) for c in children * 3])
    assert [c for c, _ in t.entries] == children and not calls
    assert formatted == {(id(c), True): 1 for c in children}
    s = parse_system("futs\nlabels A0 = { a, b }\nmonoids M0 = [ bool-or, rat-plus ]\n"
                     "states { x, y }\ntrans 0 x a -> { { x: 1/2, y: 1/2 }: tt }\n"
                     "trans 0 y a -> { { x: 1/2, y: 1/2 }: tt }\ntrans 0 y b -> { { y: 1 }: tt }\n")
    calls.clear()
    g = s.graph
    # x and y share their a-term; 2 states, 2 inner terms, 2 outer, 1 zero term
    assert not calls and g.out[0][0] == g.out[1][0] and len(g.out) == 7


def test_node_rejects_depth_mix():
    with pytest.raises(ValueError):
        node(BR2, [(Leaf("x"), True)])
    with pytest.raises(ValueError):
        node(NAT1, [(node(NAT1, []), 1)])


def test_pushforward_examples():
    t = node(NAT1, [(Leaf("x"), 1), (Leaf("y"), 2)])
    assert pushforward({"x": "z", "y": "z"}, t) == node(NAT1, [(Leaf("z"), 3)])
    assert pushforward({"x": "x", "y": "y"}, t) == t
    outer = node(BR2, [(t_dist(("s0", 1, 2), ("s1", 1, 2)), True)])
    collapsed = pushforward({"s0": "c", "s1": "c"}, outer)
    assert collapsed == node(BR2, [(t_dist(("c", 1, 1)), True)])


def test_quotient_term_examples():
    p = Partition.of_blocks(["y", "z"], [["y", "z"]])
    phi = node(NAT1, [(Leaf("y"), 2)])
    psi = node(NAT1, [(Leaf("y"), 1), (Leaf("z"), 1)])
    assert quotient_term(phi, p.kappa) == quotient_term(psi, p.kappa)
    p2 = Partition.of_blocks(["s0", "s1"], [["s0", "s1"]])
    outer = node(BR2, [(t_dist(("s0", 1, 2), ("s1", 1, 2)), True)])
    assert quotient_term(outer, p2.kappa) == node(
        BR2, [(t_dist(("s0", 1, 1)), True)])


def test_quotient_identity_partition_is_renaming():
    t = node(NAT1, [(Leaf("x"), 1), (Leaf("y"), 2)])
    p = Partition.identity(["x", "y"])
    assert quotient_term(t, p.kappa) == t


def test_term_equal():
    assert term_equal(node(NAT1, [(Leaf("x"), 1), (Leaf("y"), 2)]),
                      node(NAT1, [(Leaf("y"), 2), (Leaf("x"), 1)]))
    assert term_equal(node(NAT1, [(Leaf("x"), 0)]), zero_term(NAT1))
    assert not term_equal(node(NAT1, [(Leaf("x"), 1)]),
                          node(NAT1, [(Leaf("x"), 2)]))
    with pytest.raises(ValueError):
        term_equal(Leaf("x"), node(NAT1, []))
    with pytest.raises(ValueError):
        term_equal(node(NAT1, []), node(RAT1, []))


def test_class_sum_examples():
    t = t_dist(("s0", 1, 2), ("s1", 1, 2))
    assert class_sum(t, {Leaf("s1")}) == rat(1, 2)
    assert class_sum(t, set()) == rat(0)
    t2 = node(NAT1, [(Leaf("x"), 2), (Leaf("y"), 3)])
    assert class_sum(t2, {Leaf("x"), Leaf("y")}) == 5
    assert class_sum(t2, set(support(t2))) == 5


def test_depth_and_leaves():
    outer = node(BR2, [(t_dist(("s0", 1, 2), ("s1", 1, 2)), True)])
    assert term_depth(outer) == 2
    assert term_depth(Leaf("s0")) == 0
    assert leaves(outer) == {"s0", "s1"}
    assert subterms_at_depths(outer) == {t_dist(("s0", 1, 2), ("s1", 1, 2))}


def test_serialisations():
    t = node(BR2, [(t_dist(("s0", 1, 2), ("s1", 1, 2)), True)])
    assert format_term(t, compact=True) == "{{s0:1/2,s1:1/2}:tt}"
    assert format_term(t) == "{ { s0: 1/2, s1: 1/2 }: tt }"
    assert format_term(zero_term(NAT1)) == "{}"
    assert format_term(singleton(NAT1, Leaf("#1:x"), 2)) == "{ `#1:x`: 2 }"


# --- functor laws -------------------------------------------------------------

states = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def nat_terms(draw, depth=1):
    stack = (NAT_PLUS,) * depth
    def build(d):
        if d == 0:
            return Leaf(draw(states))
        n = draw(st.integers(0, 3))
        return node(stack[len(stack) - d:],
                    [(build(d - 1), draw(st.integers(1, 4))) for _ in range(n)])
    return build(depth)


@st.composite
def total_maps(draw):
    target = ["a", "b", "c", "d"]
    return {x: draw(st.sampled_from(target)) for x in target}


@given(nat_terms(depth=2))
def test_functor_identity(t):
    ident = {x: x for x in "abcd"}
    assert pushforward(ident, t) == t


@given(nat_terms(depth=2), total_maps(), total_maps())
def test_functor_composition(t, f, g):
    composed = {x: g[f[x]] for x in f}
    assert pushforward(composed, t) == pushforward(g, pushforward(f, t))


@given(st.lists(nat_terms(depth=2), min_size=2, max_size=5))
def test_injective_maps_preserved(ts):
    inj = {"a": "w", "b": "x", "c": "y", "d": "z"}
    images = [pushforward(inj, t) for t in ts]
    for i, t in enumerate(ts):
        for j, u in enumerate(ts):
            assert (t == u) == (images[i] == images[j])


# --- cached hash and key ------------------------------------------------------

def structural_hash(t):
    """The hash a frozen dataclass derives from its compared fields,
    computed by walking the whole term."""
    if isinstance(t, Node):
        return hash((t.stack, tuple((Hashed(structural_hash(k)), w) for k, w in t.entries)))
    return hash(t)


def rebuild(t):
    """A node-by-node copy sharing no term object with ``t``."""
    if isinstance(t, Node):
        return Node(t.stack, tuple((rebuild(k), w) for k, w in t.entries))
    return Leaf(t.state)


def uncached_key(t):
    if isinstance(t, Leaf):
        return t.state
    outer = t.stack[0]
    return "{" + ",".join(f"{uncached_key(k)}:{format_weight(outer, w, True)}" for k, w in t.entries) + "}"


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([NESTED3, TWO_COMP, WLTS_PROD, ULTRAS_RAT]), st.randoms(use_true_random=False))
def test_node_hash_and_key_cached(sig, rng):
    comp = sig.components[rng.randrange(len(sig.components))]
    t = random_term(rng, comp.monoids, ["p", "q", "r"], max_entries=4)
    copy = rebuild(t)
    assert copy == t and hash(copy) == hash(t) == structural_hash(t)
    assert format_term(t, True) == format_term(t, True) == format_term(copy, True) == uncached_key(t)
    assert pickle.loads(pickle.dumps(t)) == t and {t: 1}[copy] == 1


def test_node_repr_and_immutability():
    t = node(BR2, [(node(RAT1, [(Leaf("s"), Fraction(1, 2))]), True)])
    format_term(t, True)
    assert repr(t) == ("Node(stack=(BoolOr(), RatPlus()), entries=((Node(stack=(RatPlus(),), "
                       "entries=((Leaf(state='s'), Fraction(1, 2)),)), True),))")
    for name in ("stack", "entries", "_key"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, ())


def test_unpickled_node_rehashed():
    """Pickled in a process with another str hash seed, a term still hashes
    like one built here, and its key is recomputed."""
    loaded = load_from_other_process(
        "(t := node((Power(('a', 'b'), NAT_PLUS), BOOL_OR), "
        "[(node((BOOL_OR,), [(Leaf('s'), True)]), (('a', 2),))]), hash(t), format_term(t, True))[0]",
        "from futs.monoid import BOOL_OR, NAT_PLUS, Power\n"
        "from futs.weightfn import Leaf, format_term, node")
    fresh = node((Power(("a", "b"), NAT_PLUS), BOOL_OR),
                 [(node((BOOL_OR,), [(Leaf("s"), True)]), (("a", 2),))])
    assert loaded == fresh and hash(loaded) == hash(fresh) and {fresh: 1}[loaded] == 1
    assert loaded._key is None and format_term(loaded, True) == format_term(fresh, True) == "{{s:tt}:{a:2}}"


# --- the compact key is injective ---------------------------------------------

# backtick-free names mixing the characters that an unquoted key confuses
odd_names = st.text(alphabet="pq1,:({}' ", min_size=1, max_size=4)


def confusable(rng, stack):
    """Two distinct terms over ``stack`` whose keys read alike when names
    are written unquoted: ``{p: w, q: v}`` and ``{`p:w,q`: v}``, each
    wrapped in the same one-entry terms up to the stack's depth."""
    inner = stack[-1:]
    w, v = (random_weight(rng, inner[0], nonzero=True) for _ in range(2))
    pair = [node(inner, [(Leaf("p"), w), (Leaf("q"), v)]),
            node(inner, [(Leaf(f"p:{format_weight(inner[0], w, True)},q"), v)])]
    for j in range(len(stack) - 2, -1, -1):
        u = random_weight(rng, stack[j], nonzero=True)
        pair = [node(stack[j:], [(t, u)]) for t in pair]
    return pair


@st.composite
def odd_stacks(draw):
    """A stack, with power labels drawn like the state names, and names."""
    labels = tuple(draw(st.lists(odd_names, min_size=1, max_size=3, unique=True)))
    stack = draw(st.sampled_from([NAT1, BR2, (Power(labels, NAT_PLUS), NAT_PLUS),
                                  (BOOL_OR, Power(labels, BOOL_OR), RAT_PLUS)]))
    return stack, draw(st.lists(odd_names, max_size=3)) + ["p", "q"]


@settings(deadline=None, max_examples=200)
@given(odd_stacks(), st.randoms(use_true_random=False))
def test_compact_key_is_injective(stack_names, rng):
    """Over each stack, two terms have equal compact keys iff they are equal."""
    stack, names = stack_names
    for j in range(len(stack)):
        ts = confusable(rng, stack[j:])
        names += sorted(leaves(ts[1]))
        ts += [random_term(rng, stack[j:], names) for _ in range(6)]
        ts += [rebuild(t) for t in ts[:4]]
        for t in ts:
            for u in ts:
                assert (format_term(t, True) == format_term(u, True)) == (t == u)


@settings(deadline=None, max_examples=200)
@given(odd_stacks(), st.randoms(use_true_random=False), st.data())
def test_node_ignores_entry_order(stack_names, rng, data):
    stack, names = stack_names
    children = confusable(rng, stack[1:]) if len(stack) > 1 else []
    entries = [(c, random_weight(rng, stack[0], nonzero=True)) for c in children * 2]
    entries += [e for _ in range(3) for e in random_term(rng, stack, names).entries]
    t = node(stack, entries)
    shuffled = node(stack, data.draw(st.permutations(entries)))
    assert shuffled == t and shuffled.entries == t.entries


@settings(deadline=None, max_examples=60)
@given(odd_stacks(), st.randoms(use_true_random=False))
def test_generated_names_read_back(stack_names, rng):
    """``flatten`` names each inner term ``#<depth>:<key>``: over states
    whose names confuse an unquoted key, the names are distinct, the
    written WTS reads back, and its largest bisimulation restricted to the
    source states is the source's."""
    stack, names = stack_names
    stack = (stack[0],) * max(2, len(stack))  # homogeneous, as flatten needs
    terms = confusable(rng, stack) + [random_term(rng, stack, names) for _ in names]
    states = sorted({x for t in terms for x in leaves(t)} | set(names) | {"x", "y"})
    trans = {(0, x, "a"): t for x, t in zip(["x", "y", *names], terms)}
    s = Futs(Signature((Component(("a",), stack),)), states, trans)
    r = flatten(s)
    added = [x for x in r.target.states if x not in set(s.states)]
    assert len(added) == len(intermediates(r)) and all(x[0] == "#" for x in added)
    back = parse_system(write_system(r.target))
    assert back.states == r.target.states and back.trans == r.target.trans
    assert restrict(largest_bisimulation(back), s.states) == largest_bisimulation(s)
