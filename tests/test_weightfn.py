import pickle
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import futs.weightfn
from futs.bisim import Partition
from futs.monoid import BOOL_OR, NAT_PLUS, RAT_PLUS, Power, format_weight
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
    leaves,
    load_from_other_process,
    random_term,
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
    compact key is formatted once."""
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
    for name in ("stack", "entries", "_hash", "_key"):
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
