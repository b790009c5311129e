import random

import pytest

from futs.bisim import (
    Partition,
    all_partitions,
    is_bisimulation,
    largest_bisimulation,
    quotient_system,
)
from futs.monoid import NAT_PLUS
from futs.textio import parse_system
from futs.weightfn import Leaf, node

import bisim_oracle
from bisim_oracle import ext_related
from conftest import TWO_COMP, corpus_systems, random_futs, restrict, systems_equal, validate

NAT1 = (NAT_PLUS,)


def test_partition_canonical_form():
    p = Partition.of_blocks(["b", "a", "c"], [["c", "a"], ["b"]])
    assert p.blocks == (("a", "c"), ("b",))
    assert p.kappa == {"a": "a", "c": "a", "b": "b"}
    assert p.block_ids() == ("a", "b")
    with pytest.raises(ValueError):
        Partition.of_blocks(["a", "b"], [["a"]])
    with pytest.raises(ValueError):
        Partition.of_blocks(["a"], [["a"], ["a"]])


def test_partition_render_quotes_names():
    """Names print as a system file writes them, so a name holding ', ' or
    braces cannot read as two names or as a block's end."""
    one = Partition.of_blocks(["p, q", "x"], [["p, q", "x"]])
    two = Partition.of_blocks(["p", "q", "x"], [["p", "q", "x"]])
    assert one.render() == "{ {`p, q`, x} }" and two.render() == "{ {p, q, x} }"
    assert Partition.identity(["a}", "b"]).render() == "{ {`a}`}, {b} }"


def test_all_partitions_counts():
    assert list(all_partitions([])) == [Partition((), ())]
    assert sum(1 for _ in all_partitions(["a"])) == 1
    assert sum(1 for _ in all_partitions(["a", "b", "c"])) == 5
    assert sum(1 for _ in all_partitions(list("abcd"))) == 15
    assert sum(1 for _ in all_partitions(list("abcde"))) == 52


def test_ext_related_examples(fig1):
    p = Partition.of_blocks(["y", "z"], [["y", "z"]])
    phi = node(NAT1, [(Leaf("y"), 2)])
    psi = node(NAT1, [(Leaf("y"), 1), (Leaf("z"), 1)])
    assert ext_related(p, phi, psi)
    ident = Partition.identity(["y", "z"])
    assert not ext_related(ident, phi, psi)
    assert ext_related(ident, phi, phi)
    # FIG1: r0 and r2 put their mass in different blocks of {{s0,s1},{s2,s3}}
    p2 = Partition.of_blocks(fig1.states, [["s0", "s1"], ["s2", "s3"]])
    r0 = fig1.transition(0, "s0", "a")
    r2 = fig1.transition(0, "s2", "a")
    assert not ext_related(p2, r0, r2)


def test_ext_related_carrier_guard():
    p = Partition.identity(["y"])
    with pytest.raises(ValueError):
        ext_related(p, node(NAT1, [(Leaf("z"), 1)]), node(NAT1, []))


def test_is_bisimulation_examples(fig1, w3):
    assert is_bisimulation(fig1, Partition.identity(fig1.states))
    good = Partition.of_blocks(w3.states, [["x", "x'"], ["y", "z"]])
    assert is_bisimulation(w3, good)
    bad = Partition.of_blocks(fig1.states, [["s0", "s2"], ["s1"], ["s3"]])
    assert not is_bisimulation(fig1, bad)
    with pytest.raises(ValueError):
        is_bisimulation(w3, Partition.identity(["x"]))


def test_largest_bisimulation_examples(fig1, w3):
    assert largest_bisimulation(fig1) == Partition.identity(fig1.states)
    assert largest_bisimulation(w3) == Partition.of_blocks(
        w3.states, [["x", "x'"], ["y", "z"]])
    loops = parse_system(
        "futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or ]\n"
        "states { p, q }\ntrans 0 p a -> { p: tt }\ntrans 0 q a -> { q: tt }\n")
    assert largest_bisimulation(loops) == bisim_oracle.single(["p", "q"])


def brute_force_bisimilarity(s) -> Partition:
    """Union of all equivalence relations that pass the oracle's
    is_bisimulation, independent of the engine under test."""
    related = {(x, x) for x in s.states}
    for p in all_partitions(s.states):
        if bisim_oracle.is_bisimulation(s, p):
            for block in p.blocks:
                for x in block:
                    for y in block:
                        related.add((x, y))
    # the union is an equivalence; build blocks from its classes
    blocks = {}
    for x in s.states:
        cls = frozenset(y for y in s.states if (x, y) in related)
        blocks[cls] = True
    return Partition.of_blocks(s.states, [sorted(b) for b in blocks])


def test_largest_equals_brute_force_on_corpus():
    for s in corpus_systems():
        if len(s.states) > 5:
            continue
        oracle = brute_force_bisimilarity(s)
        assert largest_bisimulation(s) == oracle
        assert is_bisimulation(s, oracle)


def test_quotient_system_examples(fig1, w3):
    ident = Partition.identity(fig1.states)
    assert systems_equal(quotient_system(fig1, ident), fig1)
    p = Partition.of_blocks(w3.states, [["x", "x'"], ["y", "z"]])
    q = quotient_system(w3, p)
    assert validate(q) == []
    assert q.states == ("x", "y")
    assert q.transition(0, "x", "a") == node(NAT1, [(Leaf("y"), 2)])
    bad = Partition.of_blocks(fig1.states, [["s0", "s2"], ["s1"], ["s3"]])
    with pytest.raises(ValueError):
        quotient_system(fig1, bad)


def test_kernel_coincides_with_bisimulation():
    systems = [s for s in corpus_systems() if len(s.states) <= 4]
    for s in systems[:12]:
        for p in all_partitions(s.states):
            assert bisim_oracle.is_kernel_bisimulation(s, p) == is_bisimulation(s, p)


def test_kernel_examples(fig1):
    assert bisim_oracle.is_kernel_bisimulation(fig1, Partition.identity(fig1.states))
    bad = Partition.of_blocks(fig1.states, [["s0", "s2"], ["s1"], ["s3"]])
    assert not bisim_oracle.is_kernel_bisimulation(fig1, bad)


def test_nat_max_bisimulation():
    # idempotent weights: equal maxima per class, not equal multisets
    s = parse_system(
        "futs\nlabels A0 = { a }\nmonoids M0 = [ nat-max ]\n"
        "states { u, v, y, z }\n"
        "trans 0 u a -> { y: 3 }\n"
        "trans 0 v a -> { y: 1, z: 3 }\n")
    assert largest_bisimulation(s) == Partition.of_blocks(
        s.states, [["u", "v"], ["y", "z"]])


# --- extension law suites ------------------------------------------------------

def two_step_related(p, t, t2):
    """Level-by-level route: extend the partition to inner terms first,
    then compare outer functions over inner-term classes."""
    from futs.monoid import add
    from futs.weightfn import format_term, quotient_term

    def collapse(term):
        classes = {}
        m = term.stack[0]
        for k, w in term.entries:
            key = k.state if isinstance(k, Leaf) else format_term(quotient_term(k, p.kappa), True)
            classes[key] = add(m, classes[key], w) if key in classes else w
        return classes

    return collapse(t) == collapse(t2)


def test_extension_composition_law():
    from futs.weightfn import format_term, quotient_term
    rng = random.Random(5)
    states = ["a", "b", "c", "d"]
    stack = (NAT_PLUS, NAT_PLUS)
    parts = [p for p in all_partitions(states)]
    checked = 0
    for _ in range(200):
        p = rng.choice(parts)
        t = _random_nat_term(rng, stack, states)
        t2 = _random_nat_term(rng, stack, states)
        lhs = (format_term(quotient_term(t, p.kappa), True)
               == format_term(quotient_term(t2, p.kappa), True))
        rhs = two_step_related(p, t, t2)
        assert lhs == rhs
        checked += 1
    assert checked == 200


def _random_nat_term(rng, stack, states):
    if not stack:
        return Leaf(rng.choice(states))
    return node(stack, [(_random_nat_term(rng, stack[1:], states), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))])


def test_extension_product_law():
    # relatedness of whole transition families == componentwise relatedness
    rng = random.Random(6)
    for _ in range(60):
        s = random_futs(rng, TWO_COMP, 4)
        parts = list(all_partitions(s.states))
        p = rng.choice(parts)
        for x in s.states:
            for y in s.states:
                componentwise = all(
                    ext_related(p, s.transition(i, x, a), s.transition(i, y, a))
                    for i, c in enumerate(s.sig.components) for a in c.labels)
                from bisim_oracle import _state_signature
                whole = _state_signature(s, p, x) == _state_signature(s, p, y)
                assert componentwise == whole


def test_extension_restriction_law():
    rng = random.Random(7)
    carrier = ["a", "b", "c", "d", "e"]
    sub = ["a", "b", "c"]
    parts = list(all_partitions(carrier))
    for _ in range(200):
        p = rng.choice(parts)
        t = _random_nat_term(rng, (NAT_PLUS,), sub)
        t2 = _random_nat_term(rng, (NAT_PLUS,), sub)
        assert ext_related(p, t, t2) == ext_related(restrict(p, sub), t, t2)


def test_extension_injective_transformation_law():
    from futs.monoid import BOOL_OR, Product
    from reduce_oracle import monoid_section
    rng = random.Random(8)
    states = ["a", "b", "c", "d"]
    parts = list(all_partitions(states))
    q = Product((NAT_PLUS, NAT_PLUS))
    sec = monoid_section(0, q)
    for _ in range(200):
        p = rng.choice(parts)
        t = _random_nat_term(rng, (NAT_PLUS,), states)
        t2 = _random_nat_term(rng, (NAT_PLUS,), states)
        base = ext_related(p, t, t2)
        # dirac-style singleton embedding
        lift = lambda u: node((BOOL_OR, NAT_PLUS), [(u, True)])
        assert ext_related(p, lift(t), lift(t2)) == base
        # injective weight relabelling through a product section
        remap = lambda u: node((q,), [(k, sec(w)) for k, w in u.entries])
        assert ext_related(p, remap(t), remap(t2)) == base
