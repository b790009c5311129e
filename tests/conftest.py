"""Shared fixtures: worked systems, a signature-spanning corpus, and
seeded random system/formula generators."""

from __future__ import annotations

import functools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import futs

from futs.bisim import Partition
from futs.logic import TOP, And, Diamond, Formula
from futs.monoid import (
    BOOL_OR,
    NAT_PLUS,
    RAT_PLUS,
    BoolOr,
    Monoid,
    NatMax,
    NatPlus,
    Power,
    Product,
    RatPlus,
    Weight,
    add,
    check_weight,
    zero,
)
from futs.system import Component, Futs, Signature
from futs.textio import parse_system
from futs.weightfn import Leaf, Node, Term, node
from reduce_oracle import Hom

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


# README's deliberately red tests, as "<file>::<test>"
DELIBERATE_FAILURES = frozenset({
    "test_acceptance.py::test_criterion6_mop_intersection",
    "test_acceptance.py::test_criterion6_mop_sum_split",
    "test_logic.py::test_diamond_conjunction_distribution_as_displayed",
})


def pytest_terminal_summary(terminalreporter):
    """One line comparing the run's failures with the deliberate ones;
    verdicts and the exit status are left as they are.  A deliberate test
    that did not run (renamed, deleted, skipped or deselected) while its
    file produced outcomes is not as documented either."""
    def ids(*outcomes):
        return {Path(path).name + sep + test for outcome in outcomes
                for path, sep, test in (r.nodeid.partition("::")
                                        for r in terminalreporter.stats.get(outcome, ()))}

    unexpected = sorted((ids("failed") - DELIBERATE_FAILURES) | ids("error"))
    passed = sorted(ids("passed") & DELIBERATE_FAILURES)
    files = {i.partition("::")[0] for i in ids("passed", "failed", "error", "skipped",
                                               "xfailed", "xpassed", "deselected")}
    missing = sorted(d for d in DELIBERATE_FAILURES - ids("passed", "failed", "error")
                     if d.partition("::")[0] in files)
    if not unexpected and not passed and not missing:
        terminalreporter.write_line("deliberate failures: as documented")
        return
    terminalreporter.write_line(
        "deliberate failures: NOT as documented; unexpected failures: "
        f"{', '.join(unexpected) or 'none'}; deliberate tests that passed: "
        f"{', '.join(passed) or 'none'}; deliberate tests that did not run: "
        f"{', '.join(missing) or 'none'}")


class Hashed:
    """An object whose hash is the given value: rebuilds a dataclass's
    hash from child hashes computed by walking the whole structure."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def load_from_other_process(expr: str, imports: str):
    """Build ``expr`` in a process with another str hash seed, pickle it
    there and load it here."""
    code = f"import pickle, sys\n{imports}\nsys.stdout.buffer.write(pickle.dumps({expr}))"
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(Path(futs.__file__).parents[1]))
    data = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True).stdout
    return pickle.loads(data)


def nat_chain_text(n: int, ring: int = 0) -> str:
    """A nat-plus chain c0 -> c1 -> ... -> c<n-1>, weight 1 per step, and
    beside it a cycle r0 -> r1 -> ... -> r<ring-1> -> r0 if ``ring``."""
    names = [f"c{k}" for k in range(n)] + [f"r{k}" for k in range(ring)]
    steps = [(f"c{k}", f"c{k + 1}") for k in range(n - 1)]
    steps += [(f"r{k}", f"r{(k + 1) % ring}") for k in range(ring)]
    return ("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
            "states { " + ", ".join(names) + " }\n"
            + "".join(f"trans 0 {x} a -> {{ {y}: 1 }}\n" for x, y in steps))


def load(name: str) -> Futs:
    return parse_system((DATA / name).read_text())


@pytest.fixture(scope="session")
def fig1() -> Futs:
    return load("fig1.futs")


@pytest.fixture(scope="session")
def w3() -> Futs:
    return load("w3.futs")


@pytest.fixture(scope="session")
def absence_pair() -> Futs:
    """One boolean system holding both processes of the negative control:
    p0 offers a to both a b-capable and a deadlocked state, q0 only to a
    b-capable one.  Not bisimilar, but conjunction-only logic cannot tell
    them apart (it cannot express the absence of the b step)."""
    return parse_system(
        "futs\n"
        "labels A0 = { a, b }\n"
        "monoids M0 = [ bool-or ]\n"
        "states { p0, p1, pd, q0, q1 }\n"
        "trans 0 p0 a -> { p1: tt, pd: tt }\n"
        "trans 0 p1 b -> { pd: tt }\n"
        "trans 0 q0 a -> { q1: tt }\n"
        "trans 0 q1 b -> { pd: tt }\n"
    )


# --- validators, identities, compositions and lookups used only by tests ------


def term_depth(t: Term) -> int:
    return len(t.stack) if isinstance(t, Node) else 0


def leaves(t: Term) -> set[str]:
    if isinstance(t, Leaf):
        return {t.state}
    acc: set[str] = set()
    for k, _ in t.entries:
        acc |= leaves(k)
    return acc


def validate(s: Futs) -> list[str]:
    """Check every invariant; returns diagnostics rather than raising."""
    out: list[str] = []
    if not s.states:
        out.append("empty carrier")
    state_set = set(s.states)
    n = len(s.sig.components)
    for (i, x, a), term in sorted(s.trans.items()):
        where = f"component {i}, state {x}, label {a}"
        if not 0 <= i < n:
            out.append(f"{where}: component index out of range")
            continue
        comp = s.sig.components[i]
        if x not in state_set:
            out.append(f"{where}: unknown source state")
        if a not in comp.labels:
            out.append(f"{where}: unknown label")
        if not isinstance(term, Node) or term_depth(term) != comp.depth:
            out.append(f"{where}: depth mismatch (expected {comp.depth})")
            continue
        if term.stack != comp.monoids:
            out.append(f"{where}: monoid stack mismatch")
            continue
        for leaf in sorted(leaves(term)):
            if leaf not in state_set:
                out.append(f"{where}: unknown state {leaf!r} in transition term")
    return out


def identity_hom(m: Monoid) -> Hom:
    return Hom(m, m, lambda w: w, injective=True, name="id")


def compose_hom(outer: Hom, inner: Hom) -> Hom:
    if inner.target != outer.source:
        raise ValueError("homomorphism composition type mismatch")
    return Hom(inner.source, outer.target, lambda w: outer.fn(inner.fn(w)),
               injective=outer.injective and inner.injective,
               name=f"{outer.name}.{inner.name}")


def weight_of(t: Node, key: Term):
    """Lookup with the monoid zero as default."""
    for k, w in t.entries:
        if k == key:
            return w
    return zero(t.stack[0])


def singleton(stack, key: Term, w: Weight) -> Node:
    return node(stack, [(key, w)])


def support(t: Node) -> tuple[Term, ...]:
    """The keys with non-zero weight."""
    if not isinstance(t, Node):
        raise TypeError("support is only defined on nodes")
    return tuple(k for k, _ in t.entries)


def term_equal(t: Term, t2: Term) -> bool:
    """Structural equality of canonical forms.

    Requires both terms to live over the same depth and monoid stack;
    anything else is a usage bug and raises.
    """
    d1, d2 = term_depth(t), term_depth(t2)
    if d1 != d2:
        raise ValueError(f"depth mismatch: {d1} vs {d2}")
    if d1 > 0 and t.stack != t2.stack:
        raise ValueError("monoid stack mismatch")
    return t == t2


def add_all(m: Monoid, weights) -> Weight:
    """The monoid sum of ``weights`` (the zero when there are none)."""
    return functools.reduce(functools.partial(add, m), weights, zero(m))


def class_sum(t: Node, members) -> Weight:
    """Monoid sum of the weights of entries whose key lies in ``members``."""
    wanted = set(members)
    return add_all(t.stack[0], (w for k, w in t.entries if k in wanted))


def systems_equal(s1: Futs, s2: Futs) -> bool:
    return s1.sig == s2.sig and s1.states == s2.states and s1.trans == s2.trans


def assert_canonical(s: Futs):
    """Every ``Node`` of every transition term is canonical at every level:
    ``node()`` rebuilds it unchanged, down to the type of each weight."""
    todo = list(s.trans.values())
    while todo:
        t = todo.pop()
        rebuilt = node(t.stack, t.entries)
        assert rebuilt == t and repr(rebuilt) == repr(t), t
        todo += [k for k, _ in t.entries if isinstance(k, Node)]


def project_component(s: Futs, i: int) -> Futs:
    """The single-component system keeping only component ``i``."""
    comp = s.sig.components[i]
    trans = {(0, x, a): term for (j, x, a), term in s.trans.items() if j == i}
    return Futs(Signature((comp,)), s.states, trans)


def dirac_embed(w: Futs) -> Futs:
    """Embed a simple system into the boolean-outer two-level class.

    Every transition function phi becomes the singleton set {phi}, encoded
    as the boolean-weighted term {phi: tt}; this applies to the zero
    function too, which becomes { {}: tt } rather than the zero term.
    """
    if not w.sig.is_simple:
        raise ValueError("dirac_embed needs a simple (single component, depth 1) system")
    comp = w.sig.components[0]
    new_comp = Component(comp.labels, (BOOL_OR,) + comp.monoids)
    sig = Signature((new_comp,))
    trans = {}
    for x in w.states:
        for a in comp.labels:
            phi = w.transition(0, x, a)
            trans[(0, x, a)] = node(new_comp.monoids, [(phi, True)])
    return Futs(sig, w.states, trans)


def intermediates(r) -> tuple:
    """A flatten reduction's added states as name-sorted (name, term)
    pairs, read off its ``term_states`` and its source's graph."""
    term = r.source.graph.term
    return tuple(sorted((name, term[v]) for v, name in r.term_states.items()))


def restrict(p: Partition, sub) -> Partition:
    """The partition's trace on the states in ``sub``."""
    keep = set(sub)
    blocks = [tuple(x for x in b if x in keep) for b in p.blocks]
    return Partition.of_blocks(keep, [b for b in blocks if b])


# --- seeded random generation -------------------------------------------------


def random_weight(rng: random.Random, m: Monoid, nonzero: bool = False):
    if isinstance(m, BoolOr):
        w = True if nonzero else rng.random() < 0.7
    elif isinstance(m, (NatPlus, NatMax)):
        w = rng.randint(1 if nonzero else 0, 3)
    elif isinstance(m, RatPlus):
        w = Fraction(rng.randint(1 if nonzero else 0, 4), rng.randint(1, 3))
    elif isinstance(m, Product):
        while True:
            w = tuple(random_weight(rng, f) for f in m.factors)
            if not nonzero or w != zero(m):
                break
    elif isinstance(m, Power):
        while True:
            w = tuple((lab, random_weight(rng, m.base, nonzero=True))
                      for lab in m.labels if rng.random() < 0.5)
            if not nonzero or w:
                break
    else:
        raise TypeError(m)
    return check_weight(m, w)


def random_term(rng: random.Random, stack, states, max_entries: int = 3):
    if not stack:
        return Leaf(rng.choice(states))
    entries = []
    for _ in range(rng.randint(0, max_entries)):
        entries.append((random_term(rng, stack[1:], states, max_entries),
                        random_weight(rng, stack[0], nonzero=True)))
    return node(stack, entries)


def random_futs(rng: random.Random, sig: Signature, n_states: int,
                density: float = 0.8) -> Futs:
    states = [f"q{k}" for k in range(n_states)]
    trans = {}
    for i, comp in enumerate(sig.components):
        for x in states:
            for a in comp.labels:
                if rng.random() < density:
                    trans[(i, x, a)] = random_term(rng, comp.monoids, states)
    s = Futs(sig, states, trans)
    assert not validate(s)
    return s


WLTS_NAT = Signature((Component(("a", "b"), (NAT_PLUS,)),))
WLTS_RAT = Signature((Component(("a",), (RAT_PLUS,)),))
WLTS_PROD = Signature((Component(("a", "b"), (Product((NAT_PLUS, RAT_PLUS)),)),))
ULTRAS_RAT = Signature((Component(("a", "b"), (BOOL_OR, RAT_PLUS)),))
NESTED3 = Signature((Component(("a", "b"), (NAT_PLUS, BOOL_OR, RAT_PLUS)),))
TWO_COMP = Signature((
    Component(("a",), (NAT_PLUS,)),
    Component(("b", "c"), (BOOL_OR, NAT_PLUS)),
))
TWO_COMP_CANC = Signature((
    Component(("a",), (NAT_PLUS,)),
    Component(("b",), (RAT_PLUS, NAT_PLUS)),
))
NESTED2_CANC = Signature((Component(("a",), (RAT_PLUS, NAT_PLUS)),))
CORPUS_SIGS = [WLTS_NAT, WLTS_RAT, WLTS_PROD, ULTRAS_RAT, NESTED3, TWO_COMP,
               TWO_COMP_CANC, NESTED2_CANC]


def corpus_systems() -> list[Futs]:
    """>= 30 systems with <= 5 states spanning the signature classes
    (WLTS, ULTraS, two-component FuTS, three-level nested FuTS) over
    bool-or / nat-plus / rat-plus / products."""
    out = [load("fig1.futs"), load("w3.futs")]
    out.append(parse_system(
        "futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or ]\n"
        "states { p, q }\ntrans 0 p a -> { p: tt }\ntrans 0 q a -> { q: tt }\n"))
    out.append(parse_system(  # all-deadlock system
        "futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\nstates { u, v }\n"))
    rng = random.Random(20240521)
    menu = [
        (WLTS_NAT, 4), (WLTS_RAT, 3), (WLTS_PROD, 4),
        (ULTRAS_RAT, 4), (NESTED3, 3), (TWO_COMP, 4),
        (WLTS_NAT, 5), (ULTRAS_RAT, 5), (TWO_COMP, 3), (NESTED3, 4),
    ]
    for k in range(3):
        for sig, n in menu:
            out.append(random_futs(rng, sig, n - (k % 2)))
    return out


def cancellative_corpus(count: int = 100) -> list[Futs]:
    rng = random.Random(987654)
    menu = [WLTS_NAT, WLTS_RAT, WLTS_PROD, NESTED2_CANC, TWO_COMP_CANC]
    out = []
    while len(out) < count:
        sig = menu[len(out) % len(menu)]
        out.append(random_futs(rng, sig, rng.randint(2, 5)))
    return out


def random_formula(rng: random.Random, sig: Signature, depth: int) -> Formula:
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return TOP
    if roll < 0.4:
        return And(random_formula(rng, sig, depth - 1),
                   random_formula(rng, sig, depth - 1))
    i = rng.randrange(len(sig.components))
    comp = sig.components[i]
    a = rng.choice(comp.labels)
    bounds = tuple(random_weight(rng, m) for m in comp.monoids)
    return Diamond(i, a, bounds, random_formula(rng, sig, depth - 1))
