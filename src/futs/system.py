"""Finite state-to-function transition systems.

A system is a signature (one row of labels and a monoid stack per
component), a finite carrier of state ids, and a total transition map
assigning to every (component, state, label) a weight term of the row's
depth; absent entries denote the zero term.  Systems are immutable after
construction and all operations here are pure.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

from .monoid import Hom, Monoid, Value, format_monoid
from .weightfn import Leaf, Node, Term, leaves, node, term_depth, zero_term


class Component(Value):
    __slots__ = ("labels", "monoids")

    def __init__(self, labels: tuple[str, ...], monoids: tuple[Monoid, ...]):
        labels = tuple(sorted(set(labels)))
        if not labels:
            raise ValueError("component needs a non-empty label set")
        monoids = tuple(monoids)
        if not monoids:
            raise ValueError("component needs a non-empty monoid stack")
        Value.__init__(self, labels, monoids)

    @property
    def depth(self) -> int:
        return len(self.monoids)


class Signature(Value):
    __slots__ = ("components",)

    def __init__(self, components: tuple[Component, ...]):
        components = tuple(components)
        if not components:
            raise ValueError("signature needs at least one component")
        Value.__init__(self, components)

    @property
    def is_nested(self) -> bool:
        return len(self.components) == 1

    @property
    def is_combined(self) -> bool:
        return all(c.depth == 1 for c in self.components)

    @property
    def is_simple(self) -> bool:
        return self.is_nested and self.is_combined

    @property
    def is_tabular(self) -> bool:
        return len({c.depth for c in self.components}) == 1

    @property
    def is_homogeneous(self) -> bool:
        return len({m for c in self.components for m in c.monoids}) == 1

    @property
    def is_unlabelled(self) -> bool:
        return all(len(c.labels) == 1 for c in self.components)


class Futs:
    """A system over a signature; treat as read-only once built."""

    def __init__(self, sig: Signature, states, trans=None):
        self.sig = sig
        self.states = tuple(sorted(set(states)))
        stored: dict[tuple[int, str, str], Node] = {}
        for (i, x, a), term in (trans or {}).items():
            if not isinstance(term, Node) or term.entries:
                stored[(i, x, a)] = term
        self.trans = MappingProxyType(stored)
        self._zeros = {i: zero_term(c.monoids) for i, c in enumerate(sig.components)}

    def transition(self, i: int, state: str, label: str) -> Node:
        return self.trans.get((i, state, label), self._zeros[i])

    @cached_property
    def graph(self) -> "Graph":
        """The system compiled to integer ids, built on first use."""
        return Graph(self)


class Graph:
    """A system compiled to integer ids.

    States are nodes ``0..n-1`` in ``s.states`` order; every distinct
    ``Node`` subterm of a transition term, each component's zero term
    included, is one further node, numbered after its children.  ``ids``
    maps state names and terms to nodes, ``term`` holds a term node's
    ``Node``, ``out`` a state's term node per slot (``slots`` maps each
    (component, label) to its index) or a term's (child, weight) entries,
    and ``kind`` is 0 for states and numbers a term's monoid stack from 1.
    The term nodes below the top depth are the states that flattening adds.
    """

    def __init__(self, s: Futs):
        self.n = len(s.states)
        self.ids: dict = {x: v for v, x in enumerate(s.states)}
        self.slots = {(i, a): k for k, (i, a) in enumerate(
            (i, a) for i, comp in enumerate(s.sig.components) for a in comp.labels)}
        self._depths = [s.sig.components[i].depth for i, _a in self.slots]
        self.term, self.out, self.kind = [None] * self.n, [None] * self.n, [0] * self.n
        kinds: dict = {}

        def intern(t: Term) -> int:
            if isinstance(t, Leaf):
                return self.ids[t.state]
            v = self.ids.get(t)
            if v is None:
                out = tuple((intern(c), w) for c, w in t.entries)
                v = self.ids[t] = len(self.out)
                self.term.append(t)
                self.out.append(out)
                self.kind.append(kinds.setdefault(t.stack, len(kinds) + 1))
            return v

        for v, x in enumerate(s.states):
            self.out[v] = [intern(s.transition(i, x, a)) for i, a in self.slots]

    @cached_property
    def levels(self) -> list:
        """Per slot, a set of distinct term nodes per stack level, top first."""
        levels = [[{self.out[v][k] for v in range(self.n)}] for k in range(len(self._depths))]
        for per_slot, depth in zip(levels, self._depths):
            while len(per_slot) < depth:
                per_slot.append({c for t in per_slot[-1] for c, _w in self.out[t]})
        return levels

    @cached_property
    def preds(self) -> list:
        """The reverse edges, built on first use."""
        preds: list = [[] for _ in self.out]
        for v, edges in enumerate(self.out):
            for c in edges if v < self.n else (c for c, _ in edges):
                preds[c].append(v)
        return preds

    def signature(self, block: list, v: int):
        """A state's slot blocks, or a term's weights summed per child block."""
        if v < self.n:
            return tuple(block[t] for t in self.out[v])
        plus = self.term[v].stack[0]._add
        sums: dict = {}
        for c, w in self.out[v]:
            b = block[c]
            sums[b] = plus(sums[b], w) if b in sums else w
        return frozenset(sums.items())

    def classifier(self, state_blocks):
        """``class_of(v)``: the class of term node ``v`` under a partition
        given as one block per state, computed bottom-up on first use.  Two
        terms share a class iff the partition's extension relates them."""
        block = list(state_blocks) + [None] * (len(self.out) - self.n)
        classes: dict = {}

        def class_of(v: int):
            if block[v] is None:
                for c, _ in self.out[v]:
                    class_of(c)
                block[v] = classes.setdefault((self.kind[v], self.signature(block, v)),
                                              len(classes))
            return block[v]

        return class_of


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


def _map_term(term: Term, homs: tuple[Hom, ...], new_stack: tuple[Monoid, ...]) -> Term:
    if isinstance(term, Leaf):
        return term
    entries = [(_map_term(k, homs[1:], new_stack[1:]), homs[0](w)) for k, w in term.entries]
    return node(new_stack, entries)


def relabel_weights(s: Futs, homs) -> Futs:
    """Map every weight at level j of component i through homs[i][j].

    All homomorphisms must be injective: that is what guarantees the
    rewrite preserves and reflects bisimilarity.
    """
    rows = [tuple(row) for row in homs]
    if len(rows) != len(s.sig.components):
        raise ValueError("one homomorphism row per component expected")
    new_comps = []
    for comp, row in zip(s.sig.components, rows):
        if len(row) != comp.depth:
            raise ValueError("one homomorphism per monoid stack level expected")
        for h, m in zip(row, comp.monoids):
            if h.source != m:
                raise ValueError(f"homomorphism source {format_monoid(h.source)} "
                                 f"does not match level monoid {format_monoid(m)}")
            if not h.injective:
                raise ValueError("relabel_weights requires injective homomorphisms")
        new_comps.append(Component(comp.labels, tuple(h.target for h in row)))
    sig = Signature(tuple(new_comps))
    trans = {(i, x, a): _map_term(term, rows[i], new_comps[i].monoids)
             for (i, x, a), term in s.trans.items()}
    return Futs(sig, s.states, trans)
