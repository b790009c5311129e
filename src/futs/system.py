"""Finite state-to-function transition systems.

A system is a signature (one row of labels and a monoid stack per
component), a finite carrier of state ids, and a total transition map
assigning to every (component, state, label) a weight term of the row's
depth; absent entries denote the zero term.  Systems are immutable after
construction and all operations here are pure.
"""

from __future__ import annotations

from functools import cached_property, partial
from types import MappingProxyType

from .monoid import Monoid, Value, check_names
from .weightfn import Node, zero_term


class Component(Value):
    __slots__ = ("labels", "monoids")

    def __init__(self, labels: tuple[str, ...], monoids: tuple[Monoid, ...]):
        labels = check_names(tuple(sorted(set(labels))), "label")
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
        self.states = check_names(tuple(sorted(set(states))), "state")
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

    States are nodes ``0..n-1`` in ``s.states`` order; every distinct ``Node``
    subterm of a stored transition term (``s.trans``), and each component's
    zero term, which fills the other slots, is one further node, numbered
    after its children and hash-consed on its kind and entries, so no term is
    hashed or compared.  ``ids`` maps state names to nodes, ``term`` holds a
    term node's ``Node``, ``out`` a state's term node per slot (``slots`` maps
    each (component, label) to its index) or a term's (child, weight) entries,
    and ``kind`` is 0 for states and numbers the signature's monoid stacks
    from 1 (one that no term uses leaves a gap).  The term nodes below the
    top depth are the states that flattening adds.
    ``sat`` is the model checker's cache (``futs.logic._sat``): formula
    -> the frozenset of state nodes satisfying it, kept as long as the system,
    and ``bisim`` the answer of ``futs.bisim.largest_bisimulation``.
    """

    def __init__(self, s: Futs):
        self.n = len(s.states)
        self.ids = {x: v for v, x in enumerate(s.states)}
        self.slots = {(i, a): k for k, (i, a) in enumerate(
            (i, a) for i, comp in enumerate(s.sig.components) for a in comp.labels)}
        self._depths = [s.sig.components[i].depth for i, _a in self.slots]
        self.term, self.out, self.kind = [None] * self.n, [None] * self.n, [0] * self.n
        stacks: dict = {}  # per component, the kind of each level of its stack
        rows = [[stacks.setdefault(c.monoids[j:], len(stacks) + 1) for j in range(c.depth)]
                for c in s.sig.components]
        zeros, kinds = [s._zeros[i] for i, _a in self.slots], [rows[i] for i, _a in self.slots]
        terms: dict = {}  # a state with stored transitions -> its terms by slot
        for (i, x, a), t in s.trans.items():
            (terms.get(x) or terms.setdefault(x, zeros.copy()))[self.slots[i, a]] = t
        cons, seen = {}, {}  # (kind, out) -> node, and id() of a term (alive in s) -> node
        for v, x in enumerate(s.states):  # a term seen before (a node > 0) costs no call
            self.out[v] = [seen.get(id(t)) or self._intern(t, ks, 0, cons, seen)
                           for t, ks in zip(terms.get(x, zeros), kinds)]
        self.sat, self.bisim = {}, None

    # The recursive helpers are methods, not closures: a closure that calls
    # itself is a reference cycle, which only the cyclic collector frees.
    def _intern(self, t: Node, kinds: list, j: int, cons: dict, seen: dict) -> int:
        v = seen.get(id(t))
        if v is None:
            if j + 1 < len(kinds):
                out = tuple([(self._intern(c, kinds, j + 1, cons, seen), w) for c, w in t.entries])
            else:
                out = tuple([(self.ids[c.state], w) for c, w in t.entries])
            v = seen[id(t)] = cons.setdefault((kinds[j], out), len(self.out))
            if v == len(self.out):
                self.term.append(t)
                self.out.append(out)
                self.kind.append(kinds[j])
        return v

    @cached_property
    def levels(self) -> list:
        """Per slot, a set of distinct term nodes per stack level, top first."""
        levels = [[set(per_slot)] for per_slot in self.owners]
        for per_slot, depth in zip(levels, self._depths):
            while len(per_slot) < depth:
                per_slot.append({c for t in per_slot[-1] for c, _w in self.out[t]})
        return levels

    @cached_property
    def owners(self) -> list:
        """Per slot, each top term node -> the states whose term it is."""
        owners: list = [{} for _ in self._depths]
        for v in range(self.n):
            for per_slot, t in zip(owners, self.out[v]):
                per_slot.setdefault(t, []).append(v)
        return owners

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
        return partial(self._class_of, list(state_blocks) + [None] * (len(self.out) - self.n), {})

    def _class_of(self, block: list, classes: dict, v: int):
        if block[v] is None:
            for c, _ in self.out[v]:
                self._class_of(block, classes, c)
            block[v] = classes.setdefault((self.kind[v], self.signature(block, v)), len(classes))
        return block[v]
