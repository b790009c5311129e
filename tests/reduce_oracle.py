"""The second-walk flatten and its quotient-term extension, kept as the
differential oracle for ``futs.reduce`` and the compiled graph.

``Graph`` interns terms by rebuilt (kind, child ids, weights) tuple keys
and builds the reverse edges up front.  ``flatten`` collects its
intermediate terms with a walk of its own (``subterms_at_depths``) and
names them by their canonical keys, and ``_extend`` groups flatten's
term-states by the canonical key of each term quotiented under the
partition.  It dispatches on the stage's ``kind`` and recurses through the
composite's stages, where ``futs.reduce`` runs one loop; every stage other
than flatten keeps the partition's blocks, its states keeping their names.

Next to them is the homogenize the library ran before its direct product
embedding: the monoid homomorphism layer (``Hom``, ``hom_apply``,
``monoid_section``) and ``relabel_weights``, which maps every weight of a
system through one homomorphism per (component, level).

``unlabel`` and ``tabularize`` are the stages as the library ran them
before they built their ``Node``s directly: every term goes through
``node()``'s checks, sort, merge and zero-drop, as every level does in
``relabel_weights``, the oracle of the directly built ``homogenize``.
``restrict_bisim`` and ``extend_bisim`` realise the bisimulation
correspondence of a reduction procedurally, each after checking that its
input is a bisimulation.
"""

from __future__ import annotations

from typing import Callable

import conftest  # conftest imports Hom from here, so its helpers are looked up on use
from futs import monoid as mo
from futs import reduce as rd
from futs.bisim import Partition, is_bisimulation
from futs.monoid import (Monoid, Product, Value, Weight, check_weight, format_monoid,
                         power_dirac, zero)
from futs.reduce import Reduction, flat_monoid_product, sig_flatten
from futs.system import Component, Futs, Signature
from futs.weightfn import Leaf, Node, Term, format_term, node, quotient_term


def term_key(t: Term) -> str:
    return format_term(t, compact=True)


class Graph:
    """A system compiled to integer ids.

    States are nodes ``0..n-1`` in ``s.states`` order; every distinct
    ``Node`` subterm of a transition term, each component's zero term
    included, is one further node, numbered after its children.  ``out``
    holds a state's term node per (component, label) slot, or a term's
    (child, weight) entries, ``term`` a term node's first ``Node``, and
    ``preds`` the reverse edges.  ``kind`` is 0 for states and numbers a
    term's monoid stack from 1.
    """

    def __init__(self, s: Futs):
        self.n = len(s.states)
        leaf = {x: v for v, x in enumerate(s.states)}
        self.out, self.kind, self.outer = [None] * self.n, [0] * self.n, [None] * self.n
        self.term = [None] * self.n
        kinds, nodes = {}, {}

        def intern(t: Term) -> int:
            if isinstance(t, Leaf):
                return leaf[t.state]
            key = (kinds.setdefault(t.stack, len(kinds) + 1),
                   tuple((intern(c), w) for c, w in t.entries))
            if key not in nodes:
                nodes[key] = len(self.out)
                self.kind.append(key[0])
                self.out.append(key[1])
                self.outer.append(t.stack[0])
                self.term.append(t)
            return nodes[key]

        for v, x in enumerate(s.states):
            self.out[v] = [intern(s.transition(i, x, a))
                           for i, comp in enumerate(s.sig.components) for a in comp.labels]
        self.preds: list = [[] for _ in self.out]
        for v, edges in enumerate(self.out):
            for c in edges if v < self.n else (c for c, _ in edges):
                self.preds[c].append(v)

    def signature(self, block: list, v: int):
        """A state's slot blocks, or a term's weights summed per child block."""
        if v < self.n:
            return tuple(block[t] for t in self.out[v])
        m = self.outer[v]
        sums: dict = {}
        for c, w in self.out[v]:
            b = block[c]
            sums[b] = mo.add(m, sums[b], w) if b in sums else w
        return frozenset(sums.items())


def subterms_at_depths(t: Term, lo: int = 1) -> set[Term]:
    """All node subterms of depth >= lo strictly below ``t`` itself."""
    found: set[Term] = set()

    def walk(sub: Term):
        if isinstance(sub, Node):
            if conftest.term_depth(sub) >= lo:
                found.add(sub)
            for k, _ in sub.entries:
                walk(k)

    if isinstance(t, Node):
        for k, _ in t.entries:
            walk(k)
    return found


def intermediate_id(term: Term) -> str:
    return f"#{conftest.term_depth(term)}:{term_key(term)}"


def flatten(s: Futs) -> Reduction:
    """Split multi-level steps into single-level ones.

    The target carrier is the source carrier plus one state per distinct
    intermediate weight term (depth 1..l) reachable in some transition;
    an original state steps to the term-states of its outer transition,
    and a term-state's single transition is the term itself read one
    level down.  The reduction's ``intermediates`` holds the name-sorted
    (name, term) pairs, which ``conftest.intermediates`` reads off a
    library flatten.  Its ``term_states`` names each intermediate by term,
    not by graph node as the library's does; the constructor reads it only
    to derive ``full``.
    """
    sig2 = sig_flatten(s.sig)
    comp = s.sig.components[0]
    lab = comp.labels[0]
    base = (comp.monoids[0],)

    interm: dict[Term, str] = {}
    for (_i, _x, _a), term in s.trans.items():
        for sub in subterms_at_depths(term):
            interm.setdefault(sub, intermediate_id(sub))
    clash = set(interm.values()) & set(s.states)
    if clash:
        raise ValueError(f"generated state ids collide with carrier: {sorted(clash)}")

    def one_level(term: Node) -> Node:
        entries = []
        for k, w in term.entries:
            entries.append((Leaf(interm[k]) if isinstance(k, Node) else k, w))
        return node(base, entries)

    trans = {}
    for x in s.states:
        t = s.transition(0, x, lab)
        trans[(0, x, lab)] = one_level(t)
    for term, name in interm.items():
        trans[(0, name, lab)] = one_level(term)

    target = Futs(sig2, tuple(s.states) + tuple(interm.values()), trans)
    r = Reduction("flatten", s, target, term_states=dict(interm))
    r.intermediates = tuple(sorted(((name, term) for term, name in interm.items())))
    return r


def _extend(r: Reduction, p: Partition) -> Partition:
    if r.stages:
        q = p
        for st in r.stages:
            q = _extend(st, q)
        return q
    if r.kind == "flatten":
        blocks = [tuple(b) for b in p.blocks]
        groups: dict[tuple[int, str], list[str]] = {}
        for name, term in conftest.intermediates(r):
            key = (conftest.term_depth(term), term_key(quotient_term(term, p.kappa)))
            groups.setdefault(key, []).append(name)
        blocks.extend(tuple(g) for g in groups.values())
        return Partition.of_blocks(r.target.states, blocks)
    return Partition.of_blocks(r.target.states, p.blocks)


# --- homomorphisms ---------------------------------------------------------

class Hom(Value):
    """A monoid homomorphism with explicit source/target descriptors.

    Only injective homomorphisms are constructed by this module (identity,
    product sections, dirac embeddings and their compositions); weight
    relabelling of systems relies on that to preserve bisimilarity.
    Equality and hashing ignore ``fn``; ``repr`` shows it.
    """

    __slots__ = ("source", "target", "fn", "injective", "name")

    def __init__(self, source: Monoid, target: Monoid, fn: Callable[[Weight], Weight],
                 injective: bool = True, name: str = ""):
        Value.__init__(self, source, target, fn, injective, name)
        object.__setattr__(self, "_values", (source, target, injective, name))

    def __call__(self, w: Weight) -> Weight:
        return self.fn(w)


def hom_apply(h: Hom, w: Weight) -> Weight:
    """Apply ``h`` to a payload of its source monoid."""
    w = check_weight(h.source, w)
    return check_weight(h.target, h.fn(w))


def monoid_section(index: int, p: Product) -> Hom:
    """Section of the ``index``-th projection of a product monoid.

    Sends m to the tuple that is m at ``index`` and the unit elsewhere.
    """
    if not isinstance(p, Product):
        raise TypeError("monoid_section needs a product monoid")
    if not 0 <= index < len(p.factors):
        raise IndexError(f"product index {index} out of range")
    zeros = tuple(zero(f) for f in p.factors)

    def fn(w, _i=index, _z=zeros):
        return _z[:_i] + (w,) + _z[_i + 1:]

    return Hom(p.factors[index], p, fn, injective=True, name=f"sec{index}")


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


def homog_sections(sig: Signature) -> list[tuple[Hom, ...]]:
    """Per-(component, level) sections into the flat monoid product."""
    q = flat_monoid_product(sig)
    rows, offset = [], 0
    for c in sig.components:
        rows.append(tuple(monoid_section(offset + j, q) for j in range(c.depth)))
        offset += c.depth
    return rows


def homogenize(s: Futs) -> Reduction:
    """Embed every weight into the product of all the signature's monoids."""
    target = relabel_weights(s, homog_sections(s.sig))
    return Reduction("homogenize", s, target)


# --- the node()-built unlabel and tabularize; the bisimulation correspondence

def unlabel(s: Futs) -> Reduction:
    """Fold labels into the outer weights: a transition with weight w at
    label a contributes the dirac element a*w of the power monoid."""
    sig2 = rd.sig_unlabel(s.sig)
    trans = {}
    for i, comp in enumerate(s.sig.components):
        stack2 = sig2.components[i].monoids
        for x in s.states:
            entries = [(k, power_dirac(a, w, comp.labels, comp.monoids[0]))
                       for a in comp.labels for k, w in s.transition(i, x, a).entries]
            trans[(i, x, rd.UNLABEL_LABEL)] = node(stack2, entries)
    target = Futs(sig2, s.states, trans)
    return Reduction("unlabel", s, target)


def tabularize(s: Futs) -> Reduction:
    """Left-pad every row to the maximal depth with nat-plus levels; each
    added level wraps the term in the functional singleton {term: 1}."""
    sig2 = rd.sig_tabularize(s.sig)
    depth = sig2.components[0].depth
    trans = {}
    for i, comp in enumerate(s.sig.components):
        pad = depth - comp.depth
        for x in s.states:
            for a in comp.labels:
                term = s.transition(i, x, a)
                for j in range(1, pad + 1):
                    term = node((mo.NAT_PLUS,) * j + comp.monoids, [(term, 1)])
                trans[(i, x, a)] = term
    target = Futs(sig2, s.states, trans)
    return Reduction("tabularize", s, target)


def restrict_bisim(r: Reduction, p_target: Partition) -> Partition:
    """Pull a target bisimulation back along the carrier map."""
    if not is_bisimulation(r.target, p_target):
        raise ValueError("restrict_bisim needs a bisimulation on the target")
    return rd._pullback(r, p_target)


def extend_bisim(r: Reduction, p: Partition) -> Partition:
    """Push a source bisimulation forward to one on the target (see
    ``futs.reduce._extend``)."""
    if not is_bisimulation(r.source, p):
        raise ValueError("extend_bisim needs a bisimulation on the source")
    return rd._extend(r, p)
