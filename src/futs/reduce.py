"""Bisimulation-coherent reductions down to weighted transition systems.

Five stages are provided.  Four are full (they keep the carrier):

* ``unlabel``     folds each component's labels into a power monoid at
                  the outermost weight level,
* ``tabularize``  left-pads shorter monoid stacks with functional
                  nat-plus levels so all rows have equal depth,
* ``homogenize``  puts every weight at its level's factor of the product
                  of all the signature's monoids, zeros elsewhere,
* ``nest``        merges the components of a tabular homogeneous system
                  into one component over the fused (i, label) label set.

The fifth, ``flatten``, turns an unlabelled homogeneous nested system
into a single-level system whose extra states are the intermediate
weight terms reachable in some transition, read off the system's
compiled graph (``Futs.graph``); it is injective but not full.

``to_wts`` composes them into the FuTS -> WTS pipeline.  The stage plan
is computed from the signature alone (``plan_wts_stages``) so the logic
module can translate formulas along exactly the same stages.  After
``nest`` a multi-component source still carries one fused label per
component, so the plan inserts a second ``unlabel`` (and, since that
breaks homogeneity again, a second ``homogenize``) before flattening;
single-component sources skip both.

Each stage returns a ``Reduction`` carrying the target system and the
carrier map; ``verify_reduction`` checks the coherence condition over
all (or sampled) equivalence relations on the source.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .monoid import NAT_PLUS, Power, Product, zero
from .system import Component, Futs, Signature
from .weightfn import Leaf, Node, Term, format_term, node

if TYPE_CHECKING:  # the stages need no bisimulation code; the rest imports it on use
    from .bisim import Partition

UNLABEL_LABEL = "*"


def fused_label(i: int, a: str) -> str:
    return f"{i}:{a}"


class Reduction:
    def __init__(self, kind: str, source: Futs, target: Futs, state_map: dict[str, str],
                 full: bool, stages: tuple = (), intermediates: tuple = ()):
        self.kind, self.source, self.target, self.state_map = kind, source, target, state_map
        self.full, self.stages, self.intermediates = full, stages, intermediates


# --- signature transforms (single source of truth, shared with logic) ------

def sig_unlabel(sig: Signature) -> Signature:
    comps = tuple(
        Component((UNLABEL_LABEL,), (Power(c.labels, c.monoids[0]),) + c.monoids[1:])
        for c in sig.components
    )
    return Signature(comps)


def sig_tabularize(sig: Signature) -> Signature:
    depth = max(c.depth for c in sig.components)
    comps = tuple(
        Component(c.labels, (NAT_PLUS,) * (depth - c.depth) + c.monoids)
        for c in sig.components
    )
    return Signature(comps)


def flat_monoid_product(sig: Signature) -> Product:
    return Product(tuple(m for c in sig.components for m in c.monoids))


def homog_sections(sig: Signature) -> list[tuple]:
    """Per component, one function per stack level that puts a weight at
    its factor of the flat monoid product and the product's zeros elsewhere."""
    z, rows, k = zero(flat_monoid_product(sig)), [], 0
    for c in sig.components:
        rows.append(tuple(lambda w, k=k + j: z[:k] + (w,) + z[k + 1:] for j in range(c.depth)))
        k += c.depth
    return rows


def sig_homogenize(sig: Signature) -> Signature:
    q = flat_monoid_product(sig)
    return Signature(tuple(Component(c.labels, (q,) * c.depth) for c in sig.components))


def sig_nest(sig: Signature) -> Signature:
    if not (sig.is_tabular and sig.is_homogeneous):
        raise ValueError("nest requires a tabular homogeneous signature")
    labels = tuple(fused_label(i, a) for i, c in enumerate(sig.components) for a in c.labels)
    return Signature((Component(labels, sig.components[0].monoids),))


def sig_flatten(sig: Signature) -> Signature:
    if not (sig.is_unlabelled and sig.is_nested and sig.is_homogeneous):
        raise ValueError("flatten requires an unlabelled homogeneous nested signature")
    comp = sig.components[0]
    return Signature((Component(comp.labels, (comp.monoids[0],)),))


# --- the five stages --------------------------------------------------------

def unlabel(s: Futs) -> Reduction:
    """Fold labels into the outer weights: a transition with weight w at
    label a contributes the dirac element a*w of the power monoid.  A child's
    pairs, gathered in label order, are its canonical power weight."""
    sig2 = sig_unlabel(s.sig)
    trans = {}
    for i, comp in enumerate(s.sig.components):
        stack2, deep = sig2.components[i].monoids, comp.depth > 1
        for x in s.states:
            gathered: dict = {}  # key text (sorted below) -> [child, its (label, weight)s]
            for a in comp.labels:
                for k, w in s.transition(i, x, a).entries:
                    text = format_term(k, True) if deep else k.state
                    gathered.setdefault(text, [k]).append((a, w))
            trans[(i, x, UNLABEL_LABEL)] = Node(stack2, tuple(
                [(p[0], tuple(p[1:])) for _text, p in sorted(gathered.items())]))
    target = Futs(sig2, s.states, trans)
    return Reduction("unlabel", s, target, {x: x for x in s.states}, full=True)


def tabularize(s: Futs) -> Reduction:
    """Left-pad every row to the maximal depth with nat-plus levels; each
    added level wraps the term in the functional singleton {term: 1}."""
    sig2 = sig_tabularize(s.sig)
    depth = sig2.components[0].depth
    trans = {}
    for i, comp in enumerate(s.sig.components):
        pad = depth - comp.depth
        for x in s.states:
            for a in comp.labels:
                term = s.transition(i, x, a)
                # a padded zero row becomes nested {zero-term: 1} wrappers,
                # which are non-zero terms; unpadded zero rows stay implicit
                for j in range(1, pad + 1):
                    term = node((NAT_PLUS,) * j + comp.monoids, [(term, 1)])
                trans[(i, x, a)] = term
    target = Futs(sig2, s.states, trans)
    return Reduction("tabularize", s, target, {x: x for x in s.states}, full=True)


def _embed(t: Term, row: tuple, stack: tuple) -> Term:
    # the sections are injective and keep weights non-zero, so no entries
    # merge or vanish; below the top level the children's key text changes
    if isinstance(t, Leaf):
        return t
    put = row[0]
    entries = [(_embed(k, row[1:], stack[1:]), put(w)) for k, w in t.entries]
    if len(stack) > 1:
        entries.sort(key=lambda e: format_term(e[0], True))
    return Node(stack, tuple(entries))


def homogenize(s: Futs) -> Reduction:
    """Embed every weight into the product of all the signature's monoids
    through ``homog_sections``."""
    sig2, rows = sig_homogenize(s.sig), homog_sections(s.sig)
    trans = {(i, x, a): _embed(t, rows[i], sig2.components[i].monoids)
             for (i, x, a), t in s.trans.items()}
    target = Futs(sig2, s.states, trans)
    return Reduction("homogenize", s, target, {x: x for x in s.states}, full=True)


def nest(s: Futs) -> Reduction:
    """Merge the components of a tabular homogeneous system into one."""
    sig2 = sig_nest(s.sig)
    trans = {(0, x, fused_label(i, a)): term for (i, x, a), term in s.trans.items()}
    target = Futs(sig2, s.states, trans)
    return Reduction("nest", s, target, {x: x for x in s.states}, full=True)


def _term_states(g, depth: int) -> dict[int, str]:
    # flatten's added states, one per term node below the top depth
    return {v: f"#{len(t.stack)}:{format_term(t, True)}"
            for v, t in enumerate(g.term) if t is not None and len(t.stack) < depth}


def flatten(s: Futs) -> Reduction:
    """Split multi-level steps into single-level ones.

    Reads the source's compiled graph (``Futs.graph``), which already has
    one node per distinct weight term.  The target carrier is the source
    carrier plus one state ``#<depth>:<canonical key>`` per term node below
    the top depth (distinct, as the key is injective; one named like a
    carrier state is refused); an original state steps to the term-states
    of its outer transition, and a term-state's single transition is its
    term read one level down.
    """
    sig2 = sig_flatten(s.sig)
    comp = s.sig.components[0]
    lab, base = comp.labels[0], (comp.monoids[0],)
    g = s.graph
    names = _term_states(g, comp.depth)
    clash = set(names.values()) & set(s.states)
    if clash:
        raise ValueError(f"generated state ids collide with carrier: {sorted(clash)}")
    leaf = {v: Leaf(name) for v, name in names.items()}

    def one_level(v: int) -> Node:
        t = g.term[v]
        if len(t.stack) == 1:
            return t
        # every child is named "#<depth-1>:<its key>", so the entries keep
        # their canonical order and the node is canonical as built
        return Node(base, tuple((leaf[c], w) for c, w in g.out[v]))

    trans = {(0, x, lab): one_level(g.out[v][0]) for v, x in enumerate(s.states)}
    trans.update(((0, name, lab), one_level(v)) for v, name in names.items())
    target = Futs(sig2, s.states + tuple(names.values()), trans)
    pairs = tuple(sorted((name, g.term[v]) for v, name in names.items()))
    return Reduction("flatten", s, target, {x: x for x in s.states},
                     full=not names, intermediates=pairs)


STAGE_FUNCS = {f.__name__: f for f in (unlabel, tabularize, homogenize, nest, flatten)}
SIG_FUNCS = dict(zip(STAGE_FUNCS, (sig_unlabel, sig_tabularize, sig_homogenize, sig_nest,
                                   sig_flatten)))


def plan_wts_stages(sig: Signature) -> list[str]:
    """The stage sequence to_wts applies for this signature.

    Computed on signatures only, so formula translation can mirror it.
    """
    plan = ["unlabel", "tabularize", "homogenize", "nest"]
    cur = sig
    for name in plan:
        cur = SIG_FUNCS[name](cur)
    if not cur.is_unlabelled:
        plan.append("unlabel")
        cur = sig_unlabel(cur)
        if not cur.is_homogeneous:
            plan.append("homogenize")
            cur = sig_homogenize(cur)
    plan.append("flatten")
    return plan


def to_wts(s: Futs) -> Reduction:
    """The composite pipeline down to an unlabelled simple system."""
    stages = []
    cur = s
    for name in plan_wts_stages(s.sig):
        r = STAGE_FUNCS[name](cur)
        stages.append(r)
        cur = r.target
    state_map = {x: x for x in s.states}
    for r in stages:
        state_map = {x: r.state_map[y] for x, y in state_map.items()}
    return Reduction("wts", s, cur, state_map,
                     full=all(r.full for r in stages), stages=tuple(stages))


# --- bisimulation correspondence -------------------------------------------

def _pullback(r: Reduction, p_target: Partition) -> Partition:
    from .bisim import Partition
    return Partition.group_by(r.source.states,
                              lambda x: p_target.block_of(r.state_map[x]))


def _extend(r: Reduction, p: Partition) -> Partition:
    """Push a source bisimulation forward: full stages along the carrier
    bijection; flatten also groups its term-states by the class of their
    term under ``p`` (``Graph.classifier``), the coproduct of the extensions."""
    from .bisim import Partition
    if r.stages:
        q = p
        for st in r.stages:
            q = _extend(st, q)
        return q
    if r.kind == "flatten":
        g = r.source.graph
        class_of = g.classifier(p.kappa[x] for x in r.source.states)
        groups: dict = {}
        for v, name in _term_states(g, r.source.sig.components[0].depth).items():
            groups.setdefault(class_of(v), []).append(name)
        return Partition.of_blocks(r.target.states, [*p.blocks, *groups.values()])
    return Partition.of_blocks(
        r.target.states,
        [tuple(r.state_map[x] for x in b) for b in p.blocks],
    )


class Report:
    def __init__(self, relations_checked: int, bisimulations: int):
        self.relations_checked, self.bisimulations = relations_checked, bisimulations
        self.violations: list[str] = []

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Report else NotImplemented

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        return (f"{self.relations_checked}/{self.relations_checked} relations checked, "
                f"{self.bisimulations} bisimulations, {len(self.violations)} violations")


EXHAUSTIVE_LIMIT = 5


def _sampled_partitions(source: Futs, samples: int, seed: int):
    """Random partitions, always seeded with the identity and the largest
    bisimulation so the sample contains relations that actually matter."""
    import random

    from .bisim import Partition, largest_bisimulation
    rng = random.Random(seed)
    items = sorted(source.states)
    seen = set()
    for p in (Partition.identity(items), largest_bisimulation(source)):
        if p not in seen:
            seen.add(p)
            yield p
    for _ in range(samples):
        k = rng.randint(1, len(items))
        p = Partition.group_by(items, lambda x: rng.randrange(k))
        if p not in seen:
            seen.add(p)
            yield p


def verify_reduction(r: Reduction, exhaustive: bool = True,
                     samples: int = 100, seed: int = 0) -> Report:
    """Check the reduction condition over equivalence relations on the source.

    For every source bisimulation R the extended partition must be a
    bisimulation on the target, the carrier map must relate exactly the
    pairs R does, and restricting back must return R.  Violations are
    reported with concrete witnesses rather than raised.
    """
    from .bisim import all_partitions, is_bisimulation
    if exhaustive and len(r.source.states) > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive verification is limited to {EXHAUSTIVE_LIMIT} states "
            f"(got {len(r.source.states)}); use sampled mode instead")
    parts = (all_partitions(r.source.states) if exhaustive
             else _sampled_partitions(r.source, samples, seed))
    report = Report(0, 0)
    for p in parts:
        report.relations_checked += 1
        if not is_bisimulation(r.source, p):
            continue
        report.bisimulations += 1
        q = _extend(r, p)
        if not is_bisimulation(r.target, q):
            report.violations.append(
                f"extension of {p.render()} is not a bisimulation on the target")
            continue
        # back relates x, y iff q relates their images, so back == p is the
        # pair condition for all pairs at once; witnesses only when it fails
        back = _pullback(r, q)
        if back == p:
            continue
        for i, x in enumerate(r.source.states):
            for y in r.source.states[i + 1:]:
                if p.same_block(x, y) != q.same_block(r.state_map[x], r.state_map[y]):
                    report.violations.append(
                        f"pair ({x}, {y}) related {p.same_block(x, y)} at the source but "
                        f"{q.same_block(r.state_map[x], r.state_map[y])} at the target "
                        f"under {p.render()}")
        report.violations.append(f"round trip of {p.render()} returned {back.render()}")
    return report
