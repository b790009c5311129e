"""Bisimulation-coherent reductions down to weighted transition systems.

Five stages are provided.  Four are full (they keep the carrier):

* ``unlabel``     folds each component's labels into a power monoid at
                  the outermost weight level,
* ``tabularize``  left-pads shorter monoid stacks with functional
                  nat-plus levels so all rows have equal depth,
* ``homogenize``  rewrites every weight into the product of all the
                  signature's monoids through the product sections,
* ``nest``        merges the components of a tabular homogeneous system
                  into one component over the fused (i, label) label set.

The fifth, ``flatten``, turns an unlabelled homogeneous nested system
into a single-level system whose extra states are the intermediate
weight terms reachable in some transition; it is injective but not full.

``to_wts`` composes them into the FuTS -> WTS pipeline.  The stage plan
is computed from the signature alone (``plan_wts_stages``) so the logic
module can translate formulas along exactly the same stages.  After
``nest`` a multi-component source still carries one fused label per
component, so the plan inserts a second ``unlabel`` (and, since that
breaks homogeneity again, a second ``homogenize``) before flattening;
single-component sources skip both.

Each stage returns a ``Reduction`` carrying the target system and the
carrier map; ``restrict_bisim`` / ``extend_bisim`` realise the
bisimulation correspondence procedurally, and ``verify_reduction``
checks the coherence condition over all (or sampled) equivalence
relations on the source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .bisim import Partition, all_partitions, is_bisimulation, largest_bisimulation
from .monoid import NAT_PLUS, Hom, Power, Product, monoid_section, power_dirac
from .system import (
    CarrierMap,
    Component,
    Futs,
    Signature,
    relabel_weights,
)
from .weightfn import (
    Leaf,
    Node,
    Term,
    node,
    quotient_term,
    subterms_at_depths,
    term_depth,
    term_key,
)

UNLABEL_LABEL = "*"


def fused_label(i: int, a: str) -> str:
    return f"{i}:{a}"


@dataclass
class Reduction:
    kind: str
    source: Futs
    target: Futs
    state_map: dict[str, str]
    full: bool
    stages: tuple["Reduction", ...] = ()
    intermediates: tuple[tuple[str, Term], ...] = ()

    @property
    def carrier_map(self) -> CarrierMap:
        return CarrierMap(self.source, self.target, self.state_map)


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


def homog_sections(sig: Signature) -> list[tuple[Hom, ...]]:
    """Per-(component, level) sections into the flat monoid product."""
    q = flat_monoid_product(sig)
    rows, offset = [], 0
    for c in sig.components:
        rows.append(tuple(monoid_section(offset + j, q) for j in range(c.depth)))
        offset += c.depth
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
    label a contributes the dirac element a*w of the power monoid."""
    sig2 = sig_unlabel(s.sig)
    trans = {}
    for i, comp in enumerate(s.sig.components):
        stack2 = sig2.components[i].monoids
        for x in s.states:
            entries = []
            for a in comp.labels:
                for k, w in s.transition(i, x, a).entries:
                    entries.append((k, power_dirac(a, w, comp.labels, comp.monoids[0])))
            trans[(i, x, UNLABEL_LABEL)] = node(stack2, entries)
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


def homogenize(s: Futs) -> Reduction:
    """Embed every weight into the product of all the signature's monoids."""
    target = relabel_weights(s, homog_sections(s.sig))
    return Reduction("homogenize", s, target, {x: x for x in s.states}, full=True)


def nest(s: Futs) -> Reduction:
    """Merge the components of a tabular homogeneous system into one."""
    sig2 = sig_nest(s.sig)
    trans = {}
    for (i, x, a), term in s.trans.items():
        trans[(0, x, fused_label(i, a))] = term
    target = Futs(sig2, s.states, trans)
    return Reduction("nest", s, target, {x: x for x in s.states}, full=True)


def intermediate_id(term: Term) -> str:
    return f"#{term_depth(term)}:{term_key(term)}"


def flatten(s: Futs) -> Reduction:
    """Split multi-level steps into single-level ones.

    The target carrier is the source carrier plus one state per distinct
    intermediate weight term (depth 1..l) reachable in some transition;
    an original state steps to the term-states of its outer transition,
    and a term-state's single transition is the term itself read one
    level down.
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
    pairs = tuple(sorted(((name, term) for term, name in interm.items())))
    return Reduction("flatten", s, target, {x: x for x in s.states},
                     full=not interm, intermediates=pairs)


STAGE_FUNCS = {
    "unlabel": unlabel,
    "tabularize": tabularize,
    "homogenize": homogenize,
    "nest": nest,
    "flatten": flatten,
}

SIG_FUNCS = {
    "unlabel": sig_unlabel,
    "tabularize": sig_tabularize,
    "homogenize": sig_homogenize,
    "nest": sig_nest,
    "flatten": sig_flatten,
}


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
    return Partition.group_by(r.source.states,
                              lambda x: p_target.block_of(r.state_map[x]))


def restrict_bisim(r: Reduction, p_target: Partition) -> Partition:
    """Pull a target bisimulation back along the carrier map."""
    if not is_bisimulation(r.target, p_target):
        raise ValueError("restrict_bisim needs a bisimulation on the target")
    return _pullback(r, p_target)


def extend_bisim(r: Reduction, p: Partition) -> Partition:
    """Push a source bisimulation forward to one on the target.

    Full stages transport blocks along the carrier bijection; flatten
    additionally groups each level's term-states by their quotient under
    the source partition, realising the coproduct of the extensions.
    """
    if not is_bisimulation(r.source, p):
        raise ValueError("extend_bisim needs a bisimulation on the source")
    return _extend(r, p)


def _extend(r: Reduction, p: Partition) -> Partition:
    if r.stages:
        q = p
        for st in r.stages:
            q = _extend(st, q)
        return q
    if r.kind == "flatten":
        blocks = [tuple(b) for b in p.blocks]
        groups: dict[tuple[int, str], list[str]] = {}
        for name, term in r.intermediates:
            key = (term_depth(term), term_key(quotient_term(term, p.kappa)))
            groups.setdefault(key, []).append(name)
        blocks.extend(tuple(g) for g in groups.values())
        return Partition.of_blocks(r.target.states, blocks)
    return Partition.of_blocks(
        r.target.states,
        [tuple(r.state_map[x] for x in b) for b in p.blocks],
    )


@dataclass
class Report:
    relations_checked: int
    bisimulations: int
    violations: list[str] = field(default_factory=list)

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
    rng = random.Random(seed)
    items = sorted(source.states)
    seen = set()
    for p in (Partition.identity(items), largest_bisimulation(source)):
        if p not in seen:
            seen.add(p)
            yield p
    for _ in range(samples):
        k = rng.randint(1, len(items))
        assignment = tuple(rng.randrange(k) for _ in items)
        groups: dict[int, list[str]] = {}
        for x, g in zip(items, assignment):
            groups.setdefault(g, []).append(x)
        p = Partition.of_blocks(items, groups.values())
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
