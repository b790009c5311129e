"""Finite-conjunction logic: model checking, translations, equivalence.

Formulas are top, binary conjunction, and diamonds decorated with a
component index, a label, and one weight lower bound per level of that
component's monoid stack.  A diamond holds at a state when its transition
term lies in the nested threshold sets: membership of a depth-d term
tests whether the class sum of its children that (recursively) qualify
dominates the level's bound in the natural order.  Model checking works
on the state ids of ``Futs.graph`` and keeps one satisfaction cache per
system, so ``sat_set`` calls on one system evaluate a shared subformula
once; names appear only where ``sat_set`` returns.

``translate`` rewrites formulas along each reduction stage so that
satisfaction is preserved on the reduced system, and
``bounded_logical_equiv`` partitions states by agreement on a finite,
level-wise generated formula family, which on positive cancellative
monoids coincides with bisimilarity.

Formulas of any depth are handled iteratively: every formula pass is a
``fold`` over the formula with an explicit stack.
"""

from __future__ import annotations

import functools
import itertools
import sys
from typing import TYPE_CHECKING, Optional, Union

from .monoid import (
    Value,
    Weight,
    add_all,
    cancellative,
    check_weight,
    is_zero,
    nat_leq,
    positive,
    power_dirac,
)
from .system import Futs, Signature

if TYPE_CHECKING:
    from .bisim import Partition


class Top(Value):
    __slots__ = ()


class And(Value):
    # ``_hash`` is set once from the children's cached hashes: shared subformulas
    # make the expanded tree exponential, so hashing must not walk it
    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: "Formula", right: "Formula"):
        Value.__init__(self, left, right)
        object.__setattr__(self, "_hash", hash(self._values))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Structural equality by cached hashes and an explicit-stack walk
        of both DAGs, so depth costs memory, not the recursion limit."""
        if type(other) is not type(self):
            return NotImplemented
        stack, seen = [(self, other)], set()
        while stack:
            f, g = stack.pop()
            if f is g or (id(f), id(g)) in seen:
                continue
            if type(f) is not type(g) or hash(f) != hash(g):
                return False
            seen.add((id(f), id(g)))
            if isinstance(f, And):
                stack += [(f.left, g.left), (f.right, g.right)]
            elif isinstance(f, Diamond):
                if (f.component, f.label, f.bounds) != (g.component, g.label, g.bounds):
                    return False
                stack.append((f.body, g.body))
        return True


class Diamond(Value):
    __slots__ = ("component", "label", "bounds", "body", "_hash")

    def __init__(self, component: int, label: str, bounds: tuple[Weight, ...], body: "Formula"):
        Value.__init__(self, component, label, bounds, body)
        object.__setattr__(self, "_hash", hash(self._values))

    __hash__, __eq__ = And.__hash__, And.__eq__


Formula = Union[Top, And, Diamond]

TOP = Top()


class FormulaError(ValueError):
    pass


def fold(phi: Formula, top, on_and, on_diamond, memo: Optional[dict] = None):
    """Fold a formula bottom-up with an explicit stack, so depth costs
    memory, not the recursion limit.

    ``top`` is the value of ``T``; ``on_and(f, left, right)`` and
    ``on_diamond(f, body)`` map a node and its children's values (never
    None) to its own.  ``memo`` (subformula -> value, filled in place) is
    looked up first, so a subformula shared by several parents folds once.
    """
    memo = {} if memo is None else memo
    stack = [phi]
    while stack:
        f = stack[-1]
        if f in memo:
            stack.pop()
        elif isinstance(f, Diamond):
            body = memo.get(f.body)
            if body is None:
                stack.append(f.body)
            else:
                memo[f] = on_diamond(f, body)
        elif isinstance(f, And):
            left, right = memo.get(f.left), memo.get(f.right)
            if left is None or right is None:
                stack += [g for g, v in ((f.right, right), (f.left, left)) if v is None]
            else:
                memo[f] = on_and(f, left, right)
        elif isinstance(f, Top):
            memo[f] = top
        else:
            raise FormulaError(f"not a formula: {f!r}")
    return memo[phi]


def check_formula(phi: Formula, sig: Signature) -> Formula:
    """Validate against a signature; returns the bound-canonical form."""
    def diamond(f: Diamond, body: Formula) -> Formula:
        if not 0 <= f.component < len(sig.components):
            raise FormulaError(f"component index {f.component} out of range")
        comp = sig.components[f.component]
        if f.label not in comp.labels:
            raise FormulaError(f"label {f.label!r} not in component {f.component}")
        if len(f.bounds) != comp.depth:
            raise FormulaError(
                f"expected {comp.depth} bounds for component {f.component}, "
                f"got {len(f.bounds)}")
        bounds = tuple(check_weight(m, b) for m, b in zip(comp.monoids, f.bounds))
        return Diamond(f.component, f.label, bounds, body)

    return fold(phi, TOP, lambda f, left, right: And(left, right), diamond)


def conj(parts) -> Formula:
    """The left-deep conjunction of ``parts`` (``T`` when there are none)."""
    parts = list(parts)
    return functools.reduce(And, parts) if parts else TOP


class Evaluator:
    """Model checker on state ids: a satisfaction set is a frozenset of the
    graph's state nodes ``0..n-1`` (``Futs.graph``).  The cache is the
    system's own (``Graph.sat``), so every evaluator on one system, and every
    ``sat_set`` and ``satisfies`` call, evaluates a subformula once."""

    def __init__(self, s: Futs):
        self.system, self.graph = s, s.graph
        self._all = frozenset(range(self.graph.n))
        self._cache: dict[Formula, frozenset[int]] = self.graph.sat

    def sat(self, phi: Formula) -> frozenset[int]:
        hit = self._cache.get(phi)
        if hit is not None:
            return hit
        return fold(phi, self._all, lambda f, left, right: left & right, self._diamond,
                    self._cache)

    def _diamond(self, f: Diamond, body: frozenset[int]) -> frozenset[int]:
        """Bottom-up over the slot's levels in ``Futs.graph``, each distinct term
        node is tested once: do its weights into passed nodes (``body`` at the
        bottom) reach the bound?  The passing top terms give their states
        (``Graph.owners``).  This evaluates the flatten translation."""
        g = self.graph
        k = g.slots[(f.component, f.label)]
        monoids = self.system.sig.components[f.component].monoids
        passed = body
        for nodes, m, bound in reversed(list(zip(g.levels[k], monoids, f.bounds))):
            below, passed, plus, leq = passed, set(), m._add, m._leq
            for t in nodes:
                acc = m._zero
                for c, w in g.out[t]:
                    if c in below:
                        acc = plus(acc, w)
                if leq(bound, acc):
                    passed.add(t)
        owners = g.owners[k]
        return frozenset([v for t in passed for v in owners[t]])


def satisfies(s: Futs, x: str, phi: Formula) -> bool:
    v = s.graph.ids.get(x)
    if v is None:
        raise ValueError(f"unknown state {x!r}")
    return v in Evaluator(s).sat(check_formula(phi, s.sig))


def sat_set(s: Futs, phi: Formula) -> frozenset[str]:
    """The states satisfying ``phi``; the system keeps every subformula's
    set, so a later call reuses what an earlier one evaluated."""
    states = s.states
    return frozenset([states[v] for v in Evaluator(s).sat(check_formula(phi, s.sig))])


# --- translations along the reduction stages --------------------------------

def translate(stage: str, sig: Signature, phi: Formula) -> Formula:
    """Rewrite a formula for the system reduced by ``stage`` from ``sig``.

    Satisfaction is preserved: a state satisfies the original formula iff
    its image satisfies the translated one on the reduced system.
    """
    from .reduce import UNLABEL_LABEL, fused_label, homog_sections, sig_flatten, sig_nest
    phi = check_formula(phi, sig)
    if stage == "unlabel":
        def diamond(f, body):
            comp = sig.components[f.component]
            folded = power_dirac(f.label, f.bounds[0], comp.labels, comp.monoids[0])
            return Diamond(f.component, UNLABEL_LABEL, (folded,) + f.bounds[1:], body)
    elif stage == "tabularize":
        depth = max(c.depth for c in sig.components)

        def diamond(f, body):
            pad = depth - sig.components[f.component].depth
            return Diamond(f.component, f.label, (1,) * pad + f.bounds, body)
    elif stage == "homogenize":
        rows = homog_sections(sig)

        def diamond(f, body):
            bounds = tuple(h(b) for h, b in zip(rows[f.component], f.bounds))
            return Diamond(f.component, f.label, bounds, body)
    elif stage == "nest":
        sig_nest(sig)  # precondition check

        def diamond(f, body):
            return Diamond(0, fused_label(f.component, f.label), f.bounds, body)
    elif stage == "flatten":
        sig_flatten(sig)  # precondition check
        lab = sig.components[0].labels[0]

        def diamond(f, body):
            for m in reversed(f.bounds):
                body = Diamond(0, lab, (m,), body)
            return body
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return fold(phi, TOP, lambda f, left, right: And(left, right), diamond)


def translate_to_wts(sig: Signature, phi: Formula) -> tuple[Formula, Signature]:
    """Composite translation mirroring the to_wts stage plan."""
    from .reduce import SIG_FUNCS, plan_wts_stages
    cur = sig
    for stage in plan_wts_stages(sig):
        phi = translate(stage, cur, phi)
        cur = SIG_FUNCS[stage](cur)
    return check_formula(phi, cur), cur


# --- bounded logical equivalence --------------------------------------------

def realizable_grid(s: Futs) -> dict[tuple[int, int], list[Weight]]:
    """Per (component, level): all subset sums of entry weights, the zero
    first and the others in the order of their compact text.

    Thresholds strictly between these sums cannot change any satisfaction
    value under the natural order, so this grid is what the bounded
    equivalence oracle draws diamond bounds from.  The empty-subset sum
    (the monoid zero) is included: a zero bound at an inner level leaves
    that level unconstrained, which is needed to tell apart, e.g., the
    zero behaviour from one giving mass to the zero inner function.  Each
    distinct term node at the level in ``Futs.graph`` is read once, and its
    sums grow as a set, entry by entry, so each is added once.
    """
    g, grid = s.graph, {}
    for i, comp in enumerate(s.sig.components):
        for j, m in enumerate(comp.monoids):
            z, plus, fmt = m._zero, m._add, m._format
            sums = {z}
            for t in set().union(*(g.levels[g.slots[(i, a)]][j] for a in comp.labels)):
                found = {z}  # the subset sums of this term's weights
                for _c, w in g.out[t]:
                    found |= {plus(total, w) for total in found}
                sums |= found
            try:
                grid[(i, j)] = [z] + sorted(sums - {z}, key=lambda w: fmt(w, True))
            except ValueError:  # str() refuses integers longer than sys.get_int_max_str_digits()
                raise ValueError(f"a sum of weights has more than {sys.get_int_max_str_digits()} "
                                 "digits, too many to write") from None
    return grid


class _Levels:
    """The oracle's level loop: refinement by satisfaction profiles.

    Iterating yields each level's bodies (one characteristic conjunction
    per block over the distinguishers so far) and then refines ``part`` by
    candidate diamonds over labels, then grid bound vectors, then bodies.
    ``ev`` knows the satisfaction sets (of state ids) of all the
    ``distinguishers``.
    At most ``depth`` levels run (default: the carrier size).
    """

    def __init__(self, s: Futs, depth: Optional[int]):
        from .bisim import Partition
        if depth is not None and depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = len(s.states) if depth is None else depth
        self.system, self.grid, self.ev = s, realizable_grid(s), Evaluator(s)
        self.part = Partition.single(s.states)
        self.distinguishers: dict[Formula, None] = {}  # an ordered set

    def run(self) -> "_Levels":
        for _bodies in self:
            pass
        return self

    def __iter__(self):
        s, ev, n = self.system, self.ev, len(self.system.states)
        ids = s.graph.ids
        for _level in range(self.depth if n > 1 else 0):
            bodies: list[Formula] = []
            seen_sets = set()
            for block in self.part.blocks:
                v = ids[block[0]]
                chi = conj(f for f in self.distinguishers if v in ev.sat(f))
                key = ev.sat(chi)
                if key not in seen_sets:
                    seen_sets.add(key)
                    bodies.append(chi)
            yield bodies
            useful = []
            for i, comp in enumerate(s.sig.components):
                # a zero outermost bound makes the diamond a tautology; skip those
                vectors = [v for v in itertools.product(
                    *(self.grid[(i, j)] for j in range(comp.depth)))
                    if not is_zero(comp.monoids[0], v[0])]
                for a in comp.labels:
                    for vec in vectors:
                        for chi in bodies:
                            f = Diamond(i, a, vec, chi)
                            if 0 < len(ev.sat(f)) < n:
                                useful.append(f)
            sats = [ev.sat(f) for f in useful]
            refined = self.part.refine_by(lambda x: tuple(ids[x] in sat for sat in sats))
            self.distinguishers.update(dict.fromkeys(useful))
            done = refined == self.part or len(refined.blocks) == n
            self.part = refined
            if done:
                break


def bounded_logical_equiv(s: Futs, depth: Optional[int] = None) -> Partition:
    """Partition states by agreement on a level-wise formula family.

    At each of at most ``depth`` levels, candidate diamonds combine every
    label, every bound vector drawn from ``realizable_grid``, and one
    characteristic conjunction per current block; states are split by
    their satisfaction profile.  With the default depth (the carrier size)
    this coincides with bisimilarity on positive cancellative monoids.
    """
    return _Levels(s, depth).run().part


def witness_formula(s: Futs, x: str, y: str,
                    depth: Optional[int] = None) -> Optional[Formula]:
    """A formula from the bounded family separating two states, if any.

    Unlike distinguishing_formula this makes no completeness claim: the
    result is verified by evaluation, but None only means the bounded
    family does not separate the states, which outside cancellative
    monoids can happen for non-bisimilar pairs.
    """
    levels = _Levels(s, depth).run()
    if levels.part.same_block(x, y):
        return None
    vx, vy = s.graph.ids[x], s.graph.ids[y]
    for f in levels.distinguishers:
        if (vx in levels.ev.sat(f)) != (vy in levels.ev.sat(f)):
            return _shrink_witness(levels.ev, f, vx, vy)
    raise RuntimeError("separated states without a separating formula")


def _conjuncts(phi: Formula) -> list[Formula]:
    out, stack = [], [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack += (f.right, f.left)
        elif not isinstance(f, Top):
            out.append(f)
    return out


def _simplifications(phi: Formula):
    """Smaller variants of ``phi``: in pre-order, each diamond with a body
    other than ``T`` gets body ``T``, then its body less one conjunct."""
    stack = [(phi, None)]  # (subformula, path up to the root as (node, side, path))
    while stack:
        f, path = stack.pop()
        if isinstance(f, And):
            stack += ((f.right, (f, 1, path)), (f.left, (f, 0, path)))
        elif isinstance(f, Diamond) and not isinstance(f.body, Top):
            parts = _conjuncts(f.body)
            drops = range(len(parts)) if len(parts) > 1 else ()
            for body in itertools.chain([TOP], (conj(parts[:i] + parts[i + 1:]) for i in drops)):
                g, up = Diamond(f.component, f.label, f.bounds, body), path
                while up is not None:
                    node, side, up = up
                    g = (Diamond(node.component, node.label, node.bounds, g)
                         if isinstance(node, Diamond)
                         else And(g, node.right) if side == 0 else And(node.left, g))
                yield g
            stack.append((f.body, (f, 0, path)))


def _shrink_witness(ev: Evaluator, phi: Formula, x: int, y: int) -> Formula:
    """Greedily simplify subformulas while the whole formula still
    separates the two state nodes; keeps reported witnesses readable."""
    while True:
        for smaller in _simplifications(phi):
            if (x in ev.sat(smaller)) != (y in ev.sat(smaller)):
                phi = smaller
                break
        else:
            return phi


def distinguishing_formula(s: Futs, x: str, y: str,
                           depth: Optional[int] = None) -> Optional[Formula]:
    """A formula holding at exactly one of two states, or None if bisimilar.

    Restricted to simple systems over a positive cancellative monoid, where
    the bounded-equivalence family is guaranteed to separate non-bisimilar
    states; the returned bound is the satisfied side's own class sum, read
    off the level where ``bounded_logical_equiv`` separates the pair.  With
    a ``depth``, None means that many levels keep the pair together; without,
    a pair that all levels keep together must be bisimilar (else RuntimeError).
    """
    if not s.sig.is_simple:
        raise ValueError("distinguishing_formula needs a simple system")
    m = s.sig.components[0].monoids[0]
    if not (positive(m) and cancellative(m)):
        raise ValueError("distinguishing_formula needs a positive cancellative monoid")
    for state in (x, y):
        if state not in set(s.states):
            raise ValueError(f"unknown state {state!r}")
    levels = _Levels(s, depth)
    for bodies in levels:  # scanned before each level refines
        found = _split_formula(s, levels.ev, x, y, bodies)
        if found is not None:
            return found
    if depth is not None:
        return None
    from .bisim import largest_bisimulation
    if largest_bisimulation(s).same_block(x, y):
        return None  # the logic is sound: no formula separates bisimilar states
    raise RuntimeError(
        f"states {x!r} and {y!r} are not bisimilar but no distinguishing formula "
        f"was found; the bounded family is incomplete here")


def _split_formula(s: Futs, ev: Evaluator, x: str, y: str, bodies) -> Optional[Formula]:
    """Scan (label, body) pairs for differing class sums over the body's
    satisfaction set, summed off ``Futs.graph``; the larger (or incomparable
    own) sum is the bound."""
    g, m = s.graph, s.sig.components[0].monoids[0]
    x, y = g.ids[x], g.ids[y]  # state nodes from here on
    for (_i, a), k in g.slots.items():
        tx, ty = (g.out[g.out[z][k]] for z in (x, y))
        for chi in bodies:
            target = ev.sat(chi)
            sum_x, sum_y = (add_all(m, (w for c, w in t if c in target)) for t in (tx, ty))
            if sum_x == sum_y:
                continue
            bound = sum_x if not nat_leq(m, sum_x, sum_y) else sum_y
            f = Diamond(0, a, (bound,), chi)
            if (x in ev.sat(f)) != (y in ev.sat(f)):
                return f
    return None
