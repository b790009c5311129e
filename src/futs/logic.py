"""Finite-conjunction logic: model checking, translations, equivalence.

Formulas are top, binary conjunction, and diamonds decorated with a
component index, a label, and one weight lower bound per level of that
component's monoid stack.  A diamond holds at a state when its transition
term lies in the nested threshold sets: membership of a depth-d term
tests whether the class sum of its children that (recursively) qualify
dominates the level's bound in the natural order.

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
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional, Union

from .monoid import (
    Weight,
    add,
    add_all,
    cancellative,
    check_weight,
    hom_apply,
    is_zero,
    nat_leq,
    positive,
    power_dirac,
    weight_key,
    zero,
)
from .system import Futs, Signature
from .weightfn import Leaf, Node

if TYPE_CHECKING:
    from .bisim import Partition


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"
    # set once from the children's cached hashes: shared subformulas make
    # the expanded tree exponential, so hashing must not walk it
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # pickle by fields, so the loading process rehashes its strs
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class Diamond:
    component: int
    label: str
    bounds: tuple[Weight, ...]
    body: "Formula"
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.component, self.label, self.bounds, self.body)))

    __hash__, __reduce__ = And.__hash__, And.__reduce__


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
    """Model checker with a satisfaction-set cache per system."""

    def __init__(self, s: Futs):
        self.system = s
        self._all = frozenset(s.states)
        self._cache: dict[Formula, frozenset[str]] = {}

    def sat(self, phi: Formula) -> frozenset[str]:
        hit = self._cache.get(phi)
        if hit is not None:
            return hit
        return fold(phi, self._all, lambda f, left, right: left & right, self._diamond,
                    self._cache)

    def _diamond(self, f: Diamond, body: frozenset[str]) -> frozenset[str]:
        s = self.system
        monoids = s.sig.components[f.component].monoids
        return frozenset(x for x in s.states
                         if _member(s.transition(f.component, x, f.label),
                                    f.bounds, 0, body, monoids))

    def holds(self, x: str, phi: Formula) -> bool:
        return x in self.sat(phi)


def _member(term: Node, bounds, idx: int, sat: frozenset[str], monoids) -> bool:
    """Membership of a depth-(len(bounds)-idx) term in the threshold chain."""
    m = monoids[idx]
    acc = zero(m)
    for k, w in term.entries:
        ok = k.state in sat if isinstance(k, Leaf) else _member(k, bounds, idx + 1, sat, monoids)
        if ok:
            acc = add(m, acc, w)
    return nat_leq(m, bounds[idx], acc)


def satisfies(s: Futs, x: str, phi: Formula) -> bool:
    if x not in set(s.states):
        raise ValueError(f"unknown state {x!r}")
    return Evaluator(s).holds(x, check_formula(phi, s.sig))


def sat_set(s: Futs, phi: Formula) -> frozenset[str]:
    return Evaluator(s).sat(check_formula(phi, s.sig))


# --- translations along the reduction stages --------------------------------

def translate(stage: str, sig: Signature, phi: Formula) -> Formula:
    """Rewrite a formula for the system reduced by ``stage`` from ``sig``.

    Satisfaction is preserved: a state satisfies the original formula iff
    its image satisfies the translated one on the reduced system.
    """
    from . import reduce as rd
    phi = check_formula(phi, sig)
    if stage == "unlabel":
        def diamond(f, body):
            comp = sig.components[f.component]
            folded = power_dirac(f.label, f.bounds[0], comp.labels, comp.monoids[0])
            return Diamond(f.component, rd.UNLABEL_LABEL, (folded,) + f.bounds[1:], body)
    elif stage == "tabularize":
        depth = max(c.depth for c in sig.components)

        def diamond(f, body):
            pad = depth - sig.components[f.component].depth
            return Diamond(f.component, f.label, (1,) * pad + f.bounds, body)
    elif stage == "homogenize":
        rows = rd.homog_sections(sig)

        def diamond(f, body):
            bounds = tuple(hom_apply(h, b) for h, b in zip(rows[f.component], f.bounds))
            return Diamond(f.component, f.label, bounds, body)
    elif stage == "nest":
        rd.sig_nest(sig)  # precondition check

        def diamond(f, body):
            return Diamond(0, rd.fused_label(f.component, f.label), f.bounds, body)
    elif stage == "flatten":
        rd.sig_flatten(sig)  # precondition check
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
    from . import reduce as rd
    cur = sig
    for stage in rd.plan_wts_stages(sig):
        phi = translate(stage, cur, phi)
        cur = rd.SIG_FUNCS[stage](cur)
    return check_formula(phi, cur), cur


# --- bounded logical equivalence --------------------------------------------

def realizable_grid(s: Futs) -> dict[tuple[int, int], list[Weight]]:
    """Per (component, level): all subset sums of entry weights.

    Thresholds strictly between these sums cannot change any satisfaction
    value under the natural order, so this grid is what the bounded
    equivalence oracle draws diamond bounds from.  The empty-subset sum
    (the monoid zero) is included: a zero bound at an inner level leaves
    that level unconstrained, which is needed to tell apart, e.g., the
    zero behaviour from one giving mass to the zero inner function.
    """
    buckets: dict[tuple[int, int], dict[str, Weight]] = {}

    def visit(i: int, level: int, term: Node, monoids):
        m = monoids[level]
        weights = [w for _, w in term.entries]
        sums = buckets.setdefault((i, level), {})
        for r in range(1, len(weights) + 1):
            for combo in itertools.combinations(weights, r):
                total = add_all(m, combo)
                if not is_zero(m, total):
                    sums.setdefault(weight_key(m, total), total)
        for k, _ in term.entries:
            if isinstance(k, Node):
                visit(i, level + 1, k, monoids)

    for (i, _x, _a), term in s.trans.items():
        visit(i, 0, term, s.sig.components[i].monoids)

    grid: dict[tuple[int, int], list[Weight]] = {}
    for i, comp in enumerate(s.sig.components):
        for j, m in enumerate(comp.monoids):
            found = buckets.get((i, j), {})
            grid[(i, j)] = [zero(m)] + [found[k] for k in sorted(found)]
    return grid


class _Levels:
    """The oracle's level loop: refinement by satisfaction profiles.

    Iterating yields each level's bodies (one characteristic conjunction
    per block over the distinguishers so far) and then refines ``part`` by
    candidate diamonds over labels, then grid bound vectors, then bodies.
    ``ev`` knows the satisfaction sets of all the ``distinguishers``.
    """

    def __init__(self, s: Futs, depth: Optional[int], grid: Optional[dict]):
        from .bisim import Partition
        self.depth = len(s.states) if depth is None else depth
        if grid is None:
            grid = realizable_grid(s)
        for i, comp in enumerate(s.sig.components):
            for j in range(comp.depth):
                if not grid.get((i, j)):
                    raise ValueError(f"empty bound grid for component {i}, level {j}")
        self.system, self.grid, self.ev = s, grid, Evaluator(s)
        self.part = Partition.single(s.states)
        self.distinguishers: dict[Formula, None] = {}  # an ordered set

    def run(self) -> "_Levels":
        for _bodies in self:
            pass
        return self

    def __iter__(self):
        s, ev, n = self.system, self.ev, len(self.system.states)
        for _level in range(self.depth if n > 1 else 0):
            bodies: list[Formula] = []
            seen_sets = set()
            for block in self.part.blocks:
                chi = conj(f for f in self.distinguishers if block[0] in ev.sat(f))
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
            refined = self.part.refine_by(lambda x: tuple(x in ev.sat(f) for f in useful))
            self.distinguishers.update(dict.fromkeys(useful))
            done = refined == self.part or len(refined.blocks) == n
            self.part = refined
            if done:
                break


def bounded_logical_equiv(s: Futs, depth: Optional[int] = None,
                          grid: Optional[dict] = None) -> Partition:
    """Partition states by agreement on a level-wise formula family.

    At each level, candidate diamonds combine every label, every bound
    vector drawn from the grid, and one characteristic conjunction per
    current block; states are split by their satisfaction profile.  With
    the default depth (the carrier size) and default grid this coincides
    with bisimilarity on positive cancellative monoids.
    """
    return _Levels(s, depth, grid).run().part


def witness_formula(s: Futs, x: str, y: str,
                    depth: Optional[int] = None) -> Optional[Formula]:
    """A formula from the bounded family separating two states, if any.

    Unlike distinguishing_formula this makes no completeness claim: the
    result is verified by evaluation, but None only means the bounded
    family does not separate the states, which outside cancellative
    monoids can happen for non-bisimilar pairs.
    """
    levels = _Levels(s, depth, None).run()
    if levels.part.same_block(x, y):
        return None
    for f in levels.distinguishers:
        if (x in levels.ev.sat(f)) != (y in levels.ev.sat(f)):
            return _shrink_witness(levels.ev, f, x, y)
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


def _shrink_witness(ev: Evaluator, phi: Formula, x: str, y: str) -> Formula:
    """Greedily simplify subformulas while the whole formula still
    separates the two states; keeps reported witnesses readable."""
    while True:
        for smaller in _simplifications(phi):
            if (x in ev.sat(smaller)) != (y in ev.sat(smaller)):
                phi = smaller
                break
        else:
            return phi


def distinguishing_formula(s: Futs, x: str, y: str) -> Optional[Formula]:
    """A formula holding at exactly one of two states, or None if bisimilar.

    Restricted to simple systems over a positive cancellative monoid, where
    the bounded-equivalence family is guaranteed to separate non-bisimilar
    states; the returned bound is the satisfied side's own class sum.
    """
    if not s.sig.is_simple:
        raise ValueError("distinguishing_formula needs a simple system")
    m = s.sig.components[0].monoids[0]
    if not (positive(m) and cancellative(m)):
        raise ValueError("distinguishing_formula needs a positive cancellative monoid")
    for state in (x, y):
        if state not in set(s.states):
            raise ValueError(f"unknown state {state!r}")
    from .bisim import largest_bisimulation
    if largest_bisimulation(s).same_block(x, y):
        return None
    levels = _Levels(s, len(s.states) + 1, realizable_grid(s))
    for bodies in levels:  # scanned before each level refines
        found = _split_formula(s, levels.ev, x, y, bodies)
        if found is not None:
            return found
    raise RuntimeError(
        f"states {x!r} and {y!r} are not bisimilar but no distinguishing formula "
        f"was found; the bounded family is incomplete here")


def _split_formula(s: Futs, ev: Evaluator, x: str, y: str, bodies) -> Optional[Formula]:
    """Scan (label, body) pairs for differing class sums over the body's
    satisfaction set; the larger (or incomparable own) sum is the bound."""
    comp = s.sig.components[0]
    m = comp.monoids[0]
    for a in comp.labels:
        tx = s.transition(0, x, a)
        ty = s.transition(0, y, a)
        for chi in bodies:
            target = ev.sat(chi)
            sum_x = add_all(m, (w for k, w in tx.entries if k.state in target))
            sum_y = add_all(m, (w for k, w in ty.entries if k.state in target))
            if sum_x == sum_y:
                continue
            bound = sum_x if not nat_leq(m, sum_x, sum_y) else sum_y
            f = Diamond(0, a, (bound,), chi)
            if ev.holds(x, f) != ev.holds(y, f):
                return f
    return None
