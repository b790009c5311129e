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

from .monoid import Value, Weight, cancellative, check_weight, is_zero, positive, power_dirac
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


def _sat(s: Futs, phi: Formula) -> frozenset[int]:
    """The model checker on state ids: the nodes ``0..n-1`` of ``Futs.graph``
    satisfying ``phi``.  The cache is the system's own (``Graph.sat``), so
    every ``sat_set`` and ``satisfies`` call and the oracle on one system
    evaluate a subformula once."""
    cache = s.graph.sat
    hit = cache.get(phi)
    if hit is not None:
        return hit
    return fold(phi, frozenset(range(s.graph.n)), lambda f, left, right: left & right,
                lambda f, body: _diamond(s, f, body), cache)


def _diamond(s: Futs, f: Diamond, body: frozenset[int]) -> frozenset[int]:
    """Bottom-up over the slot's levels in ``Futs.graph``, each distinct term
    node is tested once: do its weights into passed nodes (``body`` at the
    bottom) reach the bound?  The passing top terms give their states
    (``Graph.owners``).  This evaluates the flatten translation."""
    g = s.graph
    k = g.slots[(f.component, f.label)]
    monoids = s.sig.components[f.component].monoids
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


def _state_id(s: Futs, x: str) -> int:
    v = s.graph.ids.get(x)
    if v is None:
        raise ValueError(f"unknown state {x!r}")
    return v


def satisfies(s: Futs, x: str, phi: Formula) -> bool:
    return _state_id(s, x) in _sat(s, check_formula(phi, s.sig))


def sat_set(s: Futs, phi: Formula) -> frozenset[str]:
    """The states satisfying ``phi``; the system keeps every subformula's
    set, so a later call reuses what an earlier one evaluated."""
    states = s.states
    return frozenset([states[v] for v in _sat(s, check_formula(phi, s.sig))])


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


def _levels(s: Futs, depth: Optional[int]):
    """The oracle's level loop: refinement of state ids by satisfaction
    profiles.  Before each level it yields ``(blocks, bodies, candidates)``:
    ``blocks`` are increasing lists of state ids, ordered by least id as
    ``Partition`` orders names; ``bodies[k]`` conjoins, left-deep in the
    order found, the distinguishers (candidates that held at some but not
    all states) block k satisfies, so no two blocks share a body or its
    satisfaction set.  ``candidates`` are diamonds over labels, grid bound
    vectors (``shapes``), then the bodies new at this level, as a carried
    body's were tried before.  Their modal depth is the level's, so none
    repeats an earlier distinguisher.  The level then splits each block by
    the distinguishers among them and extends a piece's body by those it
    satisfies.  Last comes ``(blocks, bodies, [])``, after at most ``depth``
    levels (default: the carrier size).
    """
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    n, grid = s.graph.n, realizable_grid(s)
    # a zero outermost bound makes the diamond a tautology; skip those
    shapes = [(i, a, vec) for i, comp in enumerate(s.sig.components) for a in comp.labels
              for vec in itertools.product(*(grid[(i, j)] for j in range(comp.depth)))
              if not is_zero(comp.monoids[0], vec[0])]
    blocks, bodies = ([list(range(n))], [TOP]) if n else ([], [])
    fresh = bodies
    for _level in range((n if depth is None else depth) if n > 1 else 0):
        for chi in bodies:
            _sat(s, chi)
        candidates = [Diamond(i, a, vec, chi) for i, a, vec in shapes for chi in fresh]
        yield blocks, bodies, candidates
        new = [(f, fs) for f in candidates if 0 < len(fs := _sat(s, f)) < n]
        pieces: dict[tuple, list[int]] = {}  # (block index, new distinguishers held) -> states
        for k, block in enumerate(blocks):
            for v in block:
                held = tuple([f for f, fs in new if v in fs])
                pieces.setdefault((k, held), []).append(v)
        keys = sorted(pieces, key=lambda key: pieces[key][0])
        done = len(keys) == len(blocks) or len(keys) == n
        bodies = [conj(held) if bodies[k] is TOP else functools.reduce(And, held, bodies[k])
                  for k, held in keys]
        fresh = [chi for chi, (_k, held) in zip(bodies, keys) if held]
        blocks = [pieces[key] for key in keys]
        if done:
            break
    yield blocks, bodies, []


def bounded_logical_equiv(s: Futs, depth: Optional[int] = None) -> Partition:
    """Partition states by agreement on a level-wise formula family.

    At each of at most ``depth`` levels, candidate diamonds combine every
    label, every bound vector drawn from ``realizable_grid``, and one
    characteristic conjunction per current block; states are split by
    their satisfaction profile.  With the default depth (the carrier size)
    this coincides with bisimilarity on positive cancellative monoids.
    """
    from .bisim import Partition
    for blocks, _bodies, _candidates in _levels(s, depth):
        pass  # the last item holds the final blocks
    return Partition.of_blocks(s.states, ([s.states[v] for v in b] for b in blocks))


def witness_formula(s: Futs, x: str, y: str,
                    depth: Optional[int] = None) -> Optional[Formula]:
    """A formula from the bounded family separating two states, if any.

    Unlike distinguishing_formula this makes no completeness claim: the
    result is verified by evaluation, but None only means the bounded
    family does not separate the states, which outside cancellative
    monoids can happen for non-bisimilar pairs.  Before each level refines,
    its candidates are scanned; the first that separates the pair is the
    first new distinguisher that does (an earlier one would have split the
    pair), and it is returned shrunk.
    """
    vx, vy = _state_id(s, x), _state_id(s, y)
    for _blocks, _bodies, candidates in _levels(s, depth):
        for f in candidates:
            if (vx in _sat(s, f)) != (vy in _sat(s, f)):
                return _shrink_witness(s, f, vx, vy)
    return None


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


def _shrink_witness(s: Futs, phi: Formula, x: int, y: int) -> Formula:
    """Greedily simplify subformulas while the whole formula still
    separates the two state nodes; keeps reported witnesses readable."""
    while True:
        for smaller in _simplifications(phi):
            if (x in _sat(s, smaller)) != (y in _sat(s, smaller)):
                phi = smaller
                break
        else:
            return phi


def distinguishing_formula(s: Futs, x: str, y: str,
                           depth: Optional[int] = None) -> Optional[Formula]:
    """A formula holding at exactly one of two states, or None if bisimilar.

    Restricted to simple systems over a positive cancellative monoid, where
    the bounded-equivalence family is guaranteed to separate non-bisimilar
    states; the formula is ``witness_formula``'s.  With a ``depth``, None
    means that many levels keep the pair together; without, a pair that all
    levels keep together must be bisimilar (else RuntimeError).
    """
    if not s.sig.is_simple:
        raise ValueError("distinguishing_formula needs a simple system")
    m = s.sig.components[0].monoids[0]
    if not (positive(m) and cancellative(m)):
        raise ValueError("distinguishing_formula needs a positive cancellative monoid")
    found = witness_formula(s, x, y, depth)
    if found is not None or depth is not None:
        return found
    from .bisim import largest_bisimulation
    if largest_bisimulation(s).same_block(x, y):
        return None  # the logic is sound: no formula separates bisimilar states
    raise RuntimeError(
        f"states {x!r} and {y!r} are not bisimilar but no distinguishing formula "
        f"was found; the bounded family is incomplete here")


def logical_witness(s: Futs, x: str, y: str, depth: Optional[int] = None) -> Optional[Formula]:
    """``futs equiv --logic``'s answer: a formula of ``s``'s own logic separating ``x`` and ``y``,
    or None when ``bounded_logical_equiv(s, depth)`` keeps them together.  One search answers:
    the family splits the pair at the first level one of whose candidates separates it, which is
    the candidate ``witness_formula`` returns; on a simple positive cancellative system it runs
    as ``distinguishing_formula``, which without a depth checks a None against bisimilarity."""
    m = s.sig.components[0].monoids[0]
    complete = s.sig.is_simple and positive(m) and cancellative(m)
    return (distinguishing_formula if complete else witness_formula)(s, x, y, depth)
