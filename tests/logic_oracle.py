"""The recursive formula functions, the two oracle level loops and the
subset-sum grid they draw bounds from, kept as the differential oracle
for ``futs.logic`` and the formula half of ``futs.textio``.

Every formula pass here recurses once per nesting level, so a formula
deeper than the recursion limit raises ``RecursionError``.  ``Evaluator``
tests a diamond with ``_member``, which walks each state's transition
term again, shared subterms included; the library's ``_diamond`` tests
each distinct term node of the compiled graph once.  ``_oracle`` is the level
loop of ``bounded_logical_equiv`` and ``witness_formula``, and
``distinguishing_formula`` runs its own copy of it, with the class-sum
scan ``_split_formula`` that the library's one witness search replaced
(where it finds a formula, the library returns ``witness_formula``'s);
both take their bounds from this module's ``realizable_grid``, which
walks the terms itself and sums every subset of a term's weights with
``itertools.combinations``.  Its ``Evaluator`` and ``_split_formula``
read satisfaction sets of state names, one cache per evaluator; the
library's work on state ids with one cache per system.  The formula
classes and ``conj`` are shared with the library, and the text cursor
with ``textio_oracle``; ``parse_formula`` and ``write_formula`` pass
``futs.logic`` for its formula classes and call this module's
``check_formula``.  ``logical_witness_via_wts`` is the route ``equiv
--logic`` took on a system that is not simple before the library's
``logical_witness`` answered in the system's own logic: the verdict of
``bounded_logical_equiv``, then a second search on the weighted system
``to_wts`` builds.
"""

from __future__ import annotations

import itertools
from typing import Optional

import futs.logic
from futs import monoid as mo, reduce as rd
from futs.bisim import Partition, largest_bisimulation
from futs.logic import (
    TOP,
    And,
    Diamond,
    Formula,
    FormulaError,
    Top,
    conj,
)
from futs.monoid import (
    Weight,
    add,
    cancellative,
    check_weight,
    format_weight,
    is_zero,
    nat_leq,
    positive,
    power_dirac,
    quote_id,
    zero,
)
from futs.system import Futs, Signature
from futs.textio import Diagnostic, ParseError, _fail
from futs.weightfn import Leaf, Node
from bisim_oracle import refine_by, single
from conftest import add_all
from reduce_oracle import hom_apply, homog_sections
from textio_oracle import Token, _Cursor, _parse_weight, _resolve_modality, tokenize


def check_formula(phi: Formula, sig: Signature) -> Formula:
    """Validate against a signature; returns the bound-canonical form."""
    if isinstance(phi, Top):
        return phi
    if isinstance(phi, And):
        return And(check_formula(phi.left, sig), check_formula(phi.right, sig))
    if isinstance(phi, Diamond):
        if not 0 <= phi.component < len(sig.components):
            raise FormulaError(f"component index {phi.component} out of range")
        comp = sig.components[phi.component]
        if phi.label not in comp.labels:
            raise FormulaError(f"label {phi.label!r} not in component {phi.component}")
        if len(phi.bounds) != comp.depth:
            raise FormulaError(
                f"expected {comp.depth} bounds for component {phi.component}, "
                f"got {len(phi.bounds)}")
        bounds = tuple(check_weight(m, b) for m, b in zip(comp.monoids, phi.bounds))
        return Diamond(phi.component, phi.label, bounds, check_formula(phi.body, sig))
    raise FormulaError(f"not a formula: {phi!r}")


class Evaluator:
    """Model checker with a satisfaction-set cache per system."""

    def __init__(self, s: Futs):
        self.system = s
        self._cache: dict[Formula, frozenset[str]] = {}

    def sat(self, phi: Formula) -> frozenset[str]:
        hit = self._cache.get(phi)
        if hit is not None:
            return hit
        if isinstance(phi, Top):
            out = frozenset(self.system.states)
        elif isinstance(phi, And):
            out = self.sat(phi.left) & self.sat(phi.right)
        elif isinstance(phi, Diamond):
            body = self.sat(phi.body)
            comp = self.system.sig.components[phi.component]
            out = frozenset(
                x for x in self.system.states
                if _member(self.system.transition(phi.component, x, phi.label),
                           phi.bounds, 0, body, comp.monoids))
        else:
            raise FormulaError(f"not a formula: {phi!r}")
        self._cache[phi] = out
        return out

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


def sat_set(s: Futs, phi: Formula) -> frozenset[str]:
    return Evaluator(s).sat(check_formula(phi, s.sig))


def translate(stage: str, sig: Signature, phi: Formula) -> Formula:
    """Rewrite a formula for the system reduced by ``stage`` from ``sig``.

    Satisfaction is preserved: a state satisfies the original formula iff
    its image satisfies the translated one on the reduced system.
    """
    phi = check_formula(phi, sig)
    if stage == "unlabel":
        def go(f):
            if isinstance(f, Top):
                return f
            if isinstance(f, And):
                return And(go(f.left), go(f.right))
            comp = sig.components[f.component]
            folded = power_dirac(f.label, f.bounds[0], comp.labels, comp.monoids[0])
            return Diamond(f.component, rd.UNLABEL_LABEL,
                           (folded,) + f.bounds[1:], go(f.body))
    elif stage == "tabularize":
        depth = max(c.depth for c in sig.components)

        def go(f):
            if isinstance(f, Top):
                return f
            if isinstance(f, And):
                return And(go(f.left), go(f.right))
            pad = depth - sig.components[f.component].depth
            return Diamond(f.component, f.label, (1,) * pad + f.bounds, go(f.body))
    elif stage == "homogenize":
        rows = homog_sections(sig)

        def go(f):
            if isinstance(f, Top):
                return f
            if isinstance(f, And):
                return And(go(f.left), go(f.right))
            bounds = tuple(hom_apply(h, b) for h, b in zip(rows[f.component], f.bounds))
            return Diamond(f.component, f.label, bounds, go(f.body))
    elif stage == "nest":
        rd.sig_nest(sig)  # precondition check

        def go(f):
            if isinstance(f, Top):
                return f
            if isinstance(f, And):
                return And(go(f.left), go(f.right))
            return Diamond(0, rd.fused_label(f.component, f.label), f.bounds, go(f.body))
    elif stage == "flatten":
        rd.sig_flatten(sig)  # precondition check
        lab = sig.components[0].labels[0]

        def go(f):
            if isinstance(f, Top):
                return f
            if isinstance(f, And):
                return And(go(f.left), go(f.right))
            out = go(f.body)
            for m in reversed(f.bounds):
                out = Diamond(0, lab, (m,), out)
            return out
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return go(phi)


def translate_to_wts(sig: Signature, phi: Formula) -> tuple[Formula, Signature]:
    """Composite translation mirroring the to_wts stage plan."""
    cur = sig
    for stage in rd.plan_wts_stages(sig):
        phi = translate(stage, cur, phi)
        cur = rd.SIG_FUNCS[stage](cur)
    return check_formula(phi, cur), cur


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
                    sums.setdefault(format_weight(m, total, True), total)
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


def _oracle(s: Futs, depth: Optional[int], grid: Optional[dict]):
    """Level-wise refinement by satisfaction profiles.

    Returns the final partition, the accumulated distinguishing formulas,
    and the evaluator that knows all their satisfaction sets.
    """
    if depth is None:
        depth = len(s.states)
    if grid is None:
        grid = realizable_grid(s)
    for i, comp in enumerate(s.sig.components):
        for j in range(comp.depth):
            if not grid.get((i, j)):
                raise ValueError(f"empty bound grid for component {i}, level {j}")
    part = single(s.states)
    ev = Evaluator(s)
    distinguishers: list[Formula] = []
    if depth == 0 or len(s.states) <= 1:
        return part, distinguishers, ev
    known = set()
    for _level in range(depth):
        bodies: list[Formula] = []
        seen_sets = set()
        for block in part.blocks:
            chi = conj(f for f in distinguishers if block[0] in ev.sat(f))
            key = ev.sat(chi)
            if key not in seen_sets:
                seen_sets.add(key)
                bodies.append(chi)
        candidates: list[Formula] = []
        for i, comp in enumerate(s.sig.components):
            # a zero outermost bound makes the diamond a tautology; skip those
            vectors = [v for v in itertools.product(
                *(grid[(i, j)] for j in range(comp.depth)))
                if not is_zero(comp.monoids[0], v[0])]
            for a in comp.labels:
                for vec in vectors:
                    for chi in bodies:
                        candidates.append(Diamond(i, a, vec, chi))
        useful = []
        for f in candidates:
            sat = ev.sat(f)
            if sat and len(sat) < len(s.states):
                useful.append(f)
        refined = refine_by(part, lambda x: tuple(x in ev.sat(f) for f in useful))
        for f in useful:
            if f not in known:
                known.add(f)
                distinguishers.append(f)
        if refined == part:
            break
        part = refined
        if len(part.blocks) == len(s.states):
            break
    return part, distinguishers, ev


def bounded_logical_equiv(s: Futs, depth: Optional[int] = None,
                          grid: Optional[dict] = None) -> Partition:
    """Partition states by agreement on a level-wise formula family.

    At each level, candidate diamonds combine every label, every bound
    vector drawn from the grid, and one characteristic conjunction per
    current block; states are split by their satisfaction profile.  With
    the default depth (the carrier size) and default grid this coincides
    with bisimilarity on positive cancellative monoids.
    """
    part, _, _ = _oracle(s, depth, grid)
    return part


def witness_formula(s: Futs, x: str, y: str,
                    depth: Optional[int] = None) -> Optional[Formula]:
    """A formula from the bounded family separating two states, if any.

    Unlike distinguishing_formula this makes no completeness claim: the
    result is verified by evaluation, but None only means the bounded
    family does not separate the states, which outside cancellative
    monoids can happen for non-bisimilar pairs.
    """
    part, distinguishers, ev = _oracle(s, depth, None)
    if part.same_block(x, y):
        return None
    for f in distinguishers:
        if (x in ev.sat(f)) != (y in ev.sat(f)):
            return _shrink_witness(ev, f, x, y)
    raise RuntimeError("separated states without a separating formula")


def _conjuncts(phi: Formula) -> list[Formula]:
    if isinstance(phi, And):
        return _conjuncts(phi.left) + _conjuncts(phi.right)
    return [] if isinstance(phi, Top) else [phi]


def _shrink_witness(ev: Evaluator, phi: Formula, x: str, y: str) -> Formula:
    """Greedily simplify subformulas while the whole formula still
    separates the two states; keeps reported witnesses readable."""

    def separates(f: Formula) -> bool:
        return (x in ev.sat(f)) != (y in ev.sat(f))

    def attempt(f: Formula, rebuild):
        if isinstance(f, Diamond) and not isinstance(f.body, Top):
            cand = rebuild(Diamond(f.component, f.label, f.bounds, TOP))
            if separates(cand):
                return cand
            parts = _conjuncts(f.body)
            if len(parts) > 1:
                for i in range(len(parts)):
                    smaller = conj(parts[:i] + parts[i + 1:])
                    cand = rebuild(Diamond(f.component, f.label, f.bounds, smaller))
                    if separates(cand):
                        return cand
            return attempt(f.body,
                           lambda g: rebuild(Diamond(f.component, f.label, f.bounds, g)))
        if isinstance(f, And):
            found = attempt(f.left, lambda g: rebuild(And(g, f.right)))
            if found is not None:
                return found
            return attempt(f.right, lambda g: rebuild(And(f.left, g)))
        return None

    while True:
        smaller = attempt(phi, lambda g: g)
        if smaller is None:
            return phi
        phi = smaller


def distinguishing_formula(s: Futs, x: str, y: str) -> Optional[Formula]:
    """A formula holding at exactly one of two states, or None if bisimilar.

    Restricted to simple systems over a positive cancellative monoid, where
    the bounded-equivalence family is guaranteed to separate non-bisimilar
    states; the returned bound is the satisfied side's own class sum.
    """
    if not s.sig.is_simple:
        raise ValueError("distinguishing_formula needs a simple system")
    comp = s.sig.components[0]
    m = comp.monoids[0]
    if not (positive(m) and cancellative(m)):
        raise ValueError("distinguishing_formula needs a positive cancellative monoid")
    for state in (x, y):
        if state not in set(s.states):
            raise ValueError(f"unknown state {state!r}")
    if largest_bisimulation(s).same_block(x, y):
        return None

    grid = realizable_grid(s)
    ev = Evaluator(s)
    part = single(s.states)
    distinguishers: list[Formula] = []
    for _level in range(len(s.states) + 1):
        bodies: list[Formula] = []
        seen_sets = set()
        for block in part.blocks:
            chi = conj(f for f in distinguishers if block[0] in ev.sat(f))
            key = ev.sat(chi)
            if key not in seen_sets:
                seen_sets.add(key)
                bodies.append(chi)
        found = _split_formula(s, ev, x, y, bodies)
        if found is not None:
            return found
        candidates = [Diamond(0, a, (b,), chi)
                      for a in comp.labels
                      for b in grid[(0, 0)] if not is_zero(m, b)
                      for chi in bodies]
        useful = [f for f in candidates
                  if ev.sat(f) and len(ev.sat(f)) < len(s.states)]
        refined = refine_by(part, lambda z: tuple(z in ev.sat(f) for f in useful))
        distinguishers.extend(f for f in useful if f not in distinguishers)
        if refined == part:
            break
        part = refined
    raise RuntimeError(
        f"states {x!r} and {y!r} are not bisimilar but no distinguishing formula "
        f"was found; the bounded family is incomplete here")


def _split_formula(s: Futs, ev: Evaluator, x: str, y: str, bodies) -> Optional[Formula]:
    """Scan (label, body) pairs for differing class sums over the body's
    satisfaction set of names; the larger (or incomparable own) sum is the
    bound."""
    m = s.sig.components[0].monoids[0]
    for a in s.sig.components[0].labels:
        tx, ty = (s.transition(0, z, a).entries for z in (x, y))
        for chi in bodies:
            target = ev.sat(chi)
            sum_x, sum_y = (add_all(m, (w for c, w in t if c.state in target))
                            for t in (tx, ty))
            if sum_x == sum_y:
                continue
            bound = sum_x if not nat_leq(m, sum_x, sum_y) else sum_y
            f = Diamond(0, a, (bound,), chi)
            if (x in ev.sat(f)) != (y in ev.sat(f)):
                return f
    return None


def logical_witness_via_wts(s: Futs, x: str, y: str,
                            depth: Optional[int] = None) -> tuple[Optional[Formula], Futs]:
    """``futs equiv --logic``'s former route, on the library's functions: a formula separating
    ``x`` and ``y`` or None, and the system it is over.  On a simple system the witness search
    is the verdict; on another, ``(None, s)`` means ``bounded_logical_equiv`` keeps the pair
    together, else the witness is sought on ``to_wts(s).target`` at full depth, None meaning
    none found."""
    lib = futs.logic
    lib._state_id(s, x), lib._state_id(s, y)
    if not s.sig.is_simple:
        if lib.bounded_logical_equiv(s, depth).same_block(x, y):
            return None, s
        return logical_witness_via_wts(rd.to_wts(s).target, x, y)
    m = s.sig.components[0].monoids[0]
    find = lib.distinguishing_formula if positive(m) and cancellative(m) else lib.witness_formula
    return find(s, x, y, depth), s


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a formula against a signature; raises ParseError."""
    cur = _Cursor(tokenize(text), 1)
    phi = _parse_conjunction(cur, sig, futs.logic)
    cur.expect_done()
    try:
        return check_formula(phi, sig)
    except FormulaError as e:
        raise ParseError([Diagnostic(1, 1, str(e))]) from e


def _parse_conjunction(cur: _Cursor, sig: Signature, logic) -> Formula:
    phi = _parse_unary(cur, sig, logic)
    while cur.at("&"):
        cur.next()
        phi = logic.And(phi, _parse_unary(cur, sig, logic))
    return phi


def _parse_unary(cur: _Cursor, sig: Signature, logic) -> Formula:
    tok = cur.peek()
    if tok is None:
        cur.next(what="formula")
    if tok.kind == "ident" and tok.value == "T":
        cur.next()
        return logic.Top()
    if cur.at("("):
        cur.next()
        phi = _parse_conjunction(cur, sig, logic)
        cur.next(value=")")
        return phi
    if cur.at("<"):
        open_tok = cur.next()
        segments: list[list[Token]] = [[]]
        depth = 0
        while True:
            t = cur.peek()
            if t is None:
                _fail(open_tok.line, open_tok.column, "unterminated modality")
            if t.kind == "punct" and t.value in "{([":
                depth += 1
            elif t.kind == "punct" and t.value in "})]":
                depth -= 1
            elif t.kind == "punct" and t.value == ">" and depth == 0:
                cur.next()
                break
            elif t.kind == "punct" and t.value == "|" and depth == 0:
                cur.next()
                segments.append([])
                continue
            segments[-1].append(cur.next())
        i, label, bound_toks = _resolve_modality(segments, sig, open_tok)
        comp = sig.components[i]
        bcur = _Cursor(bound_toks, open_tok.line)
        bounds = [_parse_weight(bcur, comp.monoids[0])]
        j = 1
        while bcur.at(","):
            bcur.next()
            if j >= comp.depth:
                _fail(open_tok.line, open_tok.column,
                      f"too many bounds for component {i} (row length {comp.depth})")
            bounds.append(_parse_weight(bcur, comp.monoids[j]))
            j += 1
        bcur.expect_done()
        if j != comp.depth:
            _fail(open_tok.line, open_tok.column,
                  f"expected {comp.depth} bounds for component {i}, got {j}")
        body = _parse_unary(cur, sig, logic)
        return logic.Diamond(i, label, tuple(bounds), body)
    _fail(tok.line, tok.column, f"expected a formula, found {tok.value!r}")


def write_formula(phi: Formula, sig: Signature) -> str:
    return _write_formula(phi, sig, futs.logic)


def _write_formula(phi: Formula, sig: Signature, logic) -> str:
    if isinstance(phi, logic.Top):
        return "T"
    if isinstance(phi, logic.And):
        left = _write_formula(phi.left, sig, logic)
        right = _write_formula(phi.right, sig, logic)
        if isinstance(phi.right, logic.And):
            right = f"({right})"
        return f"{left} & {right}"
    if isinstance(phi, logic.Diamond):
        comp = sig.components[phi.component]
        bounds = ", ".join(mo.format_weight(m, b)
                           for m, b in zip(comp.monoids, phi.bounds))
        if len(sig.components) > 1:
            head = f"<{phi.component}|{quote_id(phi.label)}|{bounds}>"
        elif len(comp.labels) > 1:
            head = f"<{quote_id(phi.label)}|{bounds}>"
        else:
            head = f"<{bounds}>"
        body = _write_formula(phi.body, sig, logic)
        if isinstance(phi.body, logic.And):
            body = f"({body})"
        return f"{head} {body}"
    raise logic.FormulaError(f"not a formula: {phi!r}")
