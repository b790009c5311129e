"""Seeded input generators whose answers are known by construction.

Nothing here imports ``futs``.  Each family is built so that its answer
follows from the construction (and from the paper's theorems), not from
running the program:

* chains: every state is its own bisimulation block;
* lifted systems: a quotient system Q over blocks is expanded into k
  copies per block, every weight split (at every nesting level) across
  the copies of its target, so the largest bisimulation is exactly the
  copy groups whenever Q's blocks are pairwise distinguishable;
* the scaled Fig. 1 ring: n ring positions, each a block of k copies;
* absence pairs over bool-or: simulation-equivalent, hence logically
  equivalent, although not bisimilar.

Monoids are written as their text names ("nat-plus", ...) or as
``("prod", (m, ...))``.  A term over a stack of depth 1 is a list of
``(state, weight)`` pairs; over a deeper stack a list of ``(term, weight)``
pairs.  Formulas are tuples: ``("T",)``, ``("and", l, r)`` and
``("dia", component, label, bounds, body)``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction


# --- monoid arithmetic (an independent re-statement of the catalog) --------

_ZEROS = {"bool-or": False, "rat-plus": Fraction(0)}


@functools.lru_cache(maxsize=None)
def zero(m):
    if isinstance(m, tuple):
        return tuple(zero(f) for f in m[1])
    return _ZEROS.get(m, 0)


def is_zero(m, w) -> bool:
    return w == zero(m)


def add(m, a, b):
    if isinstance(m, tuple):
        return tuple(add(f, x, y) for f, x, y in zip(m[1], a, b))
    if m == "bool-or":
        return a or b
    if m == "nat-max":
        return max(a, b)
    return a + b


def leq(m, a, b) -> bool:
    """The natural order of the monoid (the logic's bound comparison)."""
    if isinstance(m, tuple):
        return all(leq(f, x, y) for f, x, y in zip(m[1], a, b))
    if m == "bool-or":
        return (not a) or b
    return a <= b


def rand_weight(rng: random.Random, m):
    """A random non-zero weight."""
    if isinstance(m, tuple):
        while True:
            w = tuple(rand_weight(rng, f) if rng.random() < 0.8 else zero(f) for f in m[1])
            if not is_zero(m, w):
                return w
    if m == "bool-or":
        return True
    if m == "rat-plus":
        return Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return rng.randint(2, 12)


def split(rng: random.Random, m, w, k: int) -> list:
    """k weights whose monoid sum is exactly w.  Where the monoid allows,
    the number of non-zero parts depends on k and w only, so file sizes
    and work barely move with the seed."""
    if isinstance(m, tuple):
        cols = [split(rng, f, x, k) for f, x in zip(m[1], w)]
        return [tuple(col[j] for col in cols) for j in range(k)]
    if is_zero(m, w):
        return [w] * k
    if m == "bool-or":
        parts = [True] * k
        for j in rng.sample(range(k), k // 4):
            parts[j] = False
        return parts
    if m == "nat-max":
        parts = [rng.randint(1, w) for _ in range(k)]
        parts[rng.randrange(k)] = w
        return parts
    if m == "rat-plus":
        shares = [rng.randint(1, 6) for _ in range(k)]
        total = sum(shares)
        return [w * Fraction(s, total) for s in shares]
    if w < k:
        parts = [0] * k
        for j in rng.sample(range(k), w):
            parts[j] = 1
        return parts
    cuts = sorted(rng.randint(0, w - k) for _ in range(k - 1))
    return [1 + b - a for a, b in zip([0] + cuts, cuts + [w - k])]


# --- text form ---------------------------------------------------------------

def fmt_monoid(m) -> str:
    if isinstance(m, tuple):
        return "prod(" + ", ".join(fmt_monoid(f) for f in m[1]) + ")"
    return m


def fmt_weight(m, w) -> str:
    if isinstance(m, tuple):
        return "(" + ", ".join(fmt_weight(f, x) for f, x in zip(m[1], w)) + ")"
    if m == "bool-or":
        return "tt" if w else "ff"
    if m == "rat-plus":
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    return str(w)


def fmt_term(stack, term) -> str:
    inner = stack[1:]
    parts = [f"{key if not inner else fmt_term(inner, key)}: {fmt_weight(stack[0], w)}"
             for key, w in term]
    return "{ " + ", ".join(parts) + " }" if parts else "{}"


@dataclass
class System:
    """A generated system plus its known largest bisimulation."""
    comps: list            # [(labels, monoid stack)] per component
    states: list
    trans: dict            # (component, state, label) -> term
    blocks: list = field(default_factory=list)

    def text(self) -> str:
        out = ["futs"]
        for i, (labels, stack) in enumerate(self.comps):
            out.append(f"labels A{i} = {{ {', '.join(labels)} }}")
            out.append(f"monoids M{i} = [ {', '.join(fmt_monoid(m) for m in stack)} ]")
        out.append("states { " + ", ".join(self.states) + " }")
        for (i, x, a), term in self.trans.items():
            out.append(f"trans {i} {x} {a} -> {fmt_term(self.comps[i][1], term)}")
        return "\n".join(out) + "\n"

    def term(self, i, x, a):
        return self.trans.get((i, x, a), [])


# --- model checking (independent of futs, used for expected answers) --------

def _member(stack, term, bounds, sat) -> bool:
    m, acc = stack[0], zero(stack[0])
    for key, w in term:
        if (key in sat) if len(stack) == 1 else _member(stack[1:], key, bounds[1:], sat):
            acc = add(m, acc, w)
    return leq(m, bounds[0], acc)


def sat_set(s: System, phi, cache=None) -> frozenset:
    """Satisfaction set of a formula, by the threshold semantics."""
    cache = {} if cache is None else cache
    if phi in cache:
        return cache[phi]
    if phi[0] == "T":
        out = frozenset(s.states)
    elif phi[0] == "and":
        out = sat_set(s, phi[1], cache) & sat_set(s, phi[2], cache)
    else:
        _, i, a, bounds, body = phi
        inner = sat_set(s, body, cache)
        stack = s.comps[i][1]
        out = frozenset(x for x in s.states
                        if _member(stack, s.term(i, x, a), bounds, inner))
    cache[phi] = out
    return out


def fmt_formula(s: System, phi) -> str:
    if phi[0] == "T":
        return "T"
    if phi[0] == "and":
        right = fmt_formula(s, phi[2])
        return f"{fmt_formula(s, phi[1])} & " + (f"({right})" if phi[2][0] == "and" else right)
    _, i, a, bounds, body = phi
    labels, stack = s.comps[i]
    b = ", ".join(fmt_weight(m, w) for m, w in zip(stack, bounds))
    head = (f"<{i}|{a}|{b}>" if len(s.comps) > 1
            else f"<{a}|{b}>" if len(labels) > 1 else f"<{b}>")
    text = fmt_formula(s, body)
    return f"{head} " + (f"({text})" if body[0] == "and" else text)


# --- families ------------------------------------------------------------------

def chain(rng: random.Random, n: int, prefix: str = "c", weight: int | None = None) -> System:
    """c0 -> c1 -> ... -> c(n-1) over nat-plus with one weight (seeded
    unless given) on every step, so states differ only by their distance to
    the deadlocked end: every block is a singleton, and refinement needs n
    rounds."""
    states = [f"{prefix}{i}" for i in range(n)]
    w = weight or rng.randint(1, 9)
    trans = {(0, states[i], "a"): [(states[i + 1], w)] for i in range(n - 1)}
    return System([(["a"], ["nat-plus"])], states, trans, [[x] for x in states])


def _expand(rng, stack, term, copies):
    """One copy's term: every weight split across its target's copies."""
    m, out = stack[0], []
    for key, w in term:
        if len(stack) == 1:
            targets = copies[key]
            pieces = split(rng, m, w, len(targets))
        else:
            pieces = split(rng, m, w, 2)
            targets = [_expand(rng, stack[1:], key, copies) for _ in pieces]
        out.extend((t, p) for t, p in zip(targets, pieces) if not is_zero(m, p))
    return out


def lift(rng: random.Random, comps, q_trans, n_blocks: int, k: int,
         prefix: str = "b") -> System:
    """Expand a quotient system over blocks 0..n_blocks-1 into k copies per
    block.  Copies of a block are bisimilar by construction; the caller
    guarantees that distinct blocks are not."""
    copies = {j: [f"{prefix}{j}_{c}" for c in range(k)] for j in range(n_blocks)}
    trans = {}
    for (i, j, a), term in q_trans.items():
        for x in copies[j]:
            trans[(i, x, a)] = _expand(rng, comps[i][1], term, copies)
    states = [x for j in range(n_blocks) for x in copies[j]]
    return System(comps, states, trans, [copies[j] for j in range(n_blocks)])


def _rand_term(rng, stack, n_blocks, width):
    if len(stack) == 1:
        keys = rng.sample(range(n_blocks), min(width, n_blocks))
    else:
        keys = [_rand_term(rng, stack[1:], n_blocks, width) for _ in range(width)]
    return [(key, rand_weight(rng, stack[0])) for key in keys]


def _unit(m):
    if isinstance(m, tuple):
        return tuple(_unit(f) for f in m[1])
    return {"bool-or": True, "rat-plus": Fraction(1)}.get(m, 1)


def _path_term(stack, j):
    """A small non-zero term whose only leaf is block j."""
    term = [(j, _unit(stack[-1]))]
    for m in reversed(stack[:-1]):
        term = [(term, _unit(m))]
    return term


def random_quotient(rng: random.Random, comps, n_blocks: int, width: int = 2,
                    density: float = 0.7) -> dict:
    """Random transitions over blocks, plus binary id labels in component 0
    (label id<t> is enabled at block j iff bit t of j is set), so every two
    blocks differ after one refinement round."""
    q = {}
    for i, (labels, stack) in enumerate(comps):
        for j in range(n_blocks):
            for a in labels:
                if rng.random() < density:
                    q[(i, j, a)] = _rand_term(rng, stack, n_blocks, width)
    ids = [f"id{t}" for t in range(max(1, (n_blocks - 1).bit_length()))]
    for j in range(n_blocks):
        for t, a in enumerate(ids):
            if j >> t & 1:
                q[(0, j, a)] = _path_term(comps[0][1], j)
    comps[0] = (comps[0][0] + ids, comps[0][1])
    return q


def lifted_random(rng: random.Random, comps, n_blocks: int, k: int, width: int = 2,
                  density: float = 0.7) -> System:
    comps = [(list(labels), list(stack)) for labels, stack in comps]
    q = random_quotient(rng, comps, n_blocks, width, density)
    return lift(rng, comps, q, n_blocks, k)


def lifted_ladder(rng: random.Random, levels: int, k: int, monoid: str) -> System:
    """A chain of `levels` blocks, k copies each: one block per level."""
    comps = [(["a"], [monoid])]
    q = {(0, j, "a"): [(j + 1, rand_weight(rng, monoid))] for j in range(levels - 1)}
    return lift(rng, comps, q, levels, k, prefix="l")


def ring(rng: random.Random, n: int, k: int) -> System:
    """Fig. 1 scaled to n positions x k copies over [bool-or, rat-plus]:
    position p moves on a to 1/2 p + 1/2 (p+1), position 1 also on b to
    1/6 p0 + 1/2 p2 + 1/3 p3.  Positions differ by their distance to the
    b-capable one, so the answer is n blocks of k."""
    half = Fraction(1, 2)
    comps = [(["a", "b"], ["bool-or", "rat-plus"])]
    q = {(0, p, "a"): [([(p, half), ((p + 1) % n, half)], True)] for p in range(n)}
    q[(0, 1, "b")] = [([(0, Fraction(1, 6)), (2, half), (3, Fraction(1, 3))], True)]
    return lift(rng, comps, q, n, k, prefix="p")


def stars(rng: random.Random, hubs: int, entries: int) -> System:
    """Hubs with `entries` weighted steps into deadlocked leaves.  All
    leaves are bisimilar, so hubs are bisimilar iff their totals agree;
    hub 0 and hub 1 share a total, hub 2 has one more."""
    leaves = [f"y{j}" for j in range(entries)]
    base = [rng.randint(1, 3) for _ in range(entries)]
    trans = {}
    for h in range(hubs):
        ws = base[:]
        rng.shuffle(ws)
        if h == 2:
            ws[0] += 1
        trans[(0, f"h{h}", "a")] = list(zip(leaves, ws))
    totals = {}
    for (_, x, _), term in trans.items():
        totals.setdefault(sum(w for _, w in term), []).append(x)
    blocks = [leaves] + list(totals.values())
    return System([(["a"], ["nat-plus"])], [f"h{h}" for h in range(hubs)] + leaves,
                  trans, blocks)


def absence_pairs(rng: random.Random, pairs: int, depth: int) -> System:
    """Bool-or pairs (p<i>, q<i>): q's a-successors are copies of a random
    tree's children; p has the same plus a pruned copy of the first one,
    which the original simulates.  So p and q simulate each other and
    satisfy the same conjunctive formulas (the logic cannot say that a
    branch is missing), while bisimilarity in general tells them apart."""
    states, trans = [], {}

    def tree(name, shape):
        states.append(name)
        for idx, (a, sub) in enumerate(shape):
            child = f"{name}{a}{idx}"
            trans.setdefault((0, name, a), []).append((child, True))
            tree(child, sub)

    def shape(d):
        if d == 0:
            return []
        return [(rng.choice("ab"), shape(d - 1)) for _ in range(rng.randint(1, 2))]

    def prune(sh):
        return [(a, prune(sub)) for a, sub in sh[:-1]] if sh else []

    for i in range(pairs):
        kids = [("a", shape(depth - 1)) for _ in range(2)]
        tree(f"q{i}", kids)
        tree(f"p{i}", kids + [("a", prune(kids[0][1]))])
    return System([(["a", "b"], ["bool-or"])], states, trans)


def diamond_ladder(bounds) -> tuple:
    """<b_n> ... <b_1> T over a single-component, single-label system."""
    phi = ("T",)
    for b in bounds:
        phi = ("dia", 0, "a", (b,), phi)
    return phi


def random_formulas(rng: random.Random, s: System, count: int, depth: int,
                    bound=rand_weight) -> list:
    """Formulas over a shared pool, so later ones reuse earlier subformulas;
    `bound(rng, monoid)` draws each diamond bound."""
    labels, stack = s.comps[0]
    pool = [("T",)]
    out = []
    while len(out) < count:
        body = rng.choice(pool)
        if rng.random() < 0.3 and len(pool) > 2:
            phi = ("and", body, rng.choice(pool))
        else:
            bounds = tuple(bound(rng, m) for m in stack)
            phi = ("dia", 0, rng.choice(labels), bounds, body)
        if _modal_depth(phi) <= depth:
            pool.append(phi)
            out.append(phi)
    return out


def _modal_depth(phi) -> int:
    if phi[0] == "T":
        return 0
    if phi[0] == "and":
        return max(_modal_depth(phi[1]), _modal_depth(phi[2]))
    return 1 + _modal_depth(phi[4])
