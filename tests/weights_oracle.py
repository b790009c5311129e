"""The weight-term layer as it was before descriptors carried their
operations, kept as the differential oracle for ``futs.monoid`` and
``futs.weightfn.node``.

``add``, ``check_weight``, ``_canonical``, ``nat_leq`` and
``format_weight`` dispatch on the descriptor through ``isinstance``
chains; ``node`` merges duplicate keys in a dict (hashing every key) and
sorts by a per-entry key function.  Two changes only: ``_canonical`` reads
each descriptor class's payload type from ``_PAYLOAD``, and ``format_term``
computes every key afresh instead of reading or filling a node's cache, so
the library's cached keys are checked against it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from futs.monoid import (
    SEPARATORS,
    BoolOr,
    Monoid,
    NatMax,
    NatPlus,
    Power,
    Product,
    RatPlus,
    Weight,
    WeightError,
    is_zero,
    quote_id,
    zero,
)
from futs.weightfn import Leaf, Node, Term

_PAYLOAD = {BoolOr: bool, NatPlus: int, NatMax: int, RatPlus: Fraction, Product: tuple,
            Power: tuple}


def _canonical(m: Monoid, w: Weight) -> bool:
    """True when ``w`` already is the canonical payload ``check_weight`` returns."""
    kind = type(w)
    if kind is not _PAYLOAD.get(type(m)):
        return False
    if kind is Fraction:
        return w.numerator >= 0  # a Fraction comparison costs far more
    if kind is not tuple:
        return w >= 0
    if isinstance(m, Product):
        return len(w) == len(m.factors) and all(map(_canonical, m.factors, w))
    prev = ""
    for pair in w:
        if type(pair) is not tuple or len(pair) != 2:
            return False
        lab, val = pair
        if not (type(lab) is str and prev < lab and lab in m.labels
                and _canonical(m.base, val) and val != m.base._zero):
            return False
        prev = lab
    return True


def check_weight(m: Monoid, w: Weight) -> Weight:
    """Validate and canonicalise a payload against ``m``.

    Returns the canonical form (rationals as Fraction, power maps sorted
    with zero entries dropped); raises WeightError on shape mismatch.  A
    payload that is canonical already is returned as it is, after a check
    of its exact types that builds nothing.
    """
    if _canonical(m, w):
        return w
    if isinstance(m, BoolOr):
        if not isinstance(w, bool):
            raise WeightError(f"bool-or weight expected, got {w!r}")
        return w
    if isinstance(m, (NatPlus, NatMax)):
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise WeightError(f"natural weight expected, got {w!r}")
        return w
    if isinstance(m, RatPlus):
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise WeightError(f"rational weight expected, got {w!r}")
        w = Fraction(w)
        if w < 0:
            raise WeightError(f"rational weight must be nonnegative, got {w!r}")
        return w
    if isinstance(m, Product):
        if not isinstance(w, tuple) or len(w) != len(m.factors):
            raise WeightError(f"{len(m.factors)}-tuple expected, got {w!r}")
        return tuple(check_weight(f, x) for f, x in zip(m.factors, w))
    if isinstance(m, Power):
        if not isinstance(w, tuple):
            raise WeightError(f"power map expected, got {w!r}")
        items = {}
        for pair in w:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise WeightError(f"power map entries must be (label, weight) pairs, got {pair!r}")
            lab, val = pair
            if lab not in m.labels:
                raise WeightError(f"label {lab!r} not in power label set {m.labels}")
            if lab in items:
                raise WeightError(f"duplicate label {lab!r} in power map")
            items[lab] = check_weight(m.base, val)
        return tuple(sorted((l, v) for l, v in items.items() if not is_zero(m.base, v)))
    raise TypeError(f"unknown monoid {m!r}")


def add(m: Monoid, w1: Weight, w2: Weight) -> Weight:
    """Monoid sum of two payloads (commutative, associative, unit zero)."""
    if isinstance(m, BoolOr):
        if not (isinstance(w1, bool) and isinstance(w2, bool)):
            raise WeightError(f"bool-or operands expected, got {w1!r}, {w2!r}")
        return w1 or w2
    if isinstance(m, (NatPlus, RatPlus)):
        if isinstance(w1, bool) or isinstance(w2, bool):
            raise WeightError(f"numeric operands expected, got {w1!r}, {w2!r}")
        return w1 + w2
    if isinstance(m, NatMax):
        if isinstance(w1, bool) or isinstance(w2, bool):
            raise WeightError(f"numeric operands expected, got {w1!r}, {w2!r}")
        return max(w1, w2)
    if isinstance(m, Product):
        if len(w1) != len(m.factors) or len(w2) != len(m.factors):
            raise WeightError(f"{len(m.factors)}-tuples expected, got {w1!r}, {w2!r}")
        return tuple(add(f, a, b) for f, a, b in zip(m.factors, w1, w2))
    if isinstance(m, Power):
        merged = dict(w1)
        for lab, v in w2:
            merged[lab] = add(m.base, merged[lab], v) if lab in merged else v
        return tuple(sorted((l, v) for l, v in merged.items() if not is_zero(m.base, v)))
    raise TypeError(f"unknown monoid {m!r}")


def add_all(m: Monoid, weights) -> Weight:
    total = zero(m)
    for w in weights:
        total = add(m, total, w)
    return total


def nat_leq(m: Monoid, w1: Weight, w2: Weight) -> bool:
    """The natural order: true iff some w'' has w1 + w'' = w2."""
    if isinstance(m, BoolOr):
        return (not w1) or w2
    if isinstance(m, (NatPlus, NatMax, RatPlus)):
        return w1 <= w2
    if isinstance(m, Product):
        return all(nat_leq(f, a, b) for f, a, b in zip(m.factors, w1, w2))
    if isinstance(m, Power):
        d1, d2 = dict(w1), dict(w2)
        z = zero(m.base)
        return all(nat_leq(m.base, d1.get(l, z), d2.get(l, z)) for l in set(d1) | set(d2))
    raise TypeError(f"unknown monoid {m!r}")


def format_weight(m: Monoid, w: Weight, compact: bool = False) -> str:
    """Display form of a weight (the system writer and formulas), or with
    ``compact`` the canonical key that orders term entries: no blanks and
    power labels unquoted."""
    if isinstance(m, BoolOr):
        return "tt" if w else "ff"
    if isinstance(m, (NatPlus, NatMax)):
        return str(w)
    if isinstance(m, RatPlus):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    sep, colon, lb, rb = SEPARATORS[compact]
    if isinstance(m, Product):
        return "(" + sep.join(format_weight(f, x, compact) for f, x in zip(m.factors, w)) + ")"
    if isinstance(m, Power):
        if not w:
            return "{}"
        return lb + sep.join(f"{l if compact else quote_id(l)}{colon}"
                             f"{format_weight(m.base, v, compact)}" for l, v in w) + rb
    raise TypeError(f"unknown monoid {m!r}")


def node(stack, entries) -> Node:
    """Build a canonical Node over the given monoid stack.

    ``entries`` is an iterable (or mapping) of (term, weight) pairs whose
    keys must all be terms over ``stack[1:]`` (leaves when the stack has a
    single monoid).  Duplicate keys are merged by addition in ``stack[0]``.
    Every weight goes through ``check_weight``, which returns a canonical
    one as it is.
    """
    stack = tuple(stack)
    if not stack:
        raise ValueError("a weight term needs a non-empty monoid stack")
    outer, rest = stack[0], stack[1:]
    if isinstance(entries, Mapping):
        entries = entries.items()
    merged: dict[Term, Weight] = {}
    for key, w in entries:
        if rest:
            if not isinstance(key, Node) or key.stack != rest:
                raise ValueError(f"child term {key!r} does not match stack {rest}")
        else:
            if not isinstance(key, Leaf):
                raise ValueError(f"expected a state leaf at depth 1, got {key!r}")
        w = check_weight(outer, w)
        merged[key] = add(outer, merged[key], w) if key in merged else w
    z = zero(outer)
    kept = [(k, w) for k, w in merged.items() if w != z]
    kept.sort(key=lambda kw: format_term(kw[0], True))
    return Node(stack, tuple(kept))


def format_term(t: Term, compact: bool = False) -> str:
    """Display form of a term in the system file syntax, or with
    ``compact`` the canonical key that orders entries and names flatten's
    states.  Every key is computed afresh."""
    if isinstance(t, Leaf):
        return t.state if compact else quote_id(t.state)
    sep, colon, lb, rb = SEPARATORS[compact]
    outer = t.stack[0]
    text = lb + sep.join(f"{format_term(k, compact)}{colon}{format_weight(outer, w, compact)}"
                         for k, w in t.entries) + rb if t.entries else "{}"
    return text
