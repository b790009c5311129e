"""Finitely supported, possibly nested weight functions over state spaces.

A term of depth 0 is a state (``Leaf``); a term of depth d+1 is a ``Node``
carrying the monoid stack it is weighted over and a finite map from
depth-d terms to non-zero weights of the outermost stack monoid.  Nodes
are canonical by construction: zero entries are dropped, colliding keys
are merged by monoid addition, and entries are sorted by the canonical
serialisation of their key, so structural equality coincides with
extensional equality of the represented functions.  A node computes its
hash and that serialisation (``term_key``) on first use and keeps them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from .monoid import (
    Monoid,
    Weight,
    add,
    add_all,
    check_weight,
    format_weight,
    quote_id,
    weight_key,
    zero,
)


@dataclass(frozen=True)
class Leaf:
    state: str


@dataclass(frozen=True)
class Node:
    stack: tuple[Monoid, ...]
    entries: tuple[tuple["Term", Weight], ...]
    # the dataclass's hash and the canonical term_key, each computed on
    # first use and kept: both would otherwise walk the whole subtree on
    # every dict lookup and every sort, and most terms are never hashed
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)
    _key: Optional[str] = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.stack, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):  # pickle by fields, so the loading process rehashes its strs
        return Node, (self.stack, self.entries)


Term = Union[Leaf, Node]


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
    kept.sort(key=lambda kw: term_key(kw[0]))
    return Node(stack, tuple(kept))


def zero_term(stack) -> Node:
    return node(stack, ())


def singleton(stack, key: Term, w: Weight) -> Node:
    return node(stack, [(key, w)])


def term_depth(t: Term) -> int:
    return len(t.stack) if isinstance(t, Node) else 0


def support(t: Node) -> tuple[Term, ...]:
    """The keys with non-zero weight."""
    if not isinstance(t, Node):
        raise TypeError("support is only defined on nodes")
    return tuple(k for k, _ in t.entries)


def weight_of(t: Node, key: Term) -> Weight:
    """Lookup with the monoid zero as default."""
    for k, w in t.entries:
        if k == key:
            return w
    return zero(t.stack[0])


def leaves(t: Term) -> set[str]:
    if isinstance(t, Leaf):
        return {t.state}
    acc: set[str] = set()
    for k, _ in t.entries:
        acc |= leaves(k)
    return acc


def term_key(t: Term) -> str:
    """Compact canonical serialisation; drives ordering and state ids.

    A node's key is computed on first use and kept on the node."""
    if isinstance(t, Leaf):
        return t.state
    key = t._key
    if key is None:
        outer = t.stack[0]
        key = "{" + ",".join(f"{term_key(k)}:{weight_key(outer, w)}" for k, w in t.entries) + "}"
        object.__setattr__(t, "_key", key)
    return key


def format_term(t: Term) -> str:
    """Display serialisation matching the system file syntax."""
    if isinstance(t, Leaf):
        return quote_id(t.state)
    if not t.entries:
        return "{}"
    outer = t.stack[0]
    inner = ", ".join(f"{format_term(k)}: {format_weight(outer, w)}" for k, w in t.entries)
    return "{ " + inner + " }"


def pushforward(f: Union[Mapping[str, str], Callable[[str], str]], t: Term) -> Term:
    """Apply the weight-function functor to a state map.

    Leaves are relabelled through ``f`` and colliding images are merged by
    monoid addition at every level, i.e. the image of x under f gets the
    sum of the weights of its preimages.
    """
    get = f.__getitem__ if isinstance(f, Mapping) else f
    if isinstance(t, Leaf):
        return Leaf(get(t.state))
    return node(t.stack, [(pushforward(f, k), w) for k, w in t.entries])


def quotient_term(t: Term, kappa: Mapping[str, str]) -> Term:
    """Pushforward along a partition's quotient map (leaf -> block id)."""
    return pushforward(kappa, t)


def term_equal(t: Term, t2: Term) -> bool:
    """Structural equality of canonical forms.

    Requires both terms to live over the same depth and monoid stack;
    anything else is a usage bug and raises.
    """
    d1, d2 = term_depth(t), term_depth(t2)
    if d1 != d2:
        raise ValueError(f"depth mismatch: {d1} vs {d2}")
    if d1 > 0 and t.stack != t2.stack:
        raise ValueError("monoid stack mismatch")
    return t == t2


def class_sum(t: Node, members: Iterable[Term]) -> Weight:
    """Monoid sum of the weights of entries whose key lies in ``members``."""
    wanted = set(members)
    return add_all(t.stack[0], (w for k, w in t.entries if k in wanted))


def subterms_at_depths(t: Term, lo: int = 1) -> set[Term]:
    """All node subterms of depth >= lo strictly below ``t`` itself."""
    found: set[Term] = set()

    def walk(sub: Term):
        if isinstance(sub, Node):
            if term_depth(sub) >= lo:
                found.add(sub)
            for k, _ in sub.entries:
                walk(k)

    if isinstance(t, Node):
        for k, _ in t.entries:
            walk(k)
    return found
