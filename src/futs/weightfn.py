"""Finitely supported, possibly nested weight functions over state spaces.

A term of depth 0 is a state (``Leaf``); a term of depth d+1 is a ``Node``
carrying the monoid stack it is weighted over and a finite map from
depth-d terms to non-zero weights of the outermost stack monoid.  Nodes
are canonical: no zero entries, no two equal keys, entries sorted by the
text of their key, so structural equality coincides with extensional
equality of the represented functions.  That text is a leaf's state or a
node's compact key (``format_term(t, compact=True)``), injective on the
terms over one stack; a node computes it on first use and keeps it.
``node()`` makes any entries canonical; the reduction stages whose
entries are canonical by construction (``unlabel``, ``homogenize``,
``flatten``) call ``Node`` directly.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from operator import itemgetter
from typing import Callable, Union

from .monoid import (
    QUOTES,
    SEPARATORS,
    Monoid,
    Value,
    Weight,
    check_weight,
    quote_id,
    zero,
)


_set = object.__setattr__  # terms are built often: their constructors set each slot directly


class Leaf(Value):
    __slots__ = ("state",)

    def __init__(self, state: str):
        _set(self, "state", state)
        _set(self, "_values", (state,))


class Node(Value):
    # the compact key is computed on first use and kept: it would otherwise
    # walk the whole subtree on every sort of a parent's entries
    __slots__ = ("stack", "entries", "_key")

    def __init__(self, stack: tuple[Monoid, ...], entries: tuple[tuple["Term", Weight], ...]):
        _set(self, "stack", stack)
        _set(self, "entries", entries)
        _set(self, "_values", (stack, entries))
        _set(self, "_key", None)


Term = Union[Leaf, Node]


def node(stack, entries) -> Node:
    """Build a canonical Node over the given monoid stack.

    ``entries`` is an iterable (or mapping) of (term, weight) pairs whose
    keys must all be terms over ``stack[1:]`` (leaves when the stack has a
    single monoid); each weight goes through ``check_weight``.  One stable
    sort by key text (a leaf's state, a node's cached compact key, both
    injective) makes equal keys neighbours, summed in ``stack[0]`` in input
    order; zero sums are dropped.  No key is hashed or compared.  The
    parser, ``pushforward`` and ``tabularize`` build terms here.
    """
    stack = tuple(stack)
    if not stack:
        raise ValueError("a weight term needs a non-empty monoid stack")
    outer, rest = stack[0], stack[1:]
    check = getattr(outer, "_check", None) or partial(check_weight, outer)
    if hasattr(entries, "items"):
        entries = entries.items()
    triples = []
    for key, w in entries:
        if rest:
            if not isinstance(key, Node) or key.stack != rest:
                raise ValueError(f"child term {key!r} does not match stack {rest}")
        elif not isinstance(key, Leaf):
            raise ValueError(f"expected a state leaf at depth 1, got {key!r}")
        w = check(w)
        triples.append((key._key or format_term(key, True) if rest else key.state, key, w))
    triples.sort(key=itemgetter(0))
    merged: list = []  # [text, key, weight] per distinct key, in text order
    for text, key, w in triples:
        if merged and merged[-1][0] == text:
            merged[-1][2] = outer._add(merged[-1][2], w)
        else:
            merged.append([text, key, w])
    z = zero(outer)
    return Node(stack, tuple([(k, w) for _text, k, w in merged if w != z]))


def zero_term(stack) -> Node:
    return node(stack, ())


def format_term(t: Term, compact: bool = False) -> str:
    """Display form of a term in the system file syntax, or with
    ``compact`` the canonical key that orders entries and names flatten's
    states, injective per stack: no blanks, names quoted by ``quote_id(name,
    "'")``.  A node computes its key on first use and keeps it."""
    if isinstance(t, Leaf):
        return quote_id(t.state, QUOTES[compact])
    if compact and t._key is not None:
        return t._key
    sep, colon, lb, rb = SEPARATORS[compact]
    fmt = t.stack[0]._format
    text = lb + sep.join([f"{format_term(k, compact)}{colon}{fmt(w, compact)}"
                          for k, w in t.entries]) + rb if t.entries else "{}"
    if compact:
        _set(t, "_key", text)
    return text


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
