"""Finitely supported, possibly nested weight functions over state spaces.

A term of depth 0 is a state (``Leaf``); a term of depth d+1 is a ``Node``
carrying the monoid stack it is weighted over and a finite map from
depth-d terms to non-zero weights of the outermost stack monoid.  Nodes
are canonical: no zero entries, no two equal keys, entries sorted by the
text of their key, so structural equality coincides with extensional
equality of the represented functions.  That text is a leaf's state or a
node's compact key (``format_term(t, compact=True)``), injective on the
terms over one stack; a node computes it on first use and keeps it.
``node()`` checks and merges any entries, the parser (whose readers check what
they read) only merges them, by ``canonical_node``, and the stages, canonical by
construction (``unlabel``, ``tabularize``, ``homogenize``, ``flatten``), call ``Node``.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from operator import itemgetter
from typing import Callable, Union

from .monoid import QUOTES, SEPARATORS, Monoid, Value, Weight, check_weight, quote_id, zero


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
    """A canonical Node over ``stack`` of (term, weight) ``entries``, an
    iterable or mapping whose keys must be terms over ``stack[1:]`` (leaves
    when the stack has one monoid); each weight goes through ``check_weight``,
    then ``canonical_node`` merges them.  ``pushforward`` and ``zero_term``
    build terms here."""
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
    return canonical_node(stack, triples)


def canonical_node(stack: tuple[Monoid, ...], triples: list) -> Node:
    """The Node of checked ``(key text, key, weight)`` triples, the text a leaf's state
    or a node's compact key: one stable sort by that (injective) text makes equal keys
    neighbours, summed in ``stack[0]`` in input order; zero sums are dropped."""
    outer, entries, last = stack[0], [], None  # (key, weight) per distinct key, in text order
    triples.sort(key=itemgetter(0))
    for text, key, w in triples:
        if text == last:
            entries[-1] = (entries[-1][0], outer._add(entries[-1][1], w))
        else:
            entries.append((key, w))
            last = text
    z = zero(outer)
    return Node(stack, tuple([e for e in entries if e[1] != z]))


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
