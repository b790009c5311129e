"""Equivalence-relation machinery: extensions, bisimulation, refinement.

The central construction lifts an equivalence on states to behaviours:
two weight terms are related under a partition exactly when quotienting
their leaves by the partition's canonical map yields equal canonical
terms.  A partition is a bisimulation when related states have related
transition terms at every component and label.  Both the check and the
largest bisimulation run on the system compiled once to integer ids
(``Futs.graph``), in which, as in the flattened WTS, every intermediate
weight term is a node of its own, and whose one term classifier also
groups flatten's term-states when a partition is extended.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator

from .monoid import Value, quote_id
from .system import Futs
from .weightfn import quotient_term


class Partition(Value):
    __slots__ = ("carrier", "blocks", "__dict__")  # kappa is cached in __dict__

    @staticmethod
    def of_blocks(carrier: Iterable[str], blocks: Iterable[Iterable[str]]) -> "Partition":
        carrier = tuple(sorted(set(carrier)))
        canon = tuple(sorted(tuple(sorted(set(b))) for b in blocks if tuple(b)))
        seen: list[str] = [x for b in canon for x in b]
        if sorted(seen) != list(carrier) or len(seen) != len(set(seen)):
            raise ValueError("blocks must partition the carrier exactly")
        return Partition(carrier, canon)

    @staticmethod
    def identity(carrier: Iterable[str]) -> "Partition":
        carrier = tuple(sorted(set(carrier)))
        return Partition(carrier, tuple((x,) for x in carrier))

    @staticmethod
    def group_by(carrier: Iterable[str], key: Callable[[str], object]) -> "Partition":
        groups: dict[object, list[str]] = {}
        for x in carrier:
            groups.setdefault(key(x), []).append(x)
        return Partition.of_blocks(carrier, groups.values())

    @cached_property
    def kappa(self) -> dict[str, str]:
        """Quotient map: state -> block id (the block's least member)."""
        return {x: block[0] for block in self.blocks for x in block}

    def block_of(self, state: str) -> str:
        return self.kappa[state]

    def same_block(self, x: str, y: str) -> bool:
        return self.kappa[x] == self.kappa[y]

    def block_ids(self) -> tuple[str, ...]:
        return tuple(b[0] for b in self.blocks)

    def render(self) -> str:
        """The blocks as text, each name written as a system file writes it."""
        inner = ", ".join("{" + ", ".join(map(quote_id, b)) + "}" for b in self.blocks)
        return "{ " + inner + " }"


def all_partitions(carrier: Iterable[str]) -> Iterator[Partition]:
    """Enumerate every partition of the carrier (Bell-number many)."""
    return _grow_blocks(sorted(set(carrier)), 0, [])


def _grow_blocks(items: list[str], i: int, blocks: list[list[str]]) -> Iterator[Partition]:
    """The partitions of ``items`` that place ``items[i:]`` into ``blocks`` or new blocks.  A
    module function, as a closure calling itself would be a reference cycle."""
    if i == len(items):
        yield Partition.of_blocks(items, blocks)
        return
    x = items[i]
    for b in blocks:
        b.append(x)
        yield from _grow_blocks(items, i + 1, blocks)
        b.pop()
    blocks.append([x])
    yield from _grow_blocks(items, i + 1, blocks)
    blocks.pop()


def is_bisimulation(s: Futs, p: Partition) -> bool:
    """True iff states in a block have extension-related behaviours.

    Works on the compiled graph, whose classifier classes each term node
    under ``p`` on demand, so the check stops at the first block whose
    members disagree on a (component, label) slot.  ``Graph.bisim`` itself,
    the refiner's answer and so a fixpoint of this test, passes unclassified.
    """
    g = s.graph
    if p is g.bisim:
        return True
    if set(p.carrier) != set(s.states):
        raise ValueError("partition carrier does not match the system's states")
    class_of = g.classifier(p.kappa[x] for x in s.states)
    return all(len({tuple(map(class_of, g.out[g.ids[x]])) for x in members}) == 1
               for members in p.blocks if len(members) > 1)


def largest_bisimulation(s: Futs) -> Partition:
    """Coarsest bisimulation, by predecessor-driven refinement.

    Starts from all states in one block and the term nodes grouped by
    monoid stack (``Graph.kind``), in a list indexed by block id where a
    stack that no term uses is an empty block.  A block's members share a
    stored signature, and a node is re-signatured only when a child moves
    to a new block.  When a block splits, its largest piece keeps the
    block's id, so only predecessors of the other pieces are revisited.  No
    step subtracts weights, so one path serves every monoid.  The result,
    the union of all bisimulations, is kept on the graph (``Graph.bisim``).
    """
    g = s.graph
    if g.bisim is not None:
        return g.bisim
    block = list(g.kind)
    members = [set() for _ in range(max(block, default=0) + 1)]
    for v, b in enumerate(block):
        members[b].add(v)
    sig: list = [None] * len(block)
    touched = range(len(block))
    while touched:
        changed: dict = {}
        for v in touched:
            new = g.signature(block, v)
            if new != sig[v]:
                sig[v] = new
                changed.setdefault(block[v], {}).setdefault(new, []).append(v)
        touched = set()
        for b, groups in changed.items():
            pieces = list(groups.values())
            rest = len(members[b]) - sum(map(len, pieces))
            if rest == 0 and len(pieces) == 1:
                continue
            keep = max(pieces, key=len)
            if len(keep) > rest:  # the unchanged rest moves out instead
                pieces.remove(keep)
                pieces.append(members[b].difference(keep, *pieces))
            for piece in filter(None, pieces):
                nb = len(members)
                members.append(set(piece))
                members[b].difference_update(piece)
                for v in piece:
                    block[v] = nb
                    touched.update(g.preds[v])
    g.bisim = Partition.of_blocks(
        s.states, ([s.states[v] for v in members[b]] for b in set(block[:g.n])))
    return g.bisim


def quotient_system(s: Futs, p: Partition) -> Futs:
    """Quotient by a bisimulation; block ids become the new states, and
    only their stored transitions are pushed forward."""
    if not is_bisimulation(s, p):
        raise ValueError("quotient_system needs a bisimulation partition")
    return Futs(s.sig, p.block_ids(), {(i, x, a): quotient_term(t, p.kappa)
                                       for (i, x, a), t in s.trans.items() if p.kappa[x] == x})
