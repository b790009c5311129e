"""The frozen ``@dataclass`` definitions that ``futs.monoid.Value``
replaced, kept as its differential oracle.

The class bodies are the library's as they stood before the change, with
``dataclasses`` generating ``__init__``, ``__eq__``, ``__hash__``,
``__repr__`` and the frozen ``__setattr__``/``__delattr__``.  The classes
refer only to each other, so an instance built here never mixes with a
library value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Union

Weight = Union[bool, int, Fraction, tuple]


# --- futs.monoid -------------------------------------------------------------

@dataclass(frozen=True)
class BoolOr:
    _zero = False
    _payload = bool


@dataclass(frozen=True)
class NatPlus:
    _zero = 0
    _payload = int


@dataclass(frozen=True)
class NatMax:
    _zero = 0
    _payload = int


@dataclass(frozen=True)
class RatPlus:
    _zero = Fraction(0)
    _payload = Fraction


@dataclass(frozen=True)
class Product:
    factors: tuple["Monoid", ...]
    _zero: tuple = field(init=False, compare=False, repr=False)
    _payload = tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("product monoid needs at least one factor")
        object.__setattr__(self, "_zero", tuple(f._zero for f in self.factors))


@dataclass(frozen=True)
class Power:
    labels: tuple[str, ...]
    base: "Monoid"
    _zero = ()
    _payload = tuple

    def __post_init__(self):
        labels = tuple(sorted(set(self.labels)))
        if not labels:
            raise ValueError("power monoid needs a non-empty label set")
        object.__setattr__(self, "labels", labels)


Monoid = Union[BoolOr, NatPlus, NatMax, RatPlus, Product, Power]


@dataclass(frozen=True)
class Hom:
    """A monoid homomorphism with explicit source/target descriptors.

    Only injective homomorphisms are constructed by this module (identity,
    product sections, dirac embeddings and their compositions); weight
    relabelling of systems relies on that to preserve bisimilarity.
    """

    source: Monoid
    target: Monoid
    fn: Callable[[Weight], Weight] = field(compare=False)
    injective: bool = True
    name: str = ""

    def __call__(self, w: Weight) -> Weight:
        return self.fn(w)


# --- futs.weightfn -----------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    state: str


@dataclass(frozen=True)
class Node:
    stack: tuple[Monoid, ...]
    entries: tuple[tuple["Term", Weight], ...]
    # the dataclass's hash and the canonical compact key, each computed on
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


# --- futs.system -------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    labels: tuple[str, ...]
    monoids: tuple[Monoid, ...]

    def __post_init__(self):
        labels = tuple(sorted(set(self.labels)))
        if not labels:
            raise ValueError("component needs a non-empty label set")
        monoids = tuple(self.monoids)
        if not monoids:
            raise ValueError("component needs a non-empty monoid stack")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "monoids", monoids)

    @property
    def depth(self) -> int:
        return len(self.monoids)


@dataclass(frozen=True)
class Signature:
    components: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("signature needs at least one component")

    @property
    def is_nested(self) -> bool:
        return len(self.components) == 1

    @property
    def is_combined(self) -> bool:
        return all(c.depth == 1 for c in self.components)

    @property
    def is_simple(self) -> bool:
        return self.is_nested and self.is_combined

    @property
    def is_tabular(self) -> bool:
        return len({c.depth for c in self.components}) == 1

    @property
    def is_homogeneous(self) -> bool:
        return len({m for c in self.components for m in c.monoids}) == 1

    @property
    def is_unlabelled(self) -> bool:
        return all(len(c.labels) == 1 for c in self.components)


# --- futs.logic --------------------------------------------------------------

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

    __hash__, __eq__, __reduce__ = And.__hash__, And.__eq__, And.__reduce__


Formula = Union[Top, And, Diamond]


# --- futs.bisim --------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    carrier: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]

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
    def single(carrier: Iterable[str]) -> "Partition":
        carrier = tuple(sorted(set(carrier)))
        return Partition(carrier, (carrier,) if carrier else ())

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

    def refine_by(self, key: Callable[[str], object]) -> "Partition":
        new_blocks = []
        for block in self.blocks:
            groups: dict[object, list[str]] = {}
            for x in block:
                groups.setdefault(key(x), []).append(x)
            new_blocks.extend(groups.values())
        return Partition.of_blocks(self.carrier, new_blocks)

    def render(self) -> str:
        inner = ", ".join("{" + ", ".join(b) + "}" for b in self.blocks)
        return "{ " + inner + " }"

