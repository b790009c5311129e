"""Closed catalog of abelian monoids with exact arithmetic.

Five kinds are supported: booleans under disjunction, naturals under
addition, naturals under max, nonnegative rationals under addition, and
finite products / label-indexed powers of those.  Every catalog monoid is
positive (zerosumfree), so it carries the natural order ``m <= m'  iff
there is m'' with m + m'' = m'``, which is what the logic layer uses for
its weight lower bounds.

Weights are plain immutable Python values whose shape is driven by the
monoid descriptor:

==============  =======================================================
descriptor      payload
==============  =======================================================
BoolOr          bool
NatPlus         int >= 0
NatMax          int >= 0
RatPlus         fractions.Fraction >= 0 (ints accepted, normalised)
Product         tuple of payloads, one per factor
Power           tuple of (label, payload) pairs, sorted, zeros elided
==============  =======================================================

Descriptors are frozen and hold their zero, which ``zero`` returns
without building it again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union


class WeightError(ValueError):
    """A weight payload does not match its monoid descriptor."""


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
Weight = Union[bool, int, Fraction, tuple]

BOOL_OR = BoolOr()
NAT_PLUS = NatPlus()
NAT_MAX = NatMax()
RAT_PLUS = RatPlus()


def zero(m: Monoid) -> Weight:
    """The unit of the monoid (computed once per descriptor)."""
    try:
        return m._zero
    except AttributeError:
        raise TypeError(f"unknown monoid {m!r}") from None


def is_zero(m: Monoid, w: Weight) -> bool:
    return w == zero(m)


def _canonical(m: Monoid, w: Weight) -> bool:
    """True when ``w`` already is the canonical payload ``check_weight`` returns."""
    kind = type(w)
    if kind is not getattr(m, "_payload", None):
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


def positive(m: Monoid) -> bool:
    """Zerosumfree flag; true for every catalog monoid."""
    if isinstance(m, Product):
        return all(positive(f) for f in m.factors)
    if isinstance(m, Power):
        return positive(m.base)
    return isinstance(m, (BoolOr, NatPlus, NatMax, RatPlus))


def cancellative(m: Monoid) -> bool:
    """True when a + b = a + c forces b = c (nat-plus, rat-plus, closures)."""
    if isinstance(m, (NatPlus, RatPlus)):
        return True
    if isinstance(m, (BoolOr, NatMax)):
        return False
    if isinstance(m, Product):
        return all(cancellative(f) for f in m.factors)
    if isinstance(m, Power):
        return cancellative(m.base)
    raise TypeError(f"unknown monoid {m!r}")


# --- homomorphisms ---------------------------------------------------------

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


def hom_apply(h: Hom, w: Weight) -> Weight:
    """Apply ``h`` to a payload of its source monoid."""
    w = check_weight(h.source, w)
    return check_weight(h.target, h.fn(w))


def identity_hom(m: Monoid) -> Hom:
    return Hom(m, m, lambda w: w, injective=True, name="id")


def compose_hom(outer: Hom, inner: Hom) -> Hom:
    if inner.target != outer.source:
        raise ValueError("homomorphism composition type mismatch")
    return Hom(
        inner.source,
        outer.target,
        lambda w: outer.fn(inner.fn(w)),
        injective=outer.injective and inner.injective,
        name=f"{outer.name}.{inner.name}",
    )


def monoid_section(index: int, p: Product) -> Hom:
    """Section of the ``index``-th projection of a product monoid.

    Sends m to the tuple that is m at ``index`` and the unit elsewhere.
    """
    if not isinstance(p, Product):
        raise TypeError("monoid_section needs a product monoid")
    if not 0 <= index < len(p.factors):
        raise IndexError(f"product index {index} out of range")
    zeros = tuple(zero(f) for f in p.factors)

    def fn(w, _i=index, _z=zeros):
        return _z[:_i] + (w,) + _z[_i + 1:]

    return Hom(p.factors[index], p, fn, injective=True, name=f"sec{index}")


def power_dirac(label: str, w: Weight, labels, base: Monoid) -> Weight:
    """The element of base^labels valued ``w`` at ``label`` and zero elsewhere."""
    power = Power(tuple(labels), base)
    if label not in power.labels:
        raise ValueError(f"label {label!r} not in {power.labels}")
    w = check_weight(base, w)
    if is_zero(base, w):
        return ()
    return ((label, w),)


# --- text forms ------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def quote_id(name: str) -> str:
    """Backtick-quote an identifier when it is not plain."""
    return name if _IDENT_RE.match(name) else f"`{name}`"


def format_monoid(m: Monoid) -> str:
    if isinstance(m, BoolOr):
        return "bool-or"
    if isinstance(m, NatPlus):
        return "nat-plus"
    if isinstance(m, NatMax):
        return "nat-max"
    if isinstance(m, RatPlus):
        return "rat-plus"
    if isinstance(m, Product):
        return "prod(" + ", ".join(format_monoid(f) for f in m.factors) + ")"
    if isinstance(m, Power):
        labels = ", ".join(quote_id(l) for l in m.labels)
        return "pow({" + labels + "}, " + format_monoid(m.base) + ")"
    raise TypeError(f"unknown monoid {m!r}")


def format_weight(m: Monoid, w: Weight) -> str:
    """Display form of a weight (used by the system writer and formulas)."""
    if isinstance(m, BoolOr):
        return "tt" if w else "ff"
    if isinstance(m, (NatPlus, NatMax)):
        return str(w)
    if isinstance(m, RatPlus):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    if isinstance(m, Product):
        return "(" + ", ".join(format_weight(f, x) for f, x in zip(m.factors, w)) + ")"
    if isinstance(m, Power):
        if not w:
            return "{}"
        return "{ " + ", ".join(f"{quote_id(l)}: {format_weight(m.base, v)}" for l, v in w) + " }"
    raise TypeError(f"unknown monoid {m!r}")


def weight_key(m: Monoid, w: Weight) -> str:
    """Compact canonical serialisation used for deterministic ordering."""
    if isinstance(m, BoolOr):
        return "tt" if w else "ff"
    if isinstance(m, (NatPlus, NatMax)):
        return str(w)
    if isinstance(m, RatPlus):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    if isinstance(m, Product):
        return "(" + ",".join(weight_key(f, x) for f, x in zip(m.factors, w)) + ")"
    if isinstance(m, Power):
        return "{" + ",".join(f"{l}:{weight_key(m.base, v)}" for l, v in w) + "}"
    raise TypeError(f"unknown monoid {m!r}")
