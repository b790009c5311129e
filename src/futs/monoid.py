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

Descriptors are frozen and carry their zero, text form and flags
(``_zero``, ``_name``, ``_cancellative``) and their operations as methods
(``_canon``, ``_check``, ``_add``, ``_leq``, ``_format``).  The functions
below look the method up and raise TypeError for anything else than a
descriptor; hot loops look it up once per monoid.
"""

from __future__ import annotations

import operator
from typing import Union


class WeightError(ValueError):
    """A weight payload does not match its monoid descriptor."""


class Value:
    """An immutable value, the base of descriptors, terms, signatures,
    formulas and partitions.  ``__slots__`` names the constructor's
    arguments (``_fields``), then private caches.  The constructor sets each
    once and keeps the compared fields as the tuple ``_values``: values of
    one class are equal iff their tuples are, and hash as ``hash(_values)``.
    ``repr`` shows ``Name(field=value, ...)``, pickling calls the constructor
    (so the loader rehashes its strs), and assigning or deleting raises
    ``dataclasses.FrozenInstanceError``, imported only then."""

    __slots__ = ("_values",)

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes ({', '.join(self._fields)})")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")


class _Scalar(Value):
    """Numbers of type ``_payload`` with a nonnegative numerator (default checks: naturals)."""
    __slots__ = ()
    _sum, _leq = operator.add, operator.le
    _cancellative = True

    def _canon(self, w) -> bool:
        return type(w) is self._payload and w.numerator >= 0

    def _check(self, w):
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise WeightError(f"natural weight expected, got {w!r}")
        return w

    def _add(self, w1, w2):
        if type(w1) is bool or type(w2) is bool:
            raise WeightError(f"numeric operands expected, got {w1!r}, {w2!r}")
        return self._sum(w1, w2)

    def _format(self, w, compact=False) -> str:
        return str(w)


class BoolOr(_Scalar):
    __slots__ = ()
    _zero, _payload, _name, _cancellative = False, bool, "bool-or", False

    def _check(self, w):
        if type(w) is not bool:
            raise WeightError(f"bool-or weight expected, got {w!r}")
        return w

    def _add(self, w1, w2):
        if type(w1) is not bool or type(w2) is not bool:
            raise WeightError(f"bool-or operands expected, got {w1!r}, {w2!r}")
        return w1 or w2

    def _leq(self, w1, w2) -> bool:
        return (not w1) or w2

    def _format(self, w, compact=False) -> str:
        return "tt" if w else "ff"


class NatPlus(_Scalar):
    __slots__ = ()
    _zero, _payload, _name = 0, int, "nat-plus"


class NatMax(_Scalar):
    __slots__ = ()
    _zero, _payload, _sum, _name, _cancellative = 0, int, max, "nat-max", False


class _Fraction:
    """A ``RatPlus`` attribute whose first read (on the class or an instance) imports ``fractions``
    (3-4.5 ms, with ``decimal`` and ``numbers``), then sets ``_zero`` and ``_payload`` plainly."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        from fractions import Fraction
        cls._zero, cls._payload = Fraction(0), Fraction
        return getattr(cls, self.name)


class RatPlus(_Scalar):
    __slots__ = ()
    _zero, _payload, _name = _Fraction(), _Fraction(), "rat-plus"

    def _check(self, w):
        if type(w) is self._payload and w.numerator >= 0:  # a Fraction comparison costs more
            return w
        if isinstance(w, bool) or not isinstance(w, (int, self._payload)):
            raise WeightError(f"rational weight expected, got {w!r}")
        w = self._payload(w)
        if w < 0:
            raise WeightError(f"rational weight must be nonnegative, got {w!r}")
        return w


class Product(Value):
    __slots__ = ("factors", "_zero", "_name", "_cancellative")

    def __init__(self, factors: tuple["Monoid", ...]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product monoid needs at least one factor")
        Value.__init__(self, factors)
        object.__setattr__(self, "_zero", tuple(f._zero for f in factors))
        object.__setattr__(self, "_name", "prod(" + ", ".join(f._name for f in factors) + ")")
        object.__setattr__(self, "_cancellative", all(f._cancellative for f in factors))

    def _canon(self, w) -> bool:
        return (type(w) is tuple and len(w) == len(self.factors)
                and all([f._canon(x) for f, x in zip(self.factors, w)]))

    def _check(self, w):
        if self._canon(w):
            return w
        if not isinstance(w, tuple) or len(w) != len(self.factors):
            raise WeightError(f"{len(self.factors)}-tuple expected, got {w!r}")
        return tuple([f._check(x) for f, x in zip(self.factors, w)])

    def _add(self, w1, w2):
        if len(w1) != len(self.factors) or len(w2) != len(self.factors):
            raise WeightError(f"{len(self.factors)}-tuples expected, got {w1!r}, {w2!r}")
        return tuple([f._add(a, b) for f, a, b in zip(self.factors, w1, w2)])

    def _leq(self, w1, w2) -> bool:
        return all(f._leq(a, b) for f, a, b in zip(self.factors, w1, w2))

    def _format(self, w, compact=False) -> str:
        sep = SEPARATORS[compact][0]
        return "(" + sep.join([f._format(x, compact) for f, x in zip(self.factors, w)]) + ")"


class Power(Value):
    __slots__ = ("labels", "base", "_name", "_cancellative")
    _zero = ()

    def __init__(self, labels: tuple[str, ...], base: "Monoid"):
        labels = check_names(tuple(sorted(set(labels))), "power label")
        if not labels:
            raise ValueError("power monoid needs a non-empty label set")
        Value.__init__(self, labels, base)
        names = ", ".join(map(quote_id, labels))
        object.__setattr__(self, "_name", "pow({" + names + "}, " + base._name + ")")
        object.__setattr__(self, "_cancellative", base._cancellative)

    def _canon(self, w) -> bool:
        if type(w) is not tuple:
            return False
        prev, base = "", self.base
        for pair in w:
            if type(pair) is not tuple or len(pair) != 2:
                return False
            lab, val = pair
            if not (type(lab) is str and prev < lab and lab in self.labels
                    and base._canon(val) and val != base._zero):
                return False
            prev = lab
        return True

    def _check(self, w):
        if self._canon(w):
            return w
        if not isinstance(w, tuple):
            raise WeightError(f"power map expected, got {w!r}")
        items = {}
        for pair in w:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise WeightError(f"power map entries must be (label, weight) pairs, got {pair!r}")
            lab, val = pair
            if lab not in self.labels:
                raise WeightError(f"label {lab!r} not in power label set {self.labels}")
            if lab in items:
                raise WeightError(f"duplicate label {lab!r} in power map")
            items[lab] = self.base._check(val)
        return tuple(sorted((l, v) for l, v in items.items() if v != self.base._zero))

    def _add(self, w1, w2):
        merged, plus = dict(w1), self.base._add
        for lab, v in w2:
            merged[lab] = plus(merged[lab], v) if lab in merged else v
        return tuple(sorted((l, v) for l, v in merged.items() if v != self.base._zero))

    def _leq(self, w1, w2) -> bool:
        d1, d2 = dict(w1), dict(w2)
        z, leq = self.base._zero, self.base._leq
        return all(leq(d1.get(l, z), d2.get(l, z)) for l in set(d1) | set(d2))

    def _format(self, w, compact=False) -> str:
        if not w:
            return "{}"
        sep, colon, lb, rb = SEPARATORS[compact]
        q = QUOTES[compact]
        return lb + sep.join(f"{quote_id(l, q)}{colon}{self.base._format(v, compact)}"
                             for l, v in w) + rb


Monoid = Union[BoolOr, NatPlus, NatMax, RatPlus, Product, Power]
Weight = Union[bool, int, "fractions.Fraction", tuple]

BOOL_OR = BoolOr()
NAT_PLUS = NatPlus()
NAT_MAX = NatMax()
RAT_PLUS = RatPlus()


def _op(m: Monoid, name: str):
    try:
        return getattr(m, name)
    except AttributeError:
        raise TypeError(f"unknown monoid {m!r}") from None


def zero(m: Monoid) -> Weight:
    """The unit of the monoid (computed once per descriptor)."""
    return _op(m, "_zero")


def is_zero(m: Monoid, w: Weight) -> bool:
    return w == zero(m)


def check_weight(m: Monoid, w: Weight) -> Weight:
    """Validate and canonicalise a payload against ``m``.

    Returns the canonical form (rationals as Fraction, power maps sorted
    with zero entries dropped); raises WeightError on shape mismatch.  A
    payload that is canonical already is returned as it is, after a check
    of its exact types that builds nothing.
    """
    return _op(m, "_check")(w)


def add(m: Monoid, w1: Weight, w2: Weight) -> Weight:
    """Monoid sum of two payloads (commutative, associative, unit zero)."""
    return _op(m, "_add")(w1, w2)


def nat_leq(m: Monoid, w1: Weight, w2: Weight) -> bool:
    """The natural order: true iff some w'' has w1 + w'' = w2."""
    return _op(m, "_leq")(w1, w2)


def positive(m: Monoid) -> bool:
    """Zerosumfree flag; true for every catalog monoid."""
    return isinstance(m, (_Scalar, Product, Power))


def cancellative(m: Monoid) -> bool:
    """True when a + b = a + c forces b = c (nat-plus, rat-plus, closures)."""
    return _op(m, "_cancellative")


def power_dirac(label: str, w: Weight, labels, base: Monoid) -> Weight:
    """The element of base^labels valued ``w`` at ``label`` and zero elsewhere."""
    if label not in labels:  # the descriptor is built only to name the label set
        raise ValueError(f"label {label!r} not in {Power(tuple(labels), base).labels}")
    w = check_weight(base, w)
    if is_zero(base, w):
        return ()
    return ((label, w),)


# --- text forms ------------------------------------------------------------

def quote_id(name: str, quote: str = "`") -> str:
    """A name as the system file writes it: a plain identifier
    (``[A-Za-z_][A-Za-z0-9_]*``) bare, any other between backticks, or with
    ``quote="'"`` as the compact key does, each quote inside doubled."""
    if name.isascii() and name.isidentifier():
        return name
    return quote + name.replace(quote, quote + quote) + quote


def check_names(names: tuple[str, ...], what: str) -> tuple[str, ...]:
    """``names``, refused with ``ValueError`` if one cannot be written in a
    system file: a quoted name holds anything but a backtick, a newline or a
    carriage return (which a file read with universal newlines turns into one)."""
    for name in names:
        if "`" in name or "\n" in name or "\r" in name:
            raise ValueError(f"{what} {name!r} holds a backtick or a newline (\\n or \\r), "
                             "which a system file cannot write")
    return names


def format_monoid(m: Monoid) -> str:
    return _op(m, "_name")


# separators (item, key-value, braces) and quotes of the display and the compact text forms
SEPARATORS = ((", ", ": ", "{ ", " }"), (",", ":", "{", "}"))
QUOTES = ("`", "'")


def format_weight(m: Monoid, w: Weight, compact: bool = False) -> str:
    """Display form of a weight (the system writer and formulas), or with
    ``compact`` the canonical key that orders term entries, injective per
    monoid: no blanks, and power labels quoted by ``quote_id(l, "'")``."""
    return _op(m, "_format")(w, compact)
