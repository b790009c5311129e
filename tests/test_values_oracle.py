"""The library's value classes against the frozen dataclasses they replaced
(``values_oracle``): the same repr, equality, hash, pickling and
immutability on matching instances."""

import pickle
import random
from dataclasses import FrozenInstanceError, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import values_oracle as O
from futs.bisim import Partition
from futs.monoid import Product

from conftest import CORPUS_SIGS, load_from_other_process, random_formula, random_term
from reduce_oracle import monoid_section
from test_monoid import monoid_strategy


def to_oracle(x):
    """The oracle twin of a library value, built through the oracle's own
    constructor from the library value's init fields; tuples are mapped
    item by item and plain payloads kept."""
    if isinstance(x, tuple):
        return tuple(map(to_oracle, x))
    cls = getattr(O, type(x).__name__, None)
    if not is_dataclass(cls):
        return x
    return cls(*(to_oracle(getattr(x, f.name)) for f in fields(cls) if f.init))


def _partition(rng: random.Random) -> Partition:
    carrier = ["p", "q", "r", "s"][:rng.randint(1, 4)]
    return Partition.group_by(carrier, lambda x: rng.randrange(3))


def _value(kind: str, rng: random.Random):
    """A small library value of ``kind``, drawn from the test generators."""
    sig = rng.choice(CORPUS_SIGS)
    comp = rng.choice(sig.components)
    if kind == "term":
        return random_term(rng, comp.monoids, ["p", "q"], max_entries=2)
    if kind == "formula":
        return random_formula(rng, sig, rng.randint(0, 3))
    if kind == "component":
        return comp
    if kind == "signature":
        return sig
    return _partition(rng)


KINDS = ("term", "formula", "component", "signature", "partition")

homs = st.lists(monoid_strategy(), min_size=1, max_size=3).flatmap(
    lambda fs: st.integers(0, len(fs) - 1).map(lambda i: monoid_section(i, Product(tuple(fs)))))
values = st.one_of(
    monoid_strategy(),
    homs,
    st.tuples(st.sampled_from(KINDS), st.randoms(use_true_random=False)).map(
        lambda kr: _value(*kr)),
)

# every field of every class, the private caches, the base's compared tuple
# and a name no class has: assigning or deleting any of them must fail
NAMES = sorted({f.name for cls in vars(O).values() if is_dataclass(cls) for f in fields(cls)}
               | {"_values", "kappa", "no_such_field"})


def _frozen_errors(x) -> list[str]:
    out = []
    for name in NAMES:
        for attempt in (lambda: setattr(x, name, None), lambda: delattr(x, name)):
            with pytest.raises(FrozenInstanceError) as err:
                attempt()
            out.append(str(err.value))
    return out


def _roundtrip(x):
    """The in-process pickle round trip, or the type of the error it raises."""
    try:
        return pickle.loads(pickle.dumps(x))
    except (pickle.PicklingError, AttributeError, TypeError) as e:
        return type(e)


@settings(deadline=None, max_examples=300)
@given(values, values)
def test_values_match_the_dataclasses(a, b):
    oa, ob = to_oracle(a), to_oracle(b)
    assert type(oa) is not type(a)
    pairs = [(a, b, oa, ob), (a, a, oa, oa), (b, a, ob, oa)]
    for x, ox in ((a, oa), (b, ob)):
        assert repr(x) == repr(ox)
        assert hash(x) == hash(ox)
        assert _frozen_errors(x) == _frozen_errors(ox)
        loaded, oloaded = _roundtrip(x), _roundtrip(ox)
        if isinstance(oloaded, type):  # a hom over a local function
            assert loaded is oloaded
            continue
        assert loaded == x and oloaded == ox
        assert hash(loaded) == hash(x) and repr(loaded) == repr(x)
        pairs += [(x, loaded, ox, oloaded), (loaded, b, oloaded, ob)]
    for x, y, ox, oy in pairs:
        assert (x == y) == (ox == oy) and (x != y) == (ox != oy)


@settings(deadline=None, max_examples=15)
@given(st.lists(values.filter(lambda v: type(v).__name__ != "Hom"), min_size=1, max_size=6))
def test_values_pickled_in_another_process(batch):
    """Pickled in a process with another str hash seed, library values and
    their oracle twins load equal, with the hash and repr of ones built
    here."""
    pairs = [(x, to_oracle(x)) for x in batch]
    loaded = load_from_other_process(
        f"pickle.loads(bytes.fromhex({pickle.dumps(pairs).hex()!r}))",
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})")
    for (x, ox), (lx, lox) in zip(pairs, loaded):
        assert lx == x and lox == ox
        assert hash(lx) == hash(x) == hash(lox) and repr(lx) == repr(x) == repr(lox)
