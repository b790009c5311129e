import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import futs
from futs.monoid import (
    BOOL_OR,
    NAT_MAX,
    NAT_PLUS,
    RAT_PLUS,
    BoolOr,
    NatMax,
    NatPlus,
    Power,
    Product,
    RatPlus,
    WeightError,
    add,
    cancellative,
    check_weight,
    format_monoid,
    format_weight,
    is_zero,
    nat_leq,
    positive,
    power_dirac,
    zero,
)

from conftest import Hashed, compose_hom, identity_hom, load_from_other_process
from reduce_oracle import hom_apply, monoid_section

PROD_NB = Product((NAT_PLUS, BOOL_OR))
POW_AB_NAT = Power(("a", "b"), NAT_PLUS)


def test_zero_examples():
    assert zero(NAT_PLUS) == 0
    assert zero(BOOL_OR) is False
    assert zero(PROD_NB) == (0, False)
    assert zero(POW_AB_NAT) == ()


def test_add_examples():
    assert add(NAT_PLUS, 2, 3) == 5
    assert add(BOOL_OR, True, True) is True
    assert add(POW_AB_NAT, (("a", 1),), (("a", 2), ("b", 1))) == (("a", 3), ("b", 1))


def test_nat_leq_examples():
    assert nat_leq(NAT_PLUS, 2, 5)
    assert not nat_leq(BOOL_OR, True, False)
    p = Product((NAT_PLUS, NAT_PLUS))
    assert not nat_leq(p, (1, 0), (0, 1))
    assert not nat_leq(p, (0, 1), (1, 0))


def test_nat_max_order_is_numeric():
    assert nat_leq(NAT_MAX, 2, 5)
    assert not nat_leq(NAT_MAX, 5, 2)


def test_section_examples():
    sec0 = monoid_section(0, PROD_NB)
    sec1 = monoid_section(1, PROD_NB)
    assert hom_apply(sec0, 2) == (2, False)
    assert hom_apply(sec1, True) == (0, True)
    assert hom_apply(sec0, 0) == (0, False)
    with pytest.raises(IndexError):
        monoid_section(2, PROD_NB)


def test_power_dirac_examples():
    assert power_dirac("a", True, ("a", "b"), BOOL_OR) == (("a", True),)
    assert power_dirac("b", 0, ("a", "b"), NAT_PLUS) == ()
    assert power_dirac("a", Fraction(1, 2), ("a", "b"), RAT_PLUS) == (("a", Fraction(1, 2)),)
    with pytest.raises(ValueError):
        power_dirac("c", 1, ("a", "b"), NAT_PLUS)


def test_power_dirac_message_names_the_sorted_label_set():
    with pytest.raises(ValueError) as err:
        power_dirac("c", 1, ("b", "a", "b"), NAT_PLUS)
    assert str(err.value) == "label 'c' not in ('a', 'b')"
    with pytest.raises(ValueError) as err:
        power_dirac("c", 1, (), NAT_PLUS)
    assert str(err.value) == "power monoid needs a non-empty label set"


def test_power_dirac_builds_no_descriptor_for_a_member(monkeypatch):
    import futs.monoid

    def no_power(*args):
        raise AssertionError("Power built")

    monkeypatch.setattr(futs.monoid, "Power", no_power)
    assert power_dirac("a", 2, ("b", "a"), NAT_PLUS) == (("a", 2),)
    assert power_dirac("b", 0, ("b", "a"), NAT_PLUS) == ()


def test_hom_apply_examples():
    assert hom_apply(identity_hom(RAT_PLUS), Fraction(1, 2)) == Fraction(1, 2)
    composed = compose_hom(monoid_section(1, PROD_NB), identity_hom(BOOL_OR))
    assert hom_apply(composed, True) == (0, True)
    with pytest.raises(WeightError):
        hom_apply(monoid_section(0, PROD_NB), True)


def test_flags():
    for m in (BOOL_OR, NAT_PLUS, NAT_MAX, RAT_PLUS, PROD_NB, POW_AB_NAT):
        assert positive(m)
    assert cancellative(NAT_PLUS)
    assert cancellative(RAT_PLUS)
    assert not cancellative(BOOL_OR)
    assert not cancellative(NAT_MAX)
    assert not cancellative(PROD_NB)
    assert cancellative(Product((NAT_PLUS, RAT_PLUS)))
    assert cancellative(POW_AB_NAT)
    assert not cancellative(Power(("a",), NAT_MAX))


def test_add_rejects_shape_mismatch():
    with pytest.raises(WeightError):
        add(NAT_PLUS, True, 3)
    with pytest.raises(WeightError):
        add(BOOL_OR, 1, 0)
    with pytest.raises(WeightError):
        add(PROD_NB, (1,), (2, False))


def test_check_weight_rejects():
    with pytest.raises(WeightError):
        check_weight(NAT_PLUS, -1)
    with pytest.raises(WeightError):
        check_weight(NAT_PLUS, True)
    with pytest.raises(WeightError):
        check_weight(BOOL_OR, 1)
    with pytest.raises(WeightError):
        check_weight(PROD_NB, (1,))
    with pytest.raises(WeightError):
        check_weight(POW_AB_NAT, (("c", 1),))


def test_power_canonical_form():
    # zero entries elided, labels sorted, duplicates rejected
    assert check_weight(POW_AB_NAT, (("b", 1), ("a", 0))) == (("b", 1),)
    with pytest.raises(WeightError):
        check_weight(POW_AB_NAT, (("a", 1), ("a", 2)))


def test_format_round():
    assert format_monoid(PROD_NB) == "prod(nat-plus, bool-or)"
    assert format_monoid(POW_AB_NAT) == "pow({a, b}, nat-plus)"
    assert format_weight(RAT_PLUS, Fraction(1, 2)) == "1/2"
    assert format_weight(RAT_PLUS, Fraction(3)) == "3"
    assert format_weight(POW_AB_NAT, (("a", 2),)) == "{ a: 2 }"
    assert format_weight(POW_AB_NAT, ()) == "{}"


# --- law suites over the whole catalog ---------------------------------------

def monoid_strategy():
    base = st.sampled_from([BOOL_OR, NAT_PLUS, NAT_MAX, RAT_PLUS])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.lists(kids, min_size=1, max_size=3).map(lambda fs: Product(tuple(fs))),
            st.tuples(st.sampled_from([("a",), ("a", "b")]), kids).map(
                lambda t: Power(t[0], t[1])),
        ),
        max_leaves=4,
    )


def weight_strategy(m):
    if m == BOOL_OR:
        return st.booleans()
    if m in (NAT_PLUS, NAT_MAX):
        return st.integers(0, 9)
    if m == RAT_PLUS:
        return st.fractions(min_value=0, max_value=5, max_denominator=6)
    if isinstance(m, Product):
        return st.tuples(*(weight_strategy(f) for f in m.factors))
    if isinstance(m, Power):
        return st.lists(
            st.tuples(st.sampled_from(m.labels), weight_strategy(m.base)),
            max_size=len(m.labels),
            unique_by=lambda p: p[0],
        ).map(lambda items: check_weight(m, tuple(items)))
    raise TypeError(m)


def monoid_with_weights(n):
    return monoid_strategy().flatmap(
        lambda m: st.tuples(st.just(m), *[weight_strategy(m) for _ in range(n)]))


@given(monoid_with_weights(3))
def test_add_associative_commutative(mw):
    m, w1, w2, w3 = mw
    assert add(m, w1, add(m, w2, w3)) == add(m, add(m, w1, w2), w3)
    assert add(m, w1, w2) == add(m, w2, w1)


@given(monoid_with_weights(1))
def test_add_unit(mw):
    m, w = mw
    assert add(m, zero(m), w) == w
    assert add(m, w, zero(m)) == w


@given(monoid_with_weights(2))
def test_zerosumfree(mw):
    m, w1, w2 = mw
    if is_zero(m, add(m, w1, w2)):
        assert is_zero(m, w1) and is_zero(m, w2)


@given(monoid_with_weights(3))
def test_cancellation_when_flagged(mw):
    m, w, w1, w2 = mw
    if cancellative(m) and add(m, w, w1) == add(m, w, w2):
        assert w1 == w2


@given(monoid_with_weights(3))
def test_nat_leq_laws(mw):
    m, w1, w2, w3 = mw
    assert nat_leq(m, w1, w1)
    assert nat_leq(m, zero(m), w1)
    assert nat_leq(m, w1, add(m, w1, w2))
    if nat_leq(m, w1, w2) and nat_leq(m, w2, w3):
        assert nat_leq(m, w1, w3)
    # monotone: the weakest order compatible with +
    if nat_leq(m, w1, w2):
        assert nat_leq(m, add(m, w1, w3), add(m, w2, w3))
    if cancellative(m) and nat_leq(m, w1, w2) and nat_leq(m, w2, w1):
        assert w1 == w2


@given(monoid_with_weights(1), st.integers(0, 5))
def test_section_projection_round_trip(mw, pick):
    m, w = mw
    p = Product((m, NAT_PLUS, m))
    idx = pick % 3
    sec = monoid_section(idx, p)
    value = w if idx != 1 else 3
    assert hom_apply(sec, value)[idx] == value
    others = [v for j, v in enumerate(hom_apply(sec, value)) if j != idx]
    assert others == [zero(f) for j, f in enumerate(p.factors) if j != idx]


@given(monoid_with_weights(2))
def test_hom_additive(mw):
    m, w1, w2 = mw
    p = Product((m, BOOL_OR))
    sec = monoid_section(0, p)
    assert hom_apply(sec, add(m, w1, w2)) == add(p, hom_apply(sec, w1), hom_apply(sec, w2))
    assert hom_apply(sec, zero(m)) == zero(p)


# --- canonical payloads and descriptors holding their zero ---------------------

def old_check_weight(m, w):
    """``check_weight`` dispatched by ``isinstance`` on the descriptor, the
    oracle for the descriptors' ``_check`` methods."""
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
        return tuple(old_check_weight(f, x) for f, x in zip(m.factors, w))
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
            items[lab] = old_check_weight(m.base, val)
        return tuple(sorted((l, v) for l, v in items.items() if not is_zero(m.base, v)))
    raise TypeError(f"unknown monoid {m!r}")


SCALARS = st.one_of(st.booleans(), st.integers(-2, 3), st.fractions(-2, 3, max_denominator=4),
                   st.sampled_from(["a", None, 1.5]))


def near_payload(m):
    """Payloads shaped after ``m`` but free to go wrong at every leaf: each
    scalar type and sign, zeros, and labels out of order, repeated or
    unknown."""
    if isinstance(m, Product):
        return st.tuples(*(near_payload(f) for f in m.factors))
    if isinstance(m, Power):
        pair = st.tuples(st.sampled_from(m.labels + ("zz",)), near_payload(m.base))
        return st.lists(pair, max_size=3).map(tuple)
    return SCALARS


ANY_PAYLOAD = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=3).map(tuple), st.lists(kids, max_size=2)), max_leaves=4)


def payload_strategy(m):
    near = near_payload(m)
    return st.one_of(near, near.map(lambda w: list(w) if isinstance(w, tuple) else w), ANY_PAYLOAD)


MONOIDS = st.one_of(st.sampled_from([BOOL_OR, NAT_PLUS, NAT_MAX, RAT_PLUS]), monoid_strategy())


def outcome(fn, m, w):
    try:
        out = fn(m, w)
    except WeightError as e:
        return "error", str(e)
    return "value", out, repr(out)


@settings(deadline=None, max_examples=300)
@given(MONOIDS.flatmap(lambda m: st.tuples(st.just(m), payload_strategy(m))))
def test_check_weight_matches_old_checks(mw):
    m, w = mw
    assert outcome(check_weight, m, w) == outcome(old_check_weight, m, w)


def structural_hash(m):
    """The hash a frozen dataclass derives from its compared fields,
    computed by walking the whole descriptor."""
    if isinstance(m, Product):
        return hash((tuple(Hashed(structural_hash(f)) for f in m.factors),))
    if isinstance(m, Power):
        return hash((m.labels, Hashed(structural_hash(m.base))))
    return hash(m)


@given(monoid_strategy())
def test_composite_hash_is_structural(m):
    rebuilt = pickle.loads(pickle.dumps(m))
    assert rebuilt == m and hash(rebuilt) == hash(m) == structural_hash(m)


def test_composite_repr_and_immutability():
    m = Product((NAT_PLUS, Power(("b", "a"), RAT_PLUS)))
    assert repr(m) == ("Product(factors=(NatPlus(), Power(labels=('a', 'b'), "
                       "base=RatPlus())))")
    for target, name in ((m, "factors"), (m, "_zero"), (m.factors[1], "labels")):
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, ())


def test_unpickled_composite_rehashed():
    """Pickled in a process with another str hash seed, a descriptor still
    hashes like one built here."""
    loaded = load_from_other_process("Product((Power(('a', 'b'), NAT_PLUS),))",
                                     "from futs.monoid import NAT_PLUS, Power, Product")
    fresh = Product((Power(("a", "b"), NAT_PLUS),))
    assert loaded == fresh and hash(loaded) == hash(fresh)
    assert zero(loaded) == ((),) and {fresh: 1}[loaded] == 1


# each first touch of a rational, in an interpreter where ``fractions`` is not loaded
FIRST_RATIONAL = ["RatPlus._zero", "RAT_PLUS._zero", "zero(RAT_PLUS)",
                  "check_weight(RAT_PLUS, 2)", "RAT_PLUS._payload(1, 2)"]


@pytest.mark.parametrize("expr", FIRST_RATIONAL)
def test_fractions_load_with_the_first_rational(expr):
    """``import futs.monoid`` loads no ``fractions``, nor does pickling
    ``RAT_PLUS``; the first rational, through the class or an instance,
    loads it and leaves ``Fraction`` as plain class attributes."""
    code = f"""
import pickle, sys
from futs.monoid import RAT_PLUS, RatPlus, check_weight, zero
assert "fractions" not in sys.modules
assert pickle.loads(pickle.dumps(RAT_PLUS)) == RAT_PLUS and not hasattr(RAT_PLUS, "factors")
assert "fractions" not in sys.modules
value = {expr}
from fractions import Fraction
assert type(value) is Fraction, repr(value)
assert vars(RatPlus)["_zero"] == 0 and type(vars(RatPlus)["_zero"]) is Fraction
assert vars(RatPlus)["_payload"] is Fraction
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(futs.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr
