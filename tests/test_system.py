import random

import pytest

from futs.bisim import largest_bisimulation, quotient_system
from futs.monoid import (
    BOOL_OR,
    NAT_PLUS,
    RAT_PLUS,
    Product,
)
from futs.system import Component, Futs, Signature
from futs.weightfn import Leaf, node, zero_term

from bisim_oracle import CarrierMap, compose_maps, identity_map, is_homomorphism
from conftest import (
    TWO_COMP,
    dirac_embed,
    identity_hom,
    project_component,
    random_futs,
    singleton,
    systems_equal,
    validate,
)
from reduce_oracle import monoid_section, relabel_weights


def test_signature_classification():
    wlts = Signature((Component(("a", "b"), (NAT_PLUS,)),))
    assert wlts.is_nested and wlts.is_combined and wlts.is_simple
    assert wlts.is_tabular and wlts.is_homogeneous and not wlts.is_unlabelled
    assert Signature((Component(("a",), (NAT_PLUS,)),)).is_unlabelled
    ultras = Signature((Component(("a", "b"), (BOOL_OR, RAT_PLUS)),))
    assert ultras.is_nested and not ultras.is_combined and not ultras.is_simple
    assert not ultras.is_homogeneous
    assert not TWO_COMP.is_tabular and not TWO_COMP.is_nested


def test_validate_ok(fig1):
    assert validate(fig1) == []


def test_validate_unknown_state(fig1):
    bad = Futs(fig1.sig, fig1.states,
               {(0, "s0", "a"): singleton(fig1.sig.components[0].monoids,
                                          node((RAT_PLUS,), [(Leaf("s9"), 1)]), True)})
    msgs = validate(bad)
    assert any("unknown state 's9'" in m for m in msgs)


def test_validate_depth_mismatch(fig1):
    bad = Futs(fig1.sig, fig1.states,
               {(0, "s0", "a"): node((RAT_PLUS,), [(Leaf("s0"), 1)])})
    msgs = validate(bad)
    assert any("depth mismatch" in m for m in msgs)


def test_validate_empty_carrier(fig1):
    assert "empty carrier" in validate(Futs(fig1.sig, []))


def test_identity_is_homomorphism(fig1):
    assert is_homomorphism(identity_map(fig1))


def test_quotient_map_is_homomorphism(fig1, w3):
    for s in (fig1, w3):
        p = largest_bisimulation(s)
        q = quotient_system(s, p)
        assert is_homomorphism(CarrierMap(s, q, dict(p.kappa)))


def test_collapsing_non_bisimilar_states_is_not_homomorphic(fig1):
    # s0 and s2 are not bisimilar, so no 3-state homomorphic image merges them
    from bisim_oracle import representative_quotient
    from futs.bisim import Partition
    p = Partition.of_blocks(fig1.states, [["s0", "s2"], ["s1"], ["s3"]])
    target = representative_quotient(fig1, p)
    assert not is_homomorphism(CarrierMap(fig1, target, dict(p.kappa)))


def test_homomorphism_composition():
    rng = random.Random(7)
    s = random_futs(rng, TWO_COMP, 4)
    p = largest_bisimulation(s)
    q = quotient_system(s, p)
    f = CarrierMap(s, q, dict(p.kappa))
    p2 = largest_bisimulation(q)
    q2 = quotient_system(q, p2)
    g = CarrierMap(q, q2, dict(p2.kappa))
    assert is_homomorphism(f) and is_homomorphism(g)
    assert is_homomorphism(compose_maps(f, g))


def test_dirac_embed_shapes():
    wlts = Signature((Component(("a",), (NAT_PLUS,)),))
    s = Futs(wlts, ["x", "y"], {(0, "x", "a"): node((NAT_PLUS,), [(Leaf("y"), 2)])})
    e = dirac_embed(s)
    assert e.sig.components[0].monoids == (BOOL_OR, NAT_PLUS)
    assert e.transition(0, "x", "a") == node(
        (BOOL_OR, NAT_PLUS), [(node((NAT_PLUS,), [(Leaf("y"), 2)]), True)])
    # the zero function embeds to the singleton containing it, not to zero
    assert e.transition(0, "y", "a") == node(
        (BOOL_OR, NAT_PLUS), [(zero_term((NAT_PLUS,)), True)])
    with pytest.raises(ValueError):
        dirac_embed(e)


def test_dirac_embed_preserves_bisimilarity(w3):
    e = dirac_embed(w3)
    assert largest_bisimulation(e) == largest_bisimulation(w3)


def test_relabel_identity_homs(fig1):
    homs = [[identity_hom(m) for m in c.monoids] for c in fig1.sig.components]
    assert systems_equal(relabel_weights(fig1, homs), fig1)


def test_relabel_sections_match_figure(fig1):
    q = Product((BOOL_OR, RAT_PLUS))
    homs = [[monoid_section(0, q), monoid_section(1, q)]]
    h = relabel_weights(fig1, homs)
    term = h.transition(0, "s0", "a")
    from fractions import Fraction
    [(inner, outer_w)] = term.entries
    assert outer_w == (True, 0)
    half = (False, Fraction(1, 2))
    assert dict(inner.entries) == {Leaf("s0"): half, Leaf("s1"): half}


def test_relabel_preserves_bisimilarity(fig1):
    q = Product((BOOL_OR, RAT_PLUS))
    homs = [[monoid_section(0, q), monoid_section(1, q)]]
    h = relabel_weights(fig1, homs)
    assert largest_bisimulation(h) == largest_bisimulation(fig1)


def test_relabel_rejects_non_injective(fig1):
    from reduce_oracle import Hom
    squash = Hom(BOOL_OR, BOOL_OR, lambda w: False, injective=False)
    homs = [[squash, identity_hom(RAT_PLUS)]]
    with pytest.raises(ValueError):
        relabel_weights(fig1, homs)


def test_project_component():
    rng = random.Random(11)
    s = random_futs(rng, TWO_COMP, 3)
    p0 = project_component(s, 0)
    assert len(p0.sig.components) == 1
    assert p0.states == s.states
    for x in s.states:
        assert p0.transition(0, x, "a") == s.transition(0, x, "a")
