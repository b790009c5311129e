"""Differential tests: the compiled-graph refiner in ``futs.bisim`` against
the whole-partition signature refiner kept in ``bisim_oracle``, and the
quotient built from stored transitions against the per-slot one."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import bisim_oracle
from futs.bisim import Partition, is_bisimulation, largest_bisimulation, quotient_system
from futs.monoid import BOOL_OR, NAT_MAX, NAT_PLUS, RAT_PLUS
from futs.reduce import to_wts
from futs.system import Component, Futs, Graph, Signature
from futs.textio import write_system
from futs.weightfn import pushforward

from conftest import (
    CORPUS_SIGS,
    NESTED2_CANC,
    NESTED3,
    TWO_COMP,
    TWO_COMP_CANC,
    ULTRAS_RAT,
    WLTS_NAT,
    WLTS_PROD,
    WLTS_RAT,
    cancellative_corpus,
    corpus_systems,
    random_futs,
    systems_equal,
)

WLTS_BOOL = Signature((Component(("a", "b"), (BOOL_OR,)),))
WLTS_MAX = Signature((Component(("a", "b"), (NAT_MAX,)),))
ALL_SIGS = [WLTS_NAT, WLTS_RAT, WLTS_PROD, WLTS_BOOL, WLTS_MAX, ULTRAS_RAT, NESTED3, TWO_COMP]
NESTED_SIGS = [ULTRAS_RAT, NESTED3, TWO_COMP, TWO_COMP_CANC, NESTED2_CANC]


def with_copy(s: Futs) -> Futs:
    """Disjoint union of ``s`` with a state-renamed copy of itself, so that
    every state has at least its copy as a bisimilar partner."""
    rename = {x: f"c{x}" for x in s.states}
    trans = dict(s.trans)
    for (i, x, a), term in s.trans.items():
        trans[(i, rename[x], a)] = pushforward(rename, term)
    return Futs(s.sig, s.states + tuple(rename.values()), trans)


@st.composite
def doubled_systems(draw, sigs=ALL_SIGS):
    sig = draw(st.sampled_from(sigs))
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    return with_copy(random_futs(draw(st.randoms(use_true_random=False)), sig, n, density))


def random_partition(rng: random.Random, states) -> Partition:
    k = rng.randint(1, len(states))
    groups: dict = {}
    for x in states:
        groups.setdefault(rng.randrange(k), []).append(x)
    return Partition.of_blocks(states, groups.values())


# component 0 keeps no transition, so its zero term, which has no child, is
# its only term: the inner nat-plus stack is numbered but used by no term
UNUSED_STACK = Signature((Component(("a",), (BOOL_OR, NAT_PLUS)),
                          Component(("b",), (RAT_PLUS,))))


@settings(deadline=None, max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(1, 12), st.sampled_from([0.3, 0.6, 0.9]))
def test_largest_with_a_stack_no_term_uses(rng, n, density):
    """Kinds are numbered once from the signature, so the unused stack is a
    gap in them, and the refiner's block list leaves its id empty."""
    drawn = random_futs(rng, UNUSED_STACK, n, density)
    s = with_copy(Futs(UNUSED_STACK, drawn.states,
                       {key: t for key, t in drawn.trans.items() if key[0] == 1}))
    assert set(s.graph.kind) == {0, 1, 3}
    assert largest_bisimulation(s) == bisim_oracle.largest_bisimulation(s)


def test_largest_matches_oracle_on_corpora():
    for s in corpus_systems() + cancellative_corpus():
        assert largest_bisimulation(s) == bisim_oracle.largest_bisimulation(s)


@settings(deadline=None, max_examples=60)
@given(doubled_systems())
def test_largest_matches_oracle_on_generated(s):
    p = largest_bisimulation(s)
    assert p == bisim_oracle.largest_bisimulation(s)
    assert all(p.same_block(x, f"c{x}") for x in s.states if not x.startswith("c"))


@settings(deadline=None, max_examples=60)
@given(doubled_systems(), st.randoms(use_true_random=False))
def test_is_bisimulation_matches_oracle(s, rng):
    largest = bisim_oracle.largest_bisimulation(s)
    # a coarsening of the largest bisimulation is never one; refinements
    # of it and random partitions sometimes are
    candidates = [Partition.identity(s.states), bisim_oracle.single(s.states), largest,
                  random_partition(rng, s.states)]
    coarse = random_partition(rng, largest.block_ids())
    candidates.append(Partition.group_by(s.states, lambda x: coarse.block_of(largest.block_of(x))))
    fine = random_partition(rng, s.states)
    candidates.append(Partition.group_by(s.states, lambda x: (largest.block_of(x),
                                                             fine.block_of(x))))
    for p in candidates:
        assert is_bisimulation(s, p) == bisim_oracle.is_bisimulation(s, p)


@settings(deadline=None, max_examples=40)
@given(doubled_systems(NESTED_SIGS))
def test_reduction_coherence_through_wts(s):
    # bisimilarity on the source is the WTS one on the source's states
    on_wts = largest_bisimulation(to_wts(s).target)
    via_wts = Partition.group_by(s.states, on_wts.block_of)
    assert via_wts == largest_bisimulation(s)


@settings(deadline=None, max_examples=60)
@given(doubled_systems())
def test_kept_partition_and_an_equal_copy(s):
    """The graph keeps the refiner's answer and a second call returns it;
    an equal partition built elsewhere is still classified, as the oracle
    classifies it."""
    p = largest_bisimulation(s)
    assert s.graph.bisim is p and largest_bisimulation(s) is p
    copy = Partition.of_blocks(p.carrier, p.blocks)
    assert copy == p and copy is not p
    assert is_bisimulation(s, p)
    assert is_bisimulation(s, copy) == bisim_oracle.is_bisimulation(s, copy)


def test_kept_partition_is_not_classified_again(monkeypatch):
    """``is_bisimulation`` and ``quotient_system`` on the refiner's own
    partition call no ``Graph.signature``; on an equal copy they do."""
    calls: list = []
    signature = Graph.signature
    monkeypatch.setattr(Graph, "signature",
                        lambda g, block, v: calls.append(v) or signature(g, block, v))
    checked = 0
    for s in corpus_systems() + [with_copy(s) for s in corpus_systems()]:
        p = largest_bisimulation(s)
        calls.clear()
        assert is_bisimulation(s, p)
        assert systems_equal(quotient_system(s, p), bisim_oracle.quotient_system(s, p))
        assert calls == []
        if len(p.blocks) < len(s.states):
            assert is_bisimulation(s, Partition.of_blocks(p.carrier, p.blocks)) and calls
            checked += 1
    assert checked > 10


def check_quotient(s: Futs, p: Partition):
    """``quotient_system`` equals the per-slot oracle, down to the written
    text, or both refuse ``p`` as not a bisimulation."""
    try:
        old = bisim_oracle.quotient_system(s, p)
    except ValueError:
        with pytest.raises(ValueError):
            quotient_system(s, p)
        return
    new = quotient_system(s, p)
    assert systems_equal(new, old)
    assert write_system(new) == write_system(old)


@settings(deadline=None, max_examples=80)
@given(doubled_systems(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_quotient_matches_per_slot_oracle(s, rng):
    largest = largest_bisimulation(s)
    fine = random_partition(rng, s.states)
    for p in (largest, Partition.of_blocks(largest.carrier, largest.blocks),
              Partition.identity(s.states), random_partition(rng, s.states),
              Partition.group_by(s.states, lambda x: (largest.block_of(x), fine.block_of(x)))):
        check_quotient(s, p)


def test_quotient_matches_per_slot_oracle_on_sparse_systems():
    """Every corpus signature, two-component and three-level nested ones
    included, at label density 0.3, where most slots hold no transition."""
    rng = random.Random(23)
    for sig in CORPUS_SIGS:
        for n in (1, 3, 6, 10):
            s = with_copy(random_futs(rng, sig, n, 0.3))
            assert len(s.trans) < len(s.states) * len(Graph(s).slots)
            check_quotient(s, largest_bisimulation(s))
            check_quotient(s, Partition.identity(s.states))
