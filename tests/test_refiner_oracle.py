"""Differential tests: the compiled-graph refiner in ``futs.bisim`` against
the whole-partition signature refiner kept in ``bisim_oracle``."""

import random

from hypothesis import given, settings, strategies as st

import bisim_oracle
from futs.bisim import Partition, is_bisimulation, largest_bisimulation
from futs.monoid import BOOL_OR, NAT_MAX
from futs.reduce import to_wts
from futs.system import Component, Futs, Signature
from futs.weightfn import pushforward

from conftest import (
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
    candidates = [Partition.identity(s.states), Partition.single(s.states), largest,
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
    # bisimilarity on the source is the WTS one read through the carrier map
    r = to_wts(s)
    on_wts = largest_bisimulation(r.target)
    via_wts = Partition.group_by(s.states, lambda x: on_wts.block_of(r.state_map[x]))
    assert via_wts == largest_bisimulation(s)
