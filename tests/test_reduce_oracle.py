"""Differential tests: the compiled graph, ``flatten`` and ``_extend`` of
``futs.reduce`` against the second-walk versions kept in ``reduce_oracle``,
on every system that the ``to_wts`` plan passes through, and
``homogenize`` against the one built on ``relabel_weights``."""

import random

from hypothesis import given, settings, strategies as st

import reduce_oracle
from futs import reduce as rd
from futs.bisim import all_partitions, is_bisimulation
from futs.system import Graph
from futs.textio import write_system

from conftest import CORPUS_SIGS, corpus_systems, load, random_futs, systems_equal


@st.composite
def corpus_sig_systems(draw, max_states=8):
    sig = draw(st.sampled_from(CORPUS_SIGS))
    n = draw(st.integers(1, max_states))
    density = draw(st.sampled_from([0.3, 0.6, 0.9]))
    return random_futs(draw(st.randoms(use_true_random=False)), sig, n, density)


def check_graph(s):
    new, old = Graph(s), reduce_oracle.Graph(s)
    assert new.n == old.n and [list(e) for e in new.out] == [list(e) for e in old.out]
    # kinds agree up to renumbering: pairing them is a bijection
    pairs = set(zip(old.kind, new.kind))
    assert len(pairs) == len(set(old.kind)) == len(set(new.kind))
    assert new.preds == old.preds
    assert new.term == old.term
    terms = [t for t in new.term if t is not None]
    assert len(set(terms)) == len(terms)  # no two nodes hold equal terms


def check_flatten(r):
    flat = r.stages[-1]
    old = reduce_oracle.flatten(flat.source)
    assert systems_equal(flat.target, old.target)
    assert flat.intermediates == old.intermediates and flat.full == old.full


def partitions(s):
    if len(s.states) <= rd.EXHAUSTIVE_LIMIT:
        return [p for p in all_partitions(s.states) if is_bisimulation(s, p)]
    return list(rd._sampled_partitions(s, 5, seed=len(s.states)))


def check_system(s):
    r = rd.to_wts(s)
    for stage in r.stages:
        check_graph(stage.source)
    check_graph(r.target)
    check_flatten(r)
    for p in partitions(s):
        assert rd._extend(r, p) == reduce_oracle._extend(r, p)


def test_matches_oracle_on_corpus():
    for s in corpus_systems():
        check_system(s)


@settings(deadline=None, max_examples=60)
@given(corpus_sig_systems())
def test_matches_oracle_on_generated(s):
    check_system(s)


def check_homogenize(s):
    new, old = rd.homogenize(s).target, reduce_oracle.homogenize(s).target
    assert systems_equal(new, old)
    assert write_system(new) == write_system(old)


def test_homogenize_matches_oracle():
    """On both fixtures and random systems over every corpus signature, and
    on each system that the to_wts plan homogenizes (the second homogenize
    of a multi-component plan included)."""
    rng = random.Random(15)
    systems = [load("fig1.futs"), load("w3.futs")]
    systems += [random_futs(rng, sig, n, density) for sig in CORPUS_SIGS
                for n, density in ((1, 0.9), (3, 0.6), (5, 0.8))]
    stages = 0
    for s in systems:
        check_homogenize(s)
        for stage in rd.to_wts(s).stages:
            if stage.kind == "homogenize":
                check_homogenize(stage.source)
                stages += 1
    assert stages > len(systems)  # some plans homogenize twice
