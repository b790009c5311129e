"""Differential tests: the compiled graph, ``flatten`` and ``_extend`` of
``futs.reduce`` against the second-walk versions kept in ``reduce_oracle``,
on every system that the ``to_wts`` plan passes through (sparse multi-label
ones included, whose empty slots the graph fills with zero terms), and
``unlabel``, ``tabularize`` and ``homogenize``, which build their ``Node``s
directly, against the ``node()``-built ``unlabel`` and ``tabularize`` and the
``homogenize`` on ``relabel_weights``."""

import random
import sys
from fractions import Fraction
from functools import partial

from hypothesis import given, settings, strategies as st

import reduce_oracle
from futs import reduce as rd
from futs import weightfn
from futs.bisim import all_partitions, is_bisimulation, largest_bisimulation
from futs.monoid import BOOL_OR, NAT_PLUS, RAT_PLUS
from futs.system import Component, Graph, Signature
from futs.textio import parse_system, write_system
from futs.weightfn import Node

from conftest import (
    CORPUS_SIGS,
    GOLDEN,
    NESTED3,
    TWO_COMP,
    TWO_COMP_CANC,
    assert_canonical,
    cancellative_corpus,
    corpus_systems,
    intermediates,
    load,
    random_futs,
    systems_equal,
)


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


# three labels over a flat stack beside two over a two-level one, most slots
# empty: the graph fills them with each component's zero term, in order
SPARSE_MULTI = Signature((Component(("a", "b", "c"), (NAT_PLUS,)),
                          Component(("d", "e"), (BOOL_OR, RAT_PLUS))))


@settings(deadline=None, max_examples=60)
@given(st.builds(random_futs, st.randoms(use_true_random=False), st.just(SPARSE_MULTI),
                 st.integers(1, 8), st.sampled_from([0.1, 0.3])))
def test_graph_matches_oracle_on_sparse_multi_label(s):
    check_graph(s)
    for stage in rd.to_wts(s).stages:
        check_graph(stage.target)


def check_flatten(r):
    flat = r.stages[-1]
    old = reduce_oracle.flatten(flat.source)
    assert systems_equal(flat.target, old.target)
    assert intermediates(flat) == old.intermediates and flat.full == old.full


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
    for p in partitions(s):  # the composite and each single stage, full ones included
        for stage in (r, *r.stages):
            assert rd._extend(stage, p) == reduce_oracle._extend(stage, p)


def test_matches_oracle_on_corpus():
    for s in corpus_systems():
        check_system(s)


def test_matches_oracle_where_flatten_adds_no_state():
    """``to_wts`` of a WTS: its flatten adds no state, so it is full and the
    extension keeps the partition, as across every other full stage."""
    s = parse_system((GOLDEN / "fig1_wts.futs").read_text())
    r = rd.to_wts(s)
    assert r.stages[-1].kind == "flatten" and not r.stages[-1].term_states and r.full
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


# --- unlabel and homogenize against their node()-built oracles ---------------

NODE_BUILT = {"unlabel": reduce_oracle.unlabel, "homogenize": reduce_oracle.homogenize}


def check_direct_stages(s):
    """``unlabel`` and ``homogenize`` on ``s`` and on every source the
    ``to_wts`` plan applies them to give the ``node()``-built oracle's target,
    and every stage's target, flatten's included, is canonical at every level."""
    r, applied = rd.to_wts(s), 0
    cases = [(rd.unlabel(s), s), (rd.homogenize(s), s)]
    cases += [(stage, stage.source) for stage in r.stages]
    for stage, source in cases:
        if stage.kind in NODE_BUILT:
            old = NODE_BUILT[stage.kind](source)
            assert systems_equal(stage.target, old.target)
            assert write_system(stage.target) == write_system(old.target)
            applied += 1
        assert_canonical(stage.target)
    assert applied >= 4  # both stages on s, and both in the plan


# ROADMAP item 6's case: after homogenizing, the child written second in the
# file sorts first (',' < '/' in the embedded keys, '/' < '}' as written)
EMBED_ORDER = ("futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or, rat-plus ]\nlabels A1 = { b }\n"
               "monoids M1 = [ nat-plus ]\nstates { x, y }\n"
               "trans 0 x a -> { { y: 1/2 }: tt, { y: 1 }: tt }\n")


def test_embedding_reorders_children_as_the_oracle_does():
    """``homogenize`` re-sorts the children its sections re-key, so every
    stage of ``to_wts`` and the written WTS equal the oracle pipeline's."""
    s = parse_system(EMBED_ORDER)
    r = rd.to_wts(s)
    first = next(stage for stage in r.stages if stage.kind == "homogenize")
    before = [k.entries[0][1] for k, _w in first.source.trans[(0, "x", "*")].entries]
    after = [k.entries[0][1][1] for k, _w in first.target.trans[(0, "x", "*")].entries]
    assert before == [Fraction(1, 2), 1] and after == [1, Fraction(1, 2)]
    cur = s
    for stage in r.stages:
        old = getattr(reduce_oracle, stage.kind, rd.STAGE_FUNCS[stage.kind])(cur).target
        assert systems_equal(stage.target, old) and write_system(stage.target) == write_system(old)
        assert_canonical(stage.target)
        cur = old
    check_direct_stages(s)


def test_direct_stages_match_oracle_on_corpora():
    for s in corpus_systems() + cancellative_corpus():
        check_direct_stages(s)


@settings(deadline=None, max_examples=80)
@given(st.one_of(corpus_sig_systems(), st.sampled_from([NESTED3, TWO_COMP]).flatmap(
    lambda sig: st.builds(random_futs, st.randoms(use_true_random=False), st.just(sig),
                          st.integers(1, 6), st.sampled_from([0.5, 0.9])))))
def test_direct_stages_match_oracle_on_generated(s):
    check_direct_stages(s)


# --- tabularize wraps directly; flatten's extension reads its kept names -----

def calls_from(fn, caller, run) -> int:
    """How many calls of ``fn`` ``caller`` makes itself while ``run()`` runs,
    however either module imports it."""
    count, code, caller_code = 0, fn.__code__, caller.__code__

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_code is code and frame.f_back.f_code is caller_code:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_tabularize_calls_no_node():
    """``tabularize`` builds each padded level as a ``Node`` itself and
    sends none through ``node()``; the corpus pads some rows."""
    nodes = calls = 0
    for s in corpus_systems():
        run = partial(rd.tabularize, s)
        calls += calls_from(weightfn.node, rd.tabularize, run)
        nodes += calls_from(Node.__init__, rd.tabularize, run)
    assert calls == 0 and nodes > 0


def check_tabularize(s):
    new, old = rd.tabularize(s).target, reduce_oracle.tabularize(s).target
    assert systems_equal(new, old)
    assert write_system(new) == write_system(old)
    assert_canonical(new)


@settings(deadline=None, max_examples=60)
@given(st.one_of(corpus_sig_systems(), st.sampled_from([TWO_COMP, TWO_COMP_CANC]).flatmap(
    lambda sig: st.builds(random_futs, st.randoms(use_true_random=False), st.just(sig),
                          st.integers(1, 6), st.sampled_from([0.3, 0.9])))))
def test_tabularize_matches_node_built_oracle(s):
    """On every corpus signature, the padded two-component ones included,
    and on each system that the ``to_wts`` plan tabularizes."""
    check_tabularize(s)
    for stage in rd.to_wts(s).stages:
        if stage.kind == "tabularize":
            check_tabularize(stage.source)


def test_extension_across_flatten_formats_no_term(fig1, monkeypatch):
    """``_extend`` groups the term-states flatten kept by graph node, so
    extending fig1's largest bisimulation names no term again."""
    r, p = rd.to_wts(fig1), largest_bisimulation(fig1)
    assert r.stages[-1].term_states
    calls: list = []
    for module in (rd, weightfn):
        monkeypatch.setattr(module, "format_term",
                            lambda t, compact=False, f=weightfn.format_term:
                            calls.append(t) or f(t, compact))
    q = rd._extend(r, p)
    assert calls == []
    monkeypatch.undo()
    assert q == reduce_oracle._extend(r, p)
