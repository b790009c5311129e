import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from futs.bisim import Partition, all_partitions, is_bisimulation, largest_bisimulation
from futs.monoid import BOOL_OR, NAT_PLUS, RAT_PLUS, Power, Product
from futs.reduce import (
    EXHAUSTIVE_LIMIT,
    STAGE_FUNCS,
    Reduction,
    flatten,
    homogenize,
    nest,
    plan_wts_stages,
    sig_homogenize,
    sig_nest,
    sig_tabularize,
    sig_unlabel,
    tabularize,
    to_wts,
    unlabel,
    verify_reduction,
)
from futs.system import Component, Futs, Signature
from futs.weightfn import Leaf, node

from bisim_oracle import single
from conftest import (
    CORPUS_SIGS,
    GOLDEN,
    NESTED3,
    TWO_COMP,
    ULTRAS_RAT,
    WLTS_NAT,
    corpus_systems,
    intermediates,
    random_futs,
    term_depth,
    validate,
)
from reduce_oracle import extend_bisim, restrict_bisim


def test_unlabel_fig1_terms(fig1):
    r = unlabel(fig1)
    assert r.full and r.target.sig.is_unlabelled
    comp = r.target.sig.components[0]
    assert comp.monoids == (Power(("a", "b"), BOOL_OR), RAT_PLUS)
    t0 = r.target.transition(0, "s0", "*")
    r0 = fig1.transition(0, "s0", "a").entries[0][0]
    assert t0 == node(comp.monoids, [(r0, (("a", True),))])
    t1 = r.target.transition(0, "s1", "*")
    r1 = fig1.transition(0, "s1", "a").entries[0][0]
    r4 = fig1.transition(0, "s1", "b").entries[0][0]
    assert dict(t1.entries) == {r1: (("a", True),), r4: (("b", True),)}


def test_unlabel_zero_system():
    s = Futs(Signature((Component(("a", "b"), (NAT_PLUS,)),)), ["x"])
    r = unlabel(s)
    assert validate(r.target) == []
    assert r.target.transition(0, "x", "*").entries == ()


def test_tabularize_pads_on_the_left():
    sig = Signature((
        Component(("a",), (RAT_PLUS,)),
        Component(("b",), (BOOL_OR, RAT_PLUS)),
    ))
    rng = random.Random(3)
    s = random_futs(rng, sig, 3)
    r = tabularize(s)
    assert r.target.sig == sig_tabularize(sig)
    assert r.target.sig.components[0].monoids == (NAT_PLUS, RAT_PLUS)
    assert r.target.sig.components[1].monoids == (BOOL_OR, RAT_PLUS)
    for x in s.states:
        wrapped = r.target.transition(0, x, "a")
        assert wrapped.entries[0][1] == 1 and len(wrapped.entries) == 1
        assert wrapped.entries[0][0] == s.transition(0, x, "a")
    assert largest_bisimulation(r.target) == largest_bisimulation(s)


def test_tabularize_identity_on_tabular(fig1):
    r = tabularize(fig1)
    assert r.target.sig == fig1.sig
    assert r.target.trans == fig1.trans


def test_homogenize_fig1_decorations(fig1):
    r = homogenize(fig1)
    q = Product((BOOL_OR, RAT_PLUS))
    assert r.target.sig.components[0].monoids == (q, q)
    term = r.target.transition(0, "s0", "a")
    [(inner, w)] = term.entries
    assert w == (True, Fraction(0))
    assert all(v == (False, Fraction(1, 2)) for _, v in inner.entries)
    assert largest_bisimulation(r.target) == largest_bisimulation(fig1)


def test_homogenize_single_monoid_wraps():
    rng = random.Random(4)
    s = random_futs(rng, WLTS_NAT, 3)
    r = homogenize(s)
    assert r.target.sig.components[0].monoids == (Product((NAT_PLUS,)),)
    assert largest_bisimulation(r.target) == largest_bisimulation(s)


def test_nest_fig1_homogenized(fig1):
    h = homogenize(fig1).target
    r = nest(h)
    assert r.target.sig.components[0].labels == ("0:a", "0:b")
    for x in fig1.states:
        assert r.target.transition(0, x, "0:a") == h.transition(0, x, "a")
    assert largest_bisimulation(r.target) == largest_bisimulation(fig1)


def test_nest_two_component():
    rng = random.Random(5)
    s = random_futs(rng, TWO_COMP, 3)
    th = homogenize(tabularize(s).target).target
    r = nest(th)
    assert len(r.target.sig.components) == 1
    assert len(r.target.sig.components[0].labels) == 3  # |A0| + |A1|
    assert largest_bisimulation(r.target) == largest_bisimulation(s)


def test_nest_requires_tabular_homogeneous():
    rng = random.Random(6)
    s = random_futs(rng, TWO_COMP, 3)
    with pytest.raises(ValueError):
        nest(s)


def test_flatten_tiny_example():
    sig = Signature((Component(("u",), (NAT_PLUS, NAT_PLUS)),))
    inner = node((NAT_PLUS,), [(Leaf("x"), 3)])
    s = Futs(sig, ["x"], {(0, "x", "u"): node(sig.components[0].monoids, [(inner, 2)])})
    r = flatten(s)
    t_id = "#1:{x:3}"
    assert r.target.states == (t_id, "x")
    assert r.target.transition(0, "x", "u") == node((NAT_PLUS,), [(Leaf(t_id), 2)])
    assert r.target.transition(0, t_id, "u") == node((NAT_PLUS,), [(Leaf("x"), 3)])
    assert not r.full and list(r.term_states.values()) == [t_id]


def test_flatten_fig1_pipeline_states(fig1):
    u = unlabel(fig1).target
    h = homogenize(tabularize(u).target).target
    n = nest(h).target
    r = flatten(n)
    assert len(r.target.states) == 9
    levels = {term_depth(t) for _, t in intermediates(r)}
    assert levels == {1} and len(intermediates(r)) == 5


def test_flatten_restriction_law(fig1):
    u = unlabel(fig1).target
    n = nest(homogenize(tabularize(u).target).target).target
    r = flatten(n)
    big = largest_bisimulation(r.target)
    assert restrict_bisim(r, big) == largest_bisimulation(fig1)


def test_to_wts_fig1_golden(fig1):
    from futs.textio import write_system
    r = to_wts(fig1)
    assert len(r.target.states) == 9
    assert write_system(r.target) == GOLDEN.joinpath("fig1_wts.futs").read_text()
    assert restrict_bisim(r, largest_bisimulation(r.target)) == \
        Partition.identity(fig1.states)


def test_to_wts_wlts_keeps_carrier():
    rng = random.Random(7)
    s = random_futs(rng, WLTS_NAT, 4)
    r = to_wts(s)
    assert len(r.target.states) == len(s.states)
    assert r.full


def test_to_wts_single_zero_state():
    s = Futs(Signature((Component(("a",), (NAT_PLUS,)),)), ["x"])
    r = to_wts(s)
    assert len(r.target.states) == 1
    assert r.target.transition(0, *_only_key(r.target)).entries == ()


def _only_key(s):
    comp = s.sig.components[0]
    return s.states[0], comp.labels[0]


def test_plan_stages():
    assert plan_wts_stages(ULTRAS_RAT) == [
        "unlabel", "tabularize", "homogenize", "nest", "flatten"]
    assert plan_wts_stages(TWO_COMP) == [
        "unlabel", "tabularize", "homogenize", "nest",
        "unlabel", "homogenize", "flatten"]


def test_stage_signatures_match_outputs():
    rng = random.Random(8)
    for sig in (WLTS_NAT, ULTRAS_RAT, TWO_COMP, NESTED3):
        s = random_futs(rng, sig, 3)
        assert unlabel(s).target.sig == sig_unlabel(sig)
        assert tabularize(s).target.sig == sig_tabularize(sig)
        assert homogenize(s).target.sig == sig_homogenize(sig)
        th = homogenize(tabularize(s).target).target
        assert nest(th).target.sig == sig_nest(th.sig)


def test_to_wts_two_component_end_to_end():
    rng = random.Random(9)
    s = random_futs(rng, TWO_COMP, 4)
    r = to_wts(s)
    assert r.target.sig.is_simple and r.target.sig.is_unlabelled
    assert validate(r.target) == []
    big = largest_bisimulation(r.target)
    assert restrict_bisim(r, big) == largest_bisimulation(s)


def test_extend_bisim_examples(fig1, w3):
    r = to_wts(fig1)
    ext = extend_bisim(r, Partition.identity(fig1.states))
    assert len(ext.blocks) == 9  # all aux states stay separate here
    assert restrict_bisim(r, ext) == Partition.identity(fig1.states)

    rw = to_wts(w3)
    p = largest_bisimulation(w3)
    ext = extend_bisim(rw, p)
    assert is_bisimulation(rw.target, ext)
    assert restrict_bisim(rw, ext) == p


def test_extend_bisim_one_state():
    s = Futs(Signature((Component(("a",), (NAT_PLUS,)),)), ["x"],
             {(0, "x", "a"): node((NAT_PLUS,), [(Leaf("x"), 1)])})
    r = to_wts(s)
    ext = extend_bisim(r, single(s.states))
    assert set(ext.carrier) == set(r.target.states)


def test_extend_restrict_preconditions(fig1):
    r = to_wts(fig1)
    bad = Partition.of_blocks(fig1.states, [["s0", "s2"], ["s1"], ["s3"]])
    with pytest.raises(ValueError):
        extend_bisim(r, bad)
    bad_target = single(r.target.states)
    with pytest.raises(ValueError):
        restrict_bisim(r, bad_target)


def test_verify_reduction_fig1(fig1):
    rep = verify_reduction(to_wts(fig1))
    assert rep.relations_checked == 15
    assert rep.ok
    assert rep.render() == "15/15 relations checked, 1 bisimulations, 0 violations"


def test_verify_reduction_w3_unlabel(w3):
    rep = verify_reduction(unlabel(w3))
    assert rep.relations_checked == 15 and rep.ok


def test_verify_detects_corrupted_target(w3):
    r = unlabel(w3)
    # tamper with one weight in the target
    broken = dict(r.target.trans)
    key = (0, "x", "*")
    term = broken[key]
    (k0, _), = term.entries
    broken[key] = node(term.stack, [(k0, (("a", 1),))])
    bad = Reduction(r.kind, r.source, Futs(r.target.sig, r.target.states, broken))
    rep = verify_reduction(bad)
    assert not rep.ok and rep.violations


def old_verify_reduction(r, exhaustive=True, samples=100, seed=0):
    """``verify_reduction`` with the pair witnesses enumerated for every
    bisimulation, before the round trip: the oracle for the report."""
    from futs.reduce import Report, _extend, _pullback, _sampled_partitions
    parts = (all_partitions(r.source.states) if exhaustive
             else _sampled_partitions(r.source, samples, seed))
    report = Report(0, 0)
    for p in parts:
        report.relations_checked += 1
        if not is_bisimulation(r.source, p):
            continue
        report.bisimulations += 1
        q = _extend(r, p)
        if not is_bisimulation(r.target, q):
            report.violations.append(
                f"extension of {p.render()} is not a bisimulation on the target")
            continue
        for i, x in enumerate(r.source.states):
            for y in r.source.states[i + 1:]:
                if p.same_block(x, y) != q.same_block(x, y):
                    report.violations.append(
                        f"pair ({x}, {y}) related {p.same_block(x, y)} at the source but "
                        f"{q.same_block(x, y)} at the target "
                        f"under {p.render()}")
        back = _pullback(r, q)
        if back != p:
            report.violations.append(
                f"round trip of {p.render()} returned {back.render()}")
    return report


def merge_first_blocks(r, p):
    """A faulty extension: the partition on the target with the source's
    first two blocks merged."""
    return Partition.of_blocks(r.target.states, [sum(p.blocks[:2], ()), *p.blocks[2:]])


def test_verify_report_matches_old_loop(w3, monkeypatch):
    """An extension that merges source blocks: every partition of the
    deadlocked source and target is a bisimulation, so the pair and
    round-trip violations come out, in the old order; on w3 some merged
    extensions are not bisimulations, and that line comes out too."""
    for r in (to_wts(w3), unlabel(w3)):
        assert verify_reduction(r) == old_verify_reduction(r)
    s = Futs(Signature((Component(("a",), (NAT_PLUS,)),)), ["p", "q", "r", "t"])
    identity = Reduction("identity", s, s)
    monkeypatch.setattr("futs.reduce._extend", merge_first_blocks)
    rep = verify_reduction(identity)
    assert rep == old_verify_reduction(identity)
    assert rep.bisimulations == 15 and len(rep.violations) == 50
    assert rep.violations[:5] == [
        "pair (p, t) related False at the source but True at the target under { {p, q, r}, {t} }",
        "pair (q, t) related False at the source but True at the target under { {p, q, r}, {t} }",
        "pair (r, t) related False at the source but True at the target under { {p, q, r}, {t} }",
        "round trip of { {p, q, r}, {t} } returned { {p, q, r, t} }",
        "pair (p, r) related False at the source but True at the target under { {p, q, t}, {r} }",
    ]
    assert verify_reduction(unlabel(w3)) == old_verify_reduction(unlabel(w3))
    monkeypatch.undo()
    r = to_wts(random_futs(random.Random(3), ULTRAS_RAT, 7))
    assert (verify_reduction(r, exhaustive=False, samples=20, seed=4)
            == old_verify_reduction(r, exhaustive=False, samples=20, seed=4))


def test_verify_exhaustive_guard():
    rng = random.Random(10)
    s = random_futs(rng, WLTS_NAT, EXHAUSTIVE_LIMIT + 1)
    with pytest.raises(ValueError):
        verify_reduction(to_wts(s), exhaustive=True)
    rep = verify_reduction(to_wts(s), exhaustive=False, samples=40, seed=1)
    assert rep.ok
    # sampled mode always covers the identity and the largest bisimulation
    assert rep.bisimulations >= 1


def test_full_flags_on_corpus():
    """The carrier map is the inclusion: every stage, and ``to_wts``, keeps
    each source state under its own name, adds exactly its ``term_states``,
    and is full exactly when it adds none."""
    for s in corpus_systems():
        r = to_wts(s)
        added = [name for st in r.stages for name in st.term_states.values()]
        for st in (unlabel(s), tabularize(s), homogenize(s), *r.stages):
            names = [*st.source.states, *st.term_states.values()]
            assert sorted(st.target.states) == sorted(names)
        assert sorted(r.target.states) == sorted([*s.states, *added])
        assert r.full == (not added) and all(st.full == (not st.term_states) for st in r.stages)


def test_largest_bisimulation_transport_every_stage():
    # x ~ x' at the source iff the images are bisimilar at the target
    rng = random.Random(13)
    samples = [random_futs(rng, sig, rng.randint(2, 4))
               for sig in (WLTS_NAT, ULTRAS_RAT, TWO_COMP, NESTED3)]
    for s in samples:
        for r in _stage_reductions(s):
            assert restrict_bisim(r, largest_bisimulation(r.target)) == \
                largest_bisimulation(r.source)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CORPUS_SIGS), st.integers(1, 8), st.randoms(use_true_random=False))
def test_restrict_wts_largest_bisimulation(sig, n, rng):
    # the WTS's largest bisimulation pulled back is the source's
    s = random_futs(rng, sig, n, density=rng.choice([0.3, 0.6, 0.9]))
    r = to_wts(s)
    assert restrict_bisim(r, largest_bisimulation(r.target)) == largest_bisimulation(s)


def _stage_reductions(s):
    yield unlabel(s)
    yield tabularize(s)
    yield homogenize(s)
    yield nest(homogenize(tabularize(s).target).target)
    cur = s
    for name in plan_wts_stages(s.sig)[:-1]:
        cur = STAGE_FUNCS[name](cur).target
    yield flatten(cur)
    yield to_wts(s)


def test_composite_extends_like_stage_folding(fig1, w3):
    # composing the stage correspondences one by one is the composite's
    # correspondence; the identity reduction leaves partitions untouched
    for s in (fig1, w3):
        r = to_wts(s)
        p = largest_bisimulation(s)
        folded = p
        for stage in r.stages:
            folded = extend_bisim(stage, folded)
        assert folded == extend_bisim(r, p)
        back = folded
        for stage in reversed(r.stages):
            back = restrict_bisim(stage, back)
        assert back == restrict_bisim(r, folded) == p


def test_unlabel_verifies_componentwise():
    # coherent-family decomposition: the product reduction's verdicts agree
    # with the per-component ones on the shared carrier
    from conftest import project_component
    rng = random.Random(12)
    s = random_futs(rng, TWO_COMP, 4)
    whole = unlabel(s)
    parts = [unlabel(project_component(s, i)) for i in range(2)]
    assert verify_reduction(whole).ok and all(verify_reduction(r).ok for r in parts)
    for p in all_partitions(s.states):
        whole_bisim = is_bisimulation(whole.target, p)
        piecewise = all(is_bisimulation(r.target, p) for r in parts)
        assert whole_bisim == piecewise
