import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import futs.logic
from futs.bisim import Partition, largest_bisimulation
from futs.logic import (
    TOP,
    And,
    Diamond,
    FormulaError,
    _levels,
    _sat,
    bounded_logical_equiv,
    check_formula,
    conj,
    distinguishing_formula,
    fold,
    logical_witness,
    realizable_grid,
    sat_set,
    satisfies,
    translate,
    translate_to_wts,
    witness_formula,
)
from futs.monoid import BOOL_OR, NAT_PLUS, RAT_PLUS, power_dirac, zero
from futs.reduce import SIG_FUNCS, STAGE_FUNCS, homogenize, to_wts
from futs.system import Component, Futs, Signature
from futs.textio import parse_formula, parse_system

import logic_oracle
from bisim_oracle import single
from conftest import (
    CORPUS_SIGS,
    NESTED3,
    TWO_COMP,
    ULTRAS_RAT,
    WLTS_NAT,
    Hashed,
    load_from_other_process,
    nat_chain_text,
    random_formula,
    random_futs,
)


def d(i, a, bounds, body=TOP):
    return Diamond(i, a, tuple(bounds), body)


def test_satisfies_fig1_examples(fig1):
    b_step = d(0, "b", (True, Fraction(1, 2)))
    assert satisfies(fig1, "s1", b_step)
    assert not satisfies(fig1, "s0", b_step)
    two_level = d(0, "a", (True, Fraction(1, 2)), b_step)
    assert satisfies(fig1, "s0", two_level)
    assert not satisfies(fig1, "s2", two_level)
    zero_bounds = d(0, "a", (False, Fraction(0)))
    for x in fig1.states:
        assert satisfies(fig1, x, zero_bounds)


def test_sat_set_examples(fig1):
    assert sat_set(fig1, TOP) == frozenset(fig1.states)
    assert sat_set(fig1, d(0, "b", (True, Fraction(1, 2)))) == frozenset({"s1"})
    phi = d(0, "b", (True, Fraction(1, 2)))
    assert sat_set(fig1, And(phi, TOP)) == sat_set(fig1, phi)


def test_diamond_tests_each_term_node_once(monkeypatch):
    """k states step to one distribution: a two-level diamond compares the
    shared top term, the distribution and the zero term of t0 and t1 once
    each, where a walk of every state's term makes 2k + 2 comparisons."""
    k = 6
    ps = [f"p{j}" for j in range(k)]
    s = parse_system("futs\nlabels A0 = { a }\nmonoids M0 = [ bool-or, rat-plus ]\n"
                     f"states {{ {', '.join(ps)}, t0, t1 }}\n"
                     + "".join(f"trans 0 {p} a -> {{ {{ t0: 1/2, t1: 1/2 }}: tt }}\n" for p in ps))
    calls = []
    for m in s.sig.components[0].monoids:  # each level's order, as the diamond reads it
        monkeypatch.setattr(type(m), "_leq",
                            lambda _m, *args, leq=m._leq: calls.append(args) or leq(*args))
    assert sat_set(s, parse_formula("<a|tt, 1/2> T", s.sig)) == frozenset(ps)
    assert len(calls) == len(s.graph.term) - s.graph.n == 3


def test_diamond_looks_up_each_order_once_per_level(monkeypatch):
    """On an n-state chain a k-deep diamond chain looks monoid operations up
    (``monoid._op``) a number of times that grows with k, not with k * n."""
    def lookups(k: int, n: int) -> int:
        s, phi = parse_system(nat_chain_text(n)), TOP
        for _ in range(k):
            phi = d(0, "a", (1,), phi)
        s.graph  # compiled before counting
        calls, op = [], futs.monoid._op
        with monkeypatch.context() as patch:
            patch.setattr(futs.monoid, "_op", lambda *args: calls.append(args) or op(*args))
            assert sat_set(s, phi) == frozenset(f"c{j}" for j in range(n - k))
        return len(calls)

    assert lookups(8, 40) == lookups(8, 80) < lookups(16, 40) == lookups(16, 80)


@pytest.mark.parametrize("sig", CORPUS_SIGS)
def test_empty_carrier(sig):
    """No states means no top term nodes; every level still has its (empty)
    node set, so diamonds hold nowhere and the grid holds the zeros."""
    empty, rng = Futs(sig, []), random.Random(0)
    comp = sig.components[-1]
    zero_bounds = d(len(sig.components) - 1, comp.labels[0], [zero(m) for m in comp.monoids])
    for phi in [zero_bounds, TOP] + [random_formula(rng, sig, 3) for _ in range(5)]:
        assert sat_set(empty, phi) == frozenset()
    assert realizable_grid(empty) == {(i, j): [zero(m)] for i, c in enumerate(sig.components)
                                      for j, m in enumerate(c.monoids)}


def test_check_formula_errors(fig1):
    with pytest.raises(FormulaError):
        check_formula(d(1, "a", (True, Fraction(1, 2))), fig1.sig)
    with pytest.raises(FormulaError):
        check_formula(d(0, "c", (True, Fraction(1, 2))), fig1.sig)
    with pytest.raises(FormulaError):
        check_formula(d(0, "a", (True,)), fig1.sig)


def test_translate_unlabel_clause(fig1):
    phi = d(0, "a", (True, Fraction(1, 2)))
    out = translate("unlabel", fig1.sig, phi)
    folded = power_dirac("a", True, ("a", "b"), BOOL_OR)
    assert out == Diamond(0, "*", (folded, Fraction(1, 2)), TOP)
    assert translate("unlabel", fig1.sig, TOP) == TOP


def test_translate_tabularize_pads():
    sig = Signature((
        Component(("a",), (RAT_PLUS,)),
        Component(("b",), (BOOL_OR, RAT_PLUS)),
    ))
    phi = d(0, "a", (Fraction(1, 2),))
    out = translate("tabularize", sig, phi)
    assert out == Diamond(0, "a", (1, Fraction(1, 2)), TOP)


def test_translate_top_every_stage(fig1):
    for stage in ("unlabel", "tabularize", "homogenize"):
        assert translate(stage, fig1.sig, TOP) == TOP


def test_translate_nest_and_flatten_preconditions(fig1):
    h = homogenize(fig1).target
    q0 = h.sig.components[0].monoids[0]
    from futs.monoid import zero
    phi = d(0, "a", (zero(q0), zero(q0)))
    nested = translate("nest", h.sig, phi)
    assert isinstance(nested, Diamond) and nested.label == "0:a" and nested.component == 0
    nested_sig = SIG_FUNCS["nest"](h.sig)
    # the nested signature still has two fused labels, so flatten refuses
    with pytest.raises(ValueError):
        translate("flatten", nested_sig, nested)


def test_translate_refuses_an_unknown_stage(fig1):
    with pytest.raises(ValueError, match=r"^unknown stage 'bogus'$"):
        translate("bogus", fig1.sig, TOP)


def test_translate_flatten_chains():
    sig = Signature((Component(("u",), (NAT_PLUS, NAT_PLUS)),))
    phi = d(0, "u", (1, 2))
    out = translate("flatten", sig, phi)
    assert out == Diamond(0, "u", (1,), Diamond(0, "u", (2,), TOP))


def test_translation_semantics_per_stage():
    rng = random.Random(42)
    cases = 0
    while cases < 120:
        sig = rng.choice([WLTS_NAT, ULTRAS_RAT, TWO_COMP, NESTED3])
        s = random_futs(rng, sig, rng.randint(2, 4))
        for stage in ("unlabel", "tabularize", "homogenize"):
            r = STAGE_FUNCS[stage](s)
            phi = random_formula(rng, s.sig, rng.randint(1, 3))
            psi = translate(stage, s.sig, phi)
            for x in s.states:
                assert satisfies(s, x, phi) == satisfies(r.target, x, psi)
            cases += 1


def test_translation_semantics_composite(fig1):
    rng = random.Random(43)
    r = to_wts(fig1)
    for _ in range(40):
        phi = random_formula(rng, fig1.sig, rng.randint(1, 3))
        psi, sig2 = translate_to_wts(fig1.sig, phi)
        assert sig2 == r.target.sig
        for x in fig1.states:
            assert satisfies(fig1, x, phi) == satisfies(r.target, x, psi)


def test_translation_semantics_composite_multi_component():
    # two-component sources take the longer plan (second unlabel and
    # homogenize); the translation must follow the same stages
    rng = random.Random(45)
    for _ in range(12):
        s = random_futs(rng, TWO_COMP, rng.randint(2, 4))
        r = to_wts(s)
        for _ in range(8):
            phi = random_formula(rng, s.sig, rng.randint(1, 3))
            psi, sig2 = translate_to_wts(s.sig, phi)
            assert sig2 == r.target.sig
            for x in s.states:
                assert satisfies(s, x, phi) == satisfies(r.target, x, psi)


def test_bounded_logical_equiv_examples(fig1, w3):
    assert bounded_logical_equiv(fig1) == largest_bisimulation(fig1)
    assert bounded_logical_equiv(w3) == Partition.of_blocks(
        w3.states, [["x", "x'"], ["y", "z"]])
    assert bounded_logical_equiv(fig1, depth=0) == single(fig1.states)


def test_default_grid_contents(w3):
    grid = realizable_grid(w3)
    assert grid[(0, 0)] == [0, 1, 2]


def test_negative_depth_rejected(w3):
    for fn in (lambda: bounded_logical_equiv(w3, depth=-1),
               lambda: witness_formula(w3, "x", "y", depth=-1),
               lambda: distinguishing_formula(w3, "x", "y", depth=-1)):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            fn()
    # depth 0 runs no level, so it keeps every pair together
    assert witness_formula(w3, "x", "y", depth=0) is None
    assert distinguishing_formula(w3, "x", "y", depth=0) is None


def test_witness_functions_reject_unknown_states(fig1, w3):
    for s, fn in ((w3, witness_formula), (w3, distinguishing_formula), (w3, logical_witness),
                  (fig1, logical_witness)):
        for x, y in (("nope", s.states[0]), (s.states[0], "nope")):
            with pytest.raises(ValueError, match="unknown state 'nope'"):
                fn(s, x, y)


def test_witness_formula_stops_where_the_pair_splits(monkeypatch):
    """On a bool-or chain the first level splits c6 from c7, and the witness
    search stops there, where the oracle refines on to the end of the chain."""
    text = nat_chain_text(8).replace("nat-plus", "bool-or").replace(": 1 }", ": tt }")
    diamond, seen = futs.logic._diamond, []
    monkeypatch.setattr(futs.logic, "_diamond",
                        lambda s, f, body: seen.append(f) or diamond(s, f, body))
    phi = witness_formula(parse_system(text), "c6", "c7")
    witness_calls = len(seen)
    seen.clear()
    bounded_logical_equiv(parse_system(text))  # a fresh system, so a fresh cache
    assert 0 < witness_calls < len(seen)
    assert repr(phi) == repr(logic_oracle.witness_formula(parse_system(text), "c6", "c7"))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_level_loop_carries_each_body(sig, rng):
    """At every level the blocks partition the state ids in ``Partition``
    order, each body is the conjunction of the distinguishers (earlier
    candidates that hold at some but not all states) its block's first
    state satisfies, and no two bodies share a satisfaction set.  Every
    candidate of level L has modal depth L, so none equals an earlier
    distinguisher, and the loop keeps no set of them to skip repeats."""
    s = random_futs(rng, sig, rng.randint(1, 5))
    def modal_depth(phi):
        return fold(phi, 0, lambda f, left, right: max(left, right), lambda f, body: body + 1)

    n, distinguishers = len(s.states), []
    for level, (blocks, bodies, candidates) in enumerate(_levels(s, None), 1):
        assert sorted(v for b in blocks for v in b) == list(range(n))
        assert blocks == sorted(blocks) and all(b == sorted(b) for b in blocks)
        assert len({_sat(s, chi) for chi in bodies}) == len(bodies) == len(blocks)
        for block, chi in zip(blocks, bodies):
            assert chi == conj(f for f in distinguishers if block[0] in _sat(s, f))
            assert set(block) <= _sat(s, chi)
        assert all(modal_depth(f) == level for f in candidates)
        assert not set(candidates) & set(distinguishers)
        distinguishers += [f for f in candidates if 0 < len(_sat(s, f)) < n]
    assert candidates == []  # the last item, after the last level


def test_distinguishing_formula_depth(w3):
    """With a depth, the witness is the default one where that many levels
    of bounded_logical_equiv separate the pair, and None where they do not."""
    chain = parse_system(nat_chain_text(5))
    assert distinguishing_formula(chain, "c0", "c1", depth=3) is None
    assert distinguishing_formula(chain, "c0", "c1", depth=4) is not None
    for s in (chain, w3):
        for x in s.states:
            for y in s.states:
                for depth in range(len(s.states) + 2):
                    apart = not bounded_logical_equiv(s, depth=depth).same_block(x, y)
                    want = distinguishing_formula(s, x, y) if apart else None
                    assert distinguishing_formula(s, x, y, depth=depth) == want


def test_distinguishing_formula_examples(w3):
    phi = distinguishing_formula(w3, "x", "y")
    assert phi == Diamond(0, "a", (1,), TOP)
    assert distinguishing_formula(w3, "x", "x'") is None
    assert distinguishing_formula(w3, "y", "z") is None


def test_distinguishing_formula_really_distinguishes():
    rng = random.Random(44)
    for _ in range(20):
        s = random_futs(rng, WLTS_NAT, rng.randint(2, 5))
        big = largest_bisimulation(s)
        for i, x in enumerate(s.states):
            for y in s.states[i + 1:]:
                phi = distinguishing_formula(s, x, y)
                if big.same_block(x, y):
                    assert phi is None
                else:
                    assert satisfies(s, x, phi) != satisfies(s, y, phi)


def test_distinguishing_formula_refusals(fig1, absence_pair):
    with pytest.raises(ValueError):
        distinguishing_formula(fig1, "s0", "s2")  # not simple
    with pytest.raises(ValueError):
        distinguishing_formula(absence_pair, "p0", "q0")  # bool-or not cancellative


def test_witness_formula(fig1):
    r = to_wts(fig1)
    phi = witness_formula(r.target, "s0", "s2")
    assert phi is not None
    assert satisfies(r.target, "s0", phi) != satisfies(r.target, "s2", phi)


def test_diamond_monotonicity(w3):
    weaker = sat_set(w3, d(0, "a", (1,)))
    stronger = sat_set(w3, d(0, "a", (2,)))
    assert stronger <= weaker


def test_diamond_conjunction_distribution_as_displayed():
    """The threshold diamond is claimed to distribute over conjunction:
    [[<m>(phi & psi)]] = [[<m>phi & <m>psi]].  Asserted as stated; the
    suite records the refutation rather than weakening the claim (see the
    failure message for the counterexample)."""
    s = parse_system(
        "futs\n"
        "labels A0 = { a, b, c }\n"
        "monoids M0 = [ nat-plus ]\n"
        "states { x, y, z }\n"
        "trans 0 x a -> { y: 1, z: 1 }\n"
        "trans 0 y b -> { y: 1 }\n"
        "trans 0 z c -> { z: 1 }\n")
    phi = d(0, "b", (1,))
    psi = d(0, "c", (1,))
    lhs = sat_set(s, d(0, "a", (1,), And(phi, psi)))
    rhs = sat_set(s, And(d(0, "a", (1,), phi), d(0, "a", (1,), psi)))
    assert lhs == rhs, (
        "distribution of <m> over conjunction is refuted: state x reaches "
        "[[phi]]={y} and [[psi]]={z} each with mass 1, but [[phi & psi]] is "
        f"empty, so lhs={sorted(lhs)} while rhs={sorted(rhs)}")


# --- cached formula hashes ----------------------------------------------------


def rebuild(phi):
    """A node-by-node copy sharing no formula object with ``phi``."""
    if isinstance(phi, And):
        return And(rebuild(phi.left), rebuild(phi.right))
    if isinstance(phi, Diamond):
        return Diamond(phi.component, phi.label, phi.bounds, rebuild(phi.body))
    return type(phi)()


def structural_hash(phi):
    """The hash a frozen dataclass derives from its compared fields,
    computed by walking the whole tree."""
    if isinstance(phi, And):
        return hash((Hashed(structural_hash(phi.left)), Hashed(structural_hash(phi.right))))
    if isinstance(phi, Diamond):
        return hash((phi.component, phi.label, phi.bounds, Hashed(structural_hash(phi.body))))
    return hash(phi)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_rebuilt_formula_same_hash_and_cache_entry(sig, rng):
    phi = random_formula(rng, sig, 5)
    copy = rebuild(phi)
    assert copy == phi and hash(copy) == hash(phi) == structural_hash(phi)
    assert pickle.loads(pickle.dumps(phi)) == phi
    s = random_futs(rng, sig, 3)
    first = _sat(s, phi)
    entries = len(s.graph.sat)
    assert _sat(s, copy) is first and len(s.graph.sat) == entries


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_formula_equality_matches_repr(sig, rng):
    phi, psi = random_formula(rng, sig, 4), random_formula(rng, sig, 4)
    assert (phi == psi) == (repr(phi) == repr(psi))
    assert rebuild(phi) == phi and not rebuild(phi) != phi


def test_formula_equality_deep_and_shared():
    """5000-deep chains compare without recursion, and a conjunction
    doubled 100 times (2^100 paths) compares once per distinct pair."""
    def chain(bound):
        phi = Diamond(0, "a", (bound,), TOP)
        for _ in range(5000):
            phi = Diamond(0, "a", (1,), phi)
        return phi

    def doubled(bound):
        phi = Diamond(0, "a", (bound,), TOP)
        for _ in range(100):
            phi = And(phi, phi)
        return phi

    assert chain(1) == chain(1) and chain(1) != chain(2)
    assert doubled(1) == doubled(1) and doubled(1) != doubled(2)


def test_formula_equality_compares_fields_under_equal_hashes():
    """hash(-1) == hash(-2), so these diamonds hash alike, and only the
    comparison of their fields tells them apart."""
    f, g = Diamond(-1, "a", (), TOP), Diamond(-2, "a", (), TOP)
    assert hash(f) == hash(g) and f != g and not f == g


def test_formula_repr_and_immutability():
    phi = And(Diamond(0, "a", (1,), TOP), TOP)
    assert repr(phi) == "And(left=Diamond(component=0, label='a', bounds=(1,), body=Top()), right=Top())"
    for target, name in ((phi, "left"), (phi, "_hash"), (phi.left, "body"), (phi.left, "_hash")):
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, TOP)


def test_unpickled_formula_rehashed():
    """Pickled in a process with another str hash seed, a formula still
    hashes like one built here."""
    loaded = load_from_other_process("And(Diamond(0, 'a', (1,), TOP), TOP)",
                                     "from futs.logic import TOP, And, Diamond")
    fresh = And(Diamond(0, "a", (1,), TOP), TOP)
    assert loaded == fresh and hash(loaded) == hash(fresh)


# A chain as long as the formula is deep makes the satisfaction sets hold
# depth^2/2 states in all (about 840 MB at depth 5000), so the deeper case
# runs on a 20-state chain beside a 3-cycle, where the formula holds only
# around the cycle.
DEEP_CASES = [pytest.param(600, 620, 0, id="600"), pytest.param(5000, 20, 3, id="5000")]


@pytest.mark.parametrize("depth, chain, ring", DEEP_CASES)
def test_deep_formula_sat_set(depth, chain, ring):
    s = parse_system(nat_chain_text(chain, ring))
    phi = TOP
    for _ in range(depth):
        phi = Diamond(0, "a", (1,), phi)
    expected = [f"c{k}" for k in range(chain - depth)] + [f"r{k}" for k in range(ring)]
    assert sat_set(s, phi) == frozenset(expected)


def test_long_left_deep_conjunction_sat_set(w3):
    """The oracle's characteristic formulas are left-deep conjunctions."""
    parts = [d(0, "a", (1 + k % 2,)) for k in range(3000)]
    phi = conj(parts)
    assert isinstance(phi.left, And) and phi.right == parts[-1]
    s = Futs(w3.sig, w3.states, w3.trans)  # a fresh system, so its cache starts empty
    assert {s.states[v] for v in _sat(s, phi)} == sat_set(s, d(0, "a", (2,)))
    assert len(s.graph.sat) == 3000 - 1 + 2 + 1  # the conjunctions, two diamonds, T
