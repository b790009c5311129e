"""The one formula fold, the one oracle level loop and its bound grid
against the recursive formula functions, the two level loops and the
``combinations`` grid they replace (``logic_oracle``), and the CLI's
``equiv --logic`` against the oracle's verdict followed by its witness;
``logical_witness`` also against the route through ``to_wts`` it replaced.

Both sides build formulas from the same classes, so the formula passes'
results compare with ``==``; witnesses compare by ``repr``, which shows
both whole formulas when they differ."""

import contextlib
import io
import itertools
import os
import pickle
import random
import tempfile

import pytest
from hypothesis import assume, given, settings, strategies as st

from futs.logic import (
    TOP,
    And,
    Diamond,
    _levels,
    _sat,
    bounded_logical_equiv,
    check_formula,
    distinguishing_formula,
    logical_witness,
    realizable_grid,
    sat_set,
    translate,
    translate_to_wts,
    witness_formula,
)
from futs.cli import main
from futs.monoid import BOOL_OR, NAT_MAX
from futs.reduce import SIG_FUNCS, plan_wts_stages, to_wts
from futs.system import Component, Futs, Signature
from futs.textio import ParseError, parse_formula, parse_system, write_formula, write_system
from futs.weightfn import Leaf, node

import logic_oracle as oracle
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
    random_formula,
    random_futs,
    random_weight,
)

STAGES = ("unlabel", "tabularize", "homogenize", "nest", "flatten")
# NESTED3's three-level bound grid makes every oracle run take about a second
ORACLE_SIGS = [sig for sig in CORPUS_SIGS if sig is not NESTED3]
REDUCED_SIGS = [ULTRAS_RAT, TWO_COMP, TWO_COMP_CANC, NESTED2_CANC]
# one component, one level: cancellative, then not
SIMPLE_SIGS = [WLTS_NAT, WLTS_RAT, WLTS_PROD,
               Signature((Component(("a", "b"), (BOOL_OR,)),)),
               Signature((Component(("a",), (NAT_MAX,)),))]
TEXT_ALPHABET = "<>()&|,:{}/ T01tfab"


def outcome(fn, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return "value", fn(*args)
    except (ValueError, ParseError) as e:  # FormulaError and WeightError are ValueErrors
        return type(e).__name__, str(e)


def random_diamond(rng: random.Random, sig, body):
    i = rng.randrange(len(sig.components))
    comp = sig.components[i]
    return Diamond(i, rng.choice(comp.labels),
                   tuple(random_weight(rng, m) for m in comp.monoids), body)


def shared_formula(rng: random.Random, sig, steps: int):
    """A formula DAG: each step puts a conjunction or a diamond over
    earlier pieces on a pool, so one piece can have several parents."""
    pool = [random_formula(rng, sig, 2) for _ in range(3)]
    for _ in range(steps):
        if rng.random() < 0.4:
            pool.append(And(rng.choice(pool), rng.choice(pool)))
        else:
            pool.append(random_diamond(rng, sig, rng.choice(pool)))
    return pool[-1]


def one_fault(rng: random.Random, sig, phi):
    """``phi`` with one invalid diamond placed beside or below it."""
    comp = sig.components[0]
    bounds = tuple(random_weight(rng, m) for m in comp.monoids)
    bad = rng.choice([
        Diamond(len(sig.components), comp.labels[0], bounds, phi),
        Diamond(0, "zz", bounds, phi),
        Diamond(0, comp.labels[0], bounds + bounds[:1], phi),
        Diamond(0, comp.labels[0], bounds, "not a formula"),
    ])
    return rng.choice([And(phi, bad), And(bad, phi), random_diamond(rng, sig, bad)])


def mutate(rng: random.Random, text: str) -> str:
    """Delete, insert or duplicate a few characters, or add parentheses."""
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        text = rng.choice([
            text[:i] + text[i + 1:],
            text[:i] + rng.choice(TEXT_ALPHABET) + text[i:],
            text[:j] + text[i:j] + text[j:],
            text[:i] + "(" + text[i:j] + ")" + text[j:],
        ])
    return text


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_formula_passes_match_oracle(sig, rng):
    phi = shared_formula(rng, sig, rng.randint(0, 8))
    checked = check_formula(phi, sig)
    assert checked == oracle.check_formula(phi, sig)
    faulty = one_fault(rng, sig, phi)
    assert outcome(check_formula, faulty, sig) == outcome(oracle.check_formula, faulty, sig)

    s = random_futs(rng, sig, rng.randint(1, 4))
    assert sat_set(s, phi) == oracle.sat_set(s, phi)
    old = oracle.Evaluator(s)
    assert {s.states[v] for v in _sat(s, checked)} == old.sat(checked)
    assert len(s.graph.sat) == len(old._cache)

    assert write_formula(phi, sig) == oracle.write_formula(phi, sig)
    for stage in STAGES:
        assert outcome(translate, stage, sig, phi) == outcome(oracle.translate, stage, sig, phi)
    assert translate_to_wts(sig, phi) == oracle.translate_to_wts(sig, phi)
    # along the to_wts plan, so that nest and flatten get signatures they accept
    cur = sig
    for stage in plan_wts_stages(sig):
        psi = translate(stage, cur, phi)
        assert psi == oracle.translate(stage, cur, phi)
        phi, cur = psi, SIG_FUNCS[stage](cur)
        assert write_formula(phi, cur) == oracle.write_formula(phi, cur)


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_one_cache_per_system_matches_oracle(sig, rng):
    """Formulas checked on one system in random order, some of them equal to
    another but built apart: each set is the oracle's, and the system keeps
    one cache entry per distinct subformula, as one oracle evaluator does."""
    s = random_futs(rng, sig, rng.randint(1, 4))
    pool = [shared_formula(rng, sig, rng.randint(0, 6)) for _ in range(6)]
    queries = pool + [pickle.loads(pickle.dumps(rng.choice(pool))) for _ in range(4)]
    rng.shuffle(queries)
    old = oracle.Evaluator(s)
    for phi in queries:
        assert sat_set(s, phi) == oracle.sat_set(s, phi)
        old.sat(oracle.check_formula(phi, sig))
    assert len(s.graph.sat) == len(old._cache)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_parse_formula_matches_oracle(sig, rng):
    text = write_formula(shared_formula(rng, sig, rng.randint(0, 6)), sig)
    for t in [text, f"({text})"] + [mutate(rng, text) for _ in range(6)]:
        assert outcome(parse_formula, t, sig) == outcome(oracle.parse_formula, t, sig)


def assert_oracle_agrees(s):
    # first, while the system's cache holds only what the level loop evaluates
    for _item in _levels(s, None):
        pass
    _, _, old_ev = oracle._oracle(s, None, None)
    assert len(s.graph.sat) == len(old_ev._cache)
    for depth in (None, 1, 2):
        assert bounded_logical_equiv(s, depth=depth) == oracle.bounded_logical_equiv(s, depth=depth)
    for x in s.states:
        for y in s.states:
            # where the oracle finds a formula, the library's is the witness search's
            new, old = outcome(distinguishing_formula, s, x, y), \
                outcome(oracle.distinguishing_formula, s, x, y)
            if old[0] == "value" and old[1] is not None:
                old = "value", oracle.witness_formula(s, x, y)
            assert repr(new) == repr(old)
            assert repr(witness_formula(s, x, y)) == repr(oracle.witness_formula(s, x, y))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(ORACLE_SIGS), st.randoms(use_true_random=False))
def test_level_loop_matches_oracle(sig, rng):
    assert_oracle_agrees(random_futs(rng, sig, rng.randint(1, 5)))


@settings(deadline=None, max_examples=15)
@given(st.sampled_from(REDUCED_SIGS), st.randoms(use_true_random=False))
def test_level_loop_matches_oracle_on_reduced_systems(sig, rng):
    """The CLI asks for witnesses on the weighted systems that to_wts builds;
    every pair runs the whole loop, so the systems are kept small."""
    target = to_wts(random_futs(rng, sig, 2)).target
    assume(len(target.states) <= 6)
    assert_oracle_agrees(target)


def pooled_term(rng: random.Random, stack, states):
    """A term whose weights at each level come from a pool of two, so that
    weights repeat and many subsets of its entries share a sum."""
    if not stack:
        return Leaf(rng.choice(states))
    pool = [random_weight(rng, stack[0], nonzero=True) for _ in range(2)]
    return node(stack, [(pooled_term(rng, stack[1:], states), rng.choice(pool))
                        for _ in range(rng.randint(0, 6))])


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_realizable_grid_matches_oracle(sig, rng):
    s = random_futs(rng, sig, rng.randint(1, 4))
    trans = dict(s.trans)
    for i, comp in enumerate(sig.components):
        for x in s.states:
            if rng.random() < 0.5:
                trans[(i, x, rng.choice(comp.labels))] = pooled_term(rng, comp.monoids, s.states)
    s = Futs(sig, s.states, trans)
    assert repr(realizable_grid(s)) == repr(oracle.realizable_grid(s))


def shared_term_system(rng: random.Random, sig, n_states: int):
    """A system whose terms at each level of a component are drawn from a
    pool of three, built bottom-up from the pool below, so that subterms
    repeat across states, slots and parents."""
    states = [f"q{k}" for k in range(n_states)]
    trans = {}
    for i, comp in enumerate(sig.components):
        pool = [Leaf(x) for x in states]
        for j in reversed(range(comp.depth)):
            stack = comp.monoids[j:]
            pool = [node(stack, [(rng.choice(pool), random_weight(rng, stack[0], nonzero=True))
                                 for _ in range(rng.randint(0, 3))]) for _ in range(3)]
        for x in states:
            for a in comp.labels:
                if rng.random() < 0.8:
                    trans[(i, x, a)] = rng.choice(pool)
    return Futs(sig, states, trans)


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_shared_subterms_match_oracle(sig, rng):
    """The evaluator tests each distinct term node of the graph once; the
    recursive one walks every occurrence.  Diamond bounds come from the
    grid, so that they hit the class sums exactly."""
    s = shared_term_system(rng, sig, rng.randint(1, 4))
    grid = oracle.realizable_grid(s)
    pool = [TOP]
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            pool.append(And(rng.choice(pool), rng.choice(pool)))
        else:
            i = rng.randrange(len(sig.components))
            comp = sig.components[i]
            bounds = tuple(rng.choice(grid[(i, j)]) for j in range(comp.depth))
            pool.append(Diamond(i, rng.choice(comp.labels), bounds, rng.choice(pool)))
    phi = pool[-1]
    assert sat_set(s, phi) == oracle.sat_set(s, phi)
    old = oracle.Evaluator(s)
    assert [{s.states[v] for v in _sat(s, f)} for f in pool] == [old.sat(f) for f in pool]
    assert repr(realizable_grid(s)) == repr(grid)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def oracle_route(s, x: str, y: str, depth):
    """`equiv --logic` on a simple system as answered by asking the oracle
    for the verdict, then for a witness at the default depth."""
    if oracle.bounded_logical_equiv(s, depth=depth).same_block(x, y):
        return 0, f"{x} and {y} are logically equivalent\n"
    phi = oracle.witness_formula(s, x, y)
    line = f"distinguishing formula: {oracle.write_formula(phi, s.sig)}"
    return 1, f"{x} and {y} are distinguished\n{line}\n"


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(SIMPLE_SIGS), st.randoms(use_true_random=False))
def test_cli_logic_route_matches_oracle(sig, rng):
    """The CLI asks the witness search alone for a simple system's verdict;
    soundness makes its output that of the oracle's verdict and witness."""
    text = write_system(random_futs(rng, sig, rng.randint(1, 4)))
    s = parse_system(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.futs")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for x in s.states:
            for y in s.states:
                for depth in (None, 0, 1, 2):
                    extra = [] if depth is None else ["--depth", str(depth)]
                    got = run_cli(["equiv", path, x, y, "--logic"] + extra)
                    assert got == oracle_route(s, x, y, depth), (x, y, depth)


CORPUS_IDS = ["wlts-nat", "wlts-rat", "wlts-prod", "ultras-rat", "nested3", "two-comp",
              "two-comp-canc", "nested2-canc"]


@pytest.mark.parametrize("sig", CORPUS_SIGS, ids=CORPUS_IDS)
@settings(deadline=None, max_examples=25)
@given(rng=st.randoms(use_true_random=False))
def test_logical_witness_matches_the_wts_route(sig, rng):
    """One search in the system's own logic gives the verdict of the route
    it replaced, ``bounded_logical_equiv`` followed by a witness search on
    ``to_wts``'s target, at depth None and 1; on a simple system the
    witness is that route's, and on any other it holds at exactly one
    state of the pair."""
    s = random_futs(rng, sig, rng.randint(1, 4))
    for x, y in itertools.product(s.states, repeat=2):
        for depth in (None, 1):
            phi = logical_witness(s, x, y, depth)
            old, over = oracle.logical_witness_via_wts(s, x, y, depth)
            assert (phi is None) == (old is None and over is s), (x, y, depth)
            if s.sig.is_simple:
                assert repr(phi) == repr(old), (x, y, depth)
            elif phi is not None:
                assert len(sat_set(s, phi) & {x, y}) == 1, (x, y, depth)


STACKED_CHAIN = """futs
labels A0 = { a }
monoids M0 = [ bool-or, rat-plus ]
states { c0, c1, c2 }
trans 0 c0 a -> { { c1: 1 }: tt }
trans 0 c1 a -> { { c2: 1 }: tt }
"""


def test_logical_witness_keeps_the_depth_on_a_stacked_system():
    """c0 and c1 both step once, and only the second level sees c1's
    successor deadlock: ``--depth 1`` keeps them together on both routes,
    and more levels split them with the system's own formula."""
    s = parse_system(STACKED_CHAIN)
    for depth, want in ((1, None), (2, "<tt, 1> <tt, 1> T"), (None, "<tt, 1> <tt, 1> T")):
        phi = logical_witness(s, "c0", "c1", depth)
        assert (phi and write_formula(phi, s.sig)) == want, depth
        old, over = oracle.logical_witness_via_wts(s, "c0", "c1", depth)
        assert (old is None and over is s) == (want is None), depth


SHRINK = """futs
labels A0 = { a, b, c }
monoids M0 = [ bool-or ]
states { x, y, p, q, r, u }
trans 0 x a -> { p: tt }
trans 0 y a -> { q: tt, r: tt }
trans 0 p b -> { u: tt }
trans 0 p c -> { u: tt }
trans 0 q b -> { u: tt }
trans 0 r c -> { u: tt }
"""


def test_shrinker_descends_into_a_two_conjunct_body(tmp_path):
    """x's one a-successor does both b and c, y's two do one each: the
    witness keeps its body's two conjuncts and drops what they carry."""
    path = tmp_path / "shrink.futs"
    path.write_text(SHRINK)
    s = parse_system(SHRINK)
    want = oracle.write_formula(oracle.witness_formula(s, "x", "y"), s.sig)
    assert want == "<a|tt> (<b|tt> T & <c|tt> T)"
    assert run_cli(["equiv", str(path), "x", "y", "--logic"]) == (
        1, f"x and y are distinguished\ndistinguishing formula: {want}\n")
