"""The one formula fold and the one oracle level loop against the recursive
formula functions and the two level loops they replace (``logic_oracle``).

Both sides build formulas from the same classes, so the formula passes'
results compare with ``==``; witnesses compare by ``repr``, which shows
both whole formulas when they differ."""

import random

from hypothesis import assume, given, settings, strategies as st

from futs.logic import (
    And,
    Diamond,
    Evaluator,
    _Levels,
    bounded_logical_equiv,
    check_formula,
    distinguishing_formula,
    sat_set,
    translate,
    translate_to_wts,
    witness_formula,
)
from futs.reduce import SIG_FUNCS, plan_wts_stages, to_wts
from futs.textio import ParseError, parse_formula, write_formula

import logic_oracle as oracle
from conftest import (
    CORPUS_SIGS,
    NESTED2_CANC,
    NESTED3,
    TWO_COMP,
    TWO_COMP_CANC,
    ULTRAS_RAT,
    random_formula,
    random_futs,
    random_weight,
)

STAGES = ("unlabel", "tabularize", "homogenize", "nest", "flatten")
# NESTED3's three-level bound grid makes every oracle run take about a second
ORACLE_SIGS = [sig for sig in CORPUS_SIGS if sig is not NESTED3]
REDUCED_SIGS = [ULTRAS_RAT, TWO_COMP, TWO_COMP_CANC, NESTED2_CANC]
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
    new, old = Evaluator(s), oracle.Evaluator(s)
    assert new.sat(checked) == old.sat(checked)
    assert len(new._cache) == len(old._cache)

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


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(CORPUS_SIGS), st.randoms(use_true_random=False))
def test_parse_formula_matches_oracle(sig, rng):
    text = write_formula(shared_formula(rng, sig, rng.randint(0, 6)), sig)
    for t in [text, f"({text})"] + [mutate(rng, text) for _ in range(6)]:
        assert outcome(parse_formula, t, sig) == outcome(oracle.parse_formula, t, sig)


def assert_oracle_agrees(s):
    for depth in (None, 1, 2):
        assert bounded_logical_equiv(s, depth=depth) == oracle.bounded_logical_equiv(s, depth=depth)
    levels, (_, _, old_ev) = _Levels(s, None, None).run(), oracle._oracle(s, None, None)
    assert len(levels.ev._cache) == len(old_ev._cache)
    for x in s.states:
        for y in s.states:
            new, old = outcome(distinguishing_formula, s, x, y), \
                outcome(oracle.distinguishing_formula, s, x, y)
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
