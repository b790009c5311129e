"""Acceptance suite: one test (or test group) per criterion, each printing
a PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they execute.

Criteria 6.1 and 6.2 (the first two threshold-operator identities) are
asserted exactly as claimed and FAIL: both are refuted by finite
counterexamples, spelled out in the failure messages.  They are kept red
deliberately; everything they were used to justify (translation
semantics, full abstraction on cancellative weights) is covered by
criteria 3 and 5, which pass.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from futs.bisim import (
    Partition,
    all_partitions,
    is_bisimulation,
    largest_bisimulation,
)
from futs.logic import bounded_logical_equiv, satisfies, translate
from futs.monoid import (
    NAT_PLUS,
    RAT_PLUS,
    Product,
    add,
    add_all,
    nat_leq,
)
from futs.reduce import (
    STAGE_FUNCS,
    flatten,
    homogenize,
    nest,
    plan_wts_stages,
    tabularize,
    to_wts,
    unlabel,
    verify_reduction,
)
from futs.system import Futs
from futs.textio import parse_system, write_system
from futs.weightfn import Leaf, node

from conftest import (
    GOLDEN,
    cancellative_corpus,
    corpus_systems,
    project_component,
    random_formula,
    random_futs,
    random_weight,
    restrict,
    systems_equal,
)
from reduce_oracle import hom_apply, monoid_section, restrict_bisim


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# --- 1: worked-example reproduction -------------------------------------------

def test_criterion1_figure_reproduction(fig1):
    t0 = time.perf_counter()
    r = to_wts(fig1)
    ok = len(r.target.states) == 9
    originals = [x for x in r.target.states if not x.startswith("#")]
    ok &= originals == ["s0", "s1", "s2", "s3"]
    ok &= largest_bisimulation(fig1) == Partition.identity(fig1.states)
    ok &= restrict_bisim(r, largest_bisimulation(r.target)) == \
        Partition.identity(fig1.states)
    golden = GOLDEN.joinpath("fig1_wts.futs").read_text()
    ok &= write_system(r.target) == golden
    for value in ("1/2", "1/6", "1/3"):
        ok &= value in golden
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"4+5 states, identity partitions, exact golden weights "
                  f"({elapsed:.2f}s)")


# --- 2: exhaustive reduction coherence -----------------------------------------

def _reductions_for(s: Futs):
    yield unlabel(s)
    yield tabularize(s)
    yield homogenize(s)
    yield nest(homogenize(tabularize(s).target).target)
    cur = s
    for name in plan_wts_stages(s.sig)[:-1]:
        cur = STAGE_FUNCS[name](cur).target
    yield flatten(cur)
    yield to_wts(s)


def test_criterion2_reduction_coherence():
    t0 = time.perf_counter()
    systems = corpus_systems()
    assert len(systems) >= 30 and all(len(s.states) <= 5 for s in systems)
    violations, checked = [], 0
    for s in systems:
        for r in _reductions_for(s):
            rep = verify_reduction(r, exhaustive=True)
            checked += rep.relations_checked
            violations.extend(f"{r.kind}: {v}" for v in rep.violations)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 20.0
    report(2, ok, f"{len(systems)} systems x 6 reductions, {checked} relations, "
                  f"{len(violations)} violations ({elapsed:.1f}s)")


# --- 3: full abstraction on cancellative weights --------------------------------

def test_criterion3_full_abstraction():
    t0 = time.perf_counter()
    systems = cancellative_corpus(100)
    mismatches = [s for s in systems
                  if largest_bisimulation(s) != bounded_logical_equiv(s)]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 20.0
    report(3, ok, f"largest bisimulation == bounded logical equivalence on "
                  f"{len(systems)} systems ({elapsed:.1f}s)")


# --- 4: cancellativity is necessary ---------------------------------------------

def _depth2_boolean_sat_sets(s: Futs):
    """Satisfaction sets of every conjunction-closed boolean formula of
    modal depth <= 2, computed by brute force at the set level."""
    states = set(s.states)
    comp = s.sig.components[0]

    def diamond(a, body):
        return frozenset(
            x for x in states
            if any(k.state in body and w for k, w in s.transition(0, x, a).entries))

    def conj_closure(sets):
        sets = set(sets)
        while True:
            extra = {a & b for a, b in itertools.combinations(sets, 2)} - sets
            if not extra:
                return sets
            sets |= extra

    level = conj_closure({frozenset(states)})
    for _ in range(2):
        diamonds = {diamond(a, body) for a in comp.labels for body in level}
        level = conj_closure(level | diamonds)
    return level


def test_criterion4_cancellativity_necessary(absence_pair):
    s = absence_pair
    not_bisimilar = not largest_bisimulation(s).same_block("p0", "q0")
    logically_merged = all(
        bounded_logical_equiv(s, depth=d).same_block("p0", "q0")
        for d in (1, 2, 3, 5, len(s.states) + 3))
    brute = _depth2_boolean_sat_sets(s)
    brute_agrees = all(("p0" in t) == ("q0" in t) for t in brute)
    ok = not_bisimilar and logically_merged and brute_agrees
    report(4, ok, f"p0 !~ q0 but logically equivalent at every depth "
                  f"({len(brute)} brute-forced depth-2 satisfaction sets agree)")


# --- 5: translation semantics ----------------------------------------------------

def _prepared_for_stage(rng, stage):
    from conftest import NESTED3, TWO_COMP, ULTRAS_RAT, WLTS_NAT
    sig = rng.choice([WLTS_NAT, ULTRAS_RAT, TWO_COMP, NESTED3])
    s = random_futs(rng, sig, rng.randint(2, 4))
    if stage in ("unlabel", "tabularize", "homogenize"):
        return s
    if stage == "nest":
        return homogenize(tabularize(s).target).target
    cur = s
    for name in plan_wts_stages(s.sig)[:-1]:
        cur = STAGE_FUNCS[name](cur).target
    return cur


def test_criterion5_translation_semantics():
    t0 = time.perf_counter()
    rng = random.Random(20250101)
    stages = ("unlabel", "tabularize", "homogenize", "nest", "flatten")
    failures, triples = [], 0
    for stage in stages:
        for _ in range(100):
            s = _prepared_for_stage(rng, stage)
            r = STAGE_FUNCS[stage](s)
            phi = random_formula(rng, s.sig, rng.randint(1, 3))
            psi = translate(stage, s.sig, phi)
            x = rng.choice(s.states)
            triples += 1
            if satisfies(s, x, phi) != satisfies(r.target, r.state_map[x], psi):
                failures.append((stage, x, phi))
    elapsed = time.perf_counter() - t0
    ok = triples == 500 and not failures and elapsed < 10.0
    report(5, ok, f"{triples} (system, state, formula) triples across "
                  f"{len(stages)} stages, {len(failures)} failures ({elapsed:.1f}s)")


# --- 6: lemma suites ---------------------------------------------------------------

def _random_nat_term(rng, stack, states):
    if not stack:
        return Leaf(rng.choice(states))
    return node(stack, [(_random_nat_term(rng, stack[1:], states), rng.randint(1, 3))
                        for _ in range(rng.randint(0, 3))])


def test_criterion6_extension_composition():
    from futs.weightfn import format_term, quotient_term
    rng = random.Random(61)
    states = ["a", "b", "c", "d"]
    parts = list(all_partitions(states))
    failures = 0
    for _ in range(200):
        p = rng.choice(parts)
        t1 = _random_nat_term(rng, (NAT_PLUS, NAT_PLUS), states)
        t2 = _random_nat_term(rng, (NAT_PLUS, NAT_PLUS), states)

        def stepwise(term):
            classes = {}
            for k, w in term.entries:
                key = format_term(quotient_term(k, p.kappa), True)
                classes[key] = add(NAT_PLUS, classes.get(key, 0), w)
            return classes

        composite = quotient_term(t1, p.kappa) == quotient_term(t2, p.kappa)
        if composite != (stepwise(t1) == stepwise(t2)):
            failures += 1
    report("6[ext-composition]", failures == 0, f"200 instances, {failures} failures")


def test_criterion6_extension_product():
    from bisim_oracle import _state_signature, ext_related
    from conftest import TWO_COMP
    rng = random.Random(62)
    failures = checked = 0
    while checked < 200:
        s = random_futs(rng, TWO_COMP, 4)
        parts = list(all_partitions(s.states))
        p = rng.choice(parts)
        for x in s.states:
            for y in s.states:
                checked += 1
                piecewise = all(
                    ext_related(p, s.transition(i, x, a), s.transition(i, y, a))
                    for i, c in enumerate(s.sig.components) for a in c.labels)
                if piecewise != (_state_signature(s, p, x) == _state_signature(s, p, y)):
                    failures += 1
    report("6[ext-product]", failures == 0, f"{checked} instances, {failures} failures")


def test_criterion6_extension_restriction():
    from bisim_oracle import ext_related
    rng = random.Random(63)
    carrier = ["a", "b", "c", "d", "e"]
    sub = ["a", "b", "c"]
    parts = list(all_partitions(carrier))
    failures = 0
    for _ in range(200):
        p = rng.choice(parts)
        t1 = _random_nat_term(rng, (NAT_PLUS,), sub)
        t2 = _random_nat_term(rng, (NAT_PLUS,), sub)
        if ext_related(p, t1, t2) != ext_related(restrict(p, sub), t1, t2):
            failures += 1
    report("6[ext-restriction]", failures == 0, f"200 instances, {failures} failures")


def test_criterion6_extension_injective_transformation():
    from bisim_oracle import ext_related
    from futs.monoid import BOOL_OR
    rng = random.Random(64)
    states = ["a", "b", "c", "d"]
    parts = list(all_partitions(states))
    q = Product((NAT_PLUS, NAT_PLUS))
    sec = monoid_section(0, q)
    failures = 0
    for _ in range(200):
        p = rng.choice(parts)
        t1 = _random_nat_term(rng, (NAT_PLUS,), states)
        t2 = _random_nat_term(rng, (NAT_PLUS,), states)
        base = ext_related(p, t1, t2)
        lift = lambda u: node((BOOL_OR, NAT_PLUS), [(u, True)])
        remap = lambda u: node((q,), [(k, sec(w)) for k, w in u.entries])
        if ext_related(p, lift(t1), lift(t2)) != base:
            failures += 1
        elif ext_related(p, remap(t1), remap(t2)) != base:
            failures += 1
    report("6[ext-injective]", failures == 0, f"200 instances, {failures} failures")


def test_criterion6_bisim_product():
    from conftest import TWO_COMP
    rng = random.Random(65)
    failures = checked = 0
    while checked < 200:
        s = random_futs(rng, TWO_COMP, rng.randint(2, 4))
        for p in all_partitions(s.states):
            checked += 1
            piecewise = all(
                is_bisimulation(project_component(s, i), p)
                for i in range(len(s.sig.components)))
            if is_bisimulation(s, p) != piecewise:
                failures += 1
    report("6[bisim-product]", failures == 0, f"{checked} instances, {failures} failures")


def test_criterion6_bisim_flattening_restriction():
    from conftest import NESTED2_CANC, ULTRAS_RAT
    rng = random.Random(66)
    failures = checked = 0
    while checked < 200:
        sig = rng.choice([ULTRAS_RAT, NESTED2_CANC])
        s = random_futs(rng, sig, rng.randint(2, 3))
        cur = s
        for name in plan_wts_stages(s.sig)[:-1]:
            cur = STAGE_FUNCS[name](cur).target
        r = flatten(cur)
        if len(r.target.states) > 7:
            continue
        for p in all_partitions(r.target.states):
            if not is_bisimulation(r.target, p):
                continue
            checked += 1
            if not is_bisimulation(cur, restrict(p, cur.states)):
                failures += 1
    report("6[bisim-flattening]", failures == 0,
           f"{checked} flattened bisimulations restricted, {failures} failures")


def _in_threshold(m, term, bound, member_states):
    total = add_all(m, (w for k, w in term.entries if k.state in member_states))
    return nat_leq(m, bound, total)


def test_criterion6_mop_intersection():
    """Threshold operator, claimed identity (1): <m>(Y n Y') = <m>Y n <m>Y'.

    Asserted exactly as stated.  It is REFUTED: over nat-plus with
    rho = {y:1, z:1}, Y = {y}, Y' = {z}, m = 1, rho lies in both <1>Y and
    <1>Y' but not in <1>(Y n Y') = <1>{}.  Only the left-to-right
    inclusion (monotonicity) holds.  Kept failing on purpose.
    """
    rng = random.Random(67)
    states = ["x", "y", "z"]
    failures = []
    for _ in range(200):
        m = rng.choice([NAT_PLUS, RAT_PLUS])
        rho = _random_nat_term(rng, (NAT_PLUS,), states) if m is NAT_PLUS else \
            node((RAT_PLUS,), [(Leaf(x), Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                               for x in states if rng.random() < 0.6])
        y1 = {x for x in states if rng.random() < 0.5}
        y2 = {x for x in states if rng.random() < 0.5}
        bound = random_weight(rng, m, nonzero=True)
        lhs = _in_threshold(m, rho, bound, y1 & y2)
        rhs = _in_threshold(m, rho, bound, y1) and _in_threshold(m, rho, bound, y2)
        if lhs != rhs:
            failures.append((rho, bound, sorted(y1), sorted(y2)))
    ok = not failures
    detail = (f"200 instances, {len(failures)} failures"
              + ("" if ok else f"; first counterexample: rho={failures[0][0]}, "
                               f"m={failures[0][1]}, Y={failures[0][2]}, Y'={failures[0][3]}"))
    report("6[m-op-1 intersection]", ok, detail)


def test_criterion6_mop_sum_split():
    """Threshold operator, claimed identity (2): <m0+...+mn>Y = meet of <mi>Y.

    Asserted exactly as stated.  It is REFUTED for non-idempotent monoids:
    over nat-plus with rho = {y:1}, Y = {y}, m = m' = 1, rho lies in
    <1>Y n <1>Y but not in <2>Y.  Kept failing on purpose.
    """
    rng = random.Random(68)
    states = ["x", "y", "z"]
    failures = []
    for _ in range(200):
        rho = _random_nat_term(rng, (NAT_PLUS,), states)
        y1 = {x for x in states if rng.random() < 0.6}
        m1 = rng.randint(1, 3)
        m2 = rng.randint(1, 3)
        lhs = _in_threshold(NAT_PLUS, rho, m1 + m2, y1)
        rhs = _in_threshold(NAT_PLUS, rho, m1, y1) and _in_threshold(NAT_PLUS, rho, m2, y1)
        if lhs != rhs:
            failures.append((rho, m1, m2, sorted(y1)))
    ok = not failures
    detail = (f"200 instances, {len(failures)} failures"
              + ("" if ok else f"; first counterexample: rho={failures[0][0]}, "
                               f"m={failures[0][1]}, m'={failures[0][2]}, Y={failures[0][3]}"))
    report("6[m-op-2 sum-split]", ok, detail)


def test_criterion6_mop_product_bounds():
    rng = random.Random(69)
    states = ["x", "y", "z"]
    q = Product((NAT_PLUS, RAT_PLUS))
    failures = 0
    for _ in range(200):
        rho = node((q,), [(Leaf(x), random_weight(rng, q, nonzero=True))
                          for x in states if rng.random() < 0.7])
        y1 = {x for x in states if rng.random() < 0.5}
        bounds = (rng.randint(0, 3), Fraction(rng.randint(0, 3), rng.randint(1, 2)))
        combined = _in_threshold(q, rho, bounds, y1)
        split = all(
            _in_threshold(q, rho, hom_apply(monoid_section(j, q), b), y1)
            for j, b in enumerate(bounds))
        if combined != split:
            failures += 1
    report("6[m-op-3 product]", failures == 0, f"200 instances, {failures} failures")


def test_criterion6_mop_injective_hom():
    rng = random.Random(70)
    states = ["x", "y", "z"]
    q = Product((NAT_PLUS, NAT_PLUS))
    sec = monoid_section(0, q)
    failures = 0
    for _ in range(200):
        rho = _random_nat_term(rng, (NAT_PLUS,), states)
        y1 = {x for x in states if rng.random() < 0.5}
        bound = rng.randint(1, 4)
        mapped = node((q,), [(k, sec(w)) for k, w in rho.entries])
        if _in_threshold(NAT_PLUS, rho, bound, y1) != \
                _in_threshold(q, mapped, sec(bound), y1):
            failures += 1
    report("6[m-op-4 injective-hom]", failures == 0,
           f"200 instances, {failures} failures")


# --- 7: refinement equals the brute-force oracle ----------------------------------

def test_criterion7_oracle_equality():
    failures = 0
    systems = [s for s in corpus_systems() if len(s.states) <= 5]
    for s in systems:
        related = set()
        for p in all_partitions(s.states):
            if is_bisimulation(s, p):
                for block in p.blocks:
                    related.update((x, y) for x in block for y in block)
        classes = {frozenset(y for y in s.states if (x, y) in related)
                   for x in s.states}
        oracle = Partition.of_blocks(s.states, [sorted(c) for c in classes])
        if largest_bisimulation(s) != oracle:
            failures += 1
    report(7, failures == 0,
           f"union of all passing relations on {len(systems)} systems, "
           f"{failures} mismatches")


# --- 8: round-trip and golden stability --------------------------------------------

def test_criterion8_round_trip_and_stability(fig1):
    systems = corpus_systems()
    rng = random.Random(81)
    from conftest import NESTED3, TWO_COMP, ULTRAS_RAT, WLTS_NAT, WLTS_PROD
    for _ in range(40):
        sig = rng.choice([WLTS_NAT, WLTS_PROD, ULTRAS_RAT, TWO_COMP, NESTED3])
        systems.append(random_futs(rng, sig, rng.randint(1, 5)))
    bad = sum(1 for s in systems
              if not systems_equal(parse_system(write_system(s)), s))
    run1 = write_system(to_wts(fig1).target)
    run2 = write_system(to_wts(parse_system(write_system(fig1))).target)
    stable = run1 == run2 == GOLDEN.joinpath("fig1_wts.futs").read_text()
    report(8, bad == 0 and stable,
           f"{len(systems)} round-trips, {bad} mismatches; golden byte-stable: {stable}")
