"""The three workloads: their inputs, jobs and known answers.

Each workload function takes a seeded ``random.Random`` and returns the files to
write (name -> generated system or text) and the job sequence of one
pass.  A job is one CLI invocation whose answer is checked by
``check``; file names in ``argv`` are relative to the work directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import check
import gen


@dataclass
class Job:
    name: str
    argv: list
    check: Callable
    ladder_n: Optional[int] = None   # a point of the workload's scaling ladder
    cmd: Optional[list] = None       # a whole command instead of the CLI


@dataclass
class Workload:
    files: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)
    probes: list = field(default_factory=list)   # known defects, run once, not gated

    def add(self, name, system):
        self.files[name] = system
        return name


def _wts_route(w: Workload, name: str, s: gen.System):
    """`reduce --to wts`, then `bisim` on the WTS restricted to the
    original states: the route that computes bisimulation by reduction."""
    base = name[:-len(".futs")]
    w.jobs.append(Job(f"reduce {base}",
                      ["reduce", name, "--to", "wts", "-o", f"{base}.wts.futs",
                       "--map", f"{base}.map"],
                      check.wts_written(f"{base}.wts.futs", f"{base}.map", s.states)))
    w.jobs.append(Job(f"bisim {base}.wts", ["bisim", f"{base}.wts.futs"],
                      check.partition(s.blocks, restrict=set(s.states))))


def _quotient_job(w: Workload, name: str, s: gen.System, ladder_n=None):
    base = name[:-len(".futs")]
    w.jobs.append(Job(f"bisim --quotient {base}",
                      ["bisim", name, "--quotient", f"{base}.q.futs"],
                      check.partition(s.blocks, quotient=f"{base}.q.futs", system=s),
                      ladder_n=ladder_n))


def _pair(rng, blocks, same: bool):
    if same:
        block = rng.choice([b for b in blocks if len(b) > 1])
        return rng.sample(block, 2)
    b1, b2 = rng.sample(blocks, 2)
    return rng.choice(b1), rng.choice(b2)


# --- deep: many refinement rounds on small files ----------------------------

CHAIN_SIZES = (80, 160, 320)
LADDER_LEVELS, LADDER_COPIES = 72, 4
RING_POSITIONS, RING_COPIES, RING_PAIRS = 20, 4, 3


def deep(rng) -> Workload:
    w = Workload()
    chains = {}
    for n in CHAIN_SIZES:
        s = chains[n] = gen.chain(rng, n)
        name = w.add(f"chain{n}.futs", s)
        w.jobs.append(Job(f"bisim chain{n}", ["bisim", name], check.partition(s.blocks),
                          ladder_n=n))
    mid = CHAIN_SIZES[1]
    s = chains[mid]
    _quotient_job(w, f"chain{mid}.futs", s)
    _wts_route(w, f"chain{mid}.futs", s)
    x, y = _pair(rng, s.blocks, same=False)
    w.jobs.append(Job(f"equiv chain{mid}", ["equiv", f"chain{mid}.futs", x, y],
                      check.bisimilar(x, y, False)))

    for monoid in ("nat-plus", "bool-or", "nat-max"):
        s = gen.lifted_ladder(rng, LADDER_LEVELS, LADDER_COPIES, monoid)
        name = w.add(f"ladder-{monoid}.futs", s)
        _quotient_job(w, name, s)
        if monoid == "nat-max":
            _wts_route(w, name, s)
        else:
            same = monoid == "nat-plus"
            x, y = _pair(rng, s.blocks, same)
            w.jobs.append(Job(f"equiv ladder-{monoid}", ["equiv", name, x, y],
                              check.bisimilar(x, y, same)))

    s = gen.ring(rng, RING_POSITIONS, RING_COPIES)
    name = w.add("ring.futs", s)
    w.jobs.append(Job("bisim ring", ["bisim", name], check.partition(s.blocks)))
    _quotient_job(w, name, s)
    # three pairs of each kind: with them, about half the jobs of a pass
    # cost 0.5-0.8 s, so the median job falls among these, not in the gap
    # between them and the 0.2-0.3 s ones
    for j in range(RING_PAIRS):
        for same in (True, False):
            x, y = _pair(rng, s.blocks, same)
            w.jobs.append(Job(f"equiv ring {'same' if same else 'other'} {j}",
                              ["equiv", name, x, y], check.bisimilar(x, y, same)))
    _wts_route(w, name, s)
    return w


# --- wide: many states and transitions, few rounds, big files ---------------

WIDE_COPIES = 16
WIDE_LADDER_BLOCKS = (50, 100, 200)      # x WIDE_COPIES states
FAMILY_COPIES = 6
FAMILIES = {
    # name: (components, blocks, job)
    "bool-or": ([(["a"], ["bool-or"])], 80, "quotient"),
    "product": ([(["a"], [("prod", ("nat-plus", "bool-or"))])], 80, "quotient"),
    "rat-plus": ([(["a"], ["rat-plus"])], 50, "verify"),
    "nat-max": ([(["a"], ["nat-max"])], 50, "verify"),
    "two-component": ([(["a"], ["nat-plus"]), (["b"], ["bool-or", "rat-plus"])], 50, "reduce"),
    "nested3": ([(["a"], ["bool-or", "nat-plus", "rat-plus"])], 25, "reduce"),
}
VERIFY_SAMPLES = 8


def _reduce_job(w: Workload, name: str, s: gen.System):
    base = name[:-len(".futs")]
    w.jobs.append(Job(f"reduce {base}",
                      ["reduce", name, "--to", "wts", "-o", f"{base}.wts.futs",
                       "--map", f"{base}.map"],
                      check.wts_written(f"{base}.wts.futs", f"{base}.map", s.states)))


def wide(rng) -> Workload:
    w = Workload()
    for blocks in WIDE_LADDER_BLOCKS:
        s = gen.lifted_random(rng, [(["a"], ["nat-plus"])], blocks, WIDE_COPIES, width=1,
                              density=1.0)
        n = len(s.states)
        name = w.add(f"nat-plus-{n}.futs", s)
        _quotient_job(w, name, s, ladder_n=n)
    for fam, (comps, blocks, job) in FAMILIES.items():
        s = gen.lifted_random(rng, comps, blocks, FAMILY_COPIES, width=1, density=1.0)
        name = w.add(f"{fam}.futs", s)
        if job == "quotient":
            _quotient_job(w, name, s)
        elif job == "reduce":
            _reduce_job(w, name, s)
        else:
            w.jobs.append(Job(f"verify {fam}",
                              ["verify", name, "--to", "wts", "--samples", str(VERIFY_SAMPLES),
                               "--seed", str(rng.randrange(1000))],
                              check.verified(2)))
    return w


# --- logic: model checking and the equivalence oracle -----------------------

FORMULA_CHAIN, LADDER_FORMULAS, CONJ_FORMULAS = 60, 40, 110
LIFTED_BLOCKS, LIFTED_COPIES, RANDOM_FORMULAS = 12, 4, 200
STATE_CHECKS = 16
RING_FORMULA_POSITIONS, RING_FORMULA_COPIES, RING_FORMULAS = 8, 3, 150
DEEP_FORMULA, DEFECT_FORMULA = 450, 600
LOGIC_CHAINS = range(10, 17)
TAIL_CHAIN, CHAIN_PAIRS = 15, 8
STAR_ENTRIES, STAR_HUBS = (10, 11, 12), 6
PAIR_BLOCKS, PAIR_COPIES = 5, 3
ABSENCE_PAIRS, ABSENCE_DEPTH = 3, 3
ABSENCE_PAIR = """futs
labels A0 = { a, b }
monoids M0 = [ bool-or ]
states { p0, p1, pd, q0, q1 }
trans 0 p0 a -> { p1: tt, pd: tt }
trans 0 p1 b -> { pd: tt }
trans 0 q0 a -> { q1: tt }
trans 0 q1 b -> { pd: tt }
"""


def _formula_file(w: Workload, name: str, s: gen.System, formulas):
    cache = {}
    expected = [(gen.fmt_formula(s, phi), gen.sat_set(s, phi, cache)) for phi in formulas]
    w.files[name] = "".join(text + "\n" for text, _ in expected)
    return expected


def _ring_bound(rng, monoid):
    return True if monoid == "bool-or" else Fraction(rng.choice((1, 1, 2, 3, 6)), 6)


def _deep_formula(w: Workload, rng, depth: int) -> Job:
    """<1> <1> ... <1> T, `depth` diamonds deep, on a chain 20 states
    longer: it holds exactly where `depth` more steps are possible."""
    s = gen.chain(rng, depth + 20)
    name = w.add(f"chain{depth + 20}.futs", s)
    sat = set(s.states[:20])
    return Job(f"check depth-{depth}", ["check", name, "--formula", "<1> " * depth + "T"],
               check.sat_lines([("", sat)], s.states, single=True))


def logic(rng) -> Workload:
    w = Workload()
    s = gen.chain(rng, FORMULA_CHAIN)
    weight = s.trans[(0, "c0", "a")][0][1]
    chain_name = w.add(f"chain{FORMULA_CHAIN}.futs", s)
    spine = [gen.diamond_ladder([rng.randint(1, weight) if rng.random() < 0.9 else weight + 1
                                 for _ in range(1 + j % 10)]) for j in range(LADDER_FORMULAS)]
    # formulas share subterms: each ladder extends the previous one
    ladders = [spine[0]]
    for phi in spine[1:]:
        ladders.append(phi if rng.random() < 0.3 else ("dia", 0, "a", phi[3], ladders[-1]))
    conjs = [("and", *rng.sample(ladders, 2)) for _ in range(CONJ_FORMULAS)]
    expected = _formula_file(w, "chain.fcl", s, ladders + conjs)
    w.jobs.append(Job("check chain formulas", ["check", chain_name, "--formula-file", "chain.fcl"],
                      check.sat_lines(expected, s.states)))
    phi = ladders[-1]
    translated = gen.fmt_formula(s, phi).replace("<", "<({ a: ").replace(">", " })>")
    w.jobs.append(Job("translate chain formula",
                      ["translate", "--formula", gen.fmt_formula(s, phi), "--sig", chain_name,
                       "--to", "wts"], check.text_is(translated)))

    s = gen.lifted_random(rng, [(["a", "b"], ["nat-plus"])], LIFTED_BLOCKS, LIFTED_COPIES)
    lifted = w.add("lifted.futs", s)
    formulas = gen.random_formulas(rng, s, RANDOM_FORMULAS, depth=4)
    expected = _formula_file(w, "lifted.fcl", s, formulas)
    w.jobs.append(Job("check lifted formulas", ["check", lifted, "--formula-file", "lifted.fcl"],
                      check.sat_lines(expected, s.states)))
    for j in range(STATE_CHECKS):
        text, sat = rng.choice(expected)
        x = rng.choice(s.states)
        w.jobs.append(Job(f"check --state {j}",
                          ["check", lifted, "--formula", text, "--state", x],
                          check.holds_at(x in sat)))

    # two-level formulas on the scaled Fig. 1 ring: distribution bounds
    s = gen.ring(rng, RING_FORMULA_POSITIONS, RING_FORMULA_COPIES)
    ring = w.add("ring.futs", s)
    formulas = gen.random_formulas(rng, s, RING_FORMULAS, depth=4, bound=_ring_bound)
    expected = _formula_file(w, "ring.fcl", s, formulas)
    w.jobs.append(Job("check ring formulas", ["check", ring, "--formula-file", "ring.fcl"],
                      check.sat_lines(expected, s.states)))

    w.jobs.append(_deep_formula(w, rng, DEEP_FORMULA))
    w.probes.append(_deep_formula(w, rng, DEFECT_FORMULA))

    for n in LOGIC_CHAINS:
        # more pairs on one size, so that the p90 job falls among jobs of
        # one size rather than between two differently sized ones.  The
        # oracle's cost there depends on the chain's weight, so each pair
        # gets its own chain with one of the weights 1..CHAIN_PAIRS, the
        # same set on every seed; the witness search stops at the level
        # where the pair splits, which depends on the later state's
        # distance to the end, so that is fixed
        weights = range(1, CHAIN_PAIRS + 1) if n == TAIL_CHAIN else [None]
        for j, weight in enumerate(weights):
            s = gen.chain(rng, n, prefix="d", weight=weight)
            name = w.add(f"logic-chain{n}-{j}.futs", s)
            x, y = rng.choice(s.states[:n // 2]), s.states[n // 2]
            w.jobs.append(Job(f"equiv --logic chain{n} {j}", ["equiv", name, x, y, "--logic"],
                              check.logically(x, y, False, s)))
    for k in STAR_ENTRIES:
        s = gen.stars(rng, STAR_HUBS, k)
        name = w.add(f"stars{k}.futs", s)
        for y, same in (("h1", True), ("h2", False)):
            w.jobs.append(Job(f"equiv --logic stars{k} {y}", ["equiv", name, "h0", y, "--logic"],
                              check.logically("h0", y, same, s)))
    s = gen.lifted_random(rng, [(["a", "b"], ["nat-plus"])], PAIR_BLOCKS, PAIR_COPIES)
    name = w.add("pairs.futs", s)
    for j, same in enumerate((True, False, True, False)):
        x, y = _pair(rng, s.blocks, same)
        w.jobs.append(Job(f"equiv --logic lifted {j}", ["equiv", name, x, y, "--logic"],
                          check.logically(x, y, same, s)))
    s = gen.absence_pairs(rng, ABSENCE_PAIRS, ABSENCE_DEPTH)
    name = w.add("absence.futs", s)
    for i in range(ABSENCE_PAIRS):
        w.jobs.append(Job(f"equiv --logic absence {i}",
                          ["equiv", name, f"p{i}", f"q{i}", "--logic"],
                          check.logically(f"p{i}", f"q{i}", True)))
    # a root against a deadlocked leaf: <a|tt> T tells them apart, and the
    # witness comes from the second (non-cancellative) oracle run
    leaf = next(x for x in s.states if not any(k[1] == x for k in s.trans))
    w.jobs.append(Job("equiv --logic absence leaf", ["equiv", name, "p0", leaf, "--logic"],
                      check.logically("p0", leaf, False, s)))
    w.files["absence-pair.futs"] = ABSENCE_PAIR
    w.jobs.append(Job("equiv --logic absence-pair",
                      ["equiv", "absence-pair.futs", "p0", "q0", "--logic"],
                      check.logically("p0", "q0", True)))
    return w


WORKLOADS = {"deep": deep, "wide": wide, "logic": logic}
