"""The whole-partition signature refiner, kept as the differential oracle.

Every round re-quotients every transition term of every state under the
current partition and splits each block by the canonical serialisation
of the results.  Slow, but a direct transcription of the definition of
bisimulation, and independent of ``futs.bisim``'s compiled-graph engine.

Beside it live the routes the library replaced: the term-level
extension ``ext_related`` (superseded by ``Graph.classifier``), the
per-slot ``quotient_system``, the ``Partition`` helpers ``single`` and
``refine_by`` that only tests use, and carrier maps with the
homomorphism check that the kernel characterisation reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from futs.bisim import Partition
from futs.system import Futs
from futs.weightfn import Term, format_term, pushforward, quotient_term

from conftest import leaves, systems_equal, term_equal


@dataclass(frozen=True)
class CarrierMap:
    """A total map between the carriers of two systems."""

    source: Futs
    target: Futs
    mapping: dict

    def __post_init__(self):
        missing = [x for x in self.source.states if x not in self.mapping]
        if missing:
            raise ValueError(f"carrier map is not total: missing {missing}")
        bad = [y for y in self.mapping.values() if y not in set(self.target.states)]
        if bad:
            raise ValueError(f"carrier map hits unknown target states {bad}")

    def __call__(self, state: str) -> str:
        return self.mapping[state]

    @property
    def injective(self) -> bool:
        img = [self.mapping[x] for x in self.source.states]
        return len(set(img)) == len(img)


def identity_map(s: Futs) -> CarrierMap:
    return CarrierMap(s, s, {x: x for x in s.states})


def compose_maps(first: CarrierMap, second: CarrierMap) -> CarrierMap:
    if first.target is not second.source and not systems_equal(first.target, second.source):
        raise ValueError("carrier maps do not compose")
    return CarrierMap(first.source, second.target,
                      {x: second.mapping[first.mapping[x]] for x in first.source.states})


def is_homomorphism(f: CarrierMap) -> bool:
    """True iff the target transition of f(x) is the pushforward of x's."""
    if f.source.sig != f.target.sig:
        raise ValueError("homomorphism check needs systems of the same signature")
    for i, comp in enumerate(f.source.sig.components):
        for x in f.source.states:
            for a in comp.labels:
                image = pushforward(f.mapping, f.source.transition(i, x, a))
                if image != f.target.transition(i, f.mapping[x], a):
                    return False
    return True


def ext_related(p: Partition, t: Term, t2: Term) -> bool:
    """Extension of the partition to behaviours: equal quotiented terms."""
    carrier = set(p.carrier)
    for term in (t, t2):
        extra = leaves(term) - carrier
        if extra:
            raise ValueError(f"term mentions states outside the carrier: {sorted(extra)}")
    return term_equal(quotient_term(t, p.kappa), quotient_term(t2, p.kappa))


def _state_signature(s: Futs, p: Partition, x: str) -> tuple[str, ...]:
    sig = []
    for i, comp in enumerate(s.sig.components):
        for a in comp.labels:
            sig.append(format_term(quotient_term(s.transition(i, x, a), p.kappa), True))
    return tuple(sig)


def is_bisimulation(s: Futs, p: Partition) -> bool:
    """True iff all members of a block share the quotiented transition
    term at every (component, label) pair."""
    if set(p.carrier) != set(s.states):
        raise ValueError("partition carrier does not match the system's states")
    for block in p.blocks:
        if len(block) == 1:
            continue
        first = _state_signature(s, p, block[0])
        for x in block[1:]:
            if _state_signature(s, p, x) != first:
                return False
    return True


def single(carrier) -> Partition:
    """All of ``carrier`` in one block (no block when it is empty)."""
    carrier = tuple(sorted(set(carrier)))
    return Partition(carrier, (carrier,) if carrier else ())


def refine_by(p: Partition, key) -> Partition:
    """Each block of ``p`` split by the ``key`` of its members."""
    return Partition.group_by(p.carrier, lambda x: (p.kappa[x], key(x)))


def largest_bisimulation(s: Futs) -> Partition:
    """Split every block by its members' signatures until stable."""
    p = single(s.states)
    while True:
        refined = refine_by(p, lambda x: _state_signature(s, p, x))
        if refined == p:
            return p
        p = refined


def representative_quotient(s: Futs, p: Partition) -> Futs:
    """Each block's least member stands for the block, stepping as it does
    under the quotient map; ``p`` need not be a bisimulation."""
    trans = {(i, block[0], a): quotient_term(s.transition(i, block[0], a), p.kappa)
             for i, comp in enumerate(s.sig.components)
             for block in p.blocks for a in comp.labels}
    return Futs(s.sig, p.block_ids(), trans)


def quotient_system(s: Futs, p: Partition) -> Futs:
    """The quotient as ``futs.bisim`` built it before it read only stored
    transitions: every (component, representative, label) slot, zero terms
    included, pushed forward along the quotient map."""
    if not is_bisimulation(s, p):
        raise ValueError("quotient_system needs a bisimulation partition")
    return representative_quotient(s, p)


def is_kernel_bisimulation(s: Futs, p: Partition) -> bool:
    """Kernel characterisation: build the representative quotient and test
    whether the quotient map is a homomorphism into it.

    For every behaviour type in the catalog this coincides with
    ``futs.bisim.is_bisimulation``; both are kept as independent routes.
    """
    if set(p.carrier) != set(s.states):
        raise ValueError("partition carrier does not match the system's states")
    q = representative_quotient(s, p)
    return is_homomorphism(CarrierMap(s, q, dict(p.kappa)))
