"""The whole-partition signature refiner, kept as the differential oracle.

Every round re-quotients every transition term of every state under the
current partition and splits each block by the canonical serialisation
of the results.  Slow, but a direct transcription of the definition of
bisimulation, and independent of ``futs.bisim``'s compiled-graph engine.
"""

from __future__ import annotations

from futs.bisim import Partition
from futs.system import CarrierMap, Futs, is_homomorphism
from futs.weightfn import format_term, quotient_term


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


def largest_bisimulation(s: Futs) -> Partition:
    """Split every block by its members' signatures until stable."""
    p = Partition.single(s.states)
    while True:
        refined = p.refine_by(lambda x: _state_signature(s, p, x))
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
