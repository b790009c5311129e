"""Quantitative transition systems over abelian monoids.

Finite weighted/state-to-function transition systems, strong
bisimulation via partition refinement, bisimulation-coherent reductions
down to single-level weighted transition systems, and a fully abstract
finite-conjunction modal logic with formula translations along the
reductions.

The names below are loaded on first use (PEP 562): ``import futs`` loads
no submodule, and ``futs.X`` or ``from futs import X`` imports the one
module defining ``X``.
"""

import importlib

_EXPORTS = {
    "bisim": "Partition all_partitions is_bisimulation largest_bisimulation quotient_system",
    "logic": ("And Diamond Formula Top bounded_logical_equiv distinguishing_formula "
              "logical_witness sat_set satisfies translate translate_to_wts"),
    "monoid": ("BOOL_OR NAT_MAX NAT_PLUS RAT_PLUS Monoid Power Product add cancellative nat_leq "
               "positive power_dirac zero"),
    "reduce": "Reduction flatten homogenize nest plan_wts_stages tabularize to_wts unlabel "
              "verify_reduction",
    "system": "Component Futs Signature",
    "textio": "ParseError parse_formula parse_system write_formula write_system",
    "weightfn": "Leaf Node node pushforward quotient_term zero_term",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name always reads the submodule's current binding
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
