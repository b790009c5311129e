"""The argparse parser of the CLI as ``futs.cli.build_parser`` wrote it out,
one ``add_argument`` call per argument, before the argument table
(``futs.cli.COMMANDS``) took its place: the oracle that the parser built
from the table and the table's own reader (``futs.cli.read_args``) are
compared with."""

import argparse

from futs.cli import (
    STAGE_BY_NAME,
    cmd_bisim,
    cmd_check,
    cmd_equiv,
    cmd_reduce,
    cmd_translate,
    cmd_verify,
    natural,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="futs",
        description="Quantitative transition systems: bisimulation, "
                    "reductions, and finite-conjunction logic.")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bisim", help="largest bisimulation of a system")
    b.add_argument("file")
    b.add_argument("--quotient", metavar="OUT.futs",
                   help="also write the quotient system")
    b.set_defaults(fn=cmd_bisim)

    r = sub.add_parser("reduce", help="reduce a system to a target class")
    r.add_argument("file")
    r.add_argument("--to", required=True, choices=sorted(STAGE_BY_NAME))
    r.add_argument("-o", "--output", required=True, metavar="OUT.futs")
    r.add_argument("--map", metavar="OUT.map",
                   help="write source -> target state map")
    r.set_defaults(fn=cmd_reduce)

    c = sub.add_parser("check", help="model-check a formula")
    c.add_argument("file")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--formula")
    g.add_argument("--formula-file", metavar="FILE.fcl")
    c.add_argument("--state", help="check a single state; exit 0 iff true")
    c.set_defaults(fn=cmd_check)

    e = sub.add_parser("equiv", help="compare two states")
    e.add_argument("file")
    e.add_argument("x")
    e.add_argument("y")
    e.add_argument("--logic", action="store_true",
                   help="use bounded logical equivalence and report a "
                        "distinguishing formula when possible")
    e.add_argument("--depth", type=natural, default=None)
    e.set_defaults(fn=cmd_equiv)

    v = sub.add_parser("verify", help="verify reduction coherence")
    v.add_argument("file")
    v.add_argument("--to", required=True, choices=sorted(STAGE_BY_NAME))
    v.add_argument("--exhaustive", action="store_true")
    v.add_argument("--samples", type=natural, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("translate", help="translate a formula along a reduction")
    t.add_argument("--formula", required=True)
    t.add_argument("--sig", required=True, metavar="SYSTEM.futs",
                   help="system file providing the source signature")
    t.add_argument("--to", required=True, choices=sorted(STAGE_BY_NAME))
    t.set_defaults(fn=cmd_translate)
    return p
