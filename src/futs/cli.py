"""Batch command-line interface.

Exit codes are uniform across subcommands: 0 success / property holds /
states equivalent, 1 property fails / states distinguished / violations
found, 2 usage or parse errors, 3 internal error (one stderr line, no
traceback).  All output is deterministic for fixed inputs; sampled modes
take an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

# Library modules are imported by the commands that use them, so a launch
# loads only what its subcommand runs (``--help`` loads none of them).

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3

STAGE_BY_NAME = {
    "unlabelled": "unlabel",
    "tabular": "tabularize",
    "homogeneous": "homogenize",
    "nested": "nest",
    "wts": None,  # composite
}


def _load_system(path: str):
    from . import textio
    with open(path, encoding="utf-8") as fh:
        return textio.parse_system(fh.read())


def cmd_bisim(args) -> int:
    from . import bisim, textio
    s = _load_system(args.file)
    part = bisim.largest_bisimulation(s)
    # written in full before any output, so a failure leaves neither
    quotient = textio.write_system(bisim.quotient_system(s, part)) if args.quotient else None
    print(part.render())
    if quotient is not None:
        with open(args.quotient, "w", encoding="utf-8") as fh:
            fh.write(quotient)
    return OK


def _run_reduction(s, stage: str):
    from . import reduce as rd
    if STAGE_BY_NAME[stage] is None:
        return rd.to_wts(s)
    return rd.STAGE_FUNCS[STAGE_BY_NAME[stage]](s)


def cmd_reduce(args) -> int:
    from . import textio
    s = _load_system(args.file)
    try:
        r = _run_reduction(s, args.to)
    except ValueError as e:
        print(f"error: reduction to {args.to} failed: {e}", file=sys.stderr)
        return USAGE
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(textio.write_system(r.target))
    if args.map:
        with open(args.map, "w", encoding="utf-8") as fh:
            for x in r.source.states:
                fh.write(f"{x} -> {r.state_map[x]}\n")
    return OK


def cmd_check(args) -> int:
    from . import logic, textio
    s = _load_system(args.file)
    if args.formula is not None:
        texts = [args.formula]
    else:
        with open(args.formula_file, encoding="utf-8") as fh:
            texts = [line for line in (raw.strip() for raw in fh) if line]
        if not texts:
            print("error: no formulas in file", file=sys.stderr)
            return USAGE
    if args.state is not None and args.state not in set(s.states):
        print(f"error: unknown state {args.state!r}", file=sys.stderr)
        return USAGE
    all_hold = True
    for text in texts:
        phi = textio.parse_formula(text, s.sig)
        sat = logic.sat_set(s, phi)
        if len(texts) > 1:
            print(f"formula: {text}")
        if args.state is not None:
            holds = args.state in sat
            all_hold &= holds
            print(f"{args.state}: {'true' if holds else 'false'}")
        else:
            for x in s.states:
                print(f"{x}: {'true' if x in sat else 'false'}")
    if args.state is not None:
        return OK if all_hold else FAIL
    return OK


def cmd_equiv(args) -> int:
    s = _load_system(args.file)
    states = set(s.states)
    if args.x not in states or args.y not in states:
        missing = [z for z in (args.x, args.y) if z not in states]
        print(f"error: unknown state(s) {missing}", file=sys.stderr)
        return USAGE
    if args.logic:
        from . import logic
        part = logic.bounded_logical_equiv(s, depth=args.depth)
        if part.same_block(args.x, args.y):
            print(f"{args.x} and {args.y} are logically equivalent")
            return OK
        print(f"{args.x} and {args.y} are distinguished")
        _print_witness(s, args.x, args.y)
        return FAIL
    from . import bisim
    part = bisim.largest_bisimulation(s)
    if part.same_block(args.x, args.y):
        print(f"{args.x} and {args.y} are bisimilar")
        return OK
    print(f"{args.x} and {args.y} are not bisimilar")
    return FAIL


def _print_witness(s, x: str, y: str):
    from . import logic, reduce as rd, textio
    from .monoid import cancellative, positive
    if s.sig.is_simple:
        target, tx, ty, sig = s, x, y, s.sig
    else:
        r = rd.to_wts(s)
        target, tx, ty, sig = r.target, r.state_map[x], r.state_map[y], r.target.sig
    m = sig.components[0].monoids[0]
    if positive(m) and cancellative(m):
        phi = logic.distinguishing_formula(target, tx, ty)
    else:
        phi = logic.witness_formula(target, tx, ty)
    if phi is None:
        print("no distinguishing formula found on the reduced system")
        return
    where = "" if target is s else " (over the reduced weighted system)"
    print(f"distinguishing formula{where}: {textio.write_formula(phi, sig)}")


def cmd_verify(args) -> int:
    from . import reduce as rd
    s = _load_system(args.file)
    try:
        r = _run_reduction(s, args.to)
    except ValueError as e:
        print(f"error: reduction to {args.to} failed: {e}", file=sys.stderr)
        return USAGE
    if args.exhaustive and len(s.states) > rd.EXHAUSTIVE_LIMIT:
        print(f"error: --exhaustive is limited to {rd.EXHAUSTIVE_LIMIT} states "
              f"({len(s.states)} given); drop the flag to sample instead",
              file=sys.stderr)
        return USAGE
    report = rd.verify_reduction(r, exhaustive=args.exhaustive,
                                 samples=args.samples, seed=args.seed)
    print(report.render())
    for v in report.violations:
        print(f"violation: {v}")
    return OK if report.ok else FAIL


def cmd_translate(args) -> int:
    from . import logic, reduce as rd, textio
    s = _load_system(args.sig)
    phi = textio.parse_formula(args.formula, s.sig)
    if args.to == "wts":
        out, out_sig = logic.translate_to_wts(s.sig, phi)
    else:
        stage = STAGE_BY_NAME[args.to]
        try:
            out = logic.translate(stage, s.sig, phi)
            out_sig = rd.SIG_FUNCS[stage](s.sig)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE
    print(textio.write_formula(out, out_sig))
    return OK


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
    e.add_argument("--depth", type=int, default=None)
    e.set_defaults(fn=cmd_equiv)

    v = sub.add_parser("verify", help="verify reduction coherence")
    v.add_argument("file")
    v.add_argument("--to", required=True, choices=sorted(STAGE_BY_NAME))
    v.add_argument("--exhaustive", action="store_true")
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("translate", help="translate a formula along a reduction")
    t.add_argument("--formula", required=True)
    t.add_argument("--sig", required=True, metavar="SYSTEM.futs",
                   help="system file providing the source signature")
    t.add_argument("--to", required=True, choices=sorted(STAGE_BY_NAME))
    t.set_defaults(fn=cmd_translate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    from .textio import ParseError  # every command reads a system file
    try:
        return args.fn(args)
    except ParseError as e:
        for d in e.diagnostics:
            print(d.render(), file=sys.stderr)
        return USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except Exception as e:  # a bug, never a verdict: exit 1 means "property fails"
        message = str(e).replace("\n", " ")
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
