"""Batch command-line interface.

Exit codes are uniform across subcommands: 0 success / property holds /
states equivalent, 1 property fails / states distinguished / violations
found, 2 usage or parse errors, 3 internal error (one stderr line, no
traceback).  All output is deterministic for fixed inputs; sampled modes
take an explicit ``--seed``.

``main(argv)`` is the in-process entry: it returns the exit code and leaves
the interpreter as it was.  ``run()`` is the process entry (``python -m
futs.cli`` and the ``futs`` script).  It turns the cyclic garbage collector
off, because the library makes no reference cycles, so the collector's
passes over a loaded system would free nothing.  After flushing the
standard streams it ends the process with ``os._exit``, skipping the heap
and module teardown that would only follow the answer.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

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


def _error(line: str) -> None:
    """Write one error line to stderr.  If stderr is closed (``None``) or
    cannot be written, the line is lost, but never sent to stdout, and the
    exit code stays the command's."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _load_system(path: str):
    from . import textio
    with open(path, encoding="utf-8") as fh:
        return textio.parse_system(fh.read())


def cmd_bisim(args) -> int:
    from .bisim import largest_bisimulation, quotient_system
    from .textio import write_system
    s = _load_system(args.file)
    part = largest_bisimulation(s)
    if args.quotient:  # written before the partition is printed, so a failure prints nothing
        quotient = write_system(quotient_system(s, part))
        with open(args.quotient, "w", encoding="utf-8") as fh:
            fh.write(quotient)
    print(part.render())
    return OK


def _run_reduction(s, stage: str):
    from .reduce import STAGE_FUNCS, to_wts
    run = to_wts if STAGE_BY_NAME[stage] is None else STAGE_FUNCS[STAGE_BY_NAME[stage]]
    try:
        return run(s)
    except ValueError as e:  # main reports it as a usage error
        raise ValueError(f"reduction to {stage} failed: {e}") from e


def cmd_reduce(args) -> int:
    from .textio import write_system
    paths = [args.output] + ([args.map] if args.map else [])
    if len({os.path.realpath(p) for p in paths}) < len(paths):
        _error("error: -o and --map name the same file")
        return USAGE
    r = _run_reduction(_load_system(args.file), args.to)
    texts = [write_system(r.target),
             "".join(f"{x} -> {x}\n" for x in r.source.states)]
    created = [path for path in paths if not os.path.exists(path)]
    try:  # every path is opened, which changes no file, before any is written
        for path in paths:
            open(path, "a", encoding="utf-8").close()
    except OSError:  # a failed command leaves no file it made behind
        for path in filter(os.path.exists, created):
            os.remove(path)
        raise
    for path, text in zip(paths, texts):  # without --map, zip drops the map's text
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return OK


def cmd_check(args) -> int:
    from .logic import sat_set
    from . import textio
    s = _load_system(args.file)
    if args.formula is not None:
        texts = [(args.formula, 1, 0)]  # (text, its first line, its indent)
    else:
        with open(args.formula_file, encoding="utf-8") as fh:
            texts = [(raw.strip(), n, len(raw) - len(raw.lstrip()))
                     for n, raw in enumerate(fh, start=1) if raw.strip()]
        if not texts:
            _error("error: no formulas in file")
            return USAGE
    if args.state is not None and args.state not in set(s.states):
        _error(f"error: unknown state {args.state!r}")
        return USAGE
    formulas = []  # all read before any is checked, so a bad one prints nothing
    for text, first, indent in texts:
        try:
            formulas.append((text, textio.parse_formula(text, s.sig)))
        except textio.ParseError as e:  # positioned in the file's raw lines
            raise textio.ParseError(textio.Diagnostic(first + d.line - 1, d.column + indent,
                                                      d.message) for d in e.diagnostics) from e
    all_hold = True
    for text, phi in formulas:  # each formula's lines are written at once
        sat = sat_set(s, phi)
        lines = [f"formula: {text}"] if len(formulas) > 1 else []
        if args.state is not None:
            holds = args.state in sat
            all_hold &= holds
            lines.append(f"{args.state}: {'true' if holds else 'false'}")
        else:
            lines += [f"{x}: {'true' if x in sat else 'false'}" for x in s.states]
        print("\n".join(lines))  # a system has at least one state
    return OK if all_hold else FAIL  # all_hold stays true without --state


def cmd_equiv(args) -> int:
    """Bisimilarity of two states; with ``--logic``, a witness in the file's own logic."""
    s = _load_system(args.file)
    x, y = args.x, args.y
    missing = [z for z in (x, y) if z not in s.states]
    if missing:
        _error(f"error: unknown state(s) {missing}")
        return USAGE
    if args.logic:
        from .logic import logical_witness
        from .textio import write_formula
        phi = logical_witness(s, x, y, args.depth)
        if phi is None:
            print(f"{x} and {y} are logically equivalent")
            return OK
        print(f"{x} and {y} are distinguished\ndistinguishing formula: {write_formula(phi, s.sig)}")
        return FAIL
    from .bisim import largest_bisimulation
    if largest_bisimulation(s).same_block(x, y):
        print(f"{x} and {y} are bisimilar")
        return OK
    print(f"{x} and {y} are not bisimilar")
    return FAIL


def cmd_verify(args) -> int:
    from .reduce import EXHAUSTIVE_LIMIT, verify_reduction
    s = _load_system(args.file)
    if args.exhaustive and len(s.states) > EXHAUSTIVE_LIMIT:  # refused before reducing
        _error(f"error: --exhaustive is limited to {EXHAUSTIVE_LIMIT} states "
               f"({len(s.states)} given); drop the flag to sample instead")
        return USAGE
    r = _run_reduction(s, args.to)
    report = verify_reduction(r, exhaustive=args.exhaustive, samples=args.samples, seed=args.seed)
    print(report.render())
    for v in report.violations:
        print(f"violation: {v}")
    return OK if report.ok else FAIL


def cmd_translate(args) -> int:
    from .logic import translate, translate_to_wts
    from .reduce import SIG_FUNCS
    from .textio import parse_formula, write_formula
    s = _load_system(args.sig)
    phi = parse_formula(args.formula, s.sig)
    if args.to == "wts":
        out, out_sig = translate_to_wts(s.sig, phi)
    else:
        stage = STAGE_BY_NAME[args.to]  # main reports a ValueError
        out, out_sig = translate(stage, s.sig, phi), SIG_FUNCS[stage](s.sig)
    print(write_formula(out, out_sig))
    return OK


def natural(text: str) -> int:  # argparse reports a ValueError as "invalid natural value"
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


TO = dict(required=True, choices=sorted(STAGE_BY_NAME))
ONE_OF = {"check": ("--formula", "--formula-file")}  # each a required group: exactly one given
# each subcommand's help and arguments: spellings (the long one last), add_argument's keywords
COMMANDS = {
    "bisim": ("largest bisimulation of a system", [("file", {}), ("--quotient", dict(
        metavar="OUT.futs", help="also write the quotient system"))]),
    "reduce": ("reduce a system to a target class", [
        ("file", {}), ("--to", TO), ("-o", "--output", dict(required=True, metavar="OUT.futs")),
        ("--map", dict(metavar="OUT.map", help="write source -> target state map"))]),
    "check": ("model-check a formula", [
        ("file", {}), ("--formula", {}), ("--formula-file", dict(metavar="FILE.fcl")),
        ("--state", dict(help="check a single state; exit 0 iff true"))]),
    "equiv": ("compare two states", [
        ("file", {}), ("x", {}), ("y", {}), ("--logic", dict(action="store_true", help="use "
         "bounded logical equivalence and report a distinguishing formula when possible")),
        ("--depth", dict(type=natural, default=None))]),
    "verify": ("verify reduction coherence", [
        ("file", {}), ("--to", TO), ("--exhaustive", dict(action="store_true")),
        ("--samples", dict(type=natural, default=100)), ("--seed", dict(type=int, default=0))]),
    "translate": ("translate a formula along a reduction", [
        ("--formula", dict(required=True)), ("--sig", dict(required=True, metavar="SYSTEM.futs",
         help="system file providing the source signature")), ("--to", TO)]),
}


def build_parser():
    """The argparse parser of ``COMMANDS``; only help and usage errors need it."""
    import argparse
    p = argparse.ArgumentParser(prog="futs", description="Quantitative transition systems: "
                                "bisimulation, reductions, and finite-conjunction logic.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, spec) in COMMANDS.items():
        c = sub.add_parser(name, help=text)
        group = c.add_mutually_exclusive_group(required=True) if name in ONE_OF else c
        for *names, keywords in spec:
            (group if names[-1] in ONE_OF.get(name, ()) else c).add_argument(*names, **keywords)
        c.set_defaults(fn=globals()[f"cmd_{name}"])
    return p


def read_args(argv):
    """``build_parser().parse_args(argv)`` if ``argv`` holds only exact option spellings, each
    value in the next token and positionals, none starting with ``-``, meeting every type, choice
    and requirement; else None for argparse (help, ``--opt=value``, ``--``, repeats, errors)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    spec = COMMANDS[argv[0]][1]
    options = {s: arg for arg in spec for s in arg[:-1] if s[0] == "-"}
    free, given, tokens = [arg for arg in spec if arg[0][0] != "-"], {}, iter(argv[1:])
    for tok in tokens:
        arg = options.get(tok) or (free.pop(0) if free else None)
        if arg is None:
            return None
        value = tok if arg[0][0] != "-" else "action" in arg[-1] or next(tokens, "-")
        if arg[-2] in given or value is not True and value[:1] == "-":
            return None
        try:
            value = arg[-1]["type"](value) if "type" in arg[-1] else value
        except ValueError:
            return None
        if value not in arg[-1].get("choices", [value]):
            return None
        given[arg[-2]] = value
    args = SimpleNamespace(command=argv[0], fn=globals()[f"cmd_{argv[0]}"])
    for *names, keywords in spec:
        if names[-1] not in given and (keywords.get("required") or names[-1][0] != "-"):
            return None
        value = keywords.get("default", False if "action" in keywords else None)
        setattr(args, names[-1].lstrip("-").replace("-", "_"), given.get(names[-1], value))
    one_of = [s in given for s in ONE_OF.get(argv[0], ())]
    return None if one_of and sum(one_of) != 1 else args


def main(argv=None) -> int:
    args = read_args(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return USAGE if e.code not in (0, None) else 0
    from .textio import ParseError  # every command reads a system file
    try:
        return args.fn(args)
    except ParseError as e:
        for d in e.diagnostics:
            _error(d.render())
        return USAGE
    except (OSError, ValueError) as e:  # a file that cannot be read or written, or bad input
        _error(f"error: {e}")
        return USAGE
    except Exception as e:  # a bug, never a verdict: exit 1 means "property fails"
        message = str(e).replace("\n", " ")
        _error(f"internal error: {type(e).__name__}: {message}")
        return INTERNAL


def run() -> None:
    """``main()`` as a process: no cyclic collection, no teardown at exit
    (see the module docstring).  If flushing stdout fails, the ordinary exit
    reports it and sets the status, as ``sys.exit(main())``.  An error line
    that stderr cannot take stays lost (see ``_error``): the status is kept."""
    gc.disable()
    code = main()
    try:
        if sys.stdout is not None:  # None: the descriptor was closed at start-up
            sys.stdout.flush()
    except OSError:
        sys.exit(code)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
