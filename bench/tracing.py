"""Traced run: per-layer metrics from spans around the layer functions.

Each job is replayed three times per pass in-process through
``futs.cli.main(argv)``: with no wrappers, with every public layer function
wrapped in a span, and with no wrappers again.  Every replay checks the
job's answer.  ``trace.overhead_frac`` is the median over all jobs of the
traced wall over the mean of the two untraced ones, minus 1: the machine's
speed drifts during a run, which the untraced replays on both sides
cancel, and one replay's wall moves by up to a quarter on a shared
machine, which the median over jobs damps.  A span is (name, start,
end, parent, job); spans stay in memory until the run ends and are then
written to a JSON-lines file.  Wrappers replace the functions in every module namespace that binds
them (``futs.logic`` imports ``largest_bisimulation`` by name, ``futs.cli``
imports it and ``quotient_system``, ``futs.reduce.STAGE_FUNCS`` holds the
stages), so calls are caught whichever name they go through.

Before the replays the objects alive so far (the generated inputs among
them) are frozen out of the garbage collector, and garbage is collected
between replays, so that a replay's collections scan about what a fresh
CLI process would.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import os
import statistics
import sys
import time
import traceback

import check
from workloads import CHAIN_SIZES, WIDE_COPIES, WIDE_LADDER_BLOCKS

SPANS = {
    "futs.textio": ("parse_system", "write_system", "parse_formula", "write_formula"),
    "futs.reduce": ("to_wts", "unlabel", "tabularize", "homogenize", "nest", "flatten",
                    "verify_reduction"),
    "futs.bisim": ("largest_bisimulation", "quotient_system"),
    "futs.logic": ("sat_set", "translate_to_wts", "bounded_logical_equiv", "realizable_grid",
                   "distinguishing_formula", "witness_formula"),
}
NAMESPACES = ("futs", "futs.cli", "futs.textio", "futs.reduce", "futs.bisim", "futs.logic")
LADDER_SIZES = CHAIN_SIZES + tuple(b * WIDE_COPIES for b in WIDE_LADDER_BLOCKS)
STARTUP_LAUNCHES = 5

# name -> unit, in report order; every per-layer metric in BENCHMARK.json
METRICS = {
    "cli.startup_s": "s", "cli.residual_s": "s",
    "textio.parse_system.s": "s", "textio.parse_system.bytes": "bytes",
    "textio.parse_system.exponent": "1", "textio.write_system.s": "s",
    "textio.parse_formula.s": "s", "textio.write_formula.s": "s",
    "reduce.to_wts.s": "s", "reduce.to_wts.self_s": "s",
    "reduce.unlabel.s": "s", "reduce.tabularize.s": "s", "reduce.homogenize.s": "s",
    "reduce.nest.s": "s", "reduce.flatten.s": "s", "reduce.flatten.states_out": "count",
    "reduce.verify_reduction.s": "s", "reduce.verify_reduction.self_s": "s",
    "bisim.largest_bisimulation.s": "s",
    **{f"bisim.largest_bisimulation.n{n}": "s" for n in LADDER_SIZES},
    "bisim.largest_bisimulation.exponent": "1",
    "bisim.quotient_system.s": "s", "bisim.blocks": "count",
    "weightfn.quotient_term.calls": "count",
    "logic.sat_set.s": "s", "logic.sat_set.calls": "count",
    "logic.translate_to_wts.s": "s",
    "logic.bounded_logical_equiv.s": "s", "logic.bounded_logical_equiv.self_s": "s",
    "logic.realizable_grid.s": "s", "logic.realizable_grid.entries": "count",
    "logic.distinguishing_formula.s": "s", "logic.distinguishing_formula.self_s": "s",
    "logic.witness_formula.s": "s", "logic.witness_formula.self_s": "s",
    "logic.witness.size": "count",
    "logic.deep_formula.failed": "count",
    "trace.overhead_frac": "1",
}


def _formula_size(phi) -> int:
    size, stack = 0, [phi]
    while stack:
        f = stack.pop()
        size += 1
        stack.extend(getattr(f, name) for name in ("left", "right", "body") if hasattr(f, name))
    return size


# counters recorded from a call's arguments and result: span -> (counter, fn)
COUNTERS = {
    "textio.parse_system": ("textio.parse_system.bytes", lambda a, r: len(a[0].encode())),
    "reduce.flatten": ("reduce.flatten.states_out", lambda a, r: len(r.target.states)),
    "bisim.largest_bisimulation": ("bisim.blocks", lambda a, r: len(r.blocks)),
    "logic.sat_set": ("logic.sat_set.calls", lambda a, r: 1),
    "logic.realizable_grid": ("logic.realizable_grid.entries",
                              lambda a, r: sum(len(v) for v in r.values())),
    "logic.distinguishing_formula": ("logic.witness.size",
                                     lambda a, r: 0 if r is None else _formula_size(r)),
    "logic.witness_formula": ("logic.witness.size",
                              lambda a, r: 0 if r is None else _formula_size(r)),
}


class Tracer:
    """Spans and counters of the traced replays, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id, size]
        self.counts = {}         # (job id, counter) -> value
        self.stack = []
        self.job = None

    def span(self, name, fn, size=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.job,
                               size(args) if size else None])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if name in COUNTERS:
                counter, value = COUNTERS[name]
                key = (self.job, counter)
                self.counts[key] = self.counts.get(key, 0) + value(args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            key = (self.job, name)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


class Patches:
    """Installs and removes the wrappers in every namespace binding them."""

    def __init__(self, tracer: Tracer):
        import futs.reduce
        self.swaps = []          # (namespace dict, key, original, wrapper)
        sizes = {"bisim.largest_bisimulation": lambda a: len(a[0].states),
                 "textio.parse_system": lambda a: len(a[0].encode())}
        wrappers = {}
        for module, names in SPANS.items():
            mod = importlib.import_module(module)
            for name in names:
                span = f"{module.split('.')[1]}.{name}"
                fn = getattr(mod, name)
                wrappers[fn] = tracer.span(span, fn, sizes.get(span))
        bisim = importlib.import_module("futs.bisim")
        wrappers[bisim.quotient_term] = tracer.counter("weightfn.quotient_term.calls",
                                                       bisim.quotient_term)
        for module in NAMESPACES:
            ns = vars(importlib.import_module(module))
            for key, value in list(ns.items()):
                if callable(value) and value in wrappers:
                    if key == "quotient_term" and module != "futs.bisim":
                        continue
                    self.swaps.append((ns, key, value, wrappers[value]))
        for key, fn in futs.reduce.STAGE_FUNCS.items():
            self.swaps.append((futs.reduce.STAGE_FUNCS, key, fn, wrappers[fn]))

    def install(self):
        for ns, key, _, wrapper in self.swaps:
            ns[key] = wrapper

    def remove(self):
        for ns, key, original, _ in self.swaps:
            ns[key] = original


def _in_process(main, job, workdir):
    """Run futs.cli.main(argv) in this process; returns (wall, reason)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job.argv))
    except (Exception, SystemExit):  # an escaped exception is a failed job
        rc, err = 1, io.StringIO(traceback.format_exc())
    wall = time.perf_counter() - start
    return wall, check.classify(rc, out.getvalue(), err.getvalue(), False, job.check, workdir)


def _slope(points):
    """Least-squares slope of log(y) over log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def _write_spans(tracer: Tracer, path: str, origin: float) -> None:
    """One JSON object per span; times in seconds from the first replay."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job, _ in tracer.spans:
            fh.write(json.dumps({"name": name, "start": round(start - origin, 7),
                                 "end": round(end - origin, 7), "parent": parent,
                                 "pass": job[0], "job": job[1]}) + "\n")


def run(workload, workdir, seconds, deadline, run_job, no_work, src, spans_path):
    """The traced run; returns (metrics, units, attempted, failed, lines)."""
    sys.path.insert(0, src)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        import futs.cli
        tracer = Tracer()
        patches = Patches(tracer)
        startup = statistics.median(run_job(no_work, workdir).wall for _ in range(STARTUP_LAUNCHES))
        jobs = workload.jobs
        per_pass, failures, attempted, overheads = [], [], 0, []
        gc.collect()
        gc.freeze()
        loop_start = time.perf_counter()
        while True:
            rec = {"jobs": []}
            for job in jobs:
                job_id = (len(per_pass), job.name)
                walls = []
                for traced in (False, True, False):
                    gc.collect()
                    if traced:
                        tracer.job = job_id
                        patches.install()
                    try:
                        wall, reason = (tracer.span("cli.main", _in_process) if traced
                                        else _in_process)(futs.cli.main, job, workdir)
                    finally:
                        patches.remove()
                    walls.append(wall)
                    attempted += 1
                    failures += [(job.name, reason)] if reason else []
                overheads.append(2 * walls[1] / (walls[0] + walls[2]) - 1)
                rec["jobs"].append((job_id, job))
            per_pass.append(rec)
            now = time.perf_counter()
            took = now - loop_start
            if now + took / len(per_pass) > min(loop_start + seconds, deadline):
                break
    finally:
        gc.unfreeze()
        os.chdir(cwd)
    _write_spans(tracer, spans_path, loop_start)
    metrics = _layer_metrics(tracer, per_pass, startup)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    lines = [f"traced passes = {len(per_pass)}, jobs per pass = {len(jobs)}",
             f"fail_frac = {len(failures)}/{attempted}",
             f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, cwd)}"]
    lines += [f"failed: {name}: {reason}" for name, reason in failures[:20]]
    return metrics, dict(METRICS), attempted, len(failures), lines


def _layer_metrics(tracer: Tracer, per_pass, startup: float) -> dict:
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    by_pass = []
    for p, rec in enumerate(per_pass):
        total, self_t = {}, {}
        for idx, (name, start, end, _, job, _) in enumerate(spans):
            if job[0] != p:
                continue
            total[name] = total.get(name, 0.0) + end - start
            self_t[name] = self_t.get(name, 0.0) + end - start - child_time[idx]
        # process start and imports (a no-work launch per job), plus what
        # cli.main does outside the layer spans: argparse, file and stdout I/O
        m = {"cli.residual_s": len(rec["jobs"]) * startup + self_t["cli.main"]}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "s" and base in total:
                m[metric] = total[base]
            elif kind == "self_s" and base in total:
                m[metric] = self_t[base]
        for (job, counter), value in tracer.counts.items():
            if job[0] == p:
                m[counter] = m.get(counter, 0) + value
        for job_id, job in rec["jobs"]:
            if job.ladder_n is not None:
                m[f"bisim.largest_bisimulation.n{job.ladder_n}"] = sum(
                    s[2] - s[1] for s in spans
                    if s[4] == job_id and s[0] == "bisim.largest_bisimulation")
        by_pass.append(m)

    out = {}
    for metric in METRICS:
        values = [m.get(metric, 0.0) for m in by_pass]
        out[metric] = float(statistics.median(values))
    out["cli.startup_s"] = startup
    ladder = [(n, out[f"bisim.largest_bisimulation.n{n}"]) for n in LADDER_SIZES]
    out["bisim.largest_bisimulation.exponent"] = _slope(ladder)
    out["textio.parse_system.exponent"] = _slope(
        (s[5], s[2] - s[1]) for s in spans if s[0] == "textio.parse_system")
    return out
