"""End-to-end benchmark of the futs command line.

    python3 bench/run.py --workload {deep,wide,logic} --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src``.
The benchmark generates the workload's inputs from the seed (answers known
by construction, see ``gen.py``), then runs the workload's job sequence as
a closed loop: one client, one job at a time, each job a fresh
``python -m futs.cli`` subprocess.  Whole passes over the sequence repeat
until the next one would end after ``--seconds`` (at least two passes).
Every answer is checked outside the timed region.  Each run starts with a
self-check of the answer checker and stops if it fails.  CPU times are
scaled to a reference machine speed read from a fixed probe job run
between the measured ones (see ``Speed``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it replays the jobs in-process with spans around the layer functions and
reports the per-layer metrics instead (see ``tracing.py``).  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
JOB_TIMEOUT = 60.0
HARD_LIMIT = 150.0          # seconds after start; the run must end well before 180
MIN_PASSES = 2
SETUP_SHARE = 0.1           # of --seconds spent repeating the set-up
SETUP_SAMPLES_PER_PASS = (3, 6)
NO_WORK = Job("startup", ["--help"], check.help_text)
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# a fixed pure-Python job that does not import futs, run between the
# measured ones to read the machine's current speed (see Speed)
PROBE = Job("speed probe", [], check.exit_zero, cmd=[
    sys.executable, "-c", "d = {}\nfor i in range(150000): d[i % 1013] = d.get(i % 1013, 0) + i"])
PROBE_REF_S = 0.075         # the probe's CPU seconds at the reference speed
PROBE_EVERY_S = 1.0         # CPU seconds of measured work between two probes


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Outcome(NamedTuple):
    wall: float             # seconds from spawn to exit
    cpu: float              # user + system seconds of the child
    reason: Optional[str]   # why the job failed, None if its answer is right


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_job(job: Job, workdir: str, timeout: float = JOB_TIMEOUT) -> Outcome:
    """Run one job to completion and check its answer.  Jobs run one at a
    time, so the growth of the reaped children's CPU time is this job's."""
    cmd = job.cmd or [sys.executable, "-m", "futs.cli", *job.argv]
    cpu0, start = children_cpu(), time.perf_counter()
    try:
        p = subprocess.run(cmd, cwd=workdir, env=cli_env(), capture_output=True,
                           text=True, timeout=max(timeout, 0.01))
        result = (p.returncode, p.stdout, p.stderr, False)
    except subprocess.TimeoutExpired:
        result = (None, "", "", True)
    wall, cpu = time.perf_counter() - start, children_cpu() - cpu0
    return Outcome(wall, cpu, check.classify(*result, job.check, workdir))


def write_inputs(workload, workdir: str):
    for name, content in workload.files.items():
        text = content if isinstance(content, str) else content.text()
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


class Speed:
    """The machine's speed during a run, read from the probe.

    On a shared machine the CPU time of identical work moves by up to a
    factor of two over phases some seconds long, as neighbours load the
    cores and caches; a probe run next to a job slows down with it.  On a
    2-CPU virtual machine the CPU times of a 0.4 s job and of the probes
    around it correlated at 0.89 (0.6 for a 1.3 s job, during which the
    speed changes more), and the quartile spread of the job's time fell
    from 34% to 8% once scaled (19% to 9% for the longer job).  The probe
    runs before the first measured work, whenever PROBE_EVERY_S of it has
    run since the last probe, and at the end; a measurement is scaled by
    PROBE_REF_S over the mean of the two probes around it, which gives its
    CPU seconds at the reference speed.  The probe never touches futs, so a
    change to the program moves the scaled times as much as the raw ones."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.probes = []     # CPU seconds of each probe, in order
        self.since = 0.0     # CPU seconds measured since the last probe

    def probe(self):
        out = run_job(PROBE, self.workdir)
        if out.reason:
            raise SystemExit(f"error: the speed probe failed: {out.reason}")
        self.probes.append(out.cpu)
        self.since = 0.0

    def stamp(self, cpu: float) -> tuple:
        """A measurement of ``cpu`` seconds, with its place among the probes."""
        stamped = (cpu, len(self.probes))
        self.since += cpu
        if self.since >= PROBE_EVERY_S:
            self.probe()
        return stamped

    def around(self, work):
        """Runs ``work()``, which returns (result, CPU seconds), right
        between two probes; returns (result, stamped CPU seconds).  For
        short measurements, which one probe a second would bracket loosely."""
        if self.since or not self.probes:
            self.probe()
        result, cpu = work()
        stamped = (cpu, len(self.probes))
        self.probe()
        return result, stamped

    def scaled(self, stamped: tuple) -> float:
        cpu, after = stamped
        return cpu * PROBE_REF_S / statistics.fmean(self.probes[after - 1:after + 1])


def setup(build, seed: int, workdir: str):
    """Generate and write the seeded inputs and launch the CLI once with no
    work; returns the workload and the CPU seconds taken (this process plus
    the launch), timed like the jobs."""
    gc.collect()  # earlier garbage is not this set-up's work
    start = time.process_time()
    workload = build(random.Random(seed))
    write_inputs(workload, workdir)
    launch = run_job(NO_WORK, workdir)
    if launch.reason:
        raise SystemExit(f"error: the CLI does not start: {launch.reason}")
    return workload, time.process_time() - start + launch.cpu


def tail_percentile(jobs_per_pass: int) -> int:
    """The highest percentile with at least 10 jobs beyond it in the
    smallest run (MIN_PASSES passes), so every run uses the same one."""
    n = MIN_PASSES * jobs_per_pass
    return next((q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10), 50)


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the average of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) mass of their rank
    interval.  A single order statistic jumps from one job type's time to
    another's when a new seed swaps two neighbours in the sorted order;
    this estimate moves only by their share of the weight."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each rank interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        knots = [density(i / n + k * h) * (1 if k in (0, steps) else 4 if k % 2 else 2)
                 for k in range(steps + 1)]
        weights.append(sum(knots) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure(jobs, workdir: str, seconds: float, t0: float, speed: Speed, between,
            per_pass: int):
    """Closed loop over whole passes; returns [(job, Outcome, stamp)] per
    pass, each job's CPU time stamped by ``speed``.  ``between()`` runs
    ``per_pass`` times per pass, evenly spaced between jobs and outside
    their timing."""
    passes = []
    loop_start = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append([])
        for i, job in enumerate(jobs):
            timeout = min(JOB_TIMEOUT, HARD_LIMIT - (time.perf_counter() - t0))
            out = run_job(job, workdir, timeout)
            passes[-1].append((job, out, speed.stamp(out.cpu)))
            if (i + 1) * per_pass // len(jobs) > i * per_pass // len(jobs):
                between()
        now = time.perf_counter()
        if now - t0 + (now - start) > HARD_LIMIT or (
                len(passes) >= MIN_PASSES and now - loop_start + (now - start) > seconds):
            if speed.since:
                speed.probe()
            return passes


def self_check(workdir: str) -> list[str]:
    """Feed the checker a wrong partition, a traceback and a timeout; each
    must count as a failure, and a right answer must not."""
    with open(os.path.join(workdir, "selfcheck.futs"), "w", encoding="utf-8") as fh:
        fh.write("futs\nlabels A0 = { a }\nmonoids M0 = [ nat-plus ]\n"
                 "states { c0, c1 }\ntrans 0 c0 a -> { c1: 1 }\n")
    right, wrong = [["c0"], ["c1"]], [["c0", "c1"]]
    say = "import sys; print('{ {c0}, {c1} }'); "
    cases = [
        (True, Job("right partition", ["bisim", "selfcheck.futs"], check.partition(right))),
        (False, Job("wrong partition", ["bisim", "selfcheck.futs"], check.partition(wrong))),
        (False, Job("traceback", [], check.partition(right), cmd=[
            sys.executable, "-c", say + "raise RuntimeError('injected')"])),
        (False, Job("timeout", [], check.partition(right), cmd=[
            sys.executable, "-c", say + "import time; time.sleep(30)"])),
    ]
    problems = []
    tally = []
    for want_ok, job in cases:
        reason = run_job(job, workdir, timeout=5.0 if want_ok else 0.5).reason
        tally.append(reason is not None)
        if (reason is None) != want_ok:
            verdict = "failed" if want_ok else "passed"
            problems.append(f"self-check {job.name}: {verdict} ({reason})")
    if sum(tally) != 3:
        problems.append(f"self-check: {sum(tally)}/4 failures counted, expected 3")
    return problems


def report(metrics: dict, units: dict, attempted: int, failed: int, lines=()):
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "futs", "cli.py")):
        print(f"error: no futs sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        problems = self_check(workdir)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        build = WORKLOADS[args.workload]
        speed = Speed(workdir)
        workload, first_setup = speed.around(lambda: setup(build, args.seed, workdir))
        if args.trace:
            import tracing
            metrics, units, attempted, failed, lines = tracing.run(
                workload, workdir, args.seconds, t0 + HARD_LIMIT, run_job, NO_WORK, SRC,
                os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics, units, attempted, failed, lines = end_to_end(
                workload, workdir, args.seconds, t0, speed, [first_setup],
                lambda: speed.around(lambda: setup(build, args.seed, workdir))[1])
        probe_failures = 0
        for probe in workload.probes:
            reason = run_job(probe, workdir).reason
            probe_failures += reason is not None
            lines.append(f"known-defect probe '{probe.name}': "
                         + ("answers correctly" if reason is None else f"fails ({reason})"))
        if args.trace:
            metrics["logic.deep_formula.failed"] = float(probe_failures)
        report(metrics, units, attempted, failed, lines)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(workload, workdir, seconds, t0, speed, setups, setup_again):
    """Timed passes.  The set-up is repeated between jobs, spread over the
    run, for about SETUP_SHARE of it, and its median reported, since a
    single short set-up moves with the machine's load from one second to
    the next.  Gated times are CPU seconds at the reference speed (see
    Speed); raw CPU and wall clock figures go to the log lines."""
    low, high = SETUP_SAMPLES_PER_PASS
    per_pass = min(high, max(low, round(SETUP_SHARE * seconds / MIN_PASSES / setups[0][0])))
    start = time.perf_counter()
    passes = measure(workload.jobs, workdir, seconds, t0, speed,
                     lambda: setups.append(setup_again()), per_pass)
    measured = time.perf_counter() - start
    results = [(job, out, speed.scaled(stamp)) for p in passes for job, out, stamp in p]
    failures = [(job.name, out.reason) for job, out, _ in results if out.reason]
    q = tail_percentile(len(workload.jobs))
    reading = {"scaled": lambda out, stamp: speed.scaled(stamp),
               "cpu": lambda out, _: out.cpu, "wall": lambda out, _: out.wall}
    summary = {}
    for kind, read in reading.items():
        by_pass = [[read(out, stamp) for _, out, stamp in p] for p in passes]
        values = [v for p in by_pass for v in p]
        summary[kind] = (statistics.median(map(sum, by_pass)),
                         quantile(values, 0.5), quantile(values, q / 100))
    setup_times = [speed.scaled(stamp) for stamp in setups]
    metrics = {"setup_s": statistics.median(setup_times),
               **dict(zip(("pass_cpu_s", "job_cpu_p50_s", "job_cpu_tail_s"), summary["scaled"])),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
    units = {k: "s" for k in metrics} | {"peak_rss_mb": "MB"}
    lines = [f"passes = {len(passes)}, jobs per pass = {len(workload.jobs)}, "
             f"jobs = {len(results)}, {measured:.1f} s with probes and set-ups",
             f"the tails are p{q} of {len(results)} jobs",
             f"setup_s is the median of {len(setup_times)} set-ups, "
             f"{min(setup_times):.4f}-{max(setup_times):.4f} s",
             f"{len(speed.probes)} speed probes, {min(speed.probes):.4f}-"
             f"{max(speed.probes):.4f} s CPU against {PROBE_REF_S} s at the reference speed",
             "raw CPU, not gated: pass %.4f s, job p50 %.4f s, job tail %.4f s" % summary["cpu"],
             "wall clock, not gated: pass %.4f s, job p50 %.4f s, job tail %.4f s"
             % summary["wall"],
             f"fail_frac = {len(failures)}/{len(results)}"]
    lines += [f"failed: {name}: {reason}" for name, reason in failures[:20]]
    for job in workload.jobs:
        mine = [(out, t) for j, out, t in results if j is job]
        lines.append(f"job {job.name}: median wall {statistics.median(o.wall for o, _ in mine):.4f} s"
                     f", cpu {statistics.median(o.cpu for o, _ in mine):.4f} s"
                     f", scaled {statistics.median(t for _, t in mine):.4f} s")
    return metrics, units, len(results), len(failures), lines


if __name__ == "__main__":
    sys.exit(main())
