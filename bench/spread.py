"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads deep wide logic] [--seeds 10] [--first-seed 1]
                            [--trace] [--out bench/BENCH_baseline.json]

Run from the repository root.  For every workload it runs ``bench/run.py``
once per seed, then prints each end-to-end metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  ``--trace`` adds one traced run per workload for the
per-layer metrics.  ``--out`` writes all of it, with the machine and the
``src`` line count, as a JSON record.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["log"] = p.stdout.strip().splitlines()[:-1]
    return result


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    command = [sys.executable] + bench["command"][1:]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"machine": {"nproc": len(os.sched_getaffinity(0)),
                          "python": platform.python_version(),
                          "platform": platform.platform()},
              "src.lines": sum(sum(1 for _ in open(f, encoding="utf-8"))
                               for f in glob.glob("src/**/*.py", recursive=True)),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs, start = [], time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(command, workload, seed, bench["run_seconds"], 0))
        entry = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": {}}
        print(f"{workload}: {args.seeds} runs in {time.perf_counter() - start:.0f} s, "
              f"correct={entry['correct']}, failed={sum(entry['failed'])}")
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            ok &= not flag
            print(f"  {name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.3f}  bound {bound}{flag}")
        if args.trace:
            traced = run_once(command, workload, args.first_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        # how far a single job moves between seeds, next to the aggregates
        per_job = {}
        for r in runs:
            for line in r["log"]:
                if line.startswith("job ") and ", cpu " in line:
                    name, value = line[4:].rsplit(": median wall ", 1)
                    per_job.setdefault(name, []).append(float(value.split()[-2]))
        entry["job_cpu_median_range_s"] = {k: [min(v), max(v)] for k, v in per_job.items()}
        entry["log_first_seed"] = runs[0]["log"]
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
