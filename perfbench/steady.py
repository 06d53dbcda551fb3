#!/usr/bin/env python3
"""Steadiness report: repeat each workload and print, per end-to-end metric,
the median and quartiles across runs and the spread (Q3 - Q1) / median next
to the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 50
    python3 perfbench/steady.py --workloads cluster --runs 5 --seed0 100   # not in BENCHMARK.json
    python3 perfbench/steady.py --workloads solve --runs 3 --traced

Each run is `bash perfbench/run.sh --workload W --seed S --seconds T --trace 0`
with seeds seed0, seed0+1, ...; raw results go to .bench_build/steady-*.json.
With --traced, traced runs follow and the report adds the tracing overhead:
the median of the traced end-to-end numbers minus the untraced median.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d, exit %d):\n%s\n%s" % (workload, seed, p.returncode, p.stdout, p.stderr))
    res = json.loads(lines[-1])
    res["wall_s"] = wall
    res["notes"] = lines[:-1]
    return res


def traced_e2e(notes, workload):
    """Parses 'traced W end-to-end: name=valueunit ...' from a traced run."""
    for line in notes:
        if line.startswith("traced %s end-to-end:" % workload):
            body = line.split(":", 1)[1].split(";")[0]
            return {k: float(re.match(r"[-+0-9.eE]+", v).group(0))
                    for k, v in (kv.split("=") for kv in body.split())}
    return {}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None, help="comma-separated; default: the workloads of BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--traced", action="store_true", help="also make traced runs and report the tracing overhead")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or ",".join(w["name"] for w in bench["workloads"])
    raw = {}
    for w in workloads.split(","):
        runs = []
        for i in range(args.runs):
            r = run_once(w, args.seed0 + i, seconds, False)
            runs.append(r)
            print("%s seed %d: attempted %d failed %d wall %.1fs %s" % (
                w, args.seed0 + i, r["attempted"], r["failed"], r["wall_s"],
                " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))), flush=True)
        traced = []
        if args.traced:
            for i in range(args.runs):
                traced.append(run_once(w, args.seed0 + i, seconds, True))
        raw[w] = {"untraced": runs, "traced": traced}
        print("\n%s: %d runs of %ds, all correct: %s" % (w, len(runs), seconds, all(r["correct"] for r in runs)))
        print("%-16s %12s %12s %12s %8s %7s %s" % ("metric", "median", "q1", "q3", "spread", "bound", "spread<bound/3"))
        for name in sorted(runs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(vals)
            b = bounds.get(name, float("nan"))
            print("%-16s %12.5g %12.5g %12.5g %8.3f %7.2f %s" % (name, med, q1, q3, sp, b, "yes" if sp < b / 3 else "NO"))
            if traced:
                tv = [traced_e2e(t["notes"], w).get(name) for t in traced]
                tv = [v for v in tv if v is not None]
                if tv:
                    print("%-16s traced median %.5g, overhead %+.5g (%+.1f%%)" % (
                        "", statistics.median(tv), statistics.median(tv) - med,
                        100 * (statistics.median(tv) - med) / med if med else 0))
        print(flush=True)
    os.makedirs(".bench_build", exist_ok=True)
    path = ".bench_build/steady-%d.json" % int(time.time())
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print("raw results in", path)


if __name__ == "__main__":
    main()
