#!/usr/bin/env python3
"""Steadiness of the end-to-end benchmark on unchanged code.

    python3 perfbench/steadiness.py

Runs two sets of ten runs of every workload (set A with seeds 1-10, set B
with seeds 11-20), alternating workloads within a set, through
perfbench/run.py with the run length from BENCHMARK.json. For every workload/metric pair it prints
each set's median and quartiles, the spread (quartile distance over the
median), the difference between the two medians and the metric's bound, and
compares the share of failed operations between the sets. Exit 1 when a
spread (setup_s excepted) or a median difference exceeds its bound, or the
failed shares differ.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("checks failed: %s seed %d" % (workload, seed))
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    sets = []
    for set_index in range(2):
        results = {w: [] for w in workloads}
        for i in range(RUNS):
            seed = set_index * RUNS + i + 1
            for w in workloads:
                results[w].append(run_once(w, seed, seconds))
                print("set %s run %d %s done" % ("AB"[set_index], i + 1, w),
                      file=sys.stderr, flush=True)
        sets.append(results)

    ok = True
    raw = []
    print("%-12s %-12s %9s %22s %7s %9s %22s %7s %8s %6s" %
          ("workload", "metric", "A median", "A [q1, q3]", "A sprd", "B median",
           "B [q1, q3]", "B sprd", "B-A", "bound"))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = []
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results[w]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                row.append((q2, q1, q3, spread))
                if name != "setup_s" and spread > bound:
                    ok = False
                raw.append("%s %s %s: %s" % (w, name, "AB"[len(row) - 1],
                                              " ".join("%.4g" % v for v in values)))
            diff = (medians[1] - medians[0]) / medians[0]
            worse = diff if m["better"] == "lower" else -diff
            if worse > bound:
                ok = False
            print("%-12s %-12s %9.4g [%9.4g, %9.4g] %6.1f%% %9.4g [%9.4g, %9.4g] %6.1f%% %+7.1f%% %5.0f%%" %
                  (w, name, row[0][0], row[0][1], row[0][2], 100 * row[0][3], row[1][0],
                   row[1][1], row[1][2], 100 * row[1][3], 100 * diff, 100 * bound))
        shares = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w]) for s in sets]
        print("%-12s failed share A %.6g, B %.6g" % (w, shares[0], shares[1]))
        if shares[0] != shares[1]:
            ok = False
    print("\nper-run values (seeds in order):")
    for line in raw:
        print("  " + line)
    print("steady within bounds" if ok else "NOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
