#!/usr/bin/env python3
"""Steadiness and smoke checks for the causal-bus benchmark.

    python3 causalbench/steady.py [--runs N] [--sets 1|2] [--workloads a,b] [--seconds S]
    python3 causalbench/steady.py --smoke

Steadiness: builds once, then makes one or two sets of N runs of every
chosen workload (each run with another seed), alternating which set goes
first. For every (workload, end-to-end metric) it prints the median and
quartiles of each set, the spread (interquartile range over the median)
against the metric's bound in BENCHMARK.json, and with two sets how far
the second median is worse than the first. It also compares the share of
failed operations between the sets. Exits 1 if a spread, a drift or the
failed shares break the bounds.

Smoke: runs every workload for one second, untraced and traced, with all
checks on, and exits 1 unless every run is correct with no failed
operation.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SPEC = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def one(exe, workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    code, out = bench.run(exe, args, capture=True)
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {code}")
    return json.loads(lines[-1])


def smoke(exe):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            r = one(exe, w, 1, 1, trace)
            good = r["correct"] and r["failed"] == 0 and r["attempted"] > 0
            ok &= good
            print(f"{w:20} trace={trace} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} metrics={len(r['metrics'])} {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steady(exe, workloads, runs, sets, seconds):
    results = {(s, w): [] for s in range(sets) for w in workloads}
    for i in range(runs):
        order = list(range(sets)) if i % 2 == 0 else list(reversed(range(sets)))
        for w in workloads:
            for s in order:
                seed = 1000 * (s + 1) + i
                results[(s, w)].append(one(exe, w, seed, seconds, 0))
                print(f"  set {s} {w} seed {seed} done", file=sys.stderr)
    bad = False
    for w in workloads:
        shares = [sum(r["failed"] for r in results[(s, w)]) / max(1, sum(r["attempted"] for r in results[(s, w)]))
                  for s in range(sets)]
        if len(set(shares)) > 1:
            bad = True
        print(f"{w}: failed share per set {shares}")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            medians = []
            for s in range(sets):
                vals = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                if spread > bound:
                    bad = True
                flag = "" if spread <= bound / 3 else (" >1/3" if spread <= bound else " OVER")
                cells.append(f"med {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f}{flag}")
            line = f"  {name:18} bound {bound:4.2f} | " + " | ".join(cells)
            if sets == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                line += f" | drift {worse:+.3f}"
                if worse > bound:
                    bad = True
                    line += " OVER"
            print(line)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    a = p.parse_args()
    exe = bench.build()
    if exe is None:
        return 1
    if a.smoke:
        return smoke(exe)
    return steady(exe, a.workloads.split(","), a.runs, a.sets, a.seconds)


if __name__ == "__main__":
    sys.exit(main())
