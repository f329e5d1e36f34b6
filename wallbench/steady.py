#!/usr/bin/env python3
"""Steadiness check for the wall-clock benchmark.

Runs two sets of ten runs of one build on every workload (or on the
workloads named), with run_seconds from BENCHMARK.json and a new seed for
each run of a set (set 1: seeds 101-110, set 2: seeds 201-210). It prints
per workload and end-to-end metric each set's median and quartiles, the
spread (interquartile distance over the median) and whether the sets agree:

* every spread within the metric's bound, except that of setup_s, which
  is one cold set-up per run and is judged by its median only;
* the two medians within the bound of each other, in either direction;
* the same share of failed operations in both sets;
* night_1loader's modeled_night_s the same, to the last digit, when its
  first seed is run again.

    python3 wallbench/steady.py                  # every workload
    python3 wallbench/steady.py night_2loaders   # one workload

Run from the repository root. Exits 1 when any check disagrees.
"""

import json
import statistics
import subprocess
import sys

RUNS = 10
SET_SEEDS = [[100 * s + i for i in range(1, RUNS + 1)] for s in (1, 2)]


def run_once(bench, workload, seed):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs were not correct")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = sys.argv[1:] or names
    unknown = set(workloads) - set(names)
    if unknown:
        sys.exit(f"unknown workloads: {sorted(unknown)}")

    # sets[s][workload] -> results in seed order
    sets = [{w: [] for w in workloads} for _ in SET_SEEDS]
    for s, seeds in enumerate(SET_SEEDS):
        for seed in seeds:
            for w in workloads:
                sets[s][w].append(run_once(bench, w, seed))
                print(f"set {s + 1} {w}: {len(sets[s][w])}/{RUNS}", file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        shares = [sum(r["failed"] for r in st[w]) / sum(r["attempted"] for r in st[w]) for st in sets]
        same_share = shares[0] == shares[1]
        ok &= same_share
        print(f"  failed share per set: {shares} {'same' if same_share else 'DIFFERENT'}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, verdict, meds = [], [], []
            for st in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in st[w]])
                meds.append(med)
                cells.append(f"med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
                if name != "setup_s" and spread > bound:
                    verdict.append("spread over bound")
            apart = abs(meds[1] - meds[0]) / meds[0]
            if apart > bound:
                verdict.append(f"medians {apart:.3f} apart")
            ok &= not verdict
            print(f"  {name:24s} bound {bound:<5} " + " | ".join(cells)
                  + ("  " + "; ".join(verdict) if verdict else "  ok"))

    if "night_1loader" in workloads:
        first = sets[0]["night_1loader"][0]["metrics"]["modeled_night_s"]["value"]
        again = run_once(bench, "night_1loader", SET_SEEDS[0][0])["metrics"]["modeled_night_s"]["value"]
        same = first == again
        ok &= same
        print(f"\nnight_1loader seed {SET_SEEDS[0][0]} modeled_night_s {first} then {again}: "
              + ("identical" if same else "DIFFERENT"))
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
