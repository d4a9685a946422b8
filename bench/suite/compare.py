#!/usr/bin/env python3
"""Compare two result sets of the BoLT benchmark suite.

    python3 bench/suite/compare.py BASE.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds JSON lines written by `run.py --record FILE`.  For every
workload x metric present in both sets the tool prints each side's
median and quartiles, each side's spread (Q3 - Q1 as a share of the
median), the change of the median, the win fraction of CHANGE over
BASE, and a verdict:

  improved    CHANGE wins at least 9 of 10 pairs and its median beats
              BASE's by more than BASE's own spread (Q3 - Q1);
  regressed   CHANGE's median is worse than BASE's by more than the
              metric's bound from BENCHMARK.json;
  unresolved  BASE's spread is wider than the bound, so "unchanged"
              cannot be told from noise (unless every CHANGE run beats
              every BASE run);
  unchanged   otherwise.

Runs pair up by seed (by order when the seeds differ); ties count for
neither side.  Per-layer metrics have no bound: they are reported as
improved or regressed only by the win-fraction-and-spread rule.  Exits 1
when any end-to-end metric regressed.
"""
import argparse
import json
import os
import statistics
import sys

DEFAULT_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "..", "BENCHMARK.json")


def load(path):
    runs = {}  # (workload, trace) -> {seed: metrics}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, lower_is_better, bound):
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if better(c, b))
    win_fraction = wins / len(pairs) if pairs else 0.0
    gain = (bmed - cmed) if lower_is_better else (cmed - bmed)
    spread = bq3 - bq1
    all_better = all(better(c, b) for c in change for b in base)
    if win_fraction >= 0.9 and gain > spread:
        return "improved", win_fraction
    if bound is None:
        losses = sum(1 for b, c in pairs if better(b, c))
        if losses / max(1, len(pairs)) >= 0.9 and -gain > spread:
            return "regressed", win_fraction
        return "unchanged", win_fraction
    if -gain > bound * abs(bmed):
        return "regressed", win_fraction
    if spread > bound * abs(bmed) and not all_better:
        return "unresolved", win_fraction
    return "unchanged", win_fraction


def share(q1, med, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--bench", default=DEFAULT_BENCH)
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    defs = {}
    for m in bench["end_to_end"]:
        defs[m["name"]] = (m["better"] == "lower", m["bound"])
    for m in bench["per_layer"]:
        defs[m["name"]] = (m["better"] == "lower", None)

    base, change = load(args.base), load(args.change)
    print("%-13s %-32s %12s %-25s %12s %-25s %7s %7s %8s %5s  %s" % (
        "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]",
        "spreadB", "spreadC", "delta", "win", "verdict"))
    regressed = False
    for key in sorted(set(base) & set(change)):
        workload, _ = key
        b_runs, c_runs = base[key], change[key]
        seeds = sorted(set(b_runs) & set(c_runs))
        if seeds:
            b_list = [b_runs[s] for s in seeds]
            c_list = [c_runs[s] for s in seeds]
        else:
            b_list = [b_runs[s] for s in sorted(b_runs)]
            c_list = [c_runs[s] for s in sorted(c_runs)]
        for name in sorted(set(b_list[0]) & set(c_list[0])):
            if name not in defs:
                continue
            lower, bound = defs[name]
            bv = [r[name] for r in b_list]
            cv = [r[name] for r in c_list]
            bq = quartiles(bv)
            cq = quartiles(cv)
            v, win = verdict(bv, cv, lower, bound)
            if v == "regressed" and bound is not None:
                regressed = True
            delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            print("%-13s %-32s %12.6g [%10.6g, %10.6g] %12.6g [%10.6g, %10.6g] "
                  "%6.1f%% %6.1f%% %+7.1f%% %5.2f  %s" % (
                      workload, name, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2],
                      100 * share(*bq), 100 * share(*cq), 100 * delta, win, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
