#!/usr/bin/env python3
"""Compares two sets of benchmark results written by run.py --out.

    python3 perfbench/compare.py --base a/*.json --head b/*.json

For every workload and end-to-end metric it prints each side's median and
quartile spread and the change of the medians against the metric's bound in
BENCHMARK.json. Results whose environment stamps differ (pool worker count,
nproc or build type) are flagged NOT COMPARABLE instead of being compared.
"""
import argparse
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
STAMP = ("workers", "nproc", "build_type")


def load(paths):
    by_workload = {}
    for path in paths:
        with open(path) as f:
            r = json.load(f)
        if r["trace"] == 0:
            by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, head = load(args.base), load(args.head)
    for workload in sorted(set(base) & set(head)):
        stamps = {tuple(r["env"][k] for k in STAMP)
                  for r in base[workload] + head[workload]}
        print(f"## {workload}")
        if len(stamps) > 1:
            print(f"NOT COMPARABLE: environment stamps differ "
                  f"({', '.join(STAMP)}): {sorted(stamps)}")
            continue
        failed = [sum(r["failed"] for r in side) for side in (base[workload], head[workload])]
        print(f"failed operations: base {failed[0]}, head {failed[1]}")
        for name, m in spec.items():
            b = [r["metrics"][name]["value"] for r in base[workload]]
            h = [r["metrics"][name]["value"] for r in head[workload]]
            (bm, bs), (hm, hs) = summary(b), summary(h)
            change = (hm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "unresolved" if max(bs, hs) > m["bound"] else (
                "WORSE" if worse > m["bound"] else "within bound")
            print(f"{name:12} base {bm:12.5g} (iqr {bs:6.1%})  head {hm:12.5g} "
                  f"(iqr {hs:6.1%})  change {change:+7.1%}  bound {m['bound']:.0%}  {verdict}")


if __name__ == "__main__":
    main()
