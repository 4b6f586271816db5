#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

Usage:
  python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds untraced result documents written by
`perfbench/run.py --save DIR` (traced documents are ignored). For every
workload and every end-to-end metric of BENCHMARK.json the table shows each
side's median and quartiles over its runs, the fraction of run pairs the new
side wins (pairs share a seed where they can, else they are matched in seed
order; ties count for neither side) and a verdict:

  regressed   the new median is worse than the base median by more than the
              metric's bound;
  unresolved  otherwise, the spread of either side (quartile distance over
              median) is wider than the bound, and not every new run beats
              every base run;
  improved    the new side wins at least 9 in 10 pairs and the medians differ
              by more than the base side's quartile distance;
  unchanged   everything else.

A row per workload also compares the failed fraction (failed / attempted
shots). The exit status is 1 when any metric regressed, the failed fraction
rose, or a new run reported an incorrect output; 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory):
    """workload -> list of untraced result documents."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if doc.get("traced"):
            continue
        runs.setdefault(doc["workload"], []).append(doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(base, new):
    """Matched (base, new) documents: by seed, else in seed order."""
    by_seed = {d["seed"]: d for d in base}
    common = [d for d in new if d["seed"] in by_seed]
    if common:
        return [(by_seed[d["seed"]], d) for d in common]
    key = lambda d: d["seed"]
    return list(zip(sorted(base, key=key), sorted(new, key=key)))


def verdict(spec, base_docs, new_docs):
    name, bound = spec["name"], spec["bound"]
    lower = spec["better"] == "lower"
    b = [d["metrics"][name]["value"] for d in base_docs]
    n = [d["metrics"][name]["value"] for d in new_docs]
    bm, nm = statistics.median(b), statistics.median(n)
    bq, nq = quartiles(b), quartiles(n)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    matched = pairs(base_docs, new_docs)
    wins = sum(better(y["metrics"][name]["value"], x["metrics"][name]["value"])
               for x, y in matched)
    win_frac = wins / len(matched) if matched else 0.0
    worse = ((nm - bm) if lower else (bm - nm)) / bm if bm else 0.0
    spread = max((bq[1] - bq[0]) / bm if bm else 0.0,
                 (nq[1] - nq[0]) / nm if nm else 0.0)
    if worse > bound:
        v = "regressed"
    elif spread > bound and not all(better(y, x) for x in b for y in n):
        v = "unresolved"
    elif win_frac >= 0.9 and abs(nm - bm) > bq[1] - bq[0]:
        v = "improved"
    else:
        v = "unchanged"
    return {"base": (bm, *bq), "new": (nm, *nq),
            "change": (nm - bm) / bm if bm else 0.0,
            "wins": f"{wins}/{len(matched)}", "spread": spread,
            "verdict": v}


def failed_frac(docs):
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] for d in docs) / attempted if attempted else 1.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--benchmark", type=Path,
                    default=Path(__file__).resolve().parent.parent /
                    "BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads(args.benchmark.read_text())
    base, new = load(args.base), load(args.new)

    bad = False
    row = "{:<22} {:<12} {:>32} {:>32} {:>8} {:>6} {:>7}  {}"
    cell = lambda m, q1, q3: f"{m:.5g} [{q1:.5g}, {q3:.5g}]"
    print(row.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "change", "wins", "spread",
                     "verdict"))
    for w in bench["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name:<22} missing from "
                  f"{'base' if name not in base else 'new'} set")
            bad = True
            continue
        for spec in bench["end_to_end"]:
            r = verdict(spec, base[name], new[name])
            print(row.format(name, spec["name"], cell(*r["base"]),
                             cell(*r["new"]), f"{r['change']:+.1%}",
                             r["wins"], f"{r['spread']:.1%}", r["verdict"]))
            bad |= r["verdict"] == "regressed"
        fb, fn = failed_frac(base[name]), failed_frac(new[name])
        incorrect = sum(not d["correct"] for d in new[name])
        rose = fn > fb or incorrect > 0
        print(row.format(name, "failed_frac", f"{fb:.3g}", f"{fn:.3g}", "",
                         "", "", "regressed" if rose else "unchanged") +
              (f" ({incorrect} incorrect run(s))" if incorrect else ""))
        bad |= rose
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
