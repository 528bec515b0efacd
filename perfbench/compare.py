#!/usr/bin/env python3
"""Judge a change against its parent from two sets of benchmark results.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records `run.py --out FILE` appends, one per run. Runs
are paired by (workload, seed, trace): collect them by alternating parent
and change for each seed (parent first on odd pairs, change first on even
ones). For every (metric, workload) this prints each side's median and
quartiles and one verdict from stats.verdict: improved, unchanged, worse or
unresolved. End-to-end metrics are judged against the bounds in
BENCHMARK.json; per-layer metrics have no bound. Exits 1 if any verdict is
worse.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"], r["seed"])] = r
    return runs


def load_bounds():
    """metric -> (better, bound or None), from BENCHMARK.json."""
    return {m["name"]: (m["better"], m.get("bound"))
            for m in run.END_TO_END + run.LAYERS}


def compare(parent, change, bounds):
    """Rows of (workload, trace, metric, n, parent quartiles, change
    quartiles, verdict) over the runs both sides share."""
    rows = []
    groups = sorted({(w, t) for (w, t, _) in parent} &
                    {(w, t) for (w, t, _) in change})
    for w, t in groups:
        seeds = sorted(s for (pw, pt, s) in parent
                       if (pw, pt) == (w, t) and (w, t, s) in change)
        metrics = parent[(w, t, seeds[0])]["metrics"].keys() if seeds else []
        for m in metrics:
            if m not in bounds:
                continue
            p = [parent[(w, t, s)]["metrics"][m]["value"] for s in seeds]
            c = [change[(w, t, s)]["metrics"][m]["value"] for s in seeds]
            better, bound = bounds[m]
            rows.append((w, t, m, len(seeds), stats.quartiles(p),
                         stats.quartiles(c), stats.verdict(p, c, better, bound)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    rows = compare(load(args.parent), load(args.change), load_bounds())
    if not rows:
        print("no (workload, seed) pairs in common", file=sys.stderr)
        return 2
    for w, t, m, n, (p1, p2, p3), (c1, c2, c3), v in rows:
        print(f"{w:12s} {m:36s} n={n:<3d} parent {p2:.6g} [{p1:.6g}, {p3:.6g}]"
              f"  change {c2:.6g} [{c1:.6g}, {c3:.6g}]  {v}")
    return 1 if any(r[-1] == stats.WORSE for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
